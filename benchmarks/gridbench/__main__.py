import sys

from benchmarks.gridbench.cli import main

sys.exit(main())
