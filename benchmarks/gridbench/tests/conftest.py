"""Make ``benchmarks.gridbench`` and ``repro`` importable for the self-tests.

Run with ``python -m pytest benchmarks/gridbench/tests -q`` from the repo
root; these are not part of the tier-1 ``testpaths``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[3]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
