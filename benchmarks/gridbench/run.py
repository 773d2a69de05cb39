#!/usr/bin/env python3
"""Script entry for drivers: ``python3 benchmarks/gridbench/run.py --workload W ...``.

Finds the checkout from its own location, so it runs from any working
directory and needs no PYTHONPATH.  It measures the program in ``src/``;
where there is none, it says so and exits nonzero without a result.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def main() -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"gridbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from benchmarks.gridbench.cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
