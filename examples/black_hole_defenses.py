#!/usr/bin/env python3
"""Black-hole machines and the §5 defenses.

"A small number of misconfigured machines in our Condor pool attracted a
continuous stream of jobs that would attempt to execute, fail, and be
returned to the schedd."  This example measures that waste and the two
defenses the paper discusses: the startd's Autoconf-style self-test, and
schedd-side chronic-failure avoidance.

Run:  python examples/black_hole_defenses.py
"""

from repro.harness.experiments import run_black_hole


def main() -> None:
    result = run_black_hole(seed=3)
    print(result.table().render())
    print()
    none = result.row("none")
    selftest = result.row("self-test")
    print(f"Undefended, the pool wasted {none.wasted_attempts} executions and "
          f"{none.network_bytes - selftest.network_bytes} extra network bytes.")
    print("With the startd self-test, the black holes simply stopped "
          "advertising Java capability -- zero waste.")


if __name__ == "__main__":
    main()
