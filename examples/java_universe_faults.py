#!/usr/bin/env python3
"""The paper's before/after: the same faulty pool, naive vs scope-aware.

Reproduces the §2.3 experience ("nearly any failure in a component of the
system would cause the job to be returned to the user with an error
message") and the §4 fix ("the hailstorm of error messages abated"), then
audits both runs against the four principles.

Run:  python examples/java_universe_faults.py
"""

from repro.harness.experiments import run_naive_vs_scoped


def main() -> None:
    result = run_naive_vs_scoped(seed=7)
    print(result.table().render())
    print()
    naive, scoped = result.naive, result.scoped
    print("The naive system exposed", naive.user_visible_incidental,
          "environmental errors to the user;")
    print("the scope-aware system exposed", scoped.user_visible_incidental,
          "-- it absorbed them with", scoped.wasted_attempts, "retries instead.")
    print()
    print("Principle violations (naive / scoped):")
    for p in (1, 2, 3, 4):
        print(f"  P{p}: {result.naive_violations[p]} / {result.scoped_violations[p]}")


if __name__ == "__main__":
    main()
