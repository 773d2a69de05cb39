#!/usr/bin/env python3
"""The NFS hard/soft mount dilemma (§5), plus the mechanism NFS lacks.

"Both users and administrators routinely comment how both of these
choices are unsavory, as they offer no mechanism for a single program to
choose its own failure criteria."  The third mode below -- a
per-operation deadline -- is that mechanism.

Run:  python examples/nfs_mount_dilemma.py
"""

from repro.harness.experiments import run_nfs_mounts


def main() -> None:
    result = run_nfs_mounts(outages=(5.0, 60.0, 600.0, 3600.0))
    print(result.table().render())
    print()
    print("hard mounts hide every outage inside elapsed time;")
    print("soft mounts expose even outages the program could have survived;")
    print("a per-operation deadline puts the crossover where the program wants it.")


if __name__ == "__main__":
    main()
