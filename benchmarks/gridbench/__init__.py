"""gridbench: the repo's benchmark of record.

One end-to-end and per-layer benchmark for the paths users walk.  See
README.md in this directory; ``BENCHMARK.json`` at the repo root declares
the workloads and metric names, which are normative.

    PYTHONPATH=src python -m benchmarks.gridbench [--seed N] [--json PATH]
    python3 benchmarks/gridbench/run.py --workload W --seed N --seconds S --trace 0|1
"""
