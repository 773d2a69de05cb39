"""The five workloads, by name.

Each module exposes ``WHY`` and three functions the worker calls in
order: ``setup(seed, smoke, rec, tmp) -> state`` (untimed; counted in
``setup_s``), ``run(state, rec)`` (the timed section) and
``finish(state, rec, traced) -> outcome`` (untimed: correctness checks,
accounting, fingerprint, per-layer numbers).  They import only
``repro.*`` public API, and only inside functions, so importing this
package costs nothing and pulls nothing of the program under test in.
"""

from benchmarks.gridbench.workloads import (
    fuzz_campaign,
    harness_report,
    negotiate_scale,
    pool_backlog,
    service_roundtrip,
)

WORKLOADS = {
    "harness_report": harness_report,
    "negotiate_scale": negotiate_scale,
    "pool_backlog": pool_backlog,
    "fuzz_campaign": fuzz_campaign,
    "service_roundtrip": service_roundtrip,
}
