"""Kept for one importer: ``benchmarks/gridbench/workloads/fuzz_campaign.py``
(the benchmark of record, frozen between benchmark PRs) imports
``strip_wall`` from here.  The rule itself is :mod:`repro.obs.canonical`'s;
everything else this package held went when gridbench and the results
store became the one benchmark system (DESIGN.md §6)."""

from repro.obs.canonical import strip_wall

__all__ = ["strip_wall"]
