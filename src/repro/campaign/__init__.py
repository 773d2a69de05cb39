"""``repro.campaign``: systematic fault-space sweeps over the catalogue.

    "How many scenarios can you imagine?"  Enumerate them instead.

The figure kernels exercise hand-picked faults; the campaign engine
enumerates the cross product of the fault catalogue x injection windows
x sites x job targets (and multi-fault combinations up to a configurable
order), runs every cell deterministically, and audits each run twice:

- *live*, via :meth:`PrincipleAuditor.live <repro.core.principles.PrincipleAuditor.live>`
  on the telemetry bus, judging every error hop, interface crossing and
  job outcome the instant it happens;
- *post hoc*, via :meth:`PrincipleAuditor.of_run
  <repro.core.principles.PrincipleAuditor.of_run>` over the run artifacts.

The two verdicts must agree event-for-event on every cell -- the engine
records the cross-check in each record.  Any violating cell is shrunk by
delta debugging to a minimal injection set and emitted as a replayable
JSON reproducer spec.

Exhaustive enumeration stops paying past order 2; the coverage-guided
fuzzer (:mod:`repro.campaign.fuzz`) explores the same space under a cell
budget instead, steered by the observability layer's own feedback
(:mod:`repro.obs.signature`), with the identical determinism and
byte-identity contract plus checkpoint/resume.

Entry points: ``python -m repro.harness campaign`` (CLI; ``campaign
fuzz`` for the explorer), :func:`~repro.campaign.engine.run_campaign`
and :func:`~repro.campaign.fuzz.run_fuzz` (library).
"""

from repro.campaign.corpus import Corpus, CorpusEntry
from repro.campaign.coverage import CoverageMap, FirstSeen
from repro.campaign.engine import CellError, run_campaign, run_cell_record
from repro.campaign.fuzz import FuzzConfig, MutationEngine, run_fuzz
from repro.campaign.report import render_fuzz_summary, render_summary
from repro.campaign.shrink import ddmin, minimize_cell, replay
from repro.campaign.spec import (
    CATALOGUE,
    CampaignConfig,
    CellSpec,
    ConfigError,
    FaultSpec,
    MutationSpace,
    build_fault,
    enumerate_cells,
    validate_injections,
)

__all__ = [
    "CATALOGUE",
    "CampaignConfig",
    "CellError",
    "CellSpec",
    "ConfigError",
    "Corpus",
    "CorpusEntry",
    "CoverageMap",
    "FaultSpec",
    "FirstSeen",
    "FuzzConfig",
    "MutationEngine",
    "MutationSpace",
    "build_fault",
    "ddmin",
    "enumerate_cells",
    "minimize_cell",
    "render_fuzz_summary",
    "render_summary",
    "replay",
    "run_campaign",
    "run_cell_record",
    "validate_injections",
]
