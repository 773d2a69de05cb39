"""Delta-debugging shrinker and replayable reproducer specs.

When a cell violates a principle, the interesting question is *which*
injections matter.  :func:`ddmin` (Zeller & Hildebrandt's minimizing
delta debugging) reduces the cell's injection set to a 1-minimal subset
that still violates -- removing any single remaining injection makes the
violation disappear.  Every probe is a deterministic cell run, so the
minimization itself is reproducible -- and a cell that was already run
is read, not run again (:func:`minimize_cell`).

The minimal cell is emitted as a **reproducer spec**: a small JSON
document carrying everything a replay needs (mode, seed, pool shape,
injections) plus the violations it is expected to reproduce.
:func:`replay` rebuilds the cell from the spec, runs it, and compares
the violation set against the expectation -- the acceptance check that
"every reported violation ships with a reproducer that reproduces it".
"""

from __future__ import annotations

import json
from collections.abc import Callable, Sequence
from dataclasses import replace

from repro.campaign.engine import _violation_key, run_cell_record
from repro.campaign.spec import CampaignConfig, CellSpec, FaultSpec
from repro.condor.daemons.config import CondorConfig

__all__ = ["ddmin", "minimize_cell", "replay"]

#: Format tag for reproducer specs (bump on incompatible change).
FORMAT = "repro-campaign-reproducer/1"


def _split(items: tuple, n: int) -> list[tuple]:
    """*items* in *n* contiguous, non-empty, exhaustive chunks."""
    size, rem = divmod(len(items), n)
    chunks, start = [], 0
    for i in range(n):
        width = size + (1 if i < rem else 0)
        if width:
            chunks.append(items[start : start + width])
        start += width
    return chunks


def ddmin(
    items: tuple,
    fails: Callable[[tuple], bool],
) -> tuple:
    """Minimize *items* to a 1-minimal subset for which *fails* holds.

    Classic ddmin: try chunks at increasing granularity, then their
    complements; restart whenever a smaller failing set is found.
    Precondition: ``fails(items)`` is true.
    """
    if not fails(items):
        raise ValueError("ddmin precondition: the full set must fail")
    n = 2
    while len(items) >= 2:
        chunks = _split(items, n)
        reduced = False
        for chunk in chunks:
            if fails(chunk):
                items, n, reduced = chunk, 2, True
                break
        if not reduced:
            for chunk in chunks:
                complement = tuple(x for x in items if x not in chunk)
                if complement and fails(complement):
                    items, n, reduced = complement, max(n - 1, 2), True
                    break
        if not reduced:
            if n >= len(items):
                break
            n = min(n * 2, len(items))
    return items


def _record_of(probe: CellSpec, config: CampaignConfig, records: dict) -> dict:
    """*probe*'s record: the one *records* holds, else a fresh simulation.

    A record is a function of (cell key, config), so one that is already
    known is not computed again.  A record whose ``error`` is set is
    never served: the campaign recorded that cell's crash, a probe
    re-raises it (``on_error="raise"``), exactly as if nothing were kept.
    """
    record = records.get(probe.key)
    if record is None or record["error"] is not None:
        record = records[probe.key] = run_cell_record(probe, config)
    return record


def minimize_cell(
    cell: CellSpec,
    config: CampaignConfig,
    keep: Callable[[dict], bool] | None = None,
    records: dict | None = None,
) -> dict:
    """Shrink *cell*'s injections; return the confirmed reproducer spec.

    The default predicate is "this injection subset still produces at
    least one violation"; the final spec records the minimal cell's own
    violation set (which the replay check compares against), not the
    original cell's -- subjects can shift as injections drop out.

    *keep* overrides the predicate with any judgement over the probe
    cell's full record.  The fuzzer passes "still produces *this*
    violation signature", which is what makes an order-3-only violation
    shrink to a 1-minimal *order-3* reproducer instead of collapsing
    onto whichever single fault violates something else first.

    *records* maps :attr:`CellSpec.key` to the record of every cell
    already simulated under *config*; probes read it before simulating
    and add what they simulate.  A campaign hands in the records it
    holds, so the full set, every subset that was itself a campaign cell
    and the minimal set cost nothing; a standalone call starts empty and
    still simulates no subset twice.  The mapping must not outlive
    *config* -- the key does not cover it.
    """
    if records is None:
        records = {}

    def fails(injections: Sequence[FaultSpec]) -> bool:
        record = _record_of(cell.with_injections(tuple(injections)), config, records)
        return keep(record) if keep is not None else bool(record["violations"])

    minimal = cell.with_injections(ddmin(cell.injections, fails))
    confirmed = _record_of(minimal, config, records)["violations"]
    return {
        "format": FORMAT,
        "cell": minimal.cell_id,
        "mode": cell.mode,
        "seed": cell.seed,
        "n_jobs": config.n_jobs,
        "n_machines": config.n_machines,
        "max_retries": config.max_retries,
        "max_time": config.max_time,
        "federation": config.federation,
        "defenses": config.defenses,
        "injections": [spec.as_dict() for spec in minimal.injections],
        # Copies: the record may be a campaign's own report row.
        "expect": [dict(violation) for violation in confirmed],
    }


def _mode(value) -> str:
    CondorConfig(error_mode=value)  # ValueError unless a mode the daemons know
    return value


#: The scalar fields a spec must carry, with what each is read through.
_SPEC_FIELDS = (
    ("mode", _mode), ("seed", int), ("n_jobs", int), ("n_machines", int),
    ("max_retries", int), ("max_time", float),
)


def replay(spec: dict | str) -> dict:
    """Re-run a reproducer spec (dict, or path to its JSON file).

    Returns ``{"reproduced": bool, "cell", "expect", "violations"}``
    where *reproduced* means the replayed violation set equals the
    spec's expectation exactly (the runs are deterministic, so anything
    short of equality is a real divergence).

    A spec is outside input.  Whatever is wrong with it -- unreadable, not
    JSON, the wrong format, a field missing or ill-typed, a fault kind
    the catalogue lacks -- raises the one
    ``ValueError("not a campaign reproducer spec: <reason>")``.

    Always a fresh simulation: this is the shrinker's acceptance check,
    so it reads no record the shrinker or a campaign kept.
    """
    what = "spec"
    try:
        if isinstance(spec, str):
            what = "unreadable file"
            with open(spec, encoding="utf-8") as fh:
                text = fh.read()
            what = "not JSON"
            spec = json.loads(text)
        what = "format"
        if not isinstance(spec, dict):
            raise ValueError(f"a JSON {type(spec).__name__}, not an object")
        if spec.get("format") != FORMAT:
            raise ValueError(f"{spec.get('format')!r}, not {FORMAT!r}")
        values = {}
        for name, convert in _SPEC_FIELDS:
            what = f"field {name!r}"
            values[name] = convert(spec[name])
        config = CampaignConfig(
            **values,
            federation=bool(spec.get("federation", False)),
            defenses=bool(spec.get("defenses", False)),
        )
        what = "field 'injections'"
        injections = tuple(FaultSpec.from_dict(d) for d in spec["injections"])
        replace(config, kinds=tuple(s.kind for s in injections)).catalogue()
        what = "field 'expect'"
        expect = list(spec.get("expect", []))
        expect_keys = sorted(map(_violation_key, expect))
    except KeyError as exc:
        raise ValueError(f"not a campaign reproducer spec: missing field {exc}") from exc
    except (OSError, TypeError, ValueError, AttributeError) as exc:
        raise ValueError(f"not a campaign reproducer spec: {what}: {exc}") from exc
    cell = CellSpec(
        cell_id=str(spec.get("cell", "replay")),
        mode=config.mode,
        seed=config.seed,
        injections=injections,
    )
    record = run_cell_record(cell, config)
    got = sorted(map(_violation_key, record["violations"]))
    return {
        "reproduced": expect_keys == got and bool(got),
        "cell": cell.cell_id,
        "expect": expect,
        "violations": record["violations"],
    }
