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

from repro.boundary import INT, STR, BadRequest, ConfigError, list_of, read_fields
from repro.campaign.engine import _violation_key, run_cell_record
from repro.campaign.spec import (
    CampaignConfig,
    CellSpec,
    FaultSpec,
    MutationSpace,
    validate_injections,
)
from repro.harness.parallel import shard_items

__all__ = ["ddmin", "minimize_cell", "replay"]

#: Format tag for reproducer specs (bump on incompatible change).
FORMAT = "repro-campaign-reproducer/1"


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
        chunks = shard_items(items, n)
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
    # The cell's own mode and seed: they are what its simulation reads.
    shape = {**config.as_dict(), "mode": cell.mode, "seed": cell.seed}
    return {
        "format": FORMAT,
        "cell": minimal.cell_id,
        **{key: shape[key] for key in _CONFIG_KEYS},
        "injections": [spec.as_dict() for spec in minimal.injections],
        # Copies: the record may be a campaign's own report row.
        "expect": [dict(violation) for violation in confirmed],
    }


#: The campaign fields a reproducer spec carries, in
#: :meth:`CampaignConfig.as_dict`'s spelling.
_CONFIG_KEYS = (
    "mode", "seed", "n_jobs", "n_machines", "max_retries", "max_time", "federation", "defenses",
)
_VIOLATION = {"principle": INT, "subject": STR, "description": STR}
#: Every field of a reproducer spec, each with how :func:`replay` reads it;
#: ``cell``, ``expect``, ``federation`` and ``defenses`` may be left out.
_SPEC_READERS = {
    "format": STR,
    "cell": STR,
    **{key: CampaignConfig.READERS[key] for key in _CONFIG_KEYS},
    "injections": list_of(FaultSpec.from_dict),
    "expect": list_of(lambda violation: read_fields(violation, _VIOLATION, required=_VIOLATION)),
}
_REQUIRED = ("format", *_CONFIG_KEYS[:-2], "injections")


def replay(spec: dict | str) -> dict:
    """Re-run a reproducer spec (dict, or path to its JSON file).

    Returns ``{"reproduced": bool, "cell", "expect", "violations"}``
    where *reproduced* means the replayed violation set equals the
    spec's expectation exactly (the runs are deterministic, so anything
    short of equality is a real divergence).

    A spec is outside input.  Whatever is wrong with it -- unreadable, not
    JSON, a field missing, unknown, of the wrong JSON type or one
    :meth:`CampaignConfig.from_dict` rejects, an injection outside the
    spec's own pool and catalogue (:func:`validate_injections`) -- raises
    the one ``BadRequest("not a campaign reproducer spec: <reason>")``.

    Always a fresh simulation: this is the shrinker's acceptance check,
    so it reads no record the shrinker or a campaign kept.
    """
    try:
        if isinstance(spec, str):
            with open(spec, encoding="utf-8") as fh:
                spec = json.load(fh)
        fields = read_fields(spec, _SPEC_READERS, required=_REQUIRED)
        if fields["format"] != FORMAT:
            raise ConfigError("format", f"{fields['format']!r}, not {FORMAT!r}")
        config = CampaignConfig.from_dict({k: fields[k] for k in _CONFIG_KEYS if k in fields})
        injections = fields["injections"]
        space = MutationSpace.from_config(config, order_max=len(injections))
        problems = validate_injections(injections, space)
        if problems:
            raise ConfigError("injections", "; ".join(problems))
    except (OSError, ValueError) as exc:
        what = ("unreadable file: " if isinstance(exc, OSError)
                else "not JSON: " if isinstance(exc, json.JSONDecodeError) else "")
        raise BadRequest(f"not a campaign reproducer spec: {what}{exc}") from exc
    expect = list(fields.get("expect", ()))
    cell = CellSpec(fields.get("cell", "replay"), config.mode, config.seed, injections)
    record = run_cell_record(cell, config)
    got = sorted(map(_violation_key, record["violations"]))
    return {
        "reproduced": sorted(map(_violation_key, expect)) == got and bool(got),
        "cell": cell.cell_id,
        "expect": expect,
        "violations": record["violations"],
    }
