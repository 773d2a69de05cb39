"""Request-spec validation: payloads in, normalized replayable specs out.

Every POST body is validated here into a *normalized spec* -- the exact
dict the store persists and the executor replays.  Normalization is the
admission half of the boundary contract: nothing under-specified or
operator-hostile reaches the deterministic core, and nothing the client
sends can smuggle an identity (the ``owner`` of every simulated job is
the authenticated tenant; a spec claiming one is rejected outright).

Three run kinds:

- ``job``        -- one simulated grid job (compute + optional ending);
                    batched with other pending jobs into a single
                    deterministic pool run.
- ``experiment`` -- one named paper experiment at a seed; artifacts are
                    the CLI-identical trace/metrics/result.
- ``campaign``   -- a fault-campaign matrix sweep.
"""

from __future__ import annotations

from typing import Any

from repro.campaign.spec import CATALOGUE
from repro.harness.experiments import UnknownExperiment, lookup
from repro.service.errors import BadRequest

__all__ = [
    "BATCH_SCHEMA",
    "EXCEPTION_NAMES",
    "build_batch_spec",
    "normalize_campaign_spec",
    "normalize_experiment_spec",
    "normalize_job_spec",
]

BATCH_SCHEMA = "repro-service-batch/1"

#: Program exceptions a submitted job may end in (the workload
#: generator's set: program-scope results the user wants to see).
EXCEPTION_NAMES = (
    "ArithmeticException",
    "ArrayIndexOutOfBoundsException",
    "NullPointerException",
)

#: Work-seconds cap per job: keeps one tenant's submission from pinning
#: a worker on a week of simulated compute.
MAX_WORK = 10_000.0
MAX_CAMPAIGN_ORDER = 2
MAX_CAMPAIGN_JOBS = 16
MAX_CAMPAIGN_MACHINES = 16

_KIND_NAMES = tuple(info.kind for info in CATALOGUE)


def _require_mapping(payload: Any) -> dict:
    if not isinstance(payload, dict):
        raise BadRequest(f"request body must be a JSON object, got {type(payload).__name__}")
    return payload


def _reject_unknown(payload: dict, allowed: tuple[str, ...]) -> None:
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise BadRequest(
            f"unknown field(s) {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(allowed)}"
        )


def _int_field(payload: dict, name: str, default: int, lo: int, hi: int) -> int:
    value = payload.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadRequest(f"{name!r} must be an integer")
    if not lo <= value <= hi:
        raise BadRequest(f"{name!r} must be in [{lo}, {hi}], got {value}")
    return value


def normalize_job_spec(payload: Any) -> dict:
    """Validate a grid-job submission.

    Fields: ``work`` (simulated cpu-seconds, required), and at most one
    of ``exception`` (program exception name) / ``exit_code`` (1..9).
    No ``owner`` field exists on purpose -- identity comes from the
    bearer token alone.
    """
    payload = _require_mapping(payload)
    if "owner" in payload:
        raise BadRequest(
            "'owner' is not a job field: the job owner is the authenticated "
            "user from the bearer token"
        )
    _reject_unknown(payload, ("work", "exception", "exit_code"))
    work = payload.get("work")
    if isinstance(work, bool) or not isinstance(work, (int, float)):
        raise BadRequest("'work' (simulated cpu-seconds) is required and must be a number")
    if not 0.0 < float(work) <= MAX_WORK:
        raise BadRequest(f"'work' must be in (0, {MAX_WORK:g}], got {work!r}")
    exception = payload.get("exception")
    exit_code = payload.get("exit_code", 0)
    if exception is not None and exception not in EXCEPTION_NAMES:
        raise BadRequest(
            f"'exception' must be one of {', '.join(EXCEPTION_NAMES)}, got {exception!r}"
        )
    if isinstance(exit_code, bool) or not isinstance(exit_code, int) or not 0 <= exit_code <= 9:
        raise BadRequest(f"'exit_code' must be an integer in [0, 9], got {exit_code!r}")
    if exception is not None and exit_code:
        raise BadRequest("give 'exception' or 'exit_code', not both")
    return {"work": float(work), "exception": exception, "exit_code": exit_code}


def normalize_experiment_spec(payload: Any) -> dict:
    """Validate an experiment-launch submission: name + seed."""
    payload = _require_mapping(payload)
    _reject_unknown(payload, ("experiment", "seed"))
    name = payload.get("experiment")
    try:
        lookup(name)
    except UnknownExperiment as exc:
        raise BadRequest(str(exc)) from None
    seed = _int_field(payload, "seed", default=0, lo=0, hi=2**31 - 1)
    return {"experiment": name, "seed": seed}


def normalize_campaign_spec(payload: Any) -> dict:
    """Validate a campaign-launch submission (bounded matrix sweep)."""
    payload = _require_mapping(payload)
    _reject_unknown(
        payload, ("mode", "seed", "max_order", "kinds", "n_jobs", "n_machines")
    )
    mode = payload.get("mode", "scoped")
    if mode not in ("scoped", "classic", "naive"):
        raise BadRequest(f"'mode' must be scoped, classic, or naive, got {mode!r}")
    kinds = payload.get("kinds")
    if kinds is not None:
        if not isinstance(kinds, list) or not kinds:
            raise BadRequest("'kinds' must be a non-empty list of fault kinds")
        bad = sorted(set(kinds) - set(_KIND_NAMES))
        if bad:
            raise BadRequest(
                f"unknown fault kind(s) {', '.join(map(repr, bad))}; "
                f"catalogue: {', '.join(_KIND_NAMES)}"
            )
        kinds = sorted(set(kinds))
    return {
        "mode": mode,
        "seed": _int_field(payload, "seed", default=0, lo=0, hi=2**31 - 1),
        "max_order": _int_field(payload, "max_order", default=1, lo=1, hi=MAX_CAMPAIGN_ORDER),
        "kinds": kinds,
        "n_jobs": _int_field(payload, "n_jobs", default=4, lo=1, hi=MAX_CAMPAIGN_JOBS),
        "n_machines": _int_field(
            payload, "n_machines", default=3, lo=1, hi=MAX_CAMPAIGN_MACHINES
        ),
    }


def build_batch_spec(
    entries: list[dict],
    n_machines: int,
    seed: int,
    max_time: float,
) -> dict:
    """The deterministic batch spec for a set of pending job runs.

    *entries* are ``{"run_id", "tenant", "spec"}`` in run-id order.
    The batch is fully specified by this dict: replaying it through
    :func:`repro.service.executor.execute_batch` reproduces every
    per-job record byte-for-byte.
    """
    return {
        "schema": BATCH_SCHEMA,
        "seed": seed,
        "n_machines": n_machines,
        "max_time": max_time,
        "jobs": [
            {
                "run_id": entry["run_id"],
                "owner": entry["tenant"],
                "spec": entry["spec"],
            }
            for entry in sorted(entries, key=lambda e: e["run_id"])
        ],
    }
