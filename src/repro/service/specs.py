"""Request-spec validation: payloads in, normalized replayable specs out.

Every POST body is read here into a *normalized spec* -- the exact dict
the store persists and the executor replays -- by its run kind's codec
(:func:`repro.boundary.read_fields`: exact JSON types, a ``ConfigError``
naming the field), then bounded by the service's :data:`CAPS`.  Nothing
the client sends can smuggle an identity: the ``owner`` of every
simulated job is the authenticated tenant, and no job field is so named.

Three run kinds:

- ``job``        -- one simulated grid job (:class:`JobSpec`); batched
                    with other pending jobs into a single deterministic
                    pool run.
- ``experiment`` -- one named paper experiment at a seed; artifacts are
                    the CLI-identical trace/metrics/result.
- ``campaign``   -- a fault-campaign matrix sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar

from repro.boundary import FLOAT, INT, STR, ConfigError, Spec, optional, read_fields
from repro.campaign.spec import CampaignConfig
from repro.harness.experiments import ExperimentSpec

__all__ = [
    "BATCH_SCHEMA",
    "CAPS",
    "EXCEPTION_NAMES",
    "JobSpec",
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

#: What this service admits of a valid spec, field -> inclusive bounds:
#: operator policy, not validity.  The work cap keeps one tenant's job from
#: pinning a worker on a week of simulated compute.
CAPS = {"work": (0.0, 10_000.0), "exit_code": (0, 9), "seed": (0, 2**31 - 1),
        "max_order": (1, 2), "n_jobs": (1, 16), "n_machines": (1, 16)}

#: What a campaign submission may set: a subset of ``CampaignConfig.as_dict``.
_CAMPAIGN_FIELDS = ("mode", "seed", "max_order", "kinds", "n_jobs", "n_machines")


@dataclass(frozen=True)
class JobSpec(Spec):
    """One grid job: ``work`` cpu-seconds, then an ``exception`` or an ``exit_code``."""

    work: float
    exception: str | None = None
    exit_code: int = 0

    READERS: ClassVar = {"work": FLOAT, "exception": optional(STR), "exit_code": INT}

    def __post_init__(self):
        if not self.work > 0:
            raise ConfigError("work", f"must be > 0, got {self.work!r}")
        if self.exception is not None and self.exit_code:
            raise ConfigError("exit_code", "give 'exception' or 'exit_code', not both")


def _capped(spec: dict) -> dict:
    for name, (low, high) in CAPS.items():
        if name in spec and not low <= spec[name] <= high:
            raise ConfigError(name, f"must be in [{low}, {high}] here, got {spec[name]!r}")
    return spec


def normalize_job_spec(payload: Any) -> dict:
    """A grid-job submission (``exception``, if any, one of :data:`EXCEPTION_NAMES`)."""
    spec = JobSpec.from_dict(payload)
    if spec.exception not in (None, *EXCEPTION_NAMES):
        raise ConfigError("exception", f"must be one of {', '.join(EXCEPTION_NAMES)}, "
                                       f"got {spec.exception!r}")
    return _capped(spec.as_dict())


def normalize_experiment_spec(payload: Any) -> dict:
    """An experiment-launch submission: name + seed."""
    return _capped(ExperimentSpec.from_dict(payload).as_dict())


def normalize_campaign_spec(payload: Any) -> dict:
    """A campaign-launch submission (a bounded matrix sweep): the fields it
    may set, judged by :class:`CampaignConfig`; ``kinds`` becomes a sorted set."""
    fields = read_fields(payload, {name: CampaignConfig.READERS[name] for name in _CAMPAIGN_FIELDS})
    if fields.get("kinds") is not None:
        fields["kinds"] = sorted(set(fields["kinds"]))
    shape = CampaignConfig.from_dict(fields).as_dict()
    return _capped({name: shape[name] for name in _CAMPAIGN_FIELDS})


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
