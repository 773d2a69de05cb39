"""Pool-wide configuration knobs.

``error_mode`` selects the paper's before/after:

- ``"naive"`` -- §2.3: bare JVM (exit codes only), generic I/O interface,
  every component failure returned to the user;
- ``"scoped"`` -- §4: wrapper + result file, finite I/O interface with
  escaping errors, schedd scope policy (retry in-between scopes).

``startd_self_test`` and ``schedd_avoidance`` are the two §5 defenses
against black-hole machines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ADVERTISE_INTERVAL", "CLAIM_TIMEOUT", "CONTROL_TIMEOUT", "CondorConfig"]

# Protocol constants shared by several daemons (simulated seconds).  No
# pool or experiment varies them, so they are not CondorConfig fields.
#: how often a schedd re-advertises its idle jobs and a startd its slots
ADVERTISE_INTERVAL = 30.0
#: reply deadline of every claim-protocol exchange
CLAIM_TIMEOUT = 10.0
#: shadow <-> starter control-channel deadline
CONTROL_TIMEOUT = 60.0


@dataclass
class CondorConfig:
    error_mode: str = "scoped"  # "naive" | "scoped" ("classic" = alias for "naive")
    #: Matchmaker fair share: negotiate for the user with the least
    #: recent usage first (usage halves each cycle, like Condor's
    #: effective user priority).  Off = pure submission order.
    fair_share: bool = True
    #: Rank-based preemption: a claimed slot may be handed to a job the
    #: machine's Rank expression prefers; the incumbent is evicted
    #: (checkpointing softens the blow, §2.1).
    preemption: bool = False
    startd_self_test: bool = False
    #: re-run the self-test this often (0 = startup only), so machines
    #: that break *after* boot also stop advertising
    self_test_interval: float = 0.0
    schedd_avoidance: bool = False
    #: "backoff" -- avoidance windows grow exponentially per strike and a
    #: site is re-admitted on probation when its window expires (a
    #: probation success clears the record); "permanent" -- the original
    #: blacklist that never forgives (kept for EXP-CHURN's baseline).
    avoidance_mode: str = "backoff"
    #: first avoidance window, doubled per strike past the threshold
    avoidance_base: float = 120.0
    avoidance_cap: float = 3840.0
    #: Flocking (pool-of-pools): remote matchmakers the schedd may
    #: overflow idle jobs to.  A job idle longer than ``flock_after`` is
    #: advertised to flock targets as well as the home matchmaker.
    flock_after: float = 60.0
    #: give up and hold a job after this many environmental retries
    max_retries: int = 20
    # daemon cadences (simulated seconds)
    negotiation_interval: float = 15.0
    ad_lifetime: float = 90.0
    # Standard Universe checkpointing (§2.1: "transparent checkpointing")
    checkpointing: bool = True
    #: When not None, every starter appends its I/O library's
    #: ErrorInterface here, so the principle auditor can inspect the
    #: crossings after a run (P2/P4).
    interface_registry: list | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        # "classic" is the campaign literature's name for the pre-fix
        # behaviour; normalise it so every downstream mode check stays a
        # two-way branch.
        if self.error_mode == "classic":
            self.error_mode = "naive"
        if self.error_mode not in ("naive", "scoped"):
            raise ValueError(
                f"error_mode must be 'naive', 'scoped' or 'classic', not {self.error_mode!r}"
            )
        if self.avoidance_mode not in ("backoff", "permanent"):
            raise ValueError(
                f"avoidance_mode must be 'backoff' or 'permanent', not {self.avoidance_mode!r}"
            )
