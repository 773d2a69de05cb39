"""The schedd: the job owner's representative and the last line of defense.

    "The last line of defense is the schedd.  If it detects an error of
    program scope, it identifies the job as complete and returns it to the
    user.  If it detects an error of job scope, it identifies the job as
    unexecutable and also returns it to the user.  Anything in between
    causes it to log the error and then attempt to execute the program at
    a new site." (§4)

``error_mode="naive"`` reproduces §2.3 instead: every outcome -- including
claim losses and starter-detected environmental errors -- is returned to
the user, who must perform the postmortem.

With ``schedd_avoidance`` enabled, the schedd implements §5's
complementary defense: "enhance the schedd with logic to detect and avoid
hosts with chronic failures."  The defense is backoff-hardened (see
:mod:`repro.condor.daemons.avoidance`): avoidance windows grow
exponentially per strike and recovered sites are re-admitted on
probation, instead of the original permanent blacklist.

With flock links configured (:meth:`Schedd.add_flock_target`), the
schedd federates: a job idle longer than ``flock_after`` is advertised
to remote pools' matchmakers as well as the home one, so work overflows
from a saturated pool.  Each link carries a retry budget and exponential
backoff; a link that exhausts its budget is a POOL-scope error the
grid-aware schedd masks (it keeps retrying on the backoff schedule and
the other pools keep the grid usable), and only when the local
matchmaker *and* every flock link are unreachable does the error widen
to GRID scope and escalate to the user.
"""

from __future__ import annotations

import itertools

from repro.condor.classads import ClassAd
from repro.condor.daemons.avoidance import SiteAvoidance
from repro.condor.daemons.config import CondorConfig
from repro.condor.daemons.shadow import Shadow, ShadowOutcome
from repro.condor.job import ExecutionAttempt, Job, JobState, Universe
from repro.condor.protocols import (
    AdvertiseBatch,
    ClaimGranted,
    MatchNotify,
    RequestClaim,
    WireSize,
)
from repro.condor.userlog import UserLog, UserLogEventType
from repro.core.errors import explicit
from repro.core.propagation import ManagementChain
from repro.core.scope import ErrorScope
from repro.remoteio.rpc import Credential
from repro.sim.engine import Simulator
from repro.sim.network import Network, NetworkError

__all__ = ["FlockLink", "Schedd"]


class FlockLink:
    """One schedd-to-remote-pool link with its own failure discipline.

    A link is *up* until ``flock_retry_budget`` consecutive advertise
    attempts fail; each failure also pushes the next attempt out by an
    exponentially growing backoff (capped), so an unreachable remote
    pool costs a bounded, shrinking trickle of connection attempts
    rather than a retry storm.  Any success resets the whole record.
    """

    def __init__(self, host: str, config: CondorConfig):
        self.host = host
        self.config = config
        self.consecutive_failures = 0
        self.backoff = config.flock_backoff_base
        self.next_attempt = 0.0
        self.down = False
        self.jobs_flocked = 0
        #: cumulative down-transitions (never reset; for reporting)
        self.times_down = 0

    def ready(self, now: float) -> bool:
        """True when the backoff schedule allows another attempt."""
        return now >= self.next_attempt

    def note_success(self, now: float) -> bool:
        """Record a reachable remote matchmaker; True on an up-transition."""
        was_down = self.down
        self.consecutive_failures = 0
        self.backoff = self.config.flock_backoff_base
        self.next_attempt = now
        self.down = False
        return was_down

    def note_failure(self, now: float) -> bool:
        """Record an unreachable remote matchmaker; True on a
        down-transition (the retry budget was just exhausted)."""
        self.consecutive_failures += 1
        self.next_attempt = now + self.backoff
        self.backoff = min(self.backoff * 2.0, self.config.flock_backoff_cap)
        newly_down = (
            not self.down
            and self.consecutive_failures >= self.config.flock_retry_budget
        )
        if newly_down:
            self.down = True
            self.times_down += 1
        return newly_down


class Schedd:
    """One schedd per submit machine."""

    PORT = 9615

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        submit_host: str,
        home_fs,  # generator-API backend for shadows' I/O servers
        matchmaker_host: str,
        config: CondorConfig,
        chain: ManagementChain | None = None,
        credential_factory=None,
    ):
        self.sim = sim
        self.net = net
        self.submit_host = submit_host
        self.home_fs = home_fs
        self.matchmaker_host = matchmaker_host
        self.config = config
        self.chain = chain
        self.credential_factory = credential_factory or (
            lambda job: Credential(owner=job.owner)
        )
        self.jobs: dict[str, Job] = {}
        self.userlog = UserLog()
        # Shadow I/O server ports: per-schedd sequence, unique on this
        # submit host and deterministic per run (no module-global state).
        self._io_port_seq = itertools.count(20001)
        self.avoidance = SiteAvoidance(config)
        self.shadows_spawned = 0
        #: Flocking state: remote pools this schedd may overflow to.
        self.flock_links: list[FlockLink] = []
        self.jobs_flocked = 0
        #: job_id -> time it (last) became idle, for flock eligibility
        self._idle_since: dict[str, float] = {}
        #: job_ids already announced as flocked (one telemetry event each)
        self._flock_announced: set[str] = set()
        #: consecutive local-matchmaker advertise failures (grid escalation)
        self._local_mm_failures = 0
        self._grid_error_reported = False
        #: job_id -> (everything the ad was built from, the frozen ad);
        #: one entry per live job, see :meth:`_job_ad`.
        self._ad_cache: dict[str, tuple[tuple, ClassAd]] = {}
        self.listener = net.listen(submit_host, self.PORT)
        self._accept_proc = sim.spawn(self._accept_loop(), name=f"schedd:{submit_host}")
        self._accept_proc.defuse()
        self._advertise_proc = sim.spawn(
            self._advertise_loop(), name=f"schedd-ads:{submit_host}"
        )
        self._advertise_proc.defuse()

    # -- avoidance views ------------------------------------------------------
    @property
    def site_failures(self) -> dict[str, int]:
        """Per-site strike counts (compatibility view over the avoidance
        state; mutating it mutates the defense's record)."""
        return self.avoidance.failures

    @property
    def avoided_sites(self) -> set[str]:
        """The sites currently inside an avoidance window."""
        return self.avoidance.avoided(self.sim.now)

    def forget_site(self, site: str) -> None:
        """*site* permanently left the pool: evict its avoidance record.

        Called by :meth:`~repro.condor.pool.Pool.remove_machine`; without
        it the strike/window tables grow without bound under churn.
        """
        self.avoidance.forget(site)

    # -- federation -----------------------------------------------------------
    def add_flock_target(self, matchmaker_host: str) -> FlockLink:
        """Flock to the remote pool whose matchmaker runs on *matchmaker_host*."""
        if any(link.host == matchmaker_host for link in self.flock_links):
            raise ValueError(f"already flocking to {matchmaker_host}")
        link = FlockLink(matchmaker_host, self.config)
        self.flock_links.append(link)
        return link

    # -- submission -----------------------------------------------------------
    def submit(self, job: Job) -> None:
        """Accept *job* into the queue (persistent storage, per §2.1)."""
        if job.job_id in self.jobs:
            raise ValueError(f"duplicate job id {job.job_id}")
        job.submitted_at = self.sim.now
        job.set_state(JobState.IDLE)
        self._idle_since[job.job_id] = self.sim.now
        self.jobs[job.job_id] = job
        self.userlog.log(self.sim.now, job.job_id, UserLogEventType.SUBMIT)
        bus = self.sim.telemetry
        if bus is not None and bus.active:
            bus.emit(
                self.sim.now, "job", "submit",
                job=job.job_id, owner=job.owner, universe=job.universe.value,
            )
        prompt = self.sim.spawn(self._advertise_jobs(), name="schedd-advert-on-submit")
        prompt.defuse()

    # -- advertising ---------------------------------------------------------
    def _advertise_loop(self):
        while True:
            yield from self._advertise_jobs()
            yield from self._advertise_flock()
            yield self.sim.timeout(self.config.advertise_interval)

    def _advertise_jobs(self):
        batch = self._ad_batch(self.idle_jobs())
        if not batch:
            return
        try:
            conn = yield from self.net.connect(
                self.submit_host, self.matchmaker_host, 9618,
                timeout=self.config.claim_timeout,
            )
            # One connection and one message for the whole idle queue:
            # per-ad connects and receive deadlines do not scale to a
            # 100k-job queue (tentpole c).
            conn.send(
                AdvertiseBatch(kind="job", ads=batch),
                size=WireSize.AD * len(batch),
            )
            conn.close()
        except NetworkError:
            # Matchmaker unreachable: retry next interval.  In a
            # federation this is where POOL-scope trouble can widen to
            # GRID scope -- but only once every flock link is down too.
            self._local_mm_failures += 1
            self._check_grid_scope()
            return
        self._local_mm_failures = 0
        self._grid_error_reported = False

    # -- flocking -------------------------------------------------------------
    def _flock_candidates(self) -> list[Job]:
        now = self.sim.now
        return [
            job
            for job in self.jobs.values()
            if job.state is JobState.IDLE
            and now - self._idle_since.get(job.job_id, now) >= self.config.flock_after
        ]

    def _advertise_flock(self):
        """Overflow long-idle jobs to every ready flock link.

        The job ads carry ``scheddhost`` pointing back here, so a remote
        matchmaker's MatchNotify, the claim, and the shadow all run over
        the shared network exactly as a local match would.
        """
        if not self.flock_links:
            return
        candidates = self._flock_candidates()
        if not candidates:
            return
        # One batch for every link: each remote pool is offered the same
        # jobs under the same requirements.
        batch = self._ad_batch(candidates)
        bus = self.sim.telemetry
        for link in self.flock_links:
            if not link.ready(self.sim.now):
                continue
            try:
                conn = yield from self.net.connect(
                    self.submit_host, link.host, 9618,
                    timeout=self.config.claim_timeout,
                )
                conn.send(
                    AdvertiseBatch(kind="job", ads=batch),
                    size=WireSize.AD * len(batch),
                )
                conn.close()
            except NetworkError:
                self._flock_link_failed(link)
                continue
            if link.note_success(self.sim.now) and bus is not None and bus.active:
                bus.emit(
                    self.sim.now, "daemon", "flock_link_up",
                    schedd=self.submit_host, target=link.host,
                )
            for job in candidates:
                if job.job_id in self._flock_announced:
                    continue
                self._flock_announced.add(job.job_id)
                link.jobs_flocked += 1
                self.jobs_flocked += 1
                if bus is not None and bus.active:
                    bus.emit(
                        self.sim.now, "job", "flock",
                        job=job.job_id, target=link.host,
                    )

    def _flock_link_failed(self, link: FlockLink) -> None:
        if not link.note_failure(self.sim.now):
            return
        # The link just exhausted its retry budget: a POOL-scope error
        # (one whole remote pool is invalid) that the grid-aware schedd
        # masks -- the backoff schedule keeps probing, and the rest of
        # the grid keeps the job stream moving.
        bus = self.sim.telemetry
        if bus is not None and bus.active:
            bus.emit(
                self.sim.now, "daemon", "flock_link_down",
                schedd=self.submit_host, target=link.host,
                failures=link.consecutive_failures,
            )
        if self.chain is not None:
            err = explicit(
                "FlockLinkDown",
                ErrorScope.POOL,
                detail=f"{self.submit_host}->{link.host}",
                origin="schedd",
                time=self.sim.now,
            )
            self.chain.propagate(err, discovered_by="schedd", time=self.sim.now)
        self._check_grid_scope()

    def _check_grid_scope(self) -> None:
        """Escalate to GRID scope when no matchmaker anywhere is reachable."""
        if self._grid_error_reported or not self.flock_links:
            return
        if self._local_mm_failures < self.config.flock_retry_budget:
            return
        if not all(link.down for link in self.flock_links):
            return
        self._grid_error_reported = True
        bus = self.sim.telemetry
        if bus is not None and bus.active:
            bus.emit(
                self.sim.now, "daemon", "grid_unreachable",
                schedd=self.submit_host,
            )
        if self.chain is not None:
            err = explicit(
                "GridUnreachable",
                ErrorScope.GRID,
                detail=f"{self.submit_host}: local pool and all "
                       f"{len(self.flock_links)} flock links unreachable",
                origin="schedd",
                time=self.sim.now,
            )
            self.chain.propagate(err, discovered_by="schedd", time=self.sim.now)

    def _avoided_now(self) -> tuple[str, ...]:
        """The sites inside an avoidance window at ``sim.now``, in the
        order :meth:`_job_ad` writes them into Requirements."""
        return tuple(sorted(self.avoided_sites))

    def _ad_batch(self, jobs: list[Job]) -> tuple:
        """``(name, ad)`` pairs for *jobs*, in order: an AdvertiseBatch body."""
        avoided = self._avoided_now()
        return tuple(
            (f"{self.submit_host}#{job.job_id}", self._job_ad(job, avoided))
            for job in jobs
        )

    def _job_ad(self, job: Job, avoided: tuple[str, ...]) -> ClassAd:
        """The ad forwarded for *job* while *avoided* sites are shunned.

        Built once and kept until an input changes: the key is every
        value read below (the schedd's own host and port never change).
        The ad is frozen because the same object goes to the home
        matchmaker, every flock link and the claimed startd, interval
        after interval.
        """
        key = (job.ad_fields(), avoided)
        cached = self._ad_cache.get(job.job_id)
        if cached is not None and cached[0] == key:
            return cached[1]
        ad = job.to_classad()
        ad["scheddhost"] = self.submit_host
        ad["scheddport"] = self.PORT
        requirements = f"({job.requirements})"
        if job.universe is Universe.JAVA:
            # "The user simply specifies the Java Universe, and does not
            # need to know the local details." -- the schedd adds the
            # capability requirement on the user's behalf.
            requirements += " && (TARGET.hasjava == TRUE)"
        for site in avoided:
            requirements += f' && (TARGET.machine =!= "{site}")'
        ad.set_expr("requirements", requirements)
        self._ad_cache[job.job_id] = (key, ad.freeze())
        return ad

    # -- match handling --------------------------------------------------------
    def _accept_loop(self):
        while True:
            conn = yield from self.listener.accept()
            handler = self.sim.spawn(self._receive(conn), name="schedd-recv")
            handler.defuse()

    def _receive(self, conn):
        try:
            message = yield from conn.recv(timeout=self.config.claim_timeout)
        except NetworkError:
            return
        finally:
            conn.close()
        if isinstance(message, MatchNotify):
            job = self.jobs.get(message.job_id)
            if job is None or job.state is not JobState.IDLE:
                return
            if self.avoidance.is_avoided(message.startd_name, self.sim.now):
                return  # leave the job idle; it will be re-advertised
            job.set_state(JobState.MATCHED)
            self._idle_since.pop(job.job_id, None)
            bus = self.sim.telemetry
            if bus is not None and bus.active:
                bus.emit(
                    self.sim.now, "job", "match",
                    job=job.job_id, site=message.startd_name,
                )
            runner = self.sim.spawn(
                self._claim_and_run(job, message), name=f"run:{job.job_id}"
            )
            runner.defuse()

    def _claim_and_run(self, job: Job, match: MatchNotify):
        granted = yield from self._request_claim(job, match)
        bus = self.sim.telemetry
        if granted is None:
            if bus is not None and bus.active:
                bus.emit(
                    self.sim.now, "job", "claim_failed",
                    job=job.job_id, site=match.startd_name,
                )
            job.set_state(JobState.IDLE)
            self._idle_since[job.job_id] = self.sim.now
            return
        shadow = Shadow(
            sim=self.sim,
            net=self.net,
            submit_host=self.submit_host,
            home_fs=self.home_fs,
            job=job,
            exec_host=match.startd_host,
            starter_port=granted.starter_port,
            config=self.config,
            credential=self.credential_factory(job),
            io_port=next(self._io_port_seq),
        )
        self.shadows_spawned += 1
        if bus is not None and bus.active:
            bus.emit(
                self.sim.now, "daemon", "shadow_spawn",
                job=job.job_id, site=match.startd_name,
            )
        job.set_state(JobState.RUNNING)
        self.userlog.log(
            self.sim.now, job.job_id, UserLogEventType.EXECUTE, match.startd_name
        )
        attempt = ExecutionAttempt(site=match.startd_name, started=self.sim.now)
        job.attempts.append(attempt)
        if bus is not None and bus.active:
            bus.emit(
                self.sim.now, "job", "execute",
                job=job.job_id, site=match.startd_name, attempt=len(job.attempts),
            )
        shadow_proc = self.sim.spawn(shadow.run(), name=f"shadow:{job.job_id}")
        shadow_proc.defuse()
        yield shadow_proc
        attempt.ended = self.sim.now
        outcome = shadow.outcome
        if outcome is None:  # the shadow process itself died
            outcome = ShadowOutcome.environment(
                ErrorScope.LOCAL_RESOURCE, "ShadowDied", "shadow process failed"
            )
        self._dispose(job, attempt, outcome)

    def _request_claim(self, job: Job, match: MatchNotify):
        try:
            conn = yield from self.net.connect(
                self.submit_host, match.startd_host, match.startd_port,
                timeout=self.config.claim_timeout,
            )
            conn.send(
                RequestClaim(
                    schedd_name=self.submit_host,
                    job_id=job.job_id,
                    job_ad=self._job_ad(job, self._avoided_now()),
                ),
                size=WireSize.AD,
            )
            reply = yield from conn.recv(timeout=self.config.claim_timeout)
            conn.close()
        except NetworkError:
            return None
        return reply if isinstance(reply, ClaimGranted) else None

    # -- the last line of defense ---------------------------------------------
    def _dispose(self, job: Job, attempt: ExecutionAttempt, outcome: ShadowOutcome) -> None:
        if outcome.kind == "result":
            attempt.result = outcome.result
            # The site delivered: if it was on probation, the trial
            # passed and its avoidance record is cleared.
            self.avoidance.note_success(attempt.site, self.sim.now)
            self._complete(job, outcome)
            return
        assert outcome.scope is not None
        attempt.error_scope = outcome.scope
        attempt.error_name = outcome.error_name
        self._record_propagation(job, attempt, outcome)
        if self.config.error_mode == "naive":
            # §2.3: "nearly any failure in a component of the system would
            # cause the job to be returned to the user with an error
            # message."
            self._hold(job, f"error: {outcome.error_name}: {outcome.detail}")
            return
        self._note_site_failure(attempt.site)
        if outcome.scope >= ErrorScope.JOB:
            self._hold(job, f"unexecutable: {outcome.error_name}: {outcome.detail}")
            return
        # In-between scope: log and retry at a new site.
        self.userlog.log(
            self.sim.now,
            job.job_id,
            UserLogEventType.SITE_FAILED,
            f"{attempt.site}: {outcome.error_name} ({outcome.scope})",
        )
        bus = self.sim.telemetry
        if bus is not None and bus.active:
            bus.emit(
                self.sim.now, "job", "site_failed",
                job=job.job_id, site=attempt.site,
                error=outcome.error_name, scope=outcome.scope.name,
            )
        env_failures = sum(
            1
            for a in job.attempts
            if a.error_scope is not None and not a.error_scope.within_program_contract
        )
        if env_failures > self.config.max_retries:
            self._hold(job, f"too many retries ({env_failures})")
            return
        job.set_state(JobState.IDLE)
        self._idle_since[job.job_id] = self.sim.now

    def _complete(self, job: Job, outcome: ShadowOutcome) -> None:
        job.final_result = outcome.result
        job.set_state(JobState.COMPLETED)
        self._forget(job)
        # Structured classification: a termination is an error delivery
        # exactly when the delivered file is not a program result.
        is_error = outcome.result is not None and not outcome.result.is_program_result
        self.userlog.log(
            self.sim.now,
            job.job_id,
            UserLogEventType.TERMINATED,
            str(outcome.result),
            error=is_error,
        )
        bus = self.sim.telemetry
        if bus is not None and bus.active:
            bus.emit(
                self.sim.now, "job", "result",
                job=job.job_id, result=str(outcome.result),
            )

    def _forget(self, job: Job) -> None:
        """*job* just went terminal: drop what is kept per live job."""
        self._idle_since.pop(job.job_id, None)
        self._flock_announced.discard(job.job_id)
        self._ad_cache.pop(job.job_id, None)

    def _hold(self, job: Job, reason: str) -> None:
        job.hold_reason = reason
        job.set_state(JobState.HELD)
        self._forget(job)
        self.userlog.log(
            self.sim.now, job.job_id, UserLogEventType.HELD, reason, error=True
        )
        bus = self.sim.telemetry
        if bus is not None and bus.active:
            bus.emit(self.sim.now, "job", "hold", job=job.job_id, reason=reason)

    def _note_site_failure(self, site: str) -> None:
        if self.avoidance.note_failure(site, self.sim.now):
            bus = self.sim.telemetry
            if bus is not None and bus.active:
                bus.emit(
                    self.sim.now, "daemon", "site_avoided",
                    schedd=self.submit_host, site=site,
                    strikes=self.avoidance.failures[site],
                )

    def _record_propagation(self, job: Job, attempt: ExecutionAttempt, outcome: ShadowOutcome) -> None:
        if self.chain is None:
            return
        err = explicit(
            outcome.error_name,
            outcome.scope,
            detail=f"{job.job_id}@{attempt.site}",
            origin=outcome.scope.managing_program,
            time=self.sim.now,
        )
        if self.config.error_mode == "naive":
            # The naive system hands the raw error to the user regardless
            # of scope: a Principle-3 misdelivery, on the record.
            self.chain.misdeliver(err, consumed_by="user", time=self.sim.now)
        else:
            discoverer = {
                ErrorScope.VIRTUAL_MACHINE: "wrapper",
                ErrorScope.PROGRAM: "wrapper",
                ErrorScope.REMOTE_RESOURCE: "starter",
                ErrorScope.LOCAL_RESOURCE: "starter",
                ErrorScope.JOB: "wrapper",
            }.get(outcome.scope, "starter")
            self.chain.propagate(err, discovered_by=discoverer, time=self.sim.now)

    # -- introspection -----------------------------------------------------------
    def idle_jobs(self) -> list[Job]:
        return [j for j in self.jobs.values() if j.state is JobState.IDLE]

    def all_terminal(self) -> bool:
        """True once every submitted job has reached a terminal state."""
        return all(j.is_terminal for j in self.jobs.values())
