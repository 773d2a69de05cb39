"""The startd: the machine owner's representative.

    "Each execution site is managed by a startd that enforces the machine
    owner's policy regarding when and how visiting jobs may be executed."
    (§2.1)

Implements the §5 defense: with ``startd_self_test`` enabled, the startd
probes the owner's asserted Java installation at startup, Autoconf-style,
and "if found lacking, then the startd simply declines to advertise its
Java capability" -- turning a black-hole machine into a harmless one.
"""

from __future__ import annotations

import itertools

from repro.condor.classads import ClassAd, match, rank
from repro.condor.daemons.config import ADVERTISE_INTERVAL, CLAIM_TIMEOUT, CondorConfig
from repro.condor.daemons.starter import Starter
from repro.condor.protocols import (
    AdvertiseBatch,
    ClaimGranted,
    ClaimRejected,
    InvalidateAd,
    RequestClaim,
    WireSize,
)
from repro.jvm.machine import Jvm, JvmExecError
from repro.jvm.throwables import Throwable
from repro.sim.engine import Simulator
from repro.sim.machine import Machine
from repro.sim.network import Network, NetworkError

__all__ = ["Startd"]


class Startd:
    """One startd per execution machine."""

    PORT = 9700

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        machine: Machine,
        matchmaker_host: str,
        config: CondorConfig,
    ):
        self.sim = sim
        self.net = net
        self.machine = machine
        self.matchmaker_host = matchmaker_host
        self.config = config
        #: slot id -> claiming schedd (None = unclaimed); one slot per
        #: machine unless the owner configured an SMP (machine.slots > 1)
        self.slot_claimed: dict[int, str | None] = {
            i: None for i in range(machine.slots)
        }
        self.slot_starters: dict[int, Starter | None] = {
            i: None for i in range(machine.slots)
        }
        #: The machine's Rank of each slot's current job (preemption).
        self.slot_rank: dict[int, float] = {i: 0.0 for i in range(machine.slots)}
        self.java_advertised = True
        self.self_test_result: bool | None = None
        #: slot id -> (ad fields, frozen ad), see :meth:`build_ad`.
        self._ad_cache: dict[int, tuple[tuple, ClassAd]] = {}
        self.ads_sent = 0
        self.claims_granted = 0
        self.claims_rejected = 0
        # Per-startd counters (not module globals): claim ids embed the
        # machine name and starter ports bind to this machine's host, so
        # instance-local sequences stay unique -- and, unlike globals,
        # deterministic across repeated runs in one process (DESIGN §6).
        self._claim_seq = itertools.count(1)
        self._starter_port_seq = itertools.count(30001)
        #: True once the startd has left the pool (machine churn); a
        #: retired startd accepts no claims and sends no ads.
        self.retired = False
        self._retest_proc = None
        if config.startd_self_test:
            self.java_advertised = self._self_test()
        self.listener = net.listen(machine.name, self.PORT)
        self._accept_proc = sim.spawn(self._accept_loop(), name=f"startd:{machine.name}")
        self._accept_proc.defuse()
        self._advertise_proc = sim.spawn(
            self._advertise_loop(), name=f"startd-ads:{machine.name}"
        )
        self._advertise_proc.defuse()
        if config.startd_self_test and config.self_test_interval > 0:
            self._retest_proc = sim.spawn(
                self._self_test_loop(), name=f"startd-retest:{machine.name}"
            )
            self._retest_proc.defuse()

    # -- machine churn --------------------------------------------------------
    def shutdown(self, graceful: bool = True) -> None:
        """Take this startd out of the pool.

        *graceful* leave: evict visiting jobs (their shadows receive an
        explicit remote-resource eviction error and the jobs retry
        elsewhere), retract our ads at the matchmaker right away, and
        stop listening.  Crash-leave (``graceful=False``): just stop --
        the caller has already crashed the machine, in-flight claims die
        with explicit ClaimLost errors at their shadows, and the stale
        ads age out of the matchmaker over ``ad_lifetime``.
        """
        if self.retired:
            return
        self.retired = True
        bus = self.sim.telemetry
        if bus is not None and bus.active:
            bus.emit(
                self.sim.now, "daemon", "startd_shutdown",
                machine=self.machine.name, graceful=graceful,
            )
        if graceful:
            for starter in self.slot_starters.values():
                if starter is not None:
                    starter.evict()
            retract = self.sim.spawn(
                self._invalidate_ads(), name=f"startd-retract:{self.machine.name}"
            )
            retract.defuse()
        self.listener.close()
        self._accept_proc.interrupt("startd shutdown")
        self._advertise_proc.interrupt("startd shutdown")
        if self._retest_proc is not None:
            self._retest_proc.interrupt("startd shutdown")

    def _invalidate_ads(self):
        names = tuple(self.slot_name(slot) for slot in range(self.machine.slots))
        try:
            conn = yield from self.net.connect(
                self.machine.name, self.matchmaker_host, 9618,
                timeout=CLAIM_TIMEOUT,
            )
            conn.send(InvalidateAd(kind="machine", names=names), size=WireSize.CONTROL)
            conn.close()
        except NetworkError:
            return  # unreachable: ad expiry will clean up instead

    def _self_test_loop(self):
        """Periodic re-probe: catches installations that break after boot
        (and re-admits repaired ones)."""
        while True:
            yield self.sim.timeout(self.config.self_test_interval)
            if not self.machine.online:
                continue
            was = self.java_advertised
            self.java_advertised = self._self_test()
            if self.java_advertised != was:
                yield from self.advertise()

    # -- the §5 Autoconf-style probe ----------------------------------------
    def _self_test(self) -> bool:
        """Run a trivial program through the local JVM configuration.

        "Rather than blindly accept each owner's assertion regarding the
        Java installation, we modified the startd to test the installation
        at startup."
        """
        jvm = Jvm(self.sim, self.machine)
        try:
            jvm.check_exec()
        except JvmExecError:
            self.self_test_result = False
            return False
        # Probe the classpath the way 'java -version' would: boot the VM.
        gen = jvm._boot(heap_request=1 * 2**20)
        try:
            while True:
                next(gen)
        except StopIteration:
            jvm._shutdown()
            self.self_test_result = True
            return True
        except Throwable:
            self.self_test_result = False
            return False

    # -- introspection --------------------------------------------------
    def free_slots(self) -> list[int]:
        return [i for i, by in self.slot_claimed.items() if by is None]

    def slot_name(self, slot: int) -> str:
        """The advertised name of *slot*: the machine name for a
        single-slot machine, ``slotN@machine`` for an SMP."""
        if self.machine.slots == 1:
            return self.machine.name
        return f"slot{slot + 1}@{self.machine.name}"

    # -- advertising --------------------------------------------------------
    def ad_fields(self, slot: int = 0) -> tuple:
        """Every input of :meth:`build_ad` that can change, as one tuple
        (the :meth:`repro.condor.job.Job.ad_fields` discipline: the ad is
        built from this tuple and nothing else, so equal tuples build
        equal ads)."""
        machine = self.machine
        policy = machine.policy
        return (
            self.slot_name(slot),
            machine.name,
            slot + 1,
            machine.memory_total // machine.slots // 2**20,
            machine.scratch.free // 2**20,
            machine.cpu_speed,
            "claimed" if self.slot_claimed[slot] else "unclaimed",
            self.slot_rank[slot],
            self.java_advertised,
            machine.java.version,
            tuple(policy.advertised_attrs.items()),
            policy.start_expr,
            policy.rank_expr,
        )

    def build_ad(self, slot: int = 0) -> ClassAd:
        """The ad for one slot (an SMP advertises one ad per slot).

        Built once and kept until a field changes.  The ad is frozen
        because the same object is matched against every claim request
        and sent to the matchmaker interval after interval -- which the
        matchmaker's index recognises by identity as nothing new.
        """
        fields = self.ad_fields(slot)
        cached = self._ad_cache.get(slot)
        if cached is not None and cached[0] == fields:
            return cached[1]
        (
            name, machine, slotid, memory, disk, cpuspeed, state, currentrank,
            hasjava, javaversion, advertised, start_expr, rank_expr,
        ) = fields
        ad = ClassAd(
            {
                "name": name,
                "machine": machine,
                "slotid": slotid,
                "startdport": self.PORT,
                "arch": "intel",
                "opsys": "linux",
                "memory": memory,
                "disk": disk,
                "cpuspeed": cpuspeed,
                "state": state,
                "currentrank": currentrank,
                "hasjava": hasjava,
                "javaversion": javaversion,
            }
        )
        ad.update(ClassAd(dict(advertised)))
        ad.set_expr("requirements", start_expr)
        ad.set_expr("rank", rank_expr)
        self._ad_cache[slot] = (fields, ad.freeze())
        return ad

    def _advertise_loop(self):
        while True:
            yield from self.advertise()
            yield self.sim.timeout(ADVERTISE_INTERVAL)

    def advertise(self):
        """Generator: send every slot's current ad to the matchmaker.

        All slots ride in one :class:`AdvertiseBatch` message so the
        matchmaker pays one receive per advertisement, not one per slot.
        """
        if self.retired or not self.machine.online:
            return
        self.ads_sent += 1
        try:
            conn = yield from self.net.connect(
                self.machine.name, self.matchmaker_host, 9618,
                timeout=CLAIM_TIMEOUT,
            )
            batch = tuple(
                (self.slot_name(slot), self.build_ad(slot))
                for slot in range(self.machine.slots)
            )
            conn.send(
                AdvertiseBatch(kind="machine", ads=batch),
                size=WireSize.AD * len(batch),
            )
            conn.close()
        except NetworkError:
            return  # matchmaker unreachable; try again next interval

    # -- claiming -----------------------------------------------------------
    def _accept_loop(self):
        while True:
            conn = yield from self.listener.accept()
            handler = self.sim.spawn(self._claim(conn), name=f"claim:{self.machine.name}")
            handler.defuse()

    def _claim(self, conn):
        try:
            request = yield from conn.recv(timeout=CLAIM_TIMEOUT)
        except NetworkError:
            conn.close()
            return
        if not isinstance(request, RequestClaim):
            conn.close()
            return
        if self.retired or not self.machine.online:
            conn.close()
            return
        # "Matched processes are individually responsible for ... verifying
        # that their needs are met": re-check the owner's policy directly.
        free = self.free_slots()
        slot = next(
            (s for s in free if match(self.build_ad(s), request.job_ad)), None
        )
        if slot is None and self.config.preemption:
            slot = self._preemptable_slot(request.job_ad)
            if slot is not None:
                incumbent = self.slot_starters[slot]
                if incumbent is not None:
                    incumbent.evict()
        bus = self.sim.telemetry
        if slot is None:
            self.claims_rejected += 1
            reason = "policy refuses job" if free else "already claimed"
            if bus is not None and bus.active:
                bus.emit(
                    self.sim.now, "daemon", "claim_rejected",
                    machine=self.machine.name, job=request.job_id, reason=reason,
                )
            conn.send(ClaimRejected(reason), size=WireSize.CONTROL)
            conn.close()
            return
        claim_id = f"claim-{self.machine.name}-{next(self._claim_seq)}"
        starter_port = next(self._starter_port_seq)
        self.slot_claimed[slot] = request.schedd_name
        self.slot_rank[slot] = rank(self.build_ad(slot), request.job_ad)
        self.claims_granted += 1
        if bus is not None and bus.active:
            bus.emit(
                self.sim.now, "daemon", "claim_granted",
                machine=self.machine.name, slot=self.slot_name(slot),
                job=request.job_id, schedd=request.schedd_name,
            )
        starter = Starter(
            sim=self.sim,
            net=self.net,
            machine=self.machine,
            claim_id=claim_id,
            port=starter_port,
            config=self.config,
            on_exit=lambda slot=slot: None,  # replaced just below
        )
        starter.on_exit = lambda slot=slot, starter=starter: self._starter_exited(
            slot, starter
        )
        self.slot_starters[slot] = starter
        conn.send(ClaimGranted(claim_id=claim_id, starter_port=starter_port), size=WireSize.CONTROL)
        conn.close()
        # Advertise the claimed state promptly so the matchmaker stops
        # handing this slot out.
        refresh = self.sim.spawn(self.advertise(), name=f"startd-readvert:{self.machine.name}")
        refresh.defuse()

    def _preemptable_slot(self, job_ad: ClassAd) -> int | None:
        """The busy slot the owner's Rank most wants to hand to *job_ad*.

        A slot is preemptable when the new job out-ranks the incumbent
        *strictly* (no churn among equals) and the policy accepts it.
        """
        best_slot, best_gain = None, 0.0
        for slot in range(self.machine.slots):
            if self.slot_claimed[slot] is None:
                continue
            ad = self.build_ad(slot)
            if not match(ad, job_ad):
                continue
            gain = rank(ad, job_ad) - self.slot_rank[slot]
            if gain > best_gain:
                best_slot, best_gain = slot, gain
        return best_slot

    def _starter_exited(self, slot: int, starter: Starter | None = None) -> None:
        # A preempted starter exits *after* its slot was re-claimed; only
        # the slot's current occupant may clear the bookkeeping.
        if starter is not None and self.slot_starters[slot] is not starter:
            return
        self.slot_claimed[slot] = None
        self.slot_starters[slot] = None
        self.slot_rank[slot] = 0.0
        refresh = self.sim.spawn(self.advertise(), name=f"startd-readvert:{self.machine.name}")
        refresh.defuse()

    # -- owner policy enforcement (§2.1: "when and how visiting jobs may
    # be executed") -----------------------------------------------------
    def evict(self) -> None:
        """The owner wants the machine back: evict every visiting job."""
        bus = self.sim.telemetry
        if bus is not None and bus.active:
            bus.emit(self.sim.now, "daemon", "evict", machine=self.machine.name)
        for starter in self.slot_starters.values():
            if starter is not None:
                starter.evict()
        refresh = self.sim.spawn(self.advertise(), name=f"startd-evict-advert:{self.machine.name}")
        refresh.defuse()
