"""The matchmaker (central manager).

    "This process collects information about all participants, and
    notifies schedds and startds of compatible partners.  Matched
    processes are individually responsible for communicating with each
    other and verifying that their needs are met." (§2.1)

The matchmaker never sees job data or error detail -- it deals only in
ClassAds, which is why matchmaking survives every failure mode in this
reproduction: a broken execution site simply stops advertising (or keeps
advertising and becomes a black hole, §5).

Negotiation is the pool's scalability bottleneck: the reference
algorithm evaluates ``symmetric_match`` against every machine ad for
every idle job, O(jobs x machines) ClassAd evaluations per cycle.  This
implementation keeps that scan (:meth:`Matchmaker._best_machine_scan`)
as the executable specification -- it still runs under preemption, and
the test suite cross-checks against it -- but serves the common case
from three incrementally-maintained structures:

- a **fresh set** of machines that are unclaimed and have advertised
  since they were last matched (most ads are eliminated by these two
  cheap checks, so the set replaces two per-candidate tests with set
  membership and makes an empty pool a O(1) early exit);
- a **requirement-bucket index** (:class:`MachineIndex`) that narrows a
  job's candidates to machines satisfying one statically-extracted
  conjunct of its Requirements -- a provable superset of the true
  matches, so every survivor is still verified with ``symmetric_match``;
- **cached rank orders**: for jobs whose Rank provably depends only on
  machine literals, all machines are kept sorted by the exact selection
  key ``(-rank, last_matched, name)``; the first live entry that passes
  the bucket test and ``symmetric_match`` *is* the scan's winner, so a
  match costs O(1) evaluations instead of O(machines).

Winner equivalence holds because the scan's sort key ends with the
unique machine name: the winner is the unique key-minimum over passing
candidates, which no enumeration order can change.  Entries in a cached
order are stamped with their ad's sequence number; any event that
could change an entry's key (a new ad) changes the number, and any event
that silently stales the recorded ``last_matched`` component (a match)
also removes the machine from the fresh set until its next ad -- so a
walk never compares a stale key.  Dead entries are lazily skipped and
the dead *prefix* is compacted, keeping a full negotiation cycle over a
homogeneous pool linear rather than quadratic in the number of matches.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from heapq import heappop, heappush
from weakref import WeakValueDictionary

from repro.condor.classads import ClassAd, rank, symmetric_match
from repro.condor.classads.expr import Literal
from repro.condor.daemons.config import CLAIM_TIMEOUT, CondorConfig
from repro.condor.daemons.match_index import (
    MachineIndex,
    analysis_of,
    machine_rank_literal,
    rank_cacheable,
)
from repro.condor.protocols import (
    Advertise,
    AdvertiseBatch,
    InvalidateAd,
    MatchNotify,
    WireSize,
)
from repro.sim.engine import Simulator
from repro.sim.network import Network, NetworkError

__all__ = ["Matchmaker"]

#: Decayed owner-usage entries below this are dropped entirely; without a
#: floor the fair-share table retains every owner ever seen, forever.
USAGE_EPSILON = 1e-9
#: fair share: each owner's recent usage halves every negotiation cycle
USAGE_DECAY = 0.5

#: Rebuild threshold: a cached rank order whose dead entries outnumber
#: the live pool by this factor is filtered down to its live entries.
_ORDER_SLACK = 2

_MISSING = object()


@dataclass
class _StoredAd:
    name: str
    ad: ClassAd
    received: float
    #: Read once at receive (ads are immutable once stored): a job's
    #: reply address and fair-share owner...
    reply_host: str = ""
    reply_port: int = 0
    owner: str = ""
    #: ...and a machine's state.
    unclaimed: bool = True


class _Cluster:
    """One autocluster: the jobs with equal match summaries (see
    :meth:`Matchmaker._match_key`).  What is a function of the summary
    keys on this record -- the no-match memo, the walk cursors -- or
    hangs off it: *narrowed*, the index's membership answer, valid while
    ``MachineIndex.stamp`` equals *stamp*.
    """

    __slots__ = ("stamp", "narrowed", "__weakref__")

    def __init__(self) -> None:
        self.stamp = -1
        self.narrowed = None


class _RankOrder:
    """All machines sorted by one job-side Rank's exact selection key.

    *probe* is a minimal ad carrying just the Rank expression, so the
    (machine-only) rank of a new ad can be evaluated without any job in
    hand.  *order* holds ``(-rank, last_matched, name, seq)`` tuples;
    an entry is live while its *seq* matches the machine's current
    advertisement sequence.
    """

    __slots__ = ("probe", "refs", "order", "cursors")

    def __init__(self, probe: ClassAd, refs: frozenset[str]):
        self.probe = probe
        self.refs = refs
        self.order: list[tuple[float, float, str, int]] = []
        #: autocluster -> index where its last walk stopped.  Valid
        #: while the pool only shrinks (cleared on any machine ad):
        #: entries before the stop point were dead, bucket-rejected, or
        #: failed symmetric_match for an identically-keyed job, and none
        #: of those verdicts can flip while no ad changes, so the next
        #: same-cluster walk resumes there instead of rescanning the head.
        self.cursors: dict[_Cluster, int] = {}


class Matchmaker:
    """Collects ads and runs periodic negotiation cycles."""

    PORT = 9618

    def __init__(self, sim: Simulator, net: Network, host: str, config: CondorConfig):
        self.sim = sim
        self.net = net
        self.host = host
        self.config = config
        self.machine_ads: dict[str, _StoredAd] = {}
        self.job_ads: dict[str, _StoredAd] = {}
        self.matches_made = 0
        self.cycles_run = 0
        self._recently_matched: dict[str, float] = {}  # startd name -> time
        #: Decayed per-owner usage: the fair-share "effective user
        #: priority" (larger = worse priority, negotiated later).
        self.owner_usage: dict[str, float] = {}
        #: Machines that are unclaimed and have advertised since they
        #: were last matched -- the only possible candidates when
        #: preemption is off.
        self._fresh: set[str] = set()
        self._index = MachineIndex()
        #: Sequence number of each machine's stored ad, so cached
        #: rank-order entries can detect staleness in O(1).  Never reused:
        #: a machine that leaves and rejoins must not revive an old entry.
        self._ad_seq: dict[str, int] = {}
        #: Rank expression (or None) -> _RankOrder, or None when the
        #: expression was found job-dependent / machine-expression-bound.
        self._rank_orders: dict[object, _RankOrder | None] = {}
        #: Lazy-deletion expiry heap of (received, kind, name); kind 0 is
        #: a machine ad, 1 a job ad.  Stale entries (the ad was refreshed
        #: or the job matched) are detected by comparing timestamps.
        self._expiry_heap: list[tuple[float, int, str]] = []
        #: Match summary -> its autocluster record.  Job ads hold their
        #: cluster (through ``_analysis``), the table holds it weakly, so
        #: an entry dies with the last job ad that carries the summary.
        self._clusters: WeakValueDictionary[tuple, _Cluster] = WeakValueDictionary()
        #: Autoclusters whose jobs are proven unmatchable against the
        #: current pool (see :meth:`_match_key`).  While the
        #: candidate pool only shrinks -- matches and expiries remove
        #: machines, nothing edits one in place -- a no-match verdict
        #: stays correct, so the memo is cleared only when a machine ad
        #: arrives.  A saturated cycle (far more idle jobs than free
        #: machines) costs one full search per distinct summary instead
        #: of one per job.
        self._no_match_memo: set[_Cluster] = set()
        self.listener = net.listen(host, self.PORT)
        self._accept_proc = sim.spawn(self._accept_loop(), name="matchmaker-accept")
        self._accept_proc.defuse()
        self._cycle_proc = sim.spawn(self._negotiation_loop(), name="matchmaker-cycle")
        self._cycle_proc.defuse()

    # -- collection ----------------------------------------------------------
    def _accept_loop(self):
        while True:
            conn = yield from self.listener.accept()
            handler = self.sim.spawn(self._collect(conn), name="matchmaker-collect")
            handler.defuse()

    def _collect(self, conn):
        # A single connection may carry several messages; read until the
        # sender closes.  Batched ads (one message per startd/schedd, not
        # per slot/job) keep the receive-deadline count per advertisement
        # constant.
        try:
            while True:
                message = yield from conn.recv(timeout=CLAIM_TIMEOUT)
                if isinstance(message, AdvertiseBatch):
                    for name, ad in message.ads:
                        self.receive_ad(message.kind, name, ad)
                elif isinstance(message, Advertise):
                    self.receive_ad(message.kind, message.name, message.ad)
                elif isinstance(message, InvalidateAd):
                    for name in message.names:
                        self.retract_ad(message.kind, name)
        except NetworkError:
            return

    @staticmethod
    def _port_of(ad: ClassAd, attr: str) -> int:
        """*attr* as a port number; malformed values count as unset.

        An ad is foreign input -- a port attribute bound to a non-numeric
        string must degrade to "no reply channel", not raise out of the
        collect loop and kill the matchmaker.
        """
        try:
            return int(ad.value(attr, 0) or 0)
        except (TypeError, ValueError, OverflowError):  # OverflowError: int(inf)
            return 0

    def receive_ad(self, kind: str, name: str, ad: ClassAd) -> None:
        """Store one advertisement and maintain the derived structures.

        What negotiation reads of a stored ad is read here, once: a job's
        reply address and owner, a machine's state.
        """
        now = self.sim.now
        if kind == "job":
            stored = self.job_ads.get(name)
            if stored is not None and stored.ad is ad and ad.frozen:
                # A refresh: the schedd re-sent the very ad that is
                # stored, and a frozen ad still says what it said then.
                # What was read of it is a function of the ad, so only
                # the timestamp can be new -- and if it is not, the
                # expiry heap already holds this entry.
                if stored.received != now:
                    stored.received = now
                    heappush(self._expiry_heap, (now, 1, name))
                return
            self.job_ads[name] = _StoredAd(
                name=name,
                ad=ad,
                received=now,
                reply_host=str(ad.value("scheddhost", "")),
                reply_port=self._port_of(ad, "scheddport"),
                owner=str(ad.value("owner", "unknown")),
            )
            heappush(self._expiry_heap, (now, 1, name))
        elif kind == "machine":
            stored = _StoredAd(
                name=name,
                ad=ad,
                received=now,
                unclaimed=ad.value("state", "unclaimed") == "unclaimed",
            )
            self.machine_ads[name] = stored
            self._index.add(name, ad)
            # A new (or refreshed) machine ad can create matches that did
            # not exist before; every cached no-match verdict and every
            # walk cursor is suspect.
            self._no_match_memo.clear()
            for entry in self._rank_orders.values():
                if entry is not None and entry.cursors:
                    entry.cursors.clear()
            self._ad_seq[name] = seq = self._index.stamp  # moved by the add
            # Matched-at == received-at keeps the machine eligible (the
            # ad is not older than the match); only a strictly later
            # match makes it stale.
            if stored.unclaimed and self._recently_matched.get(name, -1.0) <= stored.received:
                self._fresh.add(name)
            else:
                self._fresh.discard(name)
            self._admit_to_orders(name, stored, seq)
            heappush(self._expiry_heap, (now, 0, name))

    def retract_ad(self, kind: str, name: str) -> None:
        """Drop one ad immediately (graceful machine leave).

        The expiry path (:meth:`_expire`) does the same eventually; a
        retraction just refuses to hand out a machine its owner already
        said goodbye to.  Cached rank-order entries die automatically
        (their sequence number no longer matches), and the last-matched
        stamp goes with the ad -- the same leak-prevention discipline
        expiry applies.
        """
        if kind == "machine":
            if self.machine_ads.pop(name, None) is None:
                return
            self._index.remove(name)
            self._fresh.discard(name)
            self._ad_seq.pop(name, None)
            self._recently_matched.pop(name, None)
        elif kind == "job":
            self.job_ads.pop(name, None)

    def _admit_to_orders(self, name: str, stored: _StoredAd, seq: int) -> None:
        """Insert the new ad into every cached rank order (or poison the
        orders its non-literal attributes would make job-dependent)."""
        if not self._rank_orders:
            return
        recent = self._recently_matched.get(name, -1.0)
        live = len(self.machine_ads)
        for key, entry in list(self._rank_orders.items()):
            if entry is None:
                continue
            if not machine_rank_literal(stored.ad, entry.refs):
                self._rank_orders[key] = None
                continue
            insort(entry.order, (-rank(entry.probe, stored.ad), recent, name, seq))
            if len(entry.order) > _ORDER_SLACK * live + 64:
                seqs = self._ad_seq
                entry.order = [e for e in entry.order if seqs.get(e[2]) == e[3]]

    def _expire(self) -> None:
        horizon = self.sim.now - self.config.ad_lifetime
        heap = self._expiry_heap
        while heap and heap[0][0] < horizon:
            received, ad_kind, name = heappop(heap)
            table = self.machine_ads if ad_kind == 0 else self.job_ads
            stored = table.get(name)
            if stored is None or stored.received != received:
                continue  # superseded by a fresher ad (or already matched)
            del table[name]
            if ad_kind == 0:
                self._index.remove(name)
                self._fresh.discard(name)
                self._ad_seq.pop(name, None)
                # An expired machine cannot be matched again, so its
                # last-matched stamp is dead weight; dropping it here is
                # what keeps _recently_matched bounded by the pool size
                # (it previously grew monotonically with churn).
                self._recently_matched.pop(name, None)

    # -- negotiation ---------------------------------------------------------
    def _negotiation_loop(self):
        while True:
            yield self.sim.timeout(self.config.negotiation_interval)
            yield from self.run_cycle()

    def run_cycle(self):
        """Generator: one negotiation cycle over all current ads."""
        self.cycles_run += 1
        self._expire()
        bus = self.sim.telemetry
        if bus is not None and bus.active:
            bus.emit(
                self.sim.now, "daemon", "negotiation_cycle",
                cycle=self.cycles_run,
                jobs=len(self.job_ads), machines=len(self.machine_ads),
            )
        for owner in list(self.owner_usage):
            decayed = self.owner_usage[owner] * USAGE_DECAY
            if decayed < USAGE_EPSILON:
                # Fully-decayed owners are indistinguishable from never
                # seen; keeping them would leak an entry per owner ever
                # observed.
                del self.owner_usage[owner]
            else:
                self.owner_usage[owner] = decayed
        # Fair share: least-used owner negotiates first; within an owner,
        # submission order.  Without fair share, pure insertion order --
        # both deterministic.
        entries = list(self.job_ads.items())
        if self.config.fair_share:
            usage = self.owner_usage
            arrival = {name: i for i, (name, _) in enumerate(entries)}
            entries.sort(key=lambda item: (usage.get(item[1].owner, 0.0), arrival[item[0]]))
        for job_name, job_stored in entries:
            best = self._best_machine(job_stored.ad)
            if best is None:
                continue
            machine_name = str(best.ad.value("machine", best.name))
            notify = MatchNotify(
                job_id=str(job_stored.ad.value("jobid", job_name)),
                # The slot is an execution-site detail; the schedd's view
                # of "the site" (avoidance, attempt history) is the machine.
                startd_name=machine_name,
                startd_host=machine_name,
                startd_port=self._port_of(best.ad, "startdport"),
                machine_ad=best.ad,
            )
            delivered = yield from self._notify_schedd(job_stored, notify)
            if delivered:
                self.matches_made += 1
                if bus is not None and bus.active:
                    bus.emit(
                        self.sim.now, "daemon", "match_made",
                        job=notify.job_id, machine=machine_name,
                    )
                owner = job_stored.owner
                self.owner_usage[owner] = self.owner_usage.get(owner, 0.0) + 1.0
                # One claim per machine per cycle; the startd re-advertises
                # its new state when claimed.
                self._record_match(best)
                if job_name in self.job_ads:
                    del self.job_ads[job_name]

    def _record_match(self, best: _StoredAd) -> None:
        """Mark *best* matched now, keeping the fresh set consistent.

        An ad received at exactly the match instant is not stale (the
        strict comparison mirrors :meth:`_best_machine_scan`'s skip).
        """
        self._recently_matched[best.name] = self.sim.now
        if self.sim.now > best.received:
            self._fresh.discard(best.name)
        else:
            # Still eligible, but no longer ahead of its never-matched
            # peers: the cached orders filed it under the old stamp.
            self._rank_orders.clear()

    # -- selection -----------------------------------------------------------
    def _best_machine(self, job_ad: ClassAd) -> _StoredAd | None:
        """The scan winner for *job_ad*, via the indexed fast path.

        Preemption makes claimed machines candidates with a per-(job,
        machine) rank comparison the index cannot summarize, so that
        configuration keeps the reference scan.
        """
        if self.config.preemption:
            return self._best_machine_scan(job_ad)
        fresh = self._fresh
        if not fresh:
            return None
        index = self._index
        key = self._cluster_of(job_ad)
        if key is None:
            test, estimate, names = index.membership(job_ad)
        elif key in self._no_match_memo:
            # Ahead of the index on purpose: a memo hit means None
            # whatever the buckets say, and no early exit has an effect.
            return None
        else:
            if key.stamp != index.stamp:
                key.stamp, key.narrowed = index.stamp, index.membership(job_ad)
            test, estimate, names = key.narrowed
        if test is not None and estimate == 0:
            return None  # no machine can satisfy the indexed conjunct
        entry = self._order_for(job_ad)
        if entry is not None:
            # Always prefer the walk when a rank order exists: its first
            # survivor ends the search, and skipping a dead or
            # non-matching entry costs a set lookup -- orders of
            # magnitude below one symmetric_match, which _pick_best must
            # pay for every candidate (min-by-key cannot early-exit).
            winner = self._walk(job_ad, entry, test, key)
        elif names is not None and estimate < len(fresh):
            # Job-dependent rank: enumerate the smaller candidate set.
            winner = self._pick_best(job_ad, names, None)
        else:
            winner = self._pick_best(job_ad, fresh, test)
        if winner is None and key is not None:
            self._no_match_memo.add(key)
        return winner

    def _cluster_of(self, job_ad: ClassAd) -> _Cluster | None:
        """*job_ad*'s autocluster (its match summary, interned), or None
        when it has no summary.  Derived once per ad and per generation
        of the index's reference set, the summary's only machine-side
        input, and kept in the ad's analysis slot, which any edit drops.
        """
        analysis = analysis_of(job_ad)
        index = self._index
        if analysis.index is not index or analysis.generation != index.refs_generation:
            key = self._match_key(job_ad)
            analysis.cluster = (
                None if key is None else self._clusters.setdefault(key, _Cluster())
            )
            analysis.index, analysis.generation = index, index.refs_generation
        return analysis.cluster

    def _match_key(self, job_ad: ClassAd) -> tuple | None:
        """A summary of everything about *job_ad* that can influence
        whether it matches: its Requirements expression plus the job's
        value for every attribute that expression -- or any machine's
        Requirements -- references.  Two jobs with equal summaries see
        identical candidate verdicts against identical pool state, so a
        no-match result is shared between them.  Rank is deliberately
        excluded: it orders candidates but cannot create one.  Jobs with
        an expression-valued referenced attribute are not summarizable
        (the chain could reach anything) and return None.
        """
        req = job_ad.lookup("requirements")
        refs = set(self._index.requirement_refs)
        if req is not None:
            refs.update(req.external_refs())
        parts: list[object] = [req]
        for name in sorted(refs):
            expr = job_ad.lookup(name)
            if expr is None:
                parts.append((name, None))
            elif type(expr) is Literal:
                parts.append((name, expr.value))
            else:
                return None
        return tuple(parts)

    def _order_for(self, job_ad: ClassAd) -> _RankOrder | None:
        expr = job_ad.lookup("rank")
        entry = self._rank_orders.get(expr, _MISSING)
        if entry is not _MISSING:
            return entry
        if len(self._rank_orders) >= 32:
            self._rank_orders.clear()  # pathological rank diversity
        entry = self._build_order(expr)
        self._rank_orders[expr] = entry
        return entry

    def _build_order(self, expr) -> _RankOrder | None:
        if not rank_cacheable(expr):
            return None
        refs = frozenset() if expr is None else frozenset(expr.external_refs())
        probe = ClassAd()
        if expr is not None:
            probe["rank"] = expr
        entry = _RankOrder(probe, refs)
        order = entry.order
        for name, stored in self.machine_ads.items():
            if not machine_rank_literal(stored.ad, refs):
                return None
            order.append(
                (
                    -rank(probe, stored.ad),
                    self._recently_matched.get(name, -1.0),
                    name,
                    self._ad_seq.get(name, 0),
                )
            )
        order.sort()
        return entry

    def _walk(
        self, job_ad: ClassAd, entry: _RankOrder, test, key: _Cluster | None
    ) -> _StoredAd | None:
        """First live entry passing every reference check == scan winner.

        Dead entries (superseded ad, matched or claimed machine) can
        never come back to life under the same sequence number, so the
        leading dead run is sliced off once it is worth the copy.

        *key* is the job's autocluster (None when not summarizable):
        the walk resumes at that cluster's cursor and records where it
        stopped.  The cursor points *at* the winner, not past it -- an
        undelivered match (or one at the machine's own advertise
        instant) leaves the machine fresh, and the next same-key job
        must be able to take it.
        """
        order = entry.order
        seqs = self._ad_seq
        fresh = self._fresh
        machine_ads = self.machine_ads
        start = entry.cursors.get(key, 0) if key is not None else 0
        dead_prefix = start
        winner = None
        stop = len(order)
        for i in range(start, len(order)):
            _, _, name, seq = order[i]
            if seqs.get(name) != seq or name not in fresh:
                if dead_prefix == i:
                    dead_prefix += 1
                continue
            if test is not None and not test(name):
                continue
            stored = machine_ads[name]
            if symmetric_match(job_ad, stored.ad):
                winner = stored
                stop = i
                break
        if key is not None:
            entry.cursors[key] = stop
        if start == 0 and dead_prefix > 64:
            del order[:dead_prefix]
            if entry.cursors:
                entry.cursors = {
                    k: v - dead_prefix if v > dead_prefix else 0
                    for k, v in entry.cursors.items()
                }
        return winner

    def _pick_best(self, job_ad: ClassAd, names, test) -> _StoredAd | None:
        """Exact selection over *names* by the scan's sort key.

        The key ends with the unique machine name, so the minimum is
        independent of enumeration order (sets are safe).
        """
        fresh = self._fresh
        best = best_key = None
        for name in names:
            if name not in fresh:
                continue
            if test is not None and not test(name):
                continue
            stored = self.machine_ads.get(name)
            if stored is None or not symmetric_match(job_ad, stored.ad):
                continue
            key = (
                -rank(job_ad, stored.ad),
                self._recently_matched.get(name, -1.0),
                name,
            )
            if best_key is None or key < best_key:
                best_key, best = key, stored
        return best

    def _best_machine_scan(self, job_ad: ClassAd) -> _StoredAd | None:
        """Reference scan: the executable specification of selection.

        The indexed path must return exactly this winner for every pool
        state (cross-checked in tests/condor/test_match_index.py).
        """
        candidates = []
        for stored in self.machine_ads.values():
            if not stored.unclaimed:
                if not self.config.preemption:
                    continue
                # Preemption: a claimed slot is still a candidate when the
                # machine's Rank strictly prefers this job to its current one.
                current = rank(stored.ad, None, "currentrank")
                if rank(stored.ad, job_ad) <= current:
                    continue
            if self._recently_matched.get(stored.name, -1.0) > stored.received:
                continue  # matched strictly after it last advertised
            if symmetric_match(job_ad, stored.ad):
                candidates.append(stored)
        if not candidates:
            return None
        # Highest job rank first; ties go to the least-recently-matched
        # machine (spreads retries across the pool), then name for
        # determinism.
        candidates.sort(
            key=lambda s: (
                -rank(job_ad, s.ad),
                self._recently_matched.get(s.name, -1.0),
                s.name,
            )
        )
        return candidates[0]

    def _notify_schedd(self, job_stored: _StoredAd, notify: MatchNotify):
        if not job_stored.reply_host:
            return False
        try:
            conn = yield from self.net.connect(
                self.host, job_stored.reply_host, job_stored.reply_port,
                timeout=CLAIM_TIMEOUT,
            )
            conn.send(notify, size=WireSize.AD)
            conn.close()
            return True
        except NetworkError:
            return False
