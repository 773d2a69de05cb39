"""The fault catalogue.

Each fault knows how to arm and disarm itself against a
:class:`~repro.condor.pool.Pool`, and carries its ground-truth scope --
the scope a perfect error-propagation system would assign to the errors
it produces.  The mapping follows Figures 3 and 4:

=============================  =====================
Fault                          Ground-truth scope
=============================  =====================
MisconfiguredJvm               REMOTE_RESOURCE
JvmBinaryMissing               REMOTE_RESOURCE
ScratchDiskFull                REMOTE_RESOURCE
MachineCrash                   REMOTE_RESOURCE
NetworkPartition (exec side)   REMOTE_RESOURCE
MachineChurn                   REMOTE_RESOURCE
FlockLinkDown                  POOL
BlackHoleChurn                 REMOTE_RESOURCE
MemoryPressure                 VIRTUAL_MACHINE
HomeFilesystemOffline          LOCAL_RESOURCE
CredentialExpiry               LOCAL_RESOURCE
CorruptProgramImage            JOB
MissingInputFile               JOB
HomeDiskFull                   FILE (in the I/O contract)
=============================  =====================
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.scope import ErrorScope
from repro.remoteio.rpc import Credential

__all__ = [
    "BlackHole",
    "BlackHoleChurn",
    "CorruptProgramImage",
    "CredentialExpiry",
    "Fault",
    "FlockLinkDown",
    "HomeDiskFull",
    "HomeFilesystemOffline",
    "JvmBinaryMissing",
    "MachineChurn",
    "MachineCrash",
    "MemoryPressure",
    "MisconfiguredJvm",
    "MissingInputFile",
    "NetworkPartition",
    "ScratchDiskFull",
]


@dataclass
class Fault:
    """Base class: a named, scoped, targeted violation of assumptions."""

    name: str = "fault"
    scope: ErrorScope = ErrorScope.REMOTE_RESOURCE
    site: str | None = None  # None = not machine-specific
    job_id: str | None = None  # None = not job-specific
    #: True for faults that produce *implicit* errors -- results the
    #: system presents as valid.  Excluded from the P1 ground-truth audit
    #: (the system received no explicit error to mishandle); only the
    #: end-to-end layer can catch these (§5).
    implicit: bool = False

    def arm(self, pool) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def disarm(self, pool) -> None:
        """Default: not reversible."""
        raise NotImplementedError(f"{self.name} cannot be disarmed")


@dataclass
class MisconfiguredJvm(Fault):
    """§2.3: 'the machine owner might give an incorrect path to the
    standard libraries.'"""

    def __init__(self, site: str):
        super().__init__("MisconfiguredJvm", ErrorScope.REMOTE_RESOURCE, site=site)

    def arm(self, pool) -> None:
        pool.machines[self.site].java.classpath_ok = False

    def disarm(self, pool) -> None:
        pool.machines[self.site].java.classpath_ok = True


#: §5's name for a machine whose bad installation devours the job stream.
BlackHole = MisconfiguredJvm


@dataclass
class JvmBinaryMissing(Fault):
    """The owner's java binary path is simply wrong."""

    def __init__(self, site: str):
        super().__init__("JvmBinaryMissing", ErrorScope.REMOTE_RESOURCE, site=site)

    def arm(self, pool) -> None:
        pool.machines[self.site].java.binary_ok = False

    def disarm(self, pool) -> None:
        pool.machines[self.site].java.binary_ok = True


@dataclass
class MemoryPressure(Fault):
    """Another tenant hogs physical memory: jobs hit OutOfMemoryError."""

    nbytes: int = 0

    def __init__(self, site: str, nbytes: int):
        super().__init__("MemoryPressure", ErrorScope.VIRTUAL_MACHINE, site=site)
        self.nbytes = nbytes

    def arm(self, pool) -> None:
        pool.machines[self.site].alloc(self.nbytes)

    def disarm(self, pool) -> None:
        pool.machines[self.site].free(self.nbytes)


@dataclass
class HomeFilesystemOffline(Fault):
    """Figure 4: 'The home file system was offline.'"""

    def __init__(self):
        super().__init__("HomeFilesystemOffline", ErrorScope.LOCAL_RESOURCE)

    def arm(self, pool) -> None:
        pool.home_fs.set_online(False)

    def disarm(self, pool) -> None:
        pool.home_fs.set_online(True)


@dataclass
class CredentialExpiry(Fault):
    """The shadow's GSI/Kerberos credential has expired (§4)."""

    def __init__(self):
        super().__init__("CredentialExpiry", ErrorScope.LOCAL_RESOURCE)
        self._saved = None

    def arm(self, pool) -> None:
        self._saved = pool.schedd.credential_factory
        expired_at = pool.sim.now  # already expired the moment it is minted
        pool.schedd.credential_factory = lambda job: Credential(
            owner=job.owner, expires_at=expired_at
        )

    def disarm(self, pool) -> None:
        if self._saved is not None:
            pool.schedd.credential_factory = self._saved


@dataclass
class CorruptProgramImage(Fault):
    """Figure 4: 'The program image was corrupt.'

    Pass either a job id (looked up in the schedd's queue at arm time) or
    the :class:`~repro.condor.job.Job` object itself (for jobs that have
    not been submitted yet).
    """

    def __init__(self, job_or_id):
        job_id = job_or_id if isinstance(job_or_id, str) else job_or_id.job_id
        super().__init__("CorruptProgramImage", ErrorScope.JOB, job_id=job_id)
        self._job = None if isinstance(job_or_id, str) else job_or_id

    def _target(self, pool):
        return self._job if self._job is not None else pool.schedd.jobs[self.job_id]

    def arm(self, pool) -> None:
        self._target(pool).image.corrupt = True

    def disarm(self, pool) -> None:
        self._target(pool).image.corrupt = False


@dataclass
class MissingInputFile(Fault):
    """A submit file names an input that does not exist: job scope (§4).

    Accepts a job id or the Job object (see :class:`CorruptProgramImage`).
    """

    def __init__(self, job_or_id):
        job_id = job_or_id if isinstance(job_or_id, str) else job_or_id.job_id
        super().__init__("MissingInputFile", ErrorScope.JOB, job_id=job_id)
        self._job = None if isinstance(job_or_id, str) else job_or_id

    def arm(self, pool) -> None:
        job = self._job if self._job is not None else pool.schedd.jobs[self.job_id]
        job.input_files["missing.dat"] = "/home/user/does-not-exist"


@dataclass
class NetworkPartition(Fault):
    """Traffic between two hosts silently vanishes (§5's indeterminate
    scope).  Ground truth: *host_b*, the execution side, is cut off."""

    host_a: str = ""
    host_b: str = ""

    def __init__(self, host_a: str, host_b: str):
        super().__init__("NetworkPartition", ErrorScope.REMOTE_RESOURCE, site=host_b)
        self.host_a = host_a
        self.host_b = host_b

    def arm(self, pool) -> None:
        pool.net.partition(self.host_a, self.host_b)

    def disarm(self, pool) -> None:
        pool.net.heal(self.host_a, self.host_b)


@dataclass
class MachineCrash(Fault):
    """Power failure at an execution site."""

    def __init__(self, site: str):
        super().__init__("MachineCrash", ErrorScope.REMOTE_RESOURCE, site=site)

    def arm(self, pool) -> None:
        pool.machines[self.site].crash()
        pool.net.set_host_down(self.site)

    def disarm(self, pool) -> None:
        pool.machines[self.site].boot()
        pool.net.set_host_down(self.site, down=False)


@dataclass
class MachineChurn(Fault):
    """A machine leaves the pool mid-run and is parked for rejoin.

    The churn counterpart of :class:`MachineCrash`: arming removes the
    machine through the pool's churn lifecycle (graceful leave retracts
    ads and evicts; crash-leave drops off the network mid-claim),
    disarming rejoins it under the same name.  Ground truth is
    remote-resource scope -- jobs caught on the leaver cannot run *on
    that host*, and must retry elsewhere.
    """

    graceful: bool = False

    def __init__(self, site: str, graceful: bool = False):
        super().__init__("MachineChurn", ErrorScope.REMOTE_RESOURCE, site=site)
        self.graceful = graceful

    def arm(self, pool) -> None:
        # Tolerate a combo cell where another churn fault already removed
        # this machine: "already gone" satisfies the fault.
        if self.site in pool.machines:
            pool.remove_machine(self.site, graceful=self.graceful)

    def disarm(self, pool) -> None:
        if self.site in pool.parked:
            pool.rejoin_machine(self.site)


@dataclass
class FlockLinkDown(Fault):
    """Every flock link out of the pool's schedds goes dark.

    Partitions each (submit host, flock target) pair, so flocked work
    stalls and the schedd's link backoff engages.  Pool scope: the
    *remote* pools are unreachable, the local one still serves.  On a
    solitary pool with no flock links, arming is a no-op.
    """

    def __init__(self):
        super().__init__("FlockLinkDown", ErrorScope.POOL)
        self._cut: list[tuple[str, str]] = []

    def arm(self, pool) -> None:
        for schedd in pool.schedds.values():
            for link in schedd.flock_links:
                pair = (schedd.submit_host, link.host)
                if pair not in self._cut:
                    pool.net.partition(*pair)
                    self._cut.append(pair)

    def disarm(self, pool) -> None:
        while self._cut:
            pool.net.heal(*self._cut.pop())


@dataclass
class BlackHoleChurn(Fault):
    """A black hole that churns: the machine's Java breaks *and* the
    machine leaves and rejoins while broken.

    The §5 stress case for backoff avoidance: a graceful leave wipes the
    site's avoidance record (strike tables must not leak under churn),
    so when the still-broken machine rejoins it is a *fresh* black hole
    and the schedd must re-earn its strikes.  Disarming repairs the Java
    installation; the startd's ``self_test_interval`` re-probe then
    re-advertises the site.
    """

    #: seconds the machine stays away before it rejoins, still broken
    DOWNTIME = 30.0

    def __init__(self, site: str):
        super().__init__("BlackHoleChurn", ErrorScope.REMOTE_RESOURCE, site=site)
        self._machine = None

    def arm(self, pool) -> None:
        self._machine = pool.machines.get(self.site) or pool.parked.get(self.site)
        self._machine.java.classpath_ok = False
        if self.site in pool.machines:
            pool.remove_machine(self.site, graceful=True)

        def _rejoin():
            yield pool.sim.timeout(self.DOWNTIME)
            # Another fault may have rejoined (or re-removed) it meanwhile.
            if self.site in pool.parked:
                pool.rejoin_machine(self.site)

        pool.sim.spawn(_rejoin(), name=f"blackhole-churn-rejoin:{self.site}").defuse()

    def disarm(self, pool) -> None:
        if self._machine is not None:
            self._machine.java.classpath_ok = True


@dataclass
class OwnerActivity(Fault):
    """The machine owner returns: the startd's policy turns off and the
    visiting job is evicted.  Remote-resource scope -- the job cannot run
    *on this host*, right now."""

    def __init__(self, site: str):
        super().__init__("OwnerActivity", ErrorScope.REMOTE_RESOURCE, site=site)
        self._saved_expr: str | None = None

    def arm(self, pool) -> None:
        policy = pool.machines[self.site].policy
        self._saved_expr = policy.start_expr
        policy.start_expr = "FALSE"
        pool.startds[self.site].evict()

    def disarm(self, pool) -> None:
        if self._saved_expr is not None:
            pool.machines[self.site].policy.start_expr = self._saved_expr
            self._saved_expr = None


@dataclass
class ScratchDiskFull(Fault):
    """The execution machine's scratch disk has no room for the sandbox."""

    def __init__(self, site: str):
        super().__init__("ScratchDiskFull", ErrorScope.REMOTE_RESOURCE, site=site)
        self._stolen = 0

    def arm(self, pool) -> None:
        scratch = pool.machines[self.site].scratch
        self._stolen = scratch.free
        scratch.used = scratch.capacity

    def disarm(self, pool) -> None:
        scratch = pool.machines[self.site].scratch
        scratch.used = max(0, scratch.used - self._stolen)
        self._stolen = 0


@dataclass
class SilentDataCorruption(Fault):
    """Undetected corruption on the remote I/O channel (§5: implicit
    errors "have been observed in increasingly uncomfortable rates in
    networks, memories, and CPUs").

    Flips payload bytes in Chirp/RPC *replies* with the given
    probability.  No checksum below the application notices; the job
    completes "successfully" with a wrong answer.
    """

    probability: float = 0.0

    def __init__(self, probability: float):
        super().__init__("SilentDataCorruption", ErrorScope.JOB, implicit=True)
        self.probability = probability

    @staticmethod
    def _eligible(message) -> bool:
        from repro.chirp.protocol import ChirpReply
        from repro.remoteio.rpc import RpcReply

        return isinstance(message, (ChirpReply, RpcReply))

    def arm(self, pool) -> None:
        pool.net.corrupt_probability = self.probability
        pool.net.corrupt_filter = self._eligible
        if pool.net.rng is None:
            pool.net.rng = pool.rngs.stream("network.corruption")

    def disarm(self, pool) -> None:
        pool.net.corrupt_probability = 0.0
        pool.net.corrupt_filter = None


@dataclass
class HomeDiskFull(Fault):
    """The user is over quota at home: DiskFull, *within* the I/O contract
    -- a program result, not an environmental error."""

    def __init__(self):
        super().__init__("HomeDiskFull", ErrorScope.FILE)
        self._stolen = 0

    def arm(self, pool) -> None:
        self._stolen = pool.home_fs.free
        pool.home_fs.used = pool.home_fs.capacity

    def disarm(self, pool) -> None:
        pool.home_fs.used = max(0, pool.home_fs.used - self._stolen)
        self._stolen = 0
