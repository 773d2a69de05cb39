"""Classification of raw failures into error scopes (the wrapper's table).

The paper's wrapper "examines the exception type, and then produces a
result file describing the program result and the scope of any errors
discovered" (§4).  This module is that examination: a registry mapping
``(namespace, error name)`` to a scope and a canonical name.

Namespaces keep the substrates' vocabularies apart:

- ``java`` -- simulated Java throwables (Figure 4's rows);
- ``fs`` -- errno-style codes from :mod:`repro.sim.filesystem`;
- ``net`` -- codes from :mod:`repro.sim.network`;
- ``chirp`` -- Chirp protocol result codes;
- ``condor`` -- conditions discovered by the daemons themselves.

Unknown names fall back to namespace-specific heuristics that mirror how
the real wrapper had to behave: an unknown Java ``...Error`` is assumed to
invalidate the virtual machine, an unknown ``...Exception`` is assumed to
be a program result (the program's own business), and anything else gets
the namespace's conservative default.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.scope import ErrorScope

__all__ = ["Classification", "ExceptionClassifier", "DEFAULT_CLASSIFIER"]


@dataclass(frozen=True)
class Classification:
    """Scope plus canonical name for one raw failure."""

    scope: ErrorScope
    canonical: str
    known: bool = True


class ExceptionClassifier:
    """Registry from (namespace, raw name) to :class:`Classification`."""

    def __init__(self) -> None:
        self._table: dict[tuple[str, str], Classification] = {}

    def register(
        self, namespace: str, name: str, scope: ErrorScope, canonical: str | None = None
    ) -> None:
        """Map *namespace*:*name* to *scope* (canonical name defaults to *name*)."""
        self._table[(namespace, name)] = Classification(scope, canonical or name)

    def classify(self, namespace: str, name: str) -> Classification:
        """Look up *name*, falling back to the namespace heuristic."""
        hit = self._table.get((namespace, name))
        if hit is not None:
            return hit
        return self._heuristic(namespace, name)

    @staticmethod
    def _heuristic(namespace: str, name: str) -> Classification:
        if namespace == "java":
            if name.endswith("Error"):
                return Classification(ErrorScope.VIRTUAL_MACHINE, name, known=False)
            return Classification(ErrorScope.PROGRAM, name, known=False)
        if namespace == "net":
            return Classification(ErrorScope.PROCESS, name, known=False)
        if namespace == "fs":
            return Classification(ErrorScope.LOCAL_RESOURCE, name, known=False)
        if namespace == "chirp":
            return Classification(ErrorScope.LOCAL_RESOURCE, name, known=False)
        return Classification(ErrorScope.JOB, name, known=False)


def _build_default() -> ExceptionClassifier:
    c = ExceptionClassifier()

    # -- Java throwables (Figure 4 and §2.3) ------------------------------
    prog = [
        "ArrayIndexOutOfBoundsException",
        "NullPointerException",
        "ArithmeticException",
        "ClassCastException",
        "IllegalArgumentException",
        "IllegalStateException",
        "NumberFormatException",
        "RuntimeException",
        "Exception",
        # Uncaught I/O results are still the program's own business:
        "FileNotFoundException",
        "AccessDeniedException",
        "EOFException",
        "DiskFullException",
    ]
    for name in prog:
        c.register("java", name, ErrorScope.PROGRAM)

    vm = [
        "OutOfMemoryError",
        "StackOverflowError",
        "VirtualMachineError",
        "InternalError",
        "UnknownError",
    ]
    for name in vm:
        c.register("java", name, ErrorScope.VIRTUAL_MACHINE)

    remote = [
        # "The Java installation is misconfigured" (Figure 4)
        "NoClassDefFoundError",
        "UnsatisfiedLinkError",
        "JvmMisconfiguredError",
        "ClassLibraryMissingError",
    ]
    for name in remote:
        c.register("java", name, ErrorScope.REMOTE_RESOURCE)

    local = [
        # "The home file system was offline" (Figure 4)
        "ConnectionTimedOutException",
        "RemoteIoUnavailableError",
        "CredentialExpiredError",
        "ChirpConnectionLostError",
    ]
    for name in local:
        c.register("java", name, ErrorScope.LOCAL_RESOURCE)

    job = [
        # "The program image was corrupt" (Figure 4)
        "ClassFormatError",
        "NoSuchMethodError",
        "CorruptImageError",
        "MissingInputError",
    ]
    for name in job:
        c.register("java", name, ErrorScope.JOB)

    # -- file-system codes ----------------------------------------------------
    c.register("fs", "ENOENT", ErrorScope.FILE, "FileNotFound")
    c.register("fs", "EACCES", ErrorScope.FILE, "AccessDenied")
    c.register("fs", "EISDIR", ErrorScope.FILE, "IsADirectory")
    c.register("fs", "ENOTDIR", ErrorScope.FILE, "NotADirectory")
    c.register("fs", "EEXIST", ErrorScope.FILE, "FileExists")
    c.register("fs", "EINVAL", ErrorScope.FILE, "InvalidArgument")
    c.register("fs", "EBADF", ErrorScope.PROCESS, "BadFileHandle")
    c.register("fs", "ENOSPC", ErrorScope.FILE, "DiskFull")
    c.register("fs", "EIO", ErrorScope.LOCAL_RESOURCE, "FilesystemOffline")
    c.register("fs", "ETIMEDOUT", ErrorScope.LOCAL_RESOURCE, "FilesystemTimeout")

    # -- network codes -------------------------------------------------------
    # "A failure in remote procedure call has process scope." (§3.3)
    c.register("net", "ECONNRESET", ErrorScope.PROCESS, "ConnectionLost")
    c.register("net", "ETIMEDOUT", ErrorScope.PROCESS, "ConnectionTimedOut")
    c.register("net", "ECONNREFUSED", ErrorScope.PROCESS, "ConnectionRefused")
    c.register("net", "EHOSTUNREACH", ErrorScope.PROCESS, "HostUnreachable")

    # -- Chirp result codes ---------------------------------------------------
    c.register("chirp", "NOT_FOUND", ErrorScope.FILE, "FileNotFound")
    c.register("chirp", "NOT_AUTHORIZED", ErrorScope.FILE, "AccessDenied")
    c.register("chirp", "NO_SPACE", ErrorScope.FILE, "DiskFull")
    c.register("chirp", "BAD_FD", ErrorScope.PROCESS, "BadFileHandle")
    c.register("chirp", "INVALID_REQUEST", ErrorScope.PROCESS, "ProtocolError")
    c.register("chirp", "AUTH_FAILED", ErrorScope.REMOTE_RESOURCE, "ProxyAuthFailed")
    c.register("chirp", "SERVER_DOWN", ErrorScope.LOCAL_RESOURCE, "RemoteIoUnavailable")
    c.register("chirp", "CREDENTIAL_EXPIRED", ErrorScope.LOCAL_RESOURCE, "CredentialExpired")
    c.register("chirp", "TIMED_OUT", ErrorScope.LOCAL_RESOURCE, "RemoteIoTimeout")

    # -- daemon-discovered conditions ----------------------------------------
    c.register("condor", "MissingInputFile", ErrorScope.JOB)
    c.register("condor", "CorruptProgramImage", ErrorScope.JOB)
    c.register("condor", "BadSubmitDescription", ErrorScope.JOB)
    c.register("condor", "JvmMisconfigured", ErrorScope.REMOTE_RESOURCE)
    c.register("condor", "JvmBinaryMissing", ErrorScope.REMOTE_RESOURCE)
    c.register("condor", "ScratchDiskFull", ErrorScope.REMOTE_RESOURCE)
    c.register("condor", "MachineCrashed", ErrorScope.REMOTE_RESOURCE)
    c.register("condor", "ClaimLost", ErrorScope.REMOTE_RESOURCE)
    c.register("condor", "Evicted", ErrorScope.REMOTE_RESOURCE)
    # "A node failure in PVM has cluster scope." (§3.3)
    c.register("condor", "PvmNodeFailed", ErrorScope.CLUSTER)
    c.register("condor", "HomeFilesystemOffline", ErrorScope.LOCAL_RESOURCE)
    c.register("condor", "ShadowDied", ErrorScope.LOCAL_RESOURCE)
    c.register("condor", "MatchmakerUnreachable", ErrorScope.POOL)
    # Federation: one flock link dead is a pool-scope condition (that
    # pool is invalid for this job, others may serve); every pool dead
    # widens to grid scope -- the whole community is unreachable.
    c.register("condor", "FlockLinkDown", ErrorScope.POOL)
    c.register("condor", "GridUnreachable", ErrorScope.GRID)
    return c


#: The classification table the scoped (fixed) Java Universe uses.
DEFAULT_CLASSIFIER = _build_default()
