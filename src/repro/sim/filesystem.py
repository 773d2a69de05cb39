"""Simulated file systems.

Two layers:

- :class:`LocalFileSystem` -- a synchronous in-memory file system with the
  explicit errors the paper's I/O discussion enumerates: ``ENOENT``
  (FileNotFound), ``EACCES`` (AccessDenied), ``ENOSPC`` (DiskFull),
  ``EISDIR``, plus injected ``EIO`` (offline) and silent
  corruption (the raw material of *implicit* errors).

- :class:`NfsClient` -- an NFS-style mount of a remote file system with
  the **hard/soft mount** semantics of §5: a hard mount retries forever,
  hiding the outage inside elapsed time; a soft mount exposes ``ETIMEDOUT``
  after a retry window.  Both are "unsavory" per the paper; we also
  implement the per-operation deadline the paper wishes programs could
  choose (``deadline=`` argument), as the extension experiment.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.sim.engine import Simulator

__all__ = [
    "FsError",
    "FileHandle",
    "LocalFileSystem",
    "NfsClient",
    "PathState",
]

_SEP = "/"
#: simulated round trip of one NFS operation to the server
NFS_RPC_LATENCY = 0.002


class FsError(Exception):
    """An explicit file-system error with an errno-style code."""

    def __init__(self, code: str, path: str = "", detail: str = ""):
        super().__init__(f"{code}: {path} {detail}".strip())
        self.code = code
        self.path = path
        self.detail = detail


def _norm(path: str) -> str:
    parts = [p for p in path.split(_SEP) if p]
    return _SEP + _SEP.join(parts)


def _parent(path: str) -> str:
    path = _norm(path)
    if path == _SEP:
        return _SEP
    return _norm(path.rsplit(_SEP, 1)[0] or _SEP)


@dataclass
class PathState:
    """Metadata + content for one file."""

    data: bytes = b""
    owner: str = "root"
    readable: bool = True
    writable: bool = True
    mtime: float = 0.0
    checksum: str = ""
    corrupted: bool = False

    def refresh_checksum(self) -> None:
        self.checksum = hashlib.sha256(self.data).hexdigest()


class FileHandle:
    """An open file: sequential read/write cursor over a :class:`PathState`.

    Mirrors the paper's point that *opened* files are traditionally immune
    to namespace errors: once open, reads/writes never raise ``ENOENT`` --
    only ``ENOSPC`` (writes) or ``EIO`` (if the file system goes offline).
    """

    def __init__(self, fs: "LocalFileSystem", path: str, state: PathState, mode: str):
        self.fs = fs
        self.path = path
        self._state = state
        self.mode = mode
        self.offset = len(state.data) if "a" in mode else 0
        self.closed = False

    def _check(self, want_write: bool) -> None:
        if self.closed:
            raise FsError("EBADF", self.path, "handle closed")
        if not self.fs.online:
            raise FsError("EIO", self.path, "file system offline")
        if want_write and "r" == self.mode:
            raise FsError("EBADF", self.path, "not open for writing")

    def read(self, size: int = -1) -> bytes:
        """Read up to *size* bytes from the cursor (all remaining if -1)."""
        self._check(want_write=False)
        data = self._state.data[self.offset :]
        if size >= 0:
            data = data[:size]
        self.offset += len(data)
        return data

    def write(self, data: bytes) -> int:
        """Write *data* at the cursor; raises ``ENOSPC`` when over quota."""
        self._check(want_write=True)
        new_len = max(len(self._state.data), self.offset + len(data))
        growth = new_len - len(self._state.data)
        if growth > 0 and not self.fs._reserve(growth):
            raise FsError("ENOSPC", self.path, "disk full")
        buf = bytearray(self._state.data)
        if new_len > len(buf):
            buf.extend(b"\0" * (new_len - len(buf)))
        buf[self.offset : self.offset + len(data)] = data
        self._state.data = bytes(buf)
        self._state.refresh_checksum()
        self._state.mtime = self.fs.clock()
        self.offset += len(data)
        return len(data)

    def close(self) -> None:
        self.closed = True


class LocalFileSystem:
    """A synchronous in-memory file system with quota and fault hooks."""

    def __init__(
        self,
        name: str = "local",
        capacity: int = 10**9,
        sim: Simulator | None = None,
    ):
        self.name = name
        self.capacity = capacity
        self.used = 0
        self.online = True
        self._files: dict[str, PathState] = {}
        self._dirs: set[str] = {_SEP}
        self._sim = sim

    def clock(self) -> float:
        return self._sim.now if self._sim is not None else 0.0

    # -- capacity ------------------------------------------------------
    def _reserve(self, nbytes: int) -> bool:
        if self.used + nbytes > self.capacity:
            return False
        self.used += nbytes
        return True

    @property
    def free(self) -> int:
        return self.capacity - self.used

    # -- namespace -----------------------------------------------------
    def _require_online(self, path: str) -> None:
        if not self.online:
            raise FsError("EIO", path, "file system offline")

    def mkdir(self, path: str, parents: bool = False) -> None:
        """Create directory *path* (with ancestors when *parents*)."""
        path = _norm(path)
        self._require_online(path)
        if path in self._files:
            raise FsError("EEXIST", path, "file exists")
        parent = _parent(path)
        if parent not in self._dirs:
            if not parents:
                raise FsError("ENOENT", parent, "no such directory")
            self.mkdir(parent, parents=True)
        self._dirs.add(path)

    def exists(self, path: str) -> bool:
        path = _norm(path)
        return path in self._files or path in self._dirs

    # -- file ops --------------------------------------------------------
    def open(self, path: str, mode: str = "r", owner: str = "root") -> FileHandle:
        """Open *path*.  Modes: ``r`` read, ``w`` create/truncate, ``a`` append.

        Namespace errors (``ENOENT``, ``EACCES``, ``EISDIR``) happen here,
        at open time -- per the I/O conventions the paper appeals to.
        """
        path = _norm(path)
        self._require_online(path)
        if path in self._dirs:
            raise FsError("EISDIR", path)
        state = self._files.get(path)
        if "r" == mode:
            if state is None:
                raise FsError("ENOENT", path, "no such file")
            if not state.readable:
                raise FsError("EACCES", path, "permission denied")
            return FileHandle(self, path, state, mode)
        # write / append
        if state is None:
            parent = _parent(path)
            if parent not in self._dirs:
                raise FsError("ENOENT", parent, "no such directory")
            state = PathState(owner=owner, mtime=self.clock())
            state.refresh_checksum()
            self._files[path] = state
        else:
            if not state.writable:
                raise FsError("EACCES", path, "permission denied")
            if mode == "w":
                self.used -= len(state.data)
                state.data = b""
                state.refresh_checksum()
        return FileHandle(self, path, state, mode)

    def write_file(self, path: str, data: bytes, owner: str = "root") -> None:
        """Create/replace *path* with *data* in one call."""
        handle = self.open(path, "w", owner=owner)
        try:
            handle.write(data)
        finally:
            handle.close()

    def read_file(self, path: str) -> bytes:
        """Read the whole of *path* in one call."""
        handle = self.open(path, "r")
        try:
            return handle.read()
        finally:
            handle.close()

    # -- fault hooks --------------------------------------------------------
    def set_online(self, online: bool) -> None:
        """Take the whole file system offline (EIO on every op) or back."""
        self.online = online

    def corrupt(self, path: str, flip_byte: int = 0) -> None:
        """Silently flip a byte of *path* -- creates a latent implicit error.

        The stored checksum is *not* refreshed, so integrity-checking
        readers (:meth:`verify`) can detect the corruption while naive
        readers consume bad data silently.
        """
        path = _norm(path)
        state = self._files.get(path)
        if state is None:
            raise FsError("ENOENT", path)
        if not state.data:
            state.corrupted = True
            return
        idx = flip_byte % len(state.data)
        buf = bytearray(state.data)
        buf[idx] ^= 0xFF
        state.data = bytes(buf)
        state.corrupted = True

    def verify(self, path: str) -> bool:
        """True iff *path*'s content still matches its recorded checksum."""
        path = _norm(path)
        self._require_online(path)
        state = self._files.get(path)
        if state is None:
            raise FsError("ENOENT", path, "no such file")
        return hashlib.sha256(state.data).hexdigest() == state.checksum

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<LocalFileSystem {self.name!r} files={len(self._files)} "
            f"used={self.used}/{self.capacity} online={self.online}>"
        )


@dataclass
class _MountStats:
    operations: int = 0
    retries: int = 0
    timeouts: int = 0
    blocked_time: float = 0.0


class NfsClient:
    """An NFS-style mount of a remote :class:`LocalFileSystem`.

    All operations are generators (use ``yield from``), because a mount of
    an offline server consumes simulated time:

    - ``mode="hard"`` -- retry forever; the caller simply blocks (§5: "hide
      all network errors").
    - ``mode="soft"`` -- raise ``FsError("ETIMEDOUT")`` once the retry
      window (``soft_timeout``) expires (§5: "expose them to callers after
      a certain retry period").

    Per-operation ``deadline=`` overrides the mount-wide policy -- the
    mechanism the paper notes NFS lacks ("no mechanism for a single
    program to choose its own failure criteria").
    """

    def __init__(
        self,
        sim: Simulator,
        server_fs: LocalFileSystem,
        mode: str = "hard",
        soft_timeout: float = 30.0,
        retry_interval: float = 1.0,
    ):
        if mode not in ("hard", "soft"):
            raise ValueError(f"mount mode must be 'hard' or 'soft', not {mode!r}")
        self.sim = sim
        self.server_fs = server_fs
        self.mode = mode
        self.soft_timeout = soft_timeout
        self.retry_interval = retry_interval
        self.stats = _MountStats()

    def _call(self, op, *args, deadline: float | None = None):
        """Run one remote operation with mount retry semantics."""
        self.stats.operations += 1
        start = self.sim.now
        if deadline is None and self.mode == "soft":
            deadline = self.soft_timeout
        while True:
            yield self.sim.timeout(NFS_RPC_LATENCY)
            if self.server_fs.online:
                result = op(*args)
                self.stats.blocked_time += self.sim.now - start
                return result
            waited = self.sim.now - start
            if deadline is not None and waited >= deadline:
                self.stats.timeouts += 1
                self.stats.blocked_time += waited
                raise FsError("ETIMEDOUT", args[0] if args else "", "soft mount timeout")
            self.stats.retries += 1
            yield self.sim.timeout(self.retry_interval)

    def read_file(self, path: str, deadline: float | None = None):
        """Remote whole-file read (generator)."""
        return self._call(self.server_fs.read_file, path, deadline=deadline)
