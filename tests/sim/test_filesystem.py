"""Tests for simulated file systems and NFS mount semantics."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.filesystem import FsError, LocalFileSystem, NfsClient


@pytest.fixture
def fs():
    fs = LocalFileSystem(capacity=1000)
    fs.mkdir("/home")
    return fs


class TestLocalFileSystem:
    def test_write_and_read(self, fs):
        fs.write_file("/home/a.txt", b"hello")
        assert fs.read_file("/home/a.txt") == b"hello"

    def test_read_missing_is_enoent(self, fs):
        with pytest.raises(FsError) as err:
            fs.read_file("/home/missing")
        assert err.value.code == "ENOENT"

    def test_write_into_missing_dir_is_enoent(self, fs):
        with pytest.raises(FsError) as err:
            fs.write_file("/nodir/x", b"")
        assert err.value.code == "ENOENT"

    def test_permission_denied_read(self, fs):
        fs.write_file("/home/secret", b"x")
        fs._files["/home/secret"].readable = False
        with pytest.raises(FsError) as err:
            fs.read_file("/home/secret")
        assert err.value.code == "EACCES"

    def test_permission_denied_write(self, fs):
        fs.write_file("/home/ro", b"x")
        fs._files["/home/ro"].writable = False
        with pytest.raises(FsError) as err:
            fs.write_file("/home/ro", b"y")
        assert err.value.code == "EACCES"

    def test_disk_full_is_enospc(self, fs):
        with pytest.raises(FsError) as err:
            fs.write_file("/home/big", b"x" * 2000)
        assert err.value.code == "ENOSPC"

    def test_overwrite_frees_old_space(self, fs):
        fs.write_file("/home/a", b"x" * 900)
        fs.write_file("/home/a", b"y" * 900)
        assert fs.used == 900

    def test_open_dir_is_eisdir(self, fs):
        with pytest.raises(FsError) as err:
            fs.open("/home", "r")
        assert err.value.code == "EISDIR"

    def test_mkdir_parents(self, fs):
        fs.mkdir("/a/b/c", parents=True)
        assert fs.exists("/a/b/c")

    def test_mkdir_without_parents_fails(self, fs):
        with pytest.raises(FsError):
            fs.mkdir("/a/b/c")

    def test_mkdir_over_file_is_eexist(self, fs):
        fs.write_file("/home/f", b"")
        with pytest.raises(FsError) as err:
            fs.mkdir("/home/f")
        assert err.value.code == "EEXIST"

    def test_offline_fs_is_eio(self, fs):
        fs.write_file("/home/a", b"x")
        fs.set_online(False)
        with pytest.raises(FsError) as err:
            fs.read_file("/home/a")
        assert err.value.code == "EIO"
        fs.set_online(True)
        assert fs.read_file("/home/a") == b"x"

    def test_handle_offline_mid_read_is_eio(self, fs):
        fs.write_file("/home/a", b"data")
        handle = fs.open("/home/a", "r")
        fs.set_online(False)
        with pytest.raises(FsError) as err:
            handle.read()
        assert err.value.code == "EIO"

    def test_closed_handle_is_ebadf(self, fs):
        fs.write_file("/home/a", b"data")
        handle = fs.open("/home/a", "r")
        handle.close()
        with pytest.raises(FsError) as err:
            handle.read()
        assert err.value.code == "EBADF"

    def test_write_on_readonly_handle_is_ebadf(self, fs):
        fs.write_file("/home/a", b"data")
        handle = fs.open("/home/a", "r")
        with pytest.raises(FsError) as err:
            handle.write(b"x")
        assert err.value.code == "EBADF"

    def test_append_mode(self, fs):
        fs.write_file("/home/a", b"one")
        handle = fs.open("/home/a", "a")
        handle.write(b"two")
        handle.close()
        assert fs.read_file("/home/a") == b"onetwo"

    def test_corruption_is_silent_but_verifiable(self, fs):
        """Corruption models an implicit error: reads succeed, data is wrong."""
        fs.write_file("/home/a", b"precious")
        assert fs.verify("/home/a")
        fs.corrupt("/home/a")
        data = fs.read_file("/home/a")  # no exception!
        assert data != b"precious"
        assert not fs.verify("/home/a")

    def test_corrupt_missing_file(self, fs):
        with pytest.raises(FsError):
            fs.corrupt("/home/none")

    def test_path_normalization(self, fs):
        fs.write_file("/home//a", b"x")
        assert fs.read_file("/home/a") == b"x"
        assert fs.exists("/home/a/")


class TestNfsMounts:
    def _run(self, sim, gen):
        proc = sim.spawn(gen)
        sim.run()
        assert proc._ok, proc._value
        return proc._value

    def _server(self, sim):
        server = LocalFileSystem("server", sim=sim)
        server.mkdir("/export")
        server.write_file("/export/data", b"payload")
        return server

    def test_hard_mount_blocks_through_outage(self):
        sim = Simulator()
        server = self._server(sim)
        mount = NfsClient(sim, server, mode="hard", retry_interval=1.0)
        server.set_online(False)
        sim.call_at(10.0, lambda: server.set_online(True))

        def job(sim):
            data = yield from mount.read_file("/export/data")
            return (sim.now, data)

        t, data = self._run(sim, job(sim))
        assert data == b"payload"
        assert t >= 10.0  # blocked through the outage
        assert mount.stats.retries > 0
        assert mount.stats.timeouts == 0

    def test_soft_mount_times_out(self):
        sim = Simulator()
        server = self._server(sim)
        mount = NfsClient(sim, server, mode="soft", soft_timeout=5.0, retry_interval=1.0)
        server.set_online(False)

        def job(sim):
            try:
                yield from mount.read_file("/export/data")
            except FsError as err:
                return (sim.now, err.code)

        t, code = self._run(sim, job(sim))
        assert code == "ETIMEDOUT"
        assert t >= 5.0
        assert mount.stats.timeouts == 1

    def test_soft_mount_succeeds_when_online(self):
        sim = Simulator()
        server = self._server(sim)
        mount = NfsClient(sim, server, mode="soft", soft_timeout=5.0)

        def job(sim):
            data = yield from mount.read_file("/export/data")
            return data

        assert self._run(sim, job(sim)) == b"payload"

    def test_per_operation_deadline_overrides_hard_mount(self):
        """The per-program failure criterion the paper says NFS lacks."""
        sim = Simulator()
        server = self._server(sim)
        mount = NfsClient(sim, server, mode="hard", retry_interval=1.0)
        server.set_online(False)

        def job(sim):
            try:
                yield from mount.read_file("/export/data", deadline=3.0)
            except FsError as err:
                return (sim.now, err.code)

        t, code = self._run(sim, job(sim))
        assert code == "ETIMEDOUT"
        assert 3.0 <= t < 10.0

    def test_remote_errors_pass_through(self):
        sim = Simulator()
        server = self._server(sim)
        mount = NfsClient(sim, server, mode="soft")

        def job(sim):
            try:
                yield from mount.read_file("/export/missing")
            except FsError as err:
                return err.code

        assert self._run(sim, job(sim)) == "ENOENT"

    def test_invalid_mode_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            NfsClient(sim, LocalFileSystem(), mode="medium")

    def test_blocked_time_accounting(self):
        sim = Simulator()
        server = self._server(sim)
        mount = NfsClient(sim, server, mode="hard", retry_interval=1.0)
        server.set_online(False)
        sim.call_at(4.0, lambda: server.set_online(True))

        def job(sim):
            yield from mount.read_file("/export/data")

        self._run(sim, job(sim))
        assert mount.stats.blocked_time >= 4.0
