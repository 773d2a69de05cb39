"""Tests for the OS-process model and machines."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.machine import Machine, MemoryError_
from repro.sim.process import ExitStatus, ProcessExit, ProcessTable, Signal


def run(sim, gen):
    proc = sim.spawn(gen)
    sim.run()
    assert proc._ok, proc._value
    return proc._value


class TestProcesses:
    def test_normal_exit_code_zero(self):
        sim = Simulator()
        table = ProcessTable(sim)

        def body():
            yield sim.timeout(1.0)
            return "result"

        def parent(sim):
            proc = table.spawn("child", body())
            status = yield from proc.wait()
            return (status, proc.result)

        status, result = run(sim, parent(sim))
        assert status == ExitStatus(code=0)
        assert status.exited_normally
        assert result == "result"

    def test_explicit_exit_code(self):
        """System.exit(x)-style termination (Figure 4, row 2)."""
        sim = Simulator()
        table = ProcessTable(sim)

        def body():
            yield sim.timeout(1.0)
            raise ProcessExit(3)

        def parent(sim):
            proc = table.spawn("child", body())
            status = yield from proc.wait()
            return status

        assert run(sim, parent(sim)) == ExitStatus(code=3)

    def test_crash_is_signal_death(self):
        """The parent sees only a signal, not the Python traceback."""
        sim = Simulator()
        table = ProcessTable(sim)

        def body():
            yield sim.timeout(1.0)
            raise RuntimeError("invisible detail")

        def parent(sim):
            proc = table.spawn("child", body())
            status = yield from proc.wait()
            return status

        status = run(sim, parent(sim))
        assert not status.exited_normally
        assert status.signal == Signal.SIGSEGV

    def test_kill_delivers_signal(self):
        sim = Simulator()
        table = ProcessTable(sim)

        def body():
            yield sim.timeout(100.0)

        def parent(sim):
            proc = table.spawn("victim", body())
            yield sim.timeout(1.0)
            proc.kill(Signal.SIGTERM)
            status = yield from proc.wait()
            return (sim.now, status)

        t, status = run(sim, parent(sim))
        assert t == 1.0
        assert status.signal == Signal.SIGTERM

    def test_wait_on_dead_process_is_immediate(self):
        sim = Simulator()
        table = ProcessTable(sim)

        def body():
            yield sim.timeout(1.0)

        def parent(sim):
            proc = table.spawn("child", body())
            yield sim.timeout(5.0)
            status = yield from proc.wait()
            return (sim.now, status)

        t, status = run(sim, parent(sim))
        assert t == 5.0
        assert status.code == 0

    def test_pids_unique_and_increasing(self):
        sim = Simulator()
        table = ProcessTable(sim)

        def body():
            yield sim.timeout(1.0)

        pids = [table.spawn(f"p{i}", body()).pid for i in range(5)]
        assert pids == [1, 2, 3, 4, 5]

    def test_living_and_kill_all(self):
        sim = Simulator()
        table = ProcessTable(sim)

        def body():
            yield sim.timeout(100.0)

        for i in range(3):
            table.spawn(f"p{i}", body())
        assert len(table.living()) == 3
        table.kill_all()
        sim.run()
        assert table.living() == []
        assert all(
            p.status is not None and p.status.signal == Signal.SIGKILL
            for p in table.processes.values()
        )

    def test_exit_status_str(self):
        assert str(ExitStatus(code=2)) == "exit code 2"
        assert "signal 9" in str(ExitStatus(signal=9))


class TestMachine:
    def test_memory_accounting(self):
        sim = Simulator()
        m = Machine(sim, "host", memory=100)
        m.alloc(60)
        assert m.memory_free == 40
        m.free(30)
        assert m.memory_free == 70

    def test_overcommit_raises(self):
        sim = Simulator()
        m = Machine(sim, "host", memory=100)
        m.alloc(80)
        with pytest.raises(MemoryError_) as err:
            m.alloc(40)
        assert err.value.available == 20

    def test_negative_alloc_rejected(self):
        m = Machine(Simulator(), "host")
        with pytest.raises(ValueError):
            m.alloc(-1)

    def test_free_never_goes_negative(self):
        m = Machine(Simulator(), "host", memory=100)
        m.free(50)
        assert m.memory_used == 0

    def test_cpu_time_scales_with_speed(self):
        fast = Machine(Simulator(), "fast", cpu_speed=2.0)
        slow = Machine(Simulator(), "slow", cpu_speed=0.5)
        assert fast.cpu_time(10.0) == 5.0
        assert slow.cpu_time(10.0) == 20.0

    def test_scratch_fs_exists(self):
        m = Machine(Simulator(), "host")
        m.scratch.write_file("/scratch/f", b"x")
        assert m.scratch.read_file("/scratch/f") == b"x"

    def test_crash_kills_processes(self):
        sim = Simulator()
        m = Machine(sim, "host")

        def body():
            yield sim.timeout(100.0)

        m.processes.spawn("daemon", body())
        m.crash()
        sim.run()
        assert not m.online
        assert m.processes.living() == []

    def test_boot_resets_memory(self):
        sim = Simulator()
        m = Machine(sim, "host", memory=100)
        m.alloc(80)
        m.crash()
        m.boot()
        assert m.online
        assert m.memory_used == 0
