"""Tests for the simulated network."""

import pytest

from repro.sim import engine
from repro.sim.engine import AnyOf, Interrupted, Simulator, Timeout
from repro.sim.network import (
    BrokenConnection,
    Connection,
    ConnectionRefused,
    ConnectionTimedOut,
    HostUnreachable,
    Network,
)

from tests.sim.test_engine import _drain, _heap_reaches


def run(sim, gen):
    """Spawn *gen*, run the sim, and return the process result."""
    proc = sim.spawn(gen)
    sim.run()
    assert proc.triggered and proc.ok, proc.value
    return proc.value


def make_net(**kw):
    sim = Simulator()
    net = Network(sim, **kw)
    return sim, net


def test_connect_and_echo():
    sim, net = make_net()
    listener = net.listen("server", 80)

    def server(sim):
        conn = yield from listener.accept()
        msg = yield from conn.recv()
        conn.send(("echo", msg))

    def client(sim):
        conn = yield from net.connect("client", "server", 80)
        conn.send("hello")
        reply = yield from conn.recv()
        return reply

    sim.spawn(server(sim))
    assert run(sim, client(sim)) == ("echo", "hello")


def test_connect_unknown_host_unreachable():
    sim, net = make_net()
    net.register_host("client")

    def client(sim):
        try:
            yield from net.connect("client", "nowhere", 80)
        except HostUnreachable as exc:
            return exc.code

    assert run(sim, client(sim)) == "EHOSTUNREACH"


def test_connect_no_listener_refused():
    sim, net = make_net()
    net.register_host("server")

    def client(sim):
        try:
            yield from net.connect("client", "server", 81)
        except ConnectionRefused as exc:
            return exc.code

    assert run(sim, client(sim)) == "ECONNREFUSED"


def test_closed_listener_refuses():
    sim, net = make_net()
    listener = net.listen("server", 80)
    listener.close()

    def client(sim):
        try:
            yield from net.connect("client", "server", 80)
        except ConnectionRefused:
            return "refused"

    assert run(sim, client(sim)) == "refused"


def test_connect_to_down_host_times_out():
    sim, net = make_net()
    net.listen("server", 80)
    net.set_host_down("server")

    def client(sim):
        try:
            yield from net.connect("client", "server", 80, timeout=3.0)
        except ConnectionTimedOut:
            return sim.now

    assert run(sim, client(sim)) == 3.0


def test_partition_times_out_connect():
    sim, net = make_net()
    net.listen("server", 80)
    net.partition("client", "server")

    def client(sim):
        try:
            yield from net.connect("client", "server", 80, timeout=2.0)
        except ConnectionTimedOut:
            return "timeout"

    assert run(sim, client(sim)) == "timeout"


def test_heal_restores_connectivity():
    sim, net = make_net()
    listener = net.listen("server", 80)
    net.partition("client", "server")
    net.heal("client", "server")

    def server(sim):
        yield from listener.accept()

    def client(sim):
        conn = yield from net.connect("client", "server", 80)
        return conn is not None

    sim.spawn(server(sim))
    assert run(sim, client(sim)) is True


def test_messages_dropped_during_partition_recv_times_out():
    sim, net = make_net()
    listener = net.listen("server", 80)
    got = []

    def server(sim):
        conn = yield from listener.accept()
        try:
            yield from conn.recv(timeout=5.0)
        except ConnectionTimedOut:
            got.append("server-timeout")

    def client(sim):
        conn = yield from net.connect("client", "server", 80)
        net.partition("client", "server")
        conn.send("lost")
        return True

    sim.spawn(server(sim))
    run(sim, client(sim))
    assert got == ["server-timeout"]


def test_break_delivers_broken_connection_to_peer():
    """Breaking the connection is the wire form of an escaping error."""
    sim, net = make_net()
    listener = net.listen("server", 80)
    events = []

    def server(sim):
        conn = yield from listener.accept()
        try:
            yield from conn.recv()
        except BrokenConnection:
            events.append("peer saw break")

    def client(sim):
        conn = yield from net.connect("client", "server", 80)
        yield sim.timeout(1.0)
        conn.break_()
        return True

    sim.spawn(server(sim))
    run(sim, client(sim))
    assert events == ["peer saw break"]


def test_send_on_broken_connection_raises():
    sim, net = make_net()
    listener = net.listen("server", 80)

    def server(sim):
        yield from listener.accept()

    def client(sim):
        conn = yield from net.connect("client", "server", 80)
        conn.break_()
        try:
            conn.send("x")
        except BrokenConnection:
            return "raised"

    sim.spawn(server(sim))
    assert run(sim, client(sim)) == "raised"


def test_recv_timeout_then_late_message_not_lost():
    sim, net = make_net()
    listener = net.listen("server", 80)
    log = []

    def server(sim):
        conn = yield from listener.accept()
        try:
            yield from conn.recv(timeout=0.5)
        except ConnectionTimedOut:
            log.append("first timed out")
        msg = yield from conn.recv(timeout=10.0)
        log.append(msg)

    def client(sim):
        conn = yield from net.connect("client", "server", 80)
        yield sim.timeout(2.0)
        conn.send("late")
        return True

    sim.spawn(server(sim))
    run(sim, client(sim))
    assert log == ["first timed out", "late"]


def test_latency_applies_to_messages():
    sim, net = make_net(default_latency=0.5)
    listener = net.listen("server", 80)
    times = []

    def server(sim):
        conn = yield from listener.accept()
        yield from conn.recv()
        times.append(sim.now)

    def client(sim):
        conn = yield from net.connect("client", "server", 80)
        sent_at = sim.now
        conn.send("m")
        return sent_at

    sim.spawn(server(sim))
    sent_at = run(sim, client(sim))
    assert times[0] == pytest.approx(sent_at + 0.5)


def test_traffic_accounting():
    sim, net = make_net()
    listener = net.listen("server", 80)

    def server(sim):
        conn = yield from listener.accept()
        yield from conn.recv()

    def client(sim):
        conn = yield from net.connect("client", "server", 80)
        conn.send("payload", size=1000)
        return True

    sim.spawn(server(sim))
    run(sim, client(sim))
    assert net.traffic_bytes[("client", "server")] == 1000
    assert net.total_traffic() == 1000


def test_message_loss_probability():
    from repro.sim.rng import RngRegistry

    rng = RngRegistry(1).stream("loss")
    sim = Simulator()
    net = Network(sim, loss_probability=1.0, rng=rng)
    listener = net.listen("server", 80)
    got = []

    def server(sim):
        conn = yield from listener.accept()
        try:
            yield from conn.recv(timeout=1.0)
            got.append("received")
        except ConnectionTimedOut:
            got.append("lost")

    def client(sim):
        conn = yield from net.connect("client", "server", 80)
        conn.send("doomed")
        return True

    sim.spawn(server(sim))
    run(sim, client(sim))
    assert got == ["lost"]


def test_duplicate_listen_rejected():
    _, net = make_net()
    net.listen("h", 1)
    with pytest.raises(ValueError):
        net.listen("h", 1)


def test_loopback_has_zero_latency():
    _, net = make_net(default_latency=0.7)
    assert net.latency("h", "h") == 0.0
    assert net.latency("a", "b") == 0.7


def test_latency_override():
    _, net = make_net()
    net.set_latency("a", "b", 2.5)
    assert net.latency("a", "b") == 2.5
    assert net.latency("b", "a") == 2.5


# -- a decided recv lets go (DESIGN §3.1 "who holds whom") ------------------
# Each case pins (Simulator.step() calls, final sim.now, outcome) at the
# numbers taken before a decided wait detached from its deadline.

def _scripted_recv(client_script, until=None):
    """A server in ``recv(timeout=5.0)`` against *client_script(sim, conn, out)*."""
    sim, net = make_net()
    listener = net.listen("server", 80)
    out = {"conns": []}

    def server(sim):
        conn = yield from listener.accept()
        out["conns"].append(conn)
        try:
            out["outcome"] = yield from conn.recv(timeout=5.0)
        except (BrokenConnection, ConnectionTimedOut, Interrupted) as err:
            out["outcome"] = type(err).__name__
        yield sim.timeout(1.0)  # outlives the wait, as a daemon loop does

    def client(sim):
        conn = yield from net.connect("client", "server", 80)
        out["conns"].append(conn)
        yield from client_script(sim, conn, out)

    out["server"] = sim.spawn(server(sim))
    sim.spawn(client(sim))
    if until is not None:
        sim.run(until=until)
        return sim, out, None
    return sim, out, _drain(sim)


def _send_at_1(sim, conn, out):
    yield sim.timeout(1.0)
    conn.send("hello")


def test_message_beats_deadline():
    sim, out, steps = _scripted_recv(_send_at_1)
    assert (steps, sim.now, out["outcome"]) == (15, 5.002, "hello")


def test_a_decided_recv_leaves_a_timer_that_reaches_no_wait():
    sim, out, _ = _scripted_recv(_send_at_1, until=3.0)
    assert out["outcome"] == "hello"
    # The deadline is still queued (cancelled, one step to pop) ...
    assert [t._cancelled for t in _heap_reaches(sim, Timeout) if t.delay == 5.0] == [True]
    # ... and reaches neither the wait it lost nor the connection.
    assert _heap_reaches(sim, (AnyOf, Connection)) == []


def test_deadline_beats_message():
    def script(sim, conn, out):
        yield sim.timeout(7.0)
        conn.send("too late")

    sim, out, steps = _scripted_recv(script)
    assert (steps, sim.now, out["outcome"]) == (16, 7.003, "ConnectionTimedOut")


def test_peer_breaks_during_recv_with_timeout():
    def script(sim, conn, out):
        yield sim.timeout(1.0)
        conn.break_()

    sim, out, steps = _scripted_recv(script)
    assert (steps, sim.now, out["outcome"]) == (16, 5.002, "BrokenConnection")


def test_interrupt_during_recv_with_timeout_keeps_the_undecided_wait_attached():
    def script(sim, conn, out):
        yield sim.timeout(1.0)
        out["server"].interrupt("stop")
        yield sim.timeout(1.0)
        # Nothing decided the AnyOf, so its deadline still holds it and
        # will still trigger it (the same steps as ever) ...
        out["attached"] = [(w.triggered, w._callbacks) for w in _heap_reaches(sim, AnyOf)]
        yield sim.timeout(4.0)
        out["after deadline"] = _heap_reaches(sim, AnyOf)

    sim, out, steps = _scripted_recv(script)
    assert (steps, sim.now, out["outcome"]) == (19, 6.002, "Interrupted")
    # ... but it no longer holds the process that left it.
    assert out["attached"] == [(False, [engine._late])] and out["after deadline"] == []


def test_both_sides_down_unlinks_the_peers_and_a_second_close_still_costs_a_step():
    sim, net = make_net()
    listener = net.listen("server", 80)
    conns = []

    def server(sim):
        conns.append((yield from listener.accept()))

    def client(sim):
        conn = yield from net.connect("client", "server", 80)
        conns.append(conn)
        conn.close()
        yield sim.timeout(1.0)
        conn.close()  # already broken and unlinked: a no-op teardown entry all the same
        conns[0].close()

    sim.spawn(server(sim))
    sim.spawn(client(sim))
    assert (_drain(sim), sim.now) == (12, 1.003)
    assert [(c.broken, c.peer) for c in conns] == [(True, None), (True, None)]
