"""Property-based tests for file systems and NFS mount invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.sim.filesystem import FsError, LocalFileSystem, NfsClient

names = st.text(alphabet="abcdefgh", min_size=1, max_size=8)
payloads = st.binary(max_size=200)


@given(st.lists(st.tuples(names, payloads), max_size=15))
@settings(max_examples=60, deadline=None)
def test_write_read_round_trip(files):
    fs = LocalFileSystem(capacity=10**6)
    fs.mkdir("/d")
    expected: dict[str, bytes] = {}
    for name, data in files:
        fs.write_file(f"/d/{name}", data)
        expected[name] = data  # later writes win
    for name, data in expected.items():
        assert fs.read_file(f"/d/{name}") == data


@given(st.lists(st.tuples(names, payloads), min_size=1, max_size=15))
@settings(max_examples=60, deadline=None)
def test_used_bytes_equals_live_content(files):
    """The quota accounting never drifts from the actual content."""
    fs = LocalFileSystem(capacity=10**6)
    fs.mkdir("/d")
    live: dict[str, bytes] = {}
    for i, (name, data) in enumerate(files):
        if i % 3 == 2 and live:
            victim = sorted(live)[0]
            fs.write_file(f"/d/{victim}", b"")  # truncation frees the old bytes
            live[victim] = b""
        else:
            fs.write_file(f"/d/{name}", data)
            live[name] = data
    assert fs.used == sum(len(d) for d in live.values())


@given(payloads.filter(bool), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_corruption_always_detected_by_verify(data, flip_at):
    fs = LocalFileSystem()
    fs.write_file("/f", data)
    assert fs.verify("/f")
    fs.corrupt("/f", flip_byte=flip_at)
    assert not fs.verify("/f")


@given(st.floats(min_value=0.5, max_value=200.0),
       st.floats(min_value=1.0, max_value=50.0))
@settings(max_examples=40, deadline=None)
def test_soft_mount_timeout_bounded(outage, soft_timeout):
    """A soft mount either succeeds (outage ended) or fails within one
    retry interval of its window -- never hangs."""
    sim = Simulator()
    server = LocalFileSystem(sim=sim)
    server.write_file("/x", b"d")
    mount = NfsClient(sim, server, mode="soft", soft_timeout=soft_timeout,
                      retry_interval=1.0)
    server.set_online(False)
    sim.call_at(outage, lambda: server.set_online(True))
    outcome = []

    def job():
        try:
            yield from mount.read_file("/x")
            outcome.append(("ok", sim.now))
        except FsError as exc:
            outcome.append((exc.code, sim.now))

    sim.spawn(job())
    sim.run(until=outage + soft_timeout + 10.0)
    assert outcome, "the operation must terminate"
    kind, when = outcome[0]
    if kind == "ok":
        assert when >= min(outage, 0.0)
    else:
        assert kind == "ETIMEDOUT"
        # Each retry costs retry_interval plus one NFS_RPC_LATENCY (0.002s),
        # so the failure lands within one retry of the window plus the
        # accumulated per-iteration latency.
        max_iterations = soft_timeout / 1.0 + 2
        assert when <= soft_timeout + 1.0 + 0.002 * max_iterations + 1e-6


@given(st.floats(min_value=0.5, max_value=100.0))
@settings(max_examples=40, deadline=None)
def test_hard_mount_always_succeeds_after_heal(outage):
    sim = Simulator()
    server = LocalFileSystem(sim=sim)
    server.write_file("/x", b"d")
    mount = NfsClient(sim, server, mode="hard", retry_interval=1.0)
    server.set_online(False)
    sim.call_at(outage, lambda: server.set_online(True))
    outcome = []

    def job():
        data = yield from mount.read_file("/x")
        outcome.append((data, sim.now))

    sim.spawn(job())
    sim.run(until=outage + 10.0)
    assert outcome and outcome[0][0] == b"d"
    assert outcome[0][1] >= outage
