"""Tests for named, seeded random streams."""

from repro.sim.rng import RngRegistry, derive_seed


def test_same_seed_same_stream():
    a = RngRegistry(7).stream("x")
    b = RngRegistry(7).stream("x")
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_different_names_independent():
    rngs = RngRegistry(7)
    a = [rngs.stream("a").random() for _ in range(5)]
    b = [rngs.stream("b").random() for _ in range(5)]
    assert a != b


def test_different_seeds_differ():
    a = RngRegistry(1).stream("x").random()
    b = RngRegistry(2).stream("x").random()
    assert a != b


def test_stream_is_cached():
    rngs = RngRegistry(0)
    assert rngs.stream("s") is rngs.stream("s")


def test_creation_order_does_not_matter():
    r1 = RngRegistry(9)
    r1.stream("first")
    x1 = r1.stream("second").random()
    r2 = RngRegistry(9)
    x2 = r2.stream("second").random()
    assert x1 == x2


def test_derive_seed_stable():
    assert derive_seed(1, "a") == derive_seed(1, "a")
    assert derive_seed(1, "a") != derive_seed(1, "b")
    assert derive_seed(1, "a") != derive_seed(2, "a")
