"""Unit tests for RNG streams and the tracer."""

from repro.sim import RngRegistry, Simulator, Tracer


def test_same_seed_same_stream():
    a = RngRegistry(seed=42).stream("link.jitter")
    b = RngRegistry(seed=42).stream("link.jitter")
    assert list(a.integers(0, 1000, 10)) == list(b.integers(0, 1000, 10))


def test_different_names_independent():
    reg = RngRegistry(seed=42)
    a = list(reg.stream("a").integers(0, 10**9, 8))
    b = list(reg.stream("b").integers(0, 10**9, 8))
    assert a != b


def test_different_seeds_differ():
    a = RngRegistry(seed=1).stream("x")
    b = RngRegistry(seed=2).stream("x")
    assert list(a.integers(0, 10**9, 8)) != list(b.integers(0, 10**9, 8))


def test_stream_is_cached():
    reg = RngRegistry(seed=0)
    assert reg.stream("s") is reg.stream("s")


def test_bernoulli_extremes():
    reg = RngRegistry(seed=3)
    assert not reg.bernoulli("p", 0.0)
    assert reg.bernoulli("p", 1.0)


def test_bernoulli_rate():
    reg = RngRegistry(seed=7)
    hits = sum(reg.bernoulli("coin", 0.25) for _ in range(4000))
    assert 800 < hits < 1200


def test_tracer_disabled_by_default():
    sim = Simulator()
    tr = Tracer(sim)
    tr.record("frame.tx", 1)
    assert tr.records == []


def test_tracer_enabled_category():
    sim = Simulator()
    tr = Tracer(sim)
    tr.enable("frame.tx")
    sim.schedule(10, tr.record, "frame.tx", {"seq": 1})
    sim.schedule(10, tr.record, "frame.rx", {"seq": 1})
    sim.run()
    assert len(tr.records) == 1
    rec = tr.records[0]
    assert rec.time == 10 and rec.category == "frame.tx"


def test_tracer_enable_all_and_filter():
    sim = Simulator()
    tr = Tracer(sim)
    tr.enable_all()
    tr.record("a", 1)
    tr.record("b", 2)
    tr.record("a", 3)
    assert [r.payload for r in tr.by_category("a")] == [1, 3]
    assert list(tr.categories()) == ["a", "b"]


def test_tracer_disable_and_clear():
    sim = Simulator()
    tr = Tracer(sim)
    tr.enable("x")
    tr.record("x")
    tr.disable("x")
    tr.record("x")
    assert len(tr.records) == 1
    tr.clear()
    assert tr.records == []
