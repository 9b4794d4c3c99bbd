"""Unit tests for Resource, Store, and Gate."""

import pytest

from repro.sim import Gate, Resource, SimulationError, Simulator, Store


def hold(resource, duration):
    yield resource
    yield duration
    resource.release()


def test_resource_grants_immediately_when_free():
    sim = Simulator()
    res = Resource(sim)
    assert res.try_acquire()
    assert res.in_use == 1


def test_resource_fifo_handoff():
    sim = Simulator()
    res = Resource(sim)
    order = []

    def worker(tag, duration):
        yield res
        yield duration
        order.append((tag, sim.now))
        res.release()

    sim.process(worker("a", 10))
    sim.process(worker("b", 10))
    sim.process(worker("c", 10))
    sim.run()
    assert order == [("a", 10), ("b", 20), ("c", 30)]


def test_resource_capacity_two():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    done = []

    def worker(tag):
        yield res
        yield 10
        done.append((tag, sim.now))
        res.release()

    for tag in range(4):
        sim.process(worker(tag))
    sim.run()
    # Two run concurrently, so pairs finish at t=10 and t=20.
    assert [t for _, t in done] == [10, 10, 20, 20]


def test_resource_release_without_acquire_raises():
    sim = Simulator()
    res = Resource(sim)
    with pytest.raises(SimulationError):
        res.release()


def test_resource_invalid_capacity():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_resource_busy_time_accounting():
    sim = Simulator()
    res = Resource(sim)
    sim.process(hold(res, 30))
    sim.run()
    sim.schedule(70, lambda: None)
    sim.run()
    assert sim.now == 100
    assert res.utilization() == pytest.approx(0.3)


def test_resource_utilization_with_elapsed_override():
    sim = Simulator()
    res = Resource(sim)
    sim.process(hold(res, 50))
    sim.run()
    assert res.utilization(elapsed=200) == pytest.approx(0.25)


def test_resource_reset_accounting():
    sim = Simulator()
    res = Resource(sim)
    sim.process(hold(res, 50))
    sim.run()
    res.reset_accounting()
    sim.schedule(50, lambda: None)
    sim.run()
    assert res.utilization(elapsed=50) == 0.0


def test_resource_utilization_at_time_zero():
    sim = Simulator()
    res = Resource(sim)
    assert res.utilization() == 0.0


def test_store_put_then_get():
    sim = Simulator()
    store = Store(sim)
    store.put("x")
    assert store.try_get() == (True, "x")


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    got = []

    def getter():
        item = yield store
        got.append((sim.now, item))

    sim.process(getter())
    sim.schedule(15, store.put, "y")
    sim.run()
    assert got == [(15, "y")]


def test_store_fifo_order():
    sim = Simulator()
    store = Store(sim)
    for i in range(5):
        store.put(i)
    out = [store.try_get()[1] for _ in range(5)]
    assert out == [0, 1, 2, 3, 4]


def test_store_bounded_drops_when_full():
    sim = Simulator()
    store = Store(sim, capacity=2)
    assert store.put(1)
    assert store.put(2)
    assert not store.put(3)
    assert store.drops == 1
    assert len(store) == 2


def test_store_put_to_waiting_getter_bypasses_capacity():
    sim = Simulator()
    store = Store(sim, capacity=1)

    def getter():
        yield store

    sim.process(getter())
    sim.run()
    assert store.waiting_getters == 1
    assert store.put("direct")
    sim.run()
    assert store.waiting_getters == 0


def test_store_try_get():
    sim = Simulator()
    store = Store(sim)
    ok, item = store.try_get()
    assert not ok and item is None
    store.put(9)
    ok, item = store.try_get()
    assert ok and item == 9


def test_store_invalid_capacity():
    sim = Simulator()
    with pytest.raises(ValueError):
        Store(sim, capacity=0)


def test_gate_wait_when_open_is_immediate():
    sim = Simulator()
    gate = Gate(sim, open=True)
    woke = []
    gate.park(woke.append)
    assert sim.run() == 1 and woke == [None] and sim.now == 0


def test_gate_blocks_until_open():
    sim = Simulator()
    gate = Gate(sim)
    woke = []

    def waiter():
        yield gate
        woke.append(sim.now)

    sim.process(waiter())
    sim.schedule(20, gate.open)
    sim.run()
    assert woke == [20]


def test_gate_close_reblocks():
    sim = Simulator()
    gate = Gate(sim, open=True)
    gate.close()
    woke = []

    def waiter():
        yield gate
        woke.append(sim.now)

    sim.process(waiter())
    sim.run()
    assert woke == []
    gate.open()
    sim.run()
    assert woke == [sim.now]


def test_gate_releases_all_waiters():
    sim = Simulator()
    gate = Gate(sim)
    count = []

    def waiter():
        yield gate
        count.append(1)

    for _ in range(4):
        sim.process(waiter())
    sim.schedule(5, gate.open)
    sim.run()
    assert len(count) == 4
