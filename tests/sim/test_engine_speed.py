"""The two-lane engine must stay meaningfully faster than the seed engine.

``benchmarks/perf`` times the optimised engine alone
(``sim.kernel_ns_per_event``); the one thing it does not check is the ratio
to the frozen :class:`~repro.sim.reference.SeedSimulator` that justifies
keeping two lanes and lazy deletion at all.  Wall-clock, hence ``slow``:
``PYTHONPATH=src python -m pytest tests/sim/test_engine_speed.py -m slow``.
"""

import time

import pytest

from repro.sim.core import Simulator
from repro.sim.reference import SeedSimulator

MIN_ENGINE_RATIO = 1.2


def _noop() -> None:
    pass


def _drive_mix(sim, frames: int) -> tuple[int, float]:
    """Run the protocol-shaped event mix; returns (events, wall_seconds).

    Per simulated frame of a one-way 1L-1G transfer: four positive-delay
    wire events, two timer-driven CPU-charge resumes, zero-delay wake-ups,
    and a retransmit-style timer that is armed and then cancelled.
    """
    start = time.perf_counter()

    def proc():
        for _ in range(frames):
            # Zero-delay wake-ups (event trigger chains: IRQ gate, ring
            # hand-off, resource grant).
            ev = sim.event()
            sim.schedule(0, ev.trigger, None)
            yield ev
            # Wire path: DMA, serialisation, switch forward, delivery.
            yield 600
            yield 12336
            yield 1000
            yield 600
            # Retransmit-style timer: armed, then cancelled by the ack.
            sim.timer(400_000, _noop).cancel()
            ev2 = sim.event()
            sim.schedule(0, ev2.trigger, None)
            yield ev2
            # Receive-side CPU charges (per-frame recv + memcpy).
            yield 650
            yield 1200

    sim.run_until_done(sim.process(proc()))
    return sim.events_processed, time.perf_counter() - start


@pytest.mark.slow
def test_two_lane_engine_beats_seed_engine_on_protocol_mix():
    # Best of three each, interleaved so drift hits both engines alike.
    best = {SeedSimulator: 0.0, Simulator: 0.0}
    for _ in range(3):
        for cls in best:
            events, wall = _drive_mix(cls(), 50_000)
            best[cls] = max(best[cls], events / wall)
    ratio = best[Simulator] / best[SeedSimulator]
    assert ratio >= MIN_ENGINE_RATIO, (
        f"two-lane engine {best[Simulator]:,.0f} events/s is only {ratio:.2f}x "
        f"the seed engine's {best[SeedSimulator]:,.0f}"
    )
