"""Wait-budget gate: what waiting costs the engine per ping-pong message.

Exact counters of a seeded run, so the gate cannot flake.  A 64-byte
ping-pong on ``1L-10G`` is the workload where per-operation machinery —
retransmit and delayed-ack timers torn down and re-armed on every
ack-bearing frame, two interrupts, the kthread's work gate, the
notification wait — dominates.  Before the re-armable timer each message
left 2.0 cancelled entries dead in the heap and cost 18.0 heap pushes, and
each interrupt spawned a Process; now the timers revive their queued entry
(0.13 and 16.15 measured) and the interrupt handler is plain callbacks.
"""

from repro.bench.cluster import make_cluster
from repro.bench.micro import run_micro
from repro.sim import core

ROUNDS = 2_000
WARMUP = 5


def test_pingpong_wait_budget(monkeypatch):
    started = []
    init = core.Process.__init__

    def recording(self, sim, gen, name=""):
        started.append(gen.gi_code.co_filename.replace("\\", "/"))
        init(self, sim, gen, name)

    monkeypatch.setattr(core.Process, "__init__", recording)

    cluster = make_cluster("1L-10G", nodes=2, seed=0, synthetic_payloads=True)
    from_kernel = [f for f in started if f.endswith("repro/host/kernel.py")]
    assert len(from_kernel) == 2  # one kthread per node, at start-up
    del started[:]

    run_micro("ping-pong", cluster, 64, iterations=ROUNDS, warmup=WARMUP)
    cluster.sim.run()  # the trailing ack
    sim = cluster.sim
    messages = 2 * (ROUNDS + WARMUP)

    assert sim._dead == 0
    assert sim.cancelled_popped / messages <= 0.3
    assert sim.heap_pushes / messages <= 17.0
    # No Process constructed by Kernel after start-up: interrupts are callbacks.
    assert not [f for f in started if f.endswith("repro/host/kernel.py")]
    # Nor per message by anything else (the two drivers, one delayed ack).
    assert len(started) <= 4
