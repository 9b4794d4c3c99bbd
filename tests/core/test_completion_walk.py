"""Which connections a TX-completion walk visits, and when it asks them.

``MultiEdgeProtocol.handle_tx_completions`` visits the connections that
registered queued work, in creation order, choosing the next one only when
the previous pump returns — the instants a walk of the connection dict
asked ``has_send_work()``.  Three connections on node 0; the pumps are
stand-ins that log and hold the protocol CPU, so the walk is observed
alone.
"""

from repro.baselines import install_go_back_n
from repro.bench.cluster import make_cluster
from repro.core.messages import make_read_req_frame
from repro.core.retransmit import NACK_HOLDOFF_NS
from repro.core.window import InflightFrame
from repro.ethernet import mac_address

HOLD_NS = 1_000


def _node0(nodes=4, go_back_n=False):
    cluster = make_cluster("1L-1G", nodes=nodes, synthetic_payloads=True)
    if go_back_n:
        install_go_back_n(cluster.stacks[0].protocol)
    conns = [cluster.connect(0, peer)[0].conn for peer in range(1, nodes)]
    return cluster, cluster.stacks[0].protocol, conns


def _watch(conns, log, during=None):
    """Log every has_send_work() and pump of ``conns``; ``during[k]`` runs
    while connection ``k``'s pump holds the CPU."""
    during = during or {}
    for k, conn in enumerate(conns):
        asked = conn.has_send_work

        def has_send_work(k=k, asked=asked):
            log.append(("asked", k))
            return asked()

        def pump(cpu, tag="protocol.send", k=k):
            log.append(("pumped", k))
            if k in during:
                during[k]()
            yield cpu.hold(HOLD_NS, tag)

        conn.has_send_work = has_send_work
        conn.pump = pump


def _walk(cluster, protocol):
    node = cluster.nodes[0]
    cpu = node.protocol_cpu
    proc = cluster.sim.process(
        protocol.handle_tx_completions(node.nics[0], 1, cpu)
    )
    cluster.sim.run_until_done(proc, limit=10**9)


def _write(conn):
    conn.submit_write(0, 0, 4096)


def test_later_connection_gaining_work_mid_walk_is_pumped_earlier_is_not():
    cluster, protocol, (a, b, c) = _node0()
    _write(b)
    log = []
    _watch([a, b, c], log, during={1: lambda: (_write(a), _write(c))})
    _walk(cluster, protocol)
    assert [e for e in log if e[0] == "pumped"] == [("pumped", 1), ("pumped", 2)]
    assert ("asked", 0) not in log


def test_connection_created_mid_walk_is_visited_after_the_others():
    cluster, protocol, (a, b, c) = _node0()
    _write(a)
    log = []
    born = []

    def reconnect():
        new = protocol.create_connection(99, 1, [mac_address(1, 0)])
        _write(new)
        born.append(new)

    _watch([a, b, c], log, during={0: reconnect})
    _walk(cluster, protocol)
    assert log == [("asked", 0), ("pumped", 0)]
    # The new connection's (real) pump ran in the same walk.
    assert born[0].stats.data_frames_sent == 3


def test_destroyed_connection_is_never_pumped():
    cluster, protocol, (a, b, c) = _node0()
    for conn in (a, b, c):
        _write(conn)
    b.destroy()
    assert b.order not in protocol.queued
    # A READ_REQ the crashed endpoint was still applying queues a response
    # that no walk may reach.
    req = make_read_req_frame(0, 0, b.conn_id, 0, 0, 7, 0, 0, 0, 4096)
    req.control = 0
    b._submit_read_response(req)
    assert b.unsent and b.order not in protocol.queued
    log = []
    _watch([a, b, c], log, during={0: c.destroy})
    _walk(cluster, protocol)
    assert log == [("asked", 0), ("pumped", 0)]
    assert protocol.queued == {a.order: a}


def test_connection_with_nothing_queued_is_never_asked():
    cluster, protocol, (a, b, c) = _node0()
    _write(b)
    log = []
    _watch([a, b, c], log)
    _walk(cluster, protocol)
    assert log == [("asked", 1), ("pumped", 1)]
    # An emptied queue is pruned by the next walk, without a question.
    b.unsent.clear()
    log.clear()
    _walk(cluster, protocol)
    assert log == [] and protocol.queued == {}


def _inflight(conn, seqs):
    for seq in seqs:
        conn.window.inflight[seq] = InflightFrame(None, None, 0, -NACK_HOLDOFF_NS)


def test_go_back_n_nack_rewind_registers_its_connection():
    _, protocol, (conn, *_) = _node0(nodes=2, go_back_n=True)
    _inflight(conn, range(4))
    protocol.queued.clear()
    conn._process_nack([1])
    assert list(conn._retransmit_q) == [1, 2, 3]
    assert protocol.queued == {conn.order: conn}


def test_go_back_n_timeout_rewind_registers_its_connection():
    _, protocol, (conn, *_) = _node0(nodes=2, go_back_n=True)
    _inflight(conn, range(3))
    protocol.queued.clear()
    conn._on_coarse_timeout()
    assert list(conn._retransmit_q) == [0, 1, 2]
    assert protocol.queued == {conn.order: conn}
