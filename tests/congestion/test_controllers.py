"""Unit tests for the pluggable congestion controllers.

Everything here drives a bare :class:`SendWindow` + controller pair with
hand-written ack/loss/timeout events — no simulator — so the arithmetic
(AIMD schedule, DCTCP alpha EWMA, clamping, RTT smoothing) is checked
against exact expected values.
"""

import pytest

from repro.congestion import CONTROLLERS, AimdController, DctcpController
from repro.congestion.base import DCTCP_G, MIN_CWND_FRAMES, RTT_INIT_NS
from repro.core import ProtocolParams
from repro.core.window import SendWindow

US = 1_000
MS = 1_000_000


def make(kind: str, size: int = 64, cwnd: int = 0):
    """A controller on a ``size``-frame flow window.

    Controllers open fully at the flow window, so a ``cwnd`` below ``size``
    is had by building on a ``cwnd``-frame window and widening it after.
    """
    window = SendWindow(size=cwnd or size)
    cc = CONTROLLERS[kind](window)
    window.size = size
    return window, cc


# -- controller table --------------------------------------------------------


def test_registry_names():
    assert CONTROLLERS == {"aimd": AimdController, "dctcp": DctcpController}


def test_unknown_controller_rejected():
    """A name that is neither "static" nor in the table is refused when
    the configuration is built, not when the first connection is made."""
    with pytest.raises(ValueError, match="unknown congestion controller 'reno'"):
        ProtocolParams(congestion="reno")


@pytest.mark.parametrize("kind", ["aimd", "dctcp"])
def test_adaptive_window_below_the_cwnd_floor_is_refused(kind):
    """An adaptive cwnd lives in [MIN_CWND_FRAMES, window_frames], so a
    narrower flow window is refused when the configuration is built."""
    with pytest.raises(ValueError, match="window_frames=1 .*congestion='"):
        ProtocolParams(window_frames=MIN_CWND_FRAMES - 1, congestion=kind)
    ProtocolParams(window_frames=MIN_CWND_FRAMES, congestion=kind)
    ProtocolParams(window_frames=1)  # the static policy has no cwnd


def test_adaptive_controllers_open_fully():
    for kind in ("aimd", "dctcp"):
        window, cc = make(kind)
        assert window.cwnd == cc.cwnd_frames == window.size


# -- AIMD --------------------------------------------------------------------


def test_aimd_additive_increase_schedule():
    window, cc = make("aimd", cwnd=16)
    assert window.cwnd == 16
    # One cwnd's worth of acks adds ~ADDITIVE_INCREASE_FRAMES (1 frame).
    cc.on_ack(16, False, now=0)
    assert window.cwnd == 17
    assert cc._cwnd == pytest.approx(17.0)
    # Coalesced acks accumulate the same growth as per-frame acks.
    w2, cc2 = make("aimd", cwnd=16)
    for _ in range(16):
        cc2.on_ack(1, False, now=0)
    assert cc2._cwnd == pytest.approx(17.0, abs=0.05)


def test_aimd_ece_cuts_multiplicatively():
    window, cc = make("aimd", cwnd=32)
    cc.on_ack(1, True, now=1 * MS)
    assert window.cwnd == 16


def test_aimd_cut_rate_limited_to_once_per_rtt():
    window, cc = make("aimd", cwnd=32)
    cc.on_loss(now=1 * MS)
    assert window.cwnd == 16
    cc.on_loss(now=1 * MS + 50 * US)  # same congestion event: no cut
    assert window.cwnd == 16
    cc.on_loss(now=1 * MS + 250 * US)  # > srtt later: a new event
    assert window.cwnd == 8


def test_aimd_timeout_collapses_to_min():
    window, cc = make("aimd", cwnd=32)
    cc.on_timeout(now=1 * MS)
    assert window.cwnd == 2
    # Recovery: additive increase climbs back.
    cc.on_ack(2, False, now=2 * MS)
    assert cc._cwnd > 2.0


def test_aimd_clamps_to_window_bounds():
    window, cc = make("aimd", size=8)
    for k in range(200):
        cc.on_ack(8, False, now=k)
    assert window.cwnd == 8  # never exceeds the flow-control window
    for k in range(10):
        cc.on_loss(now=(k + 1) * 10 * MS)
    assert window.cwnd == MIN_CWND_FRAMES == 2  # never below the floor


def test_rtt_ewma_and_karn_filter():
    _, cc = make("aimd")
    assert RTT_INIT_NS == 200 * US
    cc.on_ack(1, False, now=0, rtt_sample_ns=100 * US)
    assert cc._srtt_ns == pytest.approx(187_500.0)
    # Karn: retransmitted frames yield no sample (None) and change nothing.
    cc.on_ack(1, False, now=0, rtt_sample_ns=None)
    assert cc._srtt_ns == pytest.approx(187_500.0)


# -- DCTCP -------------------------------------------------------------------


def test_dctcp_alpha_decays_without_marks():
    window, cc = make("dctcp", cwnd=16)
    assert cc.alpha == 1.0
    cc.on_ack(16, False, now=0)  # one full window, zero marked
    assert DCTCP_G == 1 / 16
    assert cc.alpha == pytest.approx(1.0 - 1 / 16)
    # No marks in the window: no cut, growth only.
    assert cc._cwnd > 16.0


def test_dctcp_fully_marked_window_halves():
    window, cc = make("dctcp", cwnd=16)
    cc.on_ack(16, True, now=0)  # F = 1, alpha stays 1.0
    assert cc.alpha == pytest.approx(1.0)
    # cwnd grew by ~1 during the window then got cut by 1 - alpha/2 = 0.5.
    assert cc._cwnd == pytest.approx(17.0 * 0.5)
    assert window.cwnd == 8


def test_dctcp_partially_marked_window_cuts_proportionally():
    window, cc = make("dctcp", cwnd=16)
    cc.on_ack(8, False, now=0)
    cc.on_ack(8, True, now=0)  # half the window marked: F = 0.5
    expect_alpha = 1.0 + (1 / 16) * (0.5 - 1.0)
    assert cc.alpha == pytest.approx(expect_alpha)
    grown = 16.0 + 8 / 16.0 + 8 / 16.5  # additive increase across the acks
    assert cc._cwnd == pytest.approx(grown * (1.0 - expect_alpha / 2.0))


def test_dctcp_alpha_converges_to_stable_fraction():
    _, cc = make("dctcp", size=256, cwnd=16)
    # Every 4th acked frame marked, many windows: alpha -> ~0.25.
    for k in range(4000):
        cc.on_ack(1, k % 4 == 0, now=k)
    assert cc.alpha == pytest.approx(0.25, abs=0.08)
    assert cc.marked_fraction == cc.alpha


def test_dctcp_loss_and_timeout_fallbacks():
    window, cc = make("dctcp", cwnd=32)
    cc.on_loss(now=1 * MS)
    assert window.cwnd == 16
    cc.on_timeout(now=10 * MS)
    assert window.cwnd == 2


# -- window interaction ------------------------------------------------------


def test_window_available_respects_cwnd():
    window = SendWindow(size=8)
    assert window.available == 8 and window.can_send
    window.cwnd = 3
    assert window.limit == 3
    assert window.available == 3
    window.cwnd = 99  # larger than the flow window: flow window rules
    assert window.limit == 8
    assert window.available == 8


def test_window_excess_inflight_drains_not_clawed_back():
    from repro.ethernet import Frame, MultiEdgeHeader

    window = SendWindow(size=8)
    for _ in range(6):
        seq = window.allocate_seq()
        frame = Frame(
            src_mac=1, dst_mac=2,
            header=MultiEdgeHeader(payload_length=0, seq=seq),
        )
        window.register(frame, op=None, now=0)
    window.cwnd = 2  # controller shrinks below what is already in flight
    assert window.available == 0
    assert not window.can_send
    freed = window.on_ack(5)
    assert len(freed) == 5
    assert window.available == 1  # back under the congestion limit
