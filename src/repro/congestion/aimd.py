"""TCP-Reno-style AIMD congestion control.

* Additive increase: ``ADDITIVE_INCREASE_FRAMES`` (1) per round trip,
  accumulated as ``ai * freed / cwnd`` on every cumulative ack.
* Multiplicative decrease: ``cwnd *= MD_FACTOR`` (0.5) on a
  NACK-driven loss, at most once per smoothed RTT.
* Coarse timeout: collapse to ``MIN_CWND_FRAMES`` — the retransmission
  timer only fires after NACK recovery has already failed, which signals
  the fabric is severely oversubscribed.

ECN echoes are treated like losses (a conservative fallback when the
fabric marks but the operator chose plain AIMD).
"""

from __future__ import annotations

from typing import Optional

from .adaptive import AdaptiveController
from .base import MIN_CWND_FRAMES


class AimdController(AdaptiveController):
    name = "aimd"

    def on_ack(
        self,
        freed: int,
        ece: bool,
        now: int,
        rtt_sample_ns: Optional[int] = None,
    ) -> None:
        self._note_rtt(rtt_sample_ns)
        if ece:
            self._cut(now)
        else:
            self._additive_increase(freed)
        self._apply_cwnd()

    def on_loss(self, now: int) -> None:
        if self._cut(now):
            self._apply_cwnd()

    def on_timeout(self, now: int) -> None:
        if now - self._last_cut_ns < self._srtt_ns:
            return
        self._last_cut_ns = now
        self._cwnd = float(MIN_CWND_FRAMES)
        self._apply_cwnd()

