"""TCP-Reno-style AIMD congestion control.

* Additive increase: ``ADDITIVE_INCREASE_FRAMES`` (1) per round trip,
  accumulated as ``ai * freed / cwnd`` on every cumulative ack.
* Multiplicative decrease and the timeout collapse are the base class's
  loss and timeout reactions.

ECN echoes are treated like losses (a conservative fallback when the
fabric marks but the operator chose plain AIMD).
"""

from __future__ import annotations

from typing import Optional

from .base import CongestionController


class AimdController(CongestionController):
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
