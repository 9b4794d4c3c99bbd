"""DCTCP: window scaling by the EWMA of the ECN-marked fraction.

Per the DCTCP rule (Alizadeh et al., SIGCOMM 2010):

* The receiver echoes CE marks back on acks (``ECN_ECHO``); with
  delayed acks one echo covers the whole acked batch.
* Once per congestion window of acknowledged frames the sender computes
  the marked fraction ``F`` and updates ``alpha += g * (F - alpha)``
  with gain ``g = DCTCP_G`` (1/16).
* If any frame in that window was marked, ``cwnd *= (1 - alpha/2)`` —
  a gentle cut proportional to how congested the path really is,
  instead of Reno's blind halving.

``alpha`` starts at 1.0 (the Linux ``dctcp_alpha_on_init`` default) so
the very first marked window reacts as strongly as Reno; without marks
alpha decays toward 0 and the controller reduces to pure additive
increase.  Losses and timeouts keep the base class's Reno-style
reactions as a safety net for non-ECN drops.
"""

from __future__ import annotations

from typing import Optional

from .base import DCTCP_G, CongestionController


class DctcpController(CongestionController):
    name = "dctcp"

    def __init__(self, window, pacing: bool = False) -> None:
        super().__init__(window, pacing)
        self.alpha = 1.0
        self._win_acked = 0
        self._win_marked = 0
        self._win_size = max(int(self._cwnd), 1)

    @property
    def marked_fraction(self) -> float:
        return self.alpha

    def on_ack(
        self,
        freed: int,
        ece: bool,
        now: int,
        rtt_sample_ns: Optional[int] = None,
    ) -> None:
        self._note_rtt(rtt_sample_ns)
        self._win_acked += freed
        if ece:
            # Delayed-ack coarsening: the echo covers the whole batch.
            self._win_marked += freed
        self._additive_increase(freed)
        if self._win_acked >= self._win_size:
            fraction = self._win_marked / self._win_acked
            self.alpha += DCTCP_G * (fraction - self.alpha)
            if self._win_marked:
                self._cwnd *= 1.0 - self.alpha / 2.0
            self._win_acked = 0
            self._win_marked = 0
            self._apply_cwnd()
            self._win_size = max(int(self._cwnd), 1)
        else:
            self._apply_cwnd()
