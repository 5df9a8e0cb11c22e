"""Per-stage health tracking with hysteresis, gating speculation depth.

Every fault signal (a retransmission timeout toward a rank, a worker
crash) bumps that rank's exponentially-decayed fault score; straggler
windows force their rank degraded outright.  A rank whose score crosses
``hi`` is *degraded*; it only recovers once the score decays below ``lo``
— the hysteresis gap is the "stable window" graceful degradation requires
before speculation resumes.  The serving head reads :meth:`degraded` each
scheduling round and gates speculative drafting to depth 0 while any rank
is unhealthy (speculative work is disposable, so shedding it first is the
cheapest way to stop feeding a flapping link).

The decay is closed-form, so a hot rank's recovery instant is known the
moment its score is bumped: ``last + tau * ln(value / lo)``.  It is stored
per rank, :meth:`degraded` compares against it, and an idle head arms one
timer at :meth:`recovery_time` instead of polling the score.  Degraded
windows are counted where they open (a fault or a forced window turning a
healthy monitor degraded), so the count does not depend on how often
anyone looks.

All state advances on simulated time only (``math.exp``/``math.log`` of
sim-time quantities), so the monitor is exactly as deterministic as the
kernel.
"""

from __future__ import annotations

import math
from typing import Dict, Optional


class HealthMonitor:
    """Exponentially-decayed per-rank fault scores with hysteresis."""

    def __init__(
        self,
        kernel,
        stats,
        tau: float = 0.25,
        hi: float = 3.0,
        lo: float = 0.5,
    ) -> None:
        self.kernel = kernel
        self.stats = stats
        self.tau = tau
        self.hi = hi
        self.lo = lo
        self._value: Dict[int, float] = {}
        self._last: Dict[int, float] = {}
        #: Hot ranks -> the instant their score decays to ``lo``.  A rank
        #: is degraded while ``now < recover_at``; expired entries are
        #: pruned lazily.
        self._recover_at: Dict[int, float] = {}
        #: Ranks inside a forced-degraded window (straggler injection),
        #: reference counted so overlapping windows compose.
        self._forced: Dict[int, int] = {}

    # -- signal inputs -------------------------------------------------------

    def record_fault(self, now: float, rank: int, weight: float = 1.0) -> None:
        """A fault event (timeout, crash) attributed to ``rank``."""
        was_degraded = self.degraded(now)
        v = self._decayed(rank, now) + weight
        self._value[rank] = v
        self._last[rank] = now
        if v >= self.hi or rank in self._recover_at:
            self._recover_at[rank] = now + self.tau * math.log(v / self.lo)
            if not was_degraded:
                self.stats.degraded_windows += 1

    def force(self, rank: int, active: bool) -> None:
        """Enter/leave a forced-degraded window for ``rank``."""
        if active and not self.degraded(self.kernel.now):
            self.stats.degraded_windows += 1
        count = self._forced.get(rank, 0) + (1 if active else -1)
        if count > 0:
            self._forced[rank] = count
        else:
            self._forced.pop(rank, None)

    # -- queries -------------------------------------------------------------

    def degraded(self, now: float) -> bool:
        """True while any rank is unhealthy: inside a forced window, or hot
        until its recovery instant."""
        self._expire(now)
        return bool(self._forced or self._recover_at)

    def recovery_time(self, now: float) -> Optional[float]:
        """The instant every rank still hot at ``now`` has decayed to
        ``lo``, or None when none is.  Forced windows are not included:
        each ends on its own event."""
        self._expire(now)
        return max(self._recover_at.values(), default=None)

    def _expire(self, now: float) -> None:
        recover_at = self._recover_at
        if recover_at:
            for rank in [r for r, t in recover_at.items() if now >= t]:
                del recover_at[rank]

    def _decayed(self, rank: int, now: float) -> float:
        v = self._value.get(rank, 0.0)
        if v == 0.0:
            return 0.0
        return v * math.exp(-(now - self._last[rank]) / self.tau)
