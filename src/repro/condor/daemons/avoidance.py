"""§5's schedd defense, hardened with backoff and probation.

    "enhance the schedd with logic to detect and avoid hosts with chronic
    failures." (§5)

The original defense was a permanent blacklist: once a site crossed the
failure threshold it never received work again.  That is the wrong shape
under churn -- machines are repaired, rebooted, and rejoin the pool, and
a blacklist that never forgives slowly drains the pool of capacity.

:class:`SiteAvoidance` keeps the threshold but makes the sentence finite:
crossing the threshold avoids the site for ``avoidance_base`` seconds,
and every further strike doubles the window (capped at
``avoidance_cap``).  When a window expires the site is on *probation*:
it may be matched again, and a successful attempt there clears its
record entirely, while another failure re-avoids it for twice as long.
``avoidance_mode="permanent"`` restores the original blacklist so
experiments can measure exactly what the backoff buys (EXP-CHURN).
"""

from __future__ import annotations

import math

from repro.condor.daemons.config import CondorConfig

__all__ = ["SiteAvoidance"]

#: consecutive environmental failures at one site before the schedd
#: avoids it (only with ``schedd_avoidance``)
AVOIDANCE_THRESHOLD = 2


class SiteAvoidance:
    """Per-site strike counts and avoidance windows for one schedd."""

    def __init__(self, config: CondorConfig):
        self.config = config
        #: site -> environmental-failure strikes since the last success
        self.failures: dict[str, int] = {}
        #: site -> simulated time its avoidance window ends (inf = forever)
        self._avoid_until: dict[str, float] = {}

    # -- recording ------------------------------------------------------
    def note_failure(self, site: str, now: float) -> bool:
        """Record one environmental failure at *site*.

        Returns True when this strike put (or kept) the site inside an
        avoidance window -- the moment the defense engages.
        """
        strikes = self.failures.get(site, 0) + 1
        self.failures[site] = strikes
        if not self.config.schedd_avoidance:
            return False
        if strikes < AVOIDANCE_THRESHOLD:
            return False
        if self.config.avoidance_mode == "permanent":
            self._avoid_until[site] = math.inf
            return True
        window = min(
            self.config.avoidance_base * 2 ** (strikes - AVOIDANCE_THRESHOLD),
            self.config.avoidance_cap,
        )
        self._avoid_until[site] = now + window
        return True

    def note_success(self, site: str, now: float) -> None:
        """A delivered result from *site*: the probation trial passed, so
        the site's record is cleared (even under ``permanent`` mode a
        success proves the blacklist entry wrong -- but the permanent
        blacklist never lets the trial happen, so this only fires there
        if the site succeeded before crossing the threshold)."""
        self.failures.pop(site, None)
        self._avoid_until.pop(site, None)

    def forget(self, site: str) -> None:
        """*site* left the pool: drop every trace of it.

        Without this the strike and window tables grow monotonically
        under churn -- the same leak class the matchmaker's
        ``_recently_matched`` had before it was pruned on ad expiry.
        """
        self.failures.pop(site, None)
        self._avoid_until.pop(site, None)

    # -- queries --------------------------------------------------------
    def is_avoided(self, site: str, now: float) -> bool:
        until = self._avoid_until.get(site)
        if until is None:
            return False
        if now < until:
            return True
        # The window expired: the site is on probation.  Drop the window
        # (but keep the strikes) so exactly one failure re-avoids it.
        del self._avoid_until[site]
        return False

    def avoided(self, now: float) -> set[str]:
        """The sites currently inside an avoidance window."""
        return {site for site in list(self._avoid_until) if self.is_avoided(site, now)}

    def __len__(self) -> int:  # pragma: no cover - debugging aid
        return len(self._avoid_until)
