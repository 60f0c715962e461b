"""Shared stochastic-sampling primitives for SSA and tau-leaping.

Both the exact Gillespie loop and the tau-leaping SSA fallback select the
next reaction with the classic cumulative-sum draw.  It previously lived
as duplicated inline code in the two simulators; this module is the
single tested implementation.

The draw *order* per event -- one exponential for the waiting time, then
one uniform for the selection -- is part of the seeded-reproducibility
contract: given the same generator state, the simulators produce the
same realisation the reference implementation did, so seed-dependent
benchmark baselines stay comparable.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError

NO_POSITIVE_PROPENSITY = (
    "select_reaction() called with no positive propensity: the state is "
    "absorbing and no reaction can fire")


def cumulative_propensities(propensities: np.ndarray) -> np.ndarray:
    """Cumulative sums of a propensity vector; ``result[-1]`` is a_0."""
    return propensities.cumsum()


def select_reaction(propensities: np.ndarray, u: float, *,
                    cumulative: np.ndarray | None = None,
                    total: float | None = None) -> int:
    """Pick the reaction index to fire given a uniform draw ``u`` in [0, 1).

    Selects ``j`` with probability ``propensities[j] / total``.  The
    ``side='right'`` search skips zero-width bins, so reactions with zero
    propensity can never be selected -- including when ``u == 0`` or when
    the draw lands exactly on a bin boundary.  If rounding pushes the draw
    past the final bin, the last reaction with *positive* propensity
    fires; with no positive propensity at all the state is absorbing and
    no reaction may fire, so the draw raises :class:`SimulationError`
    instead of silently firing the last reaction (both simulators guard
    ``total > 0`` before drawing, so reaching this is a caller bug).

    ``cumulative`` (and optionally ``total``) can be supplied by callers
    that already computed the cumulative sums for this event.  The
    supplied ``total`` is validated against ``cumulative[-1]`` and
    refreshed on disagreement: a stale incremental total (larger than
    the true sum) would let ``u * total`` overshoot the final bin and
    silently bias the draw toward the last positive reaction, while a
    smaller one would make the last bin unreachable.  The draw must
    always partition ``[0, cumulative[-1])`` proportionally to the
    *current* propensities, so the cumulative sums are authoritative.
    """
    if cumulative is None:
        cumulative = propensities.cumsum()
    actual = float(cumulative[-1])
    if total is None or total != actual:
        total = actual
    j = int(cumulative.searchsorted(u * total, side="right"))
    if j >= propensities.shape[0]:
        positive = np.nonzero(propensities > 0.0)[0]
        if not positive.size:
            raise SimulationError(NO_POSITIVE_PROPENSITY)
        j = int(positive[-1])
    return j
