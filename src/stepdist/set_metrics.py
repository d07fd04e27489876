"""Baseline (semi-)metrics between change-point sets.

These compare only the break locations and ignore segment levels, which
is what makes them discontinuous under small deformations; they are kept
here for side-by-side comparison with the step-function distances.
Distances between points are plain |s - t| in index units.
"""

from __future__ import annotations

import numpy as np

from .changepoint import ChangePointSet
from .errors import EmptySet
from .stepfn import INF, _check_p


def _nearest(s: ChangePointSet, t: ChangePointSet) -> tuple[np.ndarray, np.ndarray]:
    """d(x, T) for every x in S and d(y, S) for every y in T, from one |s - t| table."""
    if len(s) == 0 or len(t) == 0:
        raise EmptySet("set metrics are undefined for empty change-point sets")
    d = np.abs(np.subtract.outer(np.asarray(s.points, dtype=float), np.asarray(t.points, dtype=float)))
    return d.min(axis=1), d.min(axis=0)


def hausdorff(s: ChangePointSet, t: ChangePointSet) -> float:
    """max of the two directed worst-case point-to-set distances."""
    to_t, to_s = _nearest(s, t)
    return float(max(to_t.max(), to_s.max()))


def modified_hausdorff(s: ChangePointSet, t: ChangePointSet) -> float:
    """max of the two directed average point-to-set distances."""
    to_t, to_s = _nearest(s, t)
    return float(max(to_t.mean(), to_s.mean()))


def _p_mean(to_t: np.ndarray, to_s: np.ndarray, p: float) -> float:
    """The p-th power of the MJ semi-metric, T's term first."""
    return (to_s**p).sum() / (2 * to_s.size) + (to_t**p).sum() / (2 * to_t.size)


def mj_semi_metric(s: ChangePointSet, t: ChangePointSet, p: float = 1.0) -> float:
    """Symmetrised p-average of point-to-set distances.

    ( sum_{t in T} d(t, S)^p / (2|T|) + sum_{s in S} d(s, T)^p / (2|S|) )^(1/p)

    At p = inf this is its limit, the larger worst-case distance: the
    Hausdorff distance.
    """
    p = _check_p(p)
    to_t, to_s = _nearest(s, t)
    if p == INF:
        return float(max(to_t.max(), to_s.max()))
    with np.errstate(over="ignore"):
        total = _p_mean(to_t, to_s, p)
    if total == INF:
        # d^p overflowed: factor out the largest distance and sum again.
        top = max(to_t.max(), to_s.max())
        return float(top * _p_mean(to_t / top, to_s / top, p) ** (1.0 / p))
    return float(total ** (1.0 / p))
