"""Baseline (semi-)metrics between change-point sets.

These compare only the break locations and ignore segment levels, which
is what makes them discontinuous under small deformations; they are kept
here for side-by-side comparison with the step-function distances.
Distances between points are plain |s - t| in index units.

Change points are ints, so every point-to-set distance is an exact int:
the nearest point of the other set is found by bisection, with no
|S| x |T| table of distances. The Hausdorff and modified-Hausdorff values
and MJ at p = 1 or inf are then exact int maxima and sums. MJ at any
other p sums d^p in floating point.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from .changepoint import ChangePointSet
from .errors import EmptySet
from .stepfn import INF, _check_p


def _directed(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    """d(x, b) for every x in a; both strictly increasing, b non-empty."""
    out = []
    i, last = 0, len(b)
    for x in a:
        i = bisect_left(b, x, i)  # a increases, so the search starts where the last one ended
        if i == last:
            out.append(x - b[-1])
        elif i == 0:
            out.append(b[0] - x)
        else:
            right, left = b[i] - x, x - b[i - 1]
            out.append(right if right < left else left)
    return out


def _nearest(s: ChangePointSet, t: ChangePointSet) -> tuple[list[int], list[int]]:
    """d(x, T) for every x in S and d(y, S) for every y in T, as exact ints."""
    if len(s) == 0 or len(t) == 0:
        raise EmptySet("set metrics are undefined for empty change-point sets")
    return _directed(s.points, t.points), _directed(t.points, s.points)


def _worst(to_t: list[int], to_s: list[int]) -> float:
    return float(max(max(to_t), max(to_s)))


def hausdorff(s: ChangePointSet, t: ChangePointSet) -> float:
    """max of the two directed worst-case point-to-set distances."""
    return _worst(*_nearest(s, t))


def modified_hausdorff(s: ChangePointSet, t: ChangePointSet) -> float:
    """max of the two directed average point-to-set distances."""
    to_t, to_s = _nearest(s, t)
    return max(sum(to_t) / len(to_t), sum(to_s) / len(to_s))


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
        return _worst(to_t, to_s)
    if p == 1.0:
        return sum(to_s) / (2 * len(to_s)) + sum(to_t) / (2 * len(to_t))
    to_t, to_s = np.array(to_t, dtype=float), np.array(to_s, dtype=float)
    with np.errstate(over="ignore"):
        total = _p_mean(to_t, to_s, p)
    if total == INF:
        # d^p overflowed: factor out the largest distance and sum again.
        top = max(to_t.max(), to_s.max())
        return float(top * _p_mean(to_t / top, to_s / top, p) ** (1.0 / p))
    return float(total ** (1.0 / p))
