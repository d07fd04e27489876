"""Piecewise-constant embeddings and exact L^p geometry.

A time series maps to a step function whose breakpoints are its detected
change points and whose values are the per-segment statistics. Step
functions are kept in canonical form (no two adjacent intervals share a
value), which makes equality a literal stand-in for almost-everywhere
equivalence: two embedded series are equivalent iff their canonical
forms are identical, iff their L^p distance is zero.

All norms use the normalised measure (1/H) dx on [0, H], so the constant
function 1 has norm 1 for every p. Integrals are evaluated in exact
closed form over merged breakpoint partitions; no quadrature is involved.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .changepoint import (
    Attribute,
    ChangePointSet,
    DetectionParams,
    TimeSeries,
    _unit_scaled,
    detect_change_points,
    segment_statistics,
)
from .errors import DomainMismatch, ZeroFunction

INF = math.inf
_TINY = np.finfo(float).tiny  # smallest normal double


def _check_p(p: float) -> float:
    p = float(p)
    if not p >= 1.0:  # also rejects nan
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    return p


@dataclass(frozen=True)
class StepFunction:
    """Canonical piecewise-constant function on [0, H].

    ``breakpoints`` is strictly increasing with first element 0;
    ``values[i]`` holds on the open interval (breakpoints[i],
    breakpoints[i+1]). The constructor merges adjacent intervals with
    exactly equal values, so two instances are equal iff they represent
    the same almost-everywhere class.
    """

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        bps = tuple(float(b) for b in self.breakpoints)
        vals = tuple(float(v) for v in self.values)
        if len(bps) < 2:
            raise ValueError("need at least 2 breakpoints")
        if len(vals) != len(bps) - 1:
            raise ValueError(f"{len(bps)} breakpoints require {len(bps) - 1} values, got {len(vals)}")
        if bps[0] != 0.0:
            raise ValueError(f"first breakpoint must be 0, got {bps[0]}")
        if any(b <= a for a, b in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if not all(map(math.isfinite, bps)) or not all(map(math.isfinite, vals)):
            raise ValueError("breakpoints and values must be finite")
        # Canonical form: drop breakpoints between exactly equal values.
        merged_b = [bps[0]]
        merged_v = [vals[0]]
        for b, v in zip(bps[1:-1], vals[1:]):
            if v == merged_v[-1]:
                continue
            merged_b.append(b)
            merged_v.append(v)
        merged_b.append(bps[-1])
        object.__setattr__(self, "breakpoints", tuple(merged_b))
        object.__setattr__(self, "values", tuple(merged_v))

    @property
    def h(self) -> float:
        """Right end of the domain."""
        return self.breakpoints[-1]

    @classmethod
    def constant(cls, value: float, h: float) -> "StepFunction":
        return cls((0.0, float(h)), (float(value),))

    def __call__(self, x: float) -> float:
        """Pointwise value, right-continuous at breakpoints (a.e. irrelevant)."""
        if not 0.0 <= x <= self.h:
            raise ValueError(f"x = {x} outside domain [0, {self.h}]")
        i = int(np.searchsorted(self.breakpoints, x, side="right")) - 1
        return self.values[min(i, len(self.values) - 1)]

    def to_json(self) -> str:
        """Lossless JSON form {"breakpoints": [...], "values": [...]}."""
        return json.dumps({"breakpoints": list(self.breakpoints), "values": list(self.values)})

    @classmethod
    def from_json(cls, text: str) -> "StepFunction":
        obj = json.loads(text)
        return cls(tuple(obj["breakpoints"]), tuple(obj["values"]))


def _require_same_domain(f: StepFunction, g: StepFunction) -> None:
    if f.h != g.h:
        raise DomainMismatch(f"domains differ: H = {f.h} vs {g.h}")


@dataclass(frozen=True, eq=False)
class PackedSteps:
    """A collection of step functions on one domain [0, H] as padded arrays.

    Row i of ``breakpoints`` holds the breakpoints of f_i followed by copies
    of H, row i of ``values`` its values followed by zeros. Padding only
    ever forms zero-width cells, which every reduction leaves out.
    """

    breakpoints: np.ndarray
    values: np.ndarray
    h: float


def pack(fs) -> PackedSteps:
    """Pack step functions that share one domain; raises DomainMismatch otherwise."""
    if not fs:
        raise ValueError("cannot pack an empty collection")
    for g in fs[1:]:
        _require_same_domain(fs[0], g)
    h = fs[0].h
    width = max(len(f.breakpoints) for f in fs)
    bps = np.full((len(fs), width), h)
    vals = np.zeros((len(fs), width))
    for r, f in enumerate(fs):
        bps[r, : len(f.breakpoints)] = f.breakpoints
        vals[r, : len(f.values)] = f.values
    return PackedSteps(bps, vals, h)


def merged_cells(packed: PackedSteps, i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Merged partitions of f_i with every f_j, j > i, flattened pair by pair.

    Returns (widths, vf, vg, bounds). The cells of the pair (i, j) are the
    entries bounds[j - i - 1] : bounds[j - i] of the three flat arrays, in
    increasing x: exactly the cells between consecutive points of the union
    of the two breakpoint sets, with f_i's value vf and f_j's value vg.
    """
    bps, vals = packed.breakpoints, packed.values
    own, others = bps[i], bps[i + 1 :]
    rows, width = others.shape
    edges = np.empty((rows, 2 * width))
    edges[:, :width] = own
    edges[:, width:] = others
    edges.sort(axis=1)
    widths = np.diff(edges, axis=1)
    cell_rows, k = np.nonzero(widths > 0.0)
    # A kept cell starts at edge k, the last of its group of equal edges, so
    # k + 1 edges lie at or left of it, in_f of them from f_i. Minus one,
    # these counts index the intervals of f_i and f_j containing the cell.
    in_f = np.searchsorted(own, edges[cell_rows, k], side="right")
    bounds = np.searchsorted(cell_rows, np.arange(rows + 1))
    return widths[cell_rows, k], vals[i][in_f - 1], vals[i + 1 + cell_rows, k - in_f], bounds


def _groups(bounds: np.ndarray):
    edges = bounds.tolist()
    return zip(edges[:-1], edges[1:])


def _power_terms(mags: np.ndarray, widths: np.ndarray, p: float) -> np.ndarray:
    with np.errstate(over="ignore"):
        return mags * widths if p == 1.0 else mags**p * widths


def _fsum(terms: list[float]) -> float:
    """Exact sum; inf when finite terms sum beyond the float range, or terms hold inf and -inf."""
    try:
        return math.fsum(terms)
    except (OverflowError, ValueError):
        return INF


def _segment_norms(
    values: np.ndarray, widths: np.ndarray, bounds: np.ndarray, h: float, p: float
) -> list[float]:
    """Normalised L^p norm of each group of cells bounds[k] : bounds[k + 1]."""
    mags = np.abs(values)
    if p == INF:
        return np.maximum.reduceat(mags, bounds[:-1]).tolist()
    terms = _power_terms(mags, widths, p).tolist()
    norms = []
    for a, b in _groups(bounds):
        total = _fsum(terms[a:b]) / h
        if total == INF or total < _TINY:
            # Unless every value is 0 (or one is inf), |v|^p overflowed or
            # underflowed, or the total lost digits as a subnormal: factor
            # out the largest magnitude and sum again.
            scale = float(np.max(mags[a:b]))
            if 0.0 < scale < INF:
                rescaled = _fsum(_power_terms(mags[a:b] / scale, widths[a:b], p).tolist()) / h
                norms.append(scale * float(rescaled ** (1.0 / p)))
                continue
        norms.append(float(total ** (1.0 / p)))
    return norms


def lp_norm(f: StepFunction, p: float) -> float:
    """Normalised L^p norm: ((1/H) * sum |v_i|^p * len_i)^(1/p); sup norm for p = inf."""
    p = _check_p(p)
    bounds = np.array([0, len(f.values)])
    return _segment_norms(np.asarray(f.values), np.diff(f.breakpoints), bounds, f.h, p)[0]


def lp_distance_row(packed: PackedSteps, i: int, p: float) -> list[float]:
    """||f_i - f_j||_p for every j > i, exact over each merged partition."""
    p = _check_p(p)
    widths, vf, vg, bounds = merged_cells(packed, i)
    return _segment_norms(vf - vg, widths, bounds, packed.h, p)


def _rescaled_inner_sum(vf: np.ndarray, vg: np.ndarray, widths: np.ndarray, h: float) -> float:
    """(1/h) * sum vf * vg * widths, for cells whose direct sum leaves the float range.

    Both factors are scaled by powers of two into max magnitude [0.5, 1)
    (``changepoint._unit_scaled``), so every term is at most its width and
    the exact sum stays finite; scaling back gives +-inf only when the
    result itself lies beyond the float range.
    """
    sf, ef = _unit_scaled(vf)
    sg, eg = _unit_scaled(vg)
    total = math.fsum((sf * sg * widths).tolist()) / h
    try:
        return math.ldexp(total, int(ef[0] + eg[0]))
    except OverflowError:
        return math.copysign(INF, total)


def inner_product_row(packed: PackedSteps, i: int) -> list[float]:
    """<f_i, f_j> for every j > i, one exact sum per pair."""
    widths, vf, vg, bounds = merged_cells(packed, i)
    with np.errstate(over="ignore"):
        terms = (vf * vg * widths).tolist()
    out = []
    for a, b in _groups(bounds):
        total = _fsum(terms[a:b]) / packed.h
        if not math.isfinite(total):  # a term or a partial sum overflowed
            total = _rescaled_inner_sum(vf[a:b], vg[a:b], widths[a:b], packed.h)
        out.append(total)
    return out


def lp_distance(f: StepFunction, g: StepFunction, p: float) -> float:
    """L^p distance ||f - g||_p, exact over the merged breakpoint partition."""
    p = _check_p(p)
    return lp_distance_row(pack([f, g]), 0, p)[0]


def inner_product(f: StepFunction, g: StepFunction) -> float:
    """L^2 inner product <f, g> = (1/H) * sum f_i * g_i * len_i."""
    return inner_product_row(pack([f, g]), 0)[0]


def normalize(f: StepFunction, p: float) -> StepFunction:
    """f / ||f||_p. Raises ZeroFunction when the norm vanishes."""
    p = _check_p(p)
    n = lp_norm(f, p)
    if n == 0.0:
        raise ZeroFunction("cannot normalize the zero function")
    return StepFunction(f.breakpoints, tuple(v / n for v in f.values))


def are_equivalent(f: StepFunction, g: StepFunction) -> bool:
    """True iff the canonical forms coincide (same breakpoints, same values).

    Equivalent to lp_distance(f, g, p) == 0 for any p >= 1.
    """
    _require_same_domain(f, g)
    return f == g


def from_changepoints(
    series: TimeSeries, cps: ChangePointSet, attribute: Attribute
) -> StepFunction:
    """Step function with the given breakpoints and per-segment statistics."""
    stats = segment_statistics(series, cps, attribute)
    breakpoints = (0.0, *(float(c) for c in cps.points), float(series.h))
    return StepFunction(breakpoints, stats)


def embed(series: TimeSeries, params: DetectionParams) -> StepFunction:
    """Map a series to its canonical step function.

    Breakpoints are the detected change points (plus 0 and H); values are
    the per-segment statistics for ``params.attribute``.
    """
    return from_changepoints(series, detect_change_points(series, params), params.attribute)


def magnitude(series: TimeSeries, params: DetectionParams, p: float) -> float:
    """Overall size of a series: the L^p norm of its embedding.

    This is not a norm on the series space itself (the embedding is not
    linear), so there is deliberately no magnitude-of-difference API; use
    lp_distance on the embeddings instead.
    """
    return lp_norm(embed(series, params), p)
