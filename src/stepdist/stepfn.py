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
    detect_change_points,
    segment_statistics,
)
from .errors import DomainMismatch, ZeroFunction

INF = math.inf


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


def _merged_values(f: StepFunction, g: StepFunction) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Widths and per-cell values of f and g over the merged partition."""
    edges = np.union1d(np.asarray(f.breakpoints), np.asarray(g.breakpoints))
    left = edges[:-1]
    vf = np.asarray(f.values)[np.searchsorted(f.breakpoints, left, side="right") - 1]
    vg = np.asarray(g.values)[np.searchsorted(g.breakpoints, left, side="right") - 1]
    return np.diff(edges), vf, vg


def _power_sum(mags: np.ndarray, widths: np.ndarray, p: float) -> float:
    """Exact sum of |v|^p * len over the cells; inf when it exceeds the float range."""
    with np.errstate(over="ignore"):
        terms = mags * widths if p == 1.0 else mags**p * widths
    try:
        return math.fsum(terms.tolist())
    except OverflowError:  # finite terms whose sum overflows
        return INF


def _segment_norm(values: np.ndarray, widths: np.ndarray, h: float, p: float) -> float:
    if p == INF:
        return float(np.max(np.abs(values)))
    mags = np.abs(values)
    total = _power_sum(mags, widths, p) / h
    if total == INF or total == 0.0:
        # Unless every value is 0 (or one is inf), |v|^p overflowed or
        # underflowed: factor out the largest magnitude and sum again.
        scale = float(np.max(mags))
        if 0.0 < scale < INF:
            return scale * float((_power_sum(mags / scale, widths, p) / h) ** (1.0 / p))
    return float(total ** (1.0 / p))


def lp_norm(f: StepFunction, p: float) -> float:
    """Normalised L^p norm: ((1/H) * sum |v_i|^p * len_i)^(1/p); sup norm for p = inf."""
    p = _check_p(p)
    return _segment_norm(np.asarray(f.values), np.diff(f.breakpoints), f.h, p)


def lp_distance(f: StepFunction, g: StepFunction, p: float) -> float:
    """L^p distance ||f - g||_p, exact over the merged breakpoint partition."""
    p = _check_p(p)
    _require_same_domain(f, g)
    widths, vf, vg = _merged_values(f, g)
    return _segment_norm(vf - vg, widths, f.h, p)


def inner_product(f: StepFunction, g: StepFunction) -> float:
    """L^2 inner product <f, g> = (1/H) * sum f_i * g_i * len_i."""
    _require_same_domain(f, g)
    widths, vf, vg = _merged_values(f, g)
    return math.fsum((vf * vg * widths).tolist()) / f.h


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
