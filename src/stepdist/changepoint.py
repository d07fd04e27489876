"""Change-point detection for a single time series.

The detector is offline binary segmentation with permutation-calibrated
significance: within a window, the split maximising a two-sample test
statistic (Student-t for the mean, variance-ratio for the variance) is
accepted if its maximal statistic is extreme relative to the same scan
applied to seeded permutations of the window. Accepted splits queue both
halves for testing until nothing significant remains.

Calibration is sequential (Besag & Clifford 1991): permutations are
drawn and scanned in row blocks, and a window stops as soon as its
decision is fixed, either because enough permutations already reach the
observed statistic to make the split non-significant, or because the
ones left could no longer do so. Every decision equals that of the full
test with all ``permutations`` rows; the exact p-value of a window that
stops early is not computed.

Each window is scaled by the power of two that brings its largest
magnitude into [0.5, 1) before it is scanned. Both statistics are
scale-invariant and the scaling is exact, so decisions on ordinary data
are unchanged, while sums of squares no longer overflow or underflow at
extreme magnitudes.

Everything is deterministic: the permutation stream for a window is
derived from ``(seed, window start, window end)``, so results do not
depend on the order windows are tested in and are reproducible bit-for-bit.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateSegment, SeriesTooShort


class Attribute(str, Enum):
    """Statistical attribute whose shifts define a change point."""

    MEAN = "mean"
    VARIANCE = "variance"


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """A finite real-valued series observed at integer times 0..H.

    ``values`` has length H + 1; all entries must be finite.
    """

    id: str
    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError(f"series {self.id!r}: need >= 2 observations, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"series {self.id!r}: values must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def h(self) -> int:
        """Time horizon H (last observation index)."""
        return self.values.size - 1


@dataclass(frozen=True)
class ChangePointSet:
    """Strictly increasing interior change-point indices."""

    points: tuple[int, ...]

    def __post_init__(self):
        pts = tuple(int(p) for p in self.points)
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValueError(f"change points must be strictly increasing, got {pts}")
        if pts and pts[0] <= 0:
            raise ValueError(f"change points must be positive, got {pts}")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


@dataclass(frozen=True)
class DetectionParams:
    """Free parameters of the detector.

    min_segment is the minimum number of observations between consecutive
    breakpoints (including the virtual ones at 0 and H); the variance
    attribute needs at least 3 so both sides of a split retain positive
    degrees of freedom.
    """

    attribute: Attribute = Attribute.MEAN
    significance: float = 0.05
    min_segment: int = 30
    permutations: int = 199
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "attribute", Attribute(self.attribute))
        if not 0.0 < self.significance < 1.0:
            raise ValueError(f"significance must be in (0, 1), got {self.significance}")
        floor = 2 if self.attribute is Attribute.MEAN else 3
        if self.min_segment < floor:
            raise ValueError(
                f"min_segment must be >= {floor} for attribute {self.attribute.value}, "
                f"got {self.min_segment}"
            )
        if self.permutations < 1:
            raise ValueError(f"permutations must be >= 1, got {self.permutations}")
        if self.significance < 1 / (self.permutations + 1):
            raise ValueError(
                f"significance {self.significance} < 1/(permutations + 1) = "
                f"{1 / (self.permutations + 1)}: {self.permutations} permutations can never "
                "reject the null"
            )


# Permutation rows are scanned in blocks: the first holds _FIRST_BLOCK_ROWS
# rows and each next one twice as many, capped at _BLOCK_CELLS cells (rows x
# window length). Short windows then make few scan calls, and the scan
# temporaries of long windows stay cache-sized instead of B x n.
_FIRST_BLOCK_ROWS = 16
_BLOCK_CELLS = 2**17


def _unit_scaled(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``v`` scaled along its last axis into max|v| in [0.5, 1), and the exponents.

    Returns (ldexp(v, -e), e) with one e per row (keepdims); an all-zero row
    keeps e = 0. Scaling by a power of two is exact unless a value turns
    subnormal, so ratios formed from the scaled values equal those of the
    originals, while their squares and products stay clear of overflow and
    underflow.
    """
    e = np.frexp(np.abs(v).max(axis=-1, keepdims=True))[1]
    return np.ldexp(v, -e), e


def _window_rng(seed: int, lo: int, hi: int) -> np.random.Generator:
    # Window-addressed stream: results are independent of the order windows are tested in.
    return np.random.default_rng(np.random.SeedSequence([seed % (2**63), lo, hi]))


def _split_sizes(n: int, min_segment: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Left sizes n_l, right sizes n_r and 1/n_l + 1/n_r of every admissible split."""
    n_l = np.arange(min_segment, n - min_segment + 1, dtype=float)
    n_r = n - n_l
    return n_l, n_r, 1.0 / n_l + 1.0 / n_r


def _scan_profile(rows: np.ndarray, min_segment: int, attribute: Attribute) -> np.ndarray:
    """Two-sample statistic at every admissible split, for each row.

    ``rows`` is (B, n). Split s (observations on the left) runs over
    min_segment .. n - min_segment; the result is (B, n - 2*min_segment + 1).
    Degenerate splits map to 0 (mean) or 1 (variance) when both sides are
    flat, and to +inf when only one side is.
    """
    return _scan(rows, min_segment, attribute, _split_sizes(rows.shape[1], min_segment))


def _scan(
    rows: np.ndarray,
    min_segment: int,
    attribute: Attribute,
    sizes: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> np.ndarray:
    """``_scan_profile`` with the window's ``_split_sizes`` computed once by the caller."""
    _, n = rows.shape
    n_l, n_r, inv_sizes = sizes
    # Centering per row improves conditioning of the sum-of-squares update
    # and leaves both statistics unchanged.
    rows = rows - rows.mean(axis=1, keepdims=True)
    cs = np.cumsum(rows, axis=1)
    cq = np.cumsum(rows * rows, axis=1)
    tot = cs[:, -1:]
    totq = cq[:, -1:]
    sum_l = cs[:, min_segment - 1 : n - min_segment]
    sq_l = cq[:, min_segment - 1 : n - min_segment]
    sse_l = np.maximum(sq_l - sum_l * sum_l / n_l, 0.0)
    sse_r = np.maximum((totq - sq_l) - (tot - sum_l) ** 2 / n_r, 0.0)
    if attribute is Attribute.MEAN:
        diff = np.abs(sum_l / n_l - (tot - sum_l) / n_r)
        se = np.sqrt((sse_l + sse_r) / (n - 2) * inv_sizes)
        with np.errstate(divide="ignore", invalid="ignore"):
            stat = diff / se
        flat = se == 0.0
        stat[flat] = np.where(diff[flat] > 0.0, np.inf, 0.0)
    else:
        var_l = sse_l / (n_l - 1.0)
        var_r = sse_r / (n_r - 1.0)
        hi = np.maximum(var_l, var_r)
        lo = np.minimum(var_l, var_r)
        with np.errstate(divide="ignore", invalid="ignore"):
            stat = hi / lo
        flat = lo == 0.0
        stat[flat] = np.where(hi[flat] > 0.0, np.inf, 1.0)
    return stat


def detect_change_points(series: TimeSeries, params: DetectionParams) -> ChangePointSet:
    """Detect interior change points of ``series`` for the chosen attribute.

    Returns indices c with 0 < c < H such that every pair of consecutive
    breakpoints (0 and H appended) bounds at least ``params.min_segment``
    observations. Deterministic for fixed (series, params).

    Raises
    ------
    SeriesTooShort
        If the series has fewer than ``2 * params.min_segment`` observations.
    """
    x = series.values
    n = x.size
    ms = params.min_segment
    if n < 2 * ms:
        raise SeriesTooShort(
            f"series {series.id!r}: {n} observations < 2 * min_segment = {2 * ms}"
        )
    found: list[int] = []
    b = params.permutations
    # Largest exceedance count whose p-value (1 + k) / (b + 1) is still
    # <= significance, found with that exact expression so that rounding
    # cannot move the boundary. Exceedances only grow as permutations run.
    limit = bisect.bisect_right(range(b + 1), params.significance, key=lambda k: (1 + k) / (b + 1)) - 1

    windows = [(0, n)]
    while windows:
        lo, hi = windows.pop()
        if hi - lo < 2 * ms:
            continue
        w, _ = _unit_scaled(x[lo:hi])
        profile = _scan_profile(w[np.newaxis, :], ms, params.attribute)[0]
        best = int(np.argmax(profile))  # first occurrence: smallest split on ties
        observed = profile[best]
        sizes = _split_sizes(w.size, ms)
        max_rows = max(1, _BLOCK_CELLS // w.size)
        rng = _window_rng(params.seed, lo, hi)
        exceed = done = 0
        rows = _FIRST_BLOCK_ROWS
        # Past the limit the split is rejected; once the permutations left
        # cannot pass it, the split is accepted.
        while exceed <= limit and exceed + (b - done) > limit:
            # A block ends where acceptance becomes certain if it adds no exceedance.
            take = min(rows, max_rows, b - done - (limit - exceed))
            block = np.tile(w, (take, 1))
            rng.permuted(block, axis=1, out=block)
            perm_max = _scan(block, ms, params.attribute, sizes).max(axis=1)
            exceed += int(np.count_nonzero(perm_max >= observed))
            done += take
            rows *= 2
        if exceed <= limit:
            cp = lo + ms + best
            found.append(cp)
            # Pushed right first so the left half is scanned next, depth first.
            windows += [(cp, hi), (lo, cp)]
    return ChangePointSet(tuple(sorted(found)))


def segment_statistics(
    series: TimeSeries, cps: ChangePointSet, attribute: Attribute
) -> tuple[float, ...]:
    """Per-segment mean or unbiased variance between consecutive breakpoints.

    Segment i collects observations with index in [c_i, c_{i+1}) for
    c_0 = 0, ..., c_m, and the final segment [c_m, H] includes index H.
    """
    attribute = Attribute(attribute)
    n = series.values.size
    for p in cps.points:
        if not 0 < p < series.h:
            raise ValueError(f"change point {p} not interior to (0, {series.h})")
    bounds = (0, *cps.points, n)
    out = []
    for start, end in zip(bounds, bounds[1:]):
        seg = series.values[start:end]
        if attribute is Attribute.VARIANCE and seg.size < 2:
            raise DegenerateSegment(
                f"variance needs >= 2 observations, segment [{start}, {end}) has {seg.size}"
            )
        out.append(_segment_statistic(seg, attribute))
    return tuple(out)


def _segment_statistic(seg: np.ndarray, attribute: Attribute) -> float:
    """Mean or unbiased variance of one segment.

    Near the top of the float range the sums inside numpy overflow; only
    then is the statistic recomputed on the segment scaled by 2^-e
    (``_unit_scaled``) and scaled back by 2^e (mean) or 2^(2e) (variance),
    so every finite statistic keeps its bits and one beyond the range is inf.
    """
    if attribute is Attribute.MEAN:
        stat, power = np.mean, 1
    else:
        stat, power = (lambda v: np.var(v, ddof=1)), 2
    with np.errstate(over="ignore", invalid="ignore"):
        value = stat(seg)
        if not np.isfinite(value):
            w, e = _unit_scaled(seg)
            value = np.ldexp(stat(w), power * int(e[0]))
    return float(value)
