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

The mean scan does not compute the t-statistic itself. Every permutation
of a window has the same sum and total sum of squares (TSS), so the
pooled t-statistic is a monotone function of the score
u = S^2 / (n_l * n_r), where S is the left sum of the window centred
once on its mean: t^2 = (n - 2) v / (1 - v) with v = n u / TSS.

The variance scan computes the ratio F = max(var_l / var_r, var_r / var_l)
of the side variances, from the cumulative sums of each row centred on its
own mean and of their squares.

Rows of both attributes are scanned at two levels. A row of the window
centred once on its mean is first read only at the start of each run of 8
splits: its left sums there (for the mean), or its left sums and sums of
squares (for the variance), widened by the most a run can add and by their
rounding error, may prove that every split's exact score stays below the
observed one. The row is then certified, as it cannot be an exceedance; a
certified variance row also has no split within rounding of a flat side.
Only the rows left get the full scan; the variance scan still gathers them
from the uncentred window and centres each row itself, so no float score
depends on certification. A window stops certifying once one of its blocks certifies no row, which
happens where the split is rejected.

Ties count as exceedances, and they are decided exactly. Every float
score lies within a proven rounding band of the exact one: an absolute
band for u, and a relative one for F wherever the smaller side variance
is well clear of its rounding error. A permutation row whose float
maximum lies inside the band around the observed score is decided again
in integer arithmetic: after the power-of-two scaling every value of a
window is an integer multiple of one power of two, so its sums and sums
of squares are exact Python ints, and scores are compared as fractions
by cross-multiplication. The observed split is chosen the same way:
among the splits within the band of the maximum, the exact maximum, and
the smallest split on ties. Rows inside the band practically never occur
on continuous data; on integer-valued data they are common. A variance
split whose smaller side variance is within rounding of zero, a flat
side among them, keeps its float ratio as its score, which is what the
full permutation test computes there.

Everything is deterministic: the permutation stream for a window is
derived from ``(seed, window start, window end)``, so results do not
depend on the order windows are tested in and are reproducible bit-for-bit.
Every permutation row is a row of indices that the window gathers its
values through. A shuffle's draws depend only on the row length, so each
gathered row is the row the window's own stream would permute. Rows are
drawn as they are first read, so a window that stops early draws only what
it scans, and they are either kept or streamed.

Kept rows live in two stores of one class, ``_RowCache``: each keeps the
window it read last and, within a budget of cells (rows x window length),
the ones before it, and streams a window larger than its own limit. Every
series of a collection tests the whole-series window (0, n) with the same
stream, as they all have length n, so ``_WHOLE_ROWS`` keeps the last such
window, of up to 2^21 cells. Series that split alike test the same
sub-windows, so ``_SUB_ROWS`` keeps the most recent of those: 2^19 cells in
all, and a window of at most 2^17. The stores are apart so that a series'
many sub-windows cannot evict the whole-series rows that the next series
reads again. Kept rows use the smallest unsigned dtype that holds a window
position, uint8 up to 256 samples and uint16 up to 65,536, so on windows of
up to 65,536 samples they hold at most 4 MiB and 1 MiB. A streamed window
draws its rows, one block at a time, into its own index buffer.
``detection_order`` orders the series of a collection by their whole-window
split, and the pipeline detects them in that order, so series that go on to
test the same sub-windows run back to back and find their rows kept;
results are unchanged. Between windows, detection keeps only these rows and
the split tables of the window being tested.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

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


def _integral(value, what: str = "change points must be integers", error: type[Exception] = ValueError) -> int:
    """``value`` as an int; integral floats and numpy ints pass, bools, nan, inf and fractions raise ``error``."""
    try:
        i = None if isinstance(value, (bool, np.bool_)) else int(value)
    except (OverflowError, TypeError, ValueError):
        i = None
    if i is None or i != value:
        raise error(f"{what}, got {value!r}")
    return i


@dataclass(frozen=True)
class ChangePointSet:
    """Strictly increasing interior change-point indices."""

    points: tuple[int, ...]

    def __post_init__(self):
        pts = tuple(_integral(p) for p in self.points)
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
        """Check every setting, storing the attribute as an Attribute, significance as a float and the rest as ints."""
        object.__setattr__(self, "attribute", Attribute(self.attribute))
        try:
            object.__setattr__(self, "significance", float(self.significance))
        except (TypeError, ValueError):
            raise ValueError(f"significance must be a number, got {self.significance!r}") from None
        for name in ("min_segment", "permutations", "seed"):
            object.__setattr__(self, name, _integral(getattr(self, name), f"{name} must be an integer"))
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
# rows and each next one twice as many, capped at _BLOCK_CELLS[attribute]
# cells (rows x window length), so short windows make few scan calls and no
# window builds B x n arrays. Block sizes change no decision. Each cap was
# measured against the other value on a 2-CPU Xeon:
# - variance: 2^15 bounds the scan's temporaries, several float64 arrays
#   of one block each. At 2^17, `long_variance` peak_rss_mb rose to 48.48,
#   49.21 and 49.68 MB, against 45.09, 45.34 and 46.08 MB at 2^15
#   (`perfbench/run.py --seconds 20`, seeds 501-503, split tables kept for
#   one window).
# - mean: 2^17 keeps the number of blocks, and of calls per block, low. At
#   2^15, in-process detection of `reference` (seed 501) took 0.563, 0.497
#   and 0.480 s of CPU against 0.443, 0.499 and 0.447 s at 2^17 (medians of
#   5 passes, alternated).
_FIRST_BLOCK_ROWS = 16
_BLOCK_CELLS = {Attribute.MEAN: 2**17, Attribute.VARIANCE: 2**15}

# Rows are certified from their sums at the start of each run of
# _CERTIFY_RUN consecutive splits (``_run_limits``, ``_variance_run_limits``)
# before any is scanned. Longer runs read fewer sums but loosen the bound: on
# the benchmark's `reference` collection (seed 77), runs of 4, 8, 16 and 32
# certified 92%, 86%, 80% and 47% of the mean rows of accepted windows, and
# on `long_variance` (seed 77) runs of 8 certify 5,358 of its 5,859 variance
# rows.
_CERTIFY_RUN = 8


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


class _WindowRows:
    """The ``b`` permutation rows of window (lo, hi) as indices, drawn in row order as they are read.

    Row r permutes 0..L-1 (L = hi - lo) exactly as row r of
    ``_window_rng(seed, lo, hi)`` permutes the window's values, as a
    shuffle's draws depend only on the row length, so ``w.take(index)`` is
    the window's own permutation. Rows are drawn the first time they are
    read, continuing the window's stream, by permuting rows of 8-byte
    indices (numpy's fastest shuffle). Kept rows (``keep``) are stored in
    the smallest unsigned dtype, so any of them can be read again; streamed
    rows are drawn straight into the reader's buffer and read once, in order.
    """

    def __init__(self, seed: int, lo: int, hi: int, b: int, keep: bool = True):
        self._rng = _window_rng(seed, lo, hi)
        self._table = np.empty((b, hi - lo), dtype=np.min_scalar_type(hi - lo - 1)) if keep else None
        self._drawn = 0

    def _draw(self, out: np.ndarray) -> np.ndarray:
        """The next ``len(out)`` rows of the stream, written into the intp array ``out``."""
        out[...] = np.arange(out.shape[1])
        self._rng.permuted(out, axis=1, out=out)
        self._drawn += len(out)
        return out

    def read(self, start: int, out: np.ndarray) -> np.ndarray:
        """Rows start .. start + len(out) - 1 in the intp array ``out``; streamed rows need start = rows read."""
        if self._table is None:
            return self._draw(out)
        stop = start + len(out)
        with _ROWS_LOCK:
            drawn = self._drawn
            if stop > drawn:
                self._table[drawn:stop] = self._draw(np.empty((stop - drawn, out.shape[1]), np.intp))
        np.copyto(out, self._table[start:stop])
        return out


# Guards every store lookup and row extension, so that threads detecting at
# once never draw a window's rows twice or out of order.
_ROWS_LOCK = threading.Lock()


class _RowCache:
    """The rows of recently tested windows, keyed by (seed, lo, hi, b).

    A window of at most ``largest`` cells is kept, and a larger one streams
    its rows. The window read last always stays; older ones are evicted,
    least recently used first, until all fit in ``max_cells``.
    """

    def __init__(self, max_cells: int, largest: int):
        self.max_cells, self.largest = max_cells, largest
        self.entries: OrderedDict[tuple[int, int, int, int], _WindowRows] = OrderedDict()
        self.cells = 0
        self.hits = 0

    def rows(self, seed: int, lo: int, hi: int, b: int) -> _WindowRows:
        """The rows of window (lo, hi): shared, or streamed when the window is too large to keep."""
        cells = b * (hi - lo)
        if cells > self.largest:
            return _WindowRows(seed, lo, hi, b, keep=False)
        key = (seed, lo, hi, b)
        with _ROWS_LOCK:
            rows = self.entries.pop(key, None)
            if rows is None:
                rows = _WindowRows(seed, lo, hi, b)
                self.cells += cells
            else:
                self.hits += 1
            self.entries[key] = rows
            while self.cells > self.max_cells and len(self.entries) > 1:
                (_, old_lo, old_hi, old_b), _ = self.entries.popitem(last=False)
                self.cells -= old_b * (old_hi - old_lo)
        return rows

    def clear(self) -> None:
        with _ROWS_LOCK:
            self.entries.clear()
            self.cells = self.hits = 0


# The two row stores; the module docstring gives their bounds and why they are apart.
_WHOLE_ROWS = _RowCache(0, 2**21)
_SUB_ROWS = _RowCache(2**19, 2**17)


class _Splits(NamedTuple):
    """The admissible splits of a window and their runs of _CERTIFY_RUN, as read-only float arrays."""

    n_l: np.ndarray  # left size of each split
    n_r: np.ndarray  # right size of each split
    inv_prod: np.ndarray  # 1 / (n_l * n_r)
    starts: np.ndarray  # first split of each run (its n_l)
    ends: np.ndarray  # last split of each run
    prod: np.ndarray  # smallest n_l * n_r of each run


# The tables live for one window: its observed scan builds them, and its
# permutation scans and exact scores read the same entry. Long windows rarely
# share a length, so keeping the tables of many lengths would hold history
# and save no work (128 lengths held 2.6 MB after a `long_variance` job). A
# rebuild takes about 18 us for a window of 200 samples and 43 us for one of
# 8,000 (2-CPU Xeon).
@functools.lru_cache(maxsize=1)
def _split_sizes(n: int, min_segment: int) -> _Splits:
    """The split sizes and run tables of every window of n values, kept for the window being tested."""
    n_l = np.arange(min_segment, n - min_segment + 1, dtype=float)
    n_r = n - n_l
    # n_l * n_r is concave in the split, so a run's smallest product is at one of its ends.
    starts = n_l[::_CERTIFY_RUN]
    ends = np.minimum(starts + (_CERTIFY_RUN - 1), n - min_segment)
    prod = np.minimum(starts * (n - starts), ends * (n - ends))
    splits = _Splits(n_l, n_r, 1.0 / (n_l * n_r), starts, ends, prod)
    for table in splits:
        table.flags.writeable = False
    return splits


def _scan_profile(rows: np.ndarray, min_segment: int, attribute: Attribute) -> np.ndarray:
    """A score at every admissible split, for each row, monotone in the two-sample statistic.

    ``rows`` is (B, n); for the mean they must already be centred on the
    window mean, while the variance scan centres each row itself. Split s
    (observations on the left) runs over min_segment .. n - min_segment;
    the result is (B, n - 2*min_segment + 1).

    The mean score is u = S^2 / (n_l * n_r), S the left sum, an increasing
    function of the pooled t-statistic (0 when the window is flat). The
    variance score is the variance ratio F itself: 1 when both sides are
    flat and +inf when only one side is.
    """
    return _scan(rows, min_segment, attribute, _split_sizes(rows.shape[1], min_segment))


def _scan(rows: np.ndarray, min_segment: int, attribute: Attribute, sizes: _Splits) -> np.ndarray:
    """``_scan_profile`` with the window's ``_split_sizes`` passed in by the caller."""
    _, n = rows.shape
    if attribute is Attribute.MEAN:
        left = np.cumsum(rows, axis=1)[:, min_segment - 1 : n - min_segment]
        u = left * left
        u *= sizes.inv_prod
        return u
    var_l, var_r, _ = _side_variances(rows, min_segment, sizes)
    return _variance_ratio(var_l, var_r)


def _side_variances(rows: np.ndarray, min_segment: int, sizes: _Splits) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unbiased variances left and right of every split, and each row's centred sum of squares.

    With sum_l and sq_l the left sums of the row centred on its mean and of
    its squares, and tot and totq their totals, var_l = max(sq_l - sum_l^2
    / n_l, 0) / (n_l - 1) and var_r = max((totq - sq_l) - (tot - sum_l)^2
    / n_r, 0) / (n_r - 1).
    """
    n = rows.shape[1]
    n_l, n_r = sizes.n_l, sizes.n_r
    # Centering per row improves conditioning of the sum-of-squares update
    # and leaves the statistic unchanged.
    c = rows - rows.mean(axis=1, keepdims=True)
    cs = np.cumsum(c, axis=1)
    cq = np.cumsum(c * c, axis=1)
    tot, totq = cs[:, -1:], cq[:, -1:]
    sum_l = cs[:, min_segment - 1 : n - min_segment]
    sq_l = cq[:, min_segment - 1 : n - min_segment]
    var_l = np.maximum(sq_l - sum_l * sum_l / n_l, 0.0) / (n_l - 1.0)
    var_r = np.maximum((totq - sq_l) - (tot - sum_l) ** 2 / n_r, 0.0) / (n_r - 1.0)
    return var_l, var_r, totq


def _variance_ratio(var_l: np.ndarray, var_r: np.ndarray) -> np.ndarray:
    """Larger over smaller variance: 1 when both are 0, +inf when only one is."""
    stat = np.maximum(var_l, var_r)
    lo = np.minimum(var_l, var_r)
    flat = lo == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        stat /= lo
    if flat.any():
        # hi / 0 is +-inf for hi > 0 and nan for hi = 0.
        stat[flat] = np.where(np.isnan(stat[flat]), 1.0, np.inf)
    return stat


# Rounding bands. With unit roundoff 2^-53, a sum of k terms computed in
# any order is off by at most gamma(k) times the sum of their magnitudes
# (Higham, Accuracy and Stability of Numerical Algorithms, section 3.1).
# The bands below are built from such bounds, taken generously, and every
# float bound is stepped one ulp outwards so that its own rounding cannot
# shrink it.
def _gamma(k: int) -> float:
    return k * 2.0**-53 / (1.0 - k * 2.0**-53)


def _sum_error(c: np.ndarray) -> tuple[float, float]:
    """Bounds (a, e) for the centred window ``c``: a on the sum of |c|, e on the error of a left sum.

    Any float left sum of a permutation of ``c``, summed in any order, is off
    the left sum of the exactly centred window by at most e = 2 gamma(n) a +
    |sum of c|: the summation, the rounding of c, and the offset of the
    float mean, which is at most e / n per value.
    """
    n = c.size
    a = float(np.abs(c).sum()) * (1.0 + _gamma(2 * n))
    e = (2.0 * _gamma(n) * a + abs(float(c.sum()))) * (1.0 + _gamma(n))
    return a, e


def _mean_band(a: float, e: float, n: int, min_segment: int) -> float:
    """Bound on |u - U| over every split of every permutation of a centred window of n values.

    u is the float score of the mean scan and U the exact score of the
    window before centring. A float left sum is off the exactly centred one
    by at most e, and both are at most a + e in magnitude (``_sum_error``);
    the square and the product add gamma(3) u. The smallest n_l * n_r,
    min_segment * (n - min_segment), divides the whole, and the last term
    covers underflow.
    """
    big = a * (1.0 + _gamma(n)) + e
    band = (2.0 * e * big + _gamma(3) * big * big) / (min_segment * (n - min_segment))
    return band * (1.0 + 2.0**-20) + 2.0**-1070


def _run_limits(c: np.ndarray, e: float, sizes: _Splits, low_obs: float) -> np.ndarray | None:
    """Limits on a mean row's left sums at run starts that certify the row; None when none can.

    The admissible splits form runs of k = _CERTIFY_RUN, run j starting at
    a_j = min_segment + j k. A row whose float left sum S_a at every run
    start has |S_a| below its run's limit is certified: its exact score U
    stays below ``low_obs`` at every split. For s in run j, the exactly
    centred left sum obeys |S*_s| <= |S_a| + e + (k - 1) M', with e from
    ``_sum_error`` and M' bounding the exactly centred values, and
    U = S*_s^2 / (n_l n_r) with n_l n_r at least the run's smallest product
    p_j (exact in floats). The limit is sqrt(low_obs p_j) less that slack,
    shrunk by a relative 2^-20 so that its own rounding cannot make it too
    large.
    """
    if low_obs <= 2.0**-1000:  # low_obs * p_j would lose its relative precision
        return None
    k = _CERTIFY_RUN
    bound = float(np.abs(c).max()) * (1.0 + 2.0**-20) + e
    slack = (e + (k - 1) * bound) * (1.0 + 2.0**-20)
    limits = np.sqrt(low_obs * sizes.prod) * (1.0 - 2.0**-20) - slack
    return limits if limits.max() > 0.0 else None


class _VarianceRuns(NamedTuple):
    """The per-run terms that certify a variance row (``_variance_run_limits``)."""

    eq: float  # slack on any sum of squares
    total_lo: float  # Q_tot - eq
    total_hi: float  # Q_tot + eq
    span: np.ndarray  # (z - a) M + 2e per run: |S| + span bounds each side's sum over the run
    left: np.ndarray  # 1 / a, grown: (|S| + span)^2 left bounds S_l^2 / n_l over the run
    right: np.ndarray  # 1 / (n - z), grown: the same for S_r^2 / n_r
    floor_l: np.ndarray  # the least lower bound on SSE_l that resolves the left variance
    floor_r: np.ndarray  # the same for SSE_r
    f_l: np.ndarray  # low_obs (a - 1) / (n - a - 1), shrunk
    f_r: np.ndarray  # low_obs (n - z - 1) / (z - 1), shrunk


def _variance_run_limits(c: np.ndarray, e: float, sizes: _Splits, low_obs: float) -> _VarianceRuns | None:
    """Terms on a variance row's sums at run starts that certify the row; None when none can.

    ``c`` is the window centred on its float mean m, and d = w - m exactly:
    every exact side variance is that of d. For run j, with first split a
    and last split z, let S and Q be a row's float sums of c and c^2 over
    its first a values, Q' its sum of c^2 up to the next run start (up to
    z for the last run) and Q_tot the window's. For every split s of the
    run, as Q only grows along a row, |d| <= M, and the right sum of d is
    its total (at most e) less the left one,

        SSE_l(s) in [Q - (|S| + 2e + (z - a) M)^2 / a, Q'],
        SSE_r(s) in [Q_tot - Q' - (|S| + 2e + (z - a) M)^2 / (n - z), Q_tot - Q],

    with e from ``_sum_error`` and each sum of squares widened by
    eq = 4 gamma(n + 8) Q_tot, which covers its rounding (that of c, the
    squares and the sum) and that of the subtractions. The variances divide
    by the run's extreme side sizes less one, so F < low_obs at every split
    of the run when var_l_hi < low_obs var_r_lo and var_r_hi < low_obs
    var_l_lo. A row is certified only where both lower bounds also clear
    ``_variance_floor`` times the sum of squares of the row centred on its
    own float mean (at most Q_tot (1 + 2^-20) + n gamma(n + 1)^2, that
    mean being within gamma(n + 1) of the exact one as max|w| < 1), with a
    relative 2^-18 for the float variances' error: every split of a
    certified row is then resolved, so its score is its exact F, which
    stays below ``low_obs``. Every factor is shrunk or grown by a relative
    2^-20 so that its own rounding cannot loosen it. F is at least 1, and
    +inf is an unresolved split's own score, so a ``low_obs`` outside
    (1, inf) certifies nothing.
    """
    if not 1.0 < low_obs < math.inf:
        return None
    n = c.size
    a, z = sizes.starts, sizes.ends
    q = float(c @ c)
    eq = 4.0 * _gamma(n + 8) * q
    m = float(np.abs(c).max()) * (1.0 + 2.0**-20)
    floor = _variance_floor(n, int(a[0]))  # a[0] is min_segment
    row_q = (q * (1.0 + 2.0**-20) + n * _gamma(n + 1) ** 2) * floor * (1.0 + 2.0**-18)
    grow, shrink = 1.0 + 2.0**-20, low_obs * (1.0 - 2.0**-20)
    return _VarianceRuns(
        eq=eq,
        total_lo=q - eq,
        total_hi=q + eq,
        span=(2.0 * e + (z - a) * m) * grow,
        left=grow / a,
        right=grow / (n - z),
        floor_l=(z - 1.0) * row_q,
        floor_r=(n - a - 1.0) * row_q,
        f_l=shrink * (a - 1.0) / (n - a - 1.0),
        f_r=shrink * (n - z - 1.0) / (z - 1.0),
    )


def _run_sums(block: np.ndarray, min_segment: int, runs: int, stop: int | None = None) -> np.ndarray:
    """Each row's sums of its first a values at every run start a, and of its first ``stop`` values if given.

    Each run start's sum is the one before it plus one run of k values,
    so every sum is a sum of its values in some order.
    """
    k = _CERTIFY_RUN
    rows = block.shape[0]
    sums = np.empty((rows, runs + (stop is not None)))
    block[:, :min_segment].sum(axis=1, out=sums[:, 0])
    middle = block[:, min_segment : min_segment + k * (runs - 1)]
    np.einsum("ijk->ij", middle.reshape(rows, runs - 1, k), out=sums[:, 1:runs])
    if stop is not None:
        block[:, min_segment + k * (runs - 1) : stop].sum(axis=1, out=sums[:, runs])
    np.cumsum(sums, axis=1, out=sums)
    return sums


# A variance split is resolved when its smaller side variance exceeds
# _VARIANCE_MARGIN times the worst-case rounding error of a side variance
# (_variance_floor). Both variances are then within a relative 2^-20, plus
# one rounding, of their exact values, and F within _VARIANCE_BAND of its
# exact value. An unresolved split, a flat side among them, keeps its
# float ratio as its score, as the full permutation test computes it.
_VARIANCE_MARGIN = 2.0**20
_VARIANCE_BAND = 4.0 / _VARIANCE_MARGIN


def _variance_floor(n: int, min_segment: int) -> float:
    """Factor on a row's sum of squares Q below which a side variance is unresolved.

    Over every split of a centred row, the cumulative sums misplace a side's
    sum of squared deviations by at most 4 gamma(2n + 8) (1 + sqrt(n /
    min_segment)) Q, the squared-sum term bounded by Cauchy-Schwarz, and a
    variance divides that by at least min_segment - 1. The factor 5 also
    covers the rounding of Q itself.
    """
    err = 5.0 * _gamma(2 * n + 8) * (1.0 + math.sqrt(n / min_segment)) / (min_segment - 1)
    return err * _VARIANCE_MARGIN


def _bounds(stat: np.ndarray, attribute: Attribute, band: float) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds on the exact scores of the float scores ``stat``."""
    if attribute is Attribute.MEAN:
        return np.nextafter(stat - band, -np.inf), np.nextafter(stat + band, np.inf)
    # An infinite ratio is unresolved, so it is its own score.
    low = np.where(np.isinf(stat), np.inf, np.nextafter(stat * (1.0 - band), -np.inf))
    return low, np.nextafter(stat * (1.0 + band), np.inf)


def _as_ints(v: np.ndarray) -> list[int]:
    """Integers z with v = z * 2^-k exactly, where k depends only on the set of values in ``v``."""
    frac, e = np.frexp(v)
    nonzero = frac != 0.0
    low = int(e[nonzero].min()) if nonzero.any() else 0
    shift = np.where(nonzero, e - low, 0)
    mantissa = np.ldexp(frac, 53).astype(np.int64)  # exact: 53 significant bits
    return [z << s for z, s in zip(mantissa.tolist(), shift.tolist())]


def _exact_scores(
    row: np.ndarray, splits: np.ndarray, min_segment: int, attribute: Attribute, stat: np.ndarray
) -> list[tuple[int, int]]:
    """Scores of ``row`` (uncentred) at ``splits``, as fractions (num, den) with den = 0 for +inf.

    Scores are comparable between permutations of one window. The mean
    score is exact: (n L - s T)^2 / (n_l n_r) for the integer left sum L and
    total T of ``_as_ints``, which is S*^2 / (n_l n_r) times a factor shared
    by every permutation, S* the left sum of the exactly centred row. The
    variance score is the exact F at resolved splits, and elsewhere the
    float ratio in ``stat``, the row's scan profile.
    """
    ints = _as_ints(row)
    n = len(ints)
    splits = splits.tolist()
    left = [0, *itertools.accumulate(ints)]
    total = left[n]
    if attribute is Attribute.MEAN:
        return [((n * left[s] - s * total) ** 2, s * (n - s)) for s in splits]
    var_l, var_r, totq = _side_variances(row[np.newaxis, :], min_segment, _split_sizes(n, min_segment))
    resolved = (np.minimum(var_l, var_r) > _variance_floor(n, min_segment) * totq)[0]
    sq = [0, *itertools.accumulate(z * z for z in ints)]
    out = []
    for s in splits:
        j = s - min_segment
        if not resolved[j]:
            out.append((1, 0) if stat[j] == math.inf else float(stat[j]).as_integer_ratio())
            continue
        r = n - s
        # Per side, n_l * (sum of squares) - sum^2 = n_l (n_l - 1) var_l, and so on.
        x = (s * sq[s] - left[s] ** 2) * r * (r - 1)
        y = (r * (sq[n] - sq[s]) - (total - left[s]) ** 2) * s * (s - 1)
        out.append((max(x, y), min(x, y)))
    return out


def _at_least(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """a >= b for fractions (num, den) with den >= 0, den = 0 meaning +inf."""
    return a[0] * b[1] >= b[0] * a[1]


class _Window:
    """The observed split of one window, and the exceedance count of its permutation rows.

    Takes the raw window and scales it (``_unit_scaled``) into ``w``. ``c``
    is ``w`` centred once on its float mean. The mean scan and the
    certification of both attributes read rows of ``c``; the variance scan
    reads rows of ``w`` and centres each row itself.
    """

    def __init__(self, x: np.ndarray, min_segment: int, attribute: Attribute):
        mean = attribute is Attribute.MEAN
        w, _ = _unit_scaled(x)
        self.w, self.ms, self.attribute = w, min_segment, attribute
        self.c = w - w.mean()
        a, e = _sum_error(self.c)
        self.band = _mean_band(a, e, w.size, min_segment) if mean else _VARIANCE_BAND
        self.profile = _scan_profile((self.c if mean else w)[np.newaxis, :], min_segment, attribute)[0]
        low, high = _bounds(self.profile, attribute, self.band)
        near = np.flatnonzero(high >= low.max())  # the splits that may hold the exact maximum
        self.best = int(near[0])
        self.target = None  # the exact observed score, once needed
        if near.size > 1:
            scores = _exact_scores(w, near + min_segment, min_segment, attribute, self.profile)
            i = 0
            for j in range(1, len(scores)):
                if not _at_least(scores[i], scores[j]):  # later splits win only strictly
                    i = j
            self.best, self.target = int(near[i]), scores[i]
        self.low_obs, self.high_obs = low[self.best], high[self.best]
        self.sizes = _split_sizes(w.size, min_segment)
        limits = _run_limits if mean else _variance_run_limits
        self.runs = limits(self.c, e, self.sizes, self.low_obs)

    def certified(self, block: np.ndarray) -> np.ndarray:
        """Which rows of ``block``, rows of ``c``, the run terms certify from their sums at run starts."""
        ms, runs = self.ms, self.runs
        if self.attribute is Attribute.MEAN:
            sums = _run_sums(block, ms, runs.size)
            np.abs(sums, out=sums)
            sums -= runs
            return sums.max(axis=1) < 0.0
        # The squared bound on a left or right sum over the run, (|S| + span)^2.
        bound = _run_sums(block, ms, runs.span.size)
        np.abs(bound, out=bound)
        bound += runs.span
        bound *= bound
        squares = _run_sums(np.square(block), ms, runs.span.size, self.w.size - ms)
        at_start, at_next = squares[:, :-1], squares[:, 1:]
        left_lo = at_start - runs.eq - bound * runs.left
        right_lo = runs.total_lo - at_next - bound * runs.right
        ok = (left_lo > runs.floor_l) & (right_lo > runs.floor_r)
        ok &= at_next + runs.eq < right_lo * runs.f_l
        ok &= runs.total_hi - at_start < left_lo * runs.f_r
        return ok.all(axis=1)

    def exceedances(self, index: np.ndarray) -> int:
        """How many of the permutation rows ``index`` reach the observed score exactly.

        Each row of ``index`` permutes the window's positions. Rows are
        certified first, gathered from ``c``, and only the rest are scanned,
        until a block certifies none: from then on every row of the window
        is scanned. The mean scan gathers ``c``, the variance scan and the
        exact decision ``w``.
        """
        mean = self.attribute is Attribute.MEAN
        # Rows of c, for certification and the mean scan: the bits of w.take(index) - mean.
        block = self.c.take(index) if mean or self.runs is not None else None
        kept = None
        if self.runs is not None:
            certified = self.certified(block)
            if certified.all():
                return 0
            if certified.any():
                kept = np.flatnonzero(~certified)
            else:
                self.runs = None
        if not mean:
            block = self.w.take(index if kept is None else index[kept])
        elif kept is not None:
            block = block[kept]
        ms, attribute = self.ms, self.attribute
        stats = _scan(block, ms, attribute, self.sizes)
        low, high = _bounds(stats.max(axis=1), attribute, self.band)
        count = int(np.count_nonzero(low >= self.high_obs))
        # Rows whose maximum may tie the observed score: decided exactly.
        for r in np.flatnonzero((low < self.high_obs) & (high >= self.low_obs)):
            if self.target is None:
                self.target = _exact_scores(self.w, np.array([self.best + ms]), ms, attribute, self.profile)[0]
            splits = np.flatnonzero(_bounds(stats[r], attribute, self.band)[1] >= self.low_obs) + ms
            row = self.w.take(index[r if kept is None else kept[r]])
            scores = _exact_scores(row, splits, ms, attribute, stats[r])
            count += any(_at_least(s, self.target) for s in scores)
        return count


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
    attribute = params.attribute
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
        window = _Window(x[lo:hi], ms, attribute)
        max_rows = max(1, _BLOCK_CELLS[attribute] // (hi - lo))
        source = (_SUB_ROWS if hi - lo < n else _WHOLE_ROWS).rows(params.seed, lo, hi, b)
        exceed = done = 0
        rows = _FIRST_BLOCK_ROWS
        # Rows are read into one intp buffer per window: take() would turn
        # uint16 rows into a fresh intp array on every call.
        ibuf = np.empty((min(b, max_rows), hi - lo), np.intp)
        # Past the limit the split is rejected; once the permutations left
        # cannot pass it, the split is accepted.
        while exceed <= limit and exceed + (b - done) > limit:
            # A block ends where acceptance becomes certain if it adds no exceedance.
            take = min(rows, max_rows, b - done - (limit - exceed))
            exceed += window.exceedances(source.read(done, ibuf[:take]))
            done += take
            rows *= 2
        if exceed <= limit:
            cp = lo + ms + window.best
            found.append(cp)
            # Pushed right first so the left half is scanned next, depth first.
            windows += [(cp, hi), (lo, cp)]
    return ChangePointSet(tuple(sorted(found)))


def detection_order(series: list[TimeSeries], params: DetectionParams) -> list[int]:
    """Indices of ``series`` in order of their whole-window best split (stable).

    Series that split the whole window alike go on to test the same
    sub-windows, so detecting them back to back lets those windows share
    their permutation rows; the order changes no result. The split is the
    one ``_Window`` picks from the raw series, exact ties included, so it is
    the split the detector tests first. When a series is too short to test,
    the input order is kept, so the error names the first such series.
    """
    ms = params.min_segment
    if any(ts.values.size < 2 * ms for ts in series):
        return list(range(len(series)))
    splits = [_Window(ts.values, ms, params.attribute).best for ts in series]
    return sorted(range(len(series)), key=splits.__getitem__)


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
