"""Shared test utilities: random generators and independent oracles.

The oracles here deliberately re-derive results through a different code
path than the library (pointwise evaluation + quadrature, plain-python
scans, an alternative haversine formulation) so they can vouch for the
closed-form implementations.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction

import numpy as np

from stepdist import Dendrogram, LabeledSquareMatrix, Linkage, MatrixKind, StepFunction


def random_step_function(rng, h=1.0, max_segments=8, vmax=5.0) -> StepFunction:
    """Random canonical step function on [0, h]."""
    k = int(rng.integers(1, max_segments + 1))
    while True:
        interior = np.unique(rng.uniform(0.0, h, size=k - 1))
        if interior.size == k - 1 and (interior.size == 0 or (interior[0] > 0 and interior[-1] < h)):
            break
    values = rng.uniform(-vmax, vmax, size=k)
    return StepFunction((0.0, *interior, h), tuple(values))


def eval_step(f: StepFunction, xs: np.ndarray) -> np.ndarray:
    """Pointwise values at xs, independent of the library's arithmetic."""
    idx = np.searchsorted(np.asarray(f.breakpoints), xs, side="right") - 1
    idx = np.clip(idx, 0, len(f.values) - 1)
    return np.asarray(f.values)[idx]


def quadrature_lp_distance(f: StepFunction, g: StepFunction, p: float, n_points: int = 10**6) -> float:
    """Midpoint-rule oracle on the refined merged partition.

    Each merged cell is split into subcells (about n_points across [0, H])
    and |f - g|^p is sampled at subcell midpoints.
    """
    edges = np.union1d(np.asarray(f.breakpoints), np.asarray(g.breakpoints))
    h = edges[-1]
    xs_parts = []
    w_parts = []
    for a, b in zip(edges[:-1], edges[1:]):
        m = max(1, int(round(n_points * (b - a) / h)))
        step = (b - a) / m
        xs_parts.append(a + (np.arange(m) + 0.5) * step)
        w_parts.append(np.full(m, step))
    xs = np.concatenate(xs_parts)
    ws = np.concatenate(w_parts)
    diff = np.abs(eval_step(f, xs) - eval_step(g, xs))
    total = float(np.sum(diff**p * ws)) / h
    return total ** (1.0 / p)


def add_bump(f: StepFunction, t0: float, delta: float, epsilon: float) -> StepFunction:
    """f plus a constant offset epsilon on the open window (t0, t0 + delta)."""
    edges = np.union1d(np.asarray(f.breakpoints), np.asarray([t0, t0 + delta]))
    values = eval_step(f, (edges[:-1] + edges[1:]) / 2.0)
    inside = (edges[:-1] >= t0) & (edges[1:] <= t0 + delta)
    values = values + np.where(inside, epsilon, 0.0)
    return StepFunction(tuple(edges), tuple(values))


def haversine_oracle(lat1, lon1, lat2, lon2, radius=6371.0088) -> float:
    """Great-circle distance via the atan2 formulation."""
    p1, l1, p2, l2 = map(math.radians, (lat1, lon1, lat2, lon2))
    a = math.sin((p2 - p1) / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin((l2 - l1) / 2) ** 2
    return radius * 2.0 * math.atan2(math.sqrt(a), math.sqrt(max(0.0, 1.0 - a)))


def t_scan_oracle(x: np.ndarray, min_segment: int) -> int:
    """Argmax split of the two-sample t statistic, plain-python scan."""
    n = len(x)
    best_stat, best_s = -1.0, None
    for s in range(min_segment, n - min_segment + 1):
        left, right = x[:s], x[s:]
        diff = abs(left.mean() - right.mean())
        pooled = (((left - left.mean()) ** 2).sum() + ((right - right.mean()) ** 2).sum()) / (n - 2)
        se = math.sqrt(pooled * (1 / s + 1 / (n - s)))
        stat = math.inf if se == 0 and diff > 0 else (0.0 if se == 0 else diff / se)
        if stat > best_stat:
            best_stat, best_s = stat, s
    return best_s


def f_scan_oracle(x: np.ndarray, min_segment: int) -> int:
    """Argmax split of the two-sample variance-ratio statistic."""
    n = len(x)
    best_stat, best_s = -1.0, None
    for s in range(min_segment, n - min_segment + 1):
        v1 = float(np.var(x[:s], ddof=1))
        v2 = float(np.var(x[s:], ddof=1))
        hi, lo = max(v1, v2), min(v1, v2)
        stat = 1.0 if hi == 0 else (math.inf if lo == 0 else hi / lo)
        if stat > best_stat:
            best_stat, best_s = stat, s
    return best_s


def _full_scan_profile(rows: np.ndarray, min_segment: int, attribute: str) -> np.ndarray:
    """The detector's split scan as it was before sequential calibration."""
    _, n = rows.shape
    rows = rows - rows.mean(axis=1, keepdims=True)
    cs = np.cumsum(rows, axis=1)
    cq = np.cumsum(rows * rows, axis=1)
    tot = cs[:, -1:]
    totq = cq[:, -1:]
    sum_l = cs[:, min_segment - 1 : n - min_segment]
    sq_l = cq[:, min_segment - 1 : n - min_segment]
    n_l = np.arange(min_segment, n - min_segment + 1, dtype=float)
    n_r = n - n_l
    sse_l = np.maximum(sq_l - sum_l * sum_l / n_l, 0.0)
    sse_r = np.maximum((totq - sq_l) - (tot - sum_l) ** 2 / n_r, 0.0)
    if attribute == "mean":
        diff = np.abs(sum_l / n_l - (tot - sum_l) / n_r)
        se = np.sqrt((sse_l + sse_r) / (n - 2) * (1.0 / n_l + 1.0 / n_r))
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


def reference_split_sizes(n: int, min_segment: int, run: int) -> tuple[np.ndarray, ...]:
    """The detector's split tables as first built: run tables gathered by index and reduced by ``reduceat``.

    Returns (n_l, n_r, inv_prod, starts, ends, prod) in the order of
    ``changepoint._Splits``, for runs of ``run`` splits.
    """
    n_l = np.arange(min_segment, n - min_segment + 1, dtype=float)
    n_r = n - n_l
    prod = n_l * n_r
    first = np.arange(0, n_l.size, run)
    last = np.minimum(first + run - 1, n_l.size - 1)
    return n_l, n_r, 1.0 / prod, n_l[first], n_l[last], np.minimum.reduceat(prod, first)


def full_permutation_detector(
    x: np.ndarray, attribute: str, significance: float, min_segment: int, permutations: int, seed: int
) -> tuple[int, ...]:
    """Binary segmentation that scans all B permutations of every window at once.

    The detector before sequential calibration, kept verbatim: one
    B x n permutation matrix per window and the p-value (1 + exceed) / (B + 1).
    """
    n = x.size
    ms = min_segment
    found: list[int] = []

    def recurse(lo: int, hi: int) -> None:
        if hi - lo < 2 * ms:
            return
        w = x[lo:hi]
        profile = _full_scan_profile(w[np.newaxis, :], ms, attribute)[0]
        best = int(np.argmax(profile))
        observed = profile[best]
        perms = np.tile(w, (permutations, 1))
        rng = np.random.default_rng(np.random.SeedSequence([seed % (2**63), lo, hi]))
        rng.permuted(perms, axis=1, out=perms)
        perm_max = _full_scan_profile(perms, ms, attribute).max(axis=1)
        exceed = int(np.count_nonzero(perm_max >= observed))
        p_value = (1 + exceed) / (permutations + 1)
        if p_value <= significance:
            cp = lo + ms + best
            found.append(cp)
            recurse(lo, cp)
            recurse(cp, hi)

    recurse(0, n)
    return tuple(sorted(found))


def reference_write_matrix_csv(m, path) -> None:
    """The matrix CSV writer before whole-row rendering, kept verbatim: one repr per value."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(m.labels)
        for label, row in zip(m.labels, m.entries):
            w.writerow([label, *[repr(float(v)) for v in row]])


_MISSING_TOKENS = {"", "na", "n/a", "nan", "null", "none"}


def reference_ingest(path) -> tuple[list[str], list[list[float]]]:
    """Series ids and filled columns of a valid wide series CSV, in plain Python.

    Reads every row first, skips rows whose every cell is blank, parses
    cell by cell (a short row's absent cells are missing) and fills each
    column forward from its latest observation, back-filling a leading gap
    from the first one.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = [row for row in csv.reader(fh) if any(cell.strip() for cell in row)]
    header, *data = rows
    ids = [cell.strip() for cell in header[1:]]
    columns = [[] for _ in ids]
    for row in data:
        cells = row[1:] + [""] * (len(ids) + 1 - len(row))
        for column, cell in zip(columns, cells):
            column.append(None if cell.strip().lower() in _MISSING_TOKENS else float(cell))
    filled = []
    for column in columns:
        latest = next(v for v in column if v is not None)
        out = []
        for v in column:
            if v is not None:
                latest = v
            out.append(latest)
        filled.append(out)
    return ids, filled


# Row forms every input CSV reader skips as blank: every cell empty or
# whitespace, however many cells the row has.
BLANK_ROWS = ("", "   ", "\t", ",,,,", " , " * 3)


def write_stations_csv(stations, path) -> None:
    """A station CSV with header id,lat_deg,lon_deg; coordinates round-trip exactly."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "lat_deg", "lon_deg"])
        for s in stations:
            w.writerow([s.id, repr(s.lat_deg), repr(s.lon_deg)])


def random_series_csv(rng) -> str:
    """Text of a valid wide series CSV mixing the forms ingest accepts.

    Cells are plain, signed, exponent and integer numbers (``-0`` among
    them), padded with spaces or tabs or not; missing tokens in any case;
    short rows; blank rows (``BLANK_ROWS``); CRLF or LF line ends; and
    sometimes a byte-order mark. Every column has at least one observation
    and there are at least two data rows.
    """
    n_cols = int(rng.integers(1, 6))
    n_rows = int(rng.integers(2, 30))
    missing = ["", "NA", "na", "N/A", "n/a", "NaN", "nan", "null", "NULL", "None", "none"]
    pads = ["", " ", "  ", "\t"]

    def number() -> str:
        kind = int(rng.integers(5))
        v = float(rng.normal(0.0, 10.0 ** int(rng.integers(-3, 4))))
        return [repr(v), f"{v:.3e}", str(int(v)), "-0", f"{v:+.2f}"][kind]

    def pad(cell: str) -> str:
        return pads[int(rng.integers(len(pads)))] + cell + pads[int(rng.integers(len(pads)))]

    observed = rng.integers(n_rows, size=n_cols)  # a row where each column is present for sure
    lines = [",".join(["t", *(pad(f"s{j}") for j in range(n_cols))])]
    for t in range(n_rows):
        cells = [
            number() if observed[j] == t or rng.random() < 0.7 else missing[int(rng.integers(len(missing)))]
            for j in range(n_cols)
        ]
        if rng.random() < 0.2:
            # a short row: its absent trailing cells must be missing ones
            keep = int(rng.integers(n_cols))
            if all(observed[j] != t for j in range(keep, n_cols)):
                cells = cells[:keep]
        lines.append(",".join([pad(str(t)), *(pad(c) for c in cells)]))
        if rng.random() < 0.15:
            lines.append(BLANK_ROWS[int(rng.integers(len(BLANK_ROWS)))])
    end = "\r\n" if rng.random() < 0.5 else "\n"
    bom = "\ufeff" if rng.random() < 0.3 else ""
    return bom + end.join(lines) + end


# The column kinds of ``random_collection``: each draws n values, nan marking a missing cell.
COLUMN_KINDS = {
    "gaussian": lambda rng, n: rng.standard_normal(n),
    "integer": lambda rng, n: rng.integers(0, 3, n).astype(float),
    "constant": lambda rng, n: np.full(n, rng.standard_normal()),
    "huge": lambda rng, n: rng.choice([-1e308, 1e308], n),
    "subnormal": lambda rng, n: rng.standard_normal(n) * 1e-310,
    "scaled": lambda rng, n: rng.standard_normal(n) * 10.0 ** rng.choice([-300, 300]),
    "missing": lambda rng, n: np.where(rng.random(n) < 0.4, np.nan, rng.standard_normal(n)),
}


def random_collection(rng) -> tuple[str, list[str], list[str]]:
    """A wide series CSV, its series ids and the ``run`` options drawn with it.

    The CSV holds 2-8 series of 8-64 rows, each column of a kind drawn from
    ``COLUMN_KINDS`` (a missing cell is empty), so a collection may hit any
    error of the README contract. The options draw the attribute,
    ``--min-segment``, ``--p`` and ``--k``, some of them out of range, and
    use 19 permutations.
    """
    n_series, n_rows = int(rng.integers(2, 9)), int(rng.integers(8, 65))
    kinds = list(COLUMN_KINDS)
    columns = [COLUMN_KINDS[kinds[int(rng.integers(len(kinds)))]](rng, n_rows).tolist() for _ in range(n_series)]
    ids = [f"s{j}" for j in range(n_series)]
    lines = [",".join(["t", *ids])]
    lines += [",".join([str(t), *("" if math.isnan(c[t]) else repr(c[t]) for c in columns)]) for t in range(n_rows)]
    options = {
        "--attribute": rng.choice(["mean", "variance"]),
        "--min-segment": rng.integers(2, 9),
        "--p": rng.choice(["0.5", "1", "2", "3.5", "inf"], p=[0.1, 0.3, 0.3, 0.15, 0.15]),
        "--k": rng.choice(["auto", "1", "2", "3", "9"], p=[0.5, 0.2, 0.15, 0.1, 0.05]),
        "--permutations": 19,
    }
    return "\n".join(lines) + "\n", ids, [str(arg) for item in options.items() for arg in item]


# --- The pairwise layer before row batching, kept verbatim -----------------
# Per-pair merged partitions, one fsum per pair, and the O(N^3) pure-Python
# agglomeration. The batched kernels and the vectorised linkage must agree
# with these exactly.


def _reference_merged_values(f: StepFunction, g: StepFunction) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    edges = np.union1d(np.asarray(f.breakpoints), np.asarray(g.breakpoints))
    left = edges[:-1]
    vf = np.asarray(f.values)[np.searchsorted(f.breakpoints, left, side="right") - 1]
    vg = np.asarray(g.values)[np.searchsorted(g.breakpoints, left, side="right") - 1]
    return np.diff(edges), vf, vg


def _reference_power_sum(mags: np.ndarray, widths: np.ndarray, p: float) -> float:
    with np.errstate(over="ignore"):
        terms = mags * widths if p == 1.0 else mags**p * widths
    try:
        return math.fsum(terms.tolist())
    except OverflowError:
        return math.inf


def _reference_segment_norm(values: np.ndarray, widths: np.ndarray, h: float, p: float) -> float:
    if p == math.inf:
        return float(np.max(np.abs(values)))
    mags = np.abs(values)
    total = _reference_power_sum(mags, widths, p) / h
    if total == math.inf or total == 0.0:
        scale = float(np.max(mags))
        if 0.0 < scale < math.inf:
            return scale * float((_reference_power_sum(mags / scale, widths, p) / h) ** (1.0 / p))
    return float(total ** (1.0 / p))


def reference_lp_norm(f: StepFunction, p: float) -> float:
    return _reference_segment_norm(np.asarray(f.values), np.diff(f.breakpoints), f.h, float(p))


def reference_lp_distance(f: StepFunction, g: StepFunction, p: float) -> float:
    widths, vf, vg = _reference_merged_values(f, g)
    return _reference_segment_norm(vf - vg, widths, f.h, float(p))


def reference_inner_product(f: StepFunction, g: StepFunction) -> float:
    widths, vf, vg = _reference_merged_values(f, g)
    return math.fsum((vf * vg * widths).tolist()) / f.h


def reference_pairwise(fs, fill) -> np.ndarray:
    n = len(fs)
    m = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            v = fill(fs[i], fs[j])
            m[i, j] = v
            m[j, i] = v
    return m


def reference_alignment(fs) -> np.ndarray:
    """Cosine matrix as the per-pair loop built it, clamping included."""
    norms = [reference_lp_norm(f, 2.0) for f in fs]
    n = len(fs)
    m = np.ones((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            c = reference_inner_product(fs[i], fs[j]) / (norms[i] * norms[j])
            if c > 1.0:
                if c > 1.0 + 1e-12:
                    raise ValueError(f"cosine {c} exceeds 1 beyond rounding tolerance")
                c = 1.0
            elif c < -1.0:
                if c < -1.0 - 1e-12:
                    raise ValueError(f"cosine {c} below -1 beyond rounding tolerance")
                c = -1.0
            m[i, j] = c
            m[j, i] = c
    return m


def reference_linkage_loop(entries: np.ndarray, linkage: str) -> tuple:
    """Merges (i, j, height, size) of the per-pair agglomeration loop."""
    n = entries.shape[0]
    total = 2 * n - 1
    dist = np.full((total, total), np.nan)
    dist[:n, :n] = entries
    size = np.zeros(total, dtype=int)
    size[:n] = 1
    active = list(range(n))
    merges = []
    for step in range(n - 1):
        best = None
        for ai, i in enumerate(active):
            for j in active[ai + 1 :]:
                v = dist[i, j]
                if best is None or v < best[0]:
                    best = (v, i, j)
        height, i, j = best
        new = n + step
        merges.append((i, j, float(height), int(size[i] + size[j])))
        size[new] = size[i] + size[j]
        active.remove(i)
        active.remove(j)
        for m in active:
            if linkage == "single":
                v = min(dist[i, m], dist[j, m])
            elif linkage == "complete":
                v = max(dist[i, m], dist[j, m])
            else:
                v = (size[i] * dist[i, m] + size[j] * dist[j, m]) / (size[i] + size[j])
            dist[new, m] = v
            dist[m, new] = v
        active.append(new)
    return tuple(merges)


def reference_hierarchical_cluster(d: LabeledSquareMatrix, linkage: Linkage = Linkage.AVERAGE) -> Dendrogram:
    """The masked-argmin agglomeration before cached nearest neighbours, kept verbatim."""
    if d.kind is not MatrixKind.DISTANCE:
        raise ValueError(f"hierarchical clustering expects a distance matrix, got {d.kind.value}")
    linkage = Linkage(linkage)
    n = d.n
    total = 2 * n - 1
    # Symmetric node-id matrix; inf marks the diagonal, merged-away nodes
    # and nodes not created yet, so they never win the argmin. Among equal
    # minima of a symmetric matrix the first in row-major order is the
    # smallest (i, j) pair with i < j.
    dist = np.full((total, total), np.inf)
    dist[:n, :n] = d.entries
    np.fill_diagonal(dist, np.inf)
    size = np.zeros(total, dtype=int)
    size[:n] = 1
    alive = size > 0
    merges = []
    for step in range(n - 1):
        new = n + step
        i, j = divmod(int(np.argmin(dist[:new])), total)
        if dist[i, j] == np.inf:  # every live pair overflowed: take the first one
            i, j = np.flatnonzero(alive)[:2].tolist()
        merges.append((i, j, float(dist[i, j]), int(size[i] + size[j])))
        size[new] = size[i] + size[j]
        di, dj = dist[i, :new], dist[j, :new]
        # Lance-Williams update. Between equal values where() keeps the
        # first, as min() and max() do, so even the sign of a zero is fixed.
        if linkage is Linkage.SINGLE:
            row = np.where(dj < di, dj, di)
        elif linkage is Linkage.COMPLETE:
            row = np.where(dj > di, dj, di)
        else:
            row = (size[i] * di + size[j] * dj) / (size[i] + size[j])
        row[[i, j]] = np.inf
        dist[new, :new] = row
        dist[:new, new] = row
        dist[[i, j], :] = np.inf
        dist[:, [i, j]] = np.inf
        alive[[i, j]] = False
        alive[new] = True
    return Dendrogram(d.labels, tuple(merges))


def _exact_split_stats(z: list[int], min_segment: int, attribute: str) -> list[tuple[int, int]]:
    """t^2 (mean) or the variance ratio F at every admissible split of the integers ``z``.

    Each statistic is a fraction (num, den) with den >= 0, and den = 0
    stands for +inf. Written from the textbook definitions: pooled
    t^2 = (mean_l - mean_r)^2 / (s_p^2 (1/n_l + 1/n_r)) with
    s_p^2 = (SSE_l + SSE_r) / (n - 2), and F = max(var_l, var_r) / min(...),
    where SSE = sum of squares - sum^2 / size. Flat sides follow the
    detector's conventions: t = +inf (or 0 with equal means) when both
    sides are flat; F = +inf when one side is flat and 1 when both are.
    """
    n = len(z)
    pre = [0]
    pre_sq = [0]
    for v in z:
        pre.append(pre[-1] + v)
        pre_sq.append(pre_sq[-1] + v * v)
    out = []
    for s in range(min_segment, n - min_segment + 1):
        r = n - s
        sum_l, sum_r = pre[s], pre[n] - pre[s]
        # size * SSE per side, an integer.
        sse_l = s * pre_sq[s] - sum_l * sum_l
        sse_r = r * (pre_sq[n] - pre_sq[s]) - sum_r * sum_r
        if attribute == "mean":
            # (mean_l - mean_r)^2 = diff^2 / (s r)^2 and SSE_l + SSE_r = pooled / (s r).
            diff = r * sum_l - s * sum_r
            pooled = r * sse_l + s * sse_r
            if pooled == 0:
                out.append((1, 0) if diff else (0, 1))
            else:
                out.append((diff * diff * (n - 2), pooled * n))
        else:
            var_l = sse_l * r * (r - 1)  # var_l and var_r times s r (s - 1) (r - 1)
            var_r = sse_r * s * (s - 1)
            hi, lo = max(var_l, var_r), min(var_l, var_r)
            out.append((1, 1) if hi == 0 else (hi, lo))
    return out


def _fraction_ge(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return a[0] * b[1] >= b[0] * a[1]


def exact_permutation_detector(
    x: np.ndarray, attribute: str, significance: float, min_segment: int, permutations: int, seed: int
) -> tuple[int, ...]:
    """``full_permutation_detector`` with every statistic an exact fraction.

    The same windows, permutation stream and p-value (1 + exceed) / (B + 1),
    but t^2 and F are compared exactly: a permutation whose maximal
    statistic equals the observed one counts as an exceedance, and the
    observed split is the smallest of the exact maxima. The values must be
    finite; they are converted to integers over a common denominator.
    """
    ratios = [Fraction(v) for v in np.asarray(x, dtype=float).tolist()]
    den = math.lcm(*(q.denominator for q in ratios))
    z = np.array([int(q * den) for q in ratios], dtype=object)
    n = z.size
    ms = min_segment
    found: list[int] = []

    def row_max(stats):
        best = 0
        for i in range(1, len(stats)):
            if not _fraction_ge(stats[best], stats[i]):
                best = i
        return best, stats[best]

    def recurse(lo: int, hi: int) -> None:
        if hi - lo < 2 * ms:
            return
        w = z[lo:hi]
        best, observed = row_max(_exact_split_stats(w.tolist(), ms, attribute))
        # Permute positions with the detector's stream: rng.permuted shuffles
        # every row independently of its values.
        order = np.tile(np.arange(w.size), (permutations, 1))
        rng = np.random.default_rng(np.random.SeedSequence([seed % (2**63), lo, hi]))
        rng.permuted(order, axis=1, out=order)
        exceed = sum(
            _fraction_ge(row_max(_exact_split_stats(w[p].tolist(), ms, attribute))[1], observed) for p in order
        )
        if (1 + exceed) / (permutations + 1) <= significance:
            cp = lo + ms + best
            found.append(cp)
            recurse(lo, cp)
            recurse(cp, hi)

    recurse(0, n)
    return tuple(sorted(found))
