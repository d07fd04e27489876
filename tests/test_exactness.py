"""The batched pairwise layer against verbatim copies of the per-pair code.

Row-batched distance and alignment matrices, the scalar L^p calls built on
the same kernel, and the vectorised linkage must reproduce the per-pair
loops of ``tests/helpers`` bit for bit (compared as raw bytes, so even
the sign of a zero counts). The break-set metrics, exact integer kernels,
must reproduce the per-direction float table code they replaced.
"""

import math

import numpy as np
import pytest

from stepdist import (
    ChangePointSet,
    LabeledSquareMatrix,
    Linkage,
    MatrixKind,
    StepFunction,
    alignment_matrix,
    hausdorff,
    hierarchical_cluster,
    inner_product,
    lp_distance,
    lp_norm,
    mj_semi_metric,
    modified_hausdorff,
    normalized_distance_matrix,
    unscaled_distance_matrix,
)

from tests.helpers import (
    linkage_exponent,
    random_step_function,
    reference_alignment,
    reference_inner_product,
    reference_linkage_loop,
    reference_lp_distance,
    reference_lp_norm,
    reference_pairwise,
)

P_GRID = [1.0, 1.5, 2.0, 3.0, math.inf]


def same_bits(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def grid_step_function(rng, h, max_segments=6, scale=1.0) -> StepFunction:
    """Breakpoints on a coarse grid, so pairs share many of them; levels include 0."""
    k = int(rng.integers(1, max_segments + 1))
    interior = np.sort(rng.choice(np.arange(1, 10), size=k - 1, replace=False)) * (h / 10.0)
    values = rng.choice([-3.0, -1.0, 0.0, 0.5, 2.0, 4.25], size=k) * scale
    if not np.any(values):
        values[0] = scale
    return StepFunction((0.0, *interior, h), tuple(values))


def collections():
    """Collections with mixed segment counts, shared breakpoints and duplicates."""
    rng = np.random.default_rng(2024)
    out = []
    for h in (1.0, 7.5):
        fs = [random_step_function(rng, h=h, max_segments=9) for _ in range(9)]
        fs += [grid_step_function(rng, h) for _ in range(9)]
        fs += [fs[0], fs[12], StepFunction.constant(2.0, h)]
        out.append(fs)
    for scale in (1e200, 1e-200):  # |v|^2 overflows / underflows: the rescaled sum
        out.append([grid_step_function(rng, 1.0, scale=scale) for _ in range(8)])
    return out


@pytest.mark.parametrize("p", P_GRID)
def test_distance_matrices_match_per_pair_loop(p):
    for fs in collections():
        got = unscaled_distance_matrix(fs, p).entries
        assert same_bits(got, reference_pairwise(fs, lambda a, b: reference_lp_distance(a, b, p)))
        hats = [StepFunction(f.breakpoints, tuple(v / reference_lp_norm(f, p) for v in f.values)) for f in fs]
        got = normalized_distance_matrix(fs, p).entries
        assert same_bits(got, reference_pairwise(hats, lambda a, b: reference_lp_distance(a, b, p)))


@pytest.mark.parametrize("p", P_GRID)
def test_scalar_calls_match_per_pair_code(p):
    for fs in collections():
        for f in fs:
            assert same_bits(lp_norm(f, p), reference_lp_norm(f, p))
        for f, g in zip(fs, fs[1:] + fs[:1]):
            assert same_bits(lp_distance(f, g, p), reference_lp_distance(f, g, p))


def test_inner_products_match_per_pair_code():
    for fs in collections()[:2]:
        for f, g in zip(fs, fs[1:] + fs[:1]):
            assert same_bits(inner_product(f, g), reference_inner_product(f, g))


def test_rescale_fallback_is_exercised():
    f = StepFunction((0.0, 0.5, 1.0), (1e200, -1e200))
    g = StepFunction.constant(1e200, 1.0)
    assert lp_distance(f, g, 2.0) == reference_lp_distance(f, g, 2.0) == 2e200 * math.sqrt(0.5)


def test_alignment_matches_per_pair_loop():
    for fs in collections()[:2]:
        assert same_bits(alignment_matrix(fs).entries, reference_alignment(fs))


def tied_matrix(rng, n) -> np.ndarray:
    m = rng.integers(0, 4, (n, n)).astype(float)
    m = np.triu(m, 1)
    return m + m.T


@pytest.mark.parametrize("n", [2, 3, 50])
@pytest.mark.parametrize("linkage", list(Linkage))
def test_linkage_matches_per_pair_loop_on_ties(n, linkage):
    rng = np.random.default_rng(n)
    for _ in range(5):
        m = tied_matrix(rng, n)
        d = LabeledSquareMatrix(tuple(f"s{i}" for i in range(n)), m, MatrixKind.DISTANCE)
        got = hierarchical_cluster(d, linkage).merges
        want = reference_linkage_loop(m, linkage.value)
        assert got == want
        assert same_bits([mg[2] for mg in got], [mg[2] for mg in want])


@pytest.mark.parametrize("top, n", [(1e308, 4), (np.finfo(float).max, 3), (np.finfo(float).max, 7), (np.finfo(float).max, 50)])
def test_near_max_average_matches_per_pair_loop_on_scaled_matrix(top, n):
    # The per-pair loop's averages overflow on this matrix; on the matrix
    # scaled by 2^-e they stay finite, and linkage reports them scaled back.
    m = np.full((n, n), top)
    np.fill_diagonal(m, 0.0)
    d = LabeledSquareMatrix(tuple(f"s{i}" for i in range(n)), m, MatrixKind.DISTANCE)
    e = linkage_exponent(m)
    want = tuple((i, j, math.ldexp(h, e), size) for i, j, h, size in reference_linkage_loop(np.ldexp(m, -e), "average"))
    got = hierarchical_cluster(d, Linkage.AVERAGE).merges
    assert got == want
    assert same_bits([mg[2] for mg in got], [mg[2] for mg in want])
    assert all(math.isfinite(mg[2]) for mg in got)
    if top == 1e308:
        assert got[-1][2] == 1e308  # the per-pair loop on the unscaled matrix ends at inf


def _reference_directed(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """d(x, B) for every x in A, one table per direction as the set metrics used to build it."""
    return np.abs(a[:, None] - b[None, :]).min(axis=1)


def reference_set_metrics(s: ChangePointSet, t: ChangePointSet, p: float) -> tuple[float, float, float]:
    a, b = np.asarray(s.points, dtype=float), np.asarray(t.points, dtype=float)
    h = float(max(_reference_directed(a, b).max(), _reference_directed(b, a).max()))
    mh = float(max(_reference_directed(a, b).mean(), _reference_directed(b, a).mean()))
    total = (_reference_directed(b, a) ** p).sum() / (2 * b.size)
    total = total + (_reference_directed(a, b) ** p).sum() / (2 * a.size)
    return h, mh, float(total ** (1.0 / p))


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_set_metrics_match_per_direction_code(p):
    rng = np.random.default_rng(11)
    for _ in range(200):
        # Up to 12 points, so numpy's pairwise summation blocks at 8 are crossed.
        s, t = (ChangePointSet(tuple(np.sort(rng.choice(999, rng.integers(1, 13), replace=False)) + 1)) for _ in "st")
        got = (hausdorff(s, t), modified_hausdorff(s, t), mj_semi_metric(s, t, p))
        assert same_bits(got, reference_set_metrics(s, t, p))
