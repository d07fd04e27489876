"""Benchmark workloads and their seeded input generator.

Every input is drawn with ``stepdist.synthetic`` (``RegimeSpec`` plus
``generate_series``), so nothing is downloaded and the same seed always
gives byte-identical CSVs. Series are built from group prototypes: every
series of a group shares the prototype's planted breaks and segment
moments and differs only in its noise draw.

Why each workload exists:

- ``reference``: the typical ``run`` job. Detection dominates (about two
  thirds of a job), then the pairwise kernels and linkage, in the
  proportions of a 200 x 1000 collection of the same kind, scaled
  to 140 x 700. Levels are drawn from N(0, 5), so signs are mixed.
- ``wide_short``: many short series, so the O(N^2) kernels and the
  O(N^3) linkage take two thirds of the job and detection a quarter.
- ``long_variance``: few long series under the variance attribute, with
  ``--min-segment 500`` (see below). Detection is almost the whole job,
  with a different statistic and permutation arrays (B x n, 12.7 MB)
  far larger than L2; it sets the peak memory.
- ``compare_wide``: the ``compare-metrics`` command, the only path that
  runs the break-set metrics (``set_metrics``). Inputs follow the
  committed suite's design (5-sigma alternating jumps on levels from
  {0, 10, 20, 35, 50}), which is the documented domain of the command:
  set metrics are undefined for a series without breaks, and the command
  correctly refuses such a collection.

Jobs are sized to take 3-5 s on a 2-CPU Xeon, so that one 20 s run
holds at least four of them: single jobs on a shared machine vary by
about 7% from one to the next, and the benchmark reports the median.
Groups are many (one per 7-10 series) because the planted break
positions decide how much detection work a job does; with 8 groups the
detection work moved by 5% between seeds.

Why there is no ``stations`` workload: ``run --metadata`` exits with code
2 whenever an L^2 cosine between two series is negative, which happens on
any collection with mixed-sign levels such as ``reference``. Shifting the
levels positive would only hide that defect, so the geographic layer and
the consistency matrices stay unmeasured until the defect is fixed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SUITE_BASE_LEVELS = (0.0, 10.0, 20.0, 35.0, 50.0)
SUITE_JUMP = 5.0
# Adjacent planted mean levels differ by at least this many noise sigmas,
# and adjacent planted sigmas by at least this ratio, so that every
# planted break is a real change.
MIN_MEAN_JUMP = 1.5
MIN_SIGMA_RATIO = 1.5
SIGMA_RANGE = (0.5, 3.0)


@dataclass(frozen=True)
class Workload:
    """One fixed input shape; the seed picks the draw.

    ``min_gap`` is the smallest planted segment and ``min_segment`` is
    passed to the detector; all other detection options keep the CLI
    defaults (significance 0.05, 199 permutations, seed 0).
    """

    name: str
    command: str  # "run" or "compare-metrics"
    attribute: str  # "mean" or "variance"
    levels: str  # "mixed", "suite" or "sigma"
    n_series: int
    length: int
    n_groups: int
    min_breaks: int
    max_breaks: int
    min_gap: int
    min_segment: int

    def __post_init__(self):
        # By construction every segment fits: the generator spreads only
        # the slack left after max_breaks + 1 segments of min_gap samples.
        if (self.max_breaks + 1) * self.min_gap > self.length:
            raise ValueError(
                f"{self.name}: {self.max_breaks + 1} segments of {self.min_gap} samples "
                f"do not fit in length {self.length}"
            )
        if not 1 <= self.min_breaks <= self.max_breaks:
            raise ValueError(f"{self.name}: need 1 <= min_breaks <= max_breaks")

    @property
    def cp_tolerance(self) -> int:
        """Largest distance at which a detection matches a planted break."""
        return self.min_segment // 3


# long_variance raises min_segment from the default 30 to 500. With 30,
# the variance ratio of a 30-sample edge segment against the rest of a
# long window often beats the true split when a series has two or more
# shifts, so detection outcomes, and with them the detection work, swing
# from seed to seed: for 8 series of 16000 samples, seeds 1-6 took
# 5.6-8.8 s per job on a 2-CPU Xeon and recall ranged 0.43-0.91. With 500
# both are steady.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("reference", "run", "mean", "mixed", 140, 700, 20, 1, 3, 70, 30),
        Workload("wide_short", "run", "mean", "mixed", 180, 200, 18, 1, 2, 60, 30),
        Workload("long_variance", "run", "variance", "sigma", 8, 8000, 8, 2, 4, 1000, 500),
        Workload("compare_wide", "compare-metrics", "mean", "suite", 200, 240, 20, 1, 3, 50, 30),
    )
}

# Tiny input for the warm-up job every worker runs before timing starts,
# so lazy initialisation (BLAS, first eigensolver call) counts as set-up.
WARMUP = Workload("warmup", "run", "mean", "mixed", 6, 120, 2, 1, 1, 40, 30)


@dataclass(frozen=True)
class Planted:
    """Ground truth of one generated series."""

    series_id: str
    group: int
    breaks: tuple[int, ...]


def _breaks(rng: np.random.Generator, w: Workload, k: int) -> tuple[int, ...]:
    slack = w.length - (k + 1) * w.min_gap
    cuts = np.sort(rng.integers(0, slack + 1, size=k))
    extra = np.diff(np.concatenate([[0], cuts, [slack]]))  # k + 1 parts summing to slack
    lengths = w.min_gap + extra
    return tuple(int(b) for b in np.cumsum(lengths)[:-1])


def _mixed_levels(rng: np.random.Generator, n: int) -> tuple[float, ...]:
    levels = [float(rng.normal(0.0, 5.0))]
    for _ in range(n - 1):
        cand = float(rng.normal(0.0, 5.0))
        if abs(cand - levels[-1]) < MIN_MEAN_JUMP:
            cand = levels[-1] + math.copysign(MIN_MEAN_JUMP, cand - levels[-1])
        levels.append(cand)
    return tuple(levels)


def _sigmas(rng: np.random.Generator, n: int) -> tuple[float, ...]:
    lo, hi = (math.log(s) for s in SIGMA_RANGE)
    step = math.log(MIN_SIGMA_RATIO)
    logs = [float(rng.uniform(lo, hi))]
    for _ in range(n - 1):
        cand = float(rng.uniform(lo, hi))
        if abs(cand - logs[-1]) < step:
            # Move to the side of the previous sigma that stays in range.
            up = logs[-1] + step
            cand = up if up <= hi else logs[-1] - step
        logs.append(cand)
    return tuple(math.exp(v) for v in logs)


def generate(workload: Workload, seed: int) -> tuple[list, list[Planted]]:
    """Series (``stepdist.TimeSeries``) and their planted ground truth."""
    from stepdist.synthetic import RegimeSpec, generate_series

    w = workload
    root = np.random.SeedSequence([seed % (2**63), *w.name.encode()])
    proto_seq, assign_seq, noise_seq = root.spawn(3)
    proto_rng = np.random.default_rng(proto_seq)
    protos = []
    for g in range(w.n_groups):
        # Break counts cycle over the groups instead of being drawn, so the
        # amount of detection work varies little from seed to seed.
        k = w.min_breaks + g % (w.max_breaks - w.min_breaks + 1)
        breaks = _breaks(proto_rng, w, k)
        n_seg = len(breaks) + 1
        if w.levels == "mixed":
            means, sigmas = _mixed_levels(proto_rng, n_seg), (1.0,) * n_seg
        elif w.levels == "sigma":
            means, sigmas = (0.0,) * n_seg, _sigmas(proto_rng, n_seg)
        else:
            means, sigmas = None, (1.0,) * n_seg  # suite levels are drawn per series
        protos.append((breaks, means, sigmas))
    assign_rng = np.random.default_rng(assign_seq)
    noise_seeds = [int(s.generate_state(1)[0]) for s in noise_seq.spawn(w.n_series)]
    series, planted = [], []
    for i in range(w.n_series):
        group = i % w.n_groups
        breaks, means, sigmas = protos[group]
        if means is None:
            base = float(assign_rng.choice(SUITE_BASE_LEVELS))
            means = tuple(base + SUITE_JUMP * (s % 2) for s in range(len(breaks) + 1))
        sid = f"s{i:04d}"
        spec = RegimeSpec(sid, w.length, breaks, means, sigmas, noise_seeds[i])
        series.append(generate_series(spec))
        planted.append(Planted(sid, group, breaks))
    return series, planted


def write_wide_csv(series, path) -> None:
    """Wide CSV in the CLI's input format; ``repr`` round-trips every float."""
    path = Path(path)
    cols = [ts.values for ts in series]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", *[ts.id for ts in series]])
        for t in range(cols[0].size):
            w.writerow([t, *[repr(float(c[t])) for c in cols]])


def match_change_points(
    detected: list[tuple[int, ...]], planted: list[Planted], tolerance: int
) -> tuple[int, int, int]:
    """One-to-one matching per series: (matched, detected total, planted total).

    Within a series, candidate (planted, detected) pairs closer than the
    tolerance are taken greedily by increasing distance, ties by position,
    so each planted break and each detection is used at most once.
    """
    matched = n_det = n_true = 0
    for det, truth in zip(detected, planted):
        n_det += len(det)
        n_true += len(truth.breaks)
        pairs = sorted(
            (abs(d - b), b, d) for b in truth.breaks for d in det if abs(d - b) <= tolerance
        )
        used_b, used_d = set(), set()
        for _, b, d in pairs:
            if b not in used_b and d not in used_d:
                used_b.add(b)
                used_d.add(d)
                matched += 1
    return matched, n_det, n_true
