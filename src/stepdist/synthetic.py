"""Seeded generators for synthetic experiments.

``generate_series`` draws piecewise-stationary Gaussian series from a
regime specification. ``benchmark_suite`` builds the committed ten-series
benchmark whose break structures group as {1,2,3}, {4,5}, {6,7},
{8,9,10} while only the pairs {1,3} and {7,8} share both breaks-and-level
structure closely; it is the fixture behind the metric-comparison demo.
``perturb`` applies a localized mean offset, the deformation used to
probe continuity of the distances.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .changepoint import TimeSeries
from .errors import WindowOutOfRange

SUITE_SEED = 2
SUITE_LENGTH = 1000
SUITE_SIGMA = 1.0

# (interior breaks, segment means); sigma is SUITE_SIGMA everywhere.
# Break-structure groups: {s01,s02,s03}, {s04,s05}, {s06,s07}, {s08,s09,s10}.
# Only s01/s03 share breaks AND means; s07/s08 share means with breaks 20 apart.
_SUITE_DESIGN: tuple[tuple[str, tuple[int, ...], tuple[float, ...]], ...] = (
    ("s01", (333, 667), (0.0, 5.0, 0.0)),
    ("s02", (333, 667), (10.0, 15.0, 10.0)),
    ("s03", (333, 667), (0.0, 5.0, 0.0)),
    ("s04", (250, 500, 750), (0.0, 5.0, 0.0, 5.0)),
    ("s05", (250, 500, 750), (10.0, 15.0, 10.0, 15.0)),
    ("s06", (500,), (0.0, 5.0)),
    ("s07", (500,), (20.0, 25.0)),
    ("s08", (480,), (20.0, 25.0)),
    ("s09", (480,), (35.0, 40.0)),
    ("s10", (480,), (50.0, 55.0)),
)


@dataclass(frozen=True)
class RegimeSpec:
    """Ground truth for one synthetic series: breaks, per-segment moments, seed."""

    series_id: str
    length: int
    breaks: tuple[int, ...]
    means: tuple[float, ...]
    sigmas: tuple[float, ...]
    seed: int

    def __post_init__(self):
        if self.length < 2:
            raise ValueError(f"length must be >= 2, got {self.length}")
        h = self.length - 1
        pts = tuple(int(b) for b in self.breaks)
        if any(b <= a for a, b in zip(pts, pts[1:])) or any(not 0 < b < h for b in pts):
            raise ValueError(f"breaks must be strictly increasing inside (0, {h}), got {pts}")
        if len(self.means) != len(pts) + 1 or len(self.sigmas) != len(pts) + 1:
            raise ValueError("need one mean and one sigma per segment")
        if any(s < 0 for s in self.sigmas):
            raise ValueError("sigmas must be nonnegative")
        object.__setattr__(self, "breaks", pts)
        object.__setattr__(self, "means", tuple(float(m) for m in self.means))
        object.__setattr__(self, "sigmas", tuple(float(s) for s in self.sigmas))


@dataclass(frozen=True)
class PerturbationSpec:
    """Additive mean offset epsilon on the index window [t0, t0 + delta)."""

    t0: int
    delta: int
    epsilon: float

    def __post_init__(self):
        if self.t0 < 0 or self.delta < 1:
            raise ValueError(f"need t0 >= 0 and delta >= 1, got t0={self.t0}, delta={self.delta}")
        if not np.isfinite(self.epsilon):
            raise ValueError("epsilon must be finite")


def generate_series(spec: RegimeSpec) -> TimeSeries:
    """Draw iid Gaussians per segment; identical seeds give identical series."""
    rng = np.random.default_rng(spec.seed % (2**63))
    bounds = (0, *spec.breaks, spec.length)
    parts = []
    for mean, sigma, start, end in zip(spec.means, spec.sigmas, bounds, bounds[1:]):
        parts.append(mean + sigma * rng.standard_normal(end - start))
    return TimeSeries(spec.series_id, np.concatenate(parts))


def benchmark_suite_specs(seed: int = SUITE_SEED) -> list[RegimeSpec]:
    """Regime specs of the committed ten-series benchmark."""
    root = np.random.SeedSequence(seed % (2**63))
    child_seeds = [int(s.generate_state(1)[0]) for s in root.spawn(len(_SUITE_DESIGN))]
    specs = []
    for (series_id, breaks, means), child in zip(_SUITE_DESIGN, child_seeds):
        specs.append(
            RegimeSpec(
                series_id=series_id,
                length=SUITE_LENGTH,
                breaks=breaks,
                means=means,
                sigmas=(SUITE_SIGMA,) * len(means),
                seed=child,
            )
        )
    return specs


def benchmark_suite(seed: int = SUITE_SEED) -> list[TimeSeries]:
    """The committed ten-series benchmark collection."""
    return [generate_series(spec) for spec in benchmark_suite_specs(seed)]


def perturb(series: TimeSeries, spec: PerturbationSpec) -> TimeSeries:
    """Add epsilon to the values with index in [t0, t0 + delta)."""
    h = series.h
    if spec.t0 >= h or spec.t0 + spec.delta > h:
        raise WindowOutOfRange(
            f"window [{spec.t0}, {spec.t0 + spec.delta}) does not fit inside [0, {h}]"
        )
    values = series.values.copy()
    values[spec.t0 : spec.t0 + spec.delta] += spec.epsilon
    return TimeSeries(series.id, values)


def export_suite(out_dir, seed: int = SUITE_SEED) -> dict:
    """Write the benchmark suite: one CSV per series, a wide CSV, a manifest.

    The manifest records every regime parameter and derived seed so the
    suite can be regenerated exactly.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    specs = benchmark_suite_specs(seed)
    series = [generate_series(s) for s in specs]
    for ts in series:
        with open(out / f"{ts.id}.csv", "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "value"])
            for t, v in enumerate(ts.values):
                w.writerow([t, repr(float(v))])
    with open(out / "suite_wide.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["t", *[ts.id for ts in series]])
        for t in range(SUITE_LENGTH):
            w.writerow([t, *[repr(float(ts.values[t])) for ts in series]])
    manifest = {
        "seed": seed,
        "length": SUITE_LENGTH,
        "sigma": SUITE_SIGMA,
        "series": [
            {
                "id": s.series_id,
                "breaks": list(s.breaks),
                "means": list(s.means),
                "sigmas": list(s.sigmas),
                "seed": s.seed,
            }
            for s in specs
        ],
    }
    with open(out / "manifest.json", "w", newline="", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest
