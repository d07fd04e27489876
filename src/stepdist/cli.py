"""Command-line front end.

Subcommands:
  run              full matrix/clustering analysis of a series CSV
  compare-metrics  break-set metrics vs the step-function distance
  export-suite     write the committed ten-series benchmark to disk

Options can also come from a flat key=value config file (--config);
explicit flags override file values. Exit codes: 0 success, 1 input
error, 2 numerical or configuration error.
"""

from __future__ import annotations

import argparse
import logging
import sys

from .changepoint import Attribute
from .clustering import Linkage
from .errors import InputError, StepDistError
from .pipeline import PipelineConfig, compare_metrics, run_analysis
from .synthetic import SUITE_SEED, export_suite


def _parse_k(text: str) -> int | None:
    return None if text.strip().lower() in ("auto", "") else int(text)


# Every option: its config key, which is also its flag's argparse dest,
# mapped to the PipelineConfig field it sets and the parser of its text.
# Unset options keep the PipelineConfig defaults.
_OPTIONS = {
    "attribute": ("attribute", lambda text: Attribute(text.lower())),
    "p": ("p", float),
    "significance": ("significance", float),
    "min_segment": ("min_segment", int),
    "permutations": ("permutations", int),
    "linkage": ("linkage", lambda text: Linkage(text.lower())),
    "k": ("k", _parse_k),
    "seed": ("seed", int),
    "series": ("series_path", str),
    "metadata": ("metadata_path", str),
    "out": ("out_dir", str),
}


def _read_config_file(path, keys) -> dict[str, str]:
    """Key = value lines of a config file; ``-`` and ``_`` in keys are interchangeable."""
    values: dict[str, str] = {}
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            name = key.replace("-", "_")
            if name not in keys:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            values[name] = value
    return values


def _build_config(args: argparse.Namespace) -> PipelineConfig:
    """Config file values, overridden by explicit flags, over the PipelineConfig defaults.

    A config key is accepted exactly when the subcommand has that flag.
    """
    keys = [key for key in _OPTIONS if hasattr(args, key)]
    values = _read_config_file(args.config, keys) if args.config else {}
    values.update((key, getattr(args, key)) for key in keys if getattr(args, key) is not None)
    return PipelineConfig(**{_OPTIONS[key][0]: _OPTIONS[key][1](text) for key, text in values.items()})


def _add_common_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key=value config file; flags override it")
    sub.add_argument("--attribute", choices=[a.value for a in Attribute], help="segment statistic")
    sub.add_argument("--p", help="L^p exponent (>= 1, or 'inf')")
    sub.add_argument("--significance", help="per-test significance level in (0, 1)")
    sub.add_argument("--min-segment", dest="min_segment", help="min observations per segment")
    sub.add_argument("--permutations", help="permutation count for threshold calibration")
    sub.add_argument("--linkage", choices=[m.value for m in Linkage], help="linkage rule")
    sub.add_argument("--k", help="cluster count, or 'auto' for the eigengap choice")
    sub.add_argument("--seed", help="seed for detection and clustering")
    sub.add_argument("--out", help="output directory")


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stepdist",
        description="Change-point step-function embeddings and L^p analysis of time series collections.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    run = subs.add_parser("run", help="full matrix and clustering analysis of a series CSV")
    _add_common_options(run)
    run.add_argument("--series", help="wide CSV: timestamp column plus one column per series")
    run.add_argument("--metadata", help="station CSV: id,lat_deg,lon_deg (enables consistency analysis)")

    cmp_ = subs.add_parser("compare-metrics", help="break-set metrics vs the step-function distance")
    _add_common_options(cmp_)
    cmp_.add_argument("--series", help="wide series CSV (default: the committed benchmark suite)")

    suite = subs.add_parser("export-suite", help="write the committed benchmark suite to disk")
    suite.add_argument("--out", required=True, help="output directory")
    suite.add_argument("--seed", type=int, default=SUITE_SEED, help="suite seed")
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = _make_parser().parse_args(argv)
    try:
        if args.command == "export-suite":
            export_suite(args.out, args.seed)
            return 0
        config = _build_config(args)
        if args.command == "run":
            run_analysis(config)
        else:
            compare_metrics(config)
        return 0
    except (InputError, OSError, UnicodeDecodeError) as exc:  # UnicodeDecodeError is a ValueError
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except (StepDistError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
