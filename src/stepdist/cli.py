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
from .errors import InputError, StepDistError, not_utf8
from .pipeline import PipelineConfig, compare_metrics, run_analysis
from .synthetic import SUITE_SEED, export_suite


def _parse_k(text: str) -> int | None:
    return None if text.strip().lower() in ("auto", "") else int(text)


# Every option of run and compare-metrics: its config key, which is also
# its flag's argparse dest (the flag is --<key> with - for _), mapped to the
# PipelineConfig field it sets, the parser of its text, its help and, for an
# enum option, the enum whose values are the flag's choices. Rows are in
# --help order; unset options keep the PipelineConfig defaults.
_OPTIONS = {
    "attribute": ("attribute", lambda text: Attribute(text.lower()), "segment statistic", Attribute),
    "p": ("p", float, "L^p exponent (>= 1, or 'inf')", None),
    "significance": ("significance", float, "per-test significance level in (0, 1)", None),
    "min_segment": ("min_segment", int, "min observations per segment", None),
    "permutations": ("permutations", int, "permutation count for threshold calibration", None),
    "linkage": ("linkage", lambda text: Linkage(text.lower()), "linkage rule", Linkage),
    "k": ("k", _parse_k, "cluster count, or 'auto' for the eigengap choice", None),
    "seed": ("seed", int, "seed for detection and clustering", None),
    "out": ("out_dir", str, "output directory", None),
    "series": ("series_path", str, "wide CSV: timestamp column plus one column per series", None),
    "metadata": ("metadata_path", str, "station CSV: id,lat_deg,lon_deg (enables consistency analysis)", None),
}


def _read_config_file(path, keys) -> dict[str, str]:
    """Key = value lines of a config file; ``-`` and ``_`` in keys are interchangeable."""
    values: dict[str, str] = {}
    with open(path, encoding="utf-8-sig") as fh:
        try:
            lines = list(fh)
        except UnicodeDecodeError:
            raise not_utf8(path) from None
    for lineno, raw in enumerate(lines, start=1):
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
    settings = {}
    for key, text in values.items():
        field, parse = _OPTIONS[key][:2]
        try:
            settings[field] = parse(text)
        except ValueError as exc:
            raise ValueError(f"bad value {text!r} for {key}: {exc}") from None
    return PipelineConfig(**settings)


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stepdist",
        description="Change-point step-function embeddings and L^p analysis of time series collections.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    run = subs.add_parser("run", help="full matrix and clustering analysis of a series CSV")
    cmp_ = subs.add_parser("compare-metrics", help="break-set metrics vs the step-function distance")
    # compare-metrics has no station metadata, and its series defaults to the benchmark suite.
    cmp_help = {"series": "wide series CSV (default: the committed benchmark suite)"}
    for sub, skip, own_help in ((run, (), {}), (cmp_, ("metadata",), cmp_help)):
        sub.add_argument("--config", help="flat key=value config file; flags override it")
        for key, (_, _, text, enum) in _OPTIONS.items():
            if key in skip:
                continue
            # Lowercased before argparse checks the choices: enum values are case-insensitive.
            choices = {"type": str.lower, "choices": [m.value for m in enum]} if enum else {}
            sub.add_argument("--" + key.replace("_", "-"), help=own_help.get(key, text), **choices)

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
    except (InputError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except (StepDistError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
