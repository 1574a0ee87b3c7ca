"""Command-line front end: run experiments, single diagnostics, the canned
suite, and power-law fits; errors leave as JSON on stderr."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

from .errors import ConfigError, ToolkitError
from .geometry import resonant_triad
from .harness import (
    DiagnosticSpec,
    ExperimentConfig,
    fit_decay,
    run_experiment,
    run_theorem_suite,
)


def _load_config(args) -> ExperimentConfig:
    if not args.config:
        raise ConfigError("--config is required for this subcommand")
    cfg = ExperimentConfig.from_json(Path(args.config).read_text())
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def _restrict(cfg: ExperimentConfig, kind: str) -> ExperimentConfig:
    """Keep only diagnostics of one kind, adding a default one if absent."""
    kept = tuple(d for d in cfg.diagnostics if d.kind == kind)
    if not kept:
        kept = (DiagnosticSpec(kind),)
    return dataclasses.replace(cfg, diagnostics=kept)


def _cmd_evolve(args) -> None:
    out = run_experiment(_load_config(args), args.out)
    print(json.dumps({"out_dir": str(out)}))


def _make_diag_cmd(kind: str):
    def cmd(args) -> None:
        out = run_experiment(_restrict(_load_config(args), kind), args.out)
        print(json.dumps({"out_dir": str(out), "diagnostic": kind}))
    return cmd


def _cmd_resonances(args) -> None:
    tr = resonant_triad(args.xi1, args.xi2, args.eta1, args.branch)
    print(json.dumps({
        "k1": tr.k1, "k2": tr.k2, "k3": tr.k3,
        "omegas": tr.omegas, "residual": tr.residual,
    }))


def _cmd_fit_decay(args) -> None:
    def number(r: dict, row: int, col: str) -> float:  # row 1 is the header
        try:
            return float(r[col])
        except (TypeError, ValueError):
            raise ConfigError(f"{args.csv}: row {row}, column {col!r}: "
                              f"{r[col]!r} is not a number") from None
    with open(args.csv, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ConfigError(f"{args.csv}: missing CSV header")
        if args.tcol not in reader.fieldnames or args.vcol not in reader.fieldnames:
            raise ConfigError(
                f"columns {args.tcol!r}/{args.vcol!r} not in {reader.fieldnames}")
        series = [(number(r, row, args.tcol), number(r, row, args.vcol))
                  for row, r in enumerate(reader, start=2) if r[args.vcol] != ""]
    window = (args.tmin if args.tmin is not None else -math.inf,
              args.tmax if args.tmax is not None else math.inf)
    fit = fit_decay(series, window)
    print(json.dumps({
        "exponent": fit.exponent, "prefactor": fit.prefactor,
        "residual_rms": fit.residual_rms,
        "window": [fit.window[0], fit.window[1]],
    }))


def _cmd_theorem_suite(args) -> None:
    results = run_theorem_suite(args.out or "theorem_suite_out",
                                scale=args.scale,
                                only=args.only or None)
    print(json.dumps({k: str(v) for k, v in results.items()}))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kpwave",
        description="Pseudo-spectral simulator and asymptotics diagnostics "
                    "for a fifth-order-free dispersive model with transverse "
                    "dispersion (third-order x, inverse-x transverse term).")
    ap.add_argument("--config", help="experiment config JSON path")
    ap.add_argument("--out", help="output directory override")
    ap.add_argument("--seed", type=int, help="random seed override")
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("evolve", help="run the configured experiment"
                   ).set_defaults(func=_cmd_evolve)
    for kind in DiagnosticSpec.KINDS:
        sub.add_parser(kind, help=f"run the experiment with only its {kind} diagnostic"
                       ).set_defaults(func=_make_diag_cmd(kind))

    rp = sub.add_parser("resonances", help="solve a three-wave resonance")
    rp.add_argument("--xi1", type=float, default=1.0)
    rp.add_argument("--xi2", type=float, default=1.0)
    rp.add_argument("--eta1", type=float, default=math.sqrt(3.0))
    rp.add_argument("--branch", type=int, default=1, choices=(1, -1))
    rp.set_defaults(func=_cmd_resonances)

    fp = sub.add_parser("fit-decay", help="power-law fit of a CSV column")
    fp.add_argument("csv", help="input CSV with a header row")
    fp.add_argument("--tcol", default="t[code-units]")
    fp.add_argument("--vcol", required=True)
    fp.add_argument("--tmin", type=float)
    fp.add_argument("--tmax", type=float)
    fp.set_defaults(func=_cmd_fit_decay)

    tp = sub.add_parser("theorem-suite", help="run the canned experiment set")
    tp.add_argument("--scale", type=float, default=1.0,
                    help="shrink factor for grids and horizons (smoke runs)")
    tp.add_argument("--only", action="append",
                    help="run only the named experiment (repeatable)")
    tp.set_defaults(func=_cmd_theorem_suite)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        args.func(args)
    except ToolkitError as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)},
                  sys.stderr)
        sys.stderr.write("\n")
        return 2
    except OSError as exc:
        json.dump({"error": "OSError", "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
