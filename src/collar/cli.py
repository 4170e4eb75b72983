"""Command-line entry point: ``collar <subcommand> --config <path>``.

Subcommands match the experiment kinds, plus ``validate``, which builds what
the run builds (its members, barriers and duality source) without stepping,
so it exits 2 on every config the run rejects, then writes the hypothesis
report to ``hypothesis.json`` and exits 1 when a core hypothesis fails.
Exit codes: 0 all verdicts pass, 1 a verdict failed, 2 configuration error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

# collar's BLAS and LAPACK work is tridiagonal solves and small products, which
# one thread does best; OpenBLAS worker threads only spin beside it.  OpenBLAS
# reads this when numpy loads, so it is set before anything imports numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .config import EXPERIMENT_KINDS, parse_config_file
from .errors import CollarError, ConfigError
from .experiments import (
    EXIT_CONFIG_ERROR,
    EXIT_NUMERICAL_ERROR,
    _hypotheses,
    _models,
    _write_json,
    run_experiment,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collar",
        description="degenerate-diffusion laboratory: solves, barriers, duality checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in EXPERIMENT_KINDS + ("validate",):
        p = sub.add_parser(kind, help=f"run a {kind} experiment" if kind != "validate"
                           else "build what the run builds without stepping (exit 2 on "
                           "every config the run rejects) and write hypothesis.json "
                           "(exit 1 if a core hypothesis fails)")
        p.add_argument("--config", required=True, help="path to the experiment config")
        p.add_argument("--out", default=None, help="output directory (default ./out)")
    return parser


# Built once at import: construction looks up gettext translations, which
# imports ``locale``, so a first call would otherwise pay for it.
_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        cfg = parse_config_file(args.config)
        # validate builds what the run builds first, so both reject the same configs.
        report = _hypotheses(_models(cfg)) if args.command == "validate" else None
    except (OSError, UnicodeDecodeError) as exc:
        print(f"config error: cannot read {args.config}: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except CollarError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_ERROR

    if args.command != "validate" and cfg.kind != args.command:
        print(
            f"config declares experiment kind {cfg.kind!r} but subcommand is "
            f"{args.command!r}",
            file=sys.stderr,
        )
        return EXIT_CONFIG_ERROR

    out = Path(args.out or "out")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"config error: cannot create output directory {out}: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    if args.command == "validate":
        payload = asdict(report)
        _write_json(out / "hypothesis.json", payload)
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0 if report.core_ok else 1

    code = run_experiment(cfg, out)
    report_path = out / "report.json"
    if report_path.exists():
        print(report_path)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
