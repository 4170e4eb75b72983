"""Regenerate bench/reference.json: the default seed's data artifacts per workload.

Usage, from the repository root: python3 bench/make_reference.py

Run it only when a change is meant to alter the artifacts, and say so in the
change; the benchmark compares every default-seed run against this file.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from collar import cli  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    reference = {}
    with tempfile.TemporaryDirectory(dir=BENCH.parent) as tmp:
        for name, w in workloads.WORKLOADS.items():
            work = Path(tmp) / name
            cfg = workloads.write_inputs(name, workloads.DEFAULT_SEED, work)
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([w.kind, "--config", str(cfg), "--out", str(work / "out")])
            problems = workloads.outcome(name, code, work / "out")["problems"]
            if problems:
                raise SystemExit(f"{name}: {problems}")
            reference[name] = workloads.artifact_fingerprints(name, work / "out")
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
