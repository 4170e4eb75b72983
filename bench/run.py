"""Benchmark for collar: three workloads through the real CLI entry point.

Usage, from the repository root:

    python3 bench/run.py --workload family-heat --seed 0 --seconds 36 --trace 0

Every call is ``collar.cli.main([<kind>, "--config", <cfg>, "--out", <dir>])``
on inputs generated from ``--seed`` into ``.bench_out/``, in a closed loop:
one caller, one call at a time, one process.  ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` is the separate traced run
that gives the per-layer metrics and the tracing overhead.  The untraced run
starts fresh interpreters one after another; each times its set-up, its first
(cold) call and a warm call after it.  Every timing is scaled to a reference
host speed by a calibration kernel timed on either side of it
(``calibration.py``) and reported as the median of the run's samples.

Every call is checked: exit code, expected verdicts, and data artifacts
present and byte-identical across the run's calls.  One more, untimed call on
the default seed's inputs is checked against the committed reference
artifacts.  Any miss makes the run exit non-zero.  The last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from calibration import kernel_s, scale
from layers import layer_sweep
from tracing import ROOT_SPAN, Hooks, Tracer, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_ROOT = ROOT / ".bench_out"

# Calls per fresh interpreter in the untraced run: one cold, then warm ones.
CALLS_PER_PROCESS = 2
MIN_PROCESSES = 3
MIN_CALLS = 3
# Share of --seconds spent on alternating untraced/traced calls in the traced
# run; the rest goes to the layer sweep.
TRACE_SHARE = 0.8
CHILD_TIMEOUT_S = 150


class Checker:
    """Counts calls and failures; a call fails on any expected-outcome miss."""

    def __init__(self, name: str):
        self.name = name
        self.first_digest = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, code: int, out: Path) -> None:
        self.record(workloads.outcome(self.name, code, out))

    def record(self, outcome: dict) -> None:
        problems = list(outcome["problems"])
        if not problems:
            if self.first_digest is None:
                self.first_digest = outcome["digest"]
            elif outcome["digest"] != self.first_digest:
                problems.append("data artifacts differ from the first call's")
        self.count(problems)

    def count(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"call {self.attempted}: {p}" for p in problems]

    def fail(self, problem: str) -> None:
        self.count([problem])


class Runner:
    def __init__(self, cli, kind: str, cfg: Path, out: Path, checker: Checker):
        self.cli, self.kind, self.cfg, self.out, self.checker = cli, kind, cfg, out, checker
        self.argv = [kind, "--config", str(cfg), "--out", str(out)]

    def warm_call(self, entry=None) -> tuple[float, float]:
        """One in-process call, checked; returns (wall seconds, CPU seconds)."""
        entry = entry or self.cli.main
        with contextlib.redirect_stdout(io.StringIO()):
            t0, c0 = time.perf_counter(), time.process_time()
            code = entry(self.argv)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        self.checker.check(code, self.out)
        return wall, cpu

    def fresh_process(self) -> dict | None:
        """Set-up, a cold call and a warm call in a fresh interpreter; None if it failed."""
        cmd = [sys.executable, str(BENCH / "child.py"), self.checker.name, str(self.cfg),
               str(self.out), str(CALLS_PER_PROCESS)]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            try:
                ready = proc.stdout.readline()
                setup = time.perf_counter() - t0
                rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                self.checker.fail(f"fresh interpreter ran over {CHILD_TIMEOUT_S} s")
                return None
        lines = rest.strip().splitlines()
        if proc.returncode != 0 or ready.strip() != "ready" or not lines:
            self.checker.fail(f"fresh interpreter exited with {proc.returncode}")
            return None
        result = json.loads(lines[-1])
        for call in result["calls"]:
            self.checker.record(call)
        return {"setup_s": setup, **result}


def _median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def _tail(samples) -> dict:
    """Highest whole percentile of the samples with at least ten beyond it, with n.

    None stands for the value when no such percentile reaches the median: a
    lower one is no tail.
    """
    n = len(samples)
    pct = int(100 * (1 - 10 / n)) if n > 10 else 0
    value = None
    if pct >= 50:
        value = statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]
    return {"seconds": value, "percentile": pct if value is not None else None, "n": n}


def _untraced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    # Fresh interpreters one after another, each with its own set-up, cold
    # call and warm call.  Every timed segment is scaled by the calibration
    # kernel's times on either side of it, so the host's swings in speed
    # cancel; the unscaled medians are recorded too.
    deadline = time.perf_counter() + seconds
    names = ("run_s", "cold_run_s", "setup_s", "cpu_s")
    scaled = {name: [] for name in names}
    unscaled = {name: [] for name in names}
    rss = []
    while len(rss) < MIN_PROCESSES or time.perf_counter() < deadline:
        before = kernel_s()
        proc = runner.fresh_process()
        if proc is None:
            break
        kernel = [before] + proc["kernel_s"]
        segments = [("setup_s", proc["setup_s"], 0)]
        for i, call in enumerate(proc["calls"]):
            segments.append(("run_s" if i else "cold_run_s", call["wall_s"], i + 1))
            if i:
                segments.append(("cpu_s", call["cpu_s"], i + 1))
        for name, value, k in segments:
            unscaled[name].append(value)
            scaled[name].append(value * scale(kernel[k], kernel[k + 1]))
        rss.append(proc["maxrss_kb"] / 1024.0)
    metrics = {name: (_median(scaled[name]), "s") for name in names}
    metrics["peak_rss_mb"] = (_median(rss), "MB")
    info = {"processes": len(rss), "warm_calls": len(scaled["run_s"]),
            "unscaled_s": {name: _median(unscaled[name]) for name in names}}
    return metrics, info


def _traced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    tracer = Tracer()
    hooks = Hooks(tracer)
    traced_main = tracer.wrap(ROOT_SPAN, runner.cli.main)

    deadline = time.perf_counter() + TRACE_SHARE * seconds
    runner.warm_call()
    plain, traced, stages, sizes = [], [], [], []
    while len(traced) < MIN_CALLS or time.perf_counter() < deadline:
        plain.append(runner.warm_call()[0])
        report = json.loads((runner.out / "report.json").read_text())
        stages.append(report.get("timings", {}))
        sizes.append(sum(p.stat().st_size for p in runner.out.iterdir() if p.is_file()))
        tracer.call_id = len(traced)
        hooks.install()
        try:
            traced.append(runner.warm_call(traced_main)[0])
        finally:
            hooks.remove()
    sweep, sweep_absent = layer_sweep((1.0 - TRACE_SHARE) * seconds)
    tracer.save(runner.out.parent / "spans.npz")

    metrics = layer_metrics(tracer, len(traced))
    metrics["experiments.artifact_bytes"] = (_median(sizes), "bytes")
    kinds = tuple(w.kind for w in workloads.WORKLOADS.values())
    for stage in ("build_models", "hypotheses") + kinds:
        metrics[f"experiments.stage.{stage}_s"] = (
            _median([s[stage] for s in stages if stage in s]), "s")
    for name, us in sweep.items():
        metrics[name] = (us, "us")
    metrics["trace.overhead_ratio"] = (_median(traced) / _median(plain), "ratio")
    metrics["trace.hooks_resolved"] = (len(hooks.resolved), "count")
    info = {
        "traced_calls": len(traced),
        "untraced_calls": len(plain),
        "run_s_tail": _tail(plain),
        "hooks_resolved": hooks.resolved,
        "hooks_absent": hooks.absent,
        "sweep_absent": sweep_absent,
        "spans": len(tracer.spans),
    }
    return metrics, info


def _reference_call(cli, workload, work: Path, checker: Checker) -> None:
    """One untimed call on the default seed's inputs, checked against bench/reference.json.

    It runs whatever --seed is, so every run checks the artifacts' values
    and precision, not only the expected verdicts.
    """
    cfg = workloads.write_inputs(workload.name, workloads.DEFAULT_SEED, work)
    out = work / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([workload.kind, "--config", str(cfg), "--out", str(out)])
    problems = workloads.outcome(workload.name, code, out)["problems"]
    if not problems:
        reference = json.loads((BENCH / "reference.json").read_text())[workload.name]
        fingerprints = workloads.artifact_fingerprints(workload.name, out)
        problems = [f"seed {workloads.DEFAULT_SEED}: {p}"
                    for p in workloads.reference_problems(fingerprints, reference)]
    checker.count(problems)


def _environment(workload, extra: dict) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "workload": workload.name,
        "nodes": workload.nodes,
        "members": workload.members,
        "steps_per_member": workload.steps_per_member,
        "steps": workload.members * workload.steps_per_member,
        **extra,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "collar" / "__init__.py").is_file():
        print(f"collar sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from collar import cli

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    work = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    cfg = workloads.write_inputs(args.workload, args.seed, work)

    checker = Checker(args.workload)
    runner = Runner(cli, workload.kind, cfg, work / "out", checker)

    if args.trace:
        metrics, info = _traced(runner, args.seconds)
        info["newton_iterations_per_call"] = metrics["solver.newton_iterations"][0]
    else:
        metrics, info = _untraced(runner, args.seconds)
    _reference_call(cli, workload, work / "reference", checker)
    env = _environment(workload, info)
    (work / "env.json").write_text(json.dumps(env, indent=2) + "\n")

    correct = checker.failed == 0
    for problem in checker.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_ratio = {checker.failed / max(checker.attempted, 1):.6g} ratio "
          f"({checker.failed} of {checker.attempted} calls)")
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
