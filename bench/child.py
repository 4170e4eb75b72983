"""Fresh interpreter that makes the untraced run's calls.

Usage: python3 bench/child.py <workload> <config> <out dir> <calls>

Prints ``ready`` once collar (with numpy and scipy) is imported and the
config parsed; the parent times set-up from process start to that line.  It
then makes <calls> ``collar.cli.main`` calls one after another: the first is
this interpreter's cold call, the rest are warm.  The calibration kernel runs
after set-up and after each call, so every call has a kernel time on either
side.  Each call is checked outside its timed region.  The last line is JSON
with the kernel times, the per-call timings and outcomes, and the process's
peak resident memory.
"""

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def main() -> None:
    name, cfg, out, calls = sys.argv[1], sys.argv[2], Path(sys.argv[3]), int(sys.argv[4])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from collar import cli
    from collar.config import parse_config_file

    parse_config_file(cfg)
    print("ready", flush=True)
    # Imported only now, so set-up times collar's own imports and nothing else.
    import workloads
    from calibration import kernel_s

    argv = [workloads.WORKLOADS[name].kind, "--config", cfg, "--out", str(out)]
    results, kernel = [], [kernel_s()]
    for _ in range(calls):
        with contextlib.redirect_stdout(io.StringIO()):
            t0, c0 = time.perf_counter(), time.process_time()
            code = cli.main(argv)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        kernel.append(kernel_s())
        results.append({"wall_s": wall, "cpu_s": cpu, **workloads.outcome(name, code, out)})
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"kernel_s": kernel, "calls": results, "maxrss_kb": maxrss}), flush=True)


if __name__ == "__main__":
    main()
