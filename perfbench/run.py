"""switchbif benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload branch|trajectory|global-check
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
its ``src`` directory, nothing is installed.  The run

1. measures set-up time: ``import switchbif.cli`` plus the first
   ``paper_example_config()``, in fresh processes: one warm-up, then
   five before and five after the workload, reporting the median.  Each
   probe also times the ``python`` reference kernel and scales its
   set-up time to the nominal machine speed (``reference.py``);
2. runs the workload in a fresh single-threaded worker process
   (``worker.py``), which times ops for S seconds and then verifies
   every output.  Op times are reported at the nominal machine speed;
   the wall-clock figures are printed on a line of their own;
3. with ``--trace 1``, skips step 1, runs a second, traced worker and
   reports the per-layer metrics, the calibration counters and the
   tracing overhead instead of the end-to-end metrics.

Human-readable lines come first; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
Program outputs go to a temporary directory under ``.perfbench_tmp/``
that is removed at the end.  Exits non-zero without a result if the
source tree is missing or a worker does not finish.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("branch", "trajectory", "global-check")
SETUP_PROBES = 5
#: a run must end within 180 s; leave room for start-up and reporting
DEADLINE_S = 170.0

_SETUP_PROBE = """\
import json, statistics, sys, time
t0 = time.perf_counter()
import switchbif.cli
from switchbif.config import paper_example_config
paper_example_config()
t1 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import reference
ref = statistics.median(reference.measure("python") for _ in range(3))
print(json.dumps({"setup_s": reference.normalize(t1 - t0, ref), "raw_s": t1 - t0,
                  "module": switchbif.cli.__file__}))
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def measure_setup(count: int, deadline: float) -> list[tuple[float, float]]:
    """(normalized, raw) set-up times of ``count`` fresh processes."""
    times = []
    src = ROOT / "src"
    for _ in range(count):
        proc = subprocess.run([sys.executable, "-c", _SETUP_PROBE, str(HERE)], env=child_env(),
                              cwd=ROOT, capture_output=True, text=True, check=True,
                              timeout=max(1.0, deadline - monotonic()))
        probe = json.loads(proc.stdout.splitlines()[-1])
        if src.resolve() not in Path(probe["module"]).resolve().parents:
            raise RuntimeError(f"switchbif imported from {probe['module']}, not {src}")
        times.append((probe["setup_s"], probe["raw_s"]))
    return times


def run_worker(args, trace: int, tmp: Path, deadline: float) -> dict:
    work = tmp / f"trace{trace}"
    result = tmp / f"result{trace}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace), "--tmp", str(work), "--result", str(result)]
    subprocess.run(cmd, env=child_env(), cwd=ROOT, check=True,
                   timeout=max(1.0, deadline - monotonic()))
    return json.loads(result.read_text())


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = monotonic() + DEADLINE_S

    if not (ROOT / "src" / "switchbif" / "cli.py").is_file():
        print(f"perfbench: no switchbif source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2

    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        # the first probe is a warm-up (it also writes the bytecode caches)
        setup = [] if args.trace else measure_setup(1 + SETUP_PROBES, deadline)[1:]
        runs = [run_worker(args, 0, tmp, deadline)]
        if args.trace:
            runs.append(run_worker(args, 1, tmp, deadline))
        else:
            setup += measure_setup(SETUP_PROBES, deadline)
    except (subprocess.SubprocessError, RuntimeError, OSError, ValueError) as exc:
        print(f"perfbench: run failed: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if tmp.parent.is_dir() and not any(tmp.parent.iterdir()):
            tmp.parent.rmdir()

    res = runs[-1]
    failures = [f for r in runs for f in r["failures"]]
    for f in failures[:20]:
        print(f"FAIL {f}")
    print(f"{args.workload} seed={args.seed}: {res['attempted']} ops, "
          f"{res['failed']} failed (fail_frac {res['failed'] / res['attempted']:.4g}), "
          f"op_ms_tail is p{res['tail_percentile']:.1f} of {res['attempted']} ops, "
          f"self-test {'ok' if res['selftest_ok'] else 'FAILED'}")
    print(f"wall clock, not normalized: ops_per_s {res['ops_per_s']:.4g}, "
          f"op_ms_p50 {res['op_ms_p50']:.4g}, op_ms_tail {res['op_ms_tail']:.4g}"
          + (f", setup_s {statistics.median(raw for _, raw in setup):.4g}" if setup else "")
          + f"; reference kernel: {res['reference']}")
    if res["defect_probe"] is not None:
        probe = " ".join(workloads.DEFECT_PROBE.argv[:3])
        print(f"known defect: {probe}: {res['defect_probe']}" if res["defect_probe"]
              else f"known defect fixed: {probe} succeeds and verifies")

    if args.trace:
        untraced = runs[0]["ops_per_s_norm"]
        metrics = {name: metric(v, unit) for name, (v, unit) in res["layers"].items()}
        metrics["trace.untraced_ops_per_s"] = metric(untraced, "1/s")
        metrics["trace.traced_ops_per_s"] = metric(res["ops_per_s_norm"], "1/s")
        metrics["trace.overhead"] = metric(untraced / res["ops_per_s_norm"], "ratio")
        for name in res["missing_hooks"]:
            print(f"hook missing: {name}")
    else:
        metrics = {
            "setup_s": metric(statistics.median(norm for norm, _ in setup), "s"),
            "ops_per_s_norm": metric(res["ops_per_s_norm"], "1/s"),
            "op_ms_p50_norm": metric(res["op_ms_p50_norm"], "ms"),
            "op_ms_tail_norm": metric(res["op_ms_tail_norm"], "ms"),
            "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
        }
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']!s:>24} {m['unit']}")
    print(json.dumps({"correct": all(r["correct"] for r in runs),
                      "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
