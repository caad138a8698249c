"""One benchmark run of one workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --tmp DIR --result FILE

A single client issues ops back to back (closed loop) through
``switchbif.cli.main`` until S seconds have passed, after one untimed
warm-up op.  Each op writes into its own directory under DIR.  The
workload's reference kernel (``reference.py``) is timed before the
first op and after every op; each op's time divided by the kernel
times around it gives its time at the nominal machine speed.  After
the timed region the peak RSS is read, every op's output is verified,
and a negative self-test checks that the verifier rejects a corrupted
copy of one output.  The result is written to FILE as JSON.  With
``--trace 1`` the package's public functions are wrapped first, three
calibration ops follow the timed loop, and the spans are written to
DIR/spans.json.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import switchbif
from switchbif import cli

import reference
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


def run_op(op, op_dir: Path) -> dict:
    """Run one op; returns its wall time, exit status and output dir."""
    op_dir.mkdir(parents=True)
    config = op_dir / "config.json"
    out = op_dir / "out"
    if op.config is not None:
        config.write_text(op.config, encoding="utf-8")
    argv = [a.replace(workloads.CONFIG, str(config)).replace(workloads.OUT, str(out))
            for a in op.argv]
    sink = io.StringIO()
    error = None
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(argv)
    except SystemExit as exc:   # argparse rejects its arguments this way
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:   # an uncaught program error fails the op, not the run
        rc, error = None, f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - t0
    if rc != 0 and error is None:
        error = f"exit code {rc}: {sink.getvalue().strip()[-300:]}"
    return {"seconds": seconds, "error": error, "out": out,
            "stdout_bytes": len(sink.getvalue().encode())}


def verify_op(op, out: Path) -> list[str]:
    """Problems in one op's output, found by the verifier of its subcommand."""
    import verify   # imports scipy, so only after the timed loop and peak RSS
    command = op.argv[1] if op.argv[0] == "paper-example" else op.argv[0]
    if command == "branch":
        return verify.verify_branch(out, op.check, workloads.PAPER)
    if command == "poincare":
        return verify.verify_return(out, op.check, workloads.PAPER)
    if command == "simulate":
        return verify.verify_trajectory(out, op.check)
    return verify.verify_global(out, op.check)


def corrupt(workload: str, out: Path) -> None:
    """Damage one number the verifier must catch: the first amplitude
    (+1%), the first event time (+1e-2) or samples_used (+1)."""
    if workload == "global-check":
        path = out / "global_check.json"
        doc = json.loads(path.read_text())
        doc["samples_used"] += 1
        path.write_text(json.dumps(doc))
        return
    path = out / f"{workload}.csv"
    lines = path.read_text().splitlines(keepends=True)
    if workload == "branch":
        row, col, change = 2, 1, lambda v: v * 1.01
    else:
        row = next(i for i, ln in enumerate(lines) if ln.rstrip().endswith(",1"))
        col, change = 0, lambda v: v + 1e-2
    cells = lines[row].split(",")
    cells[col] = repr(change(float(cells[col])))
    lines[row] = ",".join(cells)
    path.write_text("".join(lines))


def tail(times_ms: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least 10 ops
    above it: the 11th-slowest op, by nearest rank.  With 10 or fewer
    ops, the slowest op (percentile 100)."""
    n = len(times_ms)
    if n <= 10:
        return times_ms[-1], 100.0
    return times_ms[n - 11], 100.0 * (n - 10) / n


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.STREAMS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args()

    src = (ROOT / "src").resolve()
    if src not in Path(switchbif.__file__).resolve().parents:
        print(f"switchbif was imported from {switchbif.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    tracer = tracing.Tracer.install() if args.trace else None

    stream = workloads.STREAMS[args.workload]
    run_op(next(stream(-1 - args.seed)), args.tmp / "warmup")

    ops = stream(args.seed)
    kind = workloads.REFERENCE[args.workload]
    reference.measure(kind)   # warm-up
    done = []
    t_start = perf_counter()
    ref_before = reference.measure(kind)
    for k in itertools.count():
        if perf_counter() - t_start >= args.seconds:
            break
        op = next(ops)
        if tracer is not None:
            tracer.op = k
        rec = run_op(op, args.tmp / f"op{k}")
        if tracer is not None:
            tracer.op = None
        ref_after = reference.measure(kind)
        rec["norm_seconds"] = reference.normalize(rec["seconds"], (ref_before + ref_after) / 2)
        ref_before = ref_after
        done.append((op, rec))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    probe = None
    if args.workload == "branch":
        rec = run_op(workloads.DEFECT_PROBE, args.tmp / "defect-probe")
        probe = rec["error"] or "; ".join(verify_op(workloads.DEFECT_PROBE, rec["out"]))

    calib = {}
    if tracer is not None:
        for name, op in workloads.CALIBRATION.items():
            tracer.op = name
            calib[name] = run_op(op, args.tmp / name)
            tracer.op = None

    # failed: ops that exited non-zero, raised, or whose output is wrong;
    # correct: every output produced, the calibration and the self-test verify
    failed, wrong_outputs, failures, checks = 0, 0, [], []
    bytes_out = 0
    for k, (op, rec) in enumerate(done):
        problems = [] if rec["error"] else verify_op(op, rec["out"])
        if rec["error"] or problems:
            failed += 1
            failures.append(f"op {k} {' '.join(op.argv)}: {rec['error'] or '; '.join(problems)}")
            wrong_outputs += bool(problems)
        bytes_out += rec["stdout_bytes"] + sum(
            p.stat().st_size for p in rec["out"].glob("*") if p.is_file())
    for name, rec in calib.items():
        problems = ([rec["error"]] if rec["error"]
                    else verify_op(workloads.CALIBRATION[name], rec["out"]))
        checks += [f"{name}: {p}" for p in problems]

    # negative self-test: a corrupted copy of the first good output must fail
    selftest_ok = False
    good = next(((op, rec) for op, rec in done if not rec["error"]), None)
    if good is not None:
        damaged = args.tmp / "selftest"
        shutil.copytree(good[1]["out"], damaged)
        corrupt(args.workload, damaged)
        selftest_ok = bool(verify_op(good[0], damaged))
    if not selftest_ok:
        checks.append("self-test: the verifier accepted a corrupted output")
    failures += checks

    n = len(done)
    times_ms = sorted(1e3 * rec["seconds"] for _, rec in done)
    norm_ms = sorted(1e3 * rec["norm_seconds"] for _, rec in done)
    tail_ms, tail_p = tail(times_ms)
    result = {
        "attempted": n,
        "failed": failed,
        "failures": failures,
        "correct": wrong_outputs == 0 and not checks,
        "selftest_ok": selftest_ok,
        "reference": kind,
        "ops_per_s": 1e3 * n / sum(times_ms),
        "op_ms_p50": statistics.median(times_ms),
        "op_ms_tail": tail_ms,
        "tail_percentile": tail_p,
        "ops_per_s_norm": 1e3 * n / sum(norm_ms),
        "op_ms_p50_norm": statistics.median(norm_ms),
        "op_ms_tail_norm": tail(norm_ms)[0],
        "peak_rss_mb": peak_rss_mb,
        "bytes_out_per_op": bytes_out / max(1, n),
        "defect_probe": probe,
    }
    if tracer is not None:
        tracer.dump(args.tmp / "spans.json")
        with open(args.tmp / "spans.json", encoding="utf-8") as fh:
            spans = json.load(fh)["spans"]
        layers = tracing.layer_metrics(spans, range(n), tracer.rhs_hook)
        layers["cli.bytes_out_per_op"] = (result["bytes_out_per_op"], "B/op")
        layers.update(tracing.calibration_counters(spans, tracer.rhs_hook))
        result["layers"] = layers
        result["missing_hooks"] = tracer.missing + ([] if tracer.rhs_hook else [
            "numeric._compiled_fields (RHS-eval counters read null)"])
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
