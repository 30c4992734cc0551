"""The proxrestart bench: one command, three workloads, timed or traced.

    python3 perfbench/run.py --workload check_small --seed 0 --seconds 40 --trace 0

Run it from anywhere; it measures the package under ``src/`` of the
checkout it sits in. Each repeat runs the workload once in a fresh
process (``worker.py``) with BLAS threads capped at the CPUs this process
may use. Repeats follow each other until the next one would end after
``--seconds``; end-to-end figures are medians over repeats.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
traced and untraced repeats and prints the per-layer metrics, the traced
wall time, the tracing overhead (traced minus untraced wall time) and
``other.self_s``, the wall time no layer span covers, so that the layer
self times plus ``other`` sum to the traced wall time.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``attempted`` counts
solver cells over all repeats (the ``ops`` metric), ``failed`` the cells
that failed a check or whose output digest differs from the other
repeats' (``ops_failed``). The bench never stops on a wrong output.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: every run, repeats included, ends within this many seconds
TIME_LIMIT_S = 170.0
#: time of the worker's host-speed kernel at the reference speed (about
#: its typical time on the 2-vCPU host the bench was defined on)
SPEED_REF_S = 0.0005
#: share of the fastest host-speed samples that set a repeat's speed; the
#: slowest ones are kernels that were themselves held up, and they swing
#: the plain mean as much as the host does
SPEED_KEEP = 0.8
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
REQUIRED = ("src/proxrestart/__init__.py", "configs/check.yaml", "configs/example.yaml")


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.exists():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _llc() -> str:
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        best = max((int((d / "level").read_text()), (d / "size").read_text().strip())
                   for d in caches.glob("index*"))
        return f"L{best[0]} {best[1]}"
    except (OSError, ValueError):
        return "unknown"


def _run_repeat(workload, input_path, run_dir, k, traced, timeout):
    """Run one repeat; return its report with ``wall_s`` filled in, or an error string."""
    out_dir = run_dir / f"out{k}"
    report_path = run_dir / f"report{k}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--input", str(input_path), "--out", str(out_dir), "--report", str(report_path)]
    if traced:
        cmd.append("--trace")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    began = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        _, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return f"repeat {k} exceeded the time limit and was stopped"
    finally:
        if proc.poll() is None:  # time limit, or run.py itself is stopping
            proc.kill()
            proc.communicate()
    elapsed = time.perf_counter() - began
    if proc.returncode != 0 or not report_path.exists():
        tail = err.decode(errors="replace").strip().splitlines()[-5:]
        return f"repeat {k} exited {proc.returncode}: " + " | ".join(tail)
    report = json.loads(report_path.read_text())
    report["wall_s"] = elapsed - report["bench_s"]
    samples = sorted(report["speed_samples_s"])
    fastest = samples[:max(1, int(SPEED_KEEP * len(samples)))]
    report["speed"] = SPEED_REF_S / statistics.fmean(fastest) if samples else 1.0
    report["traced"] = traced
    return report


def _prepare_input(workload, seed, run_dir):
    import workloads

    if workload != "sparse_large":
        return ROOT / workloads.CONFIGS[workload]
    path = run_dir / "instance.libsvm"
    path.write_text(workloads.sparse_instance_text(seed), encoding="utf-8")
    return path


def _count_failures(reports):
    """Cells attempted and failed, digest mismatches included."""
    attempted = sum(r["cells"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    digest = collections.Counter(r["digest"] for r in reports).most_common(1)[0][0]
    for r in reports:
        if r["digest"] != digest:
            failed += r["cells"] - r["failed"]
            r["notes"].append(f"output digest {r['digest'][:16]} differs from the other repeats")
    return attempted, failed, digest


def _summarise(reports, trace):
    """Medians over repeats of every metric the mode reports."""
    import metrics

    untraced = [r for r in reports if not r["traced"]]
    if not trace:
        # Times are scaled to the reference host speed, repeat by repeat.
        values = {
            "wall_s": [r["wall_s"] * r["speed"] for r in untraced],
            "setup_s": [r["end_to_end"]["setup_s"] * r["speed"] for r in untraced],
            "us_per_iter": [r["end_to_end"]["us_per_iter"] * r["speed"] for r in untraced],
            "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
        }
        return {name: (statistics.median(values[name]), unit) for name, unit in metrics.END_TO_END.items()}

    # All per-layer figures come from one traced repeat, the one with the
    # median wall time, so its layer self times and ``other`` add up to it.
    traced = sorted((r for r in reports if r["traced"]), key=lambda r: r["wall_s"])
    middle = traced[(len(traced) - 1) // 2]
    values = dict(middle["per_layer"])
    values["other.self_s"] = middle["wall_s"] - metrics.layer_self_total(values)
    values["trace.wall_s"] = middle["wall_s"]
    values["trace.overhead_s"] = middle["wall_s"] - statistics.median(r["wall_s"] for r in untraced)
    return {name: (values[name], unit) for name, unit in metrics.PER_LAYER.items()}


def _print_report(args, reports, digest, attempted, failed, summary):
    import workloads

    versions = reports[0]["versions"]
    recorded = json.loads((HERE / "digests.json").read_text()).get(args.workload)
    if isinstance(recorded, dict):  # seeded inputs: one digest per seed
        recorded = recorded.get(str(args.seed))
    verdict = "not recorded" if recorded is None else ("matches" if recorded == digest else "DIFFERS from")
    walls = ", ".join(f"{r['wall_s']:.3f}{'T' if r['traced'] else ''}" for r in reports)
    speeds = ", ".join(f"{r['speed']:.3f}" for r in reports)
    print(f"proxrestart bench  workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"environment  nproc={len(os.sched_getaffinity(0))} "
          f"blas_threads={os.environ['OMP_NUM_THREADS']} python={sys.version.split()[0]} "
          f"numpy={versions['numpy']} scipy={versions['scipy']} proxrestart={versions['proxrestart']} "
          f"commit={_git_commit()} llc={_llc()}")
    if args.workload == "sparse_large":
        print(f"working set (computed)  {workloads.sparse_working_set_bytes() / 1e6:.2f} MB")
    print(f"repeats  {len(reports)}  raw wall seconds per repeat (T = traced): {walls}")
    print(f"host speed per repeat (1 = reference; traced repeats are not scaled): {speeds}")
    if not args.trace:
        raw = {"wall_s": [r["wall_s"] for r in reports],
               "setup_s": [r["end_to_end"]["setup_s"] for r in reports],
               "us_per_iter": [r["end_to_end"]["us_per_iter"] for r in reports]}
        print("unscaled medians  " + "  ".join(f"{k}={statistics.median(v)!r}" for k, v in raw.items()))
    print(f"digest  sha256={digest}  {verdict} perfbench/digests.json")
    if args.trace:
        for row in next(r for r in reports if r["traced"])["cell_rows"]:
            ratio = row["matvecs"] / row["iters"] if row["iters"] else 0.0
            print(f"cell  {row['label']:40s} iters={row['iters']:6d} matvecs={row['matvecs']:7d} "
                  f"matvecs/iter={ratio!r}")
    for name, (value, unit) in summary.items():
        print(f"{name:48s} {value!r} {unit}")
    print(f"{'ops':48s} {attempted} count")
    print(f"{'ops_failed':48s} {failed} count")
    for r in reports:
        for note in r["notes"]:
            print(f"note  {note}")


def _stop(signum, frame):
    sys.exit(128 + signum)  # unwinds through the finally blocks that stop the worker


def main(argv=None) -> int:
    started = time.perf_counter()
    signal.signal(signal.SIGTERM, _stop)
    nproc = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:  # before numpy is imported, here and in every worker
        os.environ[var] = nproc
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    missing = [p for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        print(f"perfbench: not a proxrestart checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    run_dir = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        input_path = _prepare_input(args.workload, args.seed, run_dir)
        reports = []
        measuring = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(reports) % 2 == 0
            timeout = TIME_LIMIT_S - (time.perf_counter() - started)
            before = time.perf_counter()
            report = _run_repeat(args.workload, input_path, run_dir, len(reports), traced, timeout)
            if isinstance(report, str):
                print(f"perfbench: {report}", file=sys.stderr)
                return 1
            reports.append(report)
            took = time.perf_counter() - before
            both_modes = not args.trace or len(reports) >= 2
            if both_modes and time.perf_counter() - measuring + took > args.seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass  # another run is still using it

    attempted, failed, digest = _count_failures(reports)
    summary = _summarise(reports, args.trace)
    _print_report(args, reports, digest, attempted, failed, summary)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in summary.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
