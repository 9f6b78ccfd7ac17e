"""Benchmark of vtmigsim's three CLI workloads; see perfbench/README.md.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one table

Each workload runs in fresh worker processes (worker.py) with the BLAS
threads pinned to 1 and PYTHONHASHSEED fixed: with ``--trace 0`` four
set-up-only processes and one measuring process, with ``--trace 1`` one
measuring process that also traces. Call times are scaled to a reference host
speed (hostspeed.py) before the timing metrics are taken.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
of BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
The exit code is 0 when the correctness gate passed, 1 when it failed, and 2
when no result could be produced (for example without the program's sources).
A full record of each run, with the run's platform, sample counts and output
digests, is written to .perfbench_out/.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0
# One BLAS thread, and the same str hashes (so the same dict and set layouts)
# in every worker process.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "PYTHONHASHSEED": "0"}


class BenchError(Exception):
    """No result can be produced."""


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_worker(args, mode: str, work: str, deadline: float, spans_out: str = None) -> dict:
    os.makedirs(work, exist_ok=True)
    record = os.path.join(work, "record.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--mode", mode, "--work", work, "--record", record]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    if args.tiny:
        cmd.append("--tiny")
    log_path = os.path.join(work, "worker.log")
    with open(log_path, "w", encoding="utf-8") as log:
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
                                env={**os.environ, **PINNED})
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0:
        with open(log_path, encoding="utf-8") as log:
            tail = log.read()[-2000:]
        raise BenchError(f"{mode} worker {'timed out' if code is None else f'exited {code}'}:\n{tail}")
    with open(record, encoding="utf-8") as fh:
        return json.load(fh)


def git_sha() -> str:
    """HEAD of the checkout's own .git, or None outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              env={**os.environ, "GIT_DIR": os.path.join(ROOT, ".git")})
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_sha() -> str:
    """SHA-256 over the program's Python sources, in path order."""
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "vtmigsim")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            return next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        return None


def percentile_note(values: list) -> str:
    """The highest of p75/p90/p99 with at least ten samples beyond it."""
    for p in (99, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            return f"p{p}={statistics.quantiles(values, n=100)[p - 1]:.6g}"
    return "no percentile above p50 has 10 samples beyond it"


def cell_medians(calls: list, key: str) -> dict:
    """Per cell, the median of `key` over its calls."""
    by_cell = {}
    for c in calls:
        by_cell.setdefault(c["cell"], []).append(c[key])
    return {cell: statistics.median(v) for cell, v in sorted(by_cell.items())}


def bench(args, spec: dict) -> dict:
    """Run one workload; returns the result and the run record."""
    if not os.path.isfile(os.path.join(ROOT, "src", "vtmigsim", "__init__.py")):
        raise BenchError("no program sources at src/vtmigsim")
    deadline = time.monotonic() + TIME_LIMIT_S
    work = os.path.join(WORK_DIR, f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-s{args.seed}-t{args.trace}{'-tiny' * args.tiny}")
    try:
        setups = []
        if not args.trace:
            for i in range(SETUP_SAMPLES - 1):
                setups.append(run_worker(args, "setup", os.path.join(work, f"setup{i}"), deadline))
        measured = run_worker(args, "measure", os.path.join(work, "main"), deadline,
                              spans_out=stem + "-spans.npz" if args.trace else None)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    calls = measured["calls"]
    problems = [f"call {i}: {c['error']}" for i, c in enumerate(calls) if c["error"]]
    if any(s["input_sha256"] != measured["input_sha256"] for s in setups):
        problems.append("set-up inputs differ between processes with the same seed")
    ok = [c for c in calls if c["error"] is None]
    ops = measured["ops_per_run"]
    attempted = len(calls) * ops
    failed = (len(calls) - len(ok)) * ops
    timed = [c for c in ok if not c["traced"] and not c["warmup"]]
    op_s = {key: [c[key] / ops for c in timed] for key in ("wall_s", "ref_speed_s")}
    probed = [c["probe_s_p50"] for c in timed if c["probe_s_p50"] is not None]
    if args.trace:
        problems += [f"span never fired: {name}" for name in measured["spans_missing"]]
        if measured["range_violations"]:
            problems.append(f"{measured['range_violations']:.0f} vehicle-slots with T_total < 0 "
                            "or err_rate outside [0, 1)")
        values = measured.get("per_layer", {})
        samples = dict.fromkeys(values, sum(1 for c in ok if c["traced"]))
        metric_spec = spec["per_layer"]
    else:
        setup_samples = [s["setup_s"] for s in setups] + [measured["setup_s"]]
        values = {
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": measured["peak_rss_mb"],
        }
        if timed and measured["draws"]:
            values["op_ref_s_p50"] = statistics.median(c["ref_speed_s"] for c in timed) / ops
            values["work_per_ref_s"] = statistics.median(c["work"] / c["ref_speed_s"] for c in timed)
        elif timed:
            # Each cell's median, summed over the cells: a run weighs every
            # cell the same however many calls of it fit in the time.
            ref = cell_medians(timed, "ref_speed_s")
            values["op_ref_s_p50"] = sum(ref.values()) / (len(ref) * ops)
            values["work_per_ref_s"] = sum(cell_medians(timed, "work").values()) / sum(ref.values())
        samples = {"setup_s": len(setup_samples), "peak_rss_mb": 1,
                   "op_ref_s_p50": len(timed), "work_per_ref_s": len(timed)}
        metric_spec = spec["end_to_end"]
    missing = [m["name"] for m in metric_spec if m["name"] not in values]
    if missing and not problems:
        raise BenchError(f"metrics not produced: {missing}")
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in metric_spec}
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "git_sha": git_sha(),
        "source_sha256": source_sha(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        **measured["platform"],
        "load_model": "closed loop, one in-process caller, one cli.main call at a time",
        "op": f"op = {measured['op']}, {ops} per cli.main call; work = {measured['work']}",
        "failed_op_ratio": failed / attempted if attempted else 1.0,
        "problems": problems,
        "samples": samples,
        "percentiles": {f"{key} per op": f"p50={statistics.median(v):.6g} {percentile_note(v)}"
                        for key, v in op_s.items() if v},
        "probe_s_p50": statistics.median(probed) if probed else None,
        "setup_wall_s": [s["setup_wall_s"] for s in setups] + [measured["setup_wall_s"]],
        "probes": measured["probes"],
        "ref_probe_s": measured["ref_probe_s"],
        "output_stats": measured["stats"],
        "output_sha256": measured["digests"],
        "input_sha256": measured["input_sha256"],
        "calls": calls,
        "result": result,
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def print_record(record: dict) -> None:
    result = record["result"]
    print(f"{record['workload']} seed={record['seed']} trace={record['trace']} "
          f"correct={str(result['correct']).lower()} attempted={result['attempted']} "
          f"failed={result['failed']} failed_op_ratio={record['failed_op_ratio']:.6g} "
          f"[{record['op']}; nproc={record['nproc']}; blas_threads={record['blas_threads']}]")
    for problem in record["problems"]:
        print(f"  FAILED {problem}")
    for name, m in result["metrics"].items():
        print(f"  {name:46s} {m['value']:14.6g} {m['unit']:10s} n={record['samples'].get(name, 0)}")
    for name, note in record["percentiles"].items():
        print(f"  {name}: {note}")
    if record["probe_s_p50"] is not None:
        print(f"  host speed probe: {record['probes']} probes, median "
              f"{record['probe_s_p50'] * 1e6:.1f} us (reference {record['ref_probe_s'] * 1e6:.0f} us)")
    for cell, stats in record["output_stats"].items():
        for name, value in stats.items():
            print(f"  cell {cell} {name:39s} {value:14.9g} (repeats exactly)")
    for cell, digests in record["output_sha256"].items():
        for name, digest in digests.items():
            print(f"  cell {cell} sha256 {name} {digest}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args()
    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        if args.workload != "all" and args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; expected one of {names} or 'all'")
        records = []
        for name in names if args.workload == "all" else [args.workload]:
            args.workload = name
            records.append(bench(args, spec))
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for record in records:
        print_record(record)
    results = [r["result"] for r in records]
    if len(records) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{rec['workload']}.{k}": v for rec in records for k, v in rec["result"]["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
