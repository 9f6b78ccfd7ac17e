"""One benchmark process: set up a workload, run timed CLI calls, write a record.

run.py starts this in a fresh process with the BLAS threads pinned to 1:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 \
        --mode setup|measure --work DIR --record FILE [--tiny]

``setup`` mode times set-up (imports, input generation, env build, bundle
create/load), scaled to the reference host speed of hostspeed.py, and stops.
``measure`` mode then calls ``vtmigsim.cli.main`` in a closed loop, one call
at a time, cycling through the workload's cells until ``--seconds`` have
passed and every cell ran twice; each call's outputs pass the correctness
gate and must repeat byte for byte. Every call is timed with hostspeed.py's
sampler running. The first call of the process is a warm-up: it is gated but
not timed. With ``--trace 1`` the first half of the time runs untraced and
the second half traced, which gives the per-layer metrics and the tracing
overhead.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MIN_CYCLES = 2


def import_program():
    """Import vtmigsim from this checkout's src/, never from elsewhere."""
    init = os.path.join(SRC, "vtmigsim", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"worker: no program sources at {init}")
    sys.path[:0] = [SRC, HERE]
    import vtmigsim

    if os.path.abspath(vtmigsim.__file__) != init:
        sys.exit(f"worker: imported {vtmigsim.__file__}, expected {init}")


def run_call(prepared, cell: int, out_dir: str, sampler) -> dict:
    """One timed cli.main call, then the correctness gate on its outputs."""
    from vtmigsim import cli
    from workloads import GateError, output_digests

    shutil.rmtree(out_dir, ignore_errors=True)
    argv = prepared.cells[cell] + ["--out", out_dir]
    error = None
    gc.collect()  # every call starts from the same heap, not the last call's garbage
    sampler.start()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            error = f"exit code {code}"
    except Exception as exc:  # an exception escaping cli.main fails the call
        error = f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    probes = [(t, d) for t, d in sampler.stop() if t - d >= start and t <= end]
    call = {"cell": cell, "wall_s": end - start, "span": (start, end), "probes": probes,
            "error": error, "stats": None, "digests": None}
    if error is None:
        try:
            call["stats"] = prepared.check(out_dir)
            call["digests"] = output_digests(out_dir)
        except (GateError, ValueError, OSError) as exc:
            call["error"] = f"gate: {exc}"
    return call


def run_phase(prepared, out_dir: str, seconds: float, min_cycles: int, traced: bool) -> list[dict]:
    """Whole cycles over the cells until `seconds` have passed."""
    from hostspeed import Sampler

    sampler = Sampler()
    calls = []
    start = time.perf_counter()
    cycles = 0
    while cycles < min_cycles or time.perf_counter() - start < seconds:
        for cell in range(len(prepared.cells)):
            call = run_call(prepared, cell, out_dir, sampler)
            call["traced"] = traced
            calls.append(call)
        cycles += 1
    return calls


def scale_to_ref_speed(calls: list[dict]) -> None:
    """Set each call's ref_speed_s and the median probe time during it."""
    from hostspeed import ref_speed_s

    for c in calls:
        c["ref_speed_s"] = ref_speed_s(*c["span"], c["probes"])
        c["probe_s_p50"] = statistics.median(d for _, d in c["probes"]) if c["probes"] else None


def gate_repeats(calls: list[dict]) -> None:
    """Every call of the same cell must write byte-identical outputs."""
    reference = {}
    for c in calls:
        if c["error"] is None and reference.setdefault(c["cell"], c["digests"]) != c["digests"]:
            c["error"] = "gate: output digests differ between repeats"


def blas_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            fn = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        threads = fn()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--record", required=True)
    parser.add_argument("--spans-out", default=None)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    # Set-up is scaled to the reference host speed like the calls are. The
    # stretch from process start to the first probe takes that probe's scale.
    from hostspeed import REF_PROBE_S, Sampler, ref_speed_s

    sampler = Sampler()
    sampler.start()
    import_program()
    from workloads import FULL, TINY, WORKLOADS, input_digests

    inputs = os.path.join(args.work, "inputs")
    os.makedirs(inputs, exist_ok=True)
    sizes = (TINY if args.tiny else FULL)[args.workload]
    prepared = WORKLOADS[args.workload].prepare(inputs, args.seed, sizes)
    end = time.perf_counter()
    probes = [(t, d) for t, d in sampler.stop() if t <= end]
    record = {
        "setup_s": ref_speed_s(T0, end, probes),
        "setup_wall_s": end - T0,
        "input_sha256": input_digests(prepared.input_files, inputs),
    }
    if args.mode == "measure":
        out_dir = os.path.join(args.work, "out")
        if args.trace:
            from spans import Tracer

            untraced = run_phase(prepared, out_dir, args.seconds / 2, MIN_CYCLES, False)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_phase(prepared, out_dir, args.seconds / 2, 1, True)
            finally:
                tracer.restore()
            calls = untraced + traced
        else:
            calls = run_phase(prepared, out_dir, args.seconds, MIN_CYCLES, False)
        for i, c in enumerate(calls):
            c["warmup"] = i == 0
        gate_repeats(calls)
        scale_to_ref_speed(calls)
        for c in calls:
            c["work"] = prepared.work_per_run(c["stats"]) if c["error"] is None else 0
        ok = [c for c in calls if c["error"] is None]
        first = {}
        for c in ok:
            first.setdefault(c["cell"], c)
        record.update(
            calls=[{k: c[k] for k in ("cell", "wall_s", "ref_speed_s", "probe_s_p50", "work", "error",
                                     "traced", "warmup")}
                   for c in calls],
            probes=sum(len(c["probes"]) for c in calls),
            ref_probe_s=REF_PROBE_S,
            ops_per_run=prepared.ops_per_run,
            draws=prepared.draws,
            op=WORKLOADS[args.workload].op,
            work=WORKLOADS[args.workload].work,
            stats={cell: c["stats"] for cell, c in sorted(first.items())},
            digests={cell: c["digests"] for cell, c in sorted(first.items())},
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            platform=blas_info(),
        )
        if args.trace:
            from spans import EXPECTED

            timed = {flag: [c for c in ok if c["traced"] is flag and not c["warmup"]]
                     for flag in (False, True)}
            if timed[True] and timed[False]:
                # Span times are wall times; the overhead compares times at
                # the reference host speed, so host drift does not enter it.
                record["per_layer"] = tracer.layer_metrics(
                    runs=len(timed[True]),
                    traced_wall=sum(c["wall_s"] for c in timed[True]),
                    untraced_op_s=statistics.median(c["ref_speed_s"] for c in timed[False]),
                    traced_op_s=statistics.median(c["ref_speed_s"] for c in timed[True]),
                )
            record["spans_missing"] = sorted(EXPECTED[args.workload] - tracer.fired())
            record["range_violations"] = tracer.tally.get("range_violations", 0)
            if args.spans_out:
                tracer.save(args.spans_out)
    with open(args.record, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
