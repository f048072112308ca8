"""Measured process: set up one workload, then run its operation in a closed
loop, one at a time, for a fixed number of seconds.

Started by run.py in a fresh interpreter. It prints ``ready`` once hoc is
imported and the workload's config and fixture are built (the end of set-up),
then times every operation with wall and process CPU clocks and writes
``worker.json`` into its run directory. With ``--trace 1`` every second
operation runs under the span recorder, so the difference of the traced and
the plain medians is the recorder's overhead.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --run-dir DIR [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--run-dir", required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record():
    import platform

    import numpy
    import scipy

    import hoc

    # worker_count and BACKEND may go away with the thread pool and the
    # compiled kernels; the record then says None
    try:
        from hoc._util import worker_count
        workers = worker_count()
    except ImportError:
        workers = None
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "blas_config": blas.get("openblas configuration", ""),
            "blas_threads": blas_threads(),
            "worker_count": workers,
            "backend": getattr(hoc, "BACKEND", None),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def peak_rss_kb():
    """Peak resident set of this process image (VmHWM). ru_maxrss would also
    count the resident set the parent had when it forked this process, which
    execve keeps."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_ops(wl, seconds, tracer=None):
    """Run operations back to back for ``seconds``. With a tracer, every
    second operation runs traced, so warm-up and host drift fall on both."""
    ops = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        traced = tracer is not None and len(ops) % 2 == 1
        if traced:
            tracer.install()
        error = None
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            if traced:
                with tracer.op():
                    result = wl.op()
            else:
                result = wl.op()
        except Exception as exc:  # one failed operation is counted, the run goes on
            error = "%s: %s" % (type(exc).__name__, exc)
        w1, c1 = time.perf_counter(), time.process_time()
        if traced:
            tracer.uninstall()
        ops.append({"wall_s": w1 - w0, "cpu_s": c1 - c0, "error": error,
                    "traced": traced, "digest": None if error else wl.digest(result)})
    return ops


def main(argv=None):
    args = parse_args(argv)
    import hoc  # noqa: F401  (import time is part of set-up)

    wl = workloads.make(args.workload, args.seed, os.path.join(args.run_dir, "artifacts"))
    print("ready", flush=True)
    if args.setup_only:
        return 0
    out = {}
    if args.trace:
        import tracer as tracing

        rec = tracing.Tracer()
        ops = run_ops(wl, args.seconds, rec)
        rec.write(os.path.join(args.run_dir, "spans.json"))
        _, groups = tracing.ops_of(rec.spans)
        out["layers"] = [tracing.layer_metrics(g) for g in groups]
    else:
        ops = run_ops(wl, args.seconds)
    out["ops"] = ops
    out["peak_rss_kb"] = peak_rss_kb()
    out["machine"] = machine_record()
    with open(os.path.join(args.run_dir, "worker.json"), "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
