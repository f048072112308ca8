"""hoc benchmark: time from a config to a checked certificate.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from anywhere; the repository root is the parent of this directory and
the program is imported from its ``src`` tree (no install). Each workload
runs in a fresh interpreter (perfbench/worker.py) as a closed loop, one
identical operation at a time, for S seconds, and the benchmark reports
medians per operation. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
exit code is 0 when every check passed, 1 when a check failed and 2 when the
program or the workload cannot be run. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, "perfbench-out")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

# Set-up is measured in this many fresh interpreters per run (the measured
# one included) and reported as their median.
SETUP_SAMPLES = 4
# Variables that change the program's thread or kernel choice; dropped so the
# numbers do not depend on the caller's shell.
DROPPED_ENV = ("HOC_THREADS", "HOC_PURE_PYTHON", "OPENBLAS_NUM_THREADS",
               "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Past the measured seconds, the last operation and the checks must end within this.
GRACE_S = 120.0

END_TO_END = (("op_s", "s"), ("cpu_op_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in DROPPED_ENV}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def spawn(name, seed, seconds, trace, run_dir, setup_only):
    """Run one worker; returns (set-up seconds, worker.json or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
           "--run-dir", run_dir] + (["--setup-only"] if setup_only else [])
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            text=True)
    try:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        proc.communicate(timeout=seconds + GRACE_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError("worker for %s exited with %r" % (name, proc.returncode))
    if setup_only:
        return setup_s, None
    with open(os.path.join(run_dir, "worker.json")) as fh:
        return setup_s, json.load(fh)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_workload(name, seed, seconds, trace):
    run_dir = os.path.join(OUT, "%s-seed%d" % (name, seed))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    setups = [] if trace else [spawn(name, seed, seconds, trace, run_dir, True)[0]
                               for _ in range(SETUP_SAMPLES - 1)]
    setup_s, rec = spawn(name, seed, seconds, trace, run_dir, False)
    setups.append(setup_s)
    ops = rec["ops"]
    good = [op for op in ops if op["error"] is None]
    # an operation that raised counts in "failed"; the checks speak of the others
    for i, op in enumerate(ops):
        if op["error"] is not None:
            print("operation %d of %s failed: %s" % (i, name, op["error"]), file=sys.stderr)
    fails = []
    if len({op["digest"] for op in good}) > 1:
        fails.append("artifacts differ between operations of one run")
    if good:
        fails += checks.CHECKS[name](seed, os.path.join(run_dir, "artifacts"))
    plain = [op for op in good if not op["traced"]]
    if not plain or (trace and len(plain) == len(good)):
        raise RuntimeError("no operation of %s succeeded in every phase" % name)
    wall = [op["wall_s"] for op in plain]
    cpu = [op["cpu_s"] for op in plain]
    out = {"workload": name, "seed": seed, "attempted": len(ops),
           "failed": len(ops) - len(good), "fails": fails, "machine": rec["machine"],
           "samples": {"op_s": wall, "cpu_op_s": cpu, "setup_s": setups}}
    if trace:
        traced = [op["wall_s"] for op in good if op["traced"]]
        layers = rec["layers"]
        counts = [k for k in layers[0] if not k.endswith("_s")]
        out["counts_repeat"] = all(m[k] == layers[0][k] for m in layers for k in counts)
        metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        if out["counts_repeat"]:
            metrics.update((k, layers[0][k]) for k in counts)
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(wall)
        out["metrics"] = metrics
        out["traced_ops"] = len(traced)
    else:
        out["metrics"] = {"op_s": statistics.median(wall),
                          "cpu_op_s": statistics.median(cpu),
                          "peak_rss_mb": rec["peak_rss_kb"] / 1024.0,
                          "setup_s": statistics.median(setups)}
    return out


def unit_of(metric):
    for name, unit in END_TO_END:
        if metric == name:
            return unit
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("bytes_written"):
        return "bytes"
    return "count"


def report(res):
    print("machine: " + json.dumps(res["machine"], sort_keys=True))
    print("%s seed %d: %d operations attempted, %d failed, %s"
          % (res["workload"], res["seed"], res["attempted"], res["failed"],
             "all checks passed" if not res["fails"] else "CHECKS FAILED"))
    for msg in res["fails"]:
        print("  check failed: " + msg)
    for name, value in res["metrics"].items():
        line = "  %-36s %16s %s" % (name, value if isinstance(value, int) else
                                    "%.6f" % value, unit_of(name))
        samples = res["samples"].get(name)
        if samples:
            q1, q3 = quartiles(samples)
            line += "   (median of %d; quartiles %.6f, %.6f)" % (len(samples), q1, q3)
        print(line)
    if "counts_repeat" in res:
        print("  traced operations: %d; per-layer counts repeat across them: %s"
              % (res["traced_ops"], res["counts_repeat"]))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hoc", "__init__.py")):
        print("perfbench: no program to measure at src/hoc", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        try:
            res = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, OSError, ValueError, KeyError,
                subprocess.SubprocessError) as exc:
            print("perfbench: %s could not be run: %s" % (name, exc), file=sys.stderr)
            return 2
        report(res)
        results.append(res)
    prefix = len(results) > 1
    metrics = {}
    for res in results:
        for name, value in res["metrics"].items():
            key = "%s.%s" % (res["workload"], name) if prefix else name
            metrics[key] = {"value": value, "unit": unit_of(name)}
    correct = not any(res["fails"] for res in results)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
