"""Shared plumbing: RNG substreams, CPU count, serial BLAS scopes, deterministic writers."""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os

import numpy as np

SAMPLE_BLOCK = 65536
# Rows per evaluation block, so each term's temporaries (128 kB at 16384
# rows) stay in cache. Evaluating the 120-term n=10, d=3 chaos on 16
# column-major 65536-row sample blocks took 0.19 s with blocks of 16384 or
# 32768 rows, 0.27-0.28 s with 8192 and 0.26 s with 65536 (best of 5,
# 2-vCPU Xeon with 2 MB of L2 per core, numpy 2.4). It is also the piece
# size in which ``measures.stream`` draws each sample column, so it must
# divide SAMPLE_BLOCK: a row chunk never straddles two blocks, which come
# from different substreams.
EVAL_BLOCK = 16384


def is_finite_number(value):
    """True for an int or float other than a bool, inf or nan."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and -math.inf < value < math.inf)


def is_integer(value):
    """True for an int other than a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def require_all(test, message, values):
    """ValueError(message) at the first value failing ``test``; none is truncated."""
    for value in values:
        if not test(value):
            raise ValueError("%s, got %r" % (message, value))


def substream(seed, *key):
    """Philox generator for a (seed, key...) substream.

    The same (seed, key) always yields the same stream regardless of how many
    other substreams exist or in which order they are drawn.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in key))))


def stage_seed(seed, *key):
    """Derived integer seed for an experiment stage (eval, cal, tensors, weights).

    Stages must not share sample streams; hashing through SeedSequence keeps
    the derivation stable and collision-resistant.
    """
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, dtype=np.uint32)[0])


def worker_count():
    """Number of CPUs this process may run on: its affinity set where the
    platform reports one, else ``os.cpu_count()``; never less than 1."""
    try:
        count = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity (macOS, Windows)
        count = os.cpu_count()
    return max(1, count or 1)


@functools.cache
def _openblas_threads():
    """(get, set) thread-count functions of each OpenBLAS loaded in this
    process, found once through /proc/self/maps; empty where there is none.

    The list is fixed at the first call. scipy is imported on first use, so
    its OpenBLAS is on the list only if scipy was loaded before that call.
    That is enough for ``serial_blas``: the eigensolves it serializes run in
    ``numpy.linalg``, on numpy's OpenBLAS, which ``import hoc`` always loads.
    """
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return ()
    found = []
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for stem in ("scipy_openblas_%s_num_threads64_", "scipy_openblas_%s_num_threads",
                     "openblas_%s_num_threads64_", "openblas_%s_num_threads"):
            get, put = (getattr(lib, stem % verb, None) for verb in ("get", "set"))
            if get is not None and put is not None:
                get.restype = ctypes.c_int
                found.append((get, put))
                break
    return tuple(found)


@contextlib.contextmanager
def serial_blas():
    """Run the enclosed block with every OpenBLAS at one thread.

    Small batched eigensolves gain nothing from a second BLAS thread, which
    only spins; each library's previous count is restored on every exit.
    Where no OpenBLAS is found (no /proc, MKL, Accelerate) this does nothing.
    """
    libs = _openblas_threads()
    previous = [get() for get, _ in libs]
    try:
        for _, put in libs:
            put(1)
        yield
    finally:
        for (_, put), count in zip(libs, previous):
            put(count)


def jsonable(obj):
    """Recursively convert numpy scalars/arrays so json can serialize them."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, float) and obj != obj:  # NaN is not valid JSON
        return None
    return obj


def dump_json(path, obj):
    """Write canonical JSON: sorted keys, two-space indent, trailing newline."""
    text = json.dumps(jsonable(obj), sort_keys=True, indent=2)
    with open(path, "w", newline="\n") as fh:
        fh.write(text + "\n")


def _cell(value):
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv(path, header, rows):
    """Write CSV with repr-serialized floats (shortest round-trip, stable)."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")
