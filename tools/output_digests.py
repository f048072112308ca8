"""Print the sha256 of every artifact of a fixed set of hoc runs.

The set is 50 ``run_config`` outputs at master seed 7: every shipped fixture,
the negative-control variant of each ``tails`` fixture at 70,001 evaluation
samples, ``tensor-norm`` with 8 tensors, ``catalog-oracle`` for all laws, and
three inline runs that leave the counts, route, ``p_values`` and ``t_grid``
every shipped fixture spells out to the defaults: a ``certify``, a
``weighted`` and an ``rmt`` run.
Each file gives one ``<sha256>  <config>/<file>`` line, in a fixed order, so
two checkouts can be compared with ``diff``:

    PYTHONPATH=src python tools/output_digests.py > change.txt
    (cd /path/to/other && PYTHONPATH=src python tools/output_digests.py) > other.txt
    diff other.txt change.txt

Each tree runs its own copy of the script, because the inline configs carry
only the fields that tree's kinds read: an older tree's ``certify`` and
``weighted`` kinds require a ``d``, which this tree's refuse.

Each run's tracemalloc peak (the most memory Python and numpy held at once
during its ``run_config``, counted from the run's start) and its exit code
go to standard error as ``<peak MB>  <exit code>  <config>``, so standard
output stays ``diff``-able and a per-run table of memory and exit codes of
two checkouts can be compared the same way:

    PYTHONPATH=src python tools/output_digests.py 2> peaks.txt > change.txt

Peaks are compared with a tolerance of 0.02 MB on the ``tails`` rows (the
fixtures and their negative controls): two runs of one tree read them up
to that far apart, likely as the timing of the ``measures.stream`` filler
thread decides which buffers are live at once.

The modules hoc imports on first use (``scipy.linalg`` for the catalog
oracle, ``fractions`` for a huge exact moment, ``ctypes`` for the rmt
runs' serial BLAS) are imported before the first traced run, so no run's peak holds an import that an earlier run would
have paid for.

That peak counts only what tracemalloc traces, the blocks Python and numpy
asked for. It cannot see memory the C allocator keeps resident after a free,
such as the malloc arenas of the Wigner pool threads: when
``rmt.sample_ensemble`` moved its matrix buffers to the calling thread,
wigner-gaussian-n100's row here went from 7.00 to 7.04 MB while the peak
RSS (VmHWM) of the same in-process run fell from 50.3-50.4 to 45.5-46.0 MB.
Compare resident memory with perfbench's ``peak_rss_mb``.

Only ``hoc.fixtures.inventory`` and ``hoc.experiments.run_config(cfg,
out_dir)`` are used. Artifacts go to a temporary directory that is removed
afterwards. A full run takes about a minute on two CPUs.
"""

from __future__ import annotations

import ctypes  # hoc imports it on first use; here, before any traced run
import fractions  # likewise
import hashlib
import os
import sys
import tempfile
import tracemalloc

import scipy.linalg  # likewise

from hoc import fixtures
from hoc.experiments import run_config

SEED = 7
CONTROL_SAMPLES = 70_001
TENSOR_COUNT = 8

_GAUSS2 = {"dim": 2, "coords": [{"dist": "gaussian", "params": {}}] * 2}
_BILINEAR = {"dim": 2, "terms": [{"exponents": [1, 1], "coeff": 0.5 ** 0.5}]}
_STUDENT1 = {"dim": 1, "coords": [{"dist": "student", "params": {"beta": 10.0}}]}
_IDENTITY = {"dim": 1, "terms": [{"exponents": [1], "coeff": 1.0}]}


def configs():
    """(name, config) for each of the 50 runs, in output order."""
    out = []
    for fx in fixtures.inventory():
        out.append((fx.name, {"kind": fx.kind, "fixture": fx.name, "seed": SEED}))
    for fx in fixtures.inventory():
        if fx.kind == "tails":
            out.append((fx.name + "-negative-control",
                        {"kind": "tails", "fixture": fx.name, "seed": SEED,
                         "negative_control": True, "samples": CONTROL_SAMPLES}))
    out.append(("tensor-norm", {"kind": "tensor-norm", "seed": SEED, "count": TENSOR_COUNT}))
    out.append(("catalog-oracle", {"kind": "catalog-oracle", "seed": SEED, "dist": "all"}))
    out.append(("gaussian-bilinear-n2-d2-certify-defaults",
                {"kind": "certify", "seed": SEED, "measure": _GAUSS2, "function": _BILINEAR}))
    out.append(("student-identity-d1-weighted-defaults",
                {"kind": "weighted", "seed": SEED, "measure": _STUDENT1, "function": _IDENTITY}))
    out.append(("wigner-gaussian-n50-defaults",
                {"kind": "rmt", "seed": SEED, "matrix_size": 50,
                 "entry": {"dist": "gaussian", "params": {}}, "coeffs": [0.0, 0.0, 0.5]}))
    return out


def main():
    with tempfile.TemporaryDirectory(prefix="hoc-digests-") as root:
        for name, cfg in configs():
            out_dir = os.path.join(root, name)
            tracemalloc.start()
            try:
                code, _ = run_config(cfg, out_dir)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            print("%8.2f  %d  %s" % (peak / 1e6, code, name), file=sys.stderr, flush=True)
            for fname in sorted(os.listdir(out_dir)):
                with open(os.path.join(out_dir, fname), "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                print("%s  %s/%s" % (digest, name, fname), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
