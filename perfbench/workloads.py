"""The three workloads: how each builds its inputs from the seed and what one
operation is.

Every operation of a run is identical (same config, same seed), so each
operation's artifacts must be byte-identical to the first one's.
"""

from __future__ import annotations

import hashlib
import os
from itertools import combinations_with_replacement

import numpy as np

CHAOS_FIXTURE = "gaussian-chaos-n10-d3-tails"
WIGNER_FIXTURE = "wigner-gaussian-n100"

# The opnorm-gradient batch is the first points of each of criterion 9's ten
# quartics (dims alternate 2, 3), at criterion 9's own master seed. It does
# not vary with --seed: power-iteration steps, and so the operation's time,
# differ by 15-25% (quartile spread) between batches drawn from other seeds.
CRITERION9_SEED = 20260825
OPNORM_QUARTICS = 10
OPNORM_POINTS = 4


def quartic_terms(seed, qi):
    """Criterion 9's seeded family: quartic plus cubic, all monomials, and the
    first points the inequality is checked at. Returns (dim, terms, points).

    The stream is the one ``hoc._util.substream(seed, 9, qi)`` gives, built
    here so the benchmark does not depend on a private helper."""
    dim = 2 + qi % 2
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(9, qi))))
    terms = []
    for order in (4, 3):
        for alpha in combinations_with_replacement(range(dim), order):
            expo = [0] * dim
            for i in alpha:
                expo[i] += 1
            terms.append((tuple(expo), float(rng.standard_normal())))
    points = rng.uniform(-1.0, 1.0, size=(OPNORM_POINTS, dim))
    return dim, terms, points


def digest_dir(path):
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(path, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class RunConfigWorkload:
    """One operation is ``run_config`` of a shipped fixture into ``out_dir``."""

    def __init__(self, cfg, out_dir):
        from hoc.experiments import run_config, validate_config

        self.cfg = validate_config(cfg)
        self.out_dir = out_dir
        self._run_config = run_config

    def op(self):
        code, _ = self._run_config(self.cfg, self.out_dir)
        return code

    def digest(self, code):
        return "exit=%d %s" % (code, digest_dir(self.out_dir))


class OpnormGradient:
    """One operation is ``opnorm_gradient_check(f, 4, x)`` on a fixed batch."""

    def __init__(self, out_dir):
        from hoc import polynomials

        self.out_dir = out_dir
        self._check = polynomials.opnorm_gradient_check
        self.batch = []
        for qi in range(OPNORM_QUARTICS):
            dim, terms, points = quartic_terms(CRITERION9_SEED, qi)
            self.batch.append((polynomials.PolyFunction.from_terms(dim, terms), points))

    def op(self):
        return [[self._check(f, 4, x) for x in points] for f, points in self.batch]

    def digest(self, result):
        text = repr(result)
        os.makedirs(self.out_dir, exist_ok=True)
        with open(os.path.join(self.out_dir, "pairs.txt"), "w") as fh:
            fh.write(text + "\n")
        return hashlib.sha256(text.encode()).hexdigest()


def make(name, seed, out_dir):
    if name == "chaos-tails":
        return RunConfigWorkload({"kind": "tails", "fixture": CHAOS_FIXTURE,
                                  "seed": seed, "negative_control": False}, out_dir)
    if name == "wigner-lss":
        return RunConfigWorkload({"kind": "rmt", "fixture": WIGNER_FIXTURE,
                                  "seed": seed}, out_dir)
    if name == "opnorm-gradient":
        return OpnormGradient(out_dir)
    raise ValueError("unknown workload %r" % (name,))


NAMES = ("chaos-tails", "wigner-lss", "opnorm-gradient")
