"""Shared plumbing: counter-based RNG substreams, deterministic writers."""

from __future__ import annotations

import json

import numpy as np

SAMPLE_BLOCK = 65536


def substream(seed, *key):
    """Philox generator for a (seed, key...) substream.

    The same (seed, key) always yields the same stream regardless of how many
    other substreams exist or in which order they are drawn.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in key))))


def stage_seed(seed, *key):
    """Derived integer seed for an experiment stage (profile, eval, cal...).

    Stages must not share sample streams; hashing through SeedSequence keeps
    the derivation stable and collision-resistant.
    """
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, dtype=np.uint32)[0])


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
