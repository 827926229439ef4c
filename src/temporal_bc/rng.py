"""Deterministic random substreams derived from one master seed.

Every source of randomness in the pipeline (batch drawing, parameter init,
trajectory sampling) pulls from a named
substream, so a single user-supplied seed reproduces training, sampling and
reports byte-for-byte. Streams are derived by hashing the seed together with
a key path, which makes them independent of call order and stable across
platforms.
"""

from __future__ import annotations

import hashlib

import numpy as np


def substream(seed: int, *keys) -> np.random.Generator:
    """Generator for the substream identified by ``keys`` under ``seed``."""
    tag = "%d|%s" % (int(seed), "/".join(str(k) for k in keys))
    digest = hashlib.sha256(tag.encode()).digest()
    entropy = int.from_bytes(digest, "big")
    return np.random.default_rng(np.random.SeedSequence(entropy))
