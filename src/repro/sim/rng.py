"""Deterministic, named random-number streams.

Every stochastic element of the simulation (link jitter, bit errors,
switch arbitration ties, application initialisation) draws from its own
named stream derived from a single experiment seed.  Two properties follow:

* experiments are exactly reproducible from their seed, and
* adding randomness to one component never perturbs another component's
  stream (no "seed coupling"), which keeps A/B comparisons honest.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["RngRegistry"]


class RngRegistry:
    """Factory of independent :class:`numpy.random.Generator` streams.

    Streams are keyed by name; the same ``(seed, name)`` pair always yields
    an identical stream.  Names are hashed with CRC32 into the SeedSequence
    spawn key, so stream independence follows from SeedSequence guarantees.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating if needed) the stream for ``name``."""
        gen = self._streams.get(name)
        if gen is None:
            key = zlib.crc32(name.encode("utf-8"))
            seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(key,))
            gen = np.random.Generator(np.random.PCG64(seq))
            self._streams[name] = gen
        return gen

    def snapshot_state(self) -> dict:
        """Exact mid-sequence state of every named stream.

        Captures the PCG64 ``bit_generator.state`` dict per stream — not
        the creation seed — so a checkpoint's state capture tells two
        streams apart that share a seed but stand at different draws.
        """
        return {
            "seed": self.seed,
            "streams": {
                name: gen.bit_generator.state
                for name, gen in self._streams.items()
            },
        }

    def uniform_int(self, name: str, low: int, high: int) -> int:
        """One draw from U{low, ..., high-1} on the named stream."""
        return int(self.stream(name).integers(low, high))

    def uniform(self, name: str, low: float = 0.0, high: float = 1.0) -> float:
        """One draw from U[low, high) on the named stream."""
        return float(self.stream(name).uniform(low, high))

    def bernoulli(self, name: str, p: float) -> bool:
        """One biased coin flip on the named stream."""
        if p <= 0.0:
            return False
        if p >= 1.0:
            return True
        return bool(self.stream(name).random() < p)
