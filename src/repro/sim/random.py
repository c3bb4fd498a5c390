"""Deterministic, component-isolated random-number streams.

Reproducibility discipline
--------------------------
Every stochastic component of the simulation (each machine's behaviour,
each lab's timetable, the network-noise process, ...) draws from its *own*
:class:`numpy.random.Generator`, spawned from a single root
:class:`numpy.random.SeedSequence` keyed by a stable string path such as
``"lab/L03/machine/7/behavior"``.  Consequences:

- a run is bitwise reproducible given the root seed,
- adding a new consumer does not perturb the draws of existing ones,
- two fleets with different sizes share draws for their common machines.

This is the standard "named stream" pattern used in parallel stochastic
simulation, where one global RNG would make results depend on event
interleaving.
"""

from __future__ import annotations

import zlib
from typing import Dict

import numpy as np

__all__ = ["RandomStreams", "stable_hash32"]


def stable_hash32(text: str) -> int:
    """A stable (process-independent) 32-bit hash of ``text``.

    Python's built-in ``hash`` is salted per process, so it cannot key seed
    derivation.  CRC32 is stable, fast, and good enough for spreading seed
    entropy (the heavy lifting is done by ``SeedSequence``).
    """
    return zlib.crc32(text.encode("utf-8")) & 0xFFFFFFFF


class RandomStreams:
    """Factory of named, deterministic :class:`numpy.random.Generator` streams.

    Parameters
    ----------
    seed:
        Root seed of the whole simulation run.

    Examples
    --------
    >>> rs = RandomStreams(123)
    >>> g1 = rs.stream("machine/0")
    >>> g2 = rs.stream("machine/1")
    >>> g1 is rs.stream("machine/0")   # memoised
    True
    >>> float(g1.random()) != float(g2.random())
    True

    :meth:`stream` keeps every generator it makes, so each one travels
    with the factory into checkpoints.  Draws made once, at build time,
    take :meth:`once` instead: the same numbers from a generator the
    factory does not keep.

    >>> once = rs.once("machine/9")
    >>> float(once.random()) == float(rs.stream("machine/9").random())
    True
    """

    def __init__(self, seed: int = 0):
        self._seed = int(seed)
        self._root = np.random.SeedSequence(self._seed)
        self._streams: Dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """The root seed this factory was constructed with."""
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for stream ``name``, creating it on first use.

        The same ``(seed, name)`` pair always yields a generator producing
        the same sequence, regardless of creation order or of which other
        streams exist.
        """
        gen = self._streams.get(name)
        if gen is None:
            gen = self._streams[name] = self.once(name)
        return gen

    def once(self, name: str) -> np.random.Generator:
        """A new generator for stream ``name`` that this factory does not keep.

        It draws what :meth:`stream` would draw first.  Build-time draws
        nothing reads again (the fleet's calendar, each lab's demand and
        each disk's SMART history) use it, so the generators are freed
        after the build instead of riding along in every checkpoint.
        """
        child = np.random.SeedSequence(
            entropy=self._root.entropy,
            spawn_key=(*self._root.spawn_key, stable_hash32(name)),
        )
        return np.random.Generator(np.random.PCG64(child))

    def fork(self, name: str) -> "RandomStreams":
        """Return a child factory whose streams are namespaced under ``name``.

        Useful to hand a subsystem its own stream universe without exposing
        the parent's.
        """
        child = RandomStreams.__new__(RandomStreams)
        child._seed = self._seed
        child._root = np.random.SeedSequence(
            entropy=self._root.entropy,
            spawn_key=(stable_hash32("fork/" + name),),
        )
        child._streams = {}
        return child

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RandomStreams(seed={self._seed}, streams={len(self._streams)})"
