"""Deterministic random-number-generator helpers.

Every stochastic component in the library (graph generators, cascade
simulators, Monte Carlo spread estimators, probability perturbation)
accepts either an integer seed or a ready-made :class:`random.Random`.
Centralising the coercion here keeps experiments reproducible: the same
seed always yields the same dataset, the same simulations and therefore
the same benchmark tables.

The *counter-keyed coins* behind reverse-reachability sketches and
Monte-Carlo spread live here too.  Neither consumes a sequential
stream: every coin is a pure function of ``(seed, world index, key)``
through a murmur3-style 64-bit mixer, where the key names an edge (IC
liveness) or a node (the LT live-edge choice).  Sketch ``i`` and
Monte-Carlo simulation ``i`` with the same seed therefore sample the
same possible world, and no coin depends on traversal order or on the
seed set being scored.  :mod:`repro.kernels.sketch_numpy` mirrors these
helpers bit for bit on ``uint64`` arrays.
"""

from __future__ import annotations

import hashlib
import math
import random

__all__ = ["make_rng", "spawn_rngs", "integer_seed", "keyed_seed", "derive_seed"]

# 64-bit mixing constants: the murmur3 finalizer plus golden-ratio /
# murmur / xxhash increments, one per key kind.  Shared verbatim with
# the numpy mirror.
_MASK = (1 << 64) - 1
_C1 = 0x9E3779B97F4A7C15  # world (sketch) index
_C2 = 0xC2B2AE3D27D4EB4F  # edge id
_C3 = 0x165667B19E3779F9  # node id


def derive_seed(base: int, *labels: object) -> int:
    """A deterministic child seed for ``(base, labels)``.

    The fan-out rule behind every deterministic decomposition in the
    library: :meth:`repro.api.context.SelectionContext.derive_seed`
    (per-(selector, trial) streams) and the runtime's per-task seeds
    (prediction methods) all hash
    through here.  Stable across processes — blake2b of the labels'
    ``repr``, not the salted built-in ``hash`` — so the same base seed
    and labels always yield the same stream on any executor.
    """
    tag = "|".join([str(base), *map(repr, labels)])
    digest = hashlib.blake2b(tag.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def make_rng(seed: int | random.Random | None = None) -> random.Random:
    """Return a :class:`random.Random` for ``seed``.

    ``seed`` may be:

    * ``None`` — a fresh, OS-seeded generator (non-reproducible; fine for
      exploratory use, avoided by the benchmark harness),
    * an ``int`` — a generator seeded with that value,
    * a ``random.Random`` — returned unchanged, so callers can thread one
      generator through a pipeline.
    """
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def integer_seed(seed: int | random.Random | None) -> int | None:
    """Coerce a ``make_rng``-style seed to an integer (or ``None``).

    Used by the NumPy kernels, whose generators are seeded with plain
    integers.  A ``random.Random`` contributes 64 bits from its stream
    (consuming them — the caller handed over the generator precisely to
    derive downstream randomness from it); ``None`` stays ``None``
    (fresh OS entropy, exactly like ``make_rng(None)``).
    """
    if seed is None or isinstance(seed, int):
        return seed
    return seed.getrandbits(64)


def keyed_seed(seed: int | random.Random | None) -> int:
    """The integer seed counter-keyed coins hash.

    An ``int`` is used as given, a ``random.Random`` contributes 64
    bits through :func:`integer_seed`, and ``None`` draws fresh OS
    entropy, exactly like ``make_rng(None)``.
    """
    seed = integer_seed(seed)
    return make_rng(None).getrandbits(64) if seed is None else seed


def _mix64(x: int) -> int:
    """The murmur3 64-bit finalizer — a bijective avalanche mix."""
    x &= _MASK
    x ^= x >> 33
    x = (x * 0xFF51AFD7ED558CCD) & _MASK
    x ^= x >> 33
    x = (x * 0xC4CEB9FE1A85EC53) & _MASK
    x ^= x >> 33
    return x


def _sketch_base(seed: int, index: int) -> int:
    """The hash base of world ``index``: every coin of sketch ``index``
    and of Monte-Carlo simulation ``index`` keys off it."""
    return _mix64(_mix64(seed) ^ (((index + 1) * _C1) & _MASK))


def _edge_key(edge_id: int) -> int:
    """The key word of canonical edge ``edge_id`` (its IC liveness coin)."""
    return ((edge_id + 1) * _C2) & _MASK


def _node_key(node_id: int) -> int:
    """The key word of node ``node_id`` (its LT live-edge choice)."""
    return ((node_id + 1) * _C3) & _MASK


def _uniform(base: int, key: int) -> float:
    """The coin of ``key`` in the world of ``base``: a uniform in [0, 1)
    with 53 random bits."""
    return (_mix64(base ^ key) >> 11) * 2.0 ** -53


def _coin_bound(threshold: float) -> int:
    """The hash bound of ``threshold``, for comparing raw hashes.

    ``_uniform(base, key) < threshold`` exactly when
    ``_mix64(base ^ key) < _coin_bound(threshold)``: the coin is
    ``(h >> 11) * 2**-53``, and scaling by a power of two is exact.
    The python engine compares hashes so a coin costs one call.
    """
    return math.ceil(threshold * 2.0 ** 53) << 11


def _edge_uniform(base: int, edge_id: int) -> float:
    """The edge's liveness coin."""
    return _uniform(base, _edge_key(edge_id))


def _node_uniform(base: int, node_id: int) -> float:
    """The node's LT draw, read against its cumulative in-weights."""
    return _uniform(base, _node_key(node_id))


def spawn_rngs(seed: int | random.Random | None, count: int) -> list[random.Random]:
    """Derive ``count`` independent child generators from ``seed``.

    Children are seeded from the parent stream, so two runs with the same
    parent seed produce identical children, while the children themselves
    are decorrelated enough for independent simulation streams.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    parent = make_rng(seed)
    return [random.Random(parent.getrandbits(64)) for _ in range(count)]
