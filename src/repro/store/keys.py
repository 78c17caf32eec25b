"""Deterministic cache keys for the artifact store.

Every stored artifact is addressed by content-derived identity, never by
file name: a *context key* digests (dataset fingerprint, split spec,
learn spec, store format version), and an *artifact key* appends the
artifact slot name (``credit_index``, ``ic_probabilities/EM``, ...).
Two runs that would learn byte-identical artifacts therefore compute
the same key and share the payload; any change to the data, the split,
a learn parameter, the backend or the on-disk format changes the key
and misses cleanly — there is no invalidation logic to get wrong.

Fingerprints hash the dataset *in iteration order*.  That is stricter
than set equality on purpose: learned artifacts are dicts whose
iteration order descends from graph/log iteration order, and the
warm-start guarantee is byte-for-byte identity, not value equality.
All digests are ``blake2b`` (stable across processes and platforms,
unlike the salted builtin ``hash``).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Mapping

from repro.data.actionlog import ActionLog
from repro.graphs.digraph import SocialGraph

__all__ = [
    "FORMAT_VERSION",
    "canonical_json",
    "fingerprint_dataset",
    "context_key",
    "artifact_key",
]

# The store's on-disk format version.  Part of every context key and
# recorded in every manifest: bumping it makes every old entry an
# invisible miss (re-learn and re-save) instead of a misread.
# Version 2: Monte-Carlo spread moved to counter-keyed worlds, so the
# stored greedy-family prefixes over IC/LT oracles changed meaning.
# Version 3: the credit index (and a cd prefix's resume state) pickles
# as raw column bytes; stored bytes changed, results did not.
# Version 4: the sigma_cd evaluator pickles as raw column bytes; stored
# bytes changed, results did not.
FORMAT_VERSION = 4

_DIGEST_SIZE = 16  # 128-bit hex keys: 32 characters


def canonical_json(value: Any) -> str:
    """The canonical JSON text of ``value`` (sorted keys, tight separators)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _hexdigest(hasher: "hashlib.blake2b") -> str:
    return hasher.hexdigest()


def fingerprint_dataset(graph: SocialGraph, log: ActionLog | None) -> str:
    """A streaming digest of one (graph, action log) pair.

    Hashes nodes and edges in graph iteration order, then every trace
    in log iteration order (chronological within a trace, as
    :meth:`~repro.data.actionlog.ActionLog.tuples` yields them).
    Identifiers hash by ``repr`` — exact for the ints/strings the TSV
    formats round-trip — and times by ``repr`` as well, so distinct
    floats never collide.
    """
    hasher = hashlib.blake2b(digest_size=_DIGEST_SIZE)
    update = hasher.update
    for node in graph.nodes():
        update(f"n\t{node!r}\n".encode("utf-8"))
    for source, target in graph.edges():
        update(f"e\t{source!r}\t{target!r}\n".encode("utf-8"))
    if log is not None:
        for user, action, time in log.tuples():
            update(f"t\t{user!r}\t{action!r}\t{time!r}\n".encode("utf-8"))
    return _hexdigest(hasher)


def context_key(
    fingerprint: str,
    split: Mapping[str, Any],
    learn: Mapping[str, Any],
) -> str:
    """The digest addressing one learned-artifact namespace.

    ``fingerprint`` is :func:`fingerprint_dataset` of the *raw* dataset,
    ``split`` describes how the training fold was carved out of it
    (e.g. ``{"split": True, "every": 5}``, or ``{"split": "external"}``
    for a pre-built context), and ``learn`` is
    :meth:`~repro.api.context.SelectionContext.learn_spec`.
    """
    parts = {
        "format": FORMAT_VERSION,
        "dataset": fingerprint,
        "split": dict(split),
        "learn": dict(learn),
    }
    hasher = hashlib.blake2b(
        canonical_json(parts).encode("utf-8"), digest_size=_DIGEST_SIZE
    )
    return _hexdigest(hasher)


def artifact_key(context: str, artifact: str) -> str:
    """The storage key of one artifact slot within a context namespace."""
    hasher = hashlib.blake2b(
        f"{context}\t{artifact}".encode("utf-8"), digest_size=_DIGEST_SIZE
    )
    return _hexdigest(hasher)
