"""Payload (de)serialization and integrity checks for the store.

Artifacts are persisted as pickle protocol 4 with a ``blake2b``
checksum recorded in the manifest.  Pickle is the right codec here —
and JSON/TSV would be wrong — because the warm-start contract is
*byte-for-byte* identity with a cold run:

* learned artifacts are dicts whose **iteration order** is part of the
  reproducibility contract (selector tie-breaks walk them in order);
  pickle preserves insertion order exactly;
* floats round-trip bit-exactly, with no decimal formatting layer;
* node/action identifiers are arbitrary hashables (ints, strings,
  tuples), which a textual format would have to re-parse heuristically;
* the compiled CSR forms of :mod:`repro.kernels.interning`, the
  columnar :class:`~repro.core.index.CreditIndex` and the columnar
  :class:`~repro.core.spread.CDSpreadEvaluator` pickle as raw array
  bytes, state already shared with the process executor.

The safety considerations that usually argue against pickle do not
apply: the store is a local cache written and read by the same library,
every payload is integrity-checked against its manifest before
unpickling, and a checksum mismatch or undecodable payload surfaces as
:class:`~repro.store.store.StoreCorruption` — which consumers treat as
a cache miss (re-learn), never as data.
"""

from __future__ import annotations

import hashlib
import pickle
from typing import Any

__all__ = ["dump_payload", "load_payload", "checksum", "PayloadError"]

_PROTOCOL = 4  # stable since Python 3.4; one choice for every writer


class PayloadError(ValueError):
    """A payload could not be encoded or decoded."""


def dump_payload(obj: Any) -> bytes:
    """Serialize one artifact to its on-disk payload bytes."""
    try:
        return pickle.dumps(obj, protocol=_PROTOCOL)
    except Exception as error:  # unpicklable artifact: a caller bug
        raise PayloadError(f"artifact is not serializable: {error}") from error


def load_payload(data: bytes) -> Any:
    """Decode payload bytes back into the artifact object."""
    try:
        return pickle.loads(data)
    except Exception as error:
        raise PayloadError(f"payload does not decode: {error}") from error


def checksum(data: bytes) -> str:
    """The integrity digest recorded in (and verified against) manifests."""
    return hashlib.blake2b(data, digest_size=16).hexdigest()
