"""Canonical content digests of run configurations.

A sweep point's result is fully determined by (scenario, study config
including its selection table, world size, batch, fault plan, recovery
policy, code version).  ``canonical_digest`` reduces any composition of
dataclasses, enums, and plain containers to a stable JSON form and hashes
it, giving the content address the on-disk result cache is keyed by.

Two properties matter and are tested:

* **stability** — the same logical configuration always digests the same,
  across processes and dict orderings;
* **sensitivity** — any knob change (a config field, a selection table,
  a fault plan, a model preset, a tolerance) changes the digest, so stale
  cache entries can never be returned for a different configuration.

A dataclass field declared with ``compare=False`` is provenance, not
content: it takes no part in equality, and none in the digest either.  A
selection table's ``source`` and ``extra`` are such fields, so a table
enters a digest by its routing content only.

``CACHE_VERSION_SALT`` is folded into every digest; bump it whenever the
simulator's timing semantics change so old caches invalidate wholesale.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any, Mapping

from repro.errors import ConfigError

#: bump on any change to the simulator's timing semantics — this is the
#: explicit whole-cache invalidation lever (plus ``ResultCache.clear``).
CACHE_VERSION_SALT = "repro-perf-v9"


def _canonical(obj: Any) -> Any:
    """Reduce ``obj`` to JSON-encodable canonical form."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # repr round-trips exactly; avoids json float formatting surprises
        return {"__float__": repr(obj)}
    if isinstance(obj, enum.Enum):
        return {"__enum__": type(obj).__name__, "value": obj.value}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            f.name: _canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj) if f.compare
        }
        return {"__dataclass__": type(obj).__name__, "fields": fields}
    if isinstance(obj, (list, tuple)):
        return [_canonical(x) for x in obj]
    if isinstance(obj, (set, frozenset)):
        return {"__set__": sorted(json.dumps(_canonical(x)) for x in obj)}
    if isinstance(obj, Mapping):
        items = sorted(
            (json.dumps(_canonical(k), sort_keys=True), _canonical(v))
            for k, v in obj.items()
        )
        return {"__mapping__": items}
    if isinstance(obj, bytes):
        return {"__bytes__": obj.hex()}
    # objects with no fields still carry identity through their class name
    # (device-visibility policies are stateless singletons of distinct types)
    if hasattr(obj, "__dict__") or hasattr(type(obj), "__slots__"):
        state = {
            k: _canonical(v)
            for k, v in sorted(vars(obj).items())
        } if hasattr(obj, "__dict__") else {}
        return {"__object__": type(obj).__name__, "state": state}
    raise ConfigError(f"cannot canonicalize {type(obj).__name__!r} for digest")


def canonical_json(obj: Any) -> str:
    """Stable JSON form of ``obj`` (the digest preimage)."""
    return json.dumps(_canonical(obj), sort_keys=True, separators=(",", ":"))


def canonical_digest(obj: Any, *, salt: str = CACHE_VERSION_SALT) -> str:
    """SHA-256 content digest of ``obj``'s canonical form."""
    h = hashlib.sha256()
    h.update(salt.encode())
    h.update(b"\x00")
    h.update(canonical_json(obj).encode())
    return h.hexdigest()
