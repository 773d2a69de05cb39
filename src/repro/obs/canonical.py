"""The one serialisation rule behind every artifact (DESIGN.md §6).

Spelled here and nowhere else: which keys are host measurement and get
stripped, and the only two text forms JSON takes on its way out:

- :func:`canonical_json` -- compact, sorted keys: store columns, trace
  lines, hash inputs, drain items, the HTTP envelope;
- :func:`pretty_json` -- sorted keys, indent 2, trailing LF: every
  ``.json`` file and stored artifact a person may open.

A leaf module: standard library only.
"""

from __future__ import annotations

import dataclasses
import enum
import json
from typing import Any

__all__ = ["WALL_KEYS", "canonical_json", "pretty_json", "strip_wall", "to_jsonable"]

#: Names that say how a run was *measured*, not what the simulation did:
#: host wall-clock data and the benchmark run protocol (how many rounds were
#: timed).  Never exported, compared or hashed.
WALL_KEYS = frozenset({
    "wall", "wall_seconds", "wall_clock_seconds", "seed_seconds",
    "rounds", "rounds_override",
})

_COMPACT = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_PRETTY = json.JSONEncoder(sort_keys=True, indent=2)


def to_jsonable(obj: Any) -> Any:
    """Convert *obj* (dataclasses, enums, containers) to JSON types.

    Dataclass fields named in :data:`WALL_KEYS` are dropped, so result
    objects serialise reproducibly.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: to_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
            if f.name not in WALL_KEYS
        }
    if isinstance(obj, enum.Enum):
        return obj.name if isinstance(obj, enum.IntEnum) else obj.value
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(to_jsonable(v) for v in obj)
    if isinstance(obj, bytes):
        return obj.hex()
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    return str(obj)


def strip_wall(obj: Any) -> Any:
    """A deep copy of JSON-native *obj* without any :data:`WALL_KEYS`
    subtree: what is left is the sim-side payload."""
    if isinstance(obj, dict):
        return {k: strip_wall(v) for k, v in obj.items() if k not in WALL_KEYS}
    if isinstance(obj, list):
        return [strip_wall(v) for v in obj]
    return obj


def canonical_json(obj: Any) -> str:
    """JSON-native *obj* as compact text: sorted keys, no whitespace.

    "Same value" is then a byte question, not a parse question.  Takes
    JSON types only (no :func:`to_jsonable` pass): it runs once per
    trace record.
    """
    return _COMPACT.encode(obj)


def pretty_json(obj: Any) -> str:
    """Any result object as file text: sorted keys, indent 2, trailing LF."""
    return _PRETTY.encode(to_jsonable(obj)) + "\n"
