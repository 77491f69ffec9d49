"""Canonical JSON encoding of shifted objects, clusters, sequences, configs.

Schemas (fields sorted, arrays in canonical order):
  shifted object   {"dim": [ints], "level": int}
  cluster          {"m": int, "objects": [shifted object]}
  sequence         {"m": int, "terms": [shifted object]}
  configuration    {"m": int, "objects": [shifted object],
                    "tilde_c": [{"root": [ints], "slope": int}]}
"""

from __future__ import annotations

import json

from .configs import _slope_vectors
from .errors import InputError
from .repengine import RepCategory
from .shiftcat import ShiftedObject, check_objects


def dumps_canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def object_to_dict(obj: ShiftedObject) -> dict:
    return {"dim": list(obj.root), "level": obj.level}


def object_from_dict(data) -> ShiftedObject:
    try:
        dim, level = tuple(data["dim"]), data["level"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed shifted object: {data!r}") from exc
    # JSON integers only: floats and booleans are refused, not truncated
    if any(type(v) is not int for v in (*dim, level)):
        raise InputError(f"shifted object needs integer dim and level: {data!r}")
    return ShiftedObject(dim, level)


def cluster_to_dict(m: int, objects) -> dict:
    return {"m": m, "objects": [object_to_dict(o) for o in objects]}


def cluster_from_dict(cat: RepCategory, data, expect_m: int | None = None):
    """Parse and validate a cluster payload; returns (m, objects)."""
    try:
        m = data["m"]
        raw = list(data["objects"])
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed cluster payload: {data!r}") from exc
    if type(m) is not int:
        raise InputError(f"cluster needs an integer m: {data!r}")
    if expect_m is not None and m != expect_m:
        raise InputError(f"cluster declares m={m}, command asked for m={expect_m}")
    objects = tuple(object_from_dict(o) for o in raw)
    check_objects(cat, None, m, objects)
    if len(objects) != cat.n:
        raise InputError(f"a cluster here has {cat.n} objects, got {len(objects)}")
    return m, objects


def sequence_to_dict(m: int, terms) -> dict:
    return {"m": m, "terms": [object_to_dict(o) for o in terms]}


def configuration_to_dict(m: int, comps) -> dict:
    return {
        "m": m,
        "objects": [object_to_dict(o) for o in comps],
        "tilde_c": [{"root": list(sv.root), "slope": sv.slope}
                    for sv in _slope_vectors(m, comps)],
    }


def exc_sequence_to_dict(terms, flags) -> dict:
    return {"terms": [list(t) for t in terms], "rel_proj": list(flags)}
