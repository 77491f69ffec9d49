"""Shifted exceptional objects and m-clusters in the fundamental-domain model.

An object is a pair (root, level) standing for the module at that root placed
at shift level 0..m; level m is reserved for the relative projectives of the
ambient scope.  No derived-category machinery is materialized: compatibility
is decided by three Hom/Ext vanishing cases on the underlying modules, read off
the Hom/Ext masks into one table, `_compat_rows` (the pairwise three-case
definition is a reference in `tests/oracle.py`).  Clusters are found by
canonical-order backtracking over its rows; every maximal compatible set must
have exactly rank-many objects.  Inside, an object is the id level * N + root
id over the N sorted roots (`encode`, `decode`): ids sort canonically, a set of
objects is a mask, and the `bijection`, `configs` and `verify` kernels run on ids.
"""

from __future__ import annotations

from typing import NamedTuple

from .counting import check_level, check_m
from .dynkin import Root, root_str
from .errors import InputError, InternalConsistencyError
from .repengine import RepCategory
from .wide import WideSubcat, ambient, check_scope


class ShiftedObject(NamedTuple):
    root: Root
    level: int

    def __str__(self) -> str:
        return f"{root_str(self.root)}[{self.level}]"


def _inconsistent(cat: RepCategory, m: int, message: str) -> InternalConsistencyError:
    """An invariant failure whose message names the category and m."""
    return InternalConsistencyError(f"{cat.quiver.diagram.type_tag}, m={m}: {message}")


def encode(cat: RepCategory, objects) -> tuple[int, ...]:
    """The ids of objects, each parsed as a (root, level) pair by `check_pair` and `check_root`;
    a level outside 0..m gives an id outside 0..(m+1)N-1 that no other object has."""
    n, root_id = len(cat.roots), cat.root_id
    return tuple([level * n + root_id[cat.check_root(root)]
                  for root, level in map(check_pair, objects)])


def decode(cat: RepCategory, ids) -> tuple[ShiftedObject, ...]:
    return tuple([ShiftedObject(cat.roots[x % len(cat.roots)], x // len(cat.roots)) for x in ids])


def _ids(mask: int) -> list[int]:
    """The set bits, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def object_mask(cat: RepCategory, scope: WideSubcat | None, m: int) -> int:
    """The ids of the scope's valid objects at an m parsed by `check_m`, kept in `cat.compat`
    under (m, mask)."""
    scope, n = scope if scope is not None else ambient(cat), len(cat.roots)
    if (m, scope.mask) not in cat.compat:
        proj = sum(1 << i for i in _ids(scope.mask) if not cat.ext_out[i] & scope.mask)
        cat.compat[m, scope.mask] = sum(scope.mask << j * n for j in range(m)) | proj << m * n
    return cat.compat[m, scope.mask]


def _compat_rows(cat: RepCategory, m: int) -> list[int]:
    """Row x: the ids in 0..(m+1)N-1 compatible with id x at an m parsed by `check_m`, kept
    by m: no Hom/Ext from x to a lower level, none into x from a higher one, no Ext either way
    at x's level."""
    if m not in cat.compat:
        n, full = len(cat.roots), (1 << len(cat.roots)) - 1
        ext_in = [sum(1 << j for j, x in enumerate(cat.ext_out) if x >> r & 1) for r in range(n)]
        cat.compat[m] = [sum((~(cat.right_nz[r] if j < level else cat.left_nz[r] if j > level
                                else cat.ext_out[r] | ext_in[r] | 1 << r) & full) << j * n
                             for j in range(m + 1))
                         for level in range(m + 1) for r in range(n)]
    return cat.compat[m]


def check_length(k) -> int:
    """A length as an int >= 0, parsed like a level."""
    if check_level(k, "length") < 0:
        raise InputError(f"length {k!r} is not an integer >= 0")
    return int(k)


def check_pair(obj) -> tuple:
    """obj, a (root, level) pair, as (root, int level); the root is unchecked."""
    try:
        root, level = obj
    except (TypeError, ValueError):
        raise InputError(f"{obj!r} is not a (root, level) pair") from None
    return root, check_level(level)


def enumerate_clusters(cat: RepCategory, m: int) -> tuple[tuple[ShiftedObject, ...], ...]:
    """All maximal pairwise compatible sets, each sorted, list sorted."""
    m, scope = check_m(m), ambient(cat)
    ids = _ids(object_mask(cat, scope, m))
    rows, objs, n = _compat_rows(cat, m), decode(cat, ids), len(ids)
    adj = [[bool(rows[a] >> b & 1) for b in ids] for a in ids]
    found: list[tuple[ShiftedObject, ...]] = []

    def extend(chosen: list[int], start: int) -> None:
        grew = False
        for nxt in range(start, n):
            if all(adj[nxt][c] for c in chosen):
                grew = True
                chosen.append(nxt)
                extend(chosen, nxt + 1)
                chosen.pop()
        if not grew:
            # maximal iff nothing anywhere is compatible with everything chosen
            if not any(all(adj[v][c] for c in chosen) for v in range(n)):
                cluster = tuple(objs[c] for c in chosen)
                if len(cluster) != scope.rank:
                    raise _inconsistent(cat, m, "maximal compatible set of size "
                                        f"{len(cluster)}, rank {scope.rank}")
                found.append(cluster)

    extend([], 0)
    return tuple(sorted(found))


def compatible_subsets(cat: RepCategory, m: int, k: int, scope: WideSubcat | None = None,
                       candidates: int = -1) -> list[tuple[int, ...]]:
    """The pairwise compatible k-subsets of the valid objects of the scope whose
    ids are in the mask candidates, as id tuples in canonical order."""
    m, scope = check_m(m), check_scope(cat, scope) if scope is not None else None
    rows = _compat_rows(cat, m)

    def subsets(mask: int, k: int) -> list[tuple[int, ...]]:  # x, then ids above x
        return [(x,) + rest for x in _ids(mask)
                for rest in subsets(mask & rows[x] & -(2 << x), k - 1)] if k else [()]

    return subsets(object_mask(cat, scope, m) & candidates, k)


def check_objects(cat: RepCategory, scope: WideSubcat | None, m: int, objects) -> tuple[int, ...]:
    """The ids of objects, the one object parser: each is parsed by `encode`, must be a valid
    object of the scope at m, and they must be pairwise compatible (`_compat_rows`)."""
    m, ids = check_m(m), encode(cat, objects)
    valid = object_mask(cat, check_scope(cat, scope) if scope is not None else None, m)
    for x in ids:
        if x < 0 or not valid >> x & 1:
            raise InputError(f"{decode(cat, (x,))[0]} is not a valid shifted object here (m={m})")
    rows = _compat_rows(cat, m) if ids else ()
    for i, x in enumerate(ids):
        for j in range(i + 1, len(ids)):
            if not rows[x] >> ids[j] & 1:
                raise InputError("{} and {} are not compatible".format(*decode(cat, (x, ids[j]))))
    return ids
