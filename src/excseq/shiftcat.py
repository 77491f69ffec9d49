"""Shifted exceptional objects and m-clusters in the fundamental-domain model.

An object is a pair (root, level) standing for the module at that root placed
at shift level 0..m; level m is reserved for the relative projectives of the
ambient scope.  No derived-category machinery is materialized: compatibility
is decided by three Hom/Ext vanishing cases on the underlying modules.
Clusters are found by canonical-order backtracking over the compatibility
graph; every maximal compatible set must have exactly rank-many objects.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .dynkin import Root, root_str
from .errors import InputError, InternalConsistencyError
from .repengine import RepCategory
from .wide import WideSubcat, ambient, is_relatively_projective, relative_projectives


class ShiftedObject(NamedTuple):
    root: Root
    level: int

    def __str__(self) -> str:
        return f"{root_str(self.root)}[{self.level}]"


def _inconsistent(cat: RepCategory, m: int, message: str) -> InternalConsistencyError:
    """An invariant failure whose message names the category and m."""
    return InternalConsistencyError(f"{cat.quiver.diagram.type_tag}, m={m}: {message}")


def canonical_cluster(objects: Iterable[ShiftedObject]) -> tuple[ShiftedObject, ...]:
    """Clusters are compared and stored sorted by (level, root)."""
    return tuple(sorted(objects, key=lambda o: (o.level, o.root)))


def shifted_objects(cat: RepCategory, scope: WideSubcat | None, m: int) -> tuple[ShiftedObject, ...]:
    """All valid objects of the scope at shift parameter m, canonically ordered."""
    if m < 0:
        raise InputError("shift parameter m must be >= 0")
    scope = scope if scope is not None else ambient(cat)
    out = [ShiftedObject(r, j) for j in range(m) for r in scope.objects]
    out.extend(ShiftedObject(r, m) for r in relative_projectives(cat, scope))
    return tuple(sorted(out, key=lambda o: (o.level, o.root)))


def is_valid_object(cat: RepCategory, scope: WideSubcat | None, m: int,
                    obj: ShiftedObject) -> bool:
    """obj lies in the scope at a level in 0..m, and at m only if it is
    relatively projective there; a level that is not an integer is refused."""
    scope = scope if scope is not None else ambient(cat)
    level = check_level(obj.level)
    try:
        i = cat.root_id[obj.root]
    except (KeyError, TypeError):
        return False
    if not scope.mask >> i & 1 or not 0 <= level <= m:
        return False
    return level < m or is_relatively_projective(cat, obj.root, scope)


def check_level(level) -> int:
    """level as an int; integral non-int values such as Fraction(1) are
    accepted, non-integral or non-numeric ones refused rather than truncated."""
    try:
        j = int(level)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"level {level!r} is not an integer") from exc
    if j != level:
        raise InputError(f"level {level!r} is not an integer")
    return j


def check_object(cat: RepCategory, scope: WideSubcat | None, m: int,
                 obj: ShiftedObject) -> ShiftedObject:
    obj = ShiftedObject(cat.check_root(obj.root), check_level(obj.level))
    if not is_valid_object(cat, scope, m, obj):
        raise InputError(f"{obj} is not a valid shifted object here (m={m})")
    return obj


def compatible(cat: RepCategory, a: ShiftedObject, b: ShiftedObject) -> bool:
    """Symmetric, irreflexive compatibility of two shifted objects."""
    if a == b:
        return False
    if a.level < b.level:
        return cat.hom(b.root, a.root) == 0 and cat.ext(b.root, a.root) == 0
    if a.level > b.level:
        return cat.hom(a.root, b.root) == 0 and cat.ext(a.root, b.root) == 0
    if a.root == b.root:
        return False
    return cat.ext(a.root, b.root) == 0 and cat.ext(b.root, a.root) == 0


def enumerate_clusters(cat: RepCategory, m: int,
                       scope: WideSubcat | None = None) -> tuple[tuple[ShiftedObject, ...], ...]:
    """All maximal pairwise compatible sets, each sorted, list sorted."""
    scope = scope if scope is not None else ambient(cat)
    objs = shifted_objects(cat, scope, m)
    n = len(objs)
    adj = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            adj[i][j] = adj[j][i] = compatible(cat, objs[i], objs[j])
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


def compatible_subsets(cat: RepCategory, m: int, k: int,
                       scope: WideSubcat | None = None) -> list[tuple[ShiftedObject, ...]]:
    """All pairwise compatible k-element subsets, canonically ordered."""
    scope = scope if scope is not None else ambient(cat)
    objs = shifted_objects(cat, scope, m)
    n = len(objs)
    out: list[tuple[ShiftedObject, ...]] = []

    def extend(chosen: list[int], start: int) -> None:
        if len(chosen) == k:
            out.append(tuple(objs[c] for c in chosen))
            return
        for nxt in range(start, n):
            if all(compatible(cat, objs[nxt], objs[c]) for c in chosen):
                chosen.append(nxt)
                extend(chosen, nxt + 1)
                chosen.pop()

    extend([], 0)
    return out


def ordered_tuples(cat: RepCategory, m: int, k: int,
                   scope: WideSubcat | None = None) -> list[tuple[ShiftedObject, ...]]:
    """All ordered pairwise compatible k-tuples (permutations of the subsets)."""
    from itertools import permutations
    out: list[tuple[ShiftedObject, ...]] = []
    for subset in compatible_subsets(cat, m, k, scope):
        out.extend(permutations(subset))
    return out


def check_pairwise_compatible(cat: RepCategory, objects: Iterable[ShiftedObject]) -> None:
    objects = list(objects)
    for i in range(len(objects)):
        for j in range(i + 1, len(objects)):
            if not compatible(cat, objects[i], objects[j]):
                raise InputError(f"{objects[i]} and {objects[j]} are not compatible")
