from functools import lru_cache
from itertools import permutations, product

import pytest

from excseq import build_diagram, category
from excseq.shiftcat import (_ids, compatible_subsets, decode, encode, enumerate_clusters,
                             object_mask)
from excseq.wide import _pair_record


@pytest.fixture(scope="session")
def a2():
    return category("A2")


@pytest.fixture(scope="session")
def a3():
    return category("A3")


@pytest.fixture(scope="session")
def d4():
    return category("D4")


# A2 modules by their roots (quiver 0 -> 1)
S1 = (1, 0)
S2 = (0, 1)
P1 = (1, 1)


COMPONENTS = ["E6", "D6", "D5", "D4"] + [f"A{n}" for n in range(6, 0, -1)]


def tags_up_to_rank(limit: int) -> list[str]:
    """Every simply-laced tag of rank <= limit, one component order per multiset."""
    out = []

    def extend(parts, start, rank):
        if parts:
            out.append("x".join(parts))
        for i in range(start, len(COMPONENTS)):
            r = int(COMPONENTS[i][1:])
            if rank + r <= limit:
                extend(parts + [COMPONENTS[i]], i, rank + r)

    extend([], 0, 0)
    return out


def orientations(tag: str) -> list[tuple[tuple[int, int], ...]]:
    """Every orientation of the diagram's edges, as arrows for `build_quiver`."""
    edges = [(u, v) for u, v, _, _ in build_diagram(tag).edges]
    return [tuple((v, u) if flip else (u, v) for (u, v), flip in zip(edges, flips))
            for flips in product((False, True), repeat=len(edges))]


def objects_at(cat, m, scope=None):
    """The valid shifted objects of the scope at m, in id order."""
    return decode(cat, _ids(object_mask(cat, scope, m)))


def compatible_tuples(cat, m, k):
    """Every ordered pairwise compatible k-tuple: the orders of each compatible k-subset."""
    return [p for s in compatible_subsets(cat, m, k) for p in permutations(decode(cat, s))]


def braid_move(cat, x, t, inverse=False):
    """Y of the braid move (X, T) -> (T, Y) on roots, or X of (T, Y) -> (X, T) if inverse."""
    return cat.roots[_pair_record(cat, cat.root_id[x], cat.root_id[t], inverse).z]


@lru_cache(maxsize=None)
def cluster_ids(tag, m):
    """`enumerate_clusters` of the shared category of tag, in its order, as id tuples; the
    oracles that compare it with another search share one run per (tag, m)."""
    cat = category(tag)
    return tuple(encode(cat, c) for c in enumerate_clusters(cat, m))
