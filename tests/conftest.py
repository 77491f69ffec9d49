from itertools import product

import pytest

from excseq import build_diagram, category


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
