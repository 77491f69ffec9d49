"""Dynkin diagrams of all finite types: tables, vertex deletion, roots, Euler forms.

Canonical vertex numbering (0-based): path order for A/B/C/F/G; for D the two
fork leaves carry the last two numbers and hang off the path's final vertex;
for E the path is numbered first and the branch leaf last, attached to path
vertex 2.  Every edge stores its valuation pair read from the first endpoint
to the second, (1, 1) meaning an ordinary simply-laced edge.  Disjoint unions
are written with an 'x' separator, e.g. "A2xA1".
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import NamedTuple

from .errors import InputError, InternalConsistencyError, UnsupportedFeatureError

Root = tuple[int, ...]
Edge = tuple[int, int, int, int]  # (u, v, val_uv, val_vu)

_TAG_RE = re.compile(r"([A-G])([0-9]+)\Z")

# (min rank, max rank or None for unbounded)
_RANK_RANGE = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


class CoxeterData(NamedTuple):
    h: int
    degrees: tuple[int, ...]


class DynkinDiagram(NamedTuple):
    vertices: tuple[int, ...]
    edges: tuple[Edge, ...]
    components: tuple[tuple[str, tuple[int, ...]], ...]

    @property
    def rank(self) -> int:
        return len(self.vertices)

    @property
    def type_tag(self) -> str:
        return "x".join(tag for tag, _ in self.components)

    @property
    def is_simply_laced(self) -> bool:
        return all(e[2] == 1 and e[3] == 1 for e in self.edges)

    def component_tags(self) -> tuple[str, ...]:
        return tuple(tag for tag, _ in self.components)

    def adjacency(self) -> dict[int, tuple[int, ...]]:
        adj: dict[int, list[int]] = {v: [] for v in self.vertices}
        for u, v, _, _ in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return {v: tuple(sorted(ws)) for v, ws in adj.items()}


def parse_type_tag(tag: str) -> tuple[tuple[str, int], ...]:
    """Split a tag like "A3" or "A2xA1" into (letter, rank) pairs."""
    cleaned = tag.replace(" ", "").replace("X", "x")
    if not cleaned:
        raise InputError("empty type tag")
    parts = cleaned.split("x")
    out = []
    for part in parts:
        m = _TAG_RE.match(part.upper())
        if m is None:
            raise InputError(f"cannot parse Dynkin type {part!r}")
        letter, rank = m.group(1), int(m.group(2))
        lo, hi = _RANK_RANGE[letter]
        if rank < lo or (hi is not None and rank > hi):
            raise InputError(f"rank {rank} out of range for type {letter}")
        out.append((letter, rank))
    return tuple(out)


def _component_edges(letter: str, rank: int) -> list[Edge]:
    path = [(i, i + 1, 1, 1) for i in range(rank - 1)]
    if letter == "A":
        return path
    if letter == "B":
        path[-1] = (rank - 2, rank - 1, 1, 2)
        return path
    if letter == "C":
        path[-1] = (rank - 2, rank - 1, 2, 1)
        return path
    if letter == "D":
        edges = [(i, i + 1, 1, 1) for i in range(rank - 3)]
        edges += [(rank - 3, rank - 2, 1, 1), (rank - 3, rank - 1, 1, 1)]
        return edges
    if letter == "E":
        edges = [(i, i + 1, 1, 1) for i in range(rank - 2)]
        edges.append((2, rank - 1, 1, 1))
        return edges
    if letter == "F":
        return [(0, 1, 1, 1), (1, 2, 1, 2), (2, 3, 1, 1)]
    if letter == "G":
        return [(0, 1, 1, 3)]
    raise InputError(f"unknown type letter {letter!r}")


@lru_cache(maxsize=None)
def build_diagram(tag: str) -> DynkinDiagram:
    components = []
    edges: list[Edge] = []
    offset = 0
    for letter, rank in parse_type_tag(tag):
        for u, v, a, b in _component_edges(letter, rank):
            edges.append((u + offset, v + offset, a, b))
        components.append((f"{letter}{rank}", tuple(range(offset, offset + rank))))
        offset += rank
    return DynkinDiagram(tuple(range(offset)), tuple(edges), tuple(components))


def _coxeter_table(letter: str, n: int) -> CoxeterData:
    if letter == "A":
        return CoxeterData(n + 1, tuple(range(2, n + 2)))
    if letter in ("B", "C"):
        return CoxeterData(2 * n, tuple(range(2, 2 * n + 1, 2)))
    if letter == "D":
        return CoxeterData(2 * n - 2, tuple(sorted(list(range(2, 2 * n - 1, 2)) + [n])))
    table = {
        ("E", 6): CoxeterData(12, (2, 5, 6, 8, 9, 12)),
        ("E", 7): CoxeterData(18, (2, 6, 8, 10, 12, 14, 18)),
        ("E", 8): CoxeterData(30, (2, 8, 12, 14, 18, 20, 24, 30)),
        ("F", 4): CoxeterData(12, (2, 6, 8, 12)),
        ("G", 2): CoxeterData(6, (2, 6)),
    }
    return table[(letter, n)]


def coxeter_data(diagram: DynkinDiagram) -> CoxeterData:
    """Coxeter number and degrees of a connected diagram."""
    if len(diagram.components) != 1:
        raise InputError("coxeter_data needs a connected diagram; iterate components")
    return coxeter_for_tag(diagram.components[0][0])


def coxeter_for_tag(tag: str) -> CoxeterData:
    """Coxeter data looked up from a single-component tag string."""
    pairs = parse_type_tag(tag)
    if len(pairs) != 1:
        raise InputError("coxeter_for_tag takes a connected type")
    return _coxeter_table(*pairs[0])


def _path_order(vertices: list[int], adj: dict[int, tuple[int, ...]]) -> list[int]:
    ends = sorted(v for v in vertices if len(adj[v]) <= 1)
    start = ends[0]
    order = [start]
    prev = None
    cur = start
    while len(order) < len(vertices):
        nxt = [w for w in adj[cur] if w != prev]
        if len(nxt) != 1:
            raise InputError("not a path")
        prev, cur = cur, nxt[0]
        order.append(cur)
    return order


def _arm_length(branch: int, first: int, adj: dict[int, tuple[int, ...]]) -> int:
    length = 1
    prev, cur = branch, first
    while True:
        nxt = [w for w in adj[cur] if w != prev]
        if not nxt:
            return length
        if len(nxt) > 1:
            raise InputError("nested branch vertex")
        prev, cur = cur, nxt[0]
        length += 1


def _classify_component(vertices: list[int], edges: list[Edge],
                        adj: dict[int, tuple[int, ...]]) -> str:
    """Recognize the Dynkin type of a connected valued graph, given the neighbours of
    each of its vertices."""
    n = len(vertices)
    if n == 1:
        return "A1"
    degs = {v: len(adj[v]) for v in vertices}
    valued = [e for e in edges if (e[2], e[3]) != (1, 1)]
    if len(valued) > 1:
        raise InputError("more than one valued edge: not a Dynkin diagram")
    if valued:
        u, v, a, b = valued[0]
        if sorted((a, b)) == [1, 3]:
            if n != 2:
                raise InputError("triple edge only occurs in G2")
            return "G2"
        if max(degs.values()) > 2:
            raise InputError("valued diagram with a branch vertex")
        order = _path_order(vertices, adj)
        pos = next(i for i in range(n - 1) if {order[i], order[i + 1]} == {u, v})
        if pos == 0 and n > 2:
            order.reverse()
            pos = n - 2
        if pos == n - 2:
            pair = (a, b) if (u, v) == (order[n - 2], order[n - 1]) else (b, a)
            return f"B{n}" if pair == (1, 2) else f"C{n}"
        if n == 4 and pos == 1:
            return "F4"
        raise InputError("interior valued edge: not a Dynkin diagram")
    if max(degs.values()) <= 2:
        return f"A{n}"
    branches = [v for v in vertices if degs[v] >= 3]
    if len(branches) != 1 or degs[branches[0]] > 3:
        raise InputError("not a Dynkin tree")
    c = branches[0]
    arms = sorted(_arm_length(c, nb, adj) for nb in adj[c])
    if arms[0] == 1 and arms[1] == 1:
        return f"D{arms[2] + 3}"
    if arms[0] == 1 and arms[1] == 2 and arms[2] in (2, 3, 4):
        return f"E{arms[2] + 4}"
    raise InputError("not a Dynkin tree")


def delete_vertex(diagram: DynkinDiagram, i: int) -> list[DynkinDiagram]:
    """Connected components left after removing vertex i, each retyped."""
    if i not in diagram.vertices:
        raise InputError(f"vertex {i} not in diagram")
    edges = [e for e in diagram.edges if i not in (e[0], e[1])]
    adj = {v: tuple(w for w in ws if w != i) for v, ws in diagram.adjacency().items() if v != i}
    seen: set[int] = set()
    pieces: list[DynkinDiagram] = []
    for start in adj:
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        stack = [start]
        while stack:
            cur = stack.pop()
            for w in adj[cur]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    stack.append(w)
        comp_set = set(comp)
        comp_edges = [e for e in edges if e[0] in comp_set]
        pieces.append(build_diagram(_classify_component(sorted(comp), comp_edges, adj)))
    return pieces


@lru_cache(maxsize=None)
def positive_roots(diagram: DynkinDiagram) -> tuple[Root, ...]:
    """All positive roots, computed by reflection closure of the unit vectors.

    Lexicographically sorted; only defined for simply-laced diagrams.
    """
    if not diagram.is_simply_laced:
        raise UnsupportedFeatureError(
            f"positive roots need a simply-laced diagram, got {diagram.type_tag}")
    n = diagram.rank
    adj = diagram.adjacency()
    seen: set[Root] = set()
    frontier: list[Root] = []
    for k in range(n):
        unit = tuple(1 if j == k else 0 for j in range(n))
        seen.add(unit)
        frontier.append(unit)
    while frontier:
        new: list[Root] = []
        for r in frontier:
            for k in range(n):
                pairing = 2 * r[k] - sum(r[j] for j in adj[k])
                s = list(r)
                s[k] = r[k] - pairing
                t = tuple(s)
                if t not in seen and all(c >= 0 for c in t):
                    seen.add(t)
                    new.append(t)
        frontier = new
    expected = 0
    for tag, ids in diagram.components:
        expected += len(ids) * coxeter_for_tag(tag).h // 2
    if len(seen) != expected:
        raise InternalConsistencyError(
            f"root closure found {len(seen)} roots, tables say {expected}")
    return tuple(sorted(seen))


class Quiver(NamedTuple):
    diagram: DynkinDiagram
    arrows: tuple[tuple[int, int], ...]


def build_quiver(diagram: DynkinDiagram,
                 arrows: tuple[tuple[int, int], ...] | None = None) -> Quiver:
    """Orient a simply-laced diagram; default sends each edge low -> high."""
    if not diagram.is_simply_laced:
        raise UnsupportedFeatureError(
            f"representations need a simply-laced diagram, got {diagram.type_tag}")
    if arrows is None:
        arrows = tuple((u, v) for u, v, _, _ in diagram.edges)
    else:
        arrows = tuple(arrows)
        want = {frozenset((u, v)) for u, v, _, _ in diagram.edges}
        got = [frozenset(a) for a in arrows]
        if len(got) != len(want) or set(got) != want:
            raise InputError("arrows do not orient the diagram's edges")
    return Quiver(diagram, arrows)


def euler_matrix(quiver: Quiver) -> tuple[tuple[int, ...], ...]:
    """E with e_ii = 1 and e_ij = -(number of arrows i -> j)."""
    n = quiver.diagram.rank
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for s, t in quiver.arrows:
        rows[s][t] -= 1
    return tuple(tuple(r) for r in rows)


def root_str(root: Root) -> str:
    return "(" + ",".join(str(c) for c in root) + ")"
