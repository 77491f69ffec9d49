"""Exact Hom/Ext dimensions of Dynkin quivers, as one table.

Every exceptional module is identified by its positive root, and the roots
are interned as ids 0..N-1 in `roots` order.  A Dynkin quiver is
representation-directed, so for indecomposables X and Y at most one of
Hom(X, Y) and Ext(X, Y) is nonzero and both follow from the Euler form:
dim Hom = max(<x, y>, 0) and dim Ext = max(-<x, y>, 0) (Happel 1988; Ringel,
LNM 1099).  So the Hom/Ext table is one matrix, `pairings`, of the Euler
pairings over root ids, filled when the category is built, and per-root
bitmasks of its nonzero entries are derived from it for the wide-subcategory
layer.  The projectives are the roots with no extensions out, checked to be
the rows of E^{-1}.

A `RepCategory` is this table, the Euler matrix and the memo of what
`shiftcat`, `wide` and `bijection` derive from them, freed with the category.
It builds no modules and pairs no vectors but roots; the explicit
representations that the tests check the table against, and the Euler form on
arbitrary integer vectors, are in the test oracle (`tests/oracle.py`).
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul

from .dynkin import Quiver, Root, build_diagram, build_quiver, euler_matrix, positive_roots
from .errors import InputError, InternalConsistencyError


def _int_vector(v) -> tuple[int, ...]:
    """v as a tuple of ints; integral non-int entries such as Fraction(1) are
    accepted, non-integral ones refused rather than truncated."""
    try:
        v = tuple(v)
        ints = tuple(map(int, v))
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{v!r} is not an integer vector") from exc
    if ints != v:
        raise InputError(f"{v} has a non-integer entry")
    return ints


class RepCategory:
    """The module category of one quiver, with its Hom/Ext table.

    Its memo is four dicts keyed by ints, each the only store of its kind:
    `perps` holds perpendiculars by (right side, generator mask, scope mask),
    `pair_mutations` the braid move of each exceptional pair (`wide.PairRecord`)
    by (x id, t id, inverse) and the signed root id of each slope-vector update
    by (root id j, root id k, sign of c_j, sign of c_k), `compat` shifted objects'
    compatibility rows by m and a scope's objects by (m, scope mask), and
    `transports` the tables of T[k] by (m, object id of T[k], scope mask).
    """

    def __init__(self, quiver: Quiver):
        self.quiver = quiver
        self.n = quiver.diagram.rank
        self.roots = positive_roots(quiver.diagram)
        self.root_set = frozenset(self.roots)
        self.root_id = {r: i for i, r in enumerate(self.roots)}
        # the largest coefficient of each vertex over all roots: a connected
        # diagram's highest root, which every root lies below
        self.highest = tuple(map(max, zip(*self.roots)))
        self.E = euler_matrix(quiver)
        # the table pairings[i][j] = <root i, root j>, and masks over root
        # ids: right_nz[i] holds the Y with Hom or Ext(root i, Y) nonzero,
        # left_nz[i] the X with Hom or Ext(X, root i) nonzero, ext_out[i] the
        # Y with Ext nonzero
        n, e, roots = self.n, self.E, self.roots
        right_nz, left_nz, ext_out = [0] * len(roots), [0] * len(roots), [0] * len(roots)
        proj: list[tuple[list[int], Root]] = []  # (<P, S_j> over j, P)
        self.pairings = []
        for i, x in enumerate(roots):
            xe = [sum(x[k] * e[k][j] for k in range(n)) for j in range(n)]
            self.pairings.append([sum(map(mul, xe, y)) for y in roots])
            for j, pairing in enumerate(self.pairings[i]):
                if pairing:
                    right_nz[i] |= 1 << j
                    left_nz[j] |= 1 << i
                    if pairing < 0:
                        ext_out[i] |= 1 << j
            if not ext_out[i]:
                proj.append((xe, x))
        # the projectives are the roots with no extensions out, and P_j has
        # <P_j, S_l> = dim Hom(P_j, S_l) = delta_jl: ordered by j they invert E
        proj.sort(reverse=True)
        if [xe for xe, _ in proj] != [[int(i == j) for j in range(n)] for i in range(n)]:
            raise InternalConsistencyError(
                "projectives from Ext vanishing do not invert the Euler matrix")
        # row j of E^{-1} is the dimension vector of the projective at vertex j
        self.projective_roots = tuple(x for _, x in proj)
        self.right_nz, self.left_nz, self.ext_out = right_nz, left_nz, ext_out
        self.perps, self.pair_mutations, self.compat, self.transports = {}, {}, {}, {}

    # ----- basic data -----

    def check_root(self, beta) -> Root:
        """beta as a tuple of ints (see `_int_vector`), if it is a positive root."""
        try:
            # integral entries hash and compare like ints, so they hit here too
            return self.roots[self.root_id[beta]]
        except (KeyError, TypeError):
            pass
        root = _int_vector(beta)
        if root not in self.root_set:
            raise InputError(f"{root} is not a positive root of {self.quiver.diagram.type_tag}")
        return root

    # ----- hom / ext -----

    def hom(self, a, b) -> int:
        try:
            p = self.pairings[self.root_id[a]][self.root_id[b]]
        except (KeyError, TypeError):
            p = self.pairings[self.root_id[self.check_root(a)]][self.root_id[self.check_root(b)]]
        return p if p > 0 else 0

    def ext(self, a, b) -> int:
        try:
            p = self.pairings[self.root_id[a]][self.root_id[b]]
        except (KeyError, TypeError):
            p = self.pairings[self.root_id[self.check_root(a)]][self.root_id[self.check_root(b)]]
        return -p if p < 0 else 0


@lru_cache(maxsize=None)
def category(tag: str) -> RepCategory:
    """RepCategory for a type tag with the default orientation, shared per tag."""
    return RepCategory(build_quiver(build_diagram(tag)))
