"""Exact Hom/Ext dimensions and explicit representations of Dynkin quivers.

Every exceptional module is identified by its positive root, and the roots
are interned as ids 0..N-1 in `roots` order.  A Dynkin quiver is
representation-directed, so for indecomposables X and Y at most one of
Hom(X, Y) and Ext(X, Y) is nonzero and both follow from the Euler form:
dim Hom = max(<x, y>, 0) and dim Ext = max(-<x, y>, 0) (Happel 1988; Ringel,
LNM 1099).  One Hom/Ext table over all root pairs is filled from this closed
form when the category is built, and per-root bitmasks of the nonzero
entries are derived from it for the wide-subcategory layer.  The projectives
are the roots with no extensions out, checked to be the rows of E^{-1}.

The canonical indecomposable for a root can still be built with reflection
functors: the root is reflected down to a unit vector through an admissible
sink sequence, and the representation is rebuilt by applying the inverse
functors from the simple module.  That rational linear algebra (`rep`,
`hom_basis`, `approximation`) is only an oracle: the tests check the table
and the closed forms built on it against it, and Schurian and rigid are
checked on every built module.  Nothing else in the package calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import NamedTuple

from . import linalg
from .dynkin import (Quiver, Root, build_diagram, build_quiver, coxeter_for_tag,
                     euler_matrix, positive_roots)
from .errors import InputError, InternalConsistencyError
from .linalg import Mat


@dataclass(frozen=True)
class Representation:
    quiver: Quiver
    dims: Root
    maps: tuple[Mat, ...]  # one per arrow, shape (dims[target], dims[source])


class HomSpace(NamedTuple):
    source: Root
    target: Root
    dimension: int
    basis: tuple[tuple[Mat, ...], ...]  # each element: one matrix per vertex


class Approximation(NamedTuple):
    multiplicity: int
    kind: str  # "mono" or "epi"
    complement: Root  # cokernel dims if mono, kernel dims if epi


def _reflect_arrows(arrows: tuple[tuple[int, int], ...], k: int) -> tuple[tuple[int, int], ...]:
    return tuple((t, s) if k in (s, t) else (s, t) for s, t in arrows)


def _admissible_order(n: int, arrows: tuple[tuple[int, int], ...]) -> list[int]:
    """One full round of sink reflections, lowest-id sink first."""
    remaining = set(range(n))
    cur = arrows
    order = []
    while remaining:
        k = min(v for v in remaining if not any(s == v for s, _ in cur))
        order.append(k)
        remaining.discard(k)
        cur = _reflect_arrows(cur, k)
    if cur != arrows:
        raise InternalConsistencyError("full reflection round changed the orientation")
    return order


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
    """The module category of one quiver, with its Hom/Ext table."""

    def __init__(self, quiver: Quiver):
        self.quiver = quiver
        self.n = quiver.diagram.rank
        self.roots = positive_roots(quiver.diagram)
        self.root_set = frozenset(self.roots)
        self.root_id = {r: i for i, r in enumerate(self.roots)}
        self.E = euler_matrix(quiver)
        self._e_cols = tuple(zip(*self.E))
        self._adj = quiver.diagram.adjacency()
        self._reps: dict[Root, Representation] = {}
        self._hom_basis: dict[tuple[Root, Root], HomSpace] = {}
        self._approx: dict[tuple[Root, Root], Approximation] = {}
        self._verified: set[Root] = set()
        # the (dim Hom, dim Ext) table, and masks over root ids: right_nz[i]
        # holds the Y with Hom or Ext(root i, Y) nonzero, left_nz[i] the X
        # with Hom or Ext(X, root i) nonzero, ext_out[i] the Y with Ext nonzero
        n, e, roots = self.n, self.E, self.roots
        table: dict[tuple[Root, Root], tuple[int, int]] = {}
        right_nz, left_nz, ext_out = [0] * len(roots), [0] * len(roots), [0] * len(roots)
        proj: list[tuple[list[int], Root]] = []  # (<P, S_j> over j, P)
        for i, x in enumerate(roots):
            xe = [sum(x[k] * e[k][j] for k in range(n)) for j in range(n)]
            for j, y in enumerate(roots):
                pairing = sum(map(mul, xe, y))
                table[x, y] = (pairing, 0) if pairing >= 0 else (0, -pairing)
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
        self._table = table
        self.right_nz, self.left_nz, self.ext_out = right_nz, left_nz, ext_out

    # ----- basic data -----

    def euler(self, x, y) -> int:
        """<x, y> = x^t E y for integer vectors of length n, roots or not."""
        x, y = _int_vector(x), _int_vector(y)
        if len(x) != self.n or len(y) != self.n:
            raise InputError(f"{x} and {y} need {self.n} entries each")
        return sum(map(mul, (sum(map(mul, x, col)) for col in self._e_cols), y))

    def simple(self, i: int) -> Root:
        return tuple(1 if j == i else 0 for j in range(self.n))

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

    # ----- module construction -----

    def rep(self, beta: Root) -> Representation:
        beta = self.check_root(beta)
        if beta not in self._reps:
            self._reps[beta] = self._build(beta)
            self._verify_exceptional(beta)
        return self._reps[beta]

    def _simple_rep(self, quiver: Quiver, i: int) -> Representation:
        dims = self.simple(i)
        maps = tuple(linalg.zeros(dims[t], dims[s]) for s, t in quiver.arrows)
        return Representation(quiver, dims, maps)

    def _reflect_root(self, root: Root, k: int) -> Root:
        pairing = 2 * root[k] - sum(root[j] for j in self._adj[k])
        out = list(root)
        out[k] = root[k] - pairing
        return tuple(out)

    def _build(self, beta: Root) -> Representation:
        if sum(beta) == 1:
            return self._simple_rep(self.quiver, beta.index(1))
        order = _admissible_order(self.n, self.quiver.arrows)
        limit = sum(len(ids) * (coxeter_for_tag(tag).h + 2)
                    for tag, ids in self.quiver.diagram.components)
        word: list[int] = []
        arrow_hist = [self.quiver.arrows]
        gamma = beta
        while sum(gamma) > 1:
            for k in order:
                if sum(gamma) == 1:
                    break
                gamma = self._reflect_root(gamma, k)
                if any(c < 0 for c in gamma):
                    raise InternalConsistencyError(f"reflection left the positive cone at {beta}")
                word.append(k)
                arrow_hist.append(_reflect_arrows(arrow_hist[-1], k))
                if len(word) > limit:
                    raise InternalConsistencyError(f"reflection of {beta} did not terminate")
        rep = self._simple_rep(Quiver(self.quiver.diagram, arrow_hist[-1]), gamma.index(1))
        for i in reversed(range(len(word))):
            rep = self._coreflect(rep, word[i])
            if rep.quiver.arrows != arrow_hist[i]:
                raise InternalConsistencyError("orientation bookkeeping out of sync")
        if rep.dims != beta:
            raise InternalConsistencyError(f"rebuilt module has dims {rep.dims}, wanted {beta}")
        return rep

    def _coreflect(self, rep: Representation, k: int) -> Representation:
        """Inverse reflection at a source k: cokernel of M_k -> sum of targets."""
        arrows = rep.quiver.arrows
        out = [i for i, (s, _) in enumerate(arrows) if s == k]
        targets = [arrows[i][1] for i in out]
        stacked = linalg.vstack([rep.maps[i] for i in out]) if out else linalg.zeros(0, rep.dims[k])
        proj_rows = linalg.left_kernel(stacked)
        total = stacked.nrows
        c = len(proj_rows)
        new_dims = list(rep.dims)
        new_dims[k] = c
        if c != total - rep.dims[k]:
            raise InternalConsistencyError("canonical map at a source failed to be injective")
        pmat = Mat(c, total, tuple(proj_rows))
        new_maps = list(rep.maps)
        off = 0
        for i, t in zip(out, targets):
            w = rep.dims[t]
            new_maps[i] = Mat(c, w, tuple(row[off:off + w] for row in pmat.rows))
            off += w
        return Representation(Quiver(rep.quiver.diagram, _reflect_arrows(arrows, k)),
                              tuple(new_dims), tuple(new_maps))

    def _verify_exceptional(self, beta: Root) -> None:
        if beta in self._verified:
            return
        self._verified.add(beta)
        endo = self.hom_basis(beta, beta).dimension
        if endo != 1:
            raise InternalConsistencyError(f"module at {beta} is not Schurian")
        if endo - self.euler(beta, beta) != 0:
            raise InternalConsistencyError(f"module at {beta} is not rigid")

    # ----- hom / ext -----

    def hom(self, a, b) -> int:
        try:
            return self._table[a, b][0]
        except (KeyError, TypeError):
            return self._table[self.check_root(a), self.check_root(b)][0]

    def ext(self, a, b) -> int:
        try:
            return self._table[a, b][1]
        except (KeyError, TypeError):
            return self._table[self.check_root(a), self.check_root(b)][1]

    def hom_basis(self, a, b) -> HomSpace:
        """A basis of Hom(a, b), solved from the intertwining equations."""
        a, b = self.check_root(a), self.check_root(b)
        key = (a, b)
        if key in self._hom_basis:
            return self._hom_basis[key]
        m, nrep = self.rep(a), self.rep(b)
        md, nd = m.dims, nrep.dims
        offsets = []
        total = 0
        for v in range(self.n):
            offsets.append(total)
            total += md[v] * nd[v]
        rows: list[list[Fraction]] = []
        for idx, (s, t) in enumerate(self.quiver.arrows):
            ma, na = m.maps[idx], nrep.maps[idx]
            for i in range(nd[t]):
                for j in range(md[s]):
                    row = [Fraction(0)] * total
                    for c in range(md[t]):
                        row[offsets[t] + i * md[t] + c] += ma.rows[c][j]
                    for r in range(nd[s]):
                        row[offsets[s] + r * md[s] + j] -= na.rows[i][r]
                    rows.append(row)
        kernel = linalg.right_kernel(Mat(len(rows), total, tuple(tuple(r) for r in rows)))
        basis = []
        for vec in kernel:
            mats = []
            for v in range(self.n):
                entries = vec[offsets[v]:offsets[v] + md[v] * nd[v]]
                mats.append(Mat(nd[v], md[v], tuple(
                    tuple(entries[i * md[v]:(i + 1) * md[v]]) for i in range(nd[v]))))
            basis.append(tuple(mats))
        space = HomSpace(a, b, len(kernel), tuple(basis))
        self._hom_basis[key] = space
        return space

    # ----- projectivity and approximations -----

    def is_projective(self, beta) -> bool:
        return self.check_root(beta) in self.projective_roots

    def approximation(self, x, t) -> Approximation:
        """Diagonal map X -> T^s on a hom basis; must be mono or epi."""
        x, t = self.check_root(x), self.check_root(t)
        key = (x, t)
        if key in self._approx:
            return self._approx[key]
        s = self.hom(x, t)
        if s == 0:
            raise InputError(f"no maps from {x} to {t}: approximation undefined")
        basis = self.hom_basis(x, t).basis
        tdims = self.rep(t).dims
        xdims = self.rep(x).dims
        mono = True
        epi = True
        for v in range(self.n):
            stacked = linalg.vstack([phi[v] for phi in basis])
            r = linalg.rank(stacked)
            mono = mono and r == xdims[v]
            epi = epi and r == s * tdims[v]
        if mono == epi:
            raise InternalConsistencyError(
                f"approximation {x} -> {t}^{s} is neither mono nor epi (or both)")
        if mono:
            comp = tuple(s * tdims[v] - xdims[v] for v in range(self.n))
            result = Approximation(s, "mono", comp)
        else:
            comp = tuple(xdims[v] - s * tdims[v] for v in range(self.n))
            result = Approximation(s, "epi", comp)
        if any(c < 0 for c in result.complement):
            raise InternalConsistencyError("approximation complement went negative")
        self._approx[key] = result
        return result


@lru_cache(maxsize=None)
def category(tag: str) -> RepCategory:
    """RepCategory for a type tag with the default orientation, shared per tag."""
    return RepCategory(build_quiver(build_diagram(tag)))
