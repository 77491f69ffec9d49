"""The reflection-functor oracle that the tests check the package against,
and the small dense exact linear algebra over the rationals it is built on.

Matrices carry explicit shape so zero-row and zero-column edge cases stay
well defined.  Everything is deterministic: pivots are always the first
nonzero entry scanning down, kernel bases assign unit values to free
columns in increasing order.

`ReflectionOracle` builds a category's canonical indecomposable for each
positive root: the root is reflected down to a unit vector through an
admissible sink sequence, and the inverse reflection functors rebuild the
module from the simple one.  Hom bases solve the intertwining equations.
It is the oracle for `RepCategory`'s Hom/Ext table and the closed forms
built on it; the package itself never imports this module.

`scan_pair_record` is the oracle for `wide._pair_record`: the same filtered
search for a braid move, over every root instead of along the root lines.

The pure definitions that the package's table-driven kernels are checked
against live here too: the Euler form `euler` on arbitrary integer vectors,
the three-case `compatible` behind the compatibility rows, the
`is_exceptional_sequence` predicate and `mark_relative_projectives`, the
reference for the enumerator's flags, and the strict-Euler `exchange_matrix`
with `c_vector` and `signed_dim`, the reference for slope-vector mutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from excseq.configs import SlopeVector, slope_vectors
from excseq.counting import check_m
from excseq.dynkin import Quiver, Root, coxeter_for_tag
from excseq.errors import InputError, InternalConsistencyError
from excseq.repengine import RepCategory, _int_vector
from excseq.shiftcat import ShiftedObject, check_pair
from excseq.wide import ExcSequence, PairRecord, ambient, classify_pair, perp

Vector = tuple[Fraction, ...]


class Mat(NamedTuple):
    nrows: int
    ncols: int
    rows: tuple[tuple[Fraction, ...], ...]


def mat(rows: Iterable[Iterable], ncols: int | None = None) -> Mat:
    rs = tuple(tuple(Fraction(x) for x in row) for row in rows)
    if rs:
        ncols = len(rs[0])
        if any(len(r) != ncols for r in rs):
            raise ValueError("ragged rows")
    elif ncols is None:
        raise ValueError("empty matrix needs an explicit column count")
    return Mat(len(rs), ncols, rs)


def zeros(nrows: int, ncols: int) -> Mat:
    row = (Fraction(0),) * ncols
    return Mat(nrows, ncols, (row,) * nrows)


def transpose(a: Mat) -> Mat:
    return Mat(a.ncols, a.nrows, tuple(
        tuple(a.rows[i][j] for i in range(a.nrows)) for j in range(a.ncols)))


def matmul(a: Mat, b: Mat) -> Mat:
    if a.ncols != b.nrows:
        raise ValueError(f"shape mismatch {a.nrows}x{a.ncols} @ {b.nrows}x{b.ncols}")
    bt = transpose(b)
    return Mat(a.nrows, b.ncols, tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt.rows)
        for row in a.rows))


def vstack(mats: Sequence[Mat]) -> Mat:
    if not mats:
        raise ValueError("vstack needs at least one matrix")
    ncols = mats[0].ncols
    if any(m.ncols != ncols for m in mats):
        raise ValueError("column mismatch in vstack")
    rows: list[tuple[Fraction, ...]] = []
    for m in mats:
        rows.extend(m.rows)
    return Mat(len(rows), ncols, tuple(rows))


def _rref(rows: list[list[Fraction]], ncols: int) -> list[int]:
    """Reduce in place to reduced row echelon form; return pivot columns."""
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def rank(a: Mat) -> int:
    rows = [list(r) for r in a.rows]
    return len(_rref(rows, a.ncols))


def right_kernel(a: Mat) -> list[Vector]:
    """Basis of {x : a·x = 0}, one vector per free column."""
    rows = [list(r) for r in a.rows]
    pivots = _rref(rows, a.ncols)
    pivot_set = set(pivots)
    basis: list[Vector] = []
    for free in range(a.ncols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * a.ncols
        v[free] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -rows[i][free]
        basis.append(tuple(v))
    return basis


def left_kernel(a: Mat) -> list[Vector]:
    """Basis of {y : y·a = 0}."""
    return right_kernel(transpose(a))


def inverse(a: Mat) -> Mat:
    if a.nrows != a.ncols:
        raise ValueError("only square matrices invert")
    n = a.nrows
    rows = [list(r) + [Fraction(1 if i == j else 0) for j in range(n)]
            for i, r in enumerate(a.rows)]
    pivots = _rref(rows, n)
    if len(pivots) != n:
        raise ValueError("matrix is singular")
    return Mat(n, n, tuple(tuple(row[n:]) for row in rows))


def solve(a: Mat, b: Sequence) -> Vector | None:
    """The unique solution of a·x = b, or None if the system is inconsistent.

    Raises ValueError when the columns are dependent (no unique solution).
    """
    if len(b) != a.nrows:
        raise ValueError("rhs length mismatch")
    rows = [list(r) + [Fraction(x)] for r, x in zip(a.rows, b)]
    pivots = _rref(rows, a.ncols)
    for i in range(len(pivots), a.nrows):
        if rows[i][a.ncols] != 0:
            return None
    if len(pivots) != a.ncols:
        raise ValueError("underdetermined system")
    x = [Fraction(0)] * a.ncols
    for i, p in enumerate(pivots):
        x[p] = rows[i][a.ncols]
    return tuple(x)


# ----- the reflection-functor oracle -----

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


def _simple_rep(quiver: Quiver, i: int) -> Representation:
    dims = tuple(int(j == i) for j in range(quiver.diagram.rank))
    maps = tuple(zeros(dims[t], dims[s]) for s, t in quiver.arrows)
    return Representation(quiver, dims, maps)


class ReflectionOracle:
    """Explicit representations of one category's indecomposables, their Hom
    bases and their approximation maps, each memoised on the oracle.  A module
    is kept only once it has passed the Schurian and rigid check."""

    def __init__(self, cat: RepCategory):
        self.cat = cat
        self._reps: dict[Root, Representation] = {}
        self._hom_basis: dict[tuple[Root, Root], HomSpace] = {}
        self._approx: dict[tuple[Root, Root], Approximation] = {}

    # ----- module construction -----

    def rep(self, beta) -> Representation:
        beta = self.cat.check_root(beta)
        module = self._reps.get(beta)
        if module is None:
            module = self._build(beta)
            self._verify_exceptional(module)
            self._reps[beta] = module
        return module

    def _build(self, beta: Root) -> Representation:
        quiver, n = self.cat.quiver, self.cat.n
        if sum(beta) == 1:
            return _simple_rep(quiver, beta.index(1))
        order = _admissible_order(n, quiver.arrows)
        adj = quiver.diagram.adjacency()
        limit = sum(len(ids) * (coxeter_for_tag(tag).h + 2)
                    for tag, ids in quiver.diagram.components)
        word: list[int] = []
        arrow_hist = [quiver.arrows]
        gamma = beta
        while sum(gamma) > 1:
            for k in order:
                if sum(gamma) == 1:
                    break
                # the simple reflection s_k: gamma_k -> sum of its neighbours - gamma_k
                gamma = gamma[:k] + (sum(gamma[j] for j in adj[k]) - gamma[k],) + gamma[k + 1:]
                if any(c < 0 for c in gamma):
                    raise InternalConsistencyError(f"reflection left the positive cone at {beta}")
                word.append(k)
                arrow_hist.append(_reflect_arrows(arrow_hist[-1], k))
                if len(word) > limit:
                    raise InternalConsistencyError(f"reflection of {beta} did not terminate")
        rep = _simple_rep(Quiver(quiver.diagram, arrow_hist[-1]), gamma.index(1))
        for i in reversed(range(len(word))):
            rep = _coreflect(rep, word[i])
            if rep.quiver.arrows != arrow_hist[i]:
                raise InternalConsistencyError("orientation bookkeeping out of sync")
        if rep.dims != beta:
            raise InternalConsistencyError(f"rebuilt module has dims {rep.dims}, wanted {beta}")
        return rep

    def _verify_exceptional(self, module: Representation) -> None:
        beta = module.dims
        endo = _hom_space(module, module).dimension
        if endo != 1:
            raise InternalConsistencyError(f"module at {beta} is not Schurian")
        if endo - euler(self.cat, beta, beta) != 0:
            raise InternalConsistencyError(f"module at {beta} is not rigid")

    # ----- hom spaces and approximations -----

    def hom_basis(self, a, b) -> HomSpace:
        """A basis of Hom(a, b), solved from the intertwining equations."""
        key = (self.cat.check_root(a), self.cat.check_root(b))
        space = self._hom_basis.get(key)
        if space is None:
            space = self._hom_basis[key] = _hom_space(self.rep(key[0]), self.rep(key[1]))
        return space

    def approximation(self, x, t) -> Approximation:
        """Diagonal map X -> T^s on a hom basis; must be mono or epi."""
        x, t = self.cat.check_root(x), self.cat.check_root(t)
        key = (x, t)
        if key in self._approx:
            return self._approx[key]
        s = self.cat.hom(x, t)
        if s == 0:
            raise InputError(f"no maps from {x} to {t}: approximation undefined")
        basis = self.hom_basis(x, t).basis
        # the rank of the diagonal map at each vertex, against dim X and dim T^s
        ranks = [rank(vstack([phi[v] for phi in basis])) for v in range(self.cat.n)]
        mono = ranks == list(x)
        if mono == (ranks == [s * d for d in t]):
            raise InternalConsistencyError(
                f"approximation {x} -> {t}^{s} is neither mono nor epi (or both)")
        sign = 1 if mono else -1
        result = Approximation(s, "mono" if mono else "epi",
                               tuple(sign * (s * b - a) for a, b in zip(x, t)))
        if any(c < 0 for c in result.complement):
            raise InternalConsistencyError("approximation complement went negative")
        self._approx[key] = result
        return result


def _coreflect(rep: Representation, k: int) -> Representation:
    """Inverse reflection at a source k: cokernel of M_k -> sum of targets."""
    arrows = rep.quiver.arrows
    out = [i for i, (s, _) in enumerate(arrows) if s == k]
    targets = [arrows[i][1] for i in out]
    stacked = vstack([rep.maps[i] for i in out]) if out else zeros(0, rep.dims[k])
    proj_rows = left_kernel(stacked)
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


def _hom_space(m: Representation, nrep: Representation) -> HomSpace:
    """Hom(m, nrep) from the intertwining equations phi_t M_a = N_a phi_s."""
    md, nd = m.dims, nrep.dims
    offsets = []
    total = 0
    for v in range(len(md)):
        offsets.append(total)
        total += md[v] * nd[v]
    rows: list[list[Fraction]] = []
    for idx, (s, t) in enumerate(m.quiver.arrows):
        ma, na = m.maps[idx], nrep.maps[idx]
        for i in range(nd[t]):
            for j in range(md[s]):
                row = [Fraction(0)] * total
                for c in range(md[t]):
                    row[offsets[t] + i * md[t] + c] += ma.rows[c][j]
                for r in range(nd[s]):
                    row[offsets[s] + r * md[s] + j] -= na.rows[i][r]
                rows.append(row)
    kernel = right_kernel(Mat(len(rows), total, tuple(tuple(r) for r in rows)))
    basis = []
    for vec in kernel:
        mats = []
        for v in range(len(md)):
            entries = vec[offsets[v]:offsets[v] + md[v] * nd[v]]
            mats.append(Mat(nd[v], md[v], tuple(
                tuple(entries[i * md[v]:(i + 1) * md[v]]) for i in range(nd[v]))))
        basis.append(tuple(mats))
    return HomSpace(md, nd, len(kernel), tuple(basis))


# ----- the all-roots braid-move search -----

def is_multiple(w, t) -> bool:
    """w is an integer multiple s*t (s = 0 allowed)."""
    s = next((wi // ti for wi, ti in zip(w, t) if ti), 0)
    return all(wi == s * ti for wi, ti in zip(w, t))


def scan_pair_record(cat: RepCategory, xi: int, ti: int, inverse: bool) -> PairRecord:
    """The record of the exceptional pair (x, t), or (t, x) if inverse, by testing
    every root z: (t, z) is exceptional, +-x - z is a multiple of t, and z, t
    have the perpendicular of x, t.  Nothing is memoised but the perpendiculars."""
    x, t = cat.roots[xi], cat.roots[ti]
    after = cat.right_nz if inverse else cat.left_nz
    target, found = perp(cat, (x, t)).mask, []
    for i, z in enumerate(cat.roots):
        if not after[ti] >> i & 1:
            same, flip = (is_multiple([a - s * b for a, b in zip(x, z)], t) for s in (1, -1))
            if (same or flip) and perp(cat, (z, t)).mask == target:
                found.append((i, same, flip))
    assert len(found) == 1, (x, t, inverse, found)
    return PairRecord(*found[0], classify_pair(cat, *((t, x) if inverse else (x, t))))


# ----- reference definitions -----

def euler(cat: RepCategory, x, y) -> int:
    """<x, y> = x^t E y for integer vectors of length n, roots or not."""
    x, y = _int_vector(x), _int_vector(y)
    if len(x) != cat.n or len(y) != cat.n:
        raise InputError(f"{x} and {y} need {cat.n} entries each")
    return sum(map(mul, (sum(map(mul, x, col)) for col in zip(*cat.E)), y))


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


def is_exceptional_sequence(cat: RepCategory, terms) -> bool:
    terms = [cat.check_root(t) for t in terms]
    for j in range(len(terms)):
        for i in range(j):
            if cat.hom(terms[j], terms[i]) != 0 or cat.ext(terms[j], terms[i]) != 0:
                return False
    return True


def mark_relative_projectives(cat: RepCategory, terms) -> ExcSequence:
    """Flag each term that is projective in the perpendicular of its later terms:
    it has no extension into any object there."""
    terms = tuple(cat.check_root(t) for t in terms)
    if not is_exceptional_sequence(cat, terms):
        raise InputError("terms do not form an exceptional sequence")
    flags, cur = [False] * len(terms), ambient(cat)
    for j in reversed(range(len(terms))):
        if terms[j] not in cur.objects:
            raise InputError(f"term {terms[j]} escapes the scope of its later terms")
        flags[j] = all(cat.ext(terms[j], y) == 0 for y in cur.objects)
        cur = perp(cat, (terms[j],), cur)
    if len(terms) == cat.n and terms and not flags[0]:
        raise InternalConsistencyError(
            f"{cat.quiver.diagram.type_tag}: first term of a complete sequence "
            "must be relatively projective")
    return ExcSequence(terms, tuple(flags))


def c_vector(sv: SlopeVector) -> tuple[int, ...]:
    sign = (-1) ** sv.slope
    return tuple(sign * x for x in sv.root)


def signed_dim(m: int, obj: ShiftedObject) -> tuple[int, ...]:
    m, (root, level) = check_m(m), check_pair(obj)
    return tuple((-1) ** (m - level) * x for x in root)


def exchange_matrix(cat: RepCategory, m: int, comps) -> tuple[tuple[int, ...], ...]:
    """Antisymmetrized Euler pairings of the c-vectors: b[k][j] = <c_j, c_k> - <c_k, c_j>.
    The strict-Euler reference that the exchange rows of `configs._mutate` are checked
    against."""
    cs = [c_vector(sv) for sv in slope_vectors(m, comps)]
    n = len(cs)
    return tuple(tuple(euler(cat, cs[j], cs[k]) - euler(cat, cs[k], cs[j])
                       for j in range(n)) for k in range(n))
