"""Wide subcategories, the walk over them, and exceptional-pair mutation.

A wide subcategory is a bitmask over root ids: `WideSubcat` compares and hashes
on its mask, carries its roots in id order, its rank and the quiver that built
it.  A perpendicular ANDs the scope's mask with per-root masks of the Hom/Ext
table, once per (side, generator mask, scope mask) in the category's `perps`,
and checks its span rank by `linalg.rank`.  A scope handed to a public function
must be one that the category's quiver built (`check_scope`); the kernels trust
theirs.  A complete exceptional sequence in W grows backwards from its last term
X, whose earlier terms form one in perp(X) within W.  So the sequence questions
walk the wide subcategories reachable from the ambient one, the noncrossing
partitions (Ingalls-Thomas 2009): `_edges` gives each root X of W with perp(X)
within W and X's relatively projective flag in W.  Both listings and the
refinement polynomial, a sum over the edges, read it.
The mutation of an exceptional pair (X, T) -> (T, Y) is found by a filtered
search: Y is the unique exceptional module such that (T, Y) is exceptional,
dim Y = +-dim X + s*dim T for an integer s, and X, T and Y, T span the same
rank-2 wide subcategory.  The search walks s along the two root lines,
bounded by the highest root, and looks each vector up in `root_id`.
Uniqueness is asserted once per pair, whose `PairRecord` (Y's id, its case
and placement parities) the category's `pair_mutations` keeps; this doubles
as a structural check, and the inverse move is the same search mirrored.  These
memos are freed with the category.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from . import counting
from .dynkin import Root
from .errors import InputError, InternalConsistencyError
from .linalg import rank
from .repengine import RepCategory


class WideSubcat:
    """The wide subcategory whose objects are the roots with ids in `mask`.
    It compares and hashes on the mask; `objects` (those roots in id order)
    and `rank` are derived from it, and `quiver` is that of the category that built it."""
    __slots__ = ("mask", "objects", "rank", "quiver", "__weakref__")

    def __init__(self, mask: int, objects: tuple[Root, ...], rank: int, quiver=None):
        self.mask, self.objects, self.rank, self.quiver = mask, objects, rank, quiver

    def __eq__(self, other) -> bool:
        return self.mask == other.mask if type(other) is WideSubcat else NotImplemented

    def __hash__(self) -> int:
        return hash((self.mask,))

    def __repr__(self) -> str:
        return f"WideSubcat(mask={self.mask!r}, objects={self.objects!r}, rank={self.rank!r})"


class ExcSequence(NamedTuple):
    terms: tuple[Root, ...]
    rel_proj_flags: tuple[bool, ...]


class PairCase(Enum):
    """How an exceptional pair (X, T) interacts.

    MONO:       X embeds in a power of T (the level-shifting case).
    ORTHOGONAL: X and T are hom- and ext-orthogonal.
    EXTENSION:  Ext(X, T) != 0.
    EPI:        X surjects onto a power of T.
    """

    MONO = "mono"
    ORTHOGONAL = "orthogonal"
    EXTENSION = "extension"
    EPI = "epi"


class PairRecord(NamedTuple):
    """The braid move (X, T) -> (T, Z), or (T, X) -> (Z, T) inverse, of a pair of root ids."""
    z: int  # the id of the move's new root
    same: bool  # dim X - dim Z is a multiple of dim T: Z keeps X's level
    flip: bool  # dim X + dim Z is: Z lies one level off
    case: PairCase  # `classify_pair` of the pair, in its order


def ambient(cat: RepCategory) -> WideSubcat:
    return WideSubcat((1 << len(cat.roots)) - 1, cat.roots, cat.n, cat.quiver)


def _roots_at(cat: RepCategory, mask: int) -> tuple[Root, ...]:
    return tuple(r for i, r in enumerate(cat.roots) if mask >> i & 1)


def check_scope(cat: RepCategory, w) -> WideSubcat:
    """w, if it is a subcategory of cat: a `WideSubcat` built by cat's quiver, whose mask
    lies within cat's roots and whose objects are the roots at the mask's bits."""
    if (type(w) is not WideSubcat or w.quiver != cat.quiver or w.mask >> len(cat.roots)
            or w.objects != _roots_at(cat, w.mask)):
        raise InputError(f"the scope is not a subcategory of {cat.quiver.diagram.type_tag}")
    return w


def perp(cat: RepCategory, generators, within: WideSubcat | None = None) -> WideSubcat:
    """Right perpendicular: objects X in scope with Hom(G, X) = 0 = Ext(G, X)."""
    scope = check_scope(cat, within) if within is not None else ambient(cat)
    gens = 0
    for g in generators:
        gens |= 1 << cat.root_id[cat.check_root(g)]
    return _perp_of(cat, gens, scope, True) if gens else scope


def _perp_of(cat: RepCategory, gens: int, scope: WideSubcat, right: bool) -> WideSubcat:
    """The perpendicular of the roots with ids in the nonzero mask gens, kept in `cat.perps`
    under (side, gens, scope mask); its span rank is checked when it is computed."""
    key = (right, gens, scope.mask)
    w = cat.perps.get(key)
    if w is None:
        nonzero = cat.right_nz if right else cat.left_nz
        mask, gen_roots = scope.mask, []
        for i, g in enumerate(cat.roots):
            if gens >> i & 1:
                mask &= ~nonzero[i]
                gen_roots.append(g)
        objs = _roots_at(cat, mask)
        by_span = rank(objs)
        # one or two distinct roots are independent: no root is a multiple of another
        expected = scope.rank - (rank(gen_roots) if len(gen_roots) > 2 else len(gen_roots))
        if by_span != expected:
            raise InternalConsistencyError(
                f"{cat.quiver.diagram.type_tag}: perpendicular of {tuple(gen_roots)} has "
                f"span rank {by_span}, expected {expected}")
        w = cat.perps[key] = WideSubcat(mask, objs, by_span, cat.quiver)
    return w


def relative_projectives(cat: RepCategory, w: WideSubcat) -> tuple[Root, ...]:
    """Objects of W with no extensions into anything in W."""
    check_scope(cat, w)
    return tuple(x for x in w.objects if not cat.ext_out[cat.root_id[x]] & w.mask)


def _edges(cat: RepCategory, w: WideSubcat) -> list[tuple[int, WideSubcat, bool]]:
    """The walk's edges out of w: (x, perp(x) within w, x relatively projective in w) for each
    root id x of w in id order; checks that a rank-0 w is empty and a rank-1 w's x is flagged."""
    mask, tag = w.mask, cat.quiver.diagram.type_tag
    if w.rank == 0 and mask:
        raise InternalConsistencyError(f"{tag}: rank-0 subcategory with objects")
    edges = [(x, _perp_of(cat, 1 << x, w, True), not cat.ext_out[x] & mask)
             for x in range(mask.bit_length()) if mask >> x & 1]
    if w.rank == 1 and not all(proj for _, _, proj in edges):
        raise InternalConsistencyError(
            f"{tag}: first term of a complete sequence must be relatively projective")
    return edges


def marked_exc_sequences(cat: RepCategory) -> tuple[ExcSequence, ...]:
    """All complete exceptional sequences, deterministically ordered, each term
    flagged when it is relatively projective in the perpendicular of its later terms.

    Those ending in X extend those of X's edge (`_edges`), which gives X's flag; the
    (terms, flags) of each visited subcategory are memoised by mask for this call only.
    """
    roots, memo = cat.roots, {0: (((), ()),)}

    def sequences(w: WideSubcat):
        if w.mask not in memo:
            memo[w.mask] = tuple([(terms + (roots[x],), flags + (proj,)) for x, sub, proj
                                  in _edges(cat, w) for terms, flags in sequences(sub)])
        return memo[w.mask]

    return tuple(ExcSequence(terms, flags) for terms, flags in sequences(ambient(cat)))


def rel_proj_poly_enumerated(cat: RepCategory) -> counting.IntPoly:
    """Generating polynomial of complete sequences by relatively projective terms, with no
    listing: f_W(x) = sum over the edges (X, W', flag) of W of x^flag f_W'(x), f_0 = 1."""
    memo = {0: [1]}

    def poly(w: WideSubcat) -> list[int]:
        if w.mask not in memo:
            coeffs = memo[w.mask] = [0] * (w.rank + 1)
            for _, sub, proj in _edges(cat, w):
                for k, c in enumerate(poly(sub)):
                    coeffs[k + proj] += c
        return memo[w.mask]

    return counting.IntPoly(tuple(poly(ambient(cat))), "x")


def classify_pair(cat: RepCategory, x, t) -> PairCase:
    """How the exceptional pair (X, T) interacts, from the Hom/Ext table.

    With s = dim Hom(X, T) > 0 the minimal left approximation X -> T^s is
    mono exactly when s*t - x is a root (its cokernel) and epi exactly when
    x - s*t is one (its kernel); exactly one of the two holds.
    """
    x, t = cat.check_root(x), cat.check_root(t)
    if x == t or cat.hom(t, x) != 0 or cat.ext(t, x) != 0:
        raise InputError(f"({x}, {t}) is not an exceptional pair")
    if cat.ext(x, t) > 0:
        return PairCase.EXTENSION
    s = cat.hom(x, t)
    if not s:
        return PairCase.ORTHOGONAL
    mono = tuple(s * b - a for a, b in zip(x, t)) in cat.root_set
    if mono == (tuple(a - s * b for a, b in zip(x, t)) in cat.root_set):
        # the two vectors are opposite, so this means neither is a root
        raise InternalConsistencyError(
            f"{cat.quiver.diagram.type_tag}: approximation {x} -> {t}^{s} is "
            "neither mono nor epi")
    return PairCase.MONO if mono else PairCase.EPI


def _pair_record(cat: RepCategory, xi: int, ti: int, inverse: bool) -> PairRecord:
    """The record of (x, t), or of (t, x) if inverse, searched for once per category.

    The candidates are the roots z on the lines x - s*t (Z keeps X's level) and
    s*t - x (Z lies one level off).  A root lies between 0 and `cat.highest`, so
    the coordinate c where t is largest bounds s: 0 <= +-x[c] -+ s*t[c] <= highest[c].
    """
    key = (xi, ti, inverse)
    record = cat.pair_mutations.get(key)
    if record is not None:
        return record
    x, t = cat.roots[xi], cat.roots[ti]
    pair = (t, x) if inverse else (x, t)
    before, after = (cat.left_nz, cat.right_nz) if inverse else (cat.right_nz, cat.left_nz)
    if xi == ti or before[ti] >> xi & 1:
        raise InputError(f"({pair[0]}, {pair[1]}) is not an exceptional pair")
    c = t.index(max(t))
    xc, tc, hc = x[c], t[c], cat.highest[c]
    lines: dict[int, list[bool]] = {}  # candidate id -> [same, flip]
    for flip, sign, s_range in ((False, 1, range(-((hc - xc) // tc), xc // tc + 1)),
                                (True, -1, range(-(-xc // tc), (xc + hc) // tc + 1))):
        for s in s_range:
            i = cat.root_id.get(tuple([sign * (a - s * b) for a, b in zip(x, t)]))
            if i is not None:
                lines.setdefault(i, [False, False])[flip] = True
    amb = ambient(cat)
    target, found = _perp_of(cat, 1 << xi | 1 << ti, amb, True).mask, []
    for i in sorted(lines):
        if not after[ti] >> i & 1 and _perp_of(cat, 1 << i | 1 << ti, amb, True).mask == target:
            found.append((i, *lines[i]))
    if len(found) != 1:
        name = "inverse pair mutation" if inverse else "pair mutation"
        raise InternalConsistencyError(f"{cat.quiver.diagram.type_tag}: {name} of ({x}, {t}) "
                                       f"found {len(found)} candidates")
    return cat.pair_mutations.setdefault(key, PairRecord(*found[0], classify_pair(cat, *pair)))
