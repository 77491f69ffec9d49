"""Wide subcategories, exceptional sequences, and exceptional-pair mutation.

A wide subcategory is a bitmask over root ids: `WideSubcat` compares and
hashes on its mask, carries its roots in id order and its rank, and is never
re-quiverized.  Membership is one bit of the mask.  A perpendicular ANDs the
scope's mask with per-root masks of the Hom/Ext table, once per (side,
generator mask, scope mask) in the category's `perps`, and checks its span
rank, taken on the integer root vectors by `linalg.rank`.  A scope that a caller
hands to a public function must lie within the category's roots (`check_scope`);
the kernels trust theirs.
An exceptional sequence "in W" is an ambient sequence whose terms all lie in
W, and completeness means its length equals rank(W).  The enumeration of
complete sequences picks each term from the perpendicular of its later
terms, so it flags the relatively projective terms as it goes, each by one
bit test on its root id.
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
    and `rank` are derived from it."""
    __slots__ = ("mask", "objects", "rank", "__weakref__")

    def __init__(self, mask: int, objects: tuple[Root, ...], rank: int):
        self.mask, self.objects, self.rank = mask, objects, rank

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
    return WideSubcat((1 << len(cat.roots)) - 1, cat.roots, cat.n)


def _roots_at(cat: RepCategory, mask: int) -> tuple[Root, ...]:
    return tuple(r for i, r in enumerate(cat.roots) if mask >> i & 1)


def check_scope(cat: RepCategory, w) -> WideSubcat:
    """w, if it is a subcategory of cat: a `WideSubcat` whose mask lies within cat's roots
    and whose objects are the roots at the mask's bits."""
    if (type(w) is not WideSubcat or w.mask >> len(cat.roots)
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
        w = cat.perps[key] = WideSubcat(mask, objs, by_span)
    return w


def relative_projectives(cat: RepCategory, w: WideSubcat) -> tuple[Root, ...]:
    """Objects of W with no extensions into anything in W."""
    check_scope(cat, w)
    return tuple(x for x in w.objects if not cat.ext_out[cat.root_id[x]] & w.mask)


def marked_exc_sequences(cat: RepCategory) -> tuple[ExcSequence, ...]:
    """All complete exceptional sequences, deterministically ordered, each term
    flagged when it is relatively projective in the perpendicular of its later terms.

    A term is picked from that perpendicular, so its flag is one bit test on its root
    id against the subcategory it was picked from.  The (terms, flags) of each visited
    subcategory are memoised by mask for this call only.
    """
    tag, root_id, ext_out = cat.quiver.diagram.type_tag, cat.root_id, cat.ext_out
    memo: dict[int, tuple] = {}

    def sequences(w: WideSubcat):
        mask = w.mask
        cached = memo.get(mask)
        if cached is not None:
            return cached
        if w.rank == 0:
            if mask:
                raise InternalConsistencyError(f"{tag}: rank-0 subcategory with objects")
            result = (((), ()),)
        else:
            out = []
            for last in w.objects:
                flag = not ext_out[root_id[last]] & mask
                if w.rank == 1 and not flag:
                    # `last` is then the first term of a complete sequence
                    raise InternalConsistencyError(
                        f"{tag}: first term of a complete sequence must be "
                        "relatively projective")
                for terms, flags in sequences(_perp_of(cat, 1 << root_id[last], w, True)):
                    out.append((terms + (last,), flags + (flag,)))
            result = tuple(out)
        memo[mask] = result
        return result

    return tuple(ExcSequence(terms, flags) for terms, flags in sequences(ambient(cat)))


def rel_proj_poly_enumerated(cat: RepCategory, marked=None) -> counting.IntPoly:
    """Generating polynomial of complete sequences by relatively projective terms.

    `marked` is `marked_exc_sequences(cat)`, for a caller that already has it.
    """
    coeffs = [0] * (cat.n + 1)
    for s in marked if marked is not None else marked_exc_sequences(cat):
        coeffs[sum(s.rel_proj_flags)] += 1
    return counting.IntPoly(tuple(coeffs), "x")


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
