"""Dual configurations, tropical duality, and slope-vector mutation.

An ordered cluster (T_1[k_1], ..., T_n[k_n]) is one whose reversal is a
complete exceptional sequence, found by one search (`_orders`) over the Hom/Ext
constraints (`_ordering_constraints`); validating a configuration peels free
positions off the same constraints to see that an order exists.  The Garside
braid move shuffles each entry over all later entries and yields the dual
configuration, component j paired with tuple entry j.  Tropical duality is the exact matrix identity
V^t E C = D, where V holds the signed dimension vectors (-1)^(m-k) dim T of
the cluster, C the c-vectors of the configuration, D the diagonal of
endomorphism dimensions (the identity over a quiver) and E the Euler
matrix.  Mutation acts on the slope vectors of the configuration.  Only one
cluster entry moves, and the old frame gives its new signed dimension vector
as an integer combination of the old columns, with coefficients its Euler
pairings against the new c-vectors; the new frame is then verified.

Each vector is a root signed by the parity of its level, so each pairing is
a sign times an entry of `RepCategory.pairings`, and each slope-vector update
a signed root kept in `RepCategory.pair_mutations`.  The kernels `_check_frame`,
`_mutate`, `_recover` and `_validate` run on object ids (`shiftcat.encode`),
trust their input and check their results, as do `_frame`, `_horizontal` and `_garside`,
which the duality suite calls on the ids of `cluster_table`.  Each public function parses
m first (`counting.check_m`) and its objects once (`check_objects`, or `encode` with the
levels held to 0..m), so each vector is a sign times a checked root.  `mutate` and
`mutation_moves` (on a `cluster_table` entry's ids) move by `_move`; `mutate` is the only
public way into `_mutate` and `_recover`, and it refuses a cluster that is incomplete or out
of order before it reads the frame.
"""

from __future__ import annotations

from operator import mul
from typing import NamedTuple

from .bijection import _to_sequences
from .dynkin import Root, root_str
from .errors import InputError, VerificationError
from .repengine import RepCategory
from .counting import check_m
from .shiftcat import (ShiftedObject, _compat_rows, _inconsistent, check_objects, check_pair,
                       decode, encode, enumerate_clusters)
from .wide import WideSubcat, _perp_of, ambient


class SlopeVector(NamedTuple):
    root: Root
    slope: int

    def __str__(self) -> str:
        return f"{root_str(self.root)}*t^{self.slope}"


def _slope_vectors(m: int, comps) -> tuple[SlopeVector, ...]:
    """The slope vectors of components (root, level), each level in 0..m; roots unchecked."""
    m, out = check_m(m), []
    for root, level in map(check_pair, comps):
        if not 0 <= level <= m:
            raise InputError(f"component {(root, level)!r} has a level outside 0..{m}")
        out.append(SlopeVector(root, m - level))
    return tuple(out)


def _ordering_constraints(cat: RepCategory, ids) -> list[int]:
    """Bit j of entry i is set when Hom or Ext(object i, object j) != 0 for the
    objects with these ids, so that object j must precede object i in the tuple order."""
    n = len(cat.roots)
    return [sum(1 << j for j, b in enumerate(ids) if j != i and cat.right_nz[a % n] >> b % n & 1)
            for i, a in enumerate(ids)]


def _orders(after: list[int], key=None):
    """Every order placing each position after those in its `after` bits, depth first with
    the free positions taken in key order (ascending by default): the first is the greedy one."""
    positions = sorted(range(len(after)), key=key)

    def extend(order: tuple[int, ...], placed: int):
        if len(order) == len(after):
            yield order
        for i in positions:
            if not (placed >> i & 1 or after[i] & ~placed):
                yield from extend(order + (i,), placed | 1 << i)

    return extend((), 0)


def order_cluster(cat: RepCategory, m: int, objects) -> tuple[ShiftedObject, ...]:
    """Order a cluster so that the reversed tuple is an exceptional sequence.

    Canonical choice: among currently available entries take highest level
    first, then lexicographically smallest root.
    """
    m = check_m(m)
    return decode(cat, _order(cat, m, check_objects(cat, None, m, objects)))


def _order(cat: RepCategory, m: int, ids: tuple[int, ...]) -> tuple[int, ...]:
    """`order_cluster` on the ids of a checked cluster."""
    n, pairings = len(cat.roots), cat.pairings
    for order in _orders(_ordering_constraints(cat, ids), lambda i: (-(ids[i] // n), ids[i])):
        # on the pairings, not the masks the order was found on: no Hom or Ext from a term
        # of the reversal to an earlier one
        terms = [ids[i] % n for i in reversed(order)]
        if any(pairings[b][a] for j, b in enumerate(terms) for a in terms[:j]):
            raise _inconsistent(cat, m, "ordering failed to produce an exceptional sequence")
        return tuple(ids[i] for i in order)  # the first order, by (-level, root)
    raise _inconsistent(cat, m, "no exceptional ordering of the cluster exists")


def _valid_orders(cat: RepCategory, ids) -> list[tuple[int, ...]]:
    """Every order of the ids of a checked cluster whose reversal is an exceptional sequence,
    which the duality suite reads to check that the configuration does not depend on the
    chosen order."""
    return [tuple(ids[i] for i in order) for order in _orders(_ordering_constraints(cat, ids))]


def garside_configuration(cat: RepCategory, m: int, ordered) -> tuple[ShiftedObject, ...]:
    """Dual configuration of an ordered cluster via iterated braid moves.

    The braid move over the last entry is the inverse transport over it, so
    this is `tuple_to_sequence`, whose tables check every move both ways, and
    that they preserve compatibility, when they are built.  A complete cluster
    whose reversal is exceptional is validated as a configuration.
    """
    m, scope = check_m(m), ambient(cat)
    return decode(cat, _garside(cat, m, check_objects(cat, scope, m, ordered), scope))


def _garside(cat: RepCategory, m: int, ids: tuple[int, ...], scope: WideSubcat):
    """`garside_configuration` on the ids of a checked ordered cluster of the scope."""
    comps = next(_to_sequences(cat, m, [ids], scope))
    # only a complete, properly ordered cluster reads as a configuration
    if len(ids) == scope.rank and _out_of_order(cat, ids) is None:
        _validate(cat, m, comps, ids)
    return comps


def _out_of_order(cat: RepCategory, ids: tuple[int, ...]) -> tuple[int, int] | None:
    """Positions (i, j), i < j, of an entry and a later one that must precede it, if any:
    with none, the reversal of the tuple is an exceptional sequence."""
    for i, need in enumerate(_ordering_constraints(cat, ids)):
        if need >> i:
            return i, (need >> i).bit_length() - 1 + i
    return None


def _validate(cat: RepCategory, m: int, comps: tuple[int, ...], ordered=()) -> None:
    """Check the defining conditions of a dual configuration, on ids; given the ordered
    cluster, also the Garside slope rule."""
    n, right_nz, ext_out = len(cat.roots), cat.right_nz, cat.ext_out
    if len(set(comps)) != len(comps):
        raise VerificationError("components are not pairwise distinct")
    for c in comps:
        if not 0 <= c // n <= m:
            raise VerificationError(f"component level out of range: {decode(cat, (c,))[0]}")
    # a nonzero Hom from a component must go to a lower level, a nonzero Ext to one not
    # higher; bit j of after[i] is set when component j must precede component i
    split, after = [divmod(c, n) for c in comps], []
    for a, (level, r) in zip(comps, split):
        nonzero, ext, need, bit = right_nz[r], ext_out[r], 0, 1
        for b, (b_level, b_r) in zip(comps, split):
            if nonzero >> b_r & 1 and b != a:
                need |= bit
                if b_level >= level + (ext >> b_r & 1):
                    raise VerificationError("forbidden {} {} -> {}".format(
                        "extension" if ext >> b_r & 1 else "morphism", *decode(cat, (a, b))))
            bit <<= 1
        after.append(need)
    # an order exists iff peeling off the positions with nothing left to precede them empties all
    placed, everything = 0, (1 << len(comps)) - 1
    while placed != everything:
        free, bit = placed, 1
        for need in after:
            if not need & ~placed:
                free |= bit
            bit <<= 1
        if free == placed:
            raise VerificationError("components admit no exceptional ordering")
        placed = free
    for t, c in zip(ordered, comps):
        if c // n - t // n not in (0, 1):
            raise _inconsistent(cat, m, "component slope of {1} strays from its cluster "
                                "entry {0}".format(*decode(cat, (t, c))))


class DualityFrame(NamedTuple):
    v_cols: tuple[tuple[int, ...], ...]
    c_cols: tuple[tuple[int, ...], ...]
    d_diag: tuple[int, ...]
    e_rows: tuple[tuple[int, ...], ...]


def duality_frame(cat: RepCategory, m: int, ordered, comps) -> DualityFrame:
    """Build and verify the exact duality frame V^t E C = D for a dual pair."""
    m = check_m(m)
    return _frame(cat, m, *_dual_pair(cat, m, ordered, comps))


def _frame(cat: RepCategory, m: int, ordered: tuple[int, ...],
           comps: tuple[int, ...]) -> DualityFrame:
    """`duality_frame` on the ids of a dual pair: a column is its root signed by
    (-1)^(m - level), which for a component is (-1)^slope."""
    n, roots = len(cat.roots), cat.roots

    def signed(x: int) -> tuple[int, ...]:
        return tuple([-a for a in roots[x % n]]) if (m - x // n) & 1 else roots[x % n]

    v_cols, c_cols = tuple(map(signed, ordered)), tuple(map(signed, comps))
    d_diag = tuple(max(cat.pairings[o % n][o % n], 0) for o in ordered)  # dim End: 1 for a root
    _check_frame(cat, m, ordered, comps)
    return DualityFrame(v_cols, c_cols, d_diag, cat.E)


def _dual_pair(cat: RepCategory, m: int, ordered,
               comps) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The ids (`encode`) of a cluster and a configuration, refused unless each object has a
    level in 0..m and the two are equally long."""
    pair = []
    for what, objects in (("cluster entry", ordered), ("component", comps)):
        pair.append(encode(cat, objects))
        for x in pair[-1]:
            if not 0 <= x < (m + 1) * len(cat.roots):
                raise InputError(f"{what} {decode(cat, (x,))[0]} has a level outside 0..{m}")
    ids, comp_ids = pair
    if len(comp_ids) != len(ids):
        raise InputError(f"{len(ids)} cluster entries but {len(comp_ids)} components")
    return ids, comp_ids


def _check_frame(cat: RepCategory, m: int, ordered, comps) -> None:
    """The checks of `duality_frame` on the ids of a dual pair."""
    n = len(cat.roots)
    for i, o in enumerate(ordered):
        row, level = cat.pairings[o % n], o // n
        for j, c in enumerate(comps):
            value = -row[c % n] if (level ^ c // n) & 1 else row[c % n]
            want = row[o % n] if i == j else 0
            if value != want:
                raise VerificationError(
                    f"duality pairing failed at ({i}, {j}): got {value}, want {want}")
    for o, c in zip(ordered, comps):  # the entry's slope is the component's or one more
        if o // n - c // n not in (0, -1):
            o_obj, c_obj = decode(cat, (o, c))
            raise VerificationError(f"slope rule violated: entry {o_obj} against "
                                    f"{_slope_vectors(m, (c_obj,))[0]}")


def g_vector_check(frame: DualityFrame) -> bool:
    """The frame identity restated through G^t := V^t E still gives D.  That
    the projective rows P satisfy P E = I is checked when the category is built."""
    e_cols = tuple(zip(*frame.e_rows))

    def times(rows, cols):
        return [[sum(map(mul, r, c)) for c in cols] for r in rows]

    n = len(frame.d_diag)
    prod = times(times(frame.v_cols, e_cols), frame.c_cols)
    return prod == [[frame.d_diag[i] if i == j else 0 for j in range(n)]
                    for i in range(n)]


class HorizontalSubcat(NamedTuple):
    slope: int
    signed_modules: tuple[tuple[Root, int], ...]  # (+1 at this slope, -1 one above)
    objects: tuple[Root, ...]
    rank: int


def _horizontal(cat: RepCategory, m: int, comps: tuple[int, ...], s: int) -> HorizontalSubcat:
    """The wide subcategory spanned by the components (ids) of slopes s and s+1.  Window w
    holds the components of slopes w and w+1; the span is checked against the right
    perpendiculars of the windows above s+1 and the left perpendiculars of those below
    s-1, including the one-sided windows at -1 and m."""
    n, amb = len(cat.roots), ambient(cat)
    sel = [(x % n, +1) for x in comps if m - x // n == s]
    sel += [(x % n, -1) for x in comps if m - x // n == s + 1]
    if not sel:
        return HorizontalSubcat(s, (), (), 0)
    right = _perp_of(cat, sum({1 << i for i, _ in sel}), amb, True).mask
    span = _perp_of(cat, right, amb, False) if right else amb
    if span.rank != len(sel):
        raise VerificationError(
            f"horizontal subcategory at slope {s} has rank {span.rank}, expected {len(sel)}")
    rhs, slopes = amb.mask, [m - x // n for x in comps]
    for windows, nonzero in ((range(s + 2, m + 1), cat.right_nz), (range(-1, s - 1), cat.left_nz)):
        for w in windows:
            for x, slope in zip(comps, slopes):
                if slope in (w, w + 1):
                    rhs &= ~nonzero[x % n]
    if rhs != span.mask:
        raise VerificationError(
            f"horizontal subcategory at slope {s} fails the intersection identity")
    return HorizontalSubcat(s, tuple((cat.roots[i], sign) for i, sign in sel), span.objects,
                            span.rank)


def _signed_root(cat: RepCategory, m: int, vec: list[int]) -> tuple[int, int]:
    """(root id, eps) with vec = eps * that root, else an invariant failure."""
    for eps in (1, -1):
        i = cat.root_id.get(tuple([eps * x for x in vec]))
        if i is not None:
            return i, eps
    if not (all(x >= 0 for x in vec) or all(x <= 0 for x in vec)) or not any(vec):
        raise _inconsistent(cat, m, f"mixed-sign vector {vec} is not a signed root")
    raise _inconsistent(cat, m, f"{tuple(abs(x) for x in vec)} is not a positive root")


def _check_move(cat: RepCategory, m: int, comps: tuple[int, ...], k, direction) -> None:
    """Refuse a malformed move at k of the configuration comps, or one leaving 0..m;
    k must be an int (not a bool) in 0..len(comps)-1."""
    if isinstance(k, bool) or not isinstance(k, int):
        raise InputError(f"position {k!r} is not an integer")
    if not 0 <= k < len(comps):
        raise InputError(f"position {k} out of range")
    if direction not in ("+", "-"):
        raise InputError("direction must be '+' or '-'")
    sk = m - comps[k] // len(cat.roots)
    if direction == "+" and sk + 1 > m:
        raise InputError(f"slope {sk} has no headroom to mutate upward (m={m})")
    if direction == "-" and sk - 1 < 0:
        raise InputError(f"slope {sk} cannot mutate downward")


def _mutate(cat: RepCategory, m: int, comps: tuple[int, ...], k: int,
            direction: str) -> tuple[int, ...]:
    """The configuration comps (ids) mutated at position k by a legal move, raising (+) or
    lowering (-) the slope of its slope vector by one and updating the coupled entries,
    short of validating the result.  `cat.pair_mutations` keeps the signed root id of each
    update c_j + |b_kj| c_k under (root id j, root id k, sign of c_j, sign of c_k), once it
    is found to be a signed root."""
    n, ck, p, updates = len(cat.roots), comps[k], cat.pairings, cat.pair_mutations
    kr, kl = ck % n, ck // n
    s = m - kl if direction == "+" else m - kl - 1
    sign_k = -1 if (m - kl) & 1 else 1  # c_j = (-1)^(m - l_j) root j
    new = list(comps)
    for j, c in enumerate(comps):
        jr, jl = c % n, c // n
        if j == k or not s <= m - jl <= s + 1:
            continue
        # b_kj = <c_j, c_k> - <c_k, c_j> (row k of the exchange matrix), signs (-1)^(l_j + l_k)
        bkj = p[jr][kr] - p[kr][jr]
        if (jl ^ kl) & 1:
            bkj = -bkj
        if bkj <= 0 if direction == "+" else bkj >= 0:
            continue
        # j and k are both window columns, so the update keeps the window's span
        key = (jr, kr, -1 if (m - jl) & 1 else 1, sign_k)
        if key not in updates:
            updates[key] = _signed_root(cat, m, [key[2] * a + abs(bkj) * sign_k * b
                                                 for a, b in zip(cat.roots[jr], cat.roots[kr])])
        root, eps = updates[key]
        # place at the slope in {s, s+1} whose parity is the updated vector's sign;
        # s and s+1 differ in parity, so exactly one does
        new[j] = (m - (s if s & 1 == (eps < 0) else s + 1)) * n + root
    new[k] = ck + (-n if direction == "+" else n)
    return tuple(new)


def _recover(cat: RepCategory, m: int, ordered: tuple[int, ...], new_comps: tuple[int, ...],
             k: int) -> tuple[int, ...]:
    """The cluster dual to new_comps, which differs from ordered only at k, on the ids of
    checked input, short of the frame check.

    Only entry k moves, so G = V_old^t E C_new equals D off row k, and the
    new signed column is sum_j G_kj v_j over the old signed columns v_j (all
    f_j are 1 over a quiver), with self-coefficient G_kk = -f_k.  The frame
    V^t E C = D of the result, checked by `_check_frame`, proves it.
    """
    n, x = len(cat.roots), ordered[k]
    xl, pairs = x // n, cat.pairings[x % n]
    # row k of G, signed by (-1)^(l_x + l_c)
    row = [-pairs[c % n] if (xl ^ c // n) & 1 else pairs[c % n] for c in new_comps]
    if row[k] != -pairs[x % n]:
        raise _inconsistent(cat, m, "self-coefficient of the exchanged entry is not -1")
    vec = [0] * cat.n
    for g, o in zip(row, ordered):  # plus g times the old signed column (-1)^(m - l_o) root o
        if g:
            g = -g if (m - o // n) & 1 else g
            vec = [a + g * b for a, b in zip(vec, cat.roots[o % n])]
    root, eps = _signed_root(cat, m, vec)
    slope_c = m - new_comps[k] // n
    choices = [st for st in (slope_c, slope_c + 1) if 0 <= st <= m and st & 1 == (eps < 0)]
    if len(choices) != 1:
        raise _inconsistent(cat, m, f"no slope placement for recovered entry {cat.roots[root]}")
    new = (m - choices[0]) * n + root
    if new // n == m and cat.ext_out[root]:
        raise _inconsistent(cat, m, "recovered top-level entry is not projective")
    compatible_with_new = _compat_rows(cat, m)[new]
    for i, o in enumerate(ordered):
        if i != k and not compatible_with_new >> o & 1:
            raise _inconsistent(cat, m, "recovered entry {} clashes with {}".format(
                *decode(cat, (new, o))))
    return ordered[:k] + (new,) + ordered[k + 1:]


class MutationResult(NamedTuple):
    ordered: tuple[ShiftedObject, ...]
    configuration: tuple[ShiftedObject, ...]
    mutated_ordered: tuple[ShiftedObject, ...]
    mutated_configuration: tuple[ShiftedObject, ...]


def mutate(cat: RepCategory, m: int, ordered, k: int, direction: str) -> MutationResult:
    """The move at position k of an ordered cluster, checked, made as `mutation_moves` makes it.
    The cluster must be complete and in order: no entry may need a later one first."""
    m = check_m(m)
    ids = check_objects(cat, None, m, ordered)
    if len(ids) != cat.n:
        raise InputError(f"a cluster here has {cat.n} objects, got {len(ids)}")
    clash = _out_of_order(cat, ids)
    if clash is not None:
        raise InputError("{} must come after {}: the reversal of the ordered cluster is not an "
                         "exceptional sequence".format(*decode(cat, [ids[i] for i in clash])))
    comps = _garside(cat, m, ids, ambient(cat))
    _check_move(cat, m, comps, k, direction)
    new_comps, new_ordered = _move(cat, m, ids, comps, k, direction)
    return MutationResult(*(decode(cat, x) for x in (ids, comps, new_ordered, new_comps)))


def _move(cat: RepCategory, m: int, ids: tuple[int, ...], comps: tuple[int, ...], k: int,
          direction: str):
    """A legal move on ids: the new configuration, validated, and the new ordered cluster."""
    new_comps = _mutate(cat, m, comps, k, direction)
    _validate(cat, m, new_comps)
    new_ordered = _recover(cat, m, ids, new_comps, k)
    _check_frame(cat, m, new_ordered, new_comps)
    return new_comps, new_ordered


def mutation_moves(cat: RepCategory, m: int, ordered: tuple[int, ...], comps: tuple[int, ...]):
    """Every move keeping the slopes in 0..m of an ordered cluster with configuration comps,
    as (k, direction, new configuration, new ordered cluster), all in ids; the kernels run it."""
    m, n = check_m(m), len(cat.roots)
    return ((k, direction, *_move(cat, m, ordered, comps, k, direction))
            for k, c in enumerate(comps) for direction, step in (("+", 1), ("-", -1))
            if 0 <= m - c // n + step <= m)


def cluster_table(cat: RepCategory, m: int) -> dict:
    """The ids of each cluster of `enumerate_clusters`, in its order, mapped to the ids of
    its ordered form (`_order`) and of that form's Garside configuration (`_garside`)."""
    m, scope, table = check_m(m), ambient(cat), {}
    n, root_id = len(cat.roots), cat.root_id
    for cluster in enumerate_clusters(cat, m):
        ids = tuple([o.level * n + root_id[o.root] for o in cluster])  # found valid: no parse
        ordered = _order(cat, m, ids)
        table[ids] = ordered, _garside(cat, m, ordered, scope)
    return table


def exchange_graph(cat: RepCategory, m: int):
    """Nodes: clusters in canonical order.  Edges: (i, j, k, dir) moves."""
    m = check_m(m)
    table = cluster_table(cat, m)
    index = {c: i for i, c in enumerate(table)}
    edges = []
    for i, (ordered, comps) in enumerate(table.values()):
        for k, direction, _, new_ordered in mutation_moves(cat, m, ordered, comps):
            j = index.get(tuple(sorted(new_ordered)))  # ids sort like objects
            if j is None:
                raise _inconsistent(cat, m, "move k={},{} of {} leaves the cluster set".format(
                    k + 1, direction, " ".join(map(str, decode(cat, ordered)))))
            edges.append((i, j, k, direction))
    return tuple(decode(cat, c) for c in table), tuple(sorted(edges))
