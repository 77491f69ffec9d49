"""The transport bijection and the tuple <-> shifted-sequence correspondence.

For a fixed shifted object T[k] of a scope, the transport over it is a bijection
from the shifted exceptional objects of T's perpendicular category onto the
objects of the scope compatible with T[k].  It is built once per (m, T[k],
scope mask) as a table, kept in the category's `transports` and freed with
it, whose every entry is computed along two independent routes that agree:

  chart route      - below level k nothing moves; at level k an object moves
                     (by pair mutation) exactly when it has extensions into T;
                     above level k the mono-embedding case drops one level and
                     every other case keeps its level.
  congruence route - an object already compatible with T[k] stays put;
                     otherwise its pair mutation Y is placed at the unique
                     level j in {i, i-1} with (-1)^i dim X = (-1)^j dim Y
                     modulo dim T.

Each image must be compatible with T[k], its inverse placement (the braid
move back over T) must return the entry, and the table must be a bijection
onto the compatible set that preserves compatibility: two objects of the
domain are compatible exactly when their images are.  Every table is checked
in full when it is built.  Composing transports along the last tuple entry
gives `tuple_to_sequence`, the bijection between ordered pairwise compatible
tuples and shifted exceptional sequences, compatible with deletion of the
first entry; it is one because each table it composes is.

A table maps object ids (`shiftcat.encode`) to ids; both routes read each pair's
move, case and parities off its `wide.PairRecord`, which one loop reads once per
entry.  The public functions validate and encode their arguments once; the maps
behind them (`_to_sequences`, `_to_tuples`), which the bijection suite hands a
whole round, trust their id tuples, map each on its own and only index tables.
"""

from __future__ import annotations

from operator import itemgetter
from typing import NamedTuple

from .counting import check_m
from .errors import InputError
from .repengine import RepCategory
from .shiftcat import (ShiftedObject, _compat_rows, _ids, _inconsistent, check_length,
                       check_objects, decode, encode, object_mask)
from .wide import (PairCase, PairRecord, WideSubcat, _edges, _pair_record, _perp_of, ambient,
                   check_scope)


class _TransportTable(NamedTuple):
    perp: WideSubcat  # T's perpendicular in the scope
    forward: dict[int, int]  # object ids, in the order of its domain
    inverse: dict[int, int]


def _place(cat: RepCategory, m: int, x: int, t: int, pair: PairRecord, inverse: bool) -> int:
    """pair's braid move of object x over object t (back over it if inverse) at the unique
    level l in {j, j -+ 1} within 0..m with (-1)^j dim x = (-1)^l dim move mod dim T."""
    n = len(cat.roots)
    j = x // n
    levels = [lv for lv, ok in ((j, pair.same), (j + (1 if inverse else -1), pair.flip))
              if ok and 0 <= lv <= m]
    if len(levels) != 1:
        raise _inconsistent(cat, m, "placement of {} over {} found levels {}".format(
            *decode(cat, (x, t)), levels))
    return levels[0] * n + pair.z


def _build_table(cat: RepCategory, m: int, t: int, scope: WideSubcat) -> _TransportTable:
    """The checked table of id t in the scope, for callers that found none in `cat.transports`.
    Each entry reads its pair's forward record once, for both routes, and the record of
    its image's inverse move once, for the inverse placement."""
    n, records, ext_out = len(cat.roots), cat.pair_mutations, cat.ext_out
    rows = _compat_rows(cat, m)
    k, ti = divmod(t, n)
    t_perp = _perp_of(cat, 1 << ti, scope, True)
    codomain = object_mask(cat, scope, m) & rows[t]
    forward, inverse = {}, {}
    for x in _ids(object_mask(cat, t_perp, m)):
        j, xi = divmod(x, n)
        # chart route: x stays below level k, and at level k unless it has extensions into T
        stays, fixed = j < k or j == k and not ext_out[xi] >> ti & 1, codomain >> x & 1
        pair = (None if stays and fixed and not j == k == m
                else records.get((xi, ti, False)) or _pair_record(cat, xi, ti, False))
        if not stays:
            chart = (j - 1 if j > k and pair.case is PairCase.MONO else j) * n + pair.z
        elif j == k == m and pair.case is PairCase.EPI:
            raise _inconsistent(cat, m, "epi onto a relative projective at top level: "
                                "{} over {}".format(*decode(cat, (x, t))))
        else:
            chart = x
        cong = x if fixed else _place(cat, m, x, t, pair, False)
        if chart != cong:
            raise _inconsistent(cat, m, "chart answer {} disagrees with congruence answer {} "
                                "for {} over {}".format(*decode(cat, (chart, cong, x, t))))
        if not codomain >> chart & 1:
            raise _inconsistent(cat, m, "transport output {} not compatible with {}".format(
                *decode(cat, (chart, t))))
        yi = chart % n
        back = chart if t_perp.mask >> yi & 1 else _place(
            cat, m, chart, t, records.get((yi, ti, True)) or _pair_record(cat, yi, ti, True), True)
        if back != x:
            raise _inconsistent(cat, m, "inverse placement of {} over {} gives {}, not {}".format(
                *decode(cat, (chart, t, back, x))))
        forward[x], inverse[chart] = chart, x
    if len(inverse) != len(forward) or sum(1 << y for y in inverse) != codomain:
        raise _inconsistent(cat, m, f"transport over {decode(cat, (t,))[0]} is not a "
                            "bijection onto its compatible set")
    # compatibility preserved: a pair of entries that stay put keeps it, and one that stays
    # keeps its id, so the rows of a moving entry and of its image must agree there
    stay = sum(1 << x for x, y in forward.items() if x == y)
    moved = [(x, y) for x, y in forward.items() if x != y]
    for i, (a, ya) in enumerate(moved):
        row, image_row = rows[a], rows[ya]
        clash = [(b, b) for b in _ids((row ^ image_row) & stay)] + [
            (b, yb) for b, yb in moved[i + 1:] if row >> b & 1 != image_row >> yb & 1]
        if clash:
            objs = decode(cat, (a, clash[0][0], ya, clash[0][1], t))
            tag = "/".join("split" if u.level != v.level else "equal"
                           for u, v in (objs[:2], objs[2:4]))
            raise _inconsistent(cat, m, "compatibility not preserved for {}, {} over {} "
                                "(levels {})".format(*objs[:2], objs[4], tag))
    return cat.transports.setdefault((m, t, scope.mask), _TransportTable(t_perp, forward, inverse))


def tuple_to_sequence(cat: RepCategory, m: int, tup,
                      scope: WideSubcat | None = None) -> tuple[ShiftedObject, ...]:
    """Ordered compatible tuple -> shifted exceptional sequence of equal length.

    The tuple is validated once (`check_objects`); `_to_sequences` then trusts it."""
    m, scope = check_m(m), check_scope(cat, scope) if scope is not None else ambient(cat)
    return decode(cat, next(_to_sequences(cat, m, [check_objects(cat, scope, m, tup)], scope)))


def sequence_to_tuple(cat: RepCategory, m: int, terms,
                      scope: WideSubcat | None = None) -> tuple[ShiftedObject, ...]:
    """Shifted exceptional sequence -> ordered compatible tuple (inverse map).

    The terms and the scope are validated once (`is_m_exc_sequence`, which parses each term
    by `encode`); `_to_tuples` then trusts them."""
    m, scope = check_m(m), scope if scope is not None else ambient(cat)
    terms = tuple(terms)
    if not is_m_exc_sequence(cat, m, terms, scope):
        raise InputError("terms do not form a shifted exceptional sequence")
    return decode(cat, next(_to_tuples(cat, m, [encode(cat, terms)], scope)))


def _to_sequences(cat: RepCategory, m: int, tuples, scope: WideSubcat):
    """`tuple_to_sequence` on the ids of valid compatible tuples of the scope, unchecked,
    yielded in turn.  Each tuple is mapped on its own: pull the others back over the last
    entry, and go on in its perp, one table step at a time."""
    get = cat.transports.get
    try:
        for tup in tuples:
            cur, tail = scope, ()
            while len(tup) > 1:
                t = tup[-1]
                table = get((m, t, cur.mask)) or _build_table(cat, m, t, cur)
                tup, cur = (itemgetter(*tup[:-1])(table.inverse) if len(tup) > 2
                            else (table.inverse[tup[0]],)), table.perp
                tail = (t, *tail)
            yield tup + tail
    except KeyError as exc:  # validated input never gets here
        raise _inconsistent(cat, m, "{} is outside the transport table of {}".format(
            *decode(cat, (exc.args[0], t)))) from None


def _to_tuples(cat: RepCategory, m: int, sequences, scope: WideSubcat):
    """`sequence_to_tuple` on the ids of shifted exceptional sequences of the scope,
    unchecked, yielded in turn.  Each sequence is mapped on its own: carry the first term
    over the second, that over the third..."""
    get = cat.transports.get
    for terms in sequences:
        images, cur = [], scope  # the forward maps of the terms after the first, last first
        for t in terms[:0:-1]:
            table = get((m, t, cur.mask)) or _build_table(cat, m, t, cur)
            images.append(table.forward)
            cur = table.perp
        tup = terms[:1]
        try:
            for t in terms[1:]:
                image = images.pop()
                tup = itemgetter(*tup)(image) + (t,) if len(tup) > 1 else (image[tup[0]], t)
        except KeyError as exc:
            raise _inconsistent(cat, m, "{} is outside the transport table of {}".format(
                *decode(cat, (exc.args[0], t)))) from None
        yield tup


def is_m_exc_sequence(cat: RepCategory, m: int, terms,
                      scope: WideSubcat | None = None) -> bool:
    """Levels within 0..m, underlying modules an exceptional sequence, and
    level-m terms relatively projective in the perpendicular of later terms;
    each term is parsed by `encode`."""
    m, n = check_m(m), len(cat.roots)
    cur = check_scope(cat, scope) if scope is not None else ambient(cat)
    for x in reversed(encode(cat, terms)):
        if x < 0 or not object_mask(cat, cur, m) >> x & 1:  # no level below 0 or above m
            return False
        cur = _perp_of(cat, 1 << x % n, cur, True)
    return True


def m_exc_sequences(cat: RepCategory, m: int, k: int) -> list[tuple[ShiftedObject, ...]]:
    """Enumerate shifted exceptional sequences of length k, deterministically."""
    return [decode(cat, s) for s in _sequences(cat, check_m(m), check_length(k), ambient(cat), {})]


def _sequences(cat: RepCategory, m: int, k: int, scope: WideSubcat,
               memo: dict) -> list[tuple[int, ...]]:
    """`m_exc_sequences` on ids, read off the walk (`wide._edges`): each edge (X, W', flag) of
    the scope ends the sequences of length k - 1 in W' with X at each level in range(m + flag);
    last terms by root then level.  Memo keys are (scope mask, k)."""
    if k == 0:
        return [()]
    if (scope.mask, k) not in memo:
        n, seqs = len(cat.roots), []
        for x, sub, proj in _edges(cat, scope):
            prefixes = _sequences(cat, m, k - 1, sub, memo)
            seqs += [s + (u,) for u in range(x, (m + proj) * n, n) for s in prefixes]
        memo[scope.mask, k] = seqs
    return memo[scope.mask, k]
