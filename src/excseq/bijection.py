"""The transport bijection and the tuple <-> shifted-sequence correspondence.

For a fixed shifted object T[k] of a scope, `transport` is a bijection from
the shifted exceptional objects of T's perpendicular category onto the
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
onto the compatible set.  Composing transports along the last tuple entry
gives `tuple_to_sequence`, the bijection between ordered pairwise compatible
tuples and shifted exceptional sequences, compatible with deletion of the
first entry.

The public functions validate their arguments once: objects are parsed
strictly (roots by `check_root`, levels by `check_level`), a tuple must be
pairwise compatible and a sequence must pass `is_m_exc_sequence`.  The
recursions behind them, `_tuple_to_sequence` and `_sequence_to_tuple`, trust
their input and only index the verified tables; the bijection suite calls
them directly on the tuples it enumerated and on their images.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .dynkin import Root
from .errors import InputError
from .repengine import RepCategory
from .shiftcat import (ShiftedObject, _inconsistent, check_level, check_object,
                       check_pairwise_compatible, compatible, is_valid_object,
                       shifted_objects)
from .wide import (PairCase, WideSubcat, ambient, classify_pair, congruent,
                   is_relatively_projective, mutate_pair, mutate_pair_inverse, perp)


def in_compatible_set(cat: RepCategory, m: int, scope: WideSubcat,
                      t_obj: ShiftedObject, obj: ShiftedObject) -> bool:
    """Membership of obj in the objects of the scope compatible with t_obj."""
    return is_valid_object(cat, scope, m, obj) and compatible(cat, obj, t_obj)


def compatible_set(cat: RepCategory, m: int, scope: WideSubcat,
                   t_obj: ShiftedObject) -> tuple[ShiftedObject, ...]:
    return tuple(o for o in shifted_objects(cat, scope, m)
                 if compatible(cat, o, t_obj))


class _TransportTable(NamedTuple):
    perp: WideSubcat  # T's perpendicular in the scope
    forward: dict[ShiftedObject, ShiftedObject]  # in the order of its domain
    inverse: dict[ShiftedObject, ShiftedObject]


def _place(cat: RepCategory, m: int, t_obj: ShiftedObject, obj: ShiftedObject,
           moved: Root, step: int) -> ShiftedObject:
    """`moved`, the pair mutation of obj over T, at the unique level l in
    {j, j + step} within 0..m with (-1)^j dim obj = (-1)^l dim moved mod dim T."""
    j = obj.level
    levels = [lv for lv in (j, j + step)
              if 0 <= lv <= m and congruent(j, obj.root, lv, moved, t_obj.root)]
    if len(levels) != 1:
        raise _inconsistent(cat, m, f"placement of {obj} over {t_obj} found levels {levels}")
    return ShiftedObject(moved, levels[0])


def _chart(cat: RepCategory, m: int, t_obj: ShiftedObject,
           x_obj: ShiftedObject) -> ShiftedObject:
    (t, k), (x, j) = t_obj, x_obj
    if j < k:
        return x_obj
    if j == k:
        if cat.ext(x, t) > 0:
            return ShiftedObject(mutate_pair(cat, x, t), k)
        if k == m and classify_pair(cat, x, t) is PairCase.EPI:
            raise _inconsistent(cat, m, "epi onto a relative projective at top level: "
                                f"{x_obj} over {t_obj}")
        return x_obj
    case = classify_pair(cat, x, t)
    return ShiftedObject(mutate_pair(cat, x, t), j - 1 if case is PairCase.MONO else j)


def _transport_table(cat: RepCategory, m: int, t_obj: ShiftedObject,
                     scope: WideSubcat | None) -> tuple[ShiftedObject, _TransportTable]:
    """t_obj checked against the scope, and its transport table."""
    scope = scope if scope is not None else ambient(cat)
    t_obj = check_object(cat, scope, m, t_obj)
    return t_obj, _build_table(cat, m, t_obj, scope)


def _build_table(cat: RepCategory, m: int, t_obj: ShiftedObject,
                 scope: WideSubcat) -> _TransportTable:
    """The checked transport table of t_obj in the scope, kept in `cat.transports`."""
    key = (m, cat.root_id[t_obj.root], t_obj.level, scope.mask)
    table = cat.transports.get(key)
    if table is not None:
        return table
    t = t_obj.root
    t_perp = perp(cat, (t,), scope)
    forward, inverse = {}, {}
    for x_obj in shifted_objects(cat, t_perp, m):
        chart = _chart(cat, m, t_obj, x_obj)
        cong = (x_obj if in_compatible_set(cat, m, scope, t_obj, x_obj)
                else _place(cat, m, t_obj, x_obj, mutate_pair(cat, x_obj.root, t), -1))
        if chart != cong:
            raise _inconsistent(cat, m, f"chart answer {chart} disagrees with congruence "
                                f"answer {cong} for {x_obj} over {t_obj}")
        if not in_compatible_set(cat, m, scope, t_obj, chart):
            raise _inconsistent(cat, m, f"transport output {chart} not compatible "
                                f"with {t_obj}")
        back = (chart if t_perp.mask >> cat.root_id[chart.root] & 1
                else _place(cat, m, t_obj, chart, mutate_pair_inverse(cat, chart.root, t), 1))
        if back != x_obj:
            raise _inconsistent(cat, m, f"inverse placement of {chart} over {t_obj} "
                                f"gives {back}, not {x_obj}")
        forward[x_obj] = chart
        inverse[chart] = x_obj
    codomain = set(compatible_set(cat, m, scope, t_obj))
    if len(inverse) != len(forward) or inverse.keys() != codomain:
        raise _inconsistent(cat, m, f"transport over {t_obj} is not a bijection onto "
                            "its compatible set")
    table = cat.transports[key] = _TransportTable(t_perp, forward, inverse)
    return table


def _images(cat: RepCategory, table: _TransportTable, t_obj: ShiftedObject, objs,
            inverse: bool) -> tuple[ShiftedObject, ...]:
    """Images of objs under one direction of the table; InputError names the
    first object outside its domain."""
    images = table.inverse if inverse else table.forward
    objs = [ShiftedObject(cat.check_root(o.root), check_level(o.level)) for o in objs]
    try:
        return tuple([images[o] for o in objs])
    except KeyError:
        bad = next(o for o in objs if o not in images)
        what = (f"compatible with {t_obj}" if inverse
                else f"a shifted object of the perpendicular of {t_obj}")
        raise InputError(f"{bad} is not {what}") from None


def transport(cat: RepCategory, m: int, t_obj: ShiftedObject, x_obj: ShiftedObject,
              scope: WideSubcat | None = None) -> ShiftedObject:
    """Carry an object of T's perpendicular category to one compatible with T[k]."""
    t_obj, table = _transport_table(cat, m, t_obj, scope)
    return _images(cat, table, t_obj, (x_obj,), inverse=False)[0]


def transport_inverse(cat: RepCategory, m: int, t_obj: ShiftedObject,
                      y_obj: ShiftedObject,
                      scope: WideSubcat | None = None) -> ShiftedObject:
    """Inverse of `transport`: the object of T's perpendicular it carries to y_obj."""
    t_obj, table = _transport_table(cat, m, t_obj, scope)
    return _images(cat, table, t_obj, (y_obj,), inverse=True)[0]


def tuple_to_sequence(cat: RepCategory, m: int, tup,
                      scope: WideSubcat | None = None) -> tuple[ShiftedObject, ...]:
    """Ordered compatible tuple -> shifted exceptional sequence of equal length.

    The tuple is validated once (every entry a valid object of the scope, the
    entries pairwise compatible); `_tuple_to_sequence` then trusts it."""
    scope = scope if scope is not None else ambient(cat)
    tup = tuple(tup)
    checked = tuple([check_object(cat, scope, m, o) for o in tup])
    check_pairwise_compatible(cat, tup)
    return _tuple_to_sequence(cat, m, checked, scope, {})


def sequence_to_tuple(cat: RepCategory, m: int, terms,
                      scope: WideSubcat | None = None) -> tuple[ShiftedObject, ...]:
    """Shifted exceptional sequence -> ordered compatible tuple (inverse map).

    The terms are validated once (integral levels, `is_m_exc_sequence`);
    `_sequence_to_tuple` then trusts them."""
    scope = scope if scope is not None else ambient(cat)
    terms = tuple([ShiftedObject(root, check_level(level)) for root, level in terms])
    if not is_m_exc_sequence(cat, m, terms, scope):
        raise InputError("terms do not form a shifted exceptional sequence")
    terms = tuple([ShiftedObject(cat.check_root(o.root), o.level) for o in terms])
    return _sequence_to_tuple(cat, m, terms, scope, {})


def _tuple_to_sequence(cat: RepCategory, m: int, tup: tuple[ShiftedObject, ...],
                       scope: WideSubcat, memo: dict) -> tuple[ShiftedObject, ...]:
    """`tuple_to_sequence` of a tuple known to be a valid compatible tuple of
    the scope, with no per-level checks.  Pull the other entries back over the
    last one and recurse in its perpendicular; memo keeps the results of the
    recursive calls under (scope mask, tuple)."""
    if len(tup) <= 1:
        return tup
    table = _build_table(cat, m, tup[-1], scope)
    pulled = _lookup(cat, m, table.inverse, tup[:-1], tup[-1])
    key = (table.perp.mask, pulled)
    seq = memo.get(key)
    if seq is None:
        seq = memo[key] = _tuple_to_sequence(cat, m, pulled, table.perp, memo)
    return seq + tup[-1:]


def _sequence_to_tuple(cat: RepCategory, m: int, terms: tuple[ShiftedObject, ...],
                       scope: WideSubcat, memo: dict) -> tuple[ShiftedObject, ...]:
    """`sequence_to_tuple` of terms known to form a shifted exceptional
    sequence of the scope, unchecked and memoised like `_tuple_to_sequence`.
    Map the prefix in the last term's perpendicular, then carry it over."""
    if len(terms) <= 1:
        return terms
    table = _build_table(cat, m, terms[-1], scope)
    key = (table.perp.mask, terms[:-1])
    prefix = memo.get(key)
    if prefix is None:
        prefix = memo[key] = _sequence_to_tuple(cat, m, terms[:-1], table.perp, memo)
    return _lookup(cat, m, table.forward, prefix, terms[-1]) + terms[-1:]


def _lookup(cat: RepCategory, m: int, images: dict[ShiftedObject, ShiftedObject],
            objs, t_obj: ShiftedObject) -> tuple[ShiftedObject, ...]:
    """Images of objs that validated input guarantees to be in the table."""
    try:
        return tuple([images[o] for o in objs])
    except KeyError as exc:
        raise _inconsistent(cat, m, f"{exc.args[0]} is outside the transport table "
                            f"of {t_obj}") from None


def is_m_exc_sequence(cat: RepCategory, m: int, terms,
                      scope: WideSubcat | None = None) -> bool:
    """Levels within 0..m, underlying modules an exceptional sequence, and
    level-m terms relatively projective in the perpendicular of later terms."""
    cur = scope if scope is not None else ambient(cat)
    for root, level in reversed(tuple(terms)):
        if not is_valid_object(cat, cur, m, ShiftedObject(root, level)):
            return False
        cur = perp(cat, (root,), cur)
    return True


def m_exc_sequences(cat: RepCategory, m: int, k: int,
                    scope: WideSubcat | None = None) -> list[tuple[ShiftedObject, ...]]:
    """Enumerate shifted exceptional sequences of length k, deterministically."""
    scope = scope if scope is not None else ambient(cat)
    if k < 0:
        raise InputError("length must be >= 0")
    if k == 0:
        return [()]
    out: list[tuple[ShiftedObject, ...]] = []
    for last in scope.objects:
        levels = list(range(m)) + ([m] if is_relatively_projective(cat, last, scope) else [])
        sub = perp(cat, (last,), scope)
        prefixes = m_exc_sequences(cat, m, k - 1, sub)
        for level in levels:
            tail = ShiftedObject(last, level)
            out.extend(prefix + (tail,) for prefix in prefixes)
    return out


@dataclass
class TransportReport:
    t_obj: ShiftedObject
    m: int
    domain_size: int
    codomain_size: int
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def check_transport(cat: RepCategory, m: int, t_obj: ShiftedObject,
                    scope: WideSubcat | None = None) -> TransportReport:
    """Compatibility preservation for one transport map; its bijectivity and
    round trip are asserted when its table is built."""
    t_obj, table = _transport_table(cat, m, t_obj, scope)
    images, domain = table.forward, tuple(table.forward)
    report = TransportReport(t_obj, m, len(domain), len(table.inverse))
    for i, a in enumerate(domain):
        for b in domain[i + 1:]:
            before = compatible(cat, a, b)
            after = compatible(cat, images[a], images[b])
            if before != after:
                ia, ib = sorted((a.level, b.level))
                ja, jb = sorted((images[a].level, images[b].level))
                tag = {(True, True): "levels split/split",
                       (True, False): "levels split/equal",
                       (False, True): "levels equal/split",
                       (False, False): "levels equal/equal"}[(ia < ib, ja < jb)]
                report.violations.append(
                    f"compatibility not preserved for {a}, {b} ({tag})")
    return report
