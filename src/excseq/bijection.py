"""The transport bijection and the tuple <-> shifted-sequence correspondence.

For a fixed shifted object T[k], `transport` is a bijection from the shifted
exceptional objects of T's perpendicular category onto the objects compatible
with T[k].  It is evaluated along two independent routes and the answers are
asserted equal:

  chart route      - below level k nothing moves; at level k an object moves
                     (by pair mutation) exactly when it has extensions into T;
                     above level k the mono-embedding case drops one level and
                     every other case keeps its level.
  congruence route - an object already compatible with T[k] stays put;
                     otherwise its pair mutation Y is placed at the unique
                     level j in {i, i-1} with (-1)^i dim X = (-1)^j dim Y
                     modulo dim T.

Composing transports along the last tuple entry gives `tuple_to_sequence`,
the bijection between ordered pairwise compatible tuples and shifted
exceptional sequences, compatible with deletion of the first entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InputError, InternalConsistencyError
from .repengine import RepCategory
from .shiftcat import (ShiftedObject, check_object, check_pairwise_compatible,
                       compatible, is_valid_object, shifted_objects)
from .wide import (PairCase, WideSubcat, ambient, classify_pair, congruent,
                   is_relatively_projective, mutate_pair, mutate_pair_inverse,
                   perp)


def in_compatible_set(cat: RepCategory, m: int, scope: WideSubcat,
                      t_obj: ShiftedObject, obj: ShiftedObject) -> bool:
    """Membership of obj in the objects of the scope compatible with t_obj."""
    return is_valid_object(cat, scope, m, obj) and compatible(cat, obj, t_obj)


def compatible_set(cat: RepCategory, m: int, scope: WideSubcat,
                   t_obj: ShiftedObject) -> tuple[ShiftedObject, ...]:
    return tuple(o for o in shifted_objects(cat, scope, m)
                 if compatible(cat, o, t_obj))


def transport(cat: RepCategory, m: int, t_obj: ShiftedObject, x_obj: ShiftedObject,
              scope: WideSubcat | None = None) -> ShiftedObject:
    """Carry an object of T's perpendicular category to one compatible with T[k]."""
    scope = scope if scope is not None else ambient(cat)
    t_obj = check_object(cat, scope, m, t_obj)
    t, k = t_obj
    t_perp = perp(cat, (t,), scope)
    x_obj = ShiftedObject(cat.check_root(x_obj.root), int(x_obj.level))
    if not is_valid_object(cat, t_perp, m, x_obj):
        raise InputError(f"{x_obj} is not a shifted object of the perpendicular of {t_obj}")
    x, j = x_obj

    # chart route
    if j < k:
        chart = x_obj
    elif j == k:
        if cat.ext(x, t) > 0:
            chart = ShiftedObject(mutate_pair(cat, x, t), k)
        else:
            if k == m and classify_pair(cat, x, t) is PairCase.EPI:
                raise InternalConsistencyError(
                    f"epi onto a relative projective at top level: {x_obj} over {t_obj}")
            chart = x_obj
    else:
        case = classify_pair(cat, x, t)
        y = mutate_pair(cat, x, t)
        chart = ShiftedObject(y, j - 1 if case is PairCase.MONO else j)

    # congruence route
    if in_compatible_set(cat, m, scope, t_obj, x_obj):
        cong = x_obj
    else:
        y = mutate_pair(cat, x, t)
        levels = [jj for jj in (j, j - 1) if 0 <= jj <= m and congruent(j, x, jj, y, t)]
        if len(levels) != 1:
            raise InternalConsistencyError(
                f"congruence placement of {x_obj} over {t_obj} found levels {levels}")
        cong = ShiftedObject(y, levels[0])

    if chart != cong:
        raise InternalConsistencyError(
            f"chart answer {chart} disagrees with congruence answer {cong} "
            f"for {x_obj} over {t_obj}")
    if not in_compatible_set(cat, m, scope, t_obj, chart):
        raise InternalConsistencyError(f"transport output {chart} not compatible with {t_obj}")
    return chart


def transport_inverse(cat: RepCategory, m: int, t_obj: ShiftedObject,
                      y_obj: ShiftedObject,
                      scope: WideSubcat | None = None) -> ShiftedObject:
    """Inverse of `transport`, via the congruence placement plus a forward check."""
    scope = scope if scope is not None else ambient(cat)
    t_obj = check_object(cat, scope, m, t_obj)
    t, k = t_obj
    y_obj = ShiftedObject(cat.check_root(y_obj.root), int(y_obj.level))
    if not in_compatible_set(cat, m, scope, t_obj, y_obj):
        raise InputError(f"{y_obj} is not compatible with {t_obj}")
    y, j = y_obj
    t_perp = perp(cat, (t,), scope)
    if y in t_perp.objects:
        result = y_obj
    else:
        x = mutate_pair_inverse(cat, y, t)
        levels = [ii for ii in (j, j + 1) if 0 <= ii <= m and congruent(ii, x, j, y, t)]
        if len(levels) != 1:
            raise InternalConsistencyError(
                f"inverse placement of {y_obj} under {t_obj} found levels {levels}")
        result = ShiftedObject(x, levels[0])
    if not is_valid_object(cat, t_perp, m, result):
        raise InternalConsistencyError(
            f"inverse transport output {result} is not an object of the perpendicular")
    if transport(cat, m, t_obj, result, scope) != y_obj:
        raise InternalConsistencyError(f"transport round trip failed at {y_obj}")
    return result


def tuple_to_sequence(cat: RepCategory, m: int, tup,
                      scope: WideSubcat | None = None,
                      validate: bool = True) -> tuple[ShiftedObject, ...]:
    """Ordered compatible tuple -> shifted exceptional sequence of equal length."""
    scope = scope if scope is not None else ambient(cat)
    tup = tuple(tup)
    if validate:
        for o in tup:
            check_object(cat, scope, m, o)
        check_pairwise_compatible(cat, tup)
    if len(tup) <= 1:
        return tup
    t_obj = tup[-1]
    t_perp = perp(cat, (t_obj.root,), scope)
    pulled = tuple(transport_inverse(cat, m, t_obj, o, scope) for o in tup[:-1])
    prefix = tuple_to_sequence(cat, m, pulled, t_perp, validate=False)
    return prefix + (t_obj,)


def sequence_to_tuple(cat: RepCategory, m: int, terms,
                      scope: WideSubcat | None = None,
                      validate: bool = True) -> tuple[ShiftedObject, ...]:
    """Shifted exceptional sequence -> ordered compatible tuple (inverse map)."""
    scope = scope if scope is not None else ambient(cat)
    terms = tuple(terms)
    if validate and not is_m_exc_sequence(cat, m, terms, scope):
        raise InputError("terms do not form a shifted exceptional sequence")
    if len(terms) <= 1:
        return terms
    t_obj = terms[-1]
    t_perp = perp(cat, (t_obj.root,), scope)
    prefix_tuple = sequence_to_tuple(cat, m, terms[:-1], t_perp, validate=False)
    pushed = tuple(transport(cat, m, t_obj, o, scope) for o in prefix_tuple)
    return pushed + (t_obj,)


def is_m_exc_sequence(cat: RepCategory, m: int, terms,
                      scope: WideSubcat | None = None) -> bool:
    """Levels within 0..m, underlying modules an exceptional sequence, and
    level-m terms relatively projective in the perpendicular of later terms."""
    scope = scope if scope is not None else ambient(cat)
    terms = tuple(terms)
    cur = scope
    for idx in reversed(range(len(terms))):
        root, level = terms[idx]
        if not 0 <= level <= m or root not in cur.objects:
            return False
        if level == m and not is_relatively_projective(cat, root, cur):
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
    """Bijectivity plus compatibility preservation for one transport map."""
    scope = scope if scope is not None else ambient(cat)
    t_obj = check_object(cat, scope, m, t_obj)
    t_perp = perp(cat, (t_obj.root,), scope)
    domain = shifted_objects(cat, t_perp, m)
    codomain = compatible_set(cat, m, scope, t_obj)
    report = TransportReport(t_obj, m, len(domain), len(codomain))
    images = {}
    for x_obj in domain:
        images[x_obj] = transport(cat, m, t_obj, x_obj, scope)
    if len(set(images.values())) != len(domain):
        report.violations.append("transport is not injective")
    if set(images.values()) != set(codomain):
        report.violations.append("transport image differs from the compatible set")
    for x_obj, y_obj in images.items():
        back = transport_inverse(cat, m, t_obj, y_obj, scope)
        if back != x_obj:
            report.violations.append(f"round trip failed at {x_obj}")
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
