"""Counting complete exceptional sequences and their shifted refinements.

Everything here works on diagrams only (valued types included), by recursion
over vertex deletion:

  count(Q) = (h/2) * sum over vertices of count(Q minus vertex),

with binomial shuffle factors for disjoint unions, and the refinement

  f(x) = (x + h/2 - 1) * sum of f_{Q minus vertex}(x)

whose coefficient of x^k counts complete sequences with k relatively
projective terms.  The shifted count g(m) = sum e_k (m+1)^k m^(n-k) equals
n! times the Fomin-Reading product prod (h*m + d_i)/d_i, which is checked
coefficientwise.  All intermediate arithmetic is exact rational; integrality
is asserted at the boundaries.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .dynkin import DynkinDiagram, build_diagram, coxeter_for_tag, delete_vertex
from .errors import InputError, InternalConsistencyError

_E_MEMO: dict[tuple[str, ...], int] = {}
_F_MEMO: dict[tuple[str, ...], tuple[Fraction, ...]] = {}


class IntPoly(NamedTuple):
    coeffs: tuple[int, ...]  # ascending powers
    var: str = "x"

    def __call__(self, value) -> Fraction:
        return _peval(self.coeffs, Fraction(value))

    def __str__(self) -> str:
        return format_poly(self.coeffs, self.var)


def format_poly(coeffs, var: str) -> str:
    parts = []
    for p in range(len(coeffs) - 1, -1, -1):
        c = coeffs[p]
        if c == 0:
            continue
        mag = abs(c)
        if p == 0:
            term = f"{mag}"
        elif p == 1:
            term = f"{mag}*{var}" if mag != 1 else var
        else:
            term = f"{mag}*{var}^{p}" if mag != 1 else f"{var}^{p}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts) if parts else "0"


# ----- exact polynomial helpers (ascending coefficient lists) -----

def _padd(a, b):
    n = max(len(a), len(b))
    return [ (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n) ]


def _pmul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _pscale(a, s):
    return [x * s for x in a]


def _peval(a, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _to_int_poly(coeffs, var: str) -> IntPoly:
    out = []
    for c in coeffs:
        c = Fraction(c)
        if c.denominator != 1:
            raise InternalConsistencyError(f"non-integral coefficient {c}")
        out.append(int(c))
    return IntPoly(tuple(out), var)


# ----- recursion keyed by canonical component-tag multisets -----

def _key(diagram: DynkinDiagram) -> tuple[str, ...]:
    return tuple(sorted(diagram.component_tags()))


def _pieces_key(tag: str, vertex: int) -> tuple[str, ...]:
    pieces = delete_vertex(build_diagram(tag), vertex)
    tags: list[str] = []
    for p in pieces:
        tags.extend(p.component_tags())
    return tuple(sorted(tags))


def _shuffle_factor(key) -> int:
    ranks = [int(t[1:]) for t in key]
    total = math.factorial(sum(ranks))
    for r in ranks:
        total //= math.factorial(r)
    return total


def _e_of_key(key: tuple[str, ...]) -> int:
    if key in _E_MEMO:
        return _E_MEMO[key]
    if not key:
        result = 1
    elif len(key) > 1:
        result = _shuffle_factor(key) * math.prod(_e_of_key((tag,)) for tag in key)
    else:
        tag = key[0]
        h = coxeter_for_tag(tag).h
        rank = build_diagram(tag).rank
        value = Fraction(h, 2) * sum(_e_of_key(_pieces_key(tag, v)) for v in range(rank))
        if value.denominator != 1:
            raise InternalConsistencyError(f"non-integral sequence count for {tag}")
        result = int(value)
    _E_MEMO[key] = result
    return result


def _f_of_key(key: tuple[str, ...]) -> tuple[Fraction, ...]:
    if key in _F_MEMO:
        return _F_MEMO[key]
    if not key:
        result = (Fraction(1),)
    elif len(key) > 1:
        poly = [Fraction(1)]
        for tag in key:
            poly = _pmul(poly, list(_f_of_key((tag,))))
        result = tuple(_pscale(poly, _shuffle_factor(key)))
    else:
        tag = key[0]
        h = coxeter_for_tag(tag).h
        rank = build_diagram(tag).rank
        inner: list[Fraction] = []
        for v in range(rank):
            inner = _padd(inner, list(_f_of_key(_pieces_key(tag, v))))
        result = tuple(_pmul([Fraction(h, 2) - 1, Fraction(1)], inner))  # times (x + h/2 - 1)
    _F_MEMO[key] = result
    return result


# ----- public counting surface -----

def count_complete_exc_sequences(diagram: DynkinDiagram) -> int:
    """Number of complete exceptional sequences, by deletion recursion."""
    return _e_of_key(_key(diagram))


def count_closed_form(diagram: DynkinDiagram) -> int:
    """n! h^n / prod(d_i) per component, with binomial shuffles across them."""
    prod = 1
    for tag, ids in diagram.components:
        cox = coxeter_for_tag(tag)
        n = len(ids)
        value = Fraction(math.factorial(n) * cox.h ** n)
        for d in cox.degrees:
            value /= d
        if value.denominator != 1:
            raise InternalConsistencyError(f"closed form not integral for {tag}")
        prod *= int(value)
    return _shuffle_factor(_key(diagram)) * prod


def rel_proj_poly(diagram: DynkinDiagram) -> IntPoly:
    """Polynomial whose x^k coefficient counts complete sequences with k
    relatively projective terms."""
    poly = _to_int_poly(_f_of_key(_key(diagram)), "x")
    n = diagram.rank
    if len(poly.coeffs) != n + 1 or (n > 0 and poly.coeffs[0] != 0):
        raise InternalConsistencyError("bad shape for the refinement polynomial")
    if poly.coeffs[n] != math.factorial(n):
        raise InternalConsistencyError("leading coefficient is not n!")
    if poly(1) != count_complete_exc_sequences(diagram):
        raise InternalConsistencyError("refinement polynomial does not sum to the count")
    return poly


def m_sequence_poly(diagram: DynkinDiagram) -> IntPoly:
    """Polynomial in m counting complete shifted sequences: sum e_k (m+1)^k m^(n-k)."""
    f = rel_proj_poly(diagram)
    n = diagram.rank
    acc = [0] * (n + 1)
    for k, e_k in enumerate(f.coeffs):  # e_k (m+1)^k m^(n-k) has e_k C(k, j) at m^(n-k+j)
        for j in range(k + 1):
            acc[n - k + j] += e_k * math.comb(k, j)
    g = IntPoly(tuple(acc), "m")
    if g(0) != math.factorial(n):
        raise InternalConsistencyError("shifted count at m=0 is not n!")
    if g(-1) != 0:
        raise InternalConsistencyError("shifted count does not vanish at m=-1")
    return g


def fomin_reading_poly(diagram: DynkinDiagram) -> tuple[Fraction, ...]:
    """The product prod(h*m + d_i)/d_i over all vertices, as a polynomial in m."""
    poly = [Fraction(1)]
    for tag, _ in diagram.components:
        cox = coxeter_for_tag(tag)
        for d in cox.degrees:
            poly = _pmul(poly, [Fraction(1), Fraction(cox.h, d)])
    return tuple(poly)


def check_level(level, what: str = "level") -> int:
    """level as an int; integral non-int values such as Fraction(1) are
    accepted, bools and non-integral or non-numeric values refused rather than truncated."""
    if type(level) is int:
        return level
    try:
        j = int(level)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{what} {level!r} is not an integer") from exc
    if j != level or isinstance(level, bool):
        raise InputError(f"{what} {level!r} is not an integer")
    return j


def check_m(m) -> int:
    """The shift parameter m as an int >= 0, parsed like a level: the one parser of m, which
    every public function taking m calls first."""
    m = check_level(m, "shift parameter m")
    if m < 0:
        raise InputError("shift parameter m must be >= 0")
    return m


def fomin_reading_count(diagram: DynkinDiagram, m: int) -> int:
    """Number of shifted clusters with parameter m (an exact integer)."""
    m = check_m(m)
    value = _peval(list(fomin_reading_poly(diagram)), Fraction(m))
    if value.denominator != 1:
        raise InternalConsistencyError(f"cluster count at m={m} is not integral")
    return int(value)


def m_count_identity_holds(diagram: DynkinDiagram) -> bool:
    """Coefficientwise check: g(m) == n! * prod(h*m + d_i)/d_i."""
    g = m_sequence_poly(diagram)
    n = diagram.rank
    scaled = _pscale(list(fomin_reading_poly(diagram)), Fraction(math.factorial(n)))
    return _trim(g.coeffs) == _trim(scaled)


# ----- real-root location via exact Sturm chains -----

def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _pdivmod(a, b):
    a, b = _trim(a), _trim(b)
    if not b:
        raise ZeroDivisionError
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    while True:
        r = _trim(r)
        if len(r) < len(b):
            break
        shift = len(r) - len(b)
        c = r[-1] / b[-1]
        q[shift] += c
        for i, x in enumerate(b):
            r[i + shift] -= c * x
    return q, r


def _derivative(p):
    return [c * i for i, c in enumerate(p)][1:]


def _square_free(p):
    d = _derivative(p)
    a, b = p, d
    while _trim(b):
        _, r = _pdivmod(a, b)
        a, b = b, r
    gcd = _trim(a)
    if len(gcd) <= 1:
        return list(p)
    q, r = _pdivmod(p, gcd)
    if _trim(r):
        raise InternalConsistencyError("square-free reduction failed")
    return q


def _sturm_chain(p):
    chain = [_trim(p)]
    d = _trim(_derivative(p))
    if d:
        chain.append(d)
        while True:
            _, r = _pdivmod(chain[-2], chain[-1])
            r = _trim(r)
            if not r:
                break
            chain.append([-c for c in r])
    return chain


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _variations(signs) -> int:
    seq = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(seq, seq[1:]) if a != b)


def _variations_at(chain, x: Fraction) -> int:
    return _variations([_sign(_peval(p, x)) for p in chain])


def _variations_at_inf(chain, positive: bool) -> int:
    signs = []
    for p in chain:
        s = _sign(p[-1])  # the sign at +inf is the leading coefficient's
        if not positive and (len(p) - 1) % 2 == 1:  # and flips at -inf for odd degree
            s = -s
        signs.append(s)
    return _variations(signs)


def real_root_check(g: IntPoly) -> bool:
    """True when every real root of g lies in [-1, 0).

    Combines sampled sign conditions (g > 0 on a few nonnegative points and
    sign-alternating beyond -1) with an exact Sturm count of the roots
    outside the interval.
    """
    p = _trim([Fraction(c) for c in g.coeffs])
    if not p:
        return False
    n = len(p) - 1
    for t in (0, 1, 2):
        if _peval(p, Fraction(t)) <= 0:
            return False
    for t in (-2, -3):
        if (-1) ** n * _peval(p, Fraction(t)) <= 0:
            return False
    if n == 0:
        return True
    sf = _square_free(p)
    chain = _sturm_chain(sf)
    left = _variations_at_inf(chain, positive=False) - _variations_at(chain, Fraction(-1))
    if _peval(sf, Fraction(-1)) == 0:
        left -= 1  # a root exactly at -1 is allowed
    right = _variations_at(chain, Fraction(0)) - _variations_at_inf(chain, positive=True)
    return left == 0 and right == 0
