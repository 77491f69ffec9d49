import math

import pytest

from excseq import (IntPoly, ambient, build_diagram, category, count_closed_form,
                    count_complete_exc_sequences, fomin_reading_count,
                    m_count_identity_holds, m_sequence_poly, marked_exc_sequences,
                    real_root_check, rel_proj_poly, rel_proj_poly_enumerated)
from excseq.wide import _edges

from oracle import mark_relative_projectives

ALL_RANK8 = ([f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
             + [f"C{n}" for n in range(3, 9)] + [f"D{n}" for n in range(4, 9)]
             + ["E6", "E7", "E8", "F4", "G2"])


@pytest.mark.parametrize("tag,count", [
    ("A2", 3), ("B2", 4), ("G2", 6), ("A3", 16), ("D4", 162), ("E6", 41472),
])
def test_counts(tag, count):
    assert count_complete_exc_sequences(build_diagram(tag)) == count


@pytest.mark.parametrize("tag", ALL_RANK8)
def test_recursion_matches_closed_form(tag):
    d = build_diagram(tag)
    assert count_complete_exc_sequences(d) == count_closed_form(d)


def test_shuffle_formula_for_unions():
    d = build_diagram("A2xA1")
    assert count_complete_exc_sequences(d) == math.comb(3, 1) * 3 * 1 == 9
    assert count_closed_form(d) == 9


@pytest.mark.parametrize("tag,coeffs", [("A1", (0, 1)), ("A2", (0, 1, 2))])
def test_rel_proj_poly_small(tag, coeffs):
    assert rel_proj_poly(build_diagram(tag)).coeffs == coeffs


@pytest.mark.parametrize("tag", [f"A{n}" for n in range(1, 8)] + [f"D{n}" for n in range(4, 8)]
                         + ["E6", "E7", "A2xA1", "A1xA1xA1"])
def test_recursive_poly_matches_enumeration(tag):
    # the polynomial summed over the walk, and the walk itself: the wide subcategories
    # reachable along its edges are the noncrossing partitions, counted at m = 1
    d, cat = build_diagram(tag), category(tag)
    assert rel_proj_poly(d).coeffs == rel_proj_poly_enumerated(cat).coeffs
    seen, todo = set(), [ambient(cat)]
    while todo:
        w = todo.pop()
        if w.mask not in seen:
            seen.add(w.mask)
            todo.extend(sub for _, sub, _ in _edges(cat, w))
    assert len(seen) == fomin_reading_count(d, 1)


def test_f_at_one_is_the_count():
    d = build_diagram("A3")
    assert rel_proj_poly(d)(1) == 16


def test_g_poly_a2():
    g = m_sequence_poly(build_diagram("A2"))
    assert g.coeffs == (2, 5, 3)  # (m+1)(3m+2)
    assert g(1) == 10
    assert g(0) == 2
    assert g(-1) == 0


def test_fomin_reading_values():
    d = build_diagram("A2")
    assert fomin_reading_count(d, 1) == 5
    assert fomin_reading_count(build_diagram("A3"), 1) == 14
    assert fomin_reading_count(build_diagram("A3"), 2) == 55
    assert fomin_reading_count(build_diagram("D4"), 1) == 50


@pytest.mark.parametrize("tag", ALL_RANK8)
def test_identity_g_equals_factorial_product(tag):
    assert m_count_identity_holds(build_diagram(tag))


@pytest.mark.parametrize("tag", ALL_RANK8)
def test_real_roots_confined(tag):
    assert real_root_check(m_sequence_poly(build_diagram(tag)))


def test_real_root_check_rejects_bad_poly():
    # (m - 2)(m + 1) has a positive real root and g(1) <= 0
    assert not real_root_check(IntPoly((-2, -1, 1), "m"))
    # positive on the samples but a root beyond -1: (m + 2)(m + 1)
    assert not real_root_check(IntPoly((2, 3, 1), "m"))


@pytest.mark.parametrize("tag", ["A2", "A3"])
@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_lift_count_law(tag, m):
    # each complete sequence with k relatively projective terms lifts to
    # (m+1)^k m^(n-k) shifted sequences, totalling g(m)
    cat = category(tag)
    n = cat.n
    total = 0
    for seq in marked_exc_sequences(cat):
        k = sum(mark_relative_projectives(cat, seq.terms).rel_proj_flags)
        total += (m + 1) ** k * m ** (n - k)
    assert total == m_sequence_poly(cat.quiver.diagram)(m)


def test_poly_str():
    assert str(IntPoly((0, 1, 2), "x")) == "2*x^2 + x"
    assert str(IntPoly((2, 5, 3), "m")) == "3*m^2 + 5*m + 2"
    assert str(IntPoly((0,), "x")) == "0"
