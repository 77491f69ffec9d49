"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every tolerance is exact (integer/rational equality); the stated
wall-clock budgets are asserted as well.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

from excseq import (build_diagram, category, count_closed_form,
                    count_complete_exc_sequences, fomin_reading_count,
                    m_count_identity_holds, m_sequence_poly, real_root_check,
                    rel_proj_poly, rel_proj_poly_enumerated)
from excseq.bijection import (check_transport, m_exc_sequences,
                              sequence_to_tuple, tuple_to_sequence)
from excseq.configs import (_garside, _order, cluster_table, duality_frame, exchange_graph,
                            garside_configuration, mutation_moves, order_cluster)
from excseq.shiftcat import ShiftedObject, _ids, decode, enumerate_clusters, object_mask
from excseq.wide import (PairCase, ambient, classify_pair, marked_exc_sequences, perp,
                         relative_projectives)

import oracle
from conftest import braid_move, compatible_tuples
from oracle import is_exceptional_sequence

ALL_RANK8 = ([f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
             + [f"C{n}" for n in range(3, 9)] + [f"D{n}" for n in range(4, 9)]
             + ["E6", "E7", "E8", "F4", "G2"])


@contextmanager
def criterion(number: int, label: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed >= budget:
        print(f"ACCEPTANCE {number} ({label}): FAIL (took {elapsed:.2f}s, budget {budget}s)")
        raise AssertionError(f"criterion {number} exceeded its {budget}s budget")
    print(f"ACCEPTANCE {number} ({label}): PASS ({elapsed:.2f}s)")


def test_criterion_1_counting_closed_form():
    with criterion(1, "counting closed-form equality, all types rank <= 8", 1.0):
        for tag in ALL_RANK8:
            d = build_diagram(tag)
            assert count_complete_exc_sequences(d) == count_closed_form(d)


def test_criterion_2_enumeration_vs_formula():
    with criterion(2, "enumerated complete sequences match the count", 30.0):
        expected = {"A1": 1, "A2": 3, "A3": 16, "A4": 125, "A5": 1296,
                    "D4": 162, "D5": 2048}
        for tag, want in expected.items():
            cat = category(tag)
            seqs = marked_exc_sequences(cat)
            assert len(seqs) == want
            assert len(seqs) == count_complete_exc_sequences(cat.quiver.diagram)


def test_criterion_3_polynomial_agreement():
    with criterion(3, "refinement polynomial: enumeration equals recursion"):
        for tag in ("A1", "A2", "A3", "A4", "D4"):
            enumerated = rel_proj_poly_enumerated(category(tag))
            recursive = rel_proj_poly(build_diagram(tag))
            assert enumerated.coeffs == recursive.coeffs
        assert rel_proj_poly(build_diagram("A2")).coeffs == (0, 1, 2)


def test_criterion_4_fomin_reading_identity():
    with criterion(4, "shifted count equals n! times the cluster product", 120.0):
        for tag in ALL_RANK8:
            assert m_count_identity_holds(build_diagram(tag))
        spots = {("A2", 1): 5, ("A3", 1): 14, ("A3", 2): 55, ("D4", 1): 50}
        for (tag, m), want in spots.items():
            assert fomin_reading_count(build_diagram(tag), m) == want
        sweeps = [("A2", 0), ("A2", 1), ("A2", 2),
                  ("A3", 0), ("A3", 1), ("A3", 2), ("D4", 1)]
        for tag, m in sweeps:
            cat = category(tag)
            assert len(enumerate_clusters(cat, m)) == \
                fomin_reading_count(cat.quiver.diagram, m)


def test_criterion_5_main_bijection_sweep():
    with criterion(5, "ordered tuples <-> shifted sequences, with deletion", 120.0):
        for tag in ("A2", "A3"):
            cat = category(tag)
            for m in (0, 1, 2):
                for k in range(1, cat.n + 1):
                    tuples = compatible_tuples(cat, m, k)
                    seqs = m_exc_sequences(cat, m, k)
                    images = [tuple_to_sequence(cat, m, t) for t in tuples]
                    assert len(tuples) == len(seqs)
                    assert len(set(images)) == len(images)
                    assert set(images) == set(seqs)
                    for t, img in zip(tuples, images):
                        assert sequence_to_tuple(cat, m, img) == t
                        if k >= 2:
                            assert tuple_to_sequence(cat, m, t[1:]) == img[1:]


def test_criterion_6_transport_sweep():
    with criterion(6, "transport bijective and compatibility-preserving"):
        # the chart and congruence routes are compared inside every transport
        for tag in ("A2", "A3"):
            cat = category(tag)
            for m in (0, 1, 2):
                for t_obj in decode(cat, _ids(object_mask(cat, None, m))):
                    report = check_transport(cat, m, t_obj)
                    assert report.ok, report.violations


def test_criterion_7_real_root_location():
    with criterion(7, "real roots of the shifted count confined to [-1, 0)"):
        for tag in ALL_RANK8:
            assert real_root_check(m_sequence_poly(build_diagram(tag)))


def test_criterion_8_duality_sweep():
    with criterion(8, "tropical duality V^t E C = D on every ordered cluster"):
        sweeps = [("A2", 0), ("A2", 1), ("A2", 2),
                  ("A3", 0), ("A3", 1), ("A3", 2), ("D4", 1)]
        for tag, m in sweeps:
            cat = category(tag)
            for cluster in enumerate_clusters(cat, m):
                ordered = order_cluster(cat, m, cluster)
                comps = garside_configuration(cat, m, ordered)
                duality_frame(cat, m, ordered, comps)  # raises on any failure
        # the hand-verified frame
        a2 = category("A2")
        ordered = (ShiftedObject((1, 0), 0), ShiftedObject((1, 1), 0))
        frame = duality_frame(a2, 1, ordered, garside_configuration(a2, 1, ordered))
        assert frame.v_cols == ((-1, 0), (-1, -1))
        assert frame.c_cols == ((0, 1), (-1, -1))


def test_criterion_9_mutation_coherence():
    with criterion(9, "mutation coherence and the size-5 exchange graph"):
        # every move of the generator, and the move back from its result
        for tag in ("A2", "A3"):
            cat = category(tag)
            m = 1
            for ordered, comps in cluster_table(cat, m).values():
                for k, direction, new_comps, new_ordered in mutation_moves(
                        cat, m, ordered, comps):
                    rederived = _garside(cat, m, _order(cat, m, new_ordered), ambient(cat))
                    assert set(rederived) == set(new_comps)
                    back = {(kk, d): moved for kk, d, *moved in mutation_moves(
                        cat, m, new_ordered, new_comps)}
                    assert back[k, "-" if direction == "+" else "+"] == [comps, ordered]
        nodes, _ = exchange_graph(category("A2"), 1)
        assert len(nodes) == 5


def test_criterion_10_pair_lemma_suites():
    with criterion(10, "exceptional-pair lemmas hold exhaustively on A2, A3"):
        for tag in ("A2", "A3"):
            cat = category(tag)
            for t in cat.roots:
                w = perp(cat, [t])
                for x in w.objects:
                    # projectivity transfer outside the mono-embedding case
                    if classify_pair(cat, x, t) is not PairCase.MONO:
                        y = braid_move(cat, x, t)
                        assert (y in cat.projective_roots) == (x in relative_projectives(cat, w))
                    # triple-pair coherence
                    for xp in w.objects:
                        if x == xp:
                            continue
                        y, yp = braid_move(cat, x, t), braid_move(cat, xp, t)
                        answers = {is_exceptional_sequence(cat, [x, xp])}
                        if x != yp:
                            answers.add(is_exceptional_sequence(cat, [x, yp]))
                        if y != yp:
                            answers.add(is_exceptional_sequence(cat, [y, yp]))
                        assert len(answers) == 1
                        # linear relation with signs
                        if not is_exceptional_sequence(cat, [x, xp]):
                            continue
                        xpp = braid_move(cat, x, xp)
                        ypp = braid_move(cat, xpp, t)
                        cols = oracle.transpose(oracle.mat([xp, xpp]))
                        a, b = oracle.solve(cols, [Fraction(-v) for v in x])
                        witnesses = [(e1, e2) for e1 in (1, -1) for e2 in (1, -1)
                                     if all(Fraction(yv) + e1 * a * ypv + e2 * b * yppv == 0
                                            for yv, ypv, yppv in zip(y, yp, ypp))]
                        assert witnesses
                        assert (cat.ext(x, xp) != 0) == (a > 0)
                        if a != 0:
                            eps = {w0 for w0, _ in witnesses}
                            assert len(eps) == 1
                            (eps,) = eps
                            both_mono = (classify_pair(cat, x, t) is PairCase.MONO) == \
                                        (classify_pair(cat, xp, t) is PairCase.MONO)
                            assert (eps == 1) == both_mono
                            assert (cat.ext(y, yp) != 0) == (eps * a > 0)
                        else:
                            assert cat.ext(y, yp) == 0
