import itertools
from fractions import Fraction

import pytest

from excseq import (InputError, PairCase, ambient, category, classify_pair,
                    marked_exc_sequences, perp, rel_proj_poly_enumerated,
                    relative_projectives)
from excseq import build_diagram, build_quiver, linalg
from excseq.repengine import RepCategory
from excseq.bijection import (is_m_exc_sequence, m_exc_sequences, sequence_to_tuple,
                              tuple_to_sequence)
from excseq.errors import InternalConsistencyError
from excseq.shiftcat import check_objects, compatible_subsets
from excseq.wide import WideSubcat, _pair_record, _perp_of

import oracle
from conftest import P1, S1, S2, braid_move, orientations, tags_up_to_rank
from oracle import euler, is_exceptional_sequence, mark_relative_projectives


def complete_sequences(cat):
    return tuple(s.terms for s in marked_exc_sequences(cat))


def test_perp_examples(a2):
    assert perp(a2, [P1]).objects == (S2,)
    assert perp(a2, [P1]).rank == 1
    assert perp(a2, [S1]).objects == (P1,)
    assert perp(a2, []).objects == a2.roots
    assert _perp_of(a2, 1 << a2.root_id[P1], ambient(a2), False).objects == (S1,)  # left


def test_wide_subcategories_compare_by_mask(a2):
    # different generators with the same perpendicular give one subcategory
    w, v = perp(a2, [S1, S2]), perp(a2, [S1, P1])
    assert w == v and hash(w) == hash(v) and {w: 1}[v] == 1
    assert w.mask == 0 and w.objects == () and w.rank == 0
    assert perp(a2, [P1]) != perp(a2, [S1])


def test_perp_rank_drops_by_one(a3):
    for r in a3.roots:
        assert perp(a3, [r]).rank == 2


def test_exceptional_sequence_predicate(a2):
    assert is_exceptional_sequence(a2, [S2, P1])
    assert not is_exceptional_sequence(a2, [P1, S2])


def test_enumeration_a2(a2):
    assert set(complete_sequences(a2)) == {(S1, S2), (S2, P1), (P1, S1)}


@pytest.mark.parametrize("tag,count", [("A1", 1), ("A2", 3), ("A3", 16)])
def test_enumeration_counts(tag, count):
    assert len(complete_sequences(category(tag))) == count


def test_relative_projective_flags(a2):
    assert mark_relative_projectives(a2, (P1, S1)).rel_proj_flags == (True, False)
    assert mark_relative_projectives(a2, (S1, S2)).rel_proj_flags == (True, True)
    assert mark_relative_projectives(a2, (S2, P1)).rel_proj_flags == (True, True)


def test_first_flag_always_true(a3):
    for seq in complete_sequences(a3):
        assert mark_relative_projectives(a3, seq).rel_proj_flags[0]


def test_flags_need_exceptional_sequence(a2):
    with pytest.raises(InputError):
        mark_relative_projectives(a2, (P1, S2))


TAGS_RANK5 = tags_up_to_rank(5)


@pytest.mark.parametrize("tag", TAGS_RANK5)
def test_enumerated_flags_match_mark_relative_projectives(tag):
    # the enumeration decides each flag in the subcategory it picked the term
    # from; mark_relative_projectives works it out again for the one sequence
    cat = category(tag)
    marked = marked_exc_sequences(cat)
    for s in marked:
        assert s.rel_proj_flags == mark_relative_projectives(cat, s.terms).rel_proj_flags


@pytest.mark.parametrize("tag", TAGS_RANK5)
def test_span_rank_matches_rational_rank(tag):
    # every perpendicular the enumeration meets: those of one object inside
    # a subcategory met before, starting from the whole category
    cat = category(tag)
    seen, todo = set(), [ambient(cat)]
    while todo:
        w = todo.pop()
        if w.objects in seen:
            continue
        seen.add(w.objects)
        assert linalg.rank(w.objects) == oracle.rank(oracle.mat(w.objects, cat.n))
        todo.extend(perp(cat, (x,), w) for x in w.objects)
    assert linalg.rank([]) == 0


def test_f_poly_enumerated(a2):
    assert rel_proj_poly_enumerated(a2).coeffs == (0, 1, 2)
    assert rel_proj_poly_enumerated(category("A1")).coeffs == (0, 1)


@pytest.mark.parametrize("walker", [
    marked_exc_sequences, rel_proj_poly_enumerated, lambda cat: m_exc_sequences(cat, 1, 2),
], ids=["marked_exc_sequences", "rel_proj_poly_enumerated", "m_exc_sequences"])
def test_the_walk_checks_its_first_terms(walker):
    # a seeded self-extension of root 0: the rank-1 subcategory of that root reaches the
    # walk with its one object not relatively projective
    cat = RepCategory(build_quiver(build_diagram("A2")))
    cat.ext_out[0] |= 1
    with pytest.raises(InternalConsistencyError, match="^A2: first term of a complete sequence "
                       "must be relatively projective$"):
        walker(cat)


def test_classify_cases(a2):
    assert classify_pair(a2, S2, P1) is PairCase.MONO
    assert classify_pair(a2, P1, S1) is PairCase.EPI
    assert classify_pair(a2, S1, S2) is PairCase.EXTENSION
    a1x = category("A1xA1")
    r1, r2 = a1x.roots
    assert classify_pair(a1x, r1, r2) is PairCase.ORTHOGONAL


def test_classify_rejects_non_pairs(a2):
    with pytest.raises(InputError):
        classify_pair(a2, P1, S2)


def test_pair_mutation_examples(a2):
    assert braid_move(a2, S2, P1) == S1  # cokernel of the socle inclusion
    assert braid_move(a2, S1, S2) == P1  # universal extension
    assert braid_move(a2, P1, S1) == S2  # kernel of the top projection


@pytest.mark.parametrize("tag", ["A2", "A3", "A4", "D4"])
def test_pair_mutation_round_trip(tag):
    cat = category(tag)
    for t in cat.roots:
        for x in perp(cat, [t]).objects:
            y = braid_move(cat, x, t)
            assert cat.hom(y, t) == 0 and cat.ext(y, t) == 0
            assert braid_move(cat, y, t, inverse=True) == x


@pytest.mark.parametrize("tag", ["A2", "A3", "A4", "D4"])
def test_projectivity_transfer(tag):
    # outside the mono-embedding case, the mutation target is projective
    # exactly when the source is relatively projective in the perpendicular
    cat = category(tag)
    for t in cat.roots:
        w = perp(cat, [t])
        for x in w.objects:
            if classify_pair(cat, x, t) is PairCase.MONO:
                continue
            y = braid_move(cat, x, t)
            assert (y in cat.projective_roots) == (x in relative_projectives(cat, w))


@pytest.mark.parametrize("tag", ["A2", "A3"])
def test_triple_pair_coherence(tag):
    # the three pairs (X, X'), (X, Y'), (Y, Y') are exceptional together
    cat = category(tag)
    for t in cat.roots:
        objs = perp(cat, [t]).objects
        for x in objs:
            for xp in objs:
                if x == xp:
                    continue
                y, yp = braid_move(cat, x, t), braid_move(cat, xp, t)
                answers = {
                    is_exceptional_sequence(cat, [x, xp]),
                    is_exceptional_sequence(cat, [x, yp]) if x != yp else True,
                    is_exceptional_sequence(cat, [y, yp]) if y != yp else True,
                }
                assert len(answers) == 1


def _solve_two(cols, target):
    m = oracle.transpose(oracle.mat(cols))
    return oracle.solve(m, [Fraction(v) for v in target])


@pytest.mark.parametrize("tag", ["A2", "A3"])
def test_linear_relation_of_braid_moves(tag):
    cat = category(tag)
    for t in cat.roots:
        objs = perp(cat, [t]).objects
        for x in objs:
            for xp in objs:
                if x == xp or not is_exceptional_sequence(cat, [x, xp]):
                    continue
                xpp = braid_move(cat, x, xp)
                y = braid_move(cat, x, t)
                yp = braid_move(cat, xp, t)
                ypp = braid_move(cat, xpp, t)
                coeffs = _solve_two([xp, xpp], [-v for v in x])
                assert coeffs is not None
                a, b = coeffs
                assert b != 0
                witnesses = []
                for e1 in (1, -1):
                    for e2 in (1, -1):
                        lhs = [Fraction(yv) + e1 * a * ypv + e2 * b * yppv
                               for yv, ypv, yppv in zip(y, yp, ypp)]
                        if all(v == 0 for v in lhs):
                            witnesses.append((e1, e2))
                assert witnesses
                if a != 0:
                    eps = {w[0] for w in witnesses}
                    assert len(eps) == 1
                    (eps,) = eps
                    both_mono = (classify_pair(cat, x, t) is PairCase.MONO) == \
                                (classify_pair(cat, xp, t) is PairCase.MONO)
                    assert (eps == 1) == both_mono
                    assert (cat.ext(y, yp) != 0) == (eps * a > 0)
                else:
                    assert cat.ext(y, yp) == 0
                assert (cat.ext(x, xp) != 0) == (a > 0)


def test_relative_projectives_listing(a2):
    assert set(relative_projectives(a2, ambient(a2))) == {P1, S2}
    w = perp(a2, [P1])
    assert relative_projectives(a2, w) == (S2,)


@pytest.mark.parametrize("call", [
    lambda a2, w: perp(a2, [S1], within=w),
    lambda a2, w: perp(a2, [], within=w),
    lambda a2, w: relative_projectives(a2, w),
    lambda a2, w: tuple_to_sequence(a2, 1, [(S1, 0)], w),
    lambda a2, w: sequence_to_tuple(a2, 1, [(S1, 0)], w),
    lambda a2, w: is_m_exc_sequence(a2, 1, [(S1, 0)], w),
    lambda a2, w: compatible_subsets(a2, 1, 1, w),
    lambda a2, w: check_objects(a2, w, 1, [(S1, 0)]),
], ids=["perp", "perp_no_generators", "relative_projectives", "tuple_to_sequence",
        "sequence_to_tuple", "is_m_exc_sequence", "compatible_subsets", "check_objects"])
@pytest.mark.parametrize("scope", [
    lambda: ambient(category("A3")),
    lambda: ambient(category("D4")),
    # A3's perpendicular of two roots has mask 1, within A2's roots: only its object differs
    lambda: perp(category("A3"), [(0, 1, 1), (1, 0, 0)]),
    lambda: WideSubcat(0b11, (S1, S2), 2),  # A2's roots at these bits are S2, S1
    lambda: 0b111,
    # its roots are A2's roots at these bits, but A1xA1 is not A2
    lambda: ambient(category("A1xA1")),
], ids=["A3", "D4", "A3_low_mask", "objects_out_of_order", "bare_mask", "A1xA1_same_roots"])
def test_a_scope_from_another_category_is_refused(a2, call, scope):
    # each raised an InternalConsistencyError or a bare KeyError, or answered for a
    # subcategory of another category
    with pytest.raises(InputError, match="^the scope is not a subcategory of A2$"):
        call(a2, scope())


def test_a_scope_from_another_orientation_is_refused():
    # 8 of these 36 raised an InternalConsistencyError: a perpendicular of one orientation
    # has the other's roots at its bits, so only the quiver it was built by tells them apart
    c1 = category("A3")
    c2 = RepCategory(build_quiver(build_diagram("A3"), ((1, 0), (2, 1))))
    for r, s in itertools.product(c1.roots, c2.roots):
        with pytest.raises(InputError, match="^the scope is not a subcategory of A3$"):
            perp(c2, [s], within=perp(c1, [r]))


def test_is_multiple_matches_a_search():
    vectors = list(itertools.product(range(-2, 3), repeat=2))
    for w in vectors:
        for t in vectors:
            want = any(all(a == s * b for a, b in zip(w, t)) for s in range(-2, 3))
            assert oracle.is_multiple(w, t) == want, (w, t)


PAIR_CASES = ([(tag, None) for tag in tags_up_to_rank(6) if tag != "A1"]  # A1: no pairs
              + [(tag, arrows) for tag in tags_up_to_rank(4) if tag != "A1"
                 for arrows in orientations(tag)])


@pytest.mark.parametrize("tag,arrows", PAIR_CASES,
                         ids=[f"{t}-{a}" if a else t for t, a in PAIR_CASES])
def test_pair_records_match_the_public_moves(tag, arrows):
    # the record of each exceptional pair (x, t) forward and (t, x) inverse
    # agrees with the all-roots scan, and the moves have closed forms:
    # forward |x - <x,t> t|, inverse |y - <t,y> t| (the sign that makes a root)
    cat = category(tag) if arrows is None else RepCategory(
        build_quiver(build_diagram(tag), arrows))

    def positive(v):
        return v if min(v) >= 0 else tuple(-a for a in v)

    pairs = 0
    for xi, x in enumerate(cat.roots):
        for ti, t in enumerate(cat.roots):
            if xi == ti or cat.hom(t, x) or cat.ext(t, x):
                continue
            pairs += 1
            forward, back = _pair_record(cat, xi, ti, False), _pair_record(cat, ti, xi, True)
            y, z = cat.roots[forward.z], cat.roots[back.z]
            assert y == positive(
                tuple(a - euler(cat, x, t) * b for a, b in zip(x, t))), (x, t)
            assert z == positive(
                tuple(a - euler(cat, x, t) * b for a, b in zip(t, x))), (x, t)
            assert forward.case is back.case is classify_pair(cat, x, t)
            assert forward == oracle.scan_pair_record(cat, xi, ti, False), (x, t)
            assert back == oracle.scan_pair_record(cat, ti, xi, True), (x, t)
            for record, a, b, c in ((forward, x, y, t), (back, t, z, x)):
                assert record.same == oracle.is_multiple(tuple(u - v for u, v in zip(a, b)), c)
                assert record.flip == oracle.is_multiple(tuple(u + v for u, v in zip(a, b)), c)
    assert pairs


def test_line_search_matches_the_all_roots_scan_on_e7():
    # every forward and inverse record of a cold E7 category, against the scan
    cat, pairs = RepCategory(build_quiver(build_diagram("E7"))), 0
    for xi in range(len(cat.roots)):
        for ti in range(len(cat.roots)):
            if xi != ti and not cat.right_nz[ti] >> xi & 1:
                pairs += 1
                assert _pair_record(cat, xi, ti, False) == oracle.scan_pair_record(
                    cat, xi, ti, False), (xi, ti)
                assert _pair_record(cat, ti, xi, True) == oracle.scan_pair_record(
                    cat, ti, xi, True), (xi, ti)
    assert pairs == 1323 and len(cat.pair_mutations) == 2646


@pytest.mark.parametrize("tag", tags_up_to_rank(5))
def test_braid_moves_reach_every_complete_sequence(tag):
    # the braid group acts transitively on complete exceptional sequences
    # (Crawley-Boevey 1993); each forward move permutes a finite set, so the
    # forward moves alone reach the whole orbit
    cat = category(tag)
    everything = complete_sequences(cat)
    seen, todo = {everything[0]}, [everything[0]]
    while todo:
        seq = todo.pop()
        for i in range(len(seq) - 1):
            moved = seq[:i] + (seq[i + 1], braid_move(cat, seq[i], seq[i + 1])) + seq[i + 2:]
            if moved not in seen:
                seen.add(moved)
                todo.append(moved)
    assert seen == set(everything)
