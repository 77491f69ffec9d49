import gc
import math
import re
import weakref
from fractions import Fraction

import pytest

from excseq import InputError, InternalConsistencyError, category
from excseq.configs import cluster_table
from excseq.dynkin import build_diagram, build_quiver
from excseq.bijection import (_build_table, _to_sequences, _to_tuples, check_transport,
                              is_m_exc_sequence, m_exc_sequences, sequence_to_tuple,
                              tuple_to_sequence)
from excseq.repengine import RepCategory
from excseq.shiftcat import ShiftedObject, decode, encode
from excseq.wide import PairCase, _pair_record, _perp_of, ambient, perp

from conftest import P1, S1, S2, braid_move, compatible_tuples, objects_at
from oracle import compatible, mark_relative_projectives


def O(root, level):
    return ShiftedObject(root, level)


def table_of(cat, m, t_obj, scope=None):
    """The transport table of t_obj in the scope, in ids."""
    scope = scope if scope is not None else ambient(cat)
    t, = encode(cat, (t_obj,))
    return cat.transports.get((m, t, scope.mask)) or _build_table(cat, m, t, scope)


def transport(cat, m, t_obj, obj, scope=None):
    """obj carried by the transport table of t_obj; KeyError outside its domain."""
    return decode(cat, (table_of(cat, m, t_obj, scope).forward[encode(cat, (obj,))[0]],))[0]


def transport_inverse(cat, m, t_obj, obj, scope=None):
    """The object that the transport table of t_obj carries to obj."""
    return decode(cat, (table_of(cat, m, t_obj, scope).inverse[encode(cat, (obj,))[0]],))[0]


def test_transport_examples(a2):
    t = O(P1, 0)
    assert transport(a2, 1, t, O(S2, 1)) == O(S1, 0)   # mono case drops a level
    assert transport(a2, 1, t, O(S2, 0)) == O(S2, 0)   # level k, no extensions
    t1 = O(P1, 1)
    assert transport(a2, 1, t1, O(S2, 0)) == O(S2, 0)  # below level k: identity


def test_transport_rejects_outsiders(a2):
    # S1 is not in the perpendicular of P1, so not in the domain of its table
    assert encode(a2, [O(S1, 0)])[0] not in table_of(a2, 1, O(P1, 0)).forward


def test_transport_inverse_examples(a2):
    t = O(P1, 0)
    assert transport_inverse(a2, 1, t, O(S1, 0)) == O(S2, 1)
    assert transport_inverse(a2, 1, t, O(S2, 0)) == O(S2, 0)


def test_transport_inverse_rejects_incompatible(a2):
    # S2[1] clashes with P1[0], so it is not in the image of its table
    assert encode(a2, [O(S2, 1)])[0] not in table_of(a2, 1, O(P1, 0)).inverse


def test_invariant_failure_names_the_category(a2):
    # a fresh category, so no transport table of A2 is reused from the memo;
    # its record of the pair (S2, P1) is seeded with neither placement parity
    cat = RepCategory(a2.quiver)
    braid_move(cat, S2, P1)
    key = (cat.root_id[S2], cat.root_id[P1], False)
    cat.pair_mutations[key] = cat.pair_mutations[key]._replace(same=False, flip=False)
    with pytest.raises(InternalConsistencyError, match="placement of") as info:
        check_transport(cat, 1, O(P1, 0))
    assert "A2" in str(info.value) and "m=1" in str(info.value)


@pytest.mark.parametrize("k", [-1, 1.5, True, False, "1", None])
def test_lengths_are_parsed_strictly(a2, k):
    # a negative or non-integral length gave [], and True gave the 1-tuples
    with pytest.raises(InputError, match="length"):
        m_exc_sequences(a2, 1, k)


def test_integral_lengths_are_accepted(a2):
    assert m_exc_sequences(a2, 1, Fraction(2)) == m_exc_sequences(a2, 1, 2.0) == \
        m_exc_sequences(a2, 1, 2)
    assert len(m_exc_sequences(a2, 1, 2)) == 10 and m_exc_sequences(a2, 1, 0) == [()]


def test_tuple_to_sequence_examples(a2):
    assert tuple_to_sequence(a2, 1, (O(S1, 0), O(P1, 0))) == (O(S2, 1), O(P1, 0))
    assert tuple_to_sequence(a2, 1, (O(P1, 0), O(S1, 0))) == (O(P1, 0), O(S1, 0))
    assert tuple_to_sequence(a2, 1, (O(S1, 0),)) == (O(S1, 0),)


def test_tuple_to_sequence_validates(a2):
    with pytest.raises(InputError):
        tuple_to_sequence(a2, 1, (O(S2, 1), O(P1, 0)))  # not compatible


def test_non_integral_levels_are_refused(a2):
    # int() would truncate each 0.5 below to 0
    for call in (lambda: check_transport(a2, 1, O(P1, 0.5)),
                 lambda: check_transport(a2, 1, O(P1, "0")),
                 lambda: tuple_to_sequence(a2, 1, (O(S1, 0), O(P1, 0.5))),
                 lambda: sequence_to_tuple(a2, 1, (O(S2, 1), O(P1, 0.5))),
                 lambda: sequence_to_tuple(a2, 1, (O(S2, "1"), O(P1, 0)))):
        with pytest.raises(InputError, match="is not an integer"):
            call()


def test_sequence_to_tuple_refuses_a_term_that_is_no_pair(a2):
    # a 1-tuple term raised ValueError on unpacking, an int term TypeError
    for term in (((1, 0),), 5):
        with pytest.raises(InputError, match=r"is not a \(root, level\) pair$"):
            sequence_to_tuple(a2, 1, [term])


def test_tuple_to_sequence_reads_plain_pairs(a2):
    # each entry is checked as a pair, and the checked entries are paired up
    assert tuple_to_sequence(a2, 1, [(S1, 0), (P1, 0)]) == \
        tuple_to_sequence(a2, 1, [O(S1, 0), O(P1, 0)])


def test_a_list_root_reads_as_its_tuple(a2):
    # sequence_to_tuple refused a list root and is_m_exc_sequence read it as no root,
    # while tuple_to_sequence took it
    want = (O(S1, 0),)
    assert sequence_to_tuple(a2, 1, [([1, 0], 0)]) == want
    assert tuple_to_sequence(a2, 1, [([1, 0], 0)]) == want
    assert sequence_to_tuple(a2, 1, [([0, 1], 1), ([1, 1], 0)]) == \
        sequence_to_tuple(a2, 1, [(S2, 1), (P1, 0)])
    assert is_m_exc_sequence(a2, 1, [([0, 1], 1), ([1, 1], 0)])
    assert not is_m_exc_sequence(a2, 1, [([1, 1], 0), ([0, 1], 0)])


def test_is_m_exc_sequence(a2):
    assert is_m_exc_sequence(a2, 1, (O(S2, 1), O(P1, 0)))
    assert is_m_exc_sequence(a2, 1, (O(S1, 1), O(S2, 1)))
    assert not is_m_exc_sequence(a2, 1, (O(P1, 0), O(S2, 0)))  # not exceptional
    assert not is_m_exc_sequence(a2, 1, (O(S1, 0), O(S1, 0)))
    # level m needs relative projectivity in the perpendicular of later terms
    assert not is_m_exc_sequence(a2, 1, (O(S1, 1), O(P1, 0)))


def test_transport_domain_codomain_sizes(a2):
    report = check_transport(a2, 1, O(P1, 0))
    assert report.domain_size == report.codomain_size == 2
    assert report.ok


@pytest.mark.parametrize("tag", ["A2", "A3"])
@pytest.mark.parametrize("m", [0, 1, 2])
def test_transport_sweep(tag, m):
    cat = category(tag)
    # each table maps the objects of T's perpendicular onto those compatible with T[k]
    # by `compatible`, and its inverse undoes it
    for t_obj in objects_at(cat, m):
        assert check_transport(cat, m, t_obj).ok
        table = table_of(cat, m, t_obj)
        assert decode(cat, table.forward) == objects_at(cat, m, perp(cat, [t_obj.root]))
        assert set(decode(cat, table.inverse)) == {
            y for y in objects_at(cat, m) if compatible(cat, y, t_obj)}
        assert {x: y for y, x in table.inverse.items()} == table.forward


@pytest.mark.parametrize("tag", ["A2", "A3"])
@pytest.mark.parametrize("m", [0, 1, 2])
def test_main_bijection_sweep(tag, m):
    cat = category(tag)
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


@pytest.mark.parametrize("tag", ["A2", "A3"])
def test_zero_shift_degeneration(tag):
    cat = category(tag)
    seqs = m_exc_sequences(cat, 0, cat.n)
    assert len(seqs) == math.factorial(cat.n)
    for seq in seqs:
        assert all(o.level == 0 for o in seq)
        flags = mark_relative_projectives(cat, [o.root for o in seq]).rel_proj_flags
        assert all(flags)


def test_sequence_enumeration_counts(a2):
    # shifted sequences of full length are counted by g
    from excseq import m_sequence_poly
    g = m_sequence_poly(a2.quiver.diagram)
    for m in (0, 1, 2, 3):
        assert len(m_exc_sequences(a2, m, 2)) == g(m)


def _reference_sequence(cat, m, tup, scope=None):
    """tuple_to_sequence composed from one inverse transport table at a time."""
    if len(tup) <= 1:
        return tuple(tup)
    t_obj = tup[-1]
    pulled = [transport_inverse(cat, m, t_obj, o, scope) for o in tup[:-1]]
    return _reference_sequence(cat, m, pulled, perp(cat, [t_obj.root], scope)) + (t_obj,)


def _reference_tuple(cat, m, terms, scope=None):
    """sequence_to_tuple composed from one transport table at a time."""
    if len(terms) <= 1:
        return tuple(terms)
    t_obj = terms[-1]
    prefix = _reference_tuple(cat, m, terms[:-1], perp(cat, [t_obj.root], scope))
    return tuple(transport(cat, m, t_obj, o, scope) for o in prefix) + (t_obj,)


@pytest.mark.parametrize("tag,m", [("A3", 2), ("D4", 1), ("A2xA1", 2)])
def test_internal_bijection_paths_match_the_public_ones(tag, m):
    # the internal maps take and give object ids
    cat = category(tag)
    scope = ambient(cat)
    for k in range(1, cat.n + 1):
        tuples = compatible_tuples(cat, m, k)
        seqs = list(_to_sequences(cat, m, [encode(cat, t) for t in tuples], scope))
        assert list(_to_tuples(cat, m, seqs, scope)) == [encode(cat, t) for t in tuples]
        for t, seq in zip(tuples, seqs):
            objects = decode(cat, seq)
            assert objects == tuple_to_sequence(cat, m, t) == _reference_sequence(cat, m, t)
            assert sequence_to_tuple(cat, m, objects) == _reference_tuple(cat, m, objects) == t


def _memo_answers(cat, m, scope=None):
    """Every perpendicular of one object, pair mutation and transport of the
    scope, computed through the category's memo."""
    scope = scope if scope is not None else ambient(cat)
    out = {}
    for x in scope.objects:
        out["perp", x] = (perp(cat, (x,), scope).mask,
                          _perp_of(cat, 1 << cat.root_id[x], scope, False).mask)
        for t in scope.objects:
            if x != t and not cat.hom(t, x) and not cat.ext(t, x):  # (x, t) exceptional
                out["mutate", x, t] = braid_move(cat, x, t)
                out["unmutate", t, x] = braid_move(cat, t, x, inverse=True)
    for t in objects_at(cat, m, scope):
        for x in objects_at(cat, m, perp(cat, (t.root,), scope)):
            out["transport", t, x] = transport(cat, m, t, x, scope)
    return out


def _fresh(tag, arrows=None):
    return RepCategory(build_quiver(build_diagram(tag), arrows))


def test_memo_keys_separate_m_and_scope():
    # one category answers for m=1 and then m=2, each in the ambient scope
    # and in every perpendicular of one root, as fresh categories do
    shared = _fresh("A3")
    scopes = [None] + [perp(shared, (r,)) for r in shared.roots]
    got = [(m, scope, _memo_answers(shared, m, scope)) for m in (1, 2) for scope in scopes]
    assert got[0][2] != got[len(scopes)][2]
    for m, scope, answers in got:
        assert answers == _memo_answers(_fresh("A3"), m, scope)


def test_memo_keys_separate_orientations():
    orientations = (((0, 1), (1, 2)), ((1, 0), (1, 2)))
    cats = [_fresh("A3", arrows) for arrows in orientations]
    got = [_memo_answers(cat, 1) for cat in cats]
    assert got[0] != got[1]
    for arrows, answers in zip(orientations, got):
        assert answers == _memo_answers(_fresh("A3", arrows), 1)


def test_a_dropped_category_and_its_memo_are_freed():
    cat = _fresh("D4")
    ordered, _ = next(iter(cluster_table(cat, 1).values()))  # ids
    tuple_to_sequence(cat, 1, decode(cat, ordered[::-1]))
    assert cat.perps and cat.pair_mutations and cat.transports
    refs = [weakref.ref(cat), weakref.ref(next(iter(cat.perps.values())))]
    del cat
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


@pytest.mark.parametrize("tag", ["E7", "E8"])
def test_projectives_round_trip_at_rank_7_and_8(tag):
    cat = category(tag)
    for m in range(1, 7):
        tup = tuple(O(p, m) for p in cat.projective_roots)
        assert sequence_to_tuple(cat, m, tuple_to_sequence(cat, m, tup)) == tup


@pytest.mark.parametrize("pair,change,message", [
    # S2[1] moves over P1[0] by a mono move, down to S1[0]: read as epi, the
    # chart keeps its level while the congruence placement does not
    ((S2, P1, False), {"case": PairCase.EPI}, "chart answer (1,0)[1] disagrees with "
     "congruence answer (1,0)[0] for (0,1)[1] over (1,1)[0]"),
    # S1[0] moves back over P1[0] to S2[1]: a wrong inverse record lands elsewhere
    ((S1, P1, True), {"z": 2}, "inverse placement of (1,0)[0] over (1,1)[0] gives "
     "(1,1)[1], not (0,1)[1]"),
], ids=["chart_vs_congruence", "inverse_placement"])
def test_a_corrupted_pair_record_fails_the_table_checks(pair, change, message):
    # a seeded fault in a fresh category: the table of P1[0] checks each entry
    cat = RepCategory(build_quiver(build_diagram("A2")))
    key = (cat.root_id[pair[0]], cat.root_id[pair[1]], pair[2])
    cat.pair_mutations[key] = _pair_record(cat, *key)._replace(**change)
    with pytest.raises(InternalConsistencyError, match=f"^{re.escape('A2, m=1: ' + message)}$"):
        check_transport(cat, 1, ShiftedObject(P1, 0))
