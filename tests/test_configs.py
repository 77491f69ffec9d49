
import re
from collections import deque
from fractions import Fraction
from itertools import permutations

import pytest

from excseq import InputError, InternalConsistencyError, category, configs, verify
from excseq.cli import main
from excseq.configs import (_check_frame, _garside, _horizontal, _mutate, _order, _recover,
                            _slope_vectors, _valid_orders, _validate, cluster_table,
                            duality_frame, exchange_graph, garside_configuration, g_vector_check,
                            mutate, mutation_moves, order_cluster)
from excseq.dynkin import build_diagram, build_quiver
from excseq.errors import VerificationError
from excseq.bijection import is_m_exc_sequence, m_exc_sequences, sequence_to_tuple
from excseq.repengine import RepCategory
from excseq.shiftcat import ShiftedObject, _compat_rows, decode, encode, enumerate_clusters
from excseq.wide import ambient

import oracle
from conftest import P1, S1, S2, cluster_ids, objects_at, tags_up_to_rank
from oracle import c_vector, compatible, exchange_matrix, is_exceptional_sequence, signed_dim


def O(root, level):
    return ShiftedObject(root, level)


def object_table(cat, m):
    """`cluster_table`, which holds ids, on objects."""
    return {decode(cat, c): (decode(cat, ordered), decode(cat, comps))
            for c, (ordered, comps) in cluster_table(cat, m).items()}


def object_moves(cat, m, ordered, comps):
    """`mutation_moves`, which runs on object ids, on objects."""
    for k, direction, new_comps, new_ordered in mutation_moves(
            cat, m, encode(cat, ordered), encode(cat, comps)):
        yield k, direction, decode(cat, new_comps), decode(cat, new_ordered)


def valid_orders(cat, cluster):
    """`_valid_orders` of a cluster, its objects taken by root, then level."""
    n = len(cat.roots)
    ids = sorted(encode(cat, cluster), key=lambda x: (x % n, x))
    return [decode(cat, order) for order in _valid_orders(cat, ids)]


def horizontal(cat, m, comps, s):
    """`_horizontal` of a configuration at slope index s."""
    return _horizontal(cat, m, encode(cat, comps), s)


def validate(cat, m, comps):
    """`_validate` of a configuration."""
    _validate(cat, m, encode(cat, comps))


def mutate_comps(cat, m, comps, k, direction):
    """The legal move of `_mutate` at k of a configuration, validated as `mutate` validates it."""
    new = _mutate(cat, m, encode(cat, comps), k, direction)
    _validate(cat, m, new)
    return decode(cat, new)


def recover(cat, m, ordered, new_comps, k):
    """`_recover` of the cluster dual to new_comps, its frame checked as `mutate` checks it."""
    comp_ids = encode(cat, new_comps)
    new_ordered = _recover(cat, m, encode(cat, ordered), comp_ids, k)
    _check_frame(cat, m, new_ordered, comp_ids)
    return decode(cat, new_ordered)


def test_order_cluster_examples(a2):
    assert order_cluster(a2, 1, {O(S1, 0), O(P1, 0)}) == (O(S1, 0), O(P1, 0))
    # the only ordering of {S2[0], P1[1]} whose reversal is exceptional puts
    # the level-1 entry first
    assert order_cluster(a2, 1, {O(S2, 0), O(P1, 1)}) == (O(P1, 1), O(S2, 0))
    ordered = order_cluster(a2, 0, {O(S2, 0), O(P1, 0)})
    assert ordered == (O(P1, 0), O(S2, 0))


def test_order_cluster_refuses_a_repeated_entry(a2):
    # sorted(set(...)) dropped the repeat and returned a 2-tuple on A2
    with pytest.raises(InputError, match=r"^\(1,0\)\[0\] and \(1,0\)\[0\] are not compatible$"):
        order_cluster(a2, 1, [O(S1, 0), O(S1, 0), O(P1, 0)])


def test_order_cluster_refuses_a_level_outside_0_to_m(a2):
    # (1,0)[5] was accepted at m=1
    with pytest.raises(InputError, match=r"^\(1,0\)\[5\] is not a valid shifted object"):
        order_cluster(a2, 1, [O(S1, 5), O(P1, 0)])


def test_order_cluster_reads_a_list_root_as_its_tuple(a2):
    # a list root is unhashable, and set() raised a bare TypeError on it
    assert order_cluster(a2, 1, [O(list(S1), 0), O(P1, 0)]) == \
        order_cluster(a2, 1, [O(S1, 0), O(P1, 0)])


def test_garside_examples(a2):
    assert garside_configuration(a2, 1, (O(S1, 0), O(P1, 0))) == (O(S2, 1), O(P1, 0))
    assert garside_configuration(a2, 1, (O(P1, 0), O(S1, 0))) == (O(P1, 0), O(S1, 0))
    # shift-free projective cluster moves to the simples
    assert garside_configuration(a2, 0, (O(P1, 0), O(S2, 0))) == (O(S1, 0), O(S2, 0))


def test_duality_frame_hand_values(a2):
    ordered = (O(S1, 0), O(P1, 0))
    comps = garside_configuration(a2, 1, ordered)
    frame = duality_frame(a2, 1, ordered, comps)
    assert frame.v_cols == ((-1, 0), (-1, -1))
    assert frame.c_cols == ((0, 1), (-1, -1))
    assert frame.d_diag == (1, 1)
    assert g_vector_check(frame)


def test_g_vector_check_fails_on_a_negated_c_column(a2):
    ordered = (O(S1, 0), O(P1, 0))
    frame = duality_frame(a2, 1, ordered, garside_configuration(a2, 1, ordered))
    for j in range(2):
        cols = list(frame.c_cols)
        cols[j] = tuple(-x for x in cols[j])
        assert not g_vector_check(frame._replace(c_cols=tuple(cols)))


def test_duality_frame_rejects_wrong_pairing(a2):
    ordered = (O(S1, 0), O(P1, 0))
    with pytest.raises(VerificationError):
        duality_frame(a2, 1, ordered, (O(S2, 1), O(S1, 0)))


@pytest.mark.parametrize("tag,m", [("A2", 0), ("A2", 1), ("A2", 2),
                                   ("A3", 0), ("A3", 1), ("A3", 2), ("D4", 1)])
def test_duality_sweep(tag, m):
    cat = category(tag)
    for cluster in enumerate_clusters(cat, m):
        ordered = order_cluster(cat, m, cluster)
        comps = garside_configuration(cat, m, ordered)
        frame = duality_frame(cat, m, ordered, comps)
        assert g_vector_check(frame)


@pytest.mark.parametrize("tag,m", [("A2", 1), ("A3", 1)])
def test_configuration_order_independence(tag, m):
    cat = category(tag)
    for cluster in enumerate_clusters(cat, m):
        configs = {frozenset(garside_configuration(cat, m, o))
                   for o in valid_orders(cat, cluster)}
        assert len(configs) == 1


@pytest.mark.parametrize("tag,m", [("A3", 2), ("D4", 1)])
def test_valid_orders_are_the_exceptional_permutations(tag, m):
    # the orders of a cluster whose reversal is exceptional, in the order of
    # `permutations` of the sorted cluster; `order_cluster` takes the one with
    # the smallest (-level, root) keys, read left to right
    cat = category(tag)
    for cluster in enumerate_clusters(cat, m):
        want = [p for p in permutations(sorted(cluster))
                if is_exceptional_sequence(cat, [o.root for o in reversed(p)])]
        assert valid_orders(cat, cluster) == want
        assert order_cluster(cat, m, cluster) == min(
            want, key=lambda p: [(-o.level, o.root) for o in p])


def test_horizontal_subcat_whole(a2):
    comps = (O(S2, 1), O(P1, 0))
    h = horizontal(a2, 1, comps, 0)
    assert h.rank == 2
    assert set(h.objects) == set(a2.roots)
    assert set(h.signed_modules) == {(S2, 1), (P1, -1)}


def test_horizontal_subcat_empty_selection(a2):
    # all components at slope 0 leaves the slope-1 window empty
    ordered = order_cluster(a2, 2, {O(S2, 2), O(P1, 2)})
    comps = garside_configuration(a2, 2, ordered)
    assert all(2 - c.level == 0 for c in comps)
    h = horizontal(a2, 2, comps, 1)
    assert h.rank == 0 and h.objects == ()


@pytest.mark.parametrize("tag,m", [("A3", 2)])
def test_horizontal_windows_disjoint_when_far(tag, m):
    cat = category(tag)
    for cluster in enumerate_clusters(cat, m):
        ordered = order_cluster(cat, m, cluster)
        comps = garside_configuration(cat, m, ordered)
        hs = [horizontal(cat, m, comps, s) for s in range(m)]
        for a in hs:
            for b in hs:
                if abs(a.slope - b.slope) >= 2:
                    assert not (set(a.objects) & set(b.objects))


def test_exchange_matrix_hand_value(a2):
    comps = (O(S2, 1), O(P1, 0))
    b = exchange_matrix(a2, 1, comps)
    assert b[0][1] == 1 and b[1][0] == -1
    assert b[0][0] == 0 and b[1][1] == 0


def test_mutation_hand_chain(a2):
    ordered = (O(S1, 0), O(P1, 0))
    comps = garside_configuration(a2, 1, ordered)  # (S2[1], P1[0])
    new_comps = mutate_comps(a2, 1, comps, 1, "-")
    assert new_comps == (O(S1, 0), O(P1, 1))
    new_ordered = recover(a2, 1, ordered, new_comps, 1)
    assert new_ordered == (O(S1, 0), O(S2, 1))
    assert mutate_comps(a2, 1, new_comps, 1, "+") == comps


def test_mutation_other_direction(a2):
    ordered = (O(S1, 0), O(P1, 0))
    comps = garside_configuration(a2, 1, ordered)
    new_comps = mutate_comps(a2, 1, comps, 0, "+")
    new_ordered = recover(a2, 1, ordered, new_comps, 0)
    assert set(new_ordered) == {O(S2, 0), O(P1, 0)}


def test_mutation_blocked_slopes(a2):
    ordered = (O(S1, 0), O(P1, 0))
    comps = garside_configuration(a2, 1, ordered)
    svs = _slope_vectors(1, comps)
    assert svs[0].slope == 0 and svs[1].slope == 1
    with pytest.raises(InputError, match="^slope 0 cannot mutate downward$"):
        mutate(a2, 1, ordered, 0, "-")
    with pytest.raises(InputError, match=r"^slope 1 has no headroom to mutate upward \(m=1\)$"):
        mutate(a2, 1, ordered, 1, "+")


@pytest.mark.parametrize("tag,m", [("A2", 1), ("A2", 2), ("A2", 3), ("A3", 1), ("A3", 2)])
def test_mutation_coherence_sweep(tag, m):
    cat = category(tag)
    for cluster in enumerate_clusters(cat, m):
        ordered = order_cluster(cat, m, cluster)
        comps = garside_configuration(cat, m, ordered)
        svs = _slope_vectors(m, comps)
        for k in range(cat.n):
            for direction in ("+", "-"):
                if direction == "+" and svs[k].slope + 1 > m:
                    continue
                if direction == "-" and svs[k].slope - 1 < 0:
                    continue
                result = mutate(cat, m, ordered, k, direction)
                # slopes of updated entries stay inside the mutation window
                s = svs[k].slope if direction == "+" else svs[k].slope - 1
                for before, after in zip(comps, result.mutated_configuration):
                    if before != after:
                        assert m - after.level in (s, s + 1)
                # closure: rederive the configuration from the mutated cluster
                rederived = garside_configuration(
                    cat, m, order_cluster(cat, m, result.mutated_ordered))
                assert set(rederived) == set(result.mutated_configuration)
                back = mutate_comps(cat, m, result.mutated_configuration,
                                    k, "-" if direction == "+" else "+")
                assert back == comps


def test_mutation_window_local_signs(a3):
    # mutating the middle slope vector of the all-projective cluster at m=2
    # couples through an odd window: the updated entry lands at slope s+1,
    # matching the configuration of the true adjacent cluster
    m = 2
    ordered = order_cluster(a3, m, {O((1, 1, 1), 0), O((0, 1, 1), 0), O((0, 0, 1), 0)})
    comps = garside_configuration(a3, m, ordered)
    assert comps == (O((1, 0, 0), 0), O((0, 1, 0), 0), O((0, 0, 1), 0))
    new_comps = mutate_comps(a3, m, comps, 1, "-")
    assert new_comps == (O((1, 1, 0), 0), O((0, 1, 0), 1), O((0, 0, 1), 0))
    new_ordered = recover(a3, m, ordered, new_comps, 1)
    assert set(new_ordered) == {O((1, 1, 1), 0), O((1, 0, 0), 0), O((0, 0, 1), 0)}
    rederived = garside_configuration(a3, m, order_cluster(a3, m, new_ordered))
    assert set(rederived) == set(new_comps)


def test_exchange_graph_a2(a2):
    nodes, edges = exchange_graph(a2, 1)
    assert len(nodes) == 5
    assert len(edges) == 10
    # every move has a reverse move (possibly at another position)
    for a, b, k, d in edges:
        assert any(e == (b, a) and dd != d for e0, e1, kk, dd in edges
                   for e in [(e0, e1)])


@pytest.mark.parametrize("tag,m", [("A2", 1), ("A3", 1), ("D4", 1), ("A3", 2), ("D4", 2),
                                   ("A2xA1", 2), ("A3", 3)])
def test_an_almost_complete_cluster_has_m_plus_one_complements(tag, m):
    # Zhu (J. Algebraic Combin. 2008), Wraalsen (2009): the other n-1 entries
    # of a cluster have exactly m+1 completions, found here by brute force on
    # `compatible`.  The exchange graph edges that keep those entries stay
    # among the completions and connect them all; for m >= 2 they do not join
    # every pair of completions.
    cat = category(tag)
    objects = objects_at(cat, m)
    nodes, edges = exchange_graph(cat, m)
    node_sets = [frozenset(c) for c in nodes]
    index = {c: i for i, c in enumerate(node_sets)}
    neighbours = {i: set() for i in index.values()}
    for i, j, _, _ in edges:
        neighbours[i].add(j)
        neighbours[j].add(i)
    for cluster in node_sets:
        for x in cluster:
            rest = cluster - {x}
            completions = {index[rest | {y}] for y in objects
                           if y not in rest and all(compatible(cat, y, o) for o in rest)}
            assert len(completions) == m + 1
            # an edge keeps the n-1 entries when both its ends contain them
            keeping = {i for i, c in enumerate(node_sets) if rest <= c}
            assert keeping == completions
            reached, frontier = set(), [min(completions)]
            while frontier:
                i = frontier.pop()
                if i not in reached:
                    reached.add(i)
                    frontier += [j for j in neighbours[i] if j in keeping]
            assert reached == completions


def test_mutation_at_zero_shift_impossible(a2):
    ordered = order_cluster(a2, 0, enumerate_clusters(a2, 0)[0])
    for k in range(2):
        for direction in ("+", "-"):
            with pytest.raises(InputError):
                mutate(a2, 0, ordered, k, direction)


@pytest.mark.parametrize("tag,m", [("A3", 2), ("D4", 1), ("A2xA1", 2)])
def test_recover_cluster_matches_a_rational_solve(tag, m):
    # the moved entry's signed dimension vector v solves (E C)^t v = f_k e_k
    # for the new c-vectors C; the oracle solves it over the rationals.  Every
    # updated c-vector stays in the span of its slope window's old columns.
    cat = category(tag)
    e = oracle.mat(cat.E)
    moves = 0
    for cluster in enumerate_clusters(cat, m):
        ordered = order_cluster(cat, m, cluster)
        comps = garside_configuration(cat, m, ordered)
        svs = _slope_vectors(m, comps)
        for k, direction, new_comps, new_ordered in object_moves(cat, m, ordered, comps):
            new_svs = _slope_vectors(m, new_comps)
            s = svs[k].slope - (direction == "-")
            window = [c_vector(sv) for sv in svs if sv.slope in (s, s + 1)]
            for sv, new_sv in zip(svs, new_svs):
                if new_sv != sv:
                    assert oracle.rank(oracle.mat(window + [c_vector(new_sv)])) == \
                        oracle.rank(oracle.mat(window))
            c = oracle.transpose(oracle.mat(c_vector(sv) for sv in new_svs))
            f_k = cat.hom(ordered[k].root, ordered[k].root)
            rhs = [f_k if j == k else 0 for j in range(cat.n)]
            assert oracle.solve(oracle.transpose(oracle.matmul(e, c)), rhs) == \
                signed_dim(m, new_ordered[k])
            assert new_ordered[:k] + new_ordered[k + 1:] == ordered[:k] + ordered[k + 1:]
            moves += 1
    assert moves > 0


def test_exchange_graph_names_a_move_off_the_cluster_set(a2, monkeypatch, capsys):
    def off_set(cat, m, ordered, comps):
        yield 0, "+", comps, ordered[:1]

    monkeypatch.setattr(configs, "mutation_moves", off_set)
    with pytest.raises(InternalConsistencyError,
                       match=r"^A2, m=1: move k=1,\+ of .* leaves the cluster set$"):
        exchange_graph(a2, 1)
    assert main(["graph", "A2", "--m", "1"]) == 1
    assert "verification failure: A2, m=1: move k=1,+ of" in capsys.readouterr().err


def test_mutation_suite_fails_a_move_off_the_cluster_set(monkeypatch):
    def off_set(cat, m, ordered, comps):
        for k, direction, new_comps, new_ordered in mutation_moves(cat, m, ordered, comps):
            yield k, direction, new_comps, new_ordered[:1]

    monkeypatch.setattr(verify, "mutation_moves", off_set)
    report = verify.verify_mutation(category("A2"), 1)
    assert not report.ok
    assert report.checks[-1].label == "exchange graph closes on the cluster set"
    assert not report.checks[-1].ok


def test_mutate_configuration_refuses_a_non_integer_position(a2):
    # mutate checks the position before the configuration step (_mutate) reads it;
    # 1.5, "1" and None escaped as TypeError, and True was read as position 1
    ordered = (O(S1, 0), O(P1, 0))
    for k in (1.5, "1", True, None):
        with pytest.raises(InputError, match="is not an integer"):
            mutate(a2, 1, ordered, k, "-")


def test_recover_cluster_refuses_a_bad_position(a2):
    # mutate checks the position before the cluster recovery (_recover) reads it;
    # -1 indexed from the end and ended in a false "clashes with"
    # InternalConsistencyError, 1.5 raised TypeError and 5 IndexError
    ordered = (O(S1, 0), O(P1, 0))
    assert mutate(a2, 1, ordered, 1, "-").mutated_ordered == (O(S1, 0), O(S2, 1))
    for k, message in ((-1, "out of range"), (1.5, "is not an integer"), (5, "out of range")):
        with pytest.raises(InputError, match=message):
            mutate(a2, 1, ordered, k, "-")


def _short_duality_frame(a2):
    ordered = (O(S1, 0), O(P1, 0))
    duality_frame(a2, 1, ordered, garside_configuration(a2, 1, ordered)[:1])


@pytest.mark.parametrize("call,message", [
    (lambda a2: is_m_exc_sequence(a2, 1, [(S1, "x")]), "level 'x' is not an integer"),
    (_short_duality_frame, "2 cluster entries but 1 components"),
    # the kernels run on object ids, so their callers encode each object strictly
    (lambda a2: duality_frame(a2, 1, (O(S1, 0), O(P1, 0)), (O(S2, 1), O((2, 1), 0))),
     r"\(2, 1\) is not a positive root of A2"),
    (lambda a2: duality_frame(a2, 1, (O(S1, -1), O(P1, 0)), (O(S2, 1), O(S1, 0))),
     r"^cluster entry \(1,0\)\[-1\] has a level outside 0..1$"),
    # raised a VerificationError that reported the bad input level as a failed check
    (lambda a2: duality_frame(a2, 1, [O(S1, 0), O(P1, 0)], [O(S2, 3), O(P1, 0)]),
     r"^component \(0,1\)\[3\] has a level outside 0..1$"),
    (lambda a2: m_exc_sequences(a2, -1, 2), "shift parameter m must be >= 0"),
    (lambda a2: is_m_exc_sequence(a2, 1, [((1, 0),)]),
     r"^\(\(1, 0\),\) is not a \(root, level\) pair$"),
    # is_m_exc_sequence returned False, and sequence_to_tuple reported a bad sequence
    (lambda a2: is_m_exc_sequence(a2, 1, [(S2, 1), ((2, 1), 0)]),
     r"^\(2, 1\) is not a positive root of A2$"),
    (lambda a2: sequence_to_tuple(a2, 1, [(S2, 1), ((2, 1), 0)]),
     r"^\(2, 1\) is not a positive root of A2$"),
    # an incomplete cluster and one out of order raised an InternalConsistencyError
    (lambda a2: mutate(a2, 1, [(S1, 0)], 0, "-"), r"^a cluster here has 2 objects, got 1$"),
    (lambda a2: mutate(a2, 1, [(S2, 0), (P1, 0)], 0, "-"),
     r"^\(0,1\)\[0\] must come after \(1,1\)\[0\]: the reversal of the ordered cluster "
     "is not an exceptional sequence$"),
    # a level above m gave a negative slope, and one below 0 a slope above m
    (lambda a2: _slope_vectors(1, [(S2, 1), (S1, 5)]),
     r"^component \(\(1, 0\), 5\) has a level outside 0..1$"),
    (lambda a2: _slope_vectors(2, [(S1, -1)]),
     r"^component \(\(1, 0\), -1\) has a level outside 0..2$"),
], ids=["is_m_exc_sequence", "duality_frame", "duality_frame_root", "duality_frame_level",
        "duality_frame_component_level", "m_exc_sequences", "is_m_exc_sequence_term",
        "is_m_exc_sequence_root", "sequence_to_tuple_root", "mutate_incomplete",
        "mutate_out_of_order", "slope_vectors_level", "slope_vectors_negative_level"])
def test_malformed_input_is_refused(a2, call, message):
    # the first two raised a raw TypeError or IndexError; the rest were
    # accepted or refused with a misleading verification or consistency error
    with pytest.raises(InputError, match=message):
        call(a2)


def _pair(root, level):
    return root, level


def _config(o):  # the Garside configuration of the A2 cluster (S1[0], P1[0]) at m=1
    return [o(S2, 1), o(P1, 0)]


@pytest.mark.parametrize("call", [
    lambda a2, o: garside_configuration(a2, 1, [o(S1, 0), o(P1, 0)]),
    lambda a2, o: duality_frame(a2, 1, [o(S1, 0), o(P1, 0)], _config(o)),
    lambda a2, o: mutate(a2, 1, [o(S1, 0), o(P1, 0)], 1, "-"),
], ids=["garside_configuration", "duality_frame", "mutate"])
def test_public_functions_take_plain_pairs(a2, call):
    # each raised AttributeError on a plain (root, level) tuple
    assert call(a2, _pair) == call(a2, O)


def test_configuration_pairings_keep_their_strict_checks(a2):
    # every entry is parsed once, as a positive root, before the unchecked
    # row products run
    ordered = (O(S1, 0), O(P1, 0))
    wrong_length = r"^\(1, 1, 0\) is not a positive root of A2$"
    for comps, message in (((O(S2, 1), O((1.5, 1), 0)), "non-integer entry"),
                           ((O(S2, 1), O((1, 1, 0), 0)), wrong_length)):
        with pytest.raises(InputError, match=message):
            duality_frame(a2, 1, ordered, comps)
    with pytest.raises(InputError, match="non-integer entry"):
        duality_frame(a2, 1, (O(S1, 0), O((1, 0.5), 0)), (O(S2, 1), O(P1, 0)))


@pytest.mark.parametrize("tag,m", [("A3", 2), ("D4", 1), ("A2xA1", 2)])
def test_exchange_row_matches_the_exchange_matrix(tag, m):
    # a move at k updates exactly the window entries j whose b_kj, read off the
    # strict exchange matrix, has the sign of the move, to c_j + |b_kj| c_k
    cat = category(tag)
    moves = 0
    for ordered, comps in object_table(cat, m).values():
        b, svs = exchange_matrix(cat, m, comps), _slope_vectors(m, comps)
        for k, direction, new_comps, _ in object_moves(cat, m, ordered, comps):
            s = svs[k].slope - (direction == "-")
            for j, (sv, new_sv) in enumerate(zip(svs, _slope_vectors(m, new_comps))):
                bkj = b[k][j]
                if j != k and sv.slope in (s, s + 1) and (bkj > 0 if direction == "+"
                                                          else bkj < 0):
                    assert c_vector(new_sv) == tuple(
                        x + abs(bkj) * y for x, y in zip(c_vector(sv), c_vector(svs[k])))
                elif j != k:
                    assert new_comps[j] == comps[j]
            moves += 1
    assert moves > 0


@pytest.mark.parametrize("tag,m", [("A3", 2), ("D4", 1), ("A2xA1", 2), ("A4", 3)])
def test_mutation_moves_match_the_public_functions(tag, m):
    # the trusted move generator gives every legal move, each as the validating
    # public `mutate` computes it, and `mutate` refuses every other move
    cat = category(tag)
    moves = 0
    for ordered, comps in object_table(cat, m).values():
        svs = _slope_vectors(m, comps)
        legal = [(k, d) for k in range(cat.n) for d, step in (("+", 1), ("-", -1))
                 if 0 <= svs[k].slope + step <= m]
        found = []
        for k, direction, new_comps, new_ordered in object_moves(cat, m, ordered, comps):
            assert mutate(cat, m, ordered, k, direction) == (ordered, comps, new_ordered,
                                                             new_comps)
            found.append((k, direction))
        assert found == legal
        for k, d in {(k, d) for k in range(cat.n) for d in "+-"} - set(legal):
            with pytest.raises(InputError, match="^slope "):
                mutate(cat, m, ordered, k, d)
        moves += len(found)
    assert moves > 0


def test_cluster_table_orders_and_configures_every_cluster(a3):
    table = object_table(a3, 2)
    assert tuple(table) == enumerate_clusters(a3, 2)
    for cluster, (ordered, comps) in table.items():
        assert ordered == order_cluster(a3, 2, cluster)
        assert comps == garside_configuration(a3, 2, ordered)


@pytest.mark.parametrize("tag,m", [
    (tag, m) for tag in [t for t in tags_up_to_rank(5) if "x" not in t] + ["A2xA1"]
    for m in range(3)] + [("E6", 1)])
def test_mutation_from_the_projectives_reaches_every_cluster(tag, m):
    # breadth first over `mutation_moves` from the level-0 projectives: the exchange graph
    # is connected, so its closure is the cluster set, found without the cluster search
    cat = category(tag)
    start = _order(cat, m, tuple(sorted(cat.root_id[p] for p in cat.projective_roots)))
    seen, queue = {tuple(sorted(start))}, deque([(start, _garside(cat, m, start, ambient(cat)))])
    while queue:
        for _, _, comps, ordered in mutation_moves(cat, m, *queue.popleft()):
            if tuple(sorted(ordered)) not in seen:
                seen.add(tuple(sorted(ordered)))
                queue.append((ordered, comps))
    assert seen == set(cluster_ids(tag, m))


@pytest.mark.parametrize("comps,message", [
    ((O(S1, 0), O(S1, 0)), r"components are not pairwise distinct"),
    ((O(S1, 0), O(S2, 2)), r"component level out of range: \(0,1\)\[2\]"),
    ((O(S2, 0), O(P1, 0)), r"forbidden morphism \(0,1\)\[0\] -> \(1,1\)\[0\]"),
    ((O(S1, 0), O(S2, 1)), r"forbidden extension \(1,0\)\[0\] -> \(0,1\)\[1\]"),
], ids=["repeated", "level", "morphism", "extension"])
def test_validate_configuration_refusals(a2, comps, message):
    with pytest.raises(VerificationError, match=message):
        validate(a2, 1, comps)


def test_validate_configuration_refuses_a_cycle_of_extensions():
    # no two exceptional modules of a Dynkin quiver extend each other both
    # ways, so the ordering refusal needs a corrupted table
    cat = RepCategory(build_quiver(build_diagram("A2")))
    validate(cat, 1, (O(S1, 0), O(S2, 0)))
    # Ext(S1, S2) is nonzero; corrupt the Hom/Ext masks so that Ext(S2, S1) is too
    s1, s2 = cat.root_id[S1], cat.root_id[S2]
    cat.right_nz[s2] |= 1 << s1
    cat.ext_out[s2] |= 1 << s1
    with pytest.raises(VerificationError, match="components admit no exceptional ordering"):
        validate(cat, 1, (O(S1, 0), O(S2, 0)))


def _fresh_a2():
    return RepCategory(build_quiver(build_diagram("A2")))


def test_a_corrupted_pairing_fails_the_frame_check():
    # a seeded fault in a fresh category: <S1, P1> = 0 read as 1
    cat = _fresh_a2()
    cat.pairings[cat.root_id[S1]][cat.root_id[P1]] += 1
    with pytest.raises(VerificationError, match=r"^duality pairing failed at \(0, 1\): got 1, "
                                                r"want 0$"):
        duality_frame(cat, 1, (O(S1, 0), O(P1, 0)), (O(S2, 1), O(P1, 0)))


def test_a_corrupted_compatibility_row_fails_the_recovered_entry():
    # the move at position 2 of (S1[0], P1[0]) recovers S2[1]; with its
    # compatibility row emptied, it clashes with the entry that stays
    cat = _fresh_a2()
    _compat_rows(cat, 1)[encode(cat, [O(S2, 1)])[0]] = 0
    with pytest.raises(InternalConsistencyError, match=re.escape(
            "A2, m=1: recovered entry (0,1)[1] clashes with (1,0)[0]")):
        mutate(cat, 1, [O(S1, 0), O(P1, 0)], 1, "-")


def test_corrupted_hom_ext_masks_fail_the_configuration_checks():
    # Hom(P1, S2) read as nonzero forbids the configuration (S2[1], P1[0]);
    # Ext(S2, S1) read as nonzero leaves (S1[0], S2[0]) no order
    cat = _fresh_a2()
    s1, s2, p1 = (cat.root_id[r] for r in (S1, S2, P1))
    cat.right_nz[p1] |= 1 << s2
    with pytest.raises(VerificationError, match=re.escape(
            "forbidden morphism (1,1)[0] -> (0,1)[1]")):
        validate(cat, 1, (O(S2, 1), O(P1, 0)))
    cat = _fresh_a2()
    cat.right_nz[s2] |= 1 << s1
    cat.ext_out[s2] |= 1 << s1
    with pytest.raises(VerificationError, match="^components admit no exceptional ordering$"):
        validate(cat, 1, (O(S1, 0), O(S2, 0)))


@pytest.mark.parametrize("call", [
    lambda a2, m: mutate(a2, m, [O(S1, 0), O(P1, 0)], 1, "-"),
    lambda a2, m: duality_frame(a2, m, [O(S1, 0), O(P1, 0)], _config(O)),
    exchange_graph,
], ids=["mutate", "duality_frame", "exchange_graph"])
def test_kernels_read_parities_of_a_parsed_shift_parameter(a2, call):
    # the kernels read parities with bit operations, so m is parsed first:
    # an integral Fraction reads as its int, 1.5 is refused
    assert call(a2, Fraction(1)) == call(a2, 1)
    with pytest.raises(InputError, match=r"^shift parameter m 1\.5 is not an integer$"):
        call(a2, 1.5)


def test_a_corrupted_pairing_fails_the_order_check():
    # the cluster order is found on the Hom/Ext masks and checked on the
    # pairings: Hom(P1, S2) read as nonzero breaks the reversal of an order
    cat = _fresh_a2()
    cat.pairings[cat.root_id[P1]][cat.root_id[S2]] += 1
    with pytest.raises(InternalConsistencyError, match=re.escape(
            "A2, m=1: ordering failed to produce an exceptional sequence")):
        cluster_table(cat, 1)
