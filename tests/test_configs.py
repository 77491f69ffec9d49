
import re
from fractions import Fraction
from itertools import permutations

import pytest

from excseq import InputError, InternalConsistencyError, category, configs, verify
from excseq.cli import main
from excseq.configs import (all_valid_orders, c_vector, cluster_table, duality_frame,
                            exchange_graph, exchange_matrix, garside_configuration,
                            g_vector_check, horizontal_subcat, mutate,
                            mutate_configuration, mutation_moves, order_cluster,
                            recover_cluster, signed_dim, slope_vectors,
                            validate_configuration)
from excseq.dynkin import build_diagram, build_quiver
from excseq.errors import VerificationError
from excseq.bijection import is_m_exc_sequence, m_exc_sequences, transport
from excseq.repengine import RepCategory
from excseq.shiftcat import (ShiftedObject, canonical_cluster, compat_rows, compatible, decode, encode,
                             enumerate_clusters, is_valid_object, shifted_objects)
from excseq.wide import is_exceptional_sequence

import oracle
from conftest import P1, S1, S2


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


def test_order_cluster_examples(a2):
    assert order_cluster(a2, 1, {O(S1, 0), O(P1, 0)}) == (O(S1, 0), O(P1, 0))
    # the only ordering of {S2[0], P1[1]} whose reversal is exceptional puts
    # the level-1 entry first
    assert order_cluster(a2, 1, {O(S2, 0), O(P1, 1)}) == (O(P1, 1), O(S2, 0))
    ordered = order_cluster(a2, 0, {O(S2, 0), O(P1, 0)})
    assert ordered == (O(P1, 0), O(S2, 0))


def test_order_cluster_refuses_a_repeated_entry(a2):
    # sorted(set(...)) dropped the repeat and returned a 2-tuple on A2
    for order in (order_cluster, all_valid_orders):
        with pytest.raises(InputError, match=r"^\(1,0\)\[0\] and \(1,0\)\[0\] are not compatible$"):
            order(a2, 1, [O(S1, 0), O(S1, 0), O(P1, 0)])


def test_order_cluster_refuses_a_level_outside_0_to_m(a2):
    # (1,0)[5] was accepted at m=1
    for order in (order_cluster, all_valid_orders):
        with pytest.raises(InputError, match=r"^\(1,0\)\[5\] is not a valid shifted object"):
            order(a2, 1, [O(S1, 5), O(P1, 0)])


def test_order_cluster_reads_a_list_root_as_its_tuple(a2):
    # a list root is unhashable, and set() raised a bare TypeError on it
    for order in (order_cluster, all_valid_orders):
        assert order(a2, 1, [O(list(S1), 0), O(P1, 0)]) == order(a2, 1, [O(S1, 0), O(P1, 0)])


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
                   for o in all_valid_orders(cat, m, cluster)}
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
        assert all_valid_orders(cat, m, cluster) == want
        assert order_cluster(cat, m, cluster) == min(
            want, key=lambda p: [(-o.level, o.root) for o in p])


def test_horizontal_subcat_whole(a2):
    comps = (O(S2, 1), O(P1, 0))
    h = horizontal_subcat(a2, 1, comps, 0)
    assert h.rank == 2
    assert set(h.objects) == set(a2.roots)
    assert set(h.signed_modules) == {(S2, 1), (P1, -1)}


def test_horizontal_subcat_empty_selection(a2):
    # all components at slope 0 leaves the slope-1 window empty
    ordered = order_cluster(a2, 2, {O(S2, 2), O(P1, 2)})
    comps = garside_configuration(a2, 2, ordered)
    assert all(2 - c.level == 0 for c in comps)
    h = horizontal_subcat(a2, 2, comps, 1)
    assert h.rank == 0 and h.objects == ()


def test_horizontal_subcat_range(a2):
    comps = (O(S2, 1), O(P1, 0))
    with pytest.raises(InputError):
        horizontal_subcat(a2, 1, comps, 1)


@pytest.mark.parametrize("s", [0.5, "0", True])
def test_horizontal_subcat_refuses_a_slope_index_that_is_no_integer(a2, s):
    # 0.5 gave an empty window, "0" raised a raw TypeError and True was read as 1
    with pytest.raises(InputError, match="^slope index "):
        horizontal_subcat(a2, 2, (O(S2, 1), O(P1, 0)), s)


def test_horizontal_subcat_refuses_a_component_that_is_no_root(a2):
    # (9,9) sits in the slope-2 window, which slope 0 reads by root id: KeyError
    with pytest.raises(InputError, match=r"^\(9, 9\) is not a positive root of A2$"):
        horizontal_subcat(a2, 2, [O(S1, 2), O((9, 9), 0)], 0)


@pytest.mark.parametrize("tag,m", [("A3", 2)])
def test_horizontal_windows_disjoint_when_far(tag, m):
    cat = category(tag)
    for cluster in enumerate_clusters(cat, m):
        ordered = order_cluster(cat, m, cluster)
        comps = garside_configuration(cat, m, ordered)
        hs = [horizontal_subcat(cat, m, comps, s) for s in range(m)]
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
    new_comps = mutate_configuration(a2, 1, comps, 1, "-")
    assert new_comps == (O(S1, 0), O(P1, 1))
    new_ordered = recover_cluster(a2, 1, ordered, new_comps, 1)
    assert new_ordered == (O(S1, 0), O(S2, 1))
    assert mutate_configuration(a2, 1, new_comps, 1, "+") == comps


def test_mutation_other_direction(a2):
    ordered = (O(S1, 0), O(P1, 0))
    comps = garside_configuration(a2, 1, ordered)
    new_comps = mutate_configuration(a2, 1, comps, 0, "+")
    new_ordered = recover_cluster(a2, 1, ordered, new_comps, 0)
    assert canonical_cluster(new_ordered) == canonical_cluster((O(S2, 0), O(P1, 0)))


def test_mutation_blocked_slopes(a2):
    ordered = (O(S1, 0), O(P1, 0))
    comps = garside_configuration(a2, 1, ordered)
    svs = slope_vectors(1, comps)
    assert svs[0].slope == 0 and svs[1].slope == 1
    with pytest.raises(InputError):
        mutate_configuration(a2, 1, comps, 0, "-")
    with pytest.raises(InputError):
        mutate_configuration(a2, 1, comps, 1, "+")


@pytest.mark.parametrize("tag,m", [("A2", 1), ("A2", 2), ("A2", 3), ("A3", 1), ("A3", 2)])
def test_mutation_coherence_sweep(tag, m):
    cat = category(tag)
    for cluster in enumerate_clusters(cat, m):
        ordered = order_cluster(cat, m, cluster)
        comps = garside_configuration(cat, m, ordered)
        svs = slope_vectors(m, comps)
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
                back = mutate_configuration(cat, m, result.mutated_configuration,
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
    new_comps = mutate_configuration(a3, m, comps, 1, "-")
    assert new_comps == (O((1, 1, 0), 0), O((0, 1, 0), 1), O((0, 0, 1), 0))
    new_ordered = recover_cluster(a3, m, ordered, new_comps, 1)
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
    objects = shifted_objects(cat, None, m)
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
    comps = garside_configuration(a2, 0, ordered)
    for k in range(2):
        for direction in ("+", "-"):
            with pytest.raises(InputError):
                mutate_configuration(a2, 0, comps, k, direction)


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
        svs = slope_vectors(m, comps)
        for k, direction, new_comps, new_ordered in object_moves(cat, m, ordered, comps):
            new_svs = slope_vectors(m, new_comps)
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
    # 1.5, "1" and None escaped as TypeError, and True was read as position 1
    comps = garside_configuration(a2, 1, (O(S1, 0), O(P1, 0)))
    for k in (1.5, "1", True, None):
        with pytest.raises(InputError, match="is not an integer"):
            mutate_configuration(a2, 1, comps, k, "-")


def test_recover_cluster_refuses_a_bad_position(a2):
    # -1 indexed from the end and ended in a false "clashes with"
    # InternalConsistencyError, 1.5 raised TypeError and 5 IndexError
    ordered = (O(S1, 0), O(P1, 0))
    new_comps = mutate_configuration(a2, 1, garside_configuration(a2, 1, ordered), 1, "-")
    assert recover_cluster(a2, 1, ordered, new_comps, 1) == (O(S1, 0), O(S2, 1))
    for k, message in ((-1, "out of range"), (1.5, "is not an integer"), (5, "out of range")):
        with pytest.raises(InputError, match=message):
            recover_cluster(a2, 1, ordered, new_comps, k)


def _short_duality_frame(a2):
    ordered = (O(S1, 0), O(P1, 0))
    duality_frame(a2, 1, ordered, garside_configuration(a2, 1, ordered)[:1])


@pytest.mark.parametrize("call,message", [
    (lambda a2: is_valid_object(a2, None, 1, O(S1, "x")), "level 'x' is not an integer"),
    (lambda a2: is_m_exc_sequence(a2, 1, [(S1, "x")]), "level 'x' is not an integer"),
    (_short_duality_frame, "2 cluster entries but 1 components"),
    # the kernels run on object ids, so their callers encode each object strictly
    (lambda a2: validate_configuration(a2, 1, (O(S2, 0.5), O(P1, 0))),
     "level 0.5 is not an integer"),
    (lambda a2: duality_frame(a2, 1, (O(S1, 0), O(P1, 0)), (O(S2, 1), O((2, 1), 0))),
     r"\(2, 1\) is not a positive root of A2"),
    (lambda a2: recover_cluster(a2, 1, (O(S1, 0), O(P1, 0)), (O(S2, 1), O((2, 1), 0)), 1),
     r"\(2, 1\) is not a positive root of A2"),
    (lambda a2: recover_cluster(a2, 1, (O(S1, -1), O(P1, 0)), (O(S2, 1), O(S1, 0)), 1),
     r"cluster entry \(1,0\)\[-1\] has a level outside 0..1"),
    # each raised a VerificationError (or, for recover_cluster, an InternalConsistencyError)
    # that reported the bad input level as a failed check
    (lambda a2: mutate_configuration(a2, 1, [O(S1, 7), O(S2, 0)], 0, "+"),
     r"^component \(1,0\)\[7\] has a level outside 0..1$"),
    (lambda a2: duality_frame(a2, 1, [O(S1, 0), O(P1, 0)], [O(S2, 3), O(P1, 0)]),
     r"^component \(0,1\)\[3\] has a level outside 0..1$"),
    (lambda a2: horizontal_subcat(a2, 1, [O(S2, 7), O(P1, 0)], 0),
     r"^component \(0,1\)\[7\] has a level outside 0..1$"),
    (lambda a2: recover_cluster(a2, 1, [O(S1, 0), O(P1, 0)], [O(S2, -1), O(P1, 0)], 1),
     r"^component \(0,1\)\[-1\] has a level outside 0..1$"),
    (lambda a2: m_exc_sequences(a2, -1, 2), "shift parameter m must be >= 0"),
    (lambda a2: is_m_exc_sequence(a2, 1, [((1, 0),)]),
     r"^\(\(1, 0\),\) is not a \(root, level\) pair$"),
], ids=["is_valid_object", "is_m_exc_sequence", "duality_frame", "validate_configuration_level",
        "duality_frame_root", "recover_cluster_root", "recover_cluster_level",
        "mutate_configuration_component_level", "duality_frame_component_level",
        "horizontal_subcat_component_level", "recover_cluster_component_level", "m_exc_sequences",
        "is_m_exc_sequence_term"])
def test_malformed_input_is_refused(a2, call, message):
    # the first three raised a raw TypeError or IndexError; the rest were
    # accepted or refused with a misleading verification error
    with pytest.raises(InputError, match=message):
        call(a2)


def _pair(root, level):
    return root, level


def _config(o):  # the Garside configuration of the A2 cluster (S1[0], P1[0]) at m=1
    return [o(S2, 1), o(P1, 0)]


@pytest.mark.parametrize("call", [
    lambda a2, o: transport(a2, 1, o(P1, 0), o(S2, 0)),
    lambda a2, o: garside_configuration(a2, 1, [o(S1, 0), o(P1, 0)]),
    lambda a2, o: validate_configuration(a2, 1, _config(o)),
    lambda a2, o: duality_frame(a2, 1, [o(S1, 0), o(P1, 0)], _config(o)),
    lambda a2, o: horizontal_subcat(a2, 1, _config(o), 0),
    lambda a2, o: mutate_configuration(a2, 1, _config(o), 1, "-"),
    lambda a2, o: recover_cluster(a2, 1, [o(S1, 0), o(P1, 0)], [
        o(*c) for c in mutate_configuration(a2, 1, _config(o), 1, "-")], 1),
    lambda a2, o: mutate(a2, 1, [o(S1, 0), o(P1, 0)], 1, "-"),
], ids=["transport", "garside_configuration", "validate_configuration", "duality_frame",
        "horizontal_subcat", "mutate_configuration", "recover_cluster", "mutate"])
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
            mutate_configuration(a2, 1, comps, 0, "+")
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
        b, svs = exchange_matrix(cat, m, comps), slope_vectors(m, comps)
        for k, direction, new_comps, _ in object_moves(cat, m, ordered, comps):
            s = svs[k].slope - (direction == "-")
            for j, (sv, new_sv) in enumerate(zip(svs, slope_vectors(m, new_comps))):
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
    # the trusted move generator gives every legal move, each as the
    # validating public functions compute it (recover_cluster checks the frame)
    cat = category(tag)
    moves = 0
    for ordered, comps in object_table(cat, m).values():
        svs = slope_vectors(m, comps)
        legal = [(k, d) for k in range(cat.n) for d, step in (("+", 1), ("-", -1))
                 if 0 <= svs[k].slope + step <= m]
        found = []
        for k, direction, new_comps, new_ordered in object_moves(cat, m, ordered, comps):
            assert mutate_configuration(cat, m, comps, k, direction) == new_comps
            assert recover_cluster(cat, m, ordered, new_comps, k) == new_ordered
            found.append((k, direction))
        assert found == legal
        moves += len(found)
    assert moves > 0


def test_cluster_table_orders_and_configures_every_cluster(a3):
    table = object_table(a3, 2)
    assert tuple(table) == enumerate_clusters(a3, 2)
    for cluster, (ordered, comps) in table.items():
        assert ordered == order_cluster(a3, 2, cluster)
        assert comps == garside_configuration(a3, 2, ordered)


@pytest.mark.parametrize("comps,rank,message", [
    ((O(S1, 0),), 2, r"expected 2 components, got 1"),
    ((O(S1, 0), O(S1, 0)), None, r"components are not pairwise distinct"),
    ((O(S1, 0), O(S2, 2)), None, r"component level out of range: \(0,1\)\[2\]"),
    ((O(S2, 0), O(P1, 0)), None, r"forbidden morphism \(0,1\)\[0\] -> \(1,1\)\[0\]"),
    ((O(S1, 0), O(S2, 1)), None, r"forbidden extension \(1,0\)\[0\] -> \(0,1\)\[1\]"),
], ids=["count", "repeated", "level", "morphism", "extension"])
def test_validate_configuration_refusals(a2, comps, rank, message):
    with pytest.raises(VerificationError, match=message):
        validate_configuration(a2, 1, comps, rank=rank)


def test_validate_configuration_refuses_a_cycle_of_extensions():
    # no two exceptional modules of a Dynkin quiver extend each other both
    # ways, so the ordering refusal needs a corrupted table
    cat = RepCategory(build_quiver(build_diagram("A2")))
    validate_configuration(cat, 1, (O(S1, 0), O(S2, 0)), rank=2)
    # Ext(S1, S2) is nonzero; corrupt the Hom/Ext masks so that Ext(S2, S1) is too
    s1, s2 = cat.root_id[S1], cat.root_id[S2]
    cat.right_nz[s2] |= 1 << s1
    cat.ext_out[s2] |= 1 << s1
    with pytest.raises(VerificationError, match="components admit no exceptional ordering"):
        validate_configuration(cat, 1, (O(S1, 0), O(S2, 0)), rank=2)


def test_validate_configuration_refuses_a_non_root(a2):
    validate_configuration(a2, 1, (O(S2, 1), O(P1, 0)), rank=2)
    with pytest.raises(InputError, match="is not a positive root"):
        validate_configuration(a2, 1, (O(S2, 1), O((2, 0), 0)), rank=2)
    # a lone component has no pair to read the table on
    with pytest.raises(InputError, match=r"\(5, 5\) is not a positive root of A2"):
        validate_configuration(a2, 1, [O((5, 5), 0)], rank=1)


@pytest.mark.parametrize("comps,k,direction", [
    ((O((5, 5), 0),), 0, "-"),
    ((O((1, 2), 0), O(S2, 1)), 1, "+"),
], ids=["lone", "pair"])
def test_mutate_configuration_refuses_a_non_root(a2, comps, k, direction):
    # the lone component was moved to level 1, and the pair failed only in the
    # check of the mutated result
    with pytest.raises(InputError, match=r"\(\d, \d\) is not a positive root of A2"):
        mutate_configuration(a2, 1, comps, k, direction)


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
    compat_rows(cat, 1)[encode(cat, [O(S2, 1)])[0]] = 0
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
        validate_configuration(cat, 1, (O(S2, 1), O(P1, 0)))
    cat = _fresh_a2()
    cat.right_nz[s2] |= 1 << s1
    cat.ext_out[s2] |= 1 << s1
    with pytest.raises(VerificationError, match="^components admit no exceptional ordering$"):
        validate_configuration(cat, 1, (O(S1, 0), O(S2, 0)))


@pytest.mark.parametrize("call", [
    lambda a2, m: mutate(a2, m, [O(S1, 0), O(P1, 0)], 1, "-"),
    lambda a2, m: mutate_configuration(a2, m, _config(O), 1, "-"),
    lambda a2, m: recover_cluster(a2, m, [O(S1, 0), O(P1, 0)], [O(S1, 0), O(P1, 1)], 1),
    lambda a2, m: duality_frame(a2, m, [O(S1, 0), O(P1, 0)], _config(O)),
    exchange_graph,
], ids=["mutate", "mutate_configuration", "recover_cluster", "duality_frame", "exchange_graph"])
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
