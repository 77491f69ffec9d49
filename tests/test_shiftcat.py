import inspect
import math
import re
from fractions import Fraction

import pytest

from excseq import (InputError, bijection, build_diagram, build_quiver, category, configs,
                    counting, fomin_reading_count, m_sequence_poly, shiftcat, tuple_to_sequence,
                    verify)
from excseq.bijection import is_m_exc_sequence, sequence_to_tuple
from excseq.configs import cluster_table, garside_configuration, order_cluster
from excseq.repengine import RepCategory
from excseq.verify import verify_all
from excseq.shiftcat import (ShiftedObject, _compat_rows, _ids, check_objects, decode,
                             enumerate_clusters, object_mask)
from excseq.wide import ambient, perp, relative_projectives

from conftest import (P1, S1, S2, cluster_ids, compatible_tuples, objects_at, orientations,
                      tags_up_to_rank)
from oracle import compatible


def test_objects_a2_m1(a2):
    objs = objects_at(a2, 1)
    assert len(objs) == 5
    assert set(objs) == {ShiftedObject(S1, 0), ShiftedObject(S2, 0), ShiftedObject(P1, 0),
                         ShiftedObject(S2, 1), ShiftedObject(P1, 1)}


def test_objects_a2_m2(a2):
    assert len(objects_at(a2, 2)) == 8  # 3 + 3 + 2


def test_objects_m0_are_projectives(a2):
    objs = objects_at(a2, 0)
    assert objs == (ShiftedObject(S2, 0), ShiftedObject(P1, 0))
    w = perp(a2, [P1])
    assert objects_at(a2, 0, w) == (ShiftedObject(S2, 0),)


@pytest.mark.parametrize("tag,m", [("A2", 1), ("A3", 2), ("D4", 1)])
def test_object_count_formula(tag, m):
    cat = category(tag)
    for scope in [ambient(cat)] + [perp(cat, [r]) for r in cat.roots]:
        objs = objects_at(cat, m, scope)
        assert len(relative_projectives(cat, scope)) == scope.rank
        assert len(objs) == len(scope.objects) * m + scope.rank


def test_check_objects_refuses_non_integral_levels(a2):
    # int() would truncate 0.7 to 0 and let "1" through as 1
    for level in (0.7, "x", "1", None, float("nan"), float("inf")):
        with pytest.raises(InputError, match="is not an integer"):
            check_objects(a2, None, 1, [ShiftedObject(S1, level)])
    assert check_objects(a2, None, 1, [ShiftedObject(S1, Fraction(0))]) == \
        check_objects(a2, None, 1, [ShiftedObject(S1, 0)])


@pytest.mark.parametrize("call", [
    lambda a2: tuple_to_sequence(a2, 1, [((1, 1), True)]),
    lambda a2: check_objects(a2, None, 1, [ShiftedObject(S1, True)]),
    lambda a2: is_m_exc_sequence(a2, 1, [(S1, True)]),
], ids=["tuple_to_sequence", "check_objects", "is_m_exc_sequence"])
def test_a_bool_level_is_refused(a2, call):
    # True == 1, so it used to pass as level 1
    with pytest.raises(InputError, match="^level True is not an integer$"):
        call(a2)


def test_compatibility_cases(a2):
    assert compatible(a2, ShiftedObject(S1, 0), ShiftedObject(S2, 1))
    assert not compatible(a2, ShiftedObject(S2, 1), ShiftedObject(P1, 0))
    assert not compatible(a2, ShiftedObject(P1, 0), ShiftedObject(P1, 0))
    assert not compatible(a2, ShiftedObject(P1, 0), ShiftedObject(P1, 1))


def test_compatibility_symmetric_irreflexive(a3):
    objs = objects_at(a3, 2)
    for a in objs:
        assert not compatible(a3, a, a)
        for b in objs:
            assert compatible(a3, a, b) == compatible(a3, b, a)


def test_clusters_a2_m1(a2):
    clusters = enumerate_clusters(a2, 1)
    want = {
        frozenset({ShiftedObject(S1, 0), ShiftedObject(P1, 0)}),
        frozenset({ShiftedObject(P1, 0), ShiftedObject(S2, 0)}),
        frozenset({ShiftedObject(S1, 0), ShiftedObject(S2, 1)}),
        frozenset({ShiftedObject(S2, 0), ShiftedObject(P1, 1)}),
        frozenset({ShiftedObject(P1, 1), ShiftedObject(S2, 1)}),
    }
    assert {frozenset(c) for c in clusters} == want
    # not in id order: roots S2, S1, P1 have ids 0, 1, 2, so (3, 5) = (S2[1], P1[1]) comes
    # before (1, 3) = (S1[0], S2[1]), and that before (1, 2) = (S1[0], P1[0])
    assert cluster_ids("A2", 1) == ((0, 2), (0, 5), (3, 5), (1, 3), (1, 2))


@pytest.mark.parametrize("tag,m", [("A2", 0), ("A2", 1), ("A2", 2),
                                   ("A3", 0), ("A3", 1), ("A3", 2),
                                   ("D4", 1), ("D4", 2), ("A4", 2)])
def test_cluster_counts_match_polynomial(tag, m):
    cat = category(tag)
    g = m_sequence_poly(build_diagram(tag))
    assert len(enumerate_clusters(cat, m)) * math.factorial(cat.n) == g(m)


@pytest.mark.parametrize("tag,m", [("A2", 0), ("A2", 1), ("A2", 2),
                                   ("A3", 0), ("A3", 1), ("A3", 2)])
def test_ordered_complete_tuples_match_polynomial(tag, m):
    cat = category(tag)
    g = m_sequence_poly(build_diagram(tag))
    assert len(compatible_tuples(cat, m, cat.n)) == g(m)


def test_single_zero_cluster(a3):
    clusters = enumerate_clusters(a3, 0)
    assert len(clusters) == 1
    assert all(o.level == 0 and o.root in a3.projective_roots for o in clusters[0])


# every tag of rank <= 5 at m <= 2, and E6 at m=1
CLUSTER_CASES = [(tag, m) for tag in tags_up_to_rank(5) for m in range(3)] + [("E6", 1)]


@pytest.mark.parametrize("tag,m", CLUSTER_CASES)
def test_clusters_are_the_maximal_cliques_of_the_compatibility_graph(tag, m):
    # networkx's clique search on the rows of the valid objects is independent of the
    # cluster search; CI installs only pytest and skips this
    nx = pytest.importorskip("networkx")
    cat = category(tag)
    objects = object_mask(cat, None, m)
    rows, graph = _compat_rows(cat, m), nx.Graph()
    graph.add_nodes_from(_ids(objects))
    graph.add_edges_from((a, b) for a in _ids(objects) for b in _ids(rows[a] & objects))
    clusters = cluster_ids(tag, m)
    assert len(set(clusters)) == len(clusters)
    assert set(clusters) == {tuple(sorted(c)) for c in nx.find_cliques(graph)}


@pytest.mark.parametrize("tag,m", CLUSTER_CASES)
def test_clusters_come_in_a_fixed_order(tag, m):
    # each cluster in id order, and the list sorted entry by entry on (root id, level),
    # which is how its objects compare; a faster search must keep this order
    n = len(category(tag).roots)
    clusters = cluster_ids(tag, m)
    assert all(list(c) == sorted(c) for c in clusters)
    assert list(clusters) == sorted(clusters, key=lambda c: [(x % n, x // n) for x in c])


O = ShiftedObject

# every public function with a parameter m in these modules, called on A2 with that m; the
# objects, where there are any, are fine at m = 1, and most calls have none, so that m is
# all there is to parse
M_CALLS = {
    # shiftcat and counting
    "enumerate_clusters": enumerate_clusters,
    "compatible_subsets": lambda a2, m: shiftcat.compatible_subsets(a2, m, 1),
    "check_objects": lambda a2, m: check_objects(a2, None, m, []),
    "check_m": lambda a2, m: counting.check_m(m),
    "fomin_reading_count": lambda a2, m: fomin_reading_count(a2.quiver.diagram, m),
    # bijection
    "tuple_to_sequence": lambda a2, m: tuple_to_sequence(a2, m, [O(S1, 0)]),
    "sequence_to_tuple": lambda a2, m: sequence_to_tuple(a2, m, []),
    "is_m_exc_sequence": lambda a2, m: is_m_exc_sequence(a2, m, []),
    "m_exc_sequences": lambda a2, m: bijection.m_exc_sequences(a2, m, 1),
    # configs
    "order_cluster": lambda a2, m: order_cluster(a2, m, []),
    "garside_configuration": lambda a2, m: garside_configuration(a2, m, []),
    "duality_frame": lambda a2, m: configs.duality_frame(a2, m, [], []),
    "mutate": lambda a2, m: configs.mutate(a2, m, [], 0, "+"),
    "mutation_moves": lambda a2, m: configs.mutation_moves(a2, m, (), ()),
    "cluster_table": cluster_table,
    "exchange_graph": configs.exchange_graph,
    # verify
    "verify_bijection": verify.verify_bijection,
    "verify_duality": verify.verify_duality,
    "verify_mutation": verify.verify_mutation,
    "verify_all": verify_all,
}


@pytest.mark.parametrize("m", [1.5, "1", True, None, -1])
@pytest.mark.parametrize("call", list(M_CALLS.values()), ids=list(M_CALLS))
def test_shift_parameter_is_parsed_strictly(a2, call, m):
    # each raised a raw TypeError or a false InternalConsistencyError, ran at
    # m=1 for True, or returned something for m = -1 or with no objects
    message = ("^shift parameter m must be >= 0$" if m == -1
               else f"^shift parameter m {re.escape(repr(m))} is not an integer$")
    with pytest.raises(InputError, match=message):
        call(a2, m)


def test_every_public_function_taking_m_is_called_above():
    # object_mask alone is left out: the kernels hand it an m already parsed
    found = {name for module in (bijection, configs, counting, shiftcat, verify)
             for name, f in vars(module).items()
             if inspect.isfunction(f) and f.__module__ == module.__name__
             and not name.startswith("_") and "m" in inspect.signature(f).parameters}
    assert found == set(M_CALLS) | {"object_mask"}


@pytest.mark.parametrize("m,message", [
    (1.5, r"^shift parameter m 1\.5 is not an integer$"),
    (-1, "^shift parameter m must be >= 0$")])
@pytest.mark.parametrize("call", [tuple_to_sequence, sequence_to_tuple, garside_configuration,
                                  order_cluster])
def test_maps_with_no_objects_refuse_a_bad_shift_parameter(a2, call, m, message):
    # with no objects to parse m through, each returned ()
    with pytest.raises(InputError, match=message):
        call(a2, m, [])


def rows_by_compatible(cat, m):
    """The rows of `_compat_rows`, built pair by pair from `compatible`."""
    objects = decode(cat, range((m + 1) * len(cat.roots)))
    return [sum(1 << y for y, b in enumerate(objects) if compatible(cat, a, b))
            for a in objects]


@pytest.mark.parametrize("tag,arrows", [
    pytest.param(tag, arrows, id="-".join([tag] + [f"{u}>{v}" for u, v in arrows or ()]))
    for tag, arrows in [(tag, None) for tag in tags_up_to_rank(6)]
    + [(tag, arrows) for tag in tags_up_to_rank(4) for arrows in orientations(tag)]])
def test_compat_rows_match_compatible(tag, arrows):
    cat = RepCategory(build_quiver(build_diagram(tag), arrows))
    for m in range(4):
        assert _compat_rows(cat, m) == rows_by_compatible(cat, m)


@pytest.mark.parametrize("tag", ["E7", "E8"])
def test_compat_rows_match_compatible_at_rank_7_and_8(tag):
    cat = category(tag)
    assert _compat_rows(cat, 1) == rows_by_compatible(cat, 1)
