import math
import re
from fractions import Fraction

import pytest

from excseq import (InputError, build_diagram, build_quiver, category, fomin_reading_count,
                    m_sequence_poly, tuple_to_sequence)
from excseq.bijection import is_m_exc_sequence, sequence_to_tuple
from excseq.configs import (all_valid_orders, cluster_table, garside_configuration,
                            order_cluster, validate_configuration)
from excseq.repengine import RepCategory
from excseq.verify import verify_all
from excseq.shiftcat import (ShiftedObject, check_object, compat_rows, compatible, decode,
                             enumerate_clusters, ordered_tuples, shifted_objects)
from excseq.wide import ambient, perp, relative_projectives

from conftest import P1, S1, S2, orientations, tags_up_to_rank


def test_objects_a2_m1(a2):
    objs = shifted_objects(a2, None, 1)
    assert len(objs) == 5
    assert set(objs) == {ShiftedObject(S1, 0), ShiftedObject(S2, 0), ShiftedObject(P1, 0),
                         ShiftedObject(S2, 1), ShiftedObject(P1, 1)}


def test_objects_a2_m2(a2):
    assert len(shifted_objects(a2, None, 2)) == 8  # 3 + 3 + 2


def test_objects_m0_are_projectives(a2):
    objs = shifted_objects(a2, None, 0)
    assert objs == (ShiftedObject(S2, 0), ShiftedObject(P1, 0))
    w = perp(a2, [P1])
    assert shifted_objects(a2, w, 0) == (ShiftedObject(S2, 0),)


@pytest.mark.parametrize("tag,m", [("A2", 1), ("A3", 2), ("D4", 1)])
def test_object_count_formula(tag, m):
    cat = category(tag)
    for scope in [ambient(cat)] + [perp(cat, [r]) for r in cat.roots]:
        objs = shifted_objects(cat, scope, m)
        assert len(relative_projectives(cat, scope)) == scope.rank
        assert len(objs) == len(scope.objects) * m + scope.rank


def test_check_object_refuses_non_integral_levels(a2):
    # int() would truncate 0.7 to 0 and let "1" through as 1
    for level in (0.7, "x", "1", None, float("nan"), float("inf")):
        with pytest.raises(InputError, match="is not an integer"):
            check_object(a2, None, 1, ShiftedObject(S1, level))
    obj = check_object(a2, None, 1, ShiftedObject(S1, Fraction(0)))
    assert obj == ShiftedObject(S1, 0) and type(obj.level) is int


@pytest.mark.parametrize("call", [
    lambda a2: tuple_to_sequence(a2, 1, [((1, 1), True)]),
    lambda a2: check_object(a2, None, 1, ShiftedObject(S1, True)),
    lambda a2: is_m_exc_sequence(a2, 1, [(S1, True)]),
], ids=["tuple_to_sequence", "check_object", "is_m_exc_sequence"])
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
    objs = shifted_objects(a3, None, 2)
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
    assert len(ordered_tuples(cat, m, cat.n)) == g(m)


def test_single_zero_cluster(a3):
    clusters = enumerate_clusters(a3, 0)
    assert len(clusters) == 1
    assert all(o.level == 0 and a3.is_projective(o.root) for o in clusters[0])


@pytest.mark.parametrize("m", [1.5, "1", True, None])
@pytest.mark.parametrize("call", [
    enumerate_clusters,
    lambda a2, m: tuple_to_sequence(a2, m, [ShiftedObject(S1, 0)]),
    cluster_table,
    verify_all,
    lambda a2, m: fomin_reading_count(a2.quiver.diagram, m),
], ids=["enumerate_clusters", "tuple_to_sequence", "cluster_table", "verify_all",
        "fomin_reading_count"])
def test_shift_parameter_is_parsed_strictly(a2, call, m):
    # each raised a raw TypeError or a false InternalConsistencyError, or ran
    # at m=1 for True
    message = f"^shift parameter m {re.escape(repr(m))} is not an integer$"
    with pytest.raises(InputError, match=message):
        call(a2, m)


@pytest.mark.parametrize("m,message", [
    (1.5, r"^shift parameter m 1\.5 is not an integer$"),
    (-1, "^shift parameter m must be >= 0$")])
@pytest.mark.parametrize("call", [tuple_to_sequence, sequence_to_tuple, garside_configuration,
                                  order_cluster, all_valid_orders, validate_configuration])
def test_maps_with_no_objects_refuse_a_bad_shift_parameter(a2, call, m, message):
    # with no objects to parse m through, each returned (), [()] or None
    with pytest.raises(InputError, match=message):
        call(a2, m, [])


@pytest.mark.parametrize("m", [-1, -3])
def test_compat_rows_refuse_a_negative_shift_parameter_and_store_nothing(m):
    # each returned [] and left the key m behind in the category's memo
    cat = RepCategory(build_quiver(build_diagram("A2")))
    with pytest.raises(InputError, match="^shift parameter m must be >= 0$"):
        compat_rows(cat, m)
    assert cat.compat == {}


def rows_by_compatible(cat, m):
    """The rows of `compat_rows`, built pair by pair from `compatible`."""
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
        assert compat_rows(cat, m) == rows_by_compatible(cat, m)


@pytest.mark.parametrize("tag", ["E7", "E8"])
def test_compat_rows_match_compatible_at_rank_7_and_8(tag):
    cat = category(tag)
    assert compat_rows(cat, 1) == rows_by_compatible(cat, 1)
