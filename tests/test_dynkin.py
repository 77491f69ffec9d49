import pytest

from excseq import (InputError, UnsupportedFeatureError, build_diagram,
                    build_quiver, delete_vertex, euler_matrix,
                    parse_type_tag, positive_roots)
from excseq.dynkin import coxeter_for_tag
from excseq.repengine import RepCategory

from oracle import euler

ALL_RANK8 = ([f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
             + [f"C{n}" for n in range(3, 9)] + [f"D{n}" for n in range(4, 9)]
             + ["E6", "E7", "E8", "F4", "G2"])


def test_build_a2():
    d = build_diagram("A2")
    assert d.rank == 2
    assert d.edges == ((0, 1, 1, 1),)
    assert d.is_simply_laced


def test_build_d4_star():
    d = build_diagram("D4")
    adj = d.adjacency()
    degrees = sorted(len(adj[v]) for v in d.vertices)
    assert degrees == [1, 1, 1, 3]


def test_build_b2_valued():
    d = build_diagram("B2")
    assert d.edges == ((0, 1, 1, 2),)
    assert not d.is_simply_laced


def test_union_parsing():
    d = build_diagram("A2xA1")
    assert d.rank == 3
    assert d.component_tags() == ("A2", "A1")
    assert parse_type_tag("a3 x g2") == (("A", 3), ("G", 2))


@pytest.mark.parametrize("bad", ["", "H3", "D3", "E9", "F5", "G3", "B1", "A0", "Q"])
def test_bad_tags(bad):
    with pytest.raises(InputError):
        build_diagram(bad)


@pytest.mark.parametrize("tag,h,degrees", [
    ("A2", 3, (2, 3)),
    ("D4", 6, (2, 4, 4, 6)),
    ("G2", 6, (2, 6)),
    ("B3", 6, (2, 4, 6)),
    ("E7", 18, (2, 6, 8, 10, 12, 14, 18)),
    ("F4", 12, (2, 6, 8, 12)),
])
def test_coxeter_tables(tag, h, degrees):
    cox = coxeter_for_tag(tag)
    assert (cox.h, cox.degrees) == (h, degrees)


@pytest.mark.parametrize("tag", ALL_RANK8)
def test_degree_sum_identity(tag):
    d = build_diagram(tag)
    cox = coxeter_for_tag(tag)
    assert sum(2 * deg - 2 for deg in cox.degrees) == d.rank * cox.h
    assert cox.degrees[0] == 2 and cox.degrees[-1] == cox.h


def test_coxeter_rejects_disconnected():
    with pytest.raises(InputError):
        coxeter_for_tag("A1xA1")


@pytest.mark.parametrize("tag,vertex,pieces", [
    ("A3", 1, ["A1", "A1"]),
    ("A2", 0, ["A1"]),
    ("D4", 1, ["A1", "A1", "A1"]),
    ("D5", 0, ["D4"]),
    ("D5", 1, ["A1", "A3"]),
    ("B5", 2, ["A2", "B2"]),
    ("B5", 4, ["A4"]),
    ("F4", 3, ["B3"]),
    ("F4", 0, ["C3"]),
    ("F4", 1, ["A1", "A2"]),
    ("G2", 0, ["A1"]),
    ("E6", 2, ["A1", "A2", "A2"]),
])
def test_delete_vertex(tag, vertex, pieces):
    got = sorted(p.type_tag for p in delete_vertex(build_diagram(tag), vertex))
    assert got == sorted(pieces)


def test_delete_unknown_vertex():
    with pytest.raises(InputError):
        delete_vertex(build_diagram("A2"), 7)


def test_positive_roots_a2():
    assert positive_roots(build_diagram("A2")) == ((0, 1), (1, 0), (1, 1))


@pytest.mark.parametrize("tag,count", [("A3", 6), ("E6", 36), ("D4", 12), ("A5", 15)])
def test_root_counts(tag, count):
    roots = positive_roots(build_diagram(tag))
    assert len(roots) == count
    assert list(roots) == sorted(set(roots))


def test_roots_reject_valued():
    with pytest.raises(UnsupportedFeatureError):
        positive_roots(build_diagram("B2"))


def test_euler_matrix_a2():
    q = build_quiver(build_diagram("A2"))
    assert euler_matrix(q) == ((1, -1), (0, 1))
    cat = RepCategory(q)
    assert euler(cat, (1, 0), (0, 1)) == -1
    for root in positive_roots(q.diagram):
        assert euler(cat, root, root) == 1


def test_euler_upper_unitriangular_in_topological_order():
    # default orientation points low -> high, so E is already upper triangular
    for tag in ("A4", "D4", "E6"):
        q = build_quiver(build_diagram(tag))
        e = euler_matrix(q)
        n = q.diagram.rank
        assert all(e[i][i] == 1 for i in range(n))
        assert all(e[i][j] == 0 for i in range(n) for j in range(i))


def test_custom_orientation_validated():
    d = build_diagram("A3")
    build_quiver(d, ((1, 0), (1, 2)))  # both arrows away from the middle
    with pytest.raises(InputError):
        build_quiver(d, ((0, 1),))
    with pytest.raises(UnsupportedFeatureError):
        build_quiver(build_diagram("B2"))
