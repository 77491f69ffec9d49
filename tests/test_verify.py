import re
from fractions import Fraction

import pytest

from excseq import InputError, category, cli, verify
from excseq.bijection import _build_table
from excseq.cli import main
from excseq.configs import cluster_table, mutation_moves
from excseq.dynkin import build_diagram, build_quiver
from excseq.repengine import RepCategory
from excseq.shiftcat import ShiftedObject, encode
from excseq.wide import ambient
from excseq.verify import (SUITES, verify_all, verify_bijection, verify_counting,
                           verify_duality, verify_mutation)

from conftest import orientations


def _assert_ok(report):
    assert report.ok, [(c.label, c.detail) for c in report.checks if not c.ok]


@pytest.mark.parametrize("tag", ["A2", "A3", "B4", "F4"])
def test_counting_suite(tag):
    _assert_ok(verify_counting(build_diagram(tag)))


@pytest.mark.parametrize("tag,m", [("A2", 2), ("A3", 1), ("D4", 1)])
def test_bijection_suite(tag, m):
    _assert_ok(verify_bijection(category(tag), m))


def test_a_swapped_inverse_entry_fails_the_bijection_suite(monkeypatch, capsys):
    # a seeded fault in a fresh category, not the shared one: two entries of
    # the inverse map of P1[0]'s table trade places.  The bucket of tuples
    # ending in P1[0] pulls back through it, so its round trips fail, and
    # only those; the CLI, whose lookup hands it this category, then exits 1
    cat = RepCategory(build_quiver(build_diagram("A2")))
    t = encode(cat, [ShiftedObject((1, 1), 0)])[0]
    inverse = _build_table(cat, 1, t, ambient(cat)).inverse
    y1, y2 = list(inverse)[:2]
    inverse[y1], inverse[y2] = inverse[y2], inverse[y1]
    assert [c.label for c in verify_bijection(cat, 1).checks if not c.ok] == [
        "k=2: inverse round trips"]
    monkeypatch.setattr(cli, "category", lambda tag: cat)
    assert main(["verify", "A2", "--m", "1", "bijection"]) == 1
    assert "FAIL  k=2: inverse round trips\n" in capsys.readouterr().out


@pytest.mark.parametrize("tag,m", [("A3", 2), ("D4", 1)])
def test_duality_suite(tag, m):
    _assert_ok(verify_duality(category(tag), m))


@pytest.mark.parametrize("tag,m", [("A3", 1), ("D4", 1)])
def test_mutation_suite(tag, m):
    _assert_ok(verify_mutation(category(tag), m))


@pytest.mark.parametrize("tag,arrows", [
    pytest.param(tag, arrows, id="-".join([tag] + [f"{u}>{v}" for u, v in arrows]))
    for tag in ("A3", "D4") for arrows in orientations(tag)])
def test_every_suite_passes_in_every_orientation(tag, arrows):
    # the bijection holds for every hereditary algebra, so every orientation
    # passes; the suites run on the category they are handed
    cat = RepCategory(build_quiver(build_diagram(tag), arrows))
    assert cat.quiver.arrows == arrows
    for m in (0, 1, 2):
        report = verify_all(cat, m)
        _assert_ok(report)
        assert report.title == f"all suites for {tag}, m={m}"


def test_the_suites_look_up_no_category():
    assert not hasattr(verify, "category")


def test_product_algebra_end_to_end():
    # disconnected quivers run through the whole stack
    _assert_ok(verify_all(category("A2xA1"), 1))


def test_suite_table_names():
    assert set(SUITES) == {"counting", "bijection", "duality", "mutation", "all"}


def test_report_lines_format():
    report = verify_counting(build_diagram("A1"))
    lines = report.lines()
    assert lines[-1].startswith("PASS")
    assert all(line.startswith(("PASS", "FAIL")) for line in lines)


def test_a_corrupted_pairing_fails_the_duality_and_mutation_suites():
    # both suites pair through the kernels that read the pairing matrix; one
    # wrong entry (here <S1, P1> on a fresh A2, after its cluster table is
    # built) must surface as FAIL lines, not pass unseen
    cat = RepCategory(build_quiver(build_diagram("A2")))
    table = cluster_table(cat, 1)
    cat.pairings[cat.root_id[(1, 0)]][cat.root_id[(1, 1)]] += 1
    for suite in (verify_duality, verify_mutation):
        report = suite(cat, 1, table)
        assert not report.ok
        assert any("duality pairing failed" in c.detail for c in report.checks)


def test_mutation_suite_names_positions_one_based(monkeypatch):
    # a seeded fault in each of the two checks that name a move
    cat, m = category("A2"), 1
    ordered, comps = next(iter(cluster_table(cat, m).values()))  # ids
    k, direction, _, _ = next(mutation_moves(cat, m, ordered, comps))
    with monkeypatch.context() as patch:
        patch.setattr(verify, "_mutate", lambda *args: ())
        detail = verify_mutation(cat, m).checks[0].detail
    assert detail == f"round trip failed at k={k + 1}, {direction}"

    def unmoved(cat, m, ordered, comps):
        for k, direction, new_comps, _ in mutation_moves(cat, m, ordered, comps):
            yield k, direction, new_comps, ordered

    with monkeypatch.context() as patch:
        patch.setattr(verify, "mutation_moves", unmoved)
        detail = verify_mutation(cat, m).checks[0].detail
    assert detail == f"rederived configuration differs at k={k + 1}, {direction}"
    assert k == 0 and verify_mutation(cat, m).ok


@pytest.mark.parametrize("tag,m", [("A3", "2"), ("D4", "1")])
def test_verify_all_prints_the_four_suites(capsys, tag, m):
    # one shared cluster table changes nothing in what `all` reports
    outputs = {}
    for suite in ("counting", "bijection", "duality", "mutation", "all"):
        assert main(["verify", tag, "--m", m, suite]) == 0
        outputs[suite] = capsys.readouterr().out.splitlines()
    assert outputs.pop("all") == [line for lines in outputs.values() for line in lines[:-1]] + [
        f"PASS  all suites for {tag}, m={m}"]


def test_the_suites_read_an_integral_m_as_its_int():
    a2 = category("A2")
    assert verify_all(a2, Fraction(1)).lines() == verify_all(a2, 1).lines()
    for suite in (verify_bijection, verify_duality, verify_mutation):
        assert suite(a2, 1.0).lines() == suite(a2, 1).lines()


@pytest.mark.parametrize("m", [1.5, "1", None])
@pytest.mark.parametrize("call", [
    verify_bijection, verify_duality, verify_mutation, verify_all,
], ids=["bijection", "duality", "mutation", "all"])
def test_the_suites_parse_m(call, m):
    message = f"^shift parameter m {re.escape(repr(m))} is not an integer$"
    with pytest.raises(InputError, match=message):
        call(category("A2"), m)
