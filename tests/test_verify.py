import pytest

from excseq import category, verify
from excseq.cli import main
from excseq.configs import cluster_table, mutation_moves
from excseq.repengine import RepCategory
from excseq.verify import (SUITES, verify_all, verify_bijection, verify_counting,
                           verify_duality, verify_mutation)


def _assert_ok(report):
    assert report.ok, [(c.label, c.detail) for c in report.checks if not c.ok]


@pytest.mark.parametrize("tag", ["A2", "A3", "B4", "F4"])
def test_counting_suite(tag):
    _assert_ok(verify_counting(tag))


@pytest.mark.parametrize("tag,m", [("A2", 2), ("A3", 1), ("D4", 1)])
def test_bijection_suite(tag, m):
    _assert_ok(verify_bijection(tag, m))


@pytest.mark.parametrize("tag,m", [("A3", 2), ("D4", 1)])
def test_duality_suite(tag, m):
    _assert_ok(verify_duality(tag, m))


@pytest.mark.parametrize("tag,m", [("A3", 1), ("D4", 1)])
def test_mutation_suite(tag, m):
    _assert_ok(verify_mutation(tag, m))


def test_product_algebra_end_to_end():
    # disconnected quivers run through the whole stack
    _assert_ok(verify_all("A2xA1", 1))


def test_suite_table_names():
    assert set(SUITES) == {"counting", "bijection", "duality", "mutation", "all"}


def test_report_lines_format():
    report = verify_counting("A1")
    lines = report.lines()
    assert lines[-1].startswith("PASS")
    assert all(line.startswith(("PASS", "FAIL")) for line in lines)


def test_a_corrupted_pairing_fails_the_duality_and_mutation_suites(monkeypatch):
    # both suites pair through the table-reading kernels; one wrong entry
    # (here <S1, P1> on A2) must surface as FAIL lines, not pass unseen
    pairing = RepCategory.pairing

    def corrupted(self, a, b):
        return pairing(self, a, b) + ((a, b) == ((1, 0), (1, 1)))

    monkeypatch.setattr(RepCategory, "pairing", corrupted)
    for suite in (verify_duality, verify_mutation):
        report = suite("A2", 1)
        assert not report.ok
        assert any("duality pairing failed" in c.detail for c in report.checks)


def test_mutation_suite_names_positions_one_based(monkeypatch):
    # a seeded fault in each of the two checks that name a move
    cat, m = category("A2"), 1
    ordered, comps = next(iter(cluster_table(cat, m).values()))
    k, direction, _, _ = next(mutation_moves(cat, m, ordered, comps))
    with monkeypatch.context() as patch:
        patch.setattr(verify, "_mutate", lambda *args: ())
        detail = verify_mutation("A2", m).checks[0].detail
    assert detail == f"round trip failed at k={k + 1}, {direction}"

    def unmoved(cat, m, ordered, comps):
        for k, direction, new_comps, _ in mutation_moves(cat, m, ordered, comps):
            yield k, direction, new_comps, ordered

    with monkeypatch.context() as patch:
        patch.setattr(verify, "mutation_moves", unmoved)
        detail = verify_mutation("A2", m).checks[0].detail
    assert detail == f"rederived configuration differs at k={k + 1}, {direction}"
    assert k == 0 and verify_mutation("A2", m).ok


@pytest.mark.parametrize("tag,m", [("A3", "2"), ("D4", "1")])
def test_verify_all_prints_the_four_suites(capsys, tag, m):
    # one shared cluster table changes nothing in what `all` reports
    outputs = {}
    for suite in ("counting", "bijection", "duality", "mutation", "all"):
        assert main(["verify", tag, "--m", m, suite]) == 0
        outputs[suite] = capsys.readouterr().out.splitlines()
    assert outputs.pop("all") == [line for lines in outputs.values() for line in lines[:-1]] + [
        f"PASS  all suites for {tag}, m={m}"]
