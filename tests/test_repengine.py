from fractions import Fraction
from functools import lru_cache

import pytest

from excseq import (InputError, InternalConsistencyError, PairCase, build_diagram,
                    build_quiver, category, classify_pair, perp)
from excseq.repengine import RepCategory

from conftest import P1, S1, S2, orientations, tags_up_to_rank
from oracle import ReflectionOracle, euler, inverse, mat, matmul


@lru_cache(maxsize=None)
def oracle(tag: str, arrows=None) -> ReflectionOracle:
    """One oracle per category, so its memos are shared across tests."""
    if arrows is None:
        return ReflectionOracle(category(tag))
    return ReflectionOracle(RepCategory(build_quiver(build_diagram(tag), arrows)))


def test_simple_module():
    rep = oracle("A2").rep(S2)
    assert rep.dims == S2
    assert rep.maps[0].nrows == 1 and rep.maps[0].ncols == 0


def test_sincere_a2_module():
    rep = oracle("A2").rep(P1)
    assert rep.dims == P1
    (entry,), = rep.maps[0].rows
    assert entry != 0  # 1x1 arrow map must be invertible


def test_sincere_a3_module():
    rep = oracle("A3").rep((1, 1, 1))
    for m in rep.maps:
        assert m.nrows == 1 and m.ncols == 1 and m.rows[0][0] != 0


def test_rep_rejects_non_roots():
    with pytest.raises(InputError):
        oracle("A2").rep((2, 1))


def test_rep_keeps_only_checked_modules(a2, monkeypatch):
    # a module that fails the Schurian/rigid check must not be memoised, so
    # asking for it again rebuilds it and fails again
    def fail(self, module):
        raise InternalConsistencyError(f"module at {module.dims} is not Schurian")

    monkeypatch.setattr(ReflectionOracle, "_verify_exceptional", fail)
    fresh = ReflectionOracle(a2)
    for _ in range(2):
        with pytest.raises(InternalConsistencyError, match="not Schurian"):
            fresh.rep(P1)
    monkeypatch.undo()
    assert fresh.rep(P1).dims == P1


def test_check_root_refuses_non_integral_entries(a2):
    # int() would truncate these to (1, 0); integral Fraction entries stay accepted
    with pytest.raises(InputError):
        a2.check_root((1.9, 0))
    with pytest.raises(InputError):
        a2.hom((1.9, 0), (1, 1))
    with pytest.raises(InputError):
        perp(a2, [(1.5, 0)])
    assert a2.check_root((Fraction(1), 0)) == (1, 0)
    assert type(a2.check_root((Fraction(1), 0.0))[1]) is int


def test_hom_values(a2):
    assert a2.hom(S2, P1) == 1  # socle inclusion
    assert a2.hom(P1, S2) == 0
    for r in a2.roots:
        assert a2.hom(r, r) == 1


def test_ext_values(a2):
    assert a2.ext(S1, S2) == 1
    for r in a2.roots:
        assert a2.ext(r, r) == 0
    for r in a2.roots:
        assert a2.ext(P1, r) == 0  # projective


@pytest.mark.parametrize("tag", ["A2", "A3", "D4", "E6"])
def test_euler_consistency(tag):
    cat = category(tag)
    for a in cat.roots:
        for b in cat.roots:
            assert cat.hom(a, b) - cat.ext(a, b) == euler(cat, a, b)


@pytest.mark.parametrize("tag", tags_up_to_rank(6))
def test_pairing_matches_the_euler_form(tag):
    # the table is the matrix of pairings over root ids; a negated root (a
    # c-vector or a signed dimension vector) pairs to minus the entry
    cat = category(tag)
    for i, a in enumerate(cat.roots):
        neg = tuple(-x for x in a)
        for j, b in enumerate(cat.roots):
            assert cat.pairings[i][j] == euler(cat, a, b) == -euler(cat, neg, b)
    with pytest.raises(InputError, match="non-integer entry"):
        euler(cat, (0.5,) * cat.n, cat.roots[0])


def test_euler_matches_the_double_sum(d4):
    # c-vectors are signed roots, so both signs of every root are paired
    signed = [r for root in d4.roots for r in (root, tuple(-x for x in root))]
    n, e = d4.n, d4.E
    for x in signed:
        for y in signed:
            assert euler(d4, x, y) == sum(x[i] * e[i][j] * y[j]
                                         for i in range(n) for j in range(n))


def test_euler_refuses_non_integral_entries(a2):
    # int() would truncate (1.9, 0) to (1, 0), whose pairing with (1, 0) is 1
    with pytest.raises(InputError):
        euler(a2, (1.9, 0), (1, 0))
    with pytest.raises(InputError):
        euler(a2, (1, 0), (0, Fraction(1, 2)))
    with pytest.raises(InputError):
        euler(a2, (1, 0), (1, 0, 0))
    assert euler(a2, (Fraction(1), 0), (1, 0)) == 1


def test_is_projective(a2):
    assert set(a2.projective_roots) == {P1, S2}  # S2 is the simple at the sink


def test_sink_simples_projective(a3):
    # vertex 2 is the sink of 0 -> 1 -> 2
    assert (0, 0, 1) in a3.projective_roots


def test_approximation_mono():
    appr = oracle("A2").approximation(S2, P1)
    assert (appr.multiplicity, appr.kind, appr.complement) == (1, "mono", S1)


def test_approximation_epi():
    appr = oracle("A2").approximation(P1, S1)
    assert (appr.multiplicity, appr.kind, appr.complement) == (1, "epi", S2)


def test_approximation_needs_maps():
    with pytest.raises(InputError):
        oracle("A2").approximation(P1, S2)


def test_approximation_exact_sequence(a3):
    # mono case rebuilds 0 -> X -> T^s -> Y -> 0 on dimension vectors
    for x in a3.roots:
        for t in a3.roots:
            if x == t or a3.hom(t, x) or a3.ext(t, x) or not a3.hom(x, t):
                continue
            appr = oracle("A3").approximation(x, t)
            if appr.kind == "mono":
                assert all(appr.multiplicity * tv - xv == cv
                           for xv, tv, cv in zip(x, t, appr.complement))


@pytest.mark.parametrize("tag", ["A1", "A2", "A3", "A4", "A5", "A6", "D4", "D5", "D6", "E6"])
def test_every_indecomposable_is_exceptional(tag):
    cat = category(tag)
    for beta in cat.roots:
        rep = oracle(tag).rep(beta)  # construction verifies Schurian + rigid
        assert rep.dims == beta
        for idx, (s, t) in enumerate(cat.quiver.arrows):
            assert rep.maps[idx].nrows == beta[t]
            assert rep.maps[idx].ncols == beta[s]


def test_hom_basis_satisfies_intertwining(a3):
    for a, b in [((1, 1, 0), (1, 1, 1)), ((0, 1, 1), (0, 0, 1)), ((1, 1, 1), (1, 1, 1))]:
        space = oracle("A3").hom_basis(a, b)
        assert space.dimension == a3.hom(a, b) == len(space.basis)
        rep_a, rep_b = oracle("A3").rep(a), oracle("A3").rep(b)
        for phi in space.basis:
            for idx, (s, t) in enumerate(a3.quiver.arrows):
                left = matmul(phi[t], rep_a.maps[idx])
                right = matmul(rep_b.maps[idx], phi[s])
                assert left == right


def test_hom_respects_sink_reflection():
    # reflect A3 at its sink (vertex 2) and transport both modules
    diagram = build_diagram("A3")
    cat = category("A3")
    reflected = RepCategory(build_quiver(diagram, ((0, 1), (2, 1))))

    def reflect(root):
        out = list(root)
        out[2] = -root[2] + root[1]
        return tuple(out)

    unit = (0, 0, 1)
    for a in cat.roots:
        for b in cat.roots:
            if a == unit or b == unit:
                continue
            assert cat.hom(a, b) == reflected.hom(reflect(a), reflect(b))


TAGS_RANK6 = tags_up_to_rank(6)
ORACLE_CASES = ([(tag, None) for tag in TAGS_RANK6]
                + [(tag, arrows) for tag in ("A2", "A3", "A4", "D4")
                   for arrows in orientations(tag)])


def test_oracle_tag_set():
    assert len(TAGS_RANK6) == 37 and len(set(TAGS_RANK6)) == 37
    assert {"A1", "A1xA1xA1xA1xA1xA1", "D4xA2", "E6", "A3xA2xA1"} <= set(TAGS_RANK6)


ORACLE_IDS = [f"{t}-{a}" if a else t for t, a in ORACLE_CASES]


@pytest.mark.parametrize("tag,arrows", ORACLE_CASES, ids=ORACLE_IDS)
def test_closed_form_table_matches_linear_algebra(tag, arrows):
    # the table comes from the Euler form; hom_basis solves the intertwining
    # equations of the explicit representations
    orc = oracle(tag, arrows)
    cat = orc.cat
    for a in cat.roots:
        for b in cat.roots:
            dim = orc.hom_basis(a, b).dimension
            assert cat.hom(a, b) == dim, (a, b)
            assert cat.ext(a, b) == dim - euler(cat, a, b), (a, b)
    a, b = cat.roots[0], cat.roots[-1]
    assert cat.hom(list(a), list(b)) == cat.hom(a, b)
    assert cat.ext(list(b), list(a)) == cat.ext(b, a)
    a2 = category("A2")
    with pytest.raises(InputError):
        a2.hom((2, 1), (1, 0))
    with pytest.raises(InputError):
        a2.ext((1, 0), (2, 1))
    assert a2.hom([0, 1], [1, 1]) == 1 and a2.ext([1, 0], [0, 1]) == 1


@pytest.mark.parametrize("tag,arrows", ORACLE_CASES, ids=ORACLE_IDS)
def test_classify_pair_matches_the_approximation(tag, arrows):
    # classify_pair reads mono/epi off the table: with s = dim Hom(x, t), the
    # cokernel s*t - x or the kernel x - s*t must be a root; approximation
    # ranks the explicit diagonal map x -> t^s vertex by vertex
    orc = oracle(tag, arrows)
    cat = orc.cat
    for x in cat.roots:
        for t in cat.roots:
            if x == t or cat.hom(t, x) or cat.ext(t, x) or not cat.hom(x, t):
                continue
            s = cat.hom(x, t)
            case = classify_pair(cat, x, t)
            sign = 1 if case is PairCase.MONO else -1
            complement = tuple(sign * (s * b - a) for a, b in zip(x, t))
            assert orc.approximation(x, t) == (s, case.value, complement), (x, t)


@pytest.mark.parametrize("tag,arrows", ORACLE_CASES, ids=ORACLE_IDS)
def test_projective_roots_are_the_rows_of_the_inverse(tag, arrows):
    cat = oracle(tag, arrows).cat
    einv = inverse(mat(cat.E))
    assert cat.projective_roots == einv.rows
