"""Named verification sweeps, shared by the CLI and the test suite.

The suites feed the library objects they enumerated themselves.  The bijection
suite maps them through the memoised internal maps of `bijection`, which trust
their input.  The duality and mutation suites read one `configs.cluster_table`
(`verify_all` builds it once for both); the mutation suite moves through the
trusted `configs.mutation_moves`, and every frame and exchange row pairs
roots through the Hom/Ext table.  Every table a suite reads is checked when built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import counting
from .bijection import (_sequence_to_tuple, _tuple_to_sequence, check_transport,
                        m_exc_sequences)
from .configs import (_mutate, all_valid_orders, cluster_table, duality_frame,
                      garside_configuration, g_vector_check, horizontal_subcat,
                      mutation_moves, order_cluster)
from .dynkin import build_diagram
from .errors import VerificationError
from .repengine import category
from .shiftcat import canonical_cluster, ordered_tuples, shifted_objects
from .wide import ambient, marked_exc_sequences, rel_proj_poly_enumerated


@dataclass
class Check:
    label: str
    ok: bool
    detail: str = ""


@dataclass
class Report:
    title: str
    checks: list[Check] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def add(self, label: str, ok: bool, detail: str = "") -> None:
        self.checks.append(Check(label, bool(ok), detail))

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            mark = "PASS" if c.ok else "FAIL"
            suffix = f"  [{c.detail}]" if c.detail and not c.ok else ""
            out.append(f"{mark}  {c.label}{suffix}")
        out.append(f"{'PASS' if self.ok else 'FAIL'}  {self.title}")
        return out


def verify_counting(tag: str) -> Report:
    report = Report(f"counting suite for {tag}")
    diagram = build_diagram(tag)
    e_rec = counting.count_complete_exc_sequences(diagram)
    e_closed = counting.count_closed_form(diagram)
    report.add("recursion equals closed form", e_rec == e_closed,
               f"{e_rec} vs {e_closed}")
    f = counting.rel_proj_poly(diagram)
    report.add("refinement polynomial sums to the count", f(1) == e_rec)
    g = counting.m_sequence_poly(diagram)
    report.add("shifted count at 0 is n!", g(0) == math.factorial(diagram.rank))
    report.add("shifted count vanishes at -1", g(-1) == 0)
    report.add("shifted count equals n! times the cluster product",
               counting.m_count_identity_holds(diagram))
    report.add("real roots confined to [-1, 0)", counting.real_root_check(g))
    if diagram.is_simply_laced and diagram.rank <= 5:
        cat = category(tag)
        seqs = marked_exc_sequences(cat)
        report.add("enumerated sequence count matches", len(seqs) == e_rec,
                   f"{len(seqs)} vs {e_rec}")
        report.add("enumerated refinement polynomial matches",
                   rel_proj_poly_enumerated(cat, seqs).coeffs == f.coeffs)
    return report


def verify_bijection(tag: str, m: int) -> Report:
    report = Report(f"bijection suite for {tag}, m={m}")
    cat = category(tag)
    diagram = cat.quiver.diagram
    scope = ambient(cat)
    # the suite enumerates its own tuples and takes the sequences from the
    # tables, so it maps them along the unchecked, memoised internal paths
    last: dict = {}
    for k in range(1, cat.n + 1):
        # a memo entry of rank r and length j is only reused while n - k = r - j
        to_seq, to_tup = {}, {}
        tuples = ordered_tuples(cat, m, k)
        seqs = m_exc_sequences(cat, m, k)
        images = [_tuple_to_sequence(cat, m, t, scope, to_seq) for t in tuples]
        report.add(f"k={k}: counts agree", len(tuples) == len(seqs),
                   f"{len(tuples)} tuples vs {len(seqs)} sequences")
        report.add(f"k={k}: injective", len(set(images)) == len(images))
        report.add(f"k={k}: image is the sequence set", set(images) == set(seqs))
        report.add(f"k={k}: inverse round trips",
                   all(_sequence_to_tuple(cat, m, img, scope, to_tup) == t
                       for t, img in zip(tuples, images)))
        if k >= 2:
            # t[1:] ran through the same map in the last round
            deletion_ok = all(last.get(t[1:]) == img[1:] for t, img in zip(tuples, images))
            report.add(f"k={k}: compatible with deleting the first entry", deletion_ok)
        if k < cat.n:
            last = dict(zip(tuples, images))
    g = counting.m_sequence_poly(diagram)
    # the last k above is n, so `tuples` holds the complete tuples
    report.add("complete tuple count matches the polynomial",
               len(tuples) == g(m), f"{len(tuples)} vs {g(m)}")
    transport_ok = True
    worst = ""
    for t_obj in shifted_objects(cat, None, m):
        r = check_transport(cat, m, t_obj)
        if not r.ok:
            transport_ok = False
            worst = f"{t_obj}: {r.violations[0]}"
    report.add("every transport map is a compatibility-preserving bijection",
               transport_ok, worst)
    return report


def verify_duality(tag: str, m: int, table: dict | None = None) -> Report:
    report = Report(f"duality suite for {tag}, m={m}")
    cat = category(tag)
    table = cluster_table(cat, m) if table is None else table
    expected = counting.fomin_reading_count(cat.quiver.diagram, m)
    report.add("cluster count matches the product formula",
               len(table) == expected, f"{len(table)} vs {expected}")
    for ordered, comps in table.values():
        label = " ".join(str(o) for o in ordered)
        try:
            frame = duality_frame(cat, m, ordered, comps)
            if not g_vector_check(frame):
                raise VerificationError("restated frame identity failed")
            hs = [horizontal_subcat(cat, m, comps, s) for s in range(0, m)]
            for a in hs:
                for b in hs:
                    if abs(a.slope - b.slope) >= 2 and set(a.objects) & set(b.objects):
                        raise VerificationError(
                            f"slope windows {a.slope} and {b.slope} overlap")
            report.add(f"cluster {label}", True)
        except VerificationError as exc:
            report.add(f"cluster {label}", False, str(exc))
    # configuration does not depend on the chosen valid order (small sweeps)
    if len(table) <= 20:
        stable = True
        for cluster in table:
            configs = {frozenset(garside_configuration(cat, m, o))
                       for o in all_valid_orders(cat, m, cluster)}
            if len(configs) != 1:
                stable = False
        report.add("configuration independent of the chosen order", stable)
    return report


def verify_mutation(tag: str, m: int, table: dict | None = None) -> Report:
    report = Report(f"mutation suite for {tag}, m={m}")
    cat = category(tag)
    table = cluster_table(cat, m) if table is None else table
    closed = True
    for ordered, comps in table.values():
        label = " ".join(str(o) for o in ordered)
        try:
            for k, direction, new_comps, new_ordered in mutation_moves(cat, m, ordered, comps):
                key = canonical_cluster(new_ordered)
                closed = closed and key in table
                back = _mutate(cat, m, new_comps, k, "-" if direction == "+" else "+")
                if back != comps:
                    raise VerificationError(f"round trip failed at k={k + 1}, {direction}")
                # order_cluster sorts its input, so a cluster in the table
                # rederives to the configuration stored with it
                rederived = (table[key][1] if key in table else
                             garside_configuration(cat, m, order_cluster(cat, m, key)))
                if set(rederived) != set(new_comps):
                    raise VerificationError(
                        f"rederived configuration differs at k={k + 1}, {direction}")
            report.add(f"cluster {label}", True)
        except VerificationError as exc:
            report.add(f"cluster {label}", False, str(exc))
    report.add("exchange graph closes on the cluster set", closed,
               "a mutated cluster is not in the cluster set")
    return report


def verify_all(tag: str, m: int) -> Report:
    report = Report(f"all suites for {tag}, m={m}")
    table = cluster_table(category(tag), m)
    for sub in (verify_counting(tag), verify_bijection(tag, m),
                verify_duality(tag, m, table), verify_mutation(tag, m, table)):
        report.checks.extend(sub.checks)
    return report


SUITES = {
    "counting": lambda tag, m: verify_counting(tag),
    "bijection": verify_bijection,
    "duality": verify_duality,
    "mutation": verify_mutation,
    "all": verify_all,
}
