"""Named verification sweeps, shared by the CLI and the test suite.

Each suite runs on the `RepCategory` its caller built, in any orientation;
`verify_all` hands its category and cluster table to every suite it runs.  The
suites parse m once (`counting.check_m`) and feed the library kernels object ids
they enumerated themselves, decoding ids only for labels.  The bijection suite
holds one bucket at a time, the tuples and sequences with last entry T (in id
order), runs k = 1..n in it, sums each check per k over the buckets and maps
through the trusted maps of `bijection`.  The duality and mutation suites read
one `configs.cluster_table`, which holds ids; the mutation suite moves through
the trusted `configs.mutation_moves`.  Every table a suite reads is checked
when built; a transport table checks there that it is a bijection onto the
objects compatible with its T[k] and that it preserves compatibility, so the
bijection suite's line on the transport maps holds once its tables are built.
"""

from __future__ import annotations

import math
from itertools import permutations
from typing import NamedTuple

from . import counting
from .bijection import _sequences, _to_sequences, _to_tuples
from .configs import (_frame, _garside, _horizontal, _mutate, _order, _valid_orders,
                      cluster_table, g_vector_check, mutation_moves)
from .dynkin import DynkinDiagram, build_quiver
from .errors import VerificationError
from .repengine import RepCategory
from .shiftcat import _compat_rows, _ids, compatible_subsets, decode, object_mask
from .wide import _edges, ambient, marked_exc_sequences, rel_proj_poly_enumerated


class Check(NamedTuple):
    label: str
    ok: bool
    detail: str = ""


class Report(NamedTuple):
    title: str
    checks: list[Check]  # mutable: `add` appends to it

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


def verify_counting(diagram: DynkinDiagram, cat: RepCategory | None = None) -> Report:
    """The counting identities of the diagram; a simply-laced one of rank <= 5 is
    also enumerated, in cat if given, else in its default orientation."""
    report = Report(f"counting suite for {diagram.type_tag}", [])
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
        cat = cat if cat is not None else RepCategory(build_quiver(diagram))
        seqs = marked_exc_sequences(cat)
        report.add("enumerated sequence count matches", len(seqs) == e_rec,
                   f"{len(seqs)} vs {e_rec}")
        listed = tuple(map([sum(s.rel_proj_flags) for s in seqs].count, range(cat.n + 1)))
        report.add("enumerated refinement polynomial matches",
                   listed == f.coeffs == rel_proj_poly_enumerated(cat).coeffs)
    return report


def verify_bijection(cat: RepCategory, m: int) -> Report:
    m = counting.check_m(m)
    report = Report(f"bijection suite for {cat.quiver.diagram.type_tag}, m={m}", [])
    scope = ambient(cat)
    rows, objects = _compat_rows(cat, m), object_mask(cat, scope, m)
    perps = {x: sub for x, sub, _ in _edges(cat, scope)}
    # per k: tuple and sequence counts, then the verdicts injective, image is
    # the sequence set, inverse round trips and deletion, over all buckets
    tally = [[0, 0, True, True, True, True] for _ in range(cat.n)]
    for t in _ids(objects):
        # the bucket of the tuples and sequences ending in t: both maps keep
        # the last entry, so a check holds iff it holds in every bucket
        t_perp, last, memo = perps[t % len(cat.roots)], {}, {}
        for k, counts in enumerate(tally, 1):
            tuples = [p + (t,) for s in compatible_subsets(cat, m, k - 1, scope, rows[t])
                      for p in permutations(s)]
            seqs = [s + (t,) for s in _sequences(cat, m, k - 1, t_perp, memo)]
            images = list(_to_sequences(cat, m, tuples, scope))
            image_set = set(images)
            counts[0] += len(tuples)
            counts[1] += len(seqs)
            counts[2] &= len(image_set) == len(images)
            counts[3] &= image_set == set(seqs)
            counts[4] &= all(map(tuple.__eq__, _to_tuples(cat, m, images, scope), tuples))
            # tup[1:] ends in t too, so it ran through the same map in the last round
            counts[5] &= all(last.get(tup[1:]) == img[1:] for tup, img in zip(tuples, images))
            last = dict(zip(tuples, images)) if k < cat.n else {}
    for k, (n_tuples, n_seqs, *verdicts) in enumerate(tally, 1):
        report.add(f"k={k}: counts agree", n_tuples == n_seqs,
                   f"{n_tuples} tuples vs {n_seqs} sequences")
        for label, ok in zip(("injective", "image is the sequence set", "inverse round trips",
                              "compatible with deleting the first entry")[:3 + (k >= 2)], verdicts):
            report.add(f"k={k}: {label}", ok)
    g = counting.m_sequence_poly(cat.quiver.diagram)
    # the last k above is n, so n_tuples counts the complete tuples
    report.add("complete tuple count matches the polynomial",
               n_tuples == g(m), f"{n_tuples} vs {g(m)}")
    # each table above checked, when it was built, that it is one
    report.add("every transport map is a compatibility-preserving bijection", True)
    return report


def verify_duality(cat: RepCategory, m: int, table: dict | None = None) -> Report:
    m = counting.check_m(m)
    report = Report(f"duality suite for {cat.quiver.diagram.type_tag}, m={m}", [])
    table = cluster_table(cat, m) if table is None else table
    expected = counting.fomin_reading_count(cat.quiver.diagram, m)
    report.add("cluster count matches the product formula",
               len(table) == expected, f"{len(table)} vs {expected}")
    for ordered, comps in table.values():
        label = " ".join(map(str, decode(cat, ordered)))
        try:
            frame = _frame(cat, m, ordered, comps)
            if not g_vector_check(frame):
                raise VerificationError("restated frame identity failed")
            hs = [_horizontal(cat, m, comps, s) for s in range(0, m)]
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
        scope = ambient(cat)
        report.add("configuration independent of the chosen order", all([
            len({frozenset(_garside(cat, m, o, scope)) for o in _valid_orders(cat, c)}) == 1
            for c in table]))
    return report


def verify_mutation(cat: RepCategory, m: int, table: dict | None = None) -> Report:
    m = counting.check_m(m)
    report = Report(f"mutation suite for {cat.quiver.diagram.type_tag}, m={m}", [])
    table, scope = cluster_table(cat, m) if table is None else table, ambient(cat)
    closed = True
    for ordered, comps in table.values():
        label = " ".join(map(str, decode(cat, ordered)))
        try:
            for k, direction, new_comps, new_ordered in mutation_moves(cat, m, ordered, comps):
                key = tuple(sorted(new_ordered))  # ids sort like objects
                closed = closed and key in table
                back = _mutate(cat, m, new_comps, k, "-" if direction == "+" else "+")
                if back != comps:
                    raise VerificationError(f"round trip failed at k={k + 1}, {direction}")
                # a cluster in the table rederives, ordered from its sorted ids, to the
                # configuration stored with it
                rederived = (table[key][1] if key in table
                             else _garside(cat, m, _order(cat, m, key), scope))
                if set(rederived) != set(new_comps):
                    raise VerificationError(
                        f"rederived configuration differs at k={k + 1}, {direction}")
            report.add(f"cluster {label}", True)
        except VerificationError as exc:
            report.add(f"cluster {label}", False, str(exc))
    report.add("exchange graph closes on the cluster set", closed,
               "a mutated cluster is not in the cluster set")
    return report


def verify_all(cat: RepCategory, m: int) -> Report:
    m = counting.check_m(m)
    report = Report(f"all suites for {cat.quiver.diagram.type_tag}, m={m}", [])
    table = cluster_table(cat, m)
    for sub in (verify_counting(cat.quiver.diagram, cat), verify_bijection(cat, m),
                verify_duality(cat, m, table), verify_mutation(cat, m, table)):
        report.checks.extend(sub.checks)
    return report


# every suite by name, on a category the caller built; the CLI runs `counting`
# on the bare diagram, since a valued type has no category
SUITES = {
    "counting": lambda cat, m: verify_counting(cat.quiver.diagram, cat),
    "bijection": verify_bijection,
    "duality": verify_duality,
    "mutation": verify_mutation,
    "all": verify_all,
}
