"""Command-line surface.

    excseq count A2 --m 2
    excseq enumerate A2 --m 1 clusters
    excseq enumerate A3 exc-seqs
    excseq verify A3 --m 2 bijection
    excseq mutate A2 --m 1 --cluster cluster.json --k 2 --dir -
    excseq graph A2 --m 1 --out exchange.gv

Exit codes: 0 success, 1 verification failure, 2 invalid input.
Output is deterministic: identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import partial
from pathlib import Path

from . import counting
from .configs import cluster_table, exchange_graph, mutate, order_cluster
from .dynkin import DynkinDiagram, build_diagram
from .errors import (ExcseqError, InputError, InternalConsistencyError,
                     UnsupportedFeatureError, VerificationError)
from .repengine import RepCategory, category
from .serialize import (cluster_from_dict, cluster_to_dict, configuration_to_dict,
                        dumps_canonical, exc_sequence_to_dict, sequence_to_dict)
from .shiftcat import decode, enumerate_clusters
from .verify import SUITES, verify_counting
from .wide import marked_exc_sequences
from .bijection import m_exc_sequences

M_LIMIT = 6
ENUM_M_LIMIT = 3
COUNT_RANK_LIMIT = 8
ENUM_RANK_LIMIT = 6


def _write(text: str, out: str | None) -> None:
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise InputError(f"cannot write {out!r}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _resolve_tag(args) -> str:
    tag = getattr(args, "type_opt", None) or args.type_tag
    if not tag:
        raise InputError("missing Dynkin type tag")
    return tag


def _resolve_tag_and_word(args, choices, flag_value, what: str):
    """Untangle the type tag from a keyword positional, whichever order."""
    tokens = list(getattr(args, "tokens", []) or [])
    word = flag_value or next((t for t in tokens if t in choices), None)
    if word is None:
        raise InputError(f"missing {what}; expected one of {', '.join(sorted(choices))}")
    rest = [t for t in tokens if t != word]
    tag = getattr(args, "type_opt", None) or (rest[0] if rest else None)
    if not tag:
        raise InputError("missing Dynkin type tag")
    if len(rest) > 1:
        raise InputError(f"unexpected extra arguments: {rest[1:]}")
    return tag, word


def _diagram(args, tag: str, rank_limit: int, m_limit: int) -> DynkinDiagram:
    """The diagram of tag, if it and --m are within the command's limits."""
    diagram, m, max_rank = build_diagram(tag), args.m, args.max_rank
    if max_rank is not None and max_rank < 1:
        raise InputError(f"--max-rank must be at least 1, got {max_rank}")
    cap = rank_limit if max_rank is None else min(rank_limit, max_rank)
    if diagram.rank > cap:
        raise InputError(f"rank {diagram.rank} exceeds the limit {cap} for this command")
    if not 0 <= m <= m_limit:
        raise InputError(f"m={m} outside the supported range 0..{m_limit}")
    return diagram


def _category(args, tag: str, rank_limit: int, m_limit: int, refusal: str) -> RepCategory:
    """The category of tag within the command's limits, built once and handed
    down; a valued type has no quiver and is refused with the message refusal."""
    diagram = _diagram(args, tag, rank_limit, m_limit)
    if not diagram.is_simply_laced:
        raise UnsupportedFeatureError(refusal)
    return category(diagram.type_tag)


def cmd_count(args) -> int:
    tag = _resolve_tag(args)
    diagram = _diagram(args, tag, COUNT_RANK_LIMIT, M_LIMIT)
    e = counting.count_complete_exc_sequences(diagram)
    f = counting.rel_proj_poly(diagram)
    g = counting.m_sequence_poly(diagram)
    identity = counting.m_count_identity_holds(diagram)
    rows = [(m, int(g(m)), counting.fomin_reading_count(diagram, m))
            for m in range(args.m + 1)]
    if args.format == "json":
        payload = {
            "type": diagram.type_tag,
            "rank": diagram.rank,
            "e": e,
            "f_coeffs": list(f.coeffs),
            "g_coeffs": list(g.coeffs),
            "identity_g_equals_factorial_product": identity,
            "real_roots_in_unit_interval": counting.real_root_check(g),
            "per_m": [{"m": m, "g": gv, "p": pv} for m, gv, pv in rows],
        }
        _write(dumps_canonical(payload), args.out)
    elif args.format == "csv":
        lines = ["m,g,p"] + [f"{m},{gv},{pv}" for m, gv, pv in rows]
        _write("\n".join(lines) + "\n", args.out)
    else:
        lines = [
            f"type {diagram.type_tag}  rank {diagram.rank}",
            f"complete exceptional sequences: {e}",
            f"f(x) = {f}",
            f"g(m) = {g}",
            f"identity g(m) == n! * prod((h*m + d_i)/d_i): {'OK' if identity else 'FAILED'}",
            "m  g(m)  p(m)",
        ]
        lines += [f"{m}  {gv}  {pv}" for m, gv, pv in rows]
        _write("\n".join(lines) + "\n", args.out)
    return 0 if identity else 1


def _spaced(objects) -> str:
    return " ".join(map(str, objects))


def cmd_enumerate(args) -> int:
    tag, what = _resolve_tag_and_word(
        args, {"clusters", "exc-seqs", "m-exc-seqs", "configs"}, None,
        "enumeration kind")
    cat = _category(args, tag, ENUM_RANK_LIMIT, ENUM_M_LIMIT,
                    f"enumeration needs a simply-laced type, got {tag}")
    diagram, m = cat.quiver.diagram, args.m
    g = counting.m_sequence_poly(diagram)
    # each kind gives its items and how to write one as a JSON record or a text line
    if what == "clusters":
        items = enumerate_clusters(cat, m)
        record, text = partial(cluster_to_dict, m), _spaced
        expected = int(g(m)) // math.factorial(cat.n)
    elif what == "exc-seqs":
        items = marked_exc_sequences(cat)
        label = {r: "(" + ",".join(map(str, r)) + ")" for r in cat.roots}

        def record(s):
            return exc_sequence_to_dict(s.terms, s.rel_proj_flags)

        def text(s):
            return (" ".join(label[t] for t in s.terms) + "  rp="
                    + "".join("T" if b else "F" for b in s.rel_proj_flags))

        expected = counting.count_complete_exc_sequences(diagram)
    elif what == "m-exc-seqs":
        items = m_exc_sequences(cat, m, cat.n)
        record, text = partial(sequence_to_dict, m), _spaced
        expected = int(g(m))
    elif what == "configs":
        items = [decode(cat, comps) for _, comps in cluster_table(cat, m).values()]
        record, text = partial(configuration_to_dict, m), _spaced
        expected = int(g(m)) // math.factorial(cat.n)
    else:  # pragma: no cover - argparse restricts choices
        raise InputError(f"unknown enumeration kind {what!r}")
    count = len(items)
    if args.format == "json":
        payload = {"type": diagram.type_tag, "m": m, "kind": what,
                   "count": count, "records": [record(x) for x in items]}
        _write(dumps_canonical(payload), args.out)
    else:
        header = f"# {diagram.type_tag} m={m} {what} count={count}"
        _write("\n".join([header] + [text(x) for x in items]) + "\n", args.out)
    if count != expected:
        print(f"count mismatch: enumerated {count}, formula predicts {expected}",
              file=sys.stderr)
        return 1
    return 0


def cmd_verify(args) -> int:
    tag, suite = _resolve_tag_and_word(
        args, set(SUITES), args.suite_opt, "verification suite")
    if suite == "counting":  # valued types included, so on the diagram alone
        report = verify_counting(_diagram(args, tag, COUNT_RANK_LIMIT, ENUM_M_LIMIT))
    else:
        report = SUITES[suite](_category(args, tag, ENUM_RANK_LIMIT, ENUM_M_LIMIT,
                                         f"suite {suite!r} needs a simply-laced type"), args.m)
    _write("\n".join(report.lines()) + "\n", args.out)
    return 0 if report.ok else 1


def _load_cluster_payload(raw: str):
    """--cluster as inline JSON, @PATH, or the path of an existing file."""
    path = raw.strip()[1:] if raw.strip().startswith("@") else None
    if path is None:
        try:
            json.loads(raw)
        except json.JSONDecodeError:
            if not Path(raw).exists():
                raise InputError(f"--cluster is neither JSON nor a readable file: {raw!r}")
            path = raw
    try:
        return json.loads(raw if path is None else Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid cluster JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise InputError(f"cannot read {path!r}: {reason}") from exc


def cmd_mutate(args) -> int:
    cat = _category(args, _resolve_tag(args), ENUM_RANK_LIMIT, M_LIMIT,
                    "mutation needs a simply-laced type")
    m, objects = cluster_from_dict(cat, _load_cluster_payload(args.cluster), args.m)
    direction = {"plus": "+", "minus": "-", "+": "+", "-": "-"}.get(args.dir)
    if direction is None:
        raise InputError(f"--dir must be one of +, -, plus, minus; got {args.dir!r}")
    ordered = order_cluster(cat, m, objects)
    if not 1 <= args.k <= cat.n:
        raise InputError(f"--k must be in 1..{cat.n} (position in the ordered cluster)")
    result = mutate(cat, m, ordered, args.k - 1, direction)
    payload = {
        "type": cat.quiver.diagram.type_tag,
        "m": m,
        "k": args.k,
        "dir": direction,
        "cluster": cluster_to_dict(m, result.ordered),
        "configuration": configuration_to_dict(m, result.configuration),
        "mutated_cluster": cluster_to_dict(m, result.mutated_ordered),
        "mutated_configuration": configuration_to_dict(m, result.mutated_configuration),
    }
    _write(dumps_canonical(payload), args.out)
    return 0


def cmd_graph(args) -> int:
    cat = _category(args, _resolve_tag(args), ENUM_RANK_LIMIT, ENUM_M_LIMIT,
                    "the exchange graph needs a simply-laced type")
    nodes, edges = exchange_graph(cat, args.m)
    type_tag = cat.quiver.diagram.type_tag
    if args.format == "json":
        payload = {
            "type": type_tag,
            "m": args.m,
            "nodes": [cluster_to_dict(args.m, c) for c in nodes],
            "edges": [{"from": a, "to": b, "k": k + 1, "dir": d}
                      for a, b, k, d in edges],
        }
        _write(dumps_canonical(payload), args.out)
    else:
        lines = [f"digraph exchange_{type_tag}_m{args.m} {{"]
        for i, cluster in enumerate(nodes):
            label = " ".join(str(o) for o in cluster)
            lines.append(f'  c{i} [label="{label}"];')
        for a, b, k, d in edges:
            lines.append(f'  c{a} -> c{b} [label="k={k + 1},{d}"];')
        lines.append("}")
        _write("\n".join(lines) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="excseq",
        description="Exact engine for exceptional sequences, shifted clusters, "
                    "tropical duality and slope-vector mutation over Dynkin quivers.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, default_m=1, positional=True):
        if positional:
            p.add_argument("type_tag", nargs="?", help="Dynkin type tag, e.g. A3 or A2xA1")
        p.add_argument("--type", dest="type_opt", help="alternative to the positional tag")
        p.add_argument("--m", type=int, default=default_m, help="shift parameter")
        p.add_argument("--out", help="write the output to this file")
        p.add_argument("--max-rank", type=int, default=None,
                       help="tighten the rank limit for this command")

    p = sub.add_parser("count", help="counting tables and identities")
    common(p, default_m=2)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("enumerate", help="dump clusters, sequences or configurations")
    common(p, positional=False)
    p.add_argument("tokens", nargs="*", metavar="TYPE WHAT",
                   help="type tag plus one of: clusters, exc-seqs, m-exc-seqs, configs")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("verify", help="run a verification suite")
    common(p, positional=False)
    p.add_argument("tokens", nargs="*", metavar="TYPE SUITE",
                   help="type tag plus one of: counting, bijection, duality, mutation, all")
    p.add_argument("--suite", dest="suite_opt",
                   choices=("counting", "bijection", "duality", "mutation", "all"))
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("mutate", help="mutate one cluster entry")
    common(p)
    p.add_argument("--cluster", required=True,
                   help="cluster JSON (inline, @file, or a path)")
    p.add_argument("--k", type=int, required=True,
                   help="1-based position in the canonically ordered cluster")
    p.add_argument("--dir", required=True, help="+ / - (or plus / minus)")
    p.set_defaults(fn=cmd_mutate)

    p = sub.add_parser("graph", help="export the exchange graph")
    common(p)
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.set_defaults(fn=cmd_graph)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    stray_flags = [t for t in extra if t.startswith("-")]
    if stray_flags:
        parser.error(f"unrecognized arguments: {' '.join(stray_flags)}")
    if extra:
        # positionals that trailed an option, e.g. `enumerate A2 --m 1 clusters`
        tokens = list(getattr(args, "tokens", []) or []) + extra
        if hasattr(args, "tokens"):
            args.tokens = tokens
        elif getattr(args, "type_tag", None) is None and len(extra) == 1:
            args.type_tag = extra[0]
        else:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.fn(args)
    except (InputError, UnsupportedFeatureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (VerificationError, InternalConsistencyError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except ExcseqError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
