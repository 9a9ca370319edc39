"""Command-line front end.

Single-invocation batch tool; every command renders a list of records
either as TSV (default, header row first) or as JSON lines.  Identical
invocations produce byte-identical output.  Exit codes: 0 success,
1 verification failure, 2 invalid input, 3 resource bound exceeded.

Word arguments use digit strings with index 0 leftmost ("010010"); the
`demo-base` command works in ordinary most-significant-first notation
instead, matching everyday decimal writing.

Each command imports the modules it runs inside its own branch of
`dispatch`: a one-shot start pays for every module it loads, and compiles
each from source when no bytecode is cached, so `reduce` should not load
the verification suite.
"""

from __future__ import annotations

import argparse
import sys

from . import group
from .errors import CircfibError, ResourceBoundError
from .fibcore import format_word, parse_word
from .rewrite import normalize, orbit

Record = dict[str, str]


def render(records: list[Record], fmt: str) -> str:
    if fmt == "jsonlines":
        import json

        return "\n".join(json.dumps(r, sort_keys=False, separators=(", ", ": ")) for r in records)
    fields = list(records[0].keys()) if records else []
    lines = ["\t".join(fields)]
    lines += ["\t".join(r[f] for f in fields) for r in records]
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circfib",
        description="Circular-word arithmetic under the no-adjacent-ones constraint",
        allow_abbrev=False,
    )
    parser.add_argument("--format", choices=("tsv", "jsonlines"), default="tsv")
    parser.add_argument("--cache-dir", default=None, help="cache directory (or env CIRCFIB_CACHE)")
    parser.add_argument("--max-ell", type=int, default=None, help="override enumeration bound")
    parser.add_argument("--max-q", type=int, default=None, help="override order bound")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="normal form of a circular word")
    p.add_argument("word")

    p = sub.add_parser("orbit", help="equivalence orbit of a word, one member per line")
    p.add_argument("word")
    p.add_argument("--cap", type=int, default=10**6, help="state-count cap")
    p.add_argument("--digit-cap", type=int, default=None)

    p = sub.add_parser("add", help="group sum of two equal-length words")
    p.add_argument("lhs")
    p.add_argument("rhs")

    p = sub.add_parser("neg", help="group inverse of a word")
    p.add_argument("word")

    p = sub.add_parser("mul", help="integer multiple of a word")
    p.add_argument("k", type=int)
    p.add_argument("word")

    p = sub.add_parser("group", help="the group of admissible words of length 2*ell")
    p.add_argument("--ell", type=int, required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--list", action="store_true")
    mode.add_argument("--count", action="store_true")
    mode.add_argument("--structure", action="store_true")
    mode.add_argument("--table", action="store_true", help="full addition table (ell <= 4)")

    p = sub.add_parser("orderq", help="the group of words of order dividing q")
    p.add_argument("--q", type=int, required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--min-length", action="store_true")
    mode.add_argument("--pi", action="store_true")
    mode.add_argument("--elements", action="store_true")
    mode.add_argument("--verify", action="store_true")

    p = sub.add_parser("types", help="type partition of the group")
    p.add_argument("--ell", type=int, required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--partition", action="store_true")
    mode.add_argument("--image-sets", action="store_true")
    mode.add_argument("--verify", action="store_true")

    p = sub.add_parser("fibword", help="balanced partition of the infinite-word prefix")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--partition", action="store_true", required=True)

    p = sub.add_parser("wheel", help="spanning trees of the ell-wheel")
    p.add_argument("--ell", type=int, required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--count", action="store_true")
    mode.add_argument("--trees", action="store_true")
    mode.add_argument("--map", action="store_true")
    mode.add_argument("--verify-bijection", action="store_true")

    p = sub.add_parser("gcd-check", help="gcd compatibility of the d sequence")
    p.add_argument("--max", type=int, default=30)

    p = sub.add_parser("demo-base", help="multiples table of the period of 1/q in base b")
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--q", type=int, required=True)

    p = sub.add_parser("verify", help="run the full verification suite")
    return parser


def _tree_bits(indices, ell: int) -> str:
    return "".join("1" if i in indices else "0" for i in range(ell))


def _bound(value: int | None, default: int) -> int:
    # an explicit 0 is a bound too, and is refused downstream
    return default if value is None else value


def _cached_records(args, key: str, compute):
    from . import cache

    directory = args.cache_dir or cache.cache_dir_from_env()
    if directory is None:
        return compute()
    records = cache.cache_load(directory, key)
    if records is None:
        records = compute()
        cache.cache_store(directory, key, records)
    return records


def dispatch(args) -> tuple[list[Record], int]:
    if args.command == "reduce":
        w = parse_word(args.word)
        return [{"word": format_word(w), "normal_form": format_word(normalize(w))}], 0

    if args.command == "orbit":
        w = parse_word(args.word)
        result = orbit(w, args.digit_cap, args.cap)
        if result.truncated:
            print(f"warning: orbit truncated at {args.cap} states", file=sys.stderr)
        return [{"member": format_word(m)} for m in sorted(result.words)], 0

    if args.command == "add":
        lhs, rhs = parse_word(args.lhs), parse_word(args.rhs)
        return [
            {
                "lhs": format_word(lhs),
                "rhs": format_word(rhs),
                "sum": format_word(group.add(lhs, rhs)),
            }
        ], 0

    if args.command == "neg":
        w = parse_word(args.word)
        return [{"word": format_word(w), "negation": format_word(group.neg(w))}], 0

    if args.command == "mul":
        w = parse_word(args.word)
        return [
            {
                "k": str(args.k),
                "word": format_word(w),
                "product": format_word(group.scalar_mul(args.k, w)),
            }
        ], 0

    if args.command == "group":
        bound = _bound(args.max_ell, group.DEFAULT_ENUM_BOUND)
        if args.count:
            return [{"ell": str(args.ell), "order": str(len(group.enumerate_elements(args.ell, bound)))}], 0
        if args.list:
            key = f"group-elements:ell={args.ell}"
            records = _cached_records(
                args,
                key,
                lambda: [{"element": format_word(w)} for w in group.enumerate_elements(args.ell, bound)],
            )
            return records, 0
        if args.structure:
            s = group.decompose(args.ell, bound)
            return [
                {
                    "ell": str(args.ell),
                    "order": str(s.order),
                    "e1": str(s.invariant_factors[0]),
                    "e2": str(s.invariant_factors[1]),
                    "d": str(s.d),
                }
            ], 0
        if args.ell > 4:
            raise ResourceBoundError("addition table supported only for ell <= 4")
        elements = group.enumerate_elements(args.ell, bound)
        records = [
            {
                "lhs": format_word(u),
                "rhs": format_word(v),
                "sum": format_word(group.add(u, v)),
            }
            for u in elements
            for v in elements
        ]
        return records, 0

    if args.command == "orderq":
        from . import orderq

        bound = _bound(args.max_ell, orderq.DEFAULT_P_GROUP_BOUND)
        if args.min_length:
            return [{"q": str(args.q), "min_length": str(orderq.minimal_even_length(args.q))}], 0
        if args.pi:
            pi, pi_prime = orderq.pi_words(args.q)
            return [
                {"q": str(args.q), "pi": format_word(pi), "pi_prime": format_word(pi_prime)}
            ], 0
        if args.elements:
            return [
                {
                    "element": format_word(e.word),
                    "primitive_period": format_word(e.primitive),
                }
                for e in orderq.p_group(args.q, bound)
            ], 0
        report = orderq.verify_pi_multiples(args.q, bound)
        records = [
            {"check": "multiples", "status": "pass" if report.multiples_match else "fail"},
            {"check": "rotation", "status": "pass" if report.rotation_match else "fail"},
            {
                "check": "only-distinguished-pair",
                "status": "pass" if report.only_pi_pair_satisfies else "fail",
            },
        ]
        return records, 0 if report.ok else 1

    if args.command == "types":
        from . import typology

        bound = _bound(args.max_ell, group.DEFAULT_ENUM_BOUND)
        if args.partition:
            records = []
            for u in group.enumerate_elements(args.ell, bound):
                records.append({"element": format_word(u), "type": typology.classify(u)})
            return records, 0
        if args.image_sets:
            records = []
            classes = typology.type_classes(args.ell, bound)
            for tag, cmp in sorted(typology.image_sets(classes).items()):
                records.append(
                    {
                        "type": tag,
                        "computed": " ".join(map(str, sorted(cmp.computed))),
                        "formula": " ".join(map(str, sorted(cmp.formula))),
                        "offset": "" if cmp.offset is None else str(cmp.offset),
                    }
                )
            return records, 0
        ok = typology.sigma_relation_check(typology.type_classes(args.ell, bound))
        return [{"check": "rotation-maps-T10-onto-T01", "status": "pass" if ok else "fail"}], (
            0 if ok else 1
        )

    if args.command == "fibword":
        from . import typology

        blocks = typology.fib_partition(args.ell, _bound(args.max_ell, group.DEFAULT_ENUM_BOUND))
        return [
            {
                "index": str(b.index),
                "block": b.block,
                "a_count": str(b.a_count),
                "b_count": str(b.b_count),
            }
            for b in blocks
        ], 0

    if args.command == "wheel":
        from . import wheels

        bound = _bound(args.max_ell, group.DEFAULT_ENUM_BOUND)
        if args.count:
            return [
                {
                    "ell": str(args.ell),
                    "backtracking": str(len(wheels.spanning_trees(args.ell, bound))),
                    "determinant": str(wheels.count_trees_matrix(args.ell)),
                }
            ], 0
        if args.trees:
            return [
                {
                    "spokes": _tree_bits(t.spokes, args.ell),
                    "rims": _tree_bits(t.rims, args.ell),
                }
                for t in wheels.spanning_trees(args.ell, bound)
            ], 0
        if args.map:
            key = f"wheel-map:ell={args.ell}"

            def compute():
                records = []
                for t in wheels.spanning_trees(args.ell, bound):
                    raw = wheels.tree_to_word(t)
                    records.append(
                        {
                            "spokes": _tree_bits(t.spokes, args.ell),
                            "rims": _tree_bits(t.rims, args.ell),
                            "raw_word": format_word(raw),
                            "normal_form": format_word(normalize(raw)),
                        }
                    )
                return records

            return _cached_records(args, key, compute), 0
        report = wheels.identity_fiber_report(args.ell, bound)
        ok = report.bijective
        return [
            {
                "ell": str(args.ell),
                "tree_words": str(report.tree_word_count),
                "group_order": str(report.group_order),
                "identity_fiber": str(report.identity_fiber),
                "status": "pass" if ok else "fail",
            }
        ], 0 if ok else 1

    if args.command == "gcd-check":
        report = group.gcd_property_report(args.max)
        records = [
            {
                "check": f"gcd(d,{c.m},{c.n})",
                "lhs": str(c.lhs),
                "rhs": str(c.rhs),
                "status": "pass" if c.ok else "fail",
            }
            for c in report.pair_checks if c.m <= c.n
        ]
        records += [
            {
                "check": f"even-index d={c.m}",
                "lhs": str(c.lhs),
                "rhs": str(c.rhs),
                "status": "pass" if c.ok else "fail",
            }
            for c in report.even_index_checks
        ]
        return records, 0 if report.ok else 1

    if args.command == "demo-base":
        from . import baseb

        report = baseb.verify_cyclic_group(args.base, args.q)
        records = [
            {
                "i": str(i),
                "multiple": str(m),
                "status": "pass" if report.ok else "fail",
            }
            for i, m in enumerate(report.multiples, start=1)
        ]
        return records, 0 if report.ok else 1

    if args.command == "verify":
        from . import verify

        report = verify.run_verify(_bound(args.max_ell, 6), _bound(args.max_q, 6))
        records = [
            {
                "criterion": c.criterion,
                "subject": c.subject,
                "status": c.status,
                "detail": c.detail,
            }
            for c in report.claims
        ]
        return records, report.exit_code()

    raise CircfibError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        records, code = dispatch(args)
    except ResourceBoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (CircfibError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = render(records, args.format)
    if out:
        print(out)
    return code


def console_main() -> None:
    raise SystemExit(main())
