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

The disk cache (`--cache-dir` or env `CIRCFIB_CACHE`) holds one listing,
`wheel --map`, because only there does a warm hit repay the cold write:
at ell = 12, in fresh processes, `wheel --map` takes 1.43-1.50 s without
a cache and 0.34-0.36 s warm.  `group --list` computes its listing every
time: 0.34 s without a cache, against 0.41-0.48 s cold and 0.22-0.35 s
warm when it was cached.

The records that `dispatch` returns hold values (words, ints, bools,
strings, base-b words); `_text`, which `render` and the disk-cache store
use, is the one place where a value becomes text.  It prints words with
`fibcore._format_word`, which trusts them: every word in a record is one
that `parse_word` validated or the engine built.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import group
from .errors import CircfibError, ResourceBoundError
from .fibcore import _format_word, parse_word
from .rewrite import normalize, orbit

Record = dict[str, object]

# --max-ell's default for the group, types, fibword and wheel commands, which
# refuse a larger --ell; verify takes --max-ell as the depth of its ell rows,
# with its own default
DEFAULT_ENUM_BOUND = 10


def _text(value) -> str:
    """The one rule for printing a record value: a plain tuple is a word,
    printed by the trusting ``_format_word``, a bool is a check status,
    anything else (ints, BaseBWord) its str."""
    kind = type(value)
    if kind is str:  # first, because cached records are all text
        return value
    if kind is tuple:
        return _format_word(value)
    if kind is bool:
        return "pass" if value else "fail"
    return str(value)


def render(records: list[Record], fmt: str) -> str:
    if fmt == "jsonlines":
        import json

        return "\n".join(json.dumps({k: _text(v) for k, v in r.items()}) for r in records)
    lines = ["\t".join(records[0]) if records else ""]
    lines += ["\t".join(map(_text, r.values())) for r in records]
    return "\n".join(lines)


def _modes(parser, *flags):
    """A command's required choice of exactly one of the given mode flags."""
    modes = parser.add_mutually_exclusive_group(required=True)
    for flag in flags:
        modes.add_argument(flag, action="store_true")
    return modes


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
    p.add_argument("--cap", type=int, default=None, help="state-count cap")
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
    _modes(p, "--list", "--count", "--structure").add_argument(
        "--table", action="store_true", help="full addition table (ell <= 4)"
    )

    p = sub.add_parser("orderq", help="the group of words of order dividing q")
    p.add_argument("--q", type=int, required=True)
    _modes(p, "--min-length", "--pi", "--elements", "--verify")

    p = sub.add_parser("types", help="type partition of the group")
    p.add_argument("--ell", type=int, required=True)
    _modes(p, "--partition", "--image-sets", "--verify")

    p = sub.add_parser("fibword", help="balanced partition of the infinite-word prefix")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--partition", action="store_true", required=True)

    p = sub.add_parser("wheel", help="spanning trees of the ell-wheel")
    p.add_argument("--ell", type=int, required=True)
    _modes(p, "--count", "--trees", "--map", "--verify-bijection")

    p = sub.add_parser("gcd-check", help="gcd compatibility of the d sequence")
    p.add_argument("--max", type=int, default=30)

    p = sub.add_parser("demo-base", help="multiples table of the period of 1/q in base b")
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--q", type=int, required=True)

    p = sub.add_parser("verify", help="run the full verification suite")
    return parser


# the text of a tree word's spoke bits, and of its inverted rim bits
_SPOKE_TEXT = bytes.maketrans(b"\x00\x01", b"01")
_RIM_TEXT = bytes.maketrans(b"\x00\x01", b"10")


def _tree_bits(w) -> Record:
    """The spoke and rim sets of a tree word as 0/1 strings over the l indices."""
    w = bytes(w)
    return {
        "spokes": w[0::2].translate(_SPOKE_TEXT).decode(),
        "rims": w[1::2].translate(_RIM_TEXT).decode(),
    }


def dispatch(args) -> tuple[list[Record], int]:
    # the one check of --ell against the bound, before any other check on
    # --ell and before the disk cache; an explicit 0 is a bound too
    bound = DEFAULT_ENUM_BOUND if args.max_ell is None else args.max_ell
    if hasattr(args, "ell") and args.ell > bound:
        raise ResourceBoundError(f"ell={args.ell} exceeds enumeration bound {bound}")

    if args.command == "reduce":
        w = parse_word(args.word)
        return [{"word": w, "normal_form": normalize(w)}], 0

    if args.command == "orbit":
        # --cap only when given, so orbit keeps its own default
        cap = {} if args.cap is None else {"size_cap": args.cap}
        result = orbit(parse_word(args.word), args.digit_cap, **cap)
        if result.truncated:  # orbit stops with exactly size_cap states
            print(f"warning: orbit truncated at {len(result.words)} states", file=sys.stderr)
        return [{"member": m} for m in sorted(result.words)], 0

    if args.command == "add":
        lhs, rhs = parse_word(args.lhs), parse_word(args.rhs)
        return [{"lhs": lhs, "rhs": rhs, "sum": group.add(lhs, rhs)}], 0

    if args.command == "neg":
        w = parse_word(args.word)
        return [{"word": w, "negation": group.neg(w)}], 0

    if args.command == "mul":
        w = parse_word(args.word)
        return [{"k": args.k, "word": w, "product": group.scalar_mul(args.k, w)}], 0

    if args.command == "group":
        if args.count:
            return [{"ell": args.ell, "order": group.decompose(args.ell).order}], 0
        if args.list:
            return [{"element": w} for w in group.enumerate_elements(args.ell)], 0
        if args.structure:
            s = group.decompose(args.ell)
            e1, e2 = s.invariant_factors
            return [{"ell": args.ell, "order": s.order, "e1": e1, "e2": e2, "d": s.d}], 0
        if args.ell > 4:
            raise ResourceBoundError("addition table supported only for ell <= 4")
        elements = group.enumerate_elements(args.ell)
        return [{"lhs": u, "rhs": v, "sum": group.add(u, v)} for u in elements for v in elements], 0

    if args.command == "orderq":
        from . import orderq

        if args.min_length:
            return [{"q": args.q, "min_length": orderq.minimal_even_length(args.q)}], 0
        if args.pi:
            pi, pi_prime = orderq.pi_words(args.q)
            return [{"q": args.q, "pi": pi, "pi_prime": pi_prime}], 0
        if args.elements:
            return [
                {"element": w, "primitive_period": orderq.primitive_period(w)}
                for w in orderq.p_group(args.q)
            ], 0
        report = orderq.verify_pi_multiples(args.q)
        records = [
            {"check": "multiples", "status": report.multiples_match},
            {"check": "rotation", "status": report.rotation_match},
            {"check": "only-distinguished-pair", "status": report.only_pi_pair_satisfies},
        ]
        return records, 0 if report.ok else 1

    if args.command == "types":
        from . import typology

        if args.partition:
            return [
                {"element": u, "type": typology.classify(u)}
                for u in group.enumerate_elements(args.ell)
            ], 0
        if args.image_sets:
            classes = typology.type_classes(args.ell)
            return [
                {
                    "type": tag,
                    "computed": " ".join(map(str, sorted(cmp.computed))),
                    "formula": " ".join(map(str, sorted(cmp.formula))),
                    "offset": "" if cmp.offset is None else cmp.offset,
                }
                for tag, cmp in sorted(typology.image_sets(classes).items())
            ], 0
        ok = typology.sigma_relation_check(typology.type_classes(args.ell))
        return [{"check": "rotation-maps-T10-onto-T01", "status": ok}], 0 if ok else 1

    if args.command == "fibword":
        from . import typology

        blocks = typology.fib_partition(args.ell)
        return [b._asdict() for b in blocks], 0

    if args.command == "wheel":
        if args.map:
            from . import cache

            # the listing ceiling before the lookup, like the bound above: a warm
            # file never answers past it
            group.check_ceiling(args.ell, group.LISTING_CEILING, "listing")
            directory = args.cache_dir or os.environ.get(cache.ENV_VAR)  # "" means none
            key = f"wheel-map:ell={args.ell}"
            records = cache.cache_load(directory, key) if directory else None
            if records is None:
                from . import wheels  # only on a miss: a warm hit reads the file

                records = [
                    {**_tree_bits(w), "raw_word": w, "normal_form": normalize(w)}
                    for w in wheels.tree_words(args.ell)
                ]
                if directory:
                    records = [{k: _text(v) for k, v in r.items()} for r in records]
                    cache.cache_store(directory, key, records)
            return records, 0
        from . import wheels

        if args.count:
            return [
                {
                    "ell": args.ell,
                    "backtracking": len(wheels.spanning_trees(args.ell)),
                    "determinant": wheels.count_trees_matrix(args.ell),
                }
            ], 0
        if args.trees:
            return [_tree_bits(w) for w in wheels.tree_words(args.ell)], 0
        report = wheels.identity_fiber_report(args.ell)
        return [
            {
                "ell": args.ell,
                "tree_words": len(report.tree_words),
                "group_order": report.group_order,
                "identity_fiber": report.identity_fiber,
                "status": report.bijective,
            }
        ], 0 if report.bijective else 1

    if args.command == "gcd-check":
        report = group.gcd_property_report(args.max)
        records = [
            {"check": f"gcd(d,{c.m},{c.n})", "lhs": c.lhs, "rhs": c.rhs, "status": c.ok}
            for c in report.pair_checks if c.m <= c.n
        ]
        records += [
            {"check": f"even-index d={c.m}", "lhs": c.lhs, "rhs": c.rhs, "status": c.ok}
            for c in report.even_index_checks
        ]
        return records, 0 if report.ok else 1

    if args.command == "demo-base":
        from . import baseb

        report = baseb.verify_cyclic_group(args.base, args.q)
        records = [
            {"i": i, "multiple": m, "status": report.ok}
            for i, m in enumerate(report.multiples, start=1)
        ]
        return records, 0 if report.ok else 1

    if args.command == "verify":
        from . import verify

        # only the bounds given: the defaults live in run_verify alone
        bounds = {k: v for k in ("max_ell", "max_q") if (v := getattr(args, k)) is not None}
        report = verify.run_verify(**bounds)
        return [c._asdict() for c in report.claims], 0 if report.ok else 1

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
    # since Python 3.10.7 str() refuses ints above 4,300 digits (group orders
    # from ell = 10,288); lift that for printing only, not for parsing
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        out = render(records, args.format)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    if out:
        print(out)
    return code


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
