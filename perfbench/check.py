"""Independent output checker for the benchmark.

Nothing here imports circfib.  A length-n word stands for the element
sum(d_i * phi^i) of Z[phi] modulo phi^n - 1; two words are the same group
element iff their pairs differ by a point of the lattice spanned by
nu = phi^n - 1 and nu * phi.  Every check returns None when the output is
right and a one-line reason when it is not.
"""

from __future__ import annotations

import json
from functools import lru_cache
from math import gcd

from gen import parse_text


@lru_cache(maxsize=None)
def lattice(n: int) -> tuple[int, int, int]:
    """(p, q, D): phi^n - 1 == p + q*phi, and D == p^2 + pq - q^2 its norm."""
    x, y = 1, 0
    for _ in range(n):
        x, y = y, x + y
    p, q = x - 1, y
    return p, q, p * p + p * q - q * q


def pair(word) -> tuple[int, int]:
    """(x, y) with sum(d_i * phi^i) == x + y*phi, by Horner's rule."""
    x = y = 0
    for d in reversed(word):
        x, y = y + d, x + y
    return x, y


def residue(xy: tuple[int, int], n: int) -> tuple[int, int]:
    """Canonical key of the class of (x, y) modulo the lattice."""
    p, q, det = lattice(n)
    x, y = xy
    m = abs(det)
    return ((x * (p + q) - y * q) % m, (y * p - x * q) % m)


def congruent(a: tuple[int, int], b: tuple[int, int], n: int) -> bool:
    return residue((a[0] - b[0], a[1] - b[1]), n) == (0, 0)


def group_order(ell: int) -> int:
    return abs(lattice(2 * ell)[2])


def d_param(ell: int) -> int:
    """Smaller invariant factor: the gcd of the lattice basis entries."""
    p, q, _ = lattice(2 * ell)
    return gcd(p, q)


def classical_fib(k: int) -> int:
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def fib(k: int) -> int:
    """circfib's convention F(0) = 1, F(1) = 2, i.e. the classical f(k + 2)."""
    return classical_fib(k + 2)


def valuation(word) -> int:
    return sum(d * fib(i) for i, d in enumerate(word) if d)


def element_problem(w, n: int) -> str | None:
    """Why w is not a canonical group element of length n, or None."""
    if len(w) != n:
        return f"length {len(w)}, want {n}"
    if any(d not in (0, 1) for d in w):
        return "digit other than 0/1"
    if any(w[i] and w[i - 1] for i in range(n)):
        return "cyclically adjacent ones"
    if not any(w):
        return "zero word"
    if w == (1, 0) * (n // 2):
        return "non-canonical identity (10)^l"
    return None


def elements(ell: int) -> list[tuple[int, ...]]:
    """All group elements of parameter ell in lexicographic order."""
    n = 2 * ell
    out = []
    word = [0] * n

    def rec(i: int) -> None:
        if i == n:
            if not (word[0] and word[-1]):
                out.append(tuple(word))
            return
        word[i] = 0
        rec(i + 1)
        if i == 0 or not word[i - 1]:
            word[i] = 1
            rec(i + 1)
            word[i] = 0

    rec(0)
    banned = (1, 0) * ell
    return [w for w in out if any(w) and w != banned]


def _scaled(xy: tuple[int, int], k: int) -> tuple[int, int]:
    return (k * xy[0], k * xy[1])


def _add(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    return (a[0] + b[0], a[1] + b[1])


def arith(op: tuple, out) -> str | None:
    """Check one arith-stream result: an element of the right length, in the
    expected residue class."""
    kind = op[0]
    n = len(op[-1])
    problem = element_problem(out, n)
    if problem:
        return f"{kind}: {problem}"
    if kind == "add":
        want = _add(pair(op[1]), pair(op[2]))
    elif kind == "neg":
        want = _scaled(pair(op[1]), -1)
    elif kind == "normalize":
        want = pair(op[1])
    else:
        want = _scaled(pair(op[2]), op[1])
    if not congruent(pair(out), want, n):
        return f"{kind}: wrong residue class at n={n}"
    return None


def parse_records(text: str, fmt: str) -> list[dict]:
    lines = [line for line in text.splitlines() if line]
    if fmt == "jsonlines":
        return [json.loads(line) for line in lines]
    if not lines:
        return []
    fields = lines[0].split("\t")
    rows = [line.split("\t") for line in lines[1:]]
    if any(len(row) != len(fields) for row in rows):
        raise ValueError("ragged TSV")
    return [dict(zip(fields, row)) for row in rows]


def _one(records: list[dict], keys: tuple[str, ...]) -> dict:
    if len(records) != 1 or tuple(records[0]) != keys:
        raise ValueError(f"want one record with fields {keys}")
    return records[0]


def _tree_problem(spokes: str, rims: str, ell: int) -> str | None:
    """Why the spoke/rim bit strings are not a spanning tree of the ell-wheel."""
    edges = [(ell, i) for i in range(ell) if spokes[i] == "1"]
    edges += [(i, (i + 1) % ell) for i in range(ell) if rims[i] == "1"]
    if len(edges) != ell or any(a == b for a, b in edges):
        return "wrong edge count"
    parent = list(range(ell + 1))

    def find(v: int) -> int:
        while parent[v] != v:
            v = parent[v]
        return v

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra == rb:
            return "cycle"
        parent[ra] = rb
    return None


def _fib_word(length: int) -> str:
    w = "a"
    while len(w) < length:
        w = "".join("ab" if c == "a" else "a" for c in w)
    return w[:length]


def _minimal_even_length(q: int) -> int:
    n = 2
    while not (fib(n) % q == 1 % q and fib(n - 1) % q == 1 % q):
        n += 2
    return n


def _multiplicative_order(b: int, q: int) -> int:
    n, acc = 1, b % q
    while acc != 1 % q:
        acc, n = acc * b % q, n + 1
    return n


def _base_digits(value: int, base: int, n: int) -> str:
    digits = []
    for _ in range(n):
        value, d = divmod(value, base)
        digits.append(str(d))
    return "".join(reversed(digits))


def cli(spec: dict, stdout: str, code: int) -> str | None:
    """Check one CLI invocation's exit code and records against the spec."""
    if code != 0:
        return f"{spec['cmd']}: exit {code}"
    try:
        records = parse_records(stdout, spec["format"])
        return _cli_records(spec, records)
    except (ValueError, KeyError, IndexError) as exc:
        return f"{spec['cmd']}: unparsable output ({exc})"


def _cli_records(spec: dict, records: list[dict]) -> str | None:
    cmd = spec["cmd"]
    if cmd in ("reduce", "add", "neg", "mul"):
        if cmd == "reduce":
            r = _one(records, ("word", "normal_form"))
            given, out = parse_text(r["word"]), parse_text(r["normal_form"])
            return arith(("normalize", spec["word"]), out) if given == spec["word"] else "echo"
        if cmd == "add":
            r = _one(records, ("lhs", "rhs", "sum"))
            return arith(("add", spec["lhs"], spec["rhs"]), parse_text(r["sum"]))
        if cmd == "neg":
            r = _one(records, ("word", "negation"))
            return arith(("neg", spec["word"]), parse_text(r["negation"]))
        r = _one(records, ("k", "word", "product"))
        if int(r["k"]) != spec["k"]:
            return "mul: echo"
        return arith(("scalar_mul", spec["k"], spec["word"]), parse_text(r["product"]))

    if cmd == "orderq":
        q = spec["q"]
        r = _one(records, ("q", "pi", "pi_prime"))
        n = _minimal_even_length(q)
        pi, pi_prime = parse_text(r["pi"]), parse_text(r["pi_prime"])
        for w in (pi, pi_prime):
            if element_problem(w, n) or not congruent(_scaled(pair(w), q), (0, 0), n):
                return f"orderq q={q}: not an element of order dividing q at n={n}"
        if valuation(pi) * q != fib(n) - 1 or valuation(pi_prime) * q != fib(n - 1) - 1:
            return f"orderq q={q}: wrong valuations"
        if (pi_prime[-1],) + pi_prime[:-1] != pi:
            return f"orderq q={q}: rotate(P') != P"
        return None

    if cmd == "group":
        ell = spec["ell"]
        r = _one(records, ("ell", "order", "e1", "e2", "d"))
        order, d = group_order(ell), d_param(ell)
        got = tuple(int(r[k]) for k in ("ell", "order", "e1", "e2", "d"))
        if got != (ell, order, order // d, d, d):
            return f"group ell={ell}: structure {got}"
        return None

    if cmd == "types":
        return _types(spec["ell"], records)

    if cmd == "wheel":
        ell = spec["ell"]
        r = _one(records, ("ell", "backtracking", "determinant"))
        order = group_order(ell)
        if (int(r["ell"]), int(r["backtracking"]), int(r["determinant"])) != (ell, order, order):
            return f"wheel ell={ell}: counts"
        return None

    if cmd == "fibword":
        ell = spec["ell"]
        total = fib(2 * ell - 2)
        blocks = [r["block"] for r in records]
        if "".join(blocks) + "a" != "b" + _fib_word(total) or len(blocks) != d_param(ell):
            return f"fibword ell={ell}: blocks"
        for i, r in enumerate(records, start=1):
            counts = (r["block"].count("a"), r["block"].count("b"))
            if (int(r["index"]), int(r["a_count"]), int(r["b_count"])) != (i, *counts):
                return f"fibword ell={ell}: block {i}"
        if len({(r["a_count"], r["b_count"]) for r in records}) != 1:
            return f"fibword ell={ell}: unequal counts"
        return None

    if cmd == "gcd-check":
        m_max = spec["max"]
        want = [
            (f"gcd(d,{m},{n})", gcd(d_param(m), d_param(n)), d_param(gcd(m, n)))
            for m in range(2, m_max + 1)
            for n in range(m, m_max + 1)
        ]
        want += [
            (f"even-index d={2 * ell}", d_param(2 * ell), classical_fib(2 * ell))
            for ell in range(1, m_max // 2 + 1)
        ]
        got = [(r["check"], int(r["lhs"]), int(r["rhs"])) for r in records]
        if got != want or any(r["status"] != "pass" for r in records):
            return f"gcd-check max={m_max}: records"
        return None

    if cmd == "demo-base":
        base, q = spec["base"], spec["q"]
        n = _multiplicative_order(base, q)
        period = (base**n - 1) // q
        want = [
            (str(i), _base_digits(i * period % (base**n - 1), base, n), "pass")
            for i in range(1, q + 1)
        ]
        got = [(r["i"], r["multiple"], r["status"]) for r in records]
        return None if got == want else f"demo-base b={base} q={q}: table"

    ell = spec["ell"]
    if cmd == "group-cached":
        got = [parse_text(r["element"]) for r in records]
        return None if got == elements(ell) else f"group --list ell={ell}: elements"
    return _wheel_map(ell, records)


def _types(ell: int, records: list[dict]) -> str | None:
    n = 2 * ell
    elems = elements(ell)
    by_key = {residue(pair(u), n): u for u in elems}
    targets = {
        fib(n) - 1: "T01",
        fib(n - 1) - 1: "T10",
        fib(n + 1) - 2: "T11",
    }
    ident = (0, 1) * ell
    want = []
    for u in elems:
        if u == ident:
            want.append((u, "T01"))
            continue
        inverse = by_key[residue(_scaled(pair(u), -1), n)]
        want.append((u, targets.get(valuation(u) + valuation(inverse), "none")))
    got = [(parse_text(r["element"]), r["type"]) for r in records]
    return None if got == want else f"types ell={ell}: partition"


def _wheel_map(ell: int, records: list[dict]) -> str | None:
    n = 2 * ell
    seen = set()
    trees = set()
    for r in records:
        spokes, rims = r["spokes"], r["rims"]
        if len(spokes) != ell or len(rims) != ell or _tree_problem(spokes, rims, ell):
            return f"wheel --map ell={ell}: not a spanning tree"
        raw = tuple(
            bit for i in range(ell) for bit in (int(spokes[i]), 1 - int(rims[i]))
        )
        if parse_text(r["raw_word"]) != raw:
            return f"wheel --map ell={ell}: raw word"
        problem = arith(("normalize", raw), parse_text(r["normal_form"]))
        if problem:
            return f"wheel --map ell={ell}: {problem}"
        seen.add(r["normal_form"])
        trees.add((spokes, rims))
    order = group_order(ell)
    if not (len(records) == len(seen) == len(trees) == order):
        return f"wheel --map ell={ell}: not a bijection onto {order} elements"
    return None


def verify(stdout: str, code: int, expected: list[tuple[str, str, str]]) -> str | None:
    """Check a `circfib verify` report against the recorded claim rows."""
    if code != 0:
        return f"verify: exit {code}"
    try:
        rows = parse_records(stdout, "tsv")
    except ValueError as exc:
        return f"verify: unparsable output ({exc})"
    got = [(r.get("criterion"), r.get("subject"), r.get("status")) for r in rows]
    if got != expected:
        missing = len(expected) - len(got)
        return f"verify: claim rows differ from the record ({missing:+d} rows missing)"
    return None


def load_claims(path: str) -> list[tuple[str, str, str]]:
    with open(path, encoding="utf-8") as fh:
        return [tuple(line.rstrip("\n").split("\t")) for line in fh if line.strip()]
