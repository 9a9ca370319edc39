"""Seeded input generators for the benchmark.

Nothing here imports circfib: the inputs come straight from the seed, so a
change to the program's codec cannot change what the benchmark feeds it.
Words are tuples of ints, index 0 first, as circfib reads them.
"""

from __future__ import annotations

import random
from math import gcd

# (n, copies of ARITH_MIX per block).  The weights put the median, the 90th
# and the 99th percentile of op latency inside a dense run of values (n = 240
# ops; n = 1000 ops and scalar_mul at n = 60; scalar_mul at n = 1000) rather
# than in a gap between two lengths, where a small shift would move them far.
ARITH_LENGTHS = ((24, 1), (60, 2), (240, 3), (1000, 2))
# 40% add, 20% neg, 30% normalize, 10% scalar_mul at every length.  Every
# block has the same composition, so seeds differ only in the digits and
# multipliers, not in how much of each kind of work a run holds.
ARITH_MIX = (("add", 4), ("neg", 2), ("normalize", 3), ("scalar_mul", 1))
K_LIMIT = 1 << 16
BIG_DIGIT = 10**9

CLI_WORD_LENGTHS = (8, 60, 240, 1000)
# (subcommand, invocations per batch)
CLI_MIX = (
    ("reduce", 3), ("add", 3), ("neg", 3), ("mul", 3),
    ("orderq", 1), ("group", 1), ("types", 1), ("wheel", 1),
    ("fibword", 1), ("gcd-check", 1), ("demo-base", 1),
)
# Cached commands: every batch runs each once cold and once warm against a
# cache directory of its own, so that the largest outputs (about 110 KB) and
# the disk cache make up the latency tail with enough samples to be steady.
CLI_CACHED = (("group", 8), ("group", 9), ("wheel", 5), ("wheel", 6))
JSONLINES_SHARE = 0.3


def admissible_word(rng: random.Random, n: int) -> tuple[int, ...]:
    """A random group element of length n: random bits with cyclic 1-1 pairs
    cleared, never the zero word and never (10)^l."""
    banned = (1, 0) * (n // 2)
    while True:
        raw = rng.getrandbits(n)
        bits = [(raw >> i) & 1 for i in range(n)]
        for i in range(n):  # i = 0 compares with the last digit: the wrap pair
            if bits[i] and bits[i - 1]:
                bits[i] = 0
        w = tuple(bits)
        if any(w) and w != banned:
            return w


def digit_word(rng: random.Random, n: int) -> tuple[int, ...]:
    """An arbitrary nonzero digit word; every other one carries three digits
    up to 10^9."""
    w = [rng.choice((0, 0, 1, 1, 2, 3)) for _ in range(n)]
    if rng.random() < 0.5:
        for _ in range(3):
            w[rng.randrange(n)] = rng.randrange(1, BIG_DIGIT + 1)
    if not any(w):
        w[rng.randrange(n)] = 1
    return tuple(w)


def multiplier(rng: random.Random) -> int:
    return rng.randrange(-K_LIMIT + 1, K_LIMIT)


def arith_op(rng: random.Random, kind: str, n: int) -> tuple:
    if kind == "add":
        return ("add", admissible_word(rng, n), admissible_word(rng, n))
    if kind == "neg":
        return ("neg", admissible_word(rng, n))
    if kind == "normalize":
        return ("normalize", digit_word(rng, n))
    return ("scalar_mul", multiplier(rng), admissible_word(rng, n))


def arith_block(rng: random.Random) -> list[tuple]:
    """One block of the op stream: the full mix at every length, shuffled."""
    ops = [
        arith_op(rng, kind, n)
        for n, copies in ARITH_LENGTHS
        for kind, count in ARITH_MIX
        for _ in range(copies * count)
    ]
    rng.shuffle(ops)
    return ops


def arith_warmup() -> list[tuple]:
    """One op per kind and length, the same for every seed."""
    rng = random.Random("warm-up")
    return [arith_op(rng, kind, n) for n, _ in ARITH_LENGTHS for kind, _ in ARITH_MIX]


def word_text(w) -> str:
    """circfib's text form: contiguous digits, or comma separated if any is > 9."""
    if all(d <= 9 for d in w):
        return "".join(map(str, w))
    return ",".join(map(str, w))


def parse_text(text: str) -> tuple[int, ...]:
    if "," in text:
        return tuple(int(part) for part in text.split(","))
    return tuple(int(ch) for ch in text)


def _pick(values, i: int):
    return values[i % len(values)]


def _cli_spec(rng: random.Random, cmd: str, i: int) -> dict:
    # Sizes cycle with i, the batch index plus the copy number, and not with
    # the seed, so that every seed gets the same amount of work; the seed
    # picks the words, multipliers, orders, bases and output formats.
    spec: dict = {"cmd": cmd}
    if cmd == "reduce":
        spec["word"] = digit_word(rng, _pick(CLI_WORD_LENGTHS, i))
    elif cmd == "add":
        n = _pick(CLI_WORD_LENGTHS, i)
        spec["lhs"], spec["rhs"] = admissible_word(rng, n), admissible_word(rng, n)
    elif cmd == "neg":
        spec["word"] = admissible_word(rng, _pick(CLI_WORD_LENGTHS, i))
    elif cmd == "mul":
        spec["k"] = multiplier(rng)
        spec["word"] = admissible_word(rng, _pick(CLI_WORD_LENGTHS, i))
    elif cmd == "orderq":
        spec["q"] = rng.randrange(2, 41)
    elif cmd == "group":
        spec["ell"] = _pick((2, 3, 4, 5), i)
    elif cmd == "types":
        spec["ell"] = _pick((2, 3, 4, 5, 6), i)
    elif cmd == "wheel":
        spec["ell"] = _pick((1, 2, 3, 4, 5, 6, 7), i)
    elif cmd == "fibword":
        spec["ell"] = _pick((3, 4, 5, 6, 7, 8, 9), i)
    elif cmd == "gcd-check":
        spec["max"] = _pick((5, 10, 15, 20, 25, 30), i)
    else:  # demo-base
        base = rng.randrange(2, 11)
        spec["base"] = base
        spec["q"] = rng.choice([q for q in range(2, 31) if gcd(base, q) == 1])
    spec["format"] = "jsonlines" if rng.random() < JSONLINES_SHARE else "tsv"
    return spec


def cli_batch(rng: random.Random, index: int) -> list[dict]:
    """Batch number `index` of one-shot invocations: the cold/warm pairs, then
    the full command mix, shuffled."""
    cached = [
        {"cmd": cmd + "-cached", "ell": ell, "phase": phase, "format": "tsv"}
        for cmd, ell in CLI_CACHED
        for phase in ("cold", "warm")
    ]
    specs = [_cli_spec(rng, cmd, index + j) for cmd, count in CLI_MIX for j in range(count)]
    rng.shuffle(specs)
    return cached + specs


def cli_argv(spec: dict, cache_dir: str) -> list[str]:
    """Arguments of the circfib command for one invocation spec."""
    argv = ["--format", spec["format"]]
    cmd = spec["cmd"]
    if cmd == "reduce":
        return argv + ["reduce", word_text(spec["word"])]
    if cmd == "add":
        return argv + ["add", word_text(spec["lhs"]), word_text(spec["rhs"])]
    if cmd == "neg":
        return argv + ["neg", word_text(spec["word"])]
    if cmd == "mul":
        return argv + ["mul", str(spec["k"]), word_text(spec["word"])]
    if cmd == "orderq":
        return argv + ["orderq", "--q", str(spec["q"]), "--pi"]
    if cmd == "group":
        return argv + ["group", "--ell", str(spec["ell"]), "--structure"]
    if cmd == "types":
        return argv + ["types", "--ell", str(spec["ell"]), "--partition"]
    if cmd == "wheel":
        return argv + ["wheel", "--ell", str(spec["ell"]), "--count"]
    if cmd == "fibword":
        return argv + ["fibword", "--ell", str(spec["ell"]), "--partition"]
    if cmd == "gcd-check":
        return argv + ["gcd-check", "--max", str(spec["max"])]
    if cmd == "demo-base":
        return argv + ["demo-base", "--base", str(spec["base"]), "--q", str(spec["q"])]
    argv = ["--cache-dir", cache_dir] + argv
    if cmd == "group-cached":
        return argv + ["group", "--ell", str(spec["ell"]), "--list"]
    return argv + ["wheel", "--ell", str(spec["ell"]), "--map"]
