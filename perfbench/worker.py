"""Child interpreter for the arith-stream workload.

Usage: python3 perfbench/worker.py --seed N --blocks B --max-seconds S [--trace 0|1]

Measures set-up (CPU time of ``import circfib`` plus one warm-up call per op
kind and length), then runs B blocks of the seeded op stream, one op at a
time, stopping early only if S wall seconds have passed.  Prints one JSON
object: set-up time, each op's start time (perf_counter) and CPU time, and
every output as text.  With --blocks 0 it only sets up.
"""

import argparse
import json
import random
import sys
import time

import gen

start = time.process_time()
import circfib  # noqa: E402  (the import is part of set-up)

for _op in gen.arith_warmup():
    getattr(circfib, _op[0])(*_op[1:])
SETUP_CPU_S = time.process_time() - start


def run(seed: int, blocks: int, max_seconds: float, traced: bool) -> dict:
    rng = random.Random(seed)
    t = None
    if traced:
        import tracer

        t = tracer.Tracer()
        t.install()
        before = tracer.normalize_cache_info()
    # Looked up after install, so that a traced run calls the wrappers.
    ops = {name: getattr(circfib, name) for name in ("add", "neg", "normalize", "scalar_mul")}
    clock, cpu_clock = time.perf_counter, time.thread_time
    deadline = clock() + max_seconds
    starts: list[float] = []
    cpus: list[float] = []
    outputs: list = []
    done = 0
    while done < blocks and clock() < deadline:
        for op in gen.arith_block(rng):
            fn, args = ops[op[0]], op[1:]
            if t is not None:
                t.request_id = len(starts)
            t0, c0 = clock(), cpu_clock()
            try:
                out = fn(*args) if t is None else t.span("op." + op[0], fn, *args)
            except Exception as exc:  # a failed op is counted, not fatal
                out = exc
            cpus.append(cpu_clock() - c0)
            starts.append(t0)
            outputs.append(out)
        done += 1
    result = {
        "blocks": done,
        "starts": starts,
        "cpus": cpus,
        "outputs": [
            f"!{type(o).__name__}: {o}" if isinstance(o, Exception) else gen.word_text(o)
            for o in outputs
        ],
    }
    if t is not None:
        after = tracer.normalize_cache_info()
        result["trace"] = t.dump()
        result["trace"]["normalize_cache"] = [after[0] - before[0], after[1] - before[1]]
    return result


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--blocks", type=int, required=True)
    parser.add_argument("--max-seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    result = {"setup_cpu_s": SETUP_CPU_S, "circfib_file": circfib.__file__}
    if args.blocks:
        result.update(run(args.seed, args.blocks, args.max_seconds, bool(args.trace)))
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
