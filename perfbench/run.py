"""Benchmark runner for circfib.

Usage (from the root of a checkout that has src/circfib):

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (predictions.json says why each exists and what should move):

* arith-stream: a seeded stream of add / neg / normalize / scalar_mul calls
  in one child interpreter, one call at a time.
* verify-cold: plain `circfib verify` at its default bounds, each time in a
  fresh interpreter, so every cache starts empty.
* cli-oneshot: a seeded sequence of one-shot `circfib` invocations, each a
  separate process; every batch starts with cold/warm pairs of the cached
  commands against an empty --cache-dir of its own.

Every workload is a closed loop with one caller: the next request starts
only after the previous one returned, and only one child runs at a time.
The amount of work is fixed by --seconds (blocks or batches per second of
it), so memory and sample counts do not depend on the machine's speed.
Times are CPU times corrected to the core's nominal speed (speed.py).
Outputs are checked after the timed section by check.py, which shares no
code with circfib.  The last stdout line is the JSON result; the line before
it holds provenance, uncorrected CPU figures, the failure ratio and the
first failure reasons.  With --trace 1 the run reports per-layer metrics
instead, from a traced repeat of the same work, and writes spans to
.perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import gen  # noqa: E402
from speed import (  # noqa: E402
    INTERP_EVERY,
    INTERP_WINDOW_S,
    NOMINAL_INTERP_S,
    NOMINAL_REF_S,
    SAMPLE_INTERVAL_S,
    START_GAP_S,
    Reference,
    pin_to_one_core,
    sample_loop,
)  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
PY = sys.executable
LAUNCH = "from circfib.cli import console_main; console_main()"  # the `circfib` command
IMPORT_PROBE = (
    "import time; t = time.process_time(); import circfib.cli; "
    "print(time.process_time() - t); print(circfib.cli.__file__)"
)
SETUP_REPS = 9
CHILD_TIMEOUT_S = 170
ARITH_BLOCKS_PER_S = 4  # 80-op blocks per second of --seconds
CLI_BATCHES_PER_S = 0.3  # 27-invocation batches per second of --seconds
CORRUPT_MARK = "ignoring corrupt cache entry"


class BenchError(Exception):
    """The benchmark itself cannot run (no source tree, a child crashed)."""


class Child(NamedTuple):
    start: float
    end: float
    cpu: float  # user + system seconds of the child
    stdout: str
    stderr: str
    code: int


class Runner:
    """Starts children one at a time and, when sampling, samples the core
    while they run; without samples, times are left uncorrected."""

    def __init__(self, sampling: bool) -> None:
        self.sampling = sampling
        self.loop = Reference(NOMINAL_REF_S, SAMPLE_INTERVAL_S)
        self.interp = Reference(NOMINAL_INTERP_S, INTERP_WINDOW_S)
        self.env = {k: v for k, v in os.environ.items() if k != "CIRCFIB_CACHE"}
        self.env["PYTHONPATH"] = SRC

    def run(self, argv: list[str]) -> Child:
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        proc = subprocess.Popen(
            [PY, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=self.env, cwd=ROOT,
        )
        gap = START_GAP_S
        try:
            while True:
                if self.sampling and self.loop.due(gap):
                    sample_loop(self.loop)
                gap = SAMPLE_INTERVAL_S
                try:
                    stdout, stderr = proc.communicate(timeout=SAMPLE_INTERVAL_S)
                    break
                except subprocess.TimeoutExpired:
                    if time.perf_counter() - start > CHILD_TIMEOUT_S:
                        raise BenchError(f"child ran over {CHILD_TIMEOUT_S} s: {argv[:3]}")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        end = time.perf_counter()
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        return Child(start, end, cpu, stdout, stderr, proc.returncode)

    def corrected(self, child: Child, seconds: float | None = None,
                  ref: Reference | None = None) -> float:
        """CPU seconds of the child (or the given part of them) at nominal
        speed, by the loop reference unless another is given."""
        cpu = child.cpu if seconds is None else seconds
        return cpu * self.factor(child.start, child.end, ref)

    def factor(self, start: float, end: float, ref: Reference | None = None) -> float:
        return (ref or self.loop).factor(start, end) if self.sampling else 1.0

    def sample_interpreter(self) -> None:
        """Add one bare interpreter start to the interpreter reference."""
        if self.sampling:
            child = self.run(["-c", "pass"])
            self.interp.add(child.start, child.end, child.cpu)

    def interpreter_s(self) -> float:
        """Bare `python -c pass`, corrected: the part circfib does not own."""
        return statistics.median(self.corrected(self.run(["-c", "pass"])) for _ in range(SETUP_REPS))

    def import_probe(self) -> tuple[Child, float]:
        """A fresh interpreter that imports circfib.cli; also the import's own CPU time."""
        child = self.run(["-c", IMPORT_PROBE])
        if child.code != 0:
            raise BenchError(f"import circfib.cli failed: {child.stderr.strip()}")
        import_cpu, path = child.stdout.split("\n")[:2]
        own_source(path)
        return child, float(import_cpu)


def own_source(path: str) -> None:
    """Refuse to measure a circfib imported from anywhere but this checkout."""
    if not os.path.realpath(path).startswith(os.path.realpath(SRC) + os.sep):
        raise BenchError(f"circfib imported from {path}, not from {SRC}")


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks; one value is its own percentile."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def latency_metrics(latencies_s: list[float], batch_sizes: list[int]) -> dict:
    """Throughput, latency percentiles and the median batch time of one run."""
    batches, i = [], 0
    for size in batch_sizes:
        batches.append(sum(latencies_s[i:i + size]))
        i += size
    return {
        "ops_per_s": (len(latencies_s) / sum(latencies_s), "1/s"),
        "latency_p50_ms": (percentile(latencies_s, 50) * 1e3, "ms"),
        "latency_p90_ms": (percentile(latencies_s, 90) * 1e3, "ms"),
        "latency_p99_ms": (percentile(latencies_s, 99) * 1e3, "ms"),
        "wall_s": (statistics.median(batches), "s"),
    }


def raw_figures(times: list[float], batch_sizes: list[int]) -> dict:
    """The same figures from uncorrected times, for the provenance line."""
    return {name: value for name, (value, _) in latency_metrics(times, batch_sizes).items()}


# -- arith-stream ------------------------------------------------------------


def arith_worker(runner: Runner, seed: int, blocks: int, max_seconds: float = 0,
                 traced: bool = False) -> tuple[Child, dict]:
    argv = [os.path.join(HERE, "worker.py"), "--seed", str(seed), "--blocks", str(blocks),
            "--max-seconds", str(max_seconds), "--trace", str(int(traced))]
    child = runner.run(argv)
    if child.code != 0:
        raise BenchError(f"arith worker failed: {child.stderr.strip()[-2000:]}")
    data = json.loads(child.stdout)
    own_source(data["circfib_file"])
    return child, data


def arith_blocks(seconds: float) -> int:
    return max(1, round(seconds * ARITH_BLOCKS_PER_S))


def arith_check(seed: int, data: dict) -> tuple[list[str], bool]:
    """Check every output of a worker run; return (failures, control flagged)."""
    rng = random.Random(seed)
    ops = [op for _ in range(data["blocks"]) for op in gen.arith_block(rng)]
    failures = []
    for op, text in zip(ops, data["outputs"], strict=True):
        problem = check.arith(op, gen.parse_text(text)) if text[:1] != "!" else text
        if problem:
            failures.append(problem)
    # Negative control: one result with a 1 flipped to 0 must be refused.
    first = gen.parse_text(data["outputs"][0]) if data["outputs"][0][:1] != "!" else (1,)
    flipped = list(first)
    flipped[flipped.index(1)] = 0
    control = check.arith(ops[0], tuple(flipped)) is not None
    return failures, control


def arith_latencies(runner: Runner, data: dict) -> list[float]:
    factor = runner.factor
    return [cpu * factor(t, t) for t, cpu in zip(data["starts"], data["cpus"])]


def arith_stream(runner: Runner, seed: int, seconds: float) -> dict:
    setups = []
    for _ in range(SETUP_REPS - 1):
        child, data = arith_worker(runner, seed, 0)
        setups.append(runner.corrected(child, data["setup_cpu_s"]))
    child, data = arith_worker(runner, seed, arith_blocks(seconds), 3 * seconds)
    setups.append(runner.corrected(child, data["setup_cpu_s"]))
    failures, control = arith_check(seed, data)
    block_sizes = [len(data["cpus"]) // data["blocks"]] * data["blocks"]
    metrics = {"setup_s": (statistics.median(setups), "s"), "peak_rss_mb": (peak_rss_mb(), "MB")}
    metrics.update(latency_metrics(arith_latencies(runner, data), block_sizes))
    return {
        "metrics": metrics,
        "raw": raw_figures(data["cpus"], block_sizes),
        "attempted": len(data["outputs"]),
        "failures": failures,
        "controls": {"flipped_digit": control},
        "samples": {"ops": len(data["outputs"]), "blocks": data["blocks"], "setups": len(setups)},
    }


def arith_stream_traced(runner: Runner, seed: int, seconds: float) -> dict:
    blocks = arith_blocks(seconds)
    _, plain = arith_worker(runner, seed, blocks, 3 * seconds)
    _, traced = arith_worker(runner, seed, plain["blocks"], 5 * seconds, traced=True)
    failures, control = arith_check(seed, plain)
    more, control2 = arith_check(seed, traced)
    return {
        "trace": traced["trace"],
        "overhead": (sum(plain["cpus"]), sum(traced["cpus"])),
        "attempted": len(plain["outputs"]) + len(traced["outputs"]),
        "failures": failures + more,
        "controls": {"flipped_digit": control and control2},
        "samples": {"ops": len(plain["outputs"]), "traced_ops": len(traced["outputs"])},
    }


# -- verify-cold -------------------------------------------------------------


def verify_claims() -> list[tuple[str, str, str]]:
    return check.load_claims(os.path.join(HERE, "verify_claims.tsv"))


def verify_check(child: Child, claims) -> tuple[str | None, bool]:
    problem = check.verify(child.stdout, child.code, claims)
    # Negative control: the same report with one claim row dropped must be refused.
    lines = child.stdout.split("\n")
    control = check.verify("\n".join(lines[:1] + lines[2:]), child.code, claims) is not None
    return problem, control


def verify_cold(runner: Runner, seed: int, seconds: float) -> dict:
    setups = []
    for _ in range(SETUP_REPS):
        runner.sample_interpreter()
        setups.append(runner.corrected(runner.import_probe()[0], ref=runner.interp))
    claims = verify_claims()
    times, raw, failures, controls = [], [], [], []
    while not times or sum(times) < seconds:
        child = runner.run(["-c", LAUNCH, "verify"])
        times.append(runner.corrected(child))
        raw.append(child.cpu)
        problem, control = verify_check(child, claims)
        failures += [problem] if problem else []
        controls.append(control)
    metrics = {"setup_s": (statistics.median(setups), "s"), "peak_rss_mb": (peak_rss_mb(), "MB")}
    metrics.update(latency_metrics(times, [1] * len(times)))
    return {
        "metrics": metrics,
        "raw": raw_figures(raw, [1] * len(raw)),
        "attempted": len(times),
        "failures": failures,
        "controls": {"dropped_row": all(controls)},
        "samples": {"verify_runs": len(times), "setups": len(setups)},
    }


def verify_cold_traced(runner: Runner, seed: int, seconds: float) -> dict:
    claims = verify_claims()
    plain = runner.run(["-c", LAUNCH, "verify"])
    trace_file = os.path.join(OUT, f"child-{os.getpid()}-verify.json")
    traced = runner.run([os.path.join(HERE, "traced_cli.py"), trace_file, "0", "verify"])
    trace = merge_traces([load_child_trace(trace_file)])
    trace["spans"].append(["verify.invocation", traced.start, traced.end, "<root>", 0])
    failures, controls = [], []
    for child in (plain, traced):
        problem, control = verify_check(child, claims)
        failures += [problem] if problem else []
        controls.append(control)
    return {
        "trace": trace,
        "overhead": (plain.cpu, traced.cpu),
        "attempted": 2,
        "failures": failures,
        "controls": {"dropped_row": all(controls)},
        "samples": {"verify_runs": 2},
    }


# -- cli-oneshot -------------------------------------------------------------


def cli_plan(runner: Runner, seed: int, seconds: float, launcher=None):
    """Run whole batches, each against an empty cache directory of its own;
    collect (specs, children, batch sizes) unchecked.

    ``launcher(spec, request_id)`` gives the interpreter arguments before
    the circfib ones; by default the plain `circfib` command."""
    rng = random.Random(seed)
    batches = [gen.cli_batch(rng, index) for index in range(max(1, round(seconds * CLI_BATCHES_PER_S)))]
    specs, children = [], []
    for index, batch in enumerate(batches):
        cache_dir = os.path.join(OUT, f"cache-{os.getpid()}-{time.monotonic_ns()}")
        try:
            for spec in batch:
                if len(children) % INTERP_EVERY == 0:
                    runner.sample_interpreter()
                prefix = launcher(spec, len(children)) if launcher else ["-c", LAUNCH]
                children.append(runner.run(prefix + gen.cli_argv(spec, cache_dir)))
                specs.append(spec)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
    return specs, children, [len(batch) for batch in batches]


def cli_check(specs, children: list[Child]) -> tuple[list[str], bool]:
    failures = []
    cold = {}  # the latest cold output of each cached command
    for spec, child in zip(specs, children):
        problem = check.cli(spec, child.stdout, child.code)
        if problem is None and spec.get("phase") == "cold":
            cold[(spec["cmd"], spec["ell"])] = child.stdout
        if problem is None and spec.get("phase") == "warm":
            if cold.get((spec["cmd"], spec["ell"])) != child.stdout:
                problem = f"{spec['cmd']} ell={spec['ell']}: warm output differs from cold"
        if problem:
            failures.append(problem)
    if n := corrupt_entries(children):
        failures.append(f"{n} corrupt cache entries")
    # Negative control: flip the result's last 1 in one word-valued answer.
    i = next(i for i, s in enumerate(specs) if s["cmd"] in ("reduce", "add", "neg", "mul"))
    stdout = children[i].stdout
    j = stdout.rfind("1")
    control = check.cli(specs[i], stdout[:j] + "0" + stdout[j + 1:], 0) is not None
    return failures, control


def corrupt_entries(children: list[Child]) -> int:
    return sum(child.stderr.count(CORRUPT_MARK) for child in children)


def cli_oneshot(runner: Runner, seed: int, seconds: float) -> dict:
    setups = []
    for _ in range(SETUP_REPS):
        runner.sample_interpreter()
        child, import_cpu = runner.import_probe()
        setups.append(runner.corrected(child, import_cpu, runner.interp))
    specs, children, batch_sizes = cli_plan(runner, seed, seconds)
    failures, control = cli_check(specs, children)
    metrics = {"setup_s": (statistics.median(setups), "s"), "peak_rss_mb": (peak_rss_mb(), "MB")}
    latencies = [runner.corrected(c, ref=runner.interp) for c in children]
    metrics.update(latency_metrics(latencies, batch_sizes))
    return {
        "metrics": metrics,
        "raw": raw_figures([c.cpu for c in children], batch_sizes),
        "attempted": len(children),
        "failures": failures,
        "controls": {"flipped_digit": control},
        "samples": {"invocations": len(children), "batches": len(batch_sizes), "setups": len(setups)},
    }


def cli_oneshot_traced(runner: Runner, seed: int, seconds: float) -> dict:
    specs, plain, _ = cli_plan(runner, seed, seconds)
    trace_files = []

    def traced_launcher(spec, request_id):
        trace_files.append(os.path.join(OUT, f"child-{os.getpid()}-{request_id}.json"))
        return [os.path.join(HERE, "traced_cli.py"), trace_files[-1], str(request_id)]

    # The same invocations again, traced: the seed fixes the sequence.
    _, traced, _ = cli_plan(runner, seed, seconds, traced_launcher)
    trace = merge_traces([load_child_trace(path) for path in trace_files])
    trace["spans"] += [
        ["cli.invocation", child.start, child.end, "<root>", i] for i, child in enumerate(traced)
    ]
    trace["corrupt_entries"] = corrupt_entries(plain) + corrupt_entries(traced)
    failures, control = cli_check(specs, plain)
    more, control2 = cli_check(specs, traced)
    return {
        "trace": trace,
        "overhead": (sum(c.cpu for c in plain), sum(c.cpu for c in traced)),
        "attempted": len(plain) + len(traced),
        "failures": failures + more,
        "controls": {"flipped_digit": control and control2},
        "samples": {"invocations": len(plain), "traced_invocations": len(traced)},
    }


# -- traces and per-layer metrics ---------------------------------------------


def load_child_trace(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        if os.path.exists(path):
            os.unlink(path)


def merge_traces(traces: list[dict]) -> dict:
    """Sum the aggregates of several child processes into one trace."""
    agg: dict[tuple[str, str], list] = {}
    counts: dict[str, int] = {}
    sizes: dict[str, int] = {}
    spans: list = []
    cache = [0, 0]
    for t in traces:
        for name, parent, calls, total, self_s in t["agg"]:
            rec = agg.setdefault((name, parent), [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        for source, target in ((t["counts"], counts), (t["sizes"], sizes)):
            for key, value in source.items():
                target[key] = target.get(key, 0) + value
        spans += t["spans"]
        cache = [cache[0] + t["normalize_cache"][0], cache[1] + t["normalize_cache"][1]]
    return {
        "agg": [[name, parent, *rec] for (name, parent), rec in agg.items()],
        "counts": counts,
        "sizes": sizes,
        "spans": spans,
        "normalize_cache": cache,
        "import_s": [t["import_s"] for t in traces],
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: dict, overhead: tuple[float, float], interp_s: float) -> dict:
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    edge: dict[tuple[str, str], int] = {}  # (name, parent) -> calls
    for name, parent, n, tot, own in trace["agg"]:
        calls[name] = calls.get(name, 0) + n
        total[name] = total.get(name, 0.0) + tot
        self_s[name] = self_s.get(name, 0.0) + own
        edge[(name, parent)] = edge.get((name, parent), 0) + n
    sizes = trace["sizes"]
    m: dict[str, tuple[float, str]] = {}

    def timed(name: str, with_calls: bool = True) -> None:
        if with_calls:
            m[name + ".calls"] = (calls.get(name, 0), "count")
        m[name + ".self_s"] = (self_s.get(name, 0.0), "s")

    def outer_calls(name: str) -> int:
        return calls.get(name, 0) - edge.get((name, name), 0)

    for name in ("fibcore.as_word", "fibcore.zeckendorf", "fibcore.is_admissible"):
        timed(name)
    m["fibcore.fib.calls"] = (trace["counts"].get("fibcore.fib", 0), "count")

    hits, misses = trace.get("normalize_cache", (0, 0))
    timed("rewrite.normalize")
    m["rewrite.normalize.cache_hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
    m["rewrite.normalize.zeckendorf_per_miss"] = (
        _ratio(edge.get(("fibcore.zeckendorf", "rewrite.normalize"), 0), misses), "calls/miss")
    timed("rewrite.phi_pair")
    timed("rewrite.orbit")
    m["rewrite.orbit.states"] = (sizes.get("rewrite.orbit.states", 0), "count")

    for name in ("group.add", "group.neg", "group.scalar_mul", "group.element_order"):
        timed(name)
    for name in ("group.scalar_mul", "group.element_order"):
        m[name + ".adds_per_call"] = (
            _ratio(edge.get(("group.add", name), 0), outer_calls(name)), "adds/call")
    m["group.enumerate_elements.elements"] = (sizes.get("group.enumerate_elements.elements", 0), "count")
    timed("group.decompose", with_calls=False)

    timed("orderq.p_group", with_calls=False)
    m["orderq.p_group.kept_ratio"] = (
        _ratio(sizes.get("orderq.p_group.kept", 0), sizes.get("orderq.p_group.scanned", 0)), "ratio")
    timed("orderq.pi_subgroup_index", with_calls=False)

    timed("typology.classify")
    for name in ("typology.image_sets", "wheels.spanning_trees",
                 "wheels.identity_fiber_report", "wheels.taxonomy_table"):
        timed(name, with_calls=False)

    for i in range(1, 13):
        name = f"verify.criterion_{i:02d}"
        m[name + ".wall_s"] = (total.get(name, 0.0), "s")

    imports = trace.get("import_s", [])
    m["cli.interpreter_s"] = (interp_s, "s")
    m["cli.import_s"] = (statistics.median(imports) if imports else 0.0, "s")
    timed("cli.dispatch", with_calls=False)
    timed("cli.render", with_calls=False)

    load_hits = sizes.get("cache.cache_load.hits", 0)
    m["cache.cache_load.hits"] = (load_hits, "count")
    m["cache.cache_load.misses"] = (calls.get("cache.cache_load", 0) - load_hits, "count")
    timed("cache.cache_load", with_calls=False)
    timed("cache.cache_store")
    m["cache.corrupt_entries"] = (trace.get("corrupt_entries", 0), "count")

    plain, traced = overhead
    m["trace.overhead_s"] = (traced - plain, "s")
    m["trace.overhead_ratio"] = (_ratio(traced - plain, plain), "ratio")
    return m


# -- entry point -------------------------------------------------------------

WORKLOADS = {
    "arith-stream": (arith_stream, arith_stream_traced),
    "verify-cold": (verify_cold, verify_cold_traced),
    "cli-oneshot": (cli_oneshot, cli_oneshot_traced),
}


def provenance(seed: int, nproc: int, interp_s: float, samples: dict) -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):  # a benchmark checkout has none
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
            commit = proc.stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(os.path.join(SRC, "circfib"))):
        dirs.sort()
        for name in sorted(f for f in files if f.endswith(".py")):
            with open(os.path.join(folder, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "nproc": nproc,
        "seed": seed,
        "samples": samples,
        "cli.interpreter_s": interp_s,
    }


def write_trace(workload: str, seed: int, trace: dict, prov: dict) -> str:
    path = os.path.join(OUT, f"trace-{workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"provenance": prov, **trace}, fh)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "circfib", "__init__.py")):
        print(f"error: no circfib source tree at {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    nproc = len(os.sched_getaffinity(0))
    # Traced runs report raw per-layer figures and run twice the work, so
    # they stay unpinned: a core the host takes time from would stretch them.
    core = None if args.trace else pin_to_one_core()
    runner = Runner(sampling=not args.trace)
    plain, traced = WORKLOADS[args.workload]
    try:
        interp_s = runner.interpreter_s()
        result = (traced if args.trace else plain)(runner, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    prov = provenance(args.seed, nproc, interp_s, result["samples"])
    prov["core"] = core
    if runner.sampling:
        prov["mean_reference_s"] = {
            name: ref.mean() for name, ref in (("loop", runner.loop), ("interpreter", runner.interp))
            if ref.values
        }
    prov["uncorrected_cpu"] = result.get("raw")
    if args.trace:
        metrics = layer_metrics(result["trace"], result["overhead"], interp_s)
        prov["trace_file"] = os.path.relpath(write_trace(args.workload, args.seed, result["trace"], prov), ROOT)
    else:
        metrics = result["metrics"]
    failures = result["failures"]
    attempted = result["attempted"]
    print(json.dumps({
        "provenance": prov,
        "fail_ratio": len(failures) / attempted,
        "controls_flagged": result["controls"],
        "first_failures": failures[:5],
    }))
    print(json.dumps({
        "correct": not failures and all(result["controls"].values()),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
