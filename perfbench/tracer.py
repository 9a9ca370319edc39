"""Tracing from outside the program: wrap circfib's functions, not edit them.

``Tracer.install`` replaces each measured function under every name a
circfib module binds it to, because ``from .x import f`` copies the binding:
patching ``circfib.rewrite.normalize`` alone would miss the calls made
through ``circfib.group.normalize``, ``circfib.wheels.normalize`` and so on.

Hot inner functions are aggregated as count / total / self time per parent
(``as_word`` runs millions of times in ``verify``); op-, invocation- and
criterion-level calls are also kept as full spans (name, start, end, parent,
request id).  Everything stays in memory until ``dump``.
"""

from __future__ import annotations

import sys
import time

AGG, COUNT, SPAN = "agg", "count", "span"

CRITERIA = (
    "cardinalities", "structure", "uniqueness", "group_axioms", "order_q",
    "p_group", "gcd", "types", "partition", "wheels", "base_b", "balance",
)

# (module, function, mode, metric name)
TARGETS = [
    ("circfib.fibcore", "as_word", AGG, "fibcore.as_word"),
    ("circfib.fibcore", "zeckendorf", AGG, "fibcore.zeckendorf"),
    ("circfib.fibcore", "is_admissible", AGG, "fibcore.is_admissible"),
    ("circfib.fibcore", "fib", COUNT, "fibcore.fib"),
    ("circfib.rewrite", "normalize", AGG, "rewrite.normalize"),
    ("circfib.rewrite", "phi_pair", AGG, "rewrite.phi_pair"),
    ("circfib.rewrite", "orbit", AGG, "rewrite.orbit"),
    ("circfib.group", "add", AGG, "group.add"),
    ("circfib.group", "neg", AGG, "group.neg"),
    ("circfib.group", "scalar_mul", AGG, "group.scalar_mul"),
    ("circfib.group", "element_order", AGG, "group.element_order"),
    ("circfib.group", "enumerate_elements", AGG, "group.enumerate_elements"),
    ("circfib.group", "decompose", AGG, "group.decompose"),
    ("circfib.orderq", "p_group", AGG, "orderq.p_group"),
    ("circfib.orderq", "pi_subgroup_index", AGG, "orderq.pi_subgroup_index"),
    ("circfib.typology", "classify", AGG, "typology.classify"),
    ("circfib.typology", "image_sets", AGG, "typology.image_sets"),
    ("circfib.wheels", "spanning_trees", AGG, "wheels.spanning_trees"),
    ("circfib.wheels", "identity_fiber_report", AGG, "wheels.identity_fiber_report"),
    ("circfib.wheels", "taxonomy_table", AGG, "wheels.taxonomy_table"),
    ("circfib.cache", "cache_load", AGG, "cache.cache_load"),
    ("circfib.cache", "cache_store", AGG, "cache.cache_store"),
    ("circfib.cli", "dispatch", SPAN, "cli.dispatch"),
    ("circfib.cli", "render", SPAN, "cli.render"),
    ("circfib.verify", "run_verify", SPAN, "verify.run_verify"),
] + [
    ("circfib.verify", f"criterion_{name}", SPAN, f"verify.criterion_{i:02d}")
    for i, name in enumerate(CRITERIA, start=1)
]

ROOT = "<root>"


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = [[ROOT, 0.0]]  # [name, time spent in children]
        self.agg: dict[tuple[str, str], list] = {}  # (name, parent) -> [calls, total, self]
        self.counts: dict[str, int] = {}
        self.sizes: dict[str, int] = {}  # result sizes: orbit states, elements, ...
        self.spans: list[tuple] = []
        self.request_id = 0

    # -- wrappers ---------------------------------------------------------

    def _timed(self, name: str, fn, keep_span: bool, hook=None):
        stack, agg, spans, clock = self.stack, self.agg, self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1][0]
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                dt = end - start
                stack.pop()
                stack[-1][1] += dt
                rec = agg.get((name, parent))
                if rec is None:
                    agg[(name, parent)] = [1, dt, dt - frame[1]]
                else:
                    rec[0] += 1
                    rec[1] += dt
                    rec[2] += dt - frame[1]
                if keep_span:
                    spans.append((name, start, end, parent, self.request_id))
            if hook is not None:
                hook(result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _size_hook(self, key: str, measure):
        self.sizes[key] = 0

        def hook(result):
            self.sizes[key] += measure(result)

        return hook

    def span(self, name: str, fn, *args):
        """Call fn(*args) as a span of its own, e.g. one benchmark op."""
        return self._timed(name, fn, True)(*args)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every target under all of its bindings in loaded circfib modules.

        Targets in modules that are not loaded are skipped: nothing can
        call them.
        """
        modules = [m for n, m in list(sys.modules.items()) if n == "circfib" or n.startswith("circfib.")]
        hooks = {
            "rewrite.orbit": self._size_hook("rewrite.orbit.states", lambda r: len(r.words)),
            "group.enumerate_elements": self._size_hook("group.enumerate_elements.elements", len),
            "cache.cache_load": self._size_hook("cache.cache_load.hits", lambda r: r is not None),
        }
        for module_name, attr, mode, name in TARGETS:
            if module_name not in sys.modules:
                continue
            original = getattr(sys.modules[module_name], attr)
            if mode == COUNT:
                wrapper = self._counted(name, original)
            else:
                wrapper = self._timed(name, original, mode == SPAN, hooks.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        if "circfib.orderq" in sys.modules:
            self._watch_p_group()

    def _watch_p_group(self) -> None:
        # Elements kept by the order-q filter over elements scanned, counted
        # only when the cache actually recomputed them.
        orderq = sys.modules["circfib.orderq"]
        cached = orderq._p_group_cached
        sizes = self.sizes
        sizes["orderq.p_group.kept"] = sizes["orderq.p_group.scanned"] = 0

        def watched(*args):
            misses = cached.cache_info().misses
            enumerated = sizes["group.enumerate_elements.elements"]
            result = cached(*args)
            if cached.cache_info().misses > misses:
                sizes["orderq.p_group.kept"] += len(result)
                sizes["orderq.p_group.scanned"] += (
                    sizes["group.enumerate_elements.elements"] - enumerated
                )
            return result

        orderq._p_group_cached = watched

    def dump(self) -> dict:
        return {
            "agg": [[name, parent, *rec] for (name, parent), rec in self.agg.items()],
            "counts": dict(self.counts),
            "sizes": dict(self.sizes),
            "spans": [list(s) for s in self.spans],
        }


def normalize_cache_info() -> tuple[int, int]:
    info = sys.modules["circfib.rewrite"]._normalize_cached.cache_info()
    return info.hits, info.misses
