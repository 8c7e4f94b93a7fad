"""Span tracing of the denserank package from outside it.

`Tracer` wraps the package's public functions, and the few private
rule helpers the kernel drivers call, at every module attribute that
holds them: `denserank.kernel.induced` is the same function object as
`denserank.model.induced`, and both are replaced.  Each call becomes a
span (name, start, end, parent, request, attributes) kept in memory.
`install()` and `uninstall()` swap the wrappers in and out, so untraced
requests run the original functions.  A target that no longer exists
is listed in `missing` instead of failing the run.

`layer_metrics` turns the spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from math import factorial


def _n_arg(args, kwargs, result):
    return {"n": args[0].n}


def _built(args, kwargs, result):
    inst = result[0] if isinstance(result, tuple) else result
    return {"constraints": inst.constraint_count()}


def _hit(args, kwargs, result):
    return {"hit": result is not None}


def _rules(args, kwargs, result):
    return {"rules": dict(Counter(record.rule for record in result.trace))}


# (module under denserank, attribute path, attribute hook).  The hook
# runs after the span closes and records what the metrics need.
TARGETS = (
    ("oracle", "min_inconsistencies", _n_arg),
    ("oracle", "decide", _n_arg),
    ("oracle", "is_conflict", None),
    ("model", "induced", _built),
    ("model", "Instance.replace", _built),
    ("model", "fault_count", None),
    ("model", "inconsistent_constraints", None),
    ("approx", "inc_degree_ranking", None),
    ("kernel", "kernelize_fast", _rules),
    ("kernel", "kernelize_characterized", _rules),
    ("kernel", "find_fast_sunflower", _hit),
    ("kernel", "find_simple_sunflower", _hit),
    ("kernel", "_find_conflict_packing", _hit),
    ("kernel", "apply_sunflower_edit", None),
    ("kernel", "_apply_packing_edit", None),
    ("kernel", "drop_always_selected_vertex", _hit),
    ("kernel", "drop_cycle_free_vertex", _hit),
    ("kernel", "local_search_provider", None),
    ("kernel", "incdegree_provider", None),
    ("kernel", "trivial_instance", None),
    ("fileformat", "load", None),
    ("fileformat", "parse", _built),
    ("fileformat", "serialize", None),
    ("fileformat", "dump", None),
    ("generate", "generate", _built),
    ("cli", "main", None),
)

ORACLES = ("oracle.min_inconsistencies", "oracle.decide", "oracle.is_conflict")
ORACLE_ENUMERATORS = ORACLES[:2]
BUILDERS = ("fileformat.parse", "model.induced", "model.Instance.replace")
SEARCHES = ("kernel.find_fast_sunflower", "kernel.find_simple_sunflower", "kernel._find_conflict_packing")
APPLIES = ("kernel.apply_sunflower_edit", "kernel._apply_packing_edit")
DROPS = ("kernel.drop_always_selected_vertex", "kernel.drop_cycle_free_vertex")
# exact_provider builds a closure per call and no workload uses it, so
# it is not traced; its oracle calls show under the driver span.
PROVIDERS = ("kernel.local_search_provider", "kernel.incdegree_provider")
RULES = ("sunflower-edit", "conflict-packing-edit", "drop-always-selected", "drop-cycle-free")

# name -> unit, in report order.  Per-request values are totals over the
# traced requests divided by their number; generate.* are per set-up.
UNITS = {
    "oracle.calls": "count/req",
    "oracle.s": "s/req",
    "oracle.n_max": "vertices",
    "oracle.rankings_bound": "count/req",
    "model.induced_calls": "count/req",
    "model.induced_s": "s/req",
    "model.replace_calls": "count/req",
    "model.replace_s": "s/req",
    "model.fault_count_calls": "count/req",
    "model.fault_count_s": "s/req",
    "model.inconsistent_s": "s/req",
    "model.self_s": "s/req",
    "model.constraints_built": "count/req",
    "approx.ranking_calls": "count/req",
    "approx.ranking_s": "s/req",
    "kernel.rounds": "count/req",
    **{f"kernel.rule.{rule}": "count/req" for rule in RULES},
    "kernel.search_calls": "count/req",
    "kernel.search_s": "s/req",
    "kernel.search_hit_ratio": "ratio",
    "kernel.drop_hit_ratio": "ratio",
    "kernel.apply_s": "s/req",
    "kernel.self_s": "s/req",
    "kernel.provider_calls": "count/req",
    "kernel.provider_s": "s/req",
    "kernel.provider_fault_evals": "count/req",
    "fileformat.parse_calls": "count/req",
    "fileformat.parse_s": "s/req",
    "fileformat.records": "count/req",
    "fileformat.serialize_s": "s/req",
    "generate.calls": "count/setup",
    "generate.s": "s/setup",
    "generate.constraints": "count/setup",
    "cli.self_s": "s/req",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    def __init__(self):
        # each span: [name, start, end, parent index or -1, request or -1, attrs]
        self.spans: list[list] = []
        self.request = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._resolve()

    def _resolve(self) -> None:
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == "denserank" or name.startswith("denserank."))
        ]
        for layer, path, hook in TARGETS:
            *owner_path, attr = path.split(".")
            owner = sys.modules.get(f"denserank.{layer}")
            try:
                for part in owner_path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except AttributeError:
                self.missing.append(f"denserank.{layer}.{path}")
                continue
            wrapper = self._wrap(f"{layer}.{path}", original, hook)
            if isinstance(owner, type):
                self._patches.append((owner, attr, original, wrapper))
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, key, original, wrapper))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                span[5] = hook(args, kwargs, result)
            return result

        return wrapper


def layer_metrics(
    spans: list[list], requests: int, setup_reps: int, overhead_ratio: float
) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer metrics from finished spans, plus the bases of the two
    hit ratios (total attempts) so a ratio is never read without them.

    Set-up spans (request -1) feed only generate.*.  Self time is a
    span's duration minus the durations of its direct children; calls
    are synchronous, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    children = defaultdict(list)
    for i, (_, start, end, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            children[parent].append(i)

    def under(i: int, names) -> bool:
        while i >= 0:
            if spans[i][0] in names:
                return True
            i = spans[i][3]
        return False

    count, total, self_time, layer_self = Counter(), Counter(), Counter(), Counter()
    attr_sum, hits, rules = Counter(), Counter(), Counter()
    outer_oracle, enumerated = [], []
    rounds = provider_fault_evals = 0
    for i, (name, start, end, parent, request, attrs) in enumerate(spans):
        if request < 0 and name != "generate.generate":
            continue
        count[name] += 1
        total[name] += end - start
        self_time[name] += end - start - child_time[i]
        layer_self[name.split(".")[0]] += end - start - child_time[i]
        attrs = attrs or {}
        attr_sum[name] += attrs.get("constraints", 0)
        hits[name] += attrs.get("hit", False)
        rules.update(attrs.get("rules", {}))
        if name.startswith("oracle.") and not under(parent, ORACLES):
            outer_oracle.append(end - start)
        if name in ORACLE_ENUMERATORS:
            enumerated.append(attrs["n"])
        if name == "kernel.kernelize_fast":
            rounds += sum(spans[c][0] == "approx.inc_degree_ranking" for c in children[i])
        elif name == "kernel.kernelize_characterized":
            rounds += 1 + sum(spans[c][0] == "kernel.find_simple_sunflower" for c in children[i])
        elif name == "model.fault_count" and under(parent, PROVIDERS):
            provider_fault_evals += 1

    def sums(counter, names):
        return sum(counter[n] for n in names)

    searches, drop_tries = sums(count, SEARCHES), sums(count, DROPS)
    per = 1.0 / max(requests, 1)
    per_setup = 1.0 / max(setup_reps, 1)
    metrics = {
        "oracle.calls": len(outer_oracle) * per,
        "oracle.s": sum(outer_oracle) * per,
        "oracle.n_max": max(enumerated, default=0),
        "oracle.rankings_bound": sum(factorial(n) for n in enumerated) * per,
        "model.induced_calls": count["model.induced"] * per,
        "model.induced_s": total["model.induced"] * per,
        "model.replace_calls": count["model.Instance.replace"] * per,
        "model.replace_s": total["model.Instance.replace"] * per,
        "model.fault_count_calls": count["model.fault_count"] * per,
        "model.fault_count_s": total["model.fault_count"] * per,
        "model.inconsistent_s": total["model.inconsistent_constraints"] * per,
        "model.self_s": layer_self["model"] * per,
        "model.constraints_built": sums(attr_sum, BUILDERS) * per,
        "approx.ranking_calls": count["approx.inc_degree_ranking"] * per,
        "approx.ranking_s": total["approx.inc_degree_ranking"] * per,
        "kernel.rounds": rounds * per,
        **{f"kernel.rule.{rule}": rules[rule] * per for rule in RULES},
        "kernel.search_calls": searches * per,
        "kernel.search_s": sums(total, SEARCHES) * per,
        "kernel.search_hit_ratio": sums(hits, SEARCHES) / searches if searches else 0.0,
        "kernel.drop_hit_ratio": sums(hits, DROPS) / drop_tries if drop_tries else 0.0,
        "kernel.apply_s": sums(total, APPLIES) * per,
        "kernel.self_s": layer_self["kernel"] * per,
        "kernel.provider_calls": sums(count, PROVIDERS) * per,
        "kernel.provider_s": sums(total, PROVIDERS) * per,
        "kernel.provider_fault_evals": provider_fault_evals * per,
        "fileformat.parse_calls": count["fileformat.parse"] * per,
        "fileformat.parse_s": total["fileformat.parse"] * per,
        "fileformat.records": attr_sum["fileformat.parse"] * per,
        "fileformat.serialize_s": total["fileformat.serialize"] * per,
        "generate.calls": count["generate.generate"] * per_setup,
        "generate.s": total["generate.generate"] * per_setup,
        "generate.constraints": attr_sum["generate.generate"] * per_setup,
        "cli.self_s": self_time["cli.main"] * per,
        "trace.overhead_ratio": overhead_ratio,
    }
    bases = {"kernel.search_calls_total": searches, "kernel.drop_attempts_total": drop_tries}
    return metrics, bases
