"""Layer tracer for philab, installed from outside the package.

Every public function of each layer module (and every public method of
`BipartiteStructure`, plus `PhiType.__init__`) is replaced by a wrapper,
and every attribute in `philab.*` whose value *is* the original is rebound
to the wrapper, because `from .x import y` copies names into other modules.
Module-level dicts holding originals (the `SUITES` table) are rebound too.

Two kinds of calls are recorded:

* boundary calls keep one span each: name, start, end, parent span and op id;
* hot calls (the structure core, `delta_eval` and the other functions that
  run thousands of times per op) are only aggregated.

Both kinds are aggregated in memory by (name, direct caller, calling layer,
op group) into calls, inclusive time, self time and an outcome counter, so
memory stays bounded however many calls an op makes.  Self time is a call's
duration minus the time covered by its traced children.  The calling layer
of a call is the nearest enclosing traced call of a *different* layer, or
`bench` when the benchmark called it directly.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from pathlib import Path

LAYERS = (
    "structure",
    "vc",
    "delta",
    "goodconfig",
    "isolation",
    "oracle",
    "suites",
    "generators",
    "cli",
)

#: Public module-level functions that are deliberately left unwrapped, with
#: the reason.  The self-test fails on any public function that is neither
#: wrapped nor listed here, so a rename cannot silently drop a layer metric.
EXCLUDED: dict[str, str] = {}

#: Aggregated only: each runs thousands to millions of times per op.
HOT = frozenset(
    {
        "structure.phitype",
        "delta.delta_eval",
        "delta.cached_delta_type",
        "vc.is_phi_independent",
        "goodconfig.extend_type",
        "goodconfig.delta_equal_over",
        "goodconfig.is_good_configuration",
        "isolation.check_q_realizer",
    }
)

#: What a successful call adds to its outcome counter.
OUTCOMES = {
    "vc.is_phi_independent": bool,
    "delta.finitely_satisfiable_in": bool,
    "delta.delta_type": lambda r: len(r.table),
    "goodconfig.find_extension_pair": lambda r: r is not None,
    "goodconfig.is_good_configuration": lambda r: r.ok,
    "isolation.check_q_realizer": bool,
    "isolation.find_isolating_subtype": lambda r: r.method == "exhaustive",
    "isolation.isolated_extension": lambda r: r.diagnostic is not None,
    "oracle.oracle_all_good_configs": len,
    "suites.remark_suite": lambda r: r["skipped_by_guard"],
}

MAX_SPANS = 200_000

STRUCTURE_CALLERS = ("vc", "delta", "goodconfig", "isolation")
STRUCTURE_METRICS = ("literal_mask", "check_parameter", "trace", "type_space")
GOODCONFIG_FUNCS = ("is_good_configuration", "delta_equal_over", "find_extension_pair", "build_maximal")
SUITE_NAMES = ("bound", "shatter", "remark", "defining", "oracle", "budget")
ORACLE_FUNCS = ("oracle_vc", "oracle_min_isolating", "oracle_all_good_configs")

#: Functions the per-layer metrics read by name; each must be wrapped.
METRIC_SOURCES = (
    sorted(HOT | set(OUTCOMES))
    + [f"structure.{m}" for m in STRUCTURE_METRICS]
    + ["structure.literals_mask", "delta.delta_type", "isolation.q_type"]
    + [f"goodconfig.{fn}" for fn in GOODCONFIG_FUNCS]
    + [f"oracle.{fn}" for fn in ORACLE_FUNCS]
    + [f"suites.{suite}_suite" for suite in SUITE_NAMES]
)


def coverage_problems(tracer: "Tracer") -> list[str]:
    """After `install`, every public layer function reachable as an attribute
    of any `philab` module must be a wrapper or listed in EXCLUDED, and every
    function a metric reads must have been wrapped.  Returns the problems."""
    problems = []
    for modname, mod in sorted(sys.modules.items()):
        if modname != "philab" and not modname.startswith("philab."):
            continue
        owners = [mod]
        if modname == "philab.structure":
            owners.append(mod.BipartiteStructure)
        for owner in owners:
            for attr, value in vars(owner).items():
                values = value.items() if isinstance(value, dict) else [(attr, value)]
                for key, item in values:
                    if not inspect.isfunction(item) or str(key).startswith("_"):
                        continue
                    layer = item.__module__.rpartition(".")[2]
                    if not item.__module__.startswith("philab.") or layer not in LAYERS:
                        continue
                    name = f"{layer}.{item.__name__}"
                    if not hasattr(item, "__wrapped__") and name not in EXCLUDED:
                        problems.append(f"{modname}.{attr}[{key}] is not wrapped"
                                        if key != attr else f"{modname}.{attr} is not wrapped")
    wrapped = set(tracer.wrapped)
    for name in METRIC_SOURCES:
        if name not in wrapped:
            problems.append(f"metric source {name} is not wrapped")
    return sorted(set(problems))


# A frame is a list, cheaper to build than an object on every hot call:
# [name, layer, calling layer, time covered by children, span index].
_NAME, _LAYER, _CALLER_LAYER, _CHILD, _SPAN = range(5)
_ROOT = ["bench", "bench", "bench", 0.0, -1]


def layer_functions():
    """(qualified name, owner, attribute, original) for every public callable
    the tracer covers, in layer order."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"philab.{layer}")
        for attr, value in vars(mod).items():
            if (
                inspect.isfunction(value)
                and value.__module__ == mod.__name__
                and not attr.startswith("_")
            ):
                out.append((f"{layer}.{attr}", mod, attr, value))
    structure = importlib.import_module("philab.structure")
    cls = structure.BipartiteStructure
    for attr, value in vars(cls).items():
        if inspect.isfunction(value) and not attr.startswith("_"):
            out.append((f"structure.{attr}", cls, attr, value))
    out.append(("structure.phitype", structure.PhiType, "__init__", structure.PhiType.__init__))
    return out


class Tracer:
    def __init__(self):
        self.stack = [list(_ROOT)]
        self.agg: dict[tuple, list] = {}
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.resource_errors = 0
        self.op = -1
        self.group = "setup"
        self.wrapped: list[str] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        errors = importlib.import_module("philab.errors")
        replacement = {}
        for name, owner, attr, original in layer_functions():
            if name in EXCLUDED:
                continue
            wrapper = self._wrap(name, original, errors.ResourceLimitError)
            setattr(owner, attr, wrapper)
            replacement[id(original)] = (original, wrapper)
            self.wrapped.append(name)
        for modname, mod in list(sys.modules.items()):
            if modname != "philab" and not modname.startswith("philab."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replacement.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        hit = replacement.get(id(item))
                        if hit is not None and hit[0] is item:
                            value[key] = hit[1]

    def _wrap(self, name, fn, resource_error):
        layer = name.partition(".")[0]
        hot = name in HOT or layer == "structure"
        outcome = OUTCOMES.get(name)
        stack = self.stack
        spans = self.spans
        agg = self.agg
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            caller = stack[-1]
            caller_layer = caller[_CALLER_LAYER] if caller[_LAYER] == layer else caller[_LAYER]
            span = -1
            if not hot:
                if len(spans) < MAX_SPANS:
                    span = len(spans)
                    spans.append(None)
                else:
                    tracer.spans_dropped += 1
            frame = [name, layer, caller_layer, 0.0, span]
            stack.append(frame)
            value = 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if outcome is not None:
                    value = outcome(result)
                return result
            except resource_error as exc:
                if not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    tracer.resource_errors += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                caller[_CHILD] += duration
                key = (name, caller[_NAME], caller_layer, tracer.group)
                row = agg.get(key)
                if row is None:
                    row = agg[key] = [0, 0.0, 0.0, 0]
                row[0] += 1
                row[1] += duration
                row[2] += duration - frame[_CHILD]
                row[3] += value
                if span >= 0:
                    parent = next((f[_SPAN] for f in reversed(stack) if f[_SPAN] >= 0), -1)
                    spans[span] = (name, start, end, parent, tracer.op)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    # -- output ------------------------------------------------------------

    def write(self, path: Path, extra: dict) -> None:
        """Write the aggregates and spans as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            **extra,
            "wrapped": self.wrapped,
            "resource_errors": self.resource_errors,
            "spans_dropped": self.spans_dropped,
            "aggregate_fields": ["name", "caller", "caller_layer", "group",
                                 "calls", "total_s", "self_s", "outcome"],
            "aggregate": [list(k) + v for k, v in sorted(self.agg.items())],
            "span_fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
        }
        path.write_text(json.dumps(doc))


# -- per-layer metrics -------------------------------------------------------


def _caller_bucket(layer: str) -> str:
    return layer if layer in STRUCTURE_CALLERS else "other"


def per_layer_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    specs = []

    def add(name, unit, better="lower"):
        specs.append((name, unit, better))

    for base, unit in [("structure.self_s", "s")] + [
        (f"structure.{m}.calls", "count") for m in STRUCTURE_METRICS
    ] + [("structure.phitype.constructed", "count")]:
        add(base, unit)
        for bucket in STRUCTURE_CALLERS + ("other",):
            add(f"{base}.by_{bucket}", unit)
    add("vc.self_s", "s")
    add("vc.is_phi_independent.calls", "count")
    add("vc.is_phi_independent.true_ratio", "ratio", "higher")
    add("delta.self_s", "s")
    add("delta.delta_eval.calls", "count")
    add("delta.delta_type.calls", "count")
    add("delta.table_entries", "count")
    add("delta.cache.hit_ratio", "ratio", "higher")
    add("delta.finitely_satisfiable_in.calls", "count")
    add("delta.finitely_satisfiable_in.busy_s", "s")
    add("delta.finitely_satisfiable_in.true_ratio", "ratio", "higher")
    add("goodconfig.self_s", "s")
    for fn in GOODCONFIG_FUNCS:
        add(f"goodconfig.{fn}.calls", "count")
        add(f"goodconfig.{fn}.busy_s", "s")
    add("goodconfig.find_extension_pair.hit_ratio", "ratio", "higher")
    add("goodconfig.is_good_configuration.ok_ratio", "ratio", "higher")
    add("isolation.self_s", "s")
    add("isolation.find_isolating_subtype.calls", "count")
    add("isolation.find_isolating_subtype.self_s", "s")
    add("isolation.find_isolating_subtype.subsets_tried", "count")
    add("isolation.find_isolating_subtype.exhaustive_ratio", "ratio", "higher")
    add("isolation.check_q_realizer.calls", "count")
    add("isolation.check_q_realizer.pass_ratio", "ratio", "higher")
    add("isolation.q_type.busy_s", "s")
    add("isolation.isolated_extension.deficit_ratio", "ratio")
    add("oracle.self_s", "s")
    for fn in ORACLE_FUNCS:
        add(f"oracle.{fn}.self_s", "s")
    add("oracle.configs_enumerated", "count")
    add("suites.self_s", "s")
    for suite in SUITE_NAMES:
        add(f"suites.{suite}.busy_s", "s")
    add("suites.skipped_by_guard", "count")
    add("cli.self_s", "s")
    add("generators.self_s", "s")
    add("guards.resource_errors", "count")
    add("trace_overhead_frac", "ratio")
    for layer in LAYERS:
        add(f"share.{layer}.self", "ratio")
    add("share.delta_with_structure", "ratio")
    add("share.structure_and_vc", "ratio")
    return specs


def per_layer_values(tracer: Tracer, op_time: float, group_time: dict, overhead: float) -> dict:
    """Derive every per-layer metric from the aggregates of a traced pass.
    `op_time` is the traced pass's total op latency and `group_time` the same
    split by op group (calls outside any op group, such as input generation,
    count only towards generators.self_s); ratios with an empty base read 0."""
    every = [(k[0], k[1], k[2], k[3], *v) for k, v in tracer.agg.items()]
    op_groups = set(group_time)
    in_ops = [row for row in every if row[3] in op_groups]

    def total(field, name=None, layer=None, caller=None, caller_layer=None, rows=in_ops):
        idx = {"calls": 4, "busy": 5, "self": 6, "outcome": 7}[field]
        acc = 0
        for row in rows:
            if name is not None and row[0] != name:
                continue
            if layer is not None and row[0].partition(".")[0] != layer:
                continue
            if caller is not None and row[1] != caller:
                continue
            if caller_layer is not None and _caller_bucket(row[2]) != caller_layer:
                continue
            if field == "busy" and row[1] == row[0]:
                continue  # a call nested in itself is already inside its caller
            acc += row[idx]
        return acc

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    bases = [("structure.self_s", "self", None)] + [
        (f"structure.{m}.calls", "calls", f"structure.{m}") for m in STRUCTURE_METRICS
    ] + [("structure.phitype.constructed", "calls", "structure.phitype")]
    for base, field, name in bases:
        layer = "structure" if name is None else None
        out[base] = total(field, name=name, layer=layer)
        for bucket in STRUCTURE_CALLERS + ("other",):
            out[f"{base}.by_{bucket}"] = total(field, name=name, layer=layer, caller_layer=bucket)
    op_self = {layer: total("self", layer=layer) for layer in LAYERS}
    out.update({f"{layer}.self_s": op_self[layer] for layer in LAYERS})
    # input generation outside the ops (the benchmark's own set-up) counts too
    out["generators.self_s"] = total("self", layer="generators", rows=every)
    out["vc.is_phi_independent.calls"] = total("calls", "vc.is_phi_independent")
    out["vc.is_phi_independent.true_ratio"] = ratio(
        total("outcome", "vc.is_phi_independent"), out["vc.is_phi_independent.calls"]
    )
    out["delta.delta_eval.calls"] = total("calls", "delta.delta_eval")
    out["delta.delta_type.calls"] = total("calls", "delta.delta_type")
    out["delta.table_entries"] = total("outcome", "delta.delta_type")
    cached_calls = total("calls", "delta.cached_delta_type")
    built = total("calls", "delta.delta_type", caller="delta.cached_delta_type")
    out["delta.cache.hit_ratio"] = 1.0 - ratio(built, cached_calls) if cached_calls else 0.0
    fsi = "delta.finitely_satisfiable_in"
    out[f"{fsi}.calls"] = total("calls", fsi)
    out[f"{fsi}.busy_s"] = total("busy", fsi)
    out[f"{fsi}.true_ratio"] = ratio(total("outcome", fsi), out[f"{fsi}.calls"])
    for fn in GOODCONFIG_FUNCS:
        out[f"goodconfig.{fn}.calls"] = total("calls", f"goodconfig.{fn}")
        out[f"goodconfig.{fn}.busy_s"] = total("busy", f"goodconfig.{fn}")
    out["goodconfig.find_extension_pair.hit_ratio"] = ratio(
        total("outcome", "goodconfig.find_extension_pair"),
        out["goodconfig.find_extension_pair.calls"],
    )
    out["goodconfig.is_good_configuration.ok_ratio"] = ratio(
        total("outcome", "goodconfig.is_good_configuration"),
        out["goodconfig.is_good_configuration.calls"],
    )
    fis = "isolation.find_isolating_subtype"
    out[f"{fis}.calls"] = total("calls", fis)
    out[f"{fis}.self_s"] = total("self", fis)
    out[f"{fis}.subsets_tried"] = total("calls", "structure.literals_mask", caller=fis)
    out[f"{fis}.exhaustive_ratio"] = ratio(total("outcome", fis), out[f"{fis}.calls"])
    out["isolation.check_q_realizer.calls"] = total("calls", "isolation.check_q_realizer")
    out["isolation.check_q_realizer.pass_ratio"] = ratio(
        total("outcome", "isolation.check_q_realizer"), out["isolation.check_q_realizer.calls"]
    )
    out["isolation.q_type.busy_s"] = total("busy", "isolation.q_type")
    out["isolation.isolated_extension.deficit_ratio"] = ratio(
        total("outcome", "isolation.isolated_extension"),
        total("calls", "isolation.isolated_extension"),
    )
    for fn in ORACLE_FUNCS:
        out[f"oracle.{fn}.self_s"] = total("self", f"oracle.{fn}")
    out["oracle.configs_enumerated"] = total("outcome", "oracle.oracle_all_good_configs")
    for suite in SUITE_NAMES:
        out[f"suites.{suite}.busy_s"] = total("busy", f"suites.{suite}_suite")
    out["suites.skipped_by_guard"] = total("outcome", "suites.remark_suite")
    out["guards.resource_errors"] = tracer.resource_errors
    out["trace_overhead_frac"] = overhead
    for layer in LAYERS:
        out[f"share.{layer}.self"] = ratio(op_self[layer], op_time)
    out["share.delta_with_structure"] = ratio(
        op_self["delta"] + out["structure.self_s.by_delta"], op_time
    )
    out["share.structure_and_vc"] = ratio(op_self["structure"] + op_self["vc"], op_time)
    return out
