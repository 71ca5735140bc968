"""In-memory spans around the public functions of each redeploy layer.

A Tracer replaces each function listed in TARGETS at its module attribute,
and in every other redeploy module that imported the same object by name,
with a wrapper that records a span while an operation is open.  Nothing in
the program changes: the wrappers are removed when the tracer closes.
Spans stay in memory until the run ends.

A span holds its name, start, end, parent span and operation id.  Its self
time is its duration minus the time its child spans cover.  Hooks attach a
few counts to a span (arcs of a flow network, units of flow, blocks), read
off the call's arguments and result after the span has ended.
"""

from __future__ import annotations

import functools
import itertools
import operator
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

BENCH = "bench"


def _arcs(network) -> int:
    return len(network.edges) + len(network.sinks)


def _flow_hook(args, kwargs, result):
    if result is None:
        units = 0
    elif isinstance(result, tuple):
        units = result[0]
    else:
        units = result
    return {"arcs": _arcs(args[0]), "units": units}


def _built_hook(args, kwargs, result):
    return {"arcs": _arcs(result)}


def _circulation_hook(args, kwargs, result):
    before = sum(args[1].values.values())
    return {"units": before - sum(result.values.values())}


def _argmax_hook(args, kwargs, result):
    game, base = args[0], args[1]
    return {"subsets": 2 ** (len(game.universe) - len(base)) - 1}


def _blocks_hook(args, kwargs, result):
    return {"blocks": len(result.blocks)}


def _dominant_hook(args, kwargs, result):
    return {"dominant": len(result)}


def _audit_hook(args, kwargs, result):
    return {"misreports": sum(result.misreports_tested.values())}


def _command_hook(args, kwargs, result):
    return {"command": args[0][0]}


#: (layer, module, attribute, hook); the layers are the package's modules,
#: with redeploy.typed counted as part of the instance data model.
TARGETS = (
    ("instance", "redeploy.instance", "parse_instance", None),
    ("instance", "redeploy.instance", "is_feasible", None),
    ("instance", "redeploy.instance", "post_transfer_deficits", None),
    ("instance", "redeploy.typed", "parse_typed", None),
    ("instance", "redeploy.typed", "is_feasible_typed", None),
    ("instance", "redeploy.typed", "post_transfer_deficits_typed", None),
    ("network", "redeploy.network", "build_base_network", _built_hook),
    ("network", "redeploy.network", "build_extended_network", _built_hook),
    ("network", "redeploy.network", "build_specialization_network",
     _built_hook),
    ("network", "redeploy.network", "flow_to_transfer", None),
    ("network", "redeploy.network", "cancel_circulations",
     _circulation_hook),
    ("maxflow", "redeploy.maxflow", "max_flow", _flow_hook),
    ("maxflow", "redeploy.maxflow", "max_flow_with_lower_bounds", _flow_hook),
    ("maxflow", "redeploy.maxflow", "b_max_flow", _flow_hook),
    ("game", "redeploy.game", "FlowGame.worth_for_mask", None),
    ("game", "redeploy.game", "blocking_coalition", None),
    ("egalitarian", "redeploy.egalitarian", "decompose", _blocks_hook),
    ("egalitarian", "redeploy.egalitarian", "argmax_average_marginal",
     _argmax_hook),
    ("rounding", "redeploy.rounding", "solve", None),
    ("rounding", "redeploy.rounding", "round_decomposition", None),
    ("rounding", "redeploy.rounding", "build_augmented_network", _built_hook),
    ("oracle", "redeploy.oracle", "brute_force_lorenz_dominant", None),
    ("oracle", "redeploy.oracle", "dominant_outcomes", None),
    ("mechanism", "redeploy.mechanism", "audit_strategy_proofness",
     _audit_hook),
    ("mechanism", "redeploy.mechanism", "select_transfer", None),
    ("mechanism", "redeploy.mechanism", "dominant_transfers",
     _dominant_hook),
    ("cli", "redeploy.cli", "main", _command_hook),
    ("cli", "redeploy.cli", "solution_doc", None),
)

LAYERS = tuple(dict.fromkeys(t[0] for t in TARGETS))


@dataclass
class Span:
    name: str       # "<layer>.<function>"
    start: float
    end: float
    parent: int     # index of the enclosing span, -1 for an operation
    op: int
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while installed and inside operation()."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        # (span, counter) of each oracle enumeration of the open operation
        self._outcome_counters: list[tuple[int, itertools.count]] = []

    # -- installation --------------------------------------------------

    def install(self):
        """Wrap every target.  One the program no longer has is listed in
        `missing`, and the metrics drawn from it read 0."""
        modules = [m for name, m in sys.modules.items()
                   if name == "redeploy" or name.startswith("redeploy.")]
        enumeration = ("oracle", "redeploy.oracle", "iter_outcomes", None)
        for layer, module, attr, hook in TARGETS + (enumeration,):
            owner = sys.modules.get(module)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, name, None)
            if original is None:
                self.missing.append(f"{module}.{attr}")
            elif attr == "iter_outcomes":
                self._rebind(modules, owner, name, original,
                             self._wrap_enumeration(original))
            else:
                self._rebind(modules, owner, name, original,
                             self._wrap(f"{layer}.{name}", original, hook))
        return self

    def _rebind(self, modules, owner, name, original, wrapper):
        self._restore.append((owner, name, original))
        setattr(owner, name, wrapper)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, key, original))
                    setattr(module, key, wrapper)

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- recording -----------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                               self._op))
        self._stack.append(index)
        return index

    def _close(self, index: int):
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, func, hook):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if tracer._op is None:
                return func(*args, **kwargs)
            index = tracer._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(index)
            if hook is not None:
                tracer.spans[index].attrs.update(hook(args, kwargs, result))
            return result
        return wrapper

    def _wrap_enumeration(self, func):
        """iter_outcomes returns a generator: count, on the span it runs
        under, its calls, its product space and, through a C-level counter,
        the outcomes it yields."""
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stream = func(*args, **kwargs)
            if tracer._op is None:
                return stream
            index = tracer._stack[-1]
            attrs = tracer.spans[index].attrs
            attrs["enumerate_calls"] = attrs.get("enumerate_calls", 0) + 1
            attrs["space"] = attrs.get("space", 0) + product_space(
                args[0], kwargs.get("acceptable"))
            counter = itertools.count()
            tracer._outcome_counters.append((index, counter))
            return map(operator.itemgetter(0), zip(stream, counter))
        return wrapper

    @contextmanager
    def operation(self, op: int, kind: str):
        """Open the root span of one benchmark operation."""
        self._op = op
        index = self._open(f"{BENCH}.{kind}")
        try:
            yield
        finally:
            self._close(index)
            self._op = None
            # zip advances a counter once per outcome taken from its stream
            for span, counter in self._outcome_counters:
                attrs = self.spans[span].attrs
                attrs["outcomes"] = attrs.get("outcomes", 0) + next(counter)
            self._outcome_counters.clear()

    def dump(self) -> dict:
        origin = self.spans[0].start if self.spans else 0.0
        return {
            "columns": ["name", "start_s", "end_s", "parent", "op"],
            "rows": [[s.name, s.start - origin, s.end - origin, s.parent,
                      s.op] for s in self.spans],
        }


def product_space(instance, acceptable=None) -> int:
    """Size of the product space the oracle enumerates: (options + 1) per
    teacher, options being the acceptable deficit schools under the
    reported profile."""
    index = instance.deficit_index
    size = 1
    for teacher in instance.teachers:
        wanted = teacher.acceptable if acceptable is None \
            else acceptable.get(teacher.id, teacher.acceptable)
        size *= 1 + sum(1 for school in wanted if school in index)
    return size


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for k, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children[k], key=operator.attrgetter("start")):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out


def commands(spans: list[Span]) -> list[str | None]:
    """The CLI command each span runs under, if any."""
    out: list[str | None] = []
    for span in spans:  # a parent always precedes its children
        if span.name == "cli.main":
            out.append(span.attrs.get("command"))
        else:
            out.append(out[span.parent] if span.parent >= 0 else None)
    return out


def layer_metrics(tracer: Tracer, ops, command: str | None = None) -> dict:
    """Per-layer metrics of the given operations, per operation.

    Times and counts are totals divided by the number of operations; ratios
    are taken between totals.  With `command`, only spans under that CLI
    command count.  The "outer" spans of a layer are those whose parent
    belongs to another layer, so a call that delegates within its layer is
    counted once.
    """
    wanted = set(ops)
    spans = tracer.spans
    total: Counter = Counter()
    layer_self: Counter = Counter()

    def outer(span):
        return span.parent < 0 or spans[span.parent].layer != span.layer

    for span, own, under in zip(spans, self_times(spans), commands(spans)):
        if span.op not in wanted or command not in (None, under):
            continue
        name, layer = span.name, span.layer
        layer_self[layer] += own
        total[name + ".count"] += 1
        total[name + ".s"] += span.duration
        total[name + ".self_s"] += own
        for key, value in span.attrs.items():
            if isinstance(value, (int, float)):
                total[f"{name}.{key}"] += value
        for key in ("enumerate_calls", "space", "outcomes"):
            total["oracle." + key] += span.attrs.get(key, 0)
        if layer == "maxflow" and outer(span):
            total["maxflow.calls"] += 1
            total["maxflow.arcs_built"] += span.attrs.get("arcs", 0)
            total["maxflow.flow_units"] += span.attrs.get("units", 0)
        elif name.startswith("network.build_"):
            total["network.build_s"] += span.duration
            total["network.arcs"] += span.attrs.get("arcs", 0)
        elif layer == "instance" and outer(span):
            kind = "parse_s" if ".parse_" in name else "verify_s"
            total["instance." + kind] += span.duration
        elif layer == BENCH:
            total["bench.op_s"] += span.duration
    metrics = {
        "egalitarian.subsets_scanned":
            total["egalitarian.argmax_average_marginal.subsets"],
        "egalitarian.argmax_calls":
            total["egalitarian.argmax_average_marginal.count"],
        "egalitarian.argmax_self_s":
            total["egalitarian.argmax_average_marginal.self_s"],
        "egalitarian.decompose_s": total["egalitarian.decompose.s"],
        "egalitarian.blocks": total["egalitarian.decompose.blocks"],
        "game.worth_queries": total["game.worth_for_mask.count"],
        "maxflow.calls": total["maxflow.calls"],
        "maxflow.arcs_built": total["maxflow.arcs_built"],
        "maxflow.flow_units": total["maxflow.flow_units"],
        "maxflow.lb_calls": total["maxflow.max_flow_with_lower_bounds.count"],
        "maxflow.lb_s": total["maxflow.max_flow_with_lower_bounds.s"],
        "rounding.round_s": total["rounding.round_decomposition.s"],
        "rounding.augmented_arcs":
            total["rounding.build_augmented_network.arcs"],
        "network.build_s": total["network.build_s"],
        "network.arcs": total["network.arcs"],
        "network.extract_s": total["network.flow_to_transfer.s"],
        "network.circulation_units":
            total["network.cancel_circulations.units"],
        "instance.parse_s": total["instance.parse_s"],
        "instance.verify_s": total["instance.verify_s"],
        "cli.solution_doc_s": total["cli.solution_doc.s"],
        "oracle.enumerate_calls": total["oracle.enumerate_calls"],
        "oracle.outcomes": total["oracle.outcomes"],
        "oracle.enumerate_s": total["oracle.dominant_outcomes.s"],
        "mechanism.select_calls": total["mechanism.select_transfer.count"],
        "mechanism.select_s": total["mechanism.select_transfer.s"],
        "mechanism.misreports_tested":
            total["mechanism.audit_strategy_proofness.misreports"],
        "bench.op_s": total["bench.op_s"],
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer]
    if wanted:
        metrics = {k: v / len(wanted) for k, v in metrics.items()}

    def ratio(part, whole):
        return part / whole if whole else 0.0

    worth = total["game.worth_for_mask.count"]
    metrics["game.memo_hit_ratio"] = \
        1 - ratio(total["maxflow.b_max_flow.count"], worth) if worth else 0.0
    metrics["oracle.feasible_ratio"] = ratio(total["oracle.outcomes"],
                                             total["oracle.space"])
    metrics["mechanism.dominant_per_select"] = ratio(
        total["mechanism.dominant_transfers.dominant"],
        total["mechanism.select_transfer.count"])
    metrics["egalitarian.decompose_share"] = ratio(
        total["egalitarian.decompose.s"], total["bench.op_s"])
    return metrics
