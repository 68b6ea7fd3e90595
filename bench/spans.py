"""In-memory spans around the public functions of wdmt's layers.

``Tracer.install`` wraps each function in ``TARGETS`` wherever callers
look it up: every attribute of a loaded ``wdmt`` module that holds the
original function is replaced, so ``wdmt.cli.outage_probability`` and
``wdmt.channel_sim.outage_probability`` are both traced, and
``confidence_interval`` is traced when ``outage_probability`` calls it.
``uninstall`` restores the originals, so untraced work pays nothing.

A span records name, start, end, parent span and operation id. A span's
self time is its duration minus the durations of its child spans (calls
are nested, one thread). Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

from wdmt.core import SCENARIO_KINDS


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _outage_attrs(tracer, args, kwargs, result):
    return {
        "kind": _arg(args, kwargs, 0, "scenario").kind,
        "n": int(_arg(args, kwargs, 3, "n_samples")),
        "used": result.n_samples,
        "discarded": result.n_discarded,
    }


def _ci_attrs(tracer, args, kwargs, result):
    return {"exact": int(_arg(args, kwargs, 0, "n_outages")) < 20}


def _grid_attrs(tracer, args, kwargs, result):
    inst = _arg(args, kwargs, 0, "instance")
    key = (inst.costs, inst.weights, inst.upper, int(_arg(args, kwargs, 1, "resolution")))
    first = key not in tracer.grid_seen
    tracer.grid_seen.add(key)
    return {"first": first}


def _fit_attrs(tracer, args, kwargs, result):
    return {"dropped": len(result.dropped)}


# (module, attribute, span name, attribute extractor)
TARGETS = (
    ("wdmt.channel_sim", "outage_probability", "channel_sim.outage_probability", _outage_attrs),
    ("wdmt.channel_sim", "confidence_interval", "channel_sim.confidence_interval", _ci_attrs),
    ("wdmt.channel_sim", "validate_gain_distribution", "channel_sim.validate_gain_distribution", None),
    ("wdmt.lp_oracle", "lp_grid", "lp_oracle.lp_grid", _grid_attrs),
    ("wdmt.lp_oracle", "lp_vertex", "lp_oracle.lp_vertex", None),
    ("wdmt.dmt_analytic", "lp_greedy", "dmt_analytic.lp_greedy", None),
    ("wdmt.dmt_analytic", "curve_for_scenario", "dmt_analytic.curve_for_scenario", None),
    ("wdmt.exponent_fit", "fit_slope", "exponent_fit.fit_slope", _fit_attrs),
    ("wdmt.cli", "main", "cli.main", None),
    ("wdmt.cli", "cmd_simulate", "cli.simulate", None),
    ("wdmt.cli", "cmd_fit", "cli.fit", None),
    ("wdmt.cli", "cmd_curve", "cli.curve", None),
)


class Tracer:
    """Collects spans while installed; ``op`` tags spans with the id of the
    benchmark operation that caused them."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, op, self_s, attrs)
        self.counters: dict[str, float] = defaultdict(float)
        self.grid_seen: set = set()
        self.op: int | None = None
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._patched: list[tuple] = []

    def _wrap(self, name: str, fn, attrs):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                extra = attrs(self, args, kwargs, result) if attrs and result is not None else {}
                self.spans.append((
                    span_id, name, start, end, parent[0] if parent else None,
                    self.op, duration - frame[1], extra,
                ))

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "wdmt" or n.startswith("wdmt.")]
        for module_name, attr, name, attrs in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original, attrs)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, op, self_s, extra in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op, "self_s": self_s, **extra,
                }) + "\n")

    def layer_metrics(self, traced_wall_s: float, cycles: int) -> dict[str, float]:
        """Per-layer totals over the traced cycles, divided by their number.

        ``.s`` is a span's whole duration, ``.self_s`` its self time.
        ``trace.uncovered_s`` is traced wall time no root span covers.
        """
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        self_total: dict[str, float] = defaultdict(float)
        kind_self: dict[str, float] = defaultdict(float)
        kind_n: dict[str, int] = defaultdict(int)
        used = discarded = exact = dropped = 0
        root_s = 0.0
        for _, name, start, end, parent, _, self_s, extra in self.spans:
            if name == "lp_oracle.lp_grid":
                name += ".first" if extra.get("first") else ".repeat"
            calls[name] += 1
            total[name] += end - start
            self_total[name] += self_s
            if parent is None:
                root_s += end - start
            if name == "channel_sim.outage_probability" and extra:
                kind_self[extra["kind"]] += self_s
                kind_n[extra["kind"]] += extra["n"]
                used += extra["used"]
                discarded += extra["discarded"]
            exact += bool(extra.get("exact"))
            dropped += extra.get("dropped", 0)

        per = 1.0 / cycles
        out = {
            "channel_sim.outage_probability.calls": calls["channel_sim.outage_probability"] * per,
            "channel_sim.outage_probability.self_s": self_total["channel_sim.outage_probability"] * per,
        }
        for kind in SCENARIO_KINDS:
            ns = 1e9 * kind_self[kind] / kind_n[kind] if kind_n[kind] else 0.0
            out[f"channel_sim.outage_probability.ns_per_sample.{kind}"] = ns
        out["channel_sim.samples_used"] = used * per
        out["channel_sim.samples_discarded"] = discarded * per
        out["channel_sim.discard_ratio"] = discarded / (used + discarded) if used + discarded else 0.0
        out["channel_sim.confidence_interval.calls"] = calls["channel_sim.confidence_interval"] * per
        out["channel_sim.confidence_interval.s"] = total["channel_sim.confidence_interval"] * per
        out["channel_sim.confidence_interval.exact_calls"] = exact * per
        for name in (
            "channel_sim.validate_gain_distribution",
            "lp_oracle.lp_grid.first",
            "lp_oracle.lp_grid.repeat",
            "lp_oracle.lp_vertex",
            "dmt_analytic.lp_greedy",
            "dmt_analytic.curve_for_scenario",
            "exponent_fit.fit_slope",
        ):
            out[f"{name}.calls"] = calls[name] * per
            out[f"{name}.s"] = total[name] * per
        out["exponent_fit.points_dropped"] = dropped * per
        for command in ("simulate", "fit", "curve"):
            out[f"cli.{command}.s"] = total[f"cli.{command}"] * per
        out["cli.self_s"] = sum(v for k, v in self_total.items() if k.startswith("cli.")) * per
        out["cli.bytes_written"] = self.counters["cli.bytes_written"] * per
        out["trace.wall_s"] = traced_wall_s * per
        out["trace.uncovered_s"] = (traced_wall_s - root_s) * per
        return out

    def self_shares(self, traced_wall_s: float) -> list[tuple[str, float]]:
        """(span name, share of traced wall time spent in its own code),
        largest first."""
        shares: dict[str, float] = defaultdict(float)
        for _, name, _, _, _, _, self_s, _ in self.spans:
            shares[name] += self_s / traced_wall_s
        return sorted(shares.items(), key=lambda item: -item[1])
