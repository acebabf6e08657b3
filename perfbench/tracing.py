"""Spans around calls into pdmarl's layers, recorded from outside the program.

A traced run replaces public functions at the module attribute their caller
looks up (``pdmarl.primal_dual.td_evaluate`` is what ``train`` calls) with a
wrapper that records a span: name, start, end and the span open at the call.
Spans stay in memory and are written out when the run ends. A name that no
longer exists is reported as absent, not as a failure.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict


def _count_samples(counters, fn, args, kwargs, batch):
    counters["sampling.agent_steps"] += batch.states.size  # B * H * n


def _count_td(counters, fn, args, kwargs, tables):
    steps = inspect.signature(fn).bind(*args, **kwargs).arguments["cfg"].steps
    counters["critic.td_updates"] += steps * len(tables)  # K * n
    for q in tables:
        counters["critic.q_cells"] += q.table.size
        counters["critic.q_cells_touched"] += int((q.table != 0).sum())


def _count_p(counters, fn, args, kwargs, P):
    counters["model.p_bytes"] += P.nbytes


# (module whose attribute the caller looks up, attribute, span name, counter)
TARGETS = (
    ("pdmarl.cli", "build_env", "envs.build_env", None),
    ("pdmarl.cli", "train", "primal_dual.train", None),
    ("pdmarl.cli", "_write_csv", "cli.write", None),
    ("pdmarl.cli", "save_policy", "cli.write", None),
    ("pdmarl.primal_dual", "sample_trajectories",
     "sampling.sample_trajectories", _count_samples),
    ("pdmarl.primal_dual", "estimate_local_occupancy",
     "occupancy.estimate_local_occupancy", None),
    ("pdmarl.primal_dual", "utility_value", "utilities.utility_value", None),
    ("pdmarl.primal_dual", "shadow_reward", "utilities.shadow_reward", None),
    ("pdmarl.primal_dual", "batch_discounted_return",
     "primal_dual.batch_discounted_return", None),
    ("pdmarl.primal_dual", "td_evaluate", "critic.td_evaluate", _count_td),
    ("pdmarl.primal_dual", "truncated_pg_estimate",
     "primal_dual.truncated_pg_estimate", None),
    ("pdmarl.primal_dual", "policy_ascent", "primal_dual.policy_ascent", None),
    ("pdmarl.primal_dual", "exact_lagrangian_gradient",
     "primal_dual.exact_lagrangian_gradient", None),
    ("pdmarl.primal_dual", "exact_dual_gradient",
     "primal_dual.exact_dual_gradient", None),
    ("pdmarl.primal_dual", "exact_global_occupancy",
     "occupancy.exact_global_occupancy", None),
    ("pdmarl.primal_dual", "full_q", "critic.full_q", None),
    ("pdmarl.occupancy", "global_transition_matrix",
     "model.global_transition_matrix", _count_p),
    ("pdmarl.critic", "global_transition_matrix",
     "model.global_transition_matrix", _count_p),
)


class Tracer:
    """Spans are ``[id, name, start, end, parent_id]`` lists in call order."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self.absent = []
        self._open = []
        self._installed = []

    def begin(self, name):
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([sid, name, time.perf_counter(), None, parent])
        self._open.append(sid)
        return sid

    def end(self, sid):
        self.spans[sid][3] = time.perf_counter()
        self._open.pop()

    def wrap(self, module_name, attr, name, count=None):
        """Replace ``module_name.attr`` by a span-recording wrapper.

        ``count(counters, original, args, kwargs, result)`` runs after the
        call inside its own ``trace.count`` span, so its cost is not charged
        to the caller's self time. A counter that cannot read what it needs
        from the call marks itself absent instead of failing the run.
        """
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        original = getattr(module, attr, None)
        if original is None:
            self.absent.append(f"{module_name}.{attr}")
            return

        @functools.wraps(original)
        def traced(*args, **kwargs):
            sid = self.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(sid)
            if count is not None:
                cid = self.begin("trace.count")
                try:
                    count(self.counters, original, args, kwargs, result)
                except (AttributeError, KeyError, TypeError):
                    label = f"counter of {name}"
                    if label not in self.absent:
                        self.absent.append(label)
                finally:
                    self.end(cid)
            return result

        setattr(module, attr, traced)
        self._installed.append((module, attr, original))

    def install(self):
        for target in TARGETS:
            self.wrap(*target)

    def restore(self):
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)


def self_times(spans):
    """Span id -> its duration minus the part of it its children cover."""
    children = defaultdict(list)
    for sid, _name, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _name, start, end, _parent in spans:
        covered, cursor = 0.0, start
        for c_start, c_end in sorted(children[sid]):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[sid] = (end - start) - covered
    return out


def layer_metrics(traces, untraced_ips, traced_ips):
    """Per-layer metrics from the traced runs of one invocation.

    ``traces`` holds one dict per traced run with its ``spans``,
    ``counters``, ``iterations`` and ``bytes_written``. Times are per
    training iteration unless the unit says otherwise.
    """
    busy, self_, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    counters = defaultdict(float)
    iters = sum(t["iterations"] for t in traces)
    runs = len(traces)
    for trace in traces:
        own = self_times(trace["spans"])
        for sid, name, start, end, _parent in trace["spans"]:
            busy[name] += end - start
            self_[name] += own[sid]
            calls[name] += 1
        for key, value in trace["counters"].items():
            counters[key] += value

    def per(num, den):
        return num / den if den else 0.0

    def ms(name):
        return per(busy[name] * 1e3, iters)

    sample, td, gtm = ("sampling.sample_trajectories", "critic.td_evaluate",
                       "model.global_transition_matrix")
    firings = calls["primal_dual.exact_lagrangian_gradient"]
    oracle_s = (busy["primal_dual.exact_lagrangian_gradient"]
                + busy["primal_dual.exact_dual_gradient"])
    train_s = busy["primal_dual.train"]
    out = {
        f"{sample}.busy_ms": (ms(sample), "ms/iter"),
        f"{sample}.calls": (per(calls[sample], iters), "calls/iter"),
        "sampling.agent_steps": (per(counters["sampling.agent_steps"], iters),
                                 "steps/iter"),
        "sampling.ns_per_agent_step": (
            per(busy[sample] * 1e9, counters["sampling.agent_steps"]), "ns"),
        f"{td}.busy_ms": (ms(td), "ms/iter"),
        f"{td}.calls": (per(calls[td], iters), "calls/iter"),
        "critic.td_updates": (per(counters["critic.td_updates"], iters),
                              "updates/iter"),
        "critic.ns_per_td_update": (
            per(busy[td] * 1e9, counters["critic.td_updates"]), "ns"),
        "critic.q_cells": (per(counters["critic.q_cells"], calls[td]),
                           "cells/call"),
        "critic.q_bytes": (per(counters["critic.q_cells"] * 8, calls[td]),
                           "bytes/call"),
        "critic.q_cells_touched_ratio": (
            per(counters["critic.q_cells_touched"], counters["critic.q_cells"]),
            "ratio"),
        f"{gtm}.calls": (per(calls[gtm], firings), "calls/firing"),
        f"{gtm}.busy_ms": (ms(gtm), "ms/iter"),
        "model.p_bytes": (per(counters["model.p_bytes"], calls[gtm]), "bytes"),
    }
    for name in ("critic.full_q", "occupancy.exact_global_occupancy",
                 "primal_dual.exact_lagrangian_gradient",
                 "primal_dual.exact_dual_gradient",
                 "occupancy.estimate_local_occupancy",
                 "primal_dual.truncated_pg_estimate",
                 "primal_dual.policy_ascent",
                 "primal_dual.batch_discounted_return",
                 "primal_dual.train"):
        out[f"{name}.busy_ms"] = (ms(name), "ms/iter")
    out["utilities.busy_ms"] = (
        ms("utilities.utility_value") + ms("utilities.shadow_reward"), "ms/iter")
    out["primal_dual.train.self_ms"] = (
        per(self_["primal_dual.train"] * 1e3, iters), "ms/iter")
    out["envs.build_env.busy_ms"] = (
        per(busy["envs.build_env"] * 1e3, calls["envs.build_env"]), "ms/call")
    out["cli.write_ms"] = (per(busy["cli.write"] * 1e3, runs), "ms/run")
    out["cli.bytes_written"] = (
        per(sum(t["bytes_written"] for t in traces), runs), "bytes/run")
    out["share.sampling_td_pct"] = (
        per(100.0 * (busy[sample] + self_[td]), train_s), "%")
    out["share.exact_oracle_pct"] = (per(100.0 * oracle_s, train_s), "%")
    out["trace.overhead_pct"] = (
        100.0 * (per(untraced_ips, traced_ips) - 1.0), "%")
    return out
