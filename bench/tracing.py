"""Spans and counters around csskit's public functions, installed from outside.

Modules import names directly (``from .matching import rank_providers``),
so each name is patched where it is looked up: ``csskit.orchestrate.rank_providers``,
``csskit.matching.normalize`` and so on. Methods are patched on their class.
Nothing under ``src/`` is edited, and with the patches removed the program
runs exactly as it does untraced.

A span is (id, name, start, end, parent id, operation id). Spans are kept in
memory and written out when the run ends; a span's self time is its
duration minus that of its direct children (children in one thread are
nested and sequential, so their durations do not overlap).
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import statistics
import threading
import time

from csskit.protocol import REQUEST_KINDS

SETUP = -1  # operation id of spans recorded during set-up


def _nondisjoint(result) -> bool:
    return result.degree.value != "DISJOINT"


#: (module, attribute or Class.method, span name, outcome counter, outcome test)
SPANS = (
    ("csskit.documents", "build_world", "documents.build_world", None, None),
    ("csskit.orchestrate", "plan", "orchestrate.plan", None, None),
    ("csskit.orchestrate", "validate_model", "model.validate_model", None, None),
    ("csskit.orchestrate", "rank_providers", "matching.rank_providers", None, None),
    ("csskit.matching", "match_capabilities", "matching.match_capabilities",
     "matching.nondisjoint", _nondisjoint),
    ("csskit.market", "match_capabilities", "matching.match_capabilities",
     "matching.nondisjoint", _nondisjoint),
    ("csskit.matching", "normalize", "expressions.normalize", None, None),
    ("csskit.orchestrate", "normalize", "expressions.normalize", None, None),
    ("csskit.orchestrate", "execute_plan", "orchestrate.execute_plan", None, None),
    ("csskit.protocol", "SkillClient.invoke", "protocol.rtt", None, None),
    ("csskit.protocol", "SkillClient.next_event", "protocol.next_event", None, None),
    ("csskit.jsonio", "dumps", "jsonio.dumps", None, None),
    ("csskit.jsonio", "loads", "jsonio.loads", None, None),
    ("csskit.skills", "SkillHost.fire_command", "skills.fire_command", None, None),
    ("csskit.market", "select_offers", "market.select_offers",
     "market.greedy", lambda r: r.strategy == "greedy"),
    ("csskit.market", "evaluate_offer", "market.evaluate_offer",
     "market.admissible", lambda r: r.admissible),
)

#: (module, attribute or Class.method, call counter, outcome counter, outcome test)
COUNTS = (
    ("csskit.model", "WorldModel.property_def", "model.lookups", None, None),
    ("csskit.model", "WorldModel.resource", "model.lookups", None, None),
    ("csskit.model", "WorldModel.product", "model.lookups", None, None),
    ("csskit.expressions", "full_domain", "expressions.full_domain", None, None),
    ("csskit.matching", "is_subclass_of", "taxonomy.is_subclass_of", None, None),
    ("csskit.orchestrate", "bind_parameters", "orchestrate.bind_parameters", None, None),
    ("csskit.orchestrate", "_attempt_step", "orchestrate.attempt",
     "orchestrate.attempt_success", lambda r: r is True),
    ("csskit.skills", "SkillHost.read_skill", "skills.read_skill", None, None),
    ("csskit.skills", "SkillHost.check_feasibility", "skills.check_feasibility",
     "hosting.feasibility_reject", lambda r: not r.feasible),
)


def _owner(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *classes, attribute = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attribute


class Tracer:
    """Collects spans and counts while installed; one per run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[tuple[str, bool], int] = {}
        self.op = SETUP
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple] = []

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        for table, wrap in ((SPANS, self._span), (COUNTS, self._counter)):
            for module_name, path, name, outcome, test in table:
                owner, attribute = _owner(module_name, path)
                original = owner.__dict__[attribute]
                self._saved.append((owner, attribute, original))
                setattr(owner, attribute, wrap(original, name, outcome, test))

    def remove(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def _count(self, name: str) -> None:
        key = (name, self.op == SETUP)
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + 1

    def _span(self, original, name: str, outcome, test):
        tracer = self
        per_kind = name == "protocol.rtt"

        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent = stack[-1] if stack else 0
            span_id = next(tracer._ids)
            stack.append(span_id)
            op = tracer.op
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                span_name = f"{name}.{args[1]}" if per_kind else name
                tracer.spans.append((span_id, span_name, start, end, parent, op))
            if outcome is not None and test(result):
                tracer._count(outcome)
            return result

        return traced

    def _counter(self, original, name: str, outcome, test):
        tracer = self

        def counted(*args, **kwargs):
            tracer._count(name)
            result = original(*args, **kwargs)
            if outcome is not None and test(result):
                tracer._count(outcome)
            return result

        return counted

    # -- output -------------------------------------------------------------

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("span_id,name,start_ns,end_ns,parent_id,op\n")
            for span in self.spans:
                out.write(",".join(map(str, span)) + "\n")

    def layer_metrics(self, n_ops: int, traced_ms: list[float],
                      untraced_ms: list[float]) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per traced operation, as (value, unit)."""
        child_ns: dict[int, int] = {}
        for _, _, start, end, parent, _ in self.spans:
            if parent:
                child_ns[parent] = child_ns.get(parent, 0) + end - start
        total_ns: dict[str, int] = {}
        self_ns: dict[str, int] = {}
        calls: dict[str, int] = {}
        durations_ms: dict[tuple[str, bool], list[float]] = {}
        for span_id, name, start, end, _, op in self.spans:
            durations_ms.setdefault((name, op == SETUP), []).append((end - start) / 1e6)
            if op == SETUP:
                continue
            total_ns[name] = total_ns.get(name, 0) + end - start
            self_ns[name] = self_ns.get(name, 0) + end - start - child_ns.get(span_id, 0)
            calls[name] = calls.get(name, 0) + 1

        n = max(n_ops, 1)

        def ms(name):
            return total_ns.get(name, 0) / 1e6 / n, "ms"

        def self_ms(name):
            return self_ns.get(name, 0) / 1e6 / n, "ms"

        def per_op(value):
            return value / n, "count"

        def count(name):
            return self.counts.get((name, False), 0)

        def ratio(part, whole):
            return (part / whole if whole else 0.0), "ratio"

        def p50(name):
            # hello is sent only during set-up, so its latency comes from there
            samples = durations_ms.get((name, False)) or durations_ms.get((name, True))
            return (statistics.median(samples) if samples else 0.0), "ms"

        matches = calls.get("matching.match_capabilities", 0)
        build_world = durations_ms.get(("documents.build_world", True), [0.0])
        metrics = {
            "orchestrate.plan.self_ms": self_ms("orchestrate.plan"),
            "model.validate_model.ms": ms("model.validate_model"),
            "model.lookups": per_op(count("model.lookups")),
            "matching.rank_providers.self_ms": self_ms("matching.rank_providers"),
            "matching.match_capabilities.calls": per_op(matches),
            "matching.match_capabilities.self_ms": self_ms("matching.match_capabilities"),
            "matching.nondisjoint_ratio": ratio(count("matching.nondisjoint"), matches),
            "expressions.normalize.calls": per_op(calls.get("expressions.normalize", 0)),
            "expressions.normalize.ms": ms("expressions.normalize"),
            "expressions.normalize.per_match":
                (ratio(calls.get("expressions.normalize", 0), matches)[0], "count"),
            "expressions.full_domain.calls": per_op(count("expressions.full_domain")),
            "taxonomy.is_subclass_of.calls": per_op(count("taxonomy.is_subclass_of")),
            "orchestrate.bind_parameters.calls":
                per_op(count("orchestrate.bind_parameters")),
            "documents.build_world.ms": (statistics.median(build_world), "ms"),
        }
        requests = 0
        for kind in REQUEST_KINDS:
            name = f"protocol.rtt.{kind}"
            metrics[f"{name}.p50_ms"] = p50(name)
            metrics[f"{name}.calls"] = per_op(calls.get(name, 0))
            requests += calls.get(name, 0)
        attempts = count("orchestrate.attempt")
        selections = calls.get("market.select_offers", 0)
        evaluations = calls.get("market.evaluate_offer", 0)
        metrics.update({
            "protocol.next_event.wait_ms": ms("protocol.next_event"),
            "protocol.requests_per_op": per_op(requests),
            "jsonio.dumps.ms": ms("jsonio.dumps"),
            "jsonio.loads.ms": ms("jsonio.loads"),
            "skills.fire_command.ms": ms("skills.fire_command"),
            "skills.read_skill.calls": per_op(count("skills.read_skill")),
            "skills.check_feasibility.calls": per_op(count("skills.check_feasibility")),
            "hosting.feasibility.reject_ratio": ratio(
                count("hosting.feasibility_reject"), count("skills.check_feasibility")
            ),
            "orchestrate.execute_plan.self_ms": self_ms("orchestrate.execute_plan"),
            "orchestrate.attempt_success_ratio":
                ratio(count("orchestrate.attempt_success"), attempts),
            "market.select_offers.self_ms": self_ms("market.select_offers"),
            "market.evaluate_offer.calls": per_op(evaluations),
            "market.evaluate_offer.ms": ms("market.evaluate_offer"),
            "market.admissible_ratio": ratio(count("market.admissible"), evaluations),
            "market.greedy_share": ratio(count("market.greedy"), selections),
            "trace.overhead_ratio": ratio(
                statistics.median(traced_ms) if traced_ms else 0.0,
                statistics.median(untraced_ms) if untraced_ms else 0.0,
            ),
        })
        return metrics
