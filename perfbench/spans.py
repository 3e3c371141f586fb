"""Per-layer spans taken from outside the program.

The benchmark does not trace inside ``src/``.  Instead :class:`Tracer`
replaces public functions and methods of each layer with wrappers that
record one span per call: name, parent, start and end.  A name bound
with ``from ... import`` is wrapped where it is bound (the
``http.codec`` functions inside ``agent/proxy.py``, ``http/client.py``
and ``http/server.py``), because rebinding the defining module would
not reach those call sites.  Spans stay in memory, in flat arrays,
until the run ends.

Wrapping runs in the benchmark's own process only: the process fleet's
workers start from a fresh interpreter and are never traced.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import time
import typing as _t

#: (span name, module, attribute path).  The span name's first part is
#: the layer, a package module under ``src/repro/``.
TARGETS: _t.Tuple[_t.Tuple[str, str, str], ...] = (
    ("simulation.run", "repro.simulation.kernel", "Simulator.run"),
    ("simulation.run", "repro.simulation.kernel", "_HeapSimulator.run"),
    ("network.send", "repro.network.transport", "ConnectionEnd.send"),
    ("http.codec", "repro.agent.proxy", "decode_request"),
    ("http.codec", "repro.agent.proxy", "decode_response"),
    ("http.codec", "repro.agent.proxy", "encode_request"),
    ("http.codec", "repro.agent.proxy", "encode_response"),
    ("http.codec", "repro.http.client", "decode_response"),
    ("http.codec", "repro.http.client", "encode_request"),
    ("http.codec", "repro.http.server", "decode_request"),
    ("http.codec", "repro.http.server", "encode_response"),
    ("agent.match", "repro.agent.matcher", "RuleMatcher.match"),
    ("agent.match", "repro.agent.matcher", "TableMatcher.match"),
    ("agent.match", "repro.agent.matcher", "LinearMatcher.match"),
    ("agent.match", "repro.agent.matcher", "PrefixIndexMatcher.match"),
    ("logstore.emit", "repro.logstore.pipeline", "LogPipeline.emit"),
    ("logstore.write", "repro.logstore.store", "EventStore.append"),
    ("logstore.write", "repro.logstore.store", "EventStore.extend"),
    ("logstore.read", "repro.logstore.store", "EventStore.search"),
    ("logstore.read", "repro.logstore.store", "EventStore.search_iter"),
    ("logstore.read", "repro.logstore.store", "EventStore.count"),
    ("microservice.deploy", "repro.microservice.app", "Application.deploy"),
    ("core.inject", "repro.core.gremlin", "Gremlin.inject"),
    ("core.inject", "repro.core.translator", "RecipeTranslator.translate"),
    ("core.inject", "repro.core.orchestrator", "FailureOrchestrator.apply"),
    ("core.check", "repro.core.patterns", "HasTimeouts.run"),
    ("core.check", "repro.core.patterns", "HasBoundedRetries.run"),
    ("core.check", "repro.core.patterns", "HasCircuitBreaker.run"),
    ("core.check", "repro.core.patterns", "HasBulkhead.run"),
    ("observability.attribute", "repro.campaign.runner", "attribute_run"),
    ("observability.attribute", "repro.observability.attribution", "attribute_run"),
    ("observability.report", "repro.observability.cascade.report", "build_report"),
    ("observability.report", "repro.observability.cascade.report", "ResilienceReport.to_json"),
    ("campaign.plan", "repro.campaign", "plan_campaign"),
    ("campaign.recipe", "repro.campaign.runner", "RecipeExecutor.execute"),
    ("campaign.decode", "multiprocessing.connection", "Connection.recv"),
    ("campaign.decode", "repro.campaign.results", "RecipeOutcome.from_dict"),
    ("explore.discover", "repro.explore.runner", "discover_space"),
    ("explore.frontier", "repro.explore.frontier", "Frontier.__init__"),
    ("explore.frontier", "repro.explore.frontier", "Frontier.pop_wave"),
    ("explore.frontier", "repro.explore.frontier", "Frontier.boost_neighborhood"),
    ("explore.frontier", "repro.explore.frontier", "Frontier.defer_edge"),
    ("explore.frontier", "repro.explore.frontier", "Frontier.prune_masked"),
    ("explore.shapes", "repro.explore.runner", "shape_digests_of"),
    ("explore.shapes", "repro.explore.executor", "shape_digests_of"),
    ("explore.execute", "repro.explore.executor", "execute_task"),
)

#: Spans that end one fault experiment: on exit the metric counters of
#: every deployment built inside them are folded into the tracer.
UNIT_SPANS = ("campaign.recipe", "explore.execute", "explore.discover")

#: Metrics-registry counter -> per-layer metric.
COUNTERS = {
    "client_retries_total": "microservice.retries",
    "gremlin_faults_injected_total": "agent.faults_injected",
    "service_requests_total": "microservice.requests",
}


class Tracer:
    """In-memory span recorder that wraps :data:`TARGETS` while installed."""

    def __init__(self) -> None:
        self.names: _t.List[str] = []
        self._name_ids: _t.Dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self._stack = [-1]
        #: Exact counts kept beside the spans.
        self.counts: _t.Dict[str, int] = {}
        self._deployments: _t.List[_t.Any] = []
        #: Targets not found in the program.
        self.missing: _t.List[str] = []
        self._undo: _t.List[_t.Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _span(self, name: str, fn: _t.Callable, after=None) -> _t.Callable:
        """Wrap ``fn`` so each call records one span named ``name``;
        ``after(tracer, args, result)`` runs when the call returns."""
        name_id = self._name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(index)
            starts[index] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def _generator_span(self, name: str, fn: _t.Callable, after=None) -> _t.Callable:
        """Wrap a generator function: each resume is one span, so the
        consumer's work between items is not counted."""
        resume = self._span(name, next)
        sentinel = object()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if after is not None:
                after(self, args, None)
            generator = fn(*args, **kwargs)
            while True:
                item = resume(generator, sentinel)
                if item is sentinel:
                    return
                yield item

        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; :meth:`uninstall` restores the originals.

        A target the program no longer has is listed in
        :attr:`missing`; the benchmark fails a traced run that has
        any, since that layer would read 0.
        """
        for name, module_name, path in TARGETS:
            *owner_path, attribute = path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in owner_path:
                    owner = getattr(owner, part)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{path}")
                continue
            if isinstance(owner, type) and attribute not in vars(owner):
                if not hasattr(owner, attribute):
                    self.missing.append(f"{module_name}.{path}")
                continue  # inherited: the base class's wrapper covers it
            if not hasattr(owner, attribute):
                self.missing.append(f"{module_name}.{path}")
                continue
            raw = vars(owner)[attribute] if isinstance(owner, type) else getattr(owner, attribute)
            self._undo.append((owner, attribute, raw))
            setattr(owner, attribute, self._wrap(name, attribute, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, raw = self._undo.pop()
            setattr(owner, attribute, raw)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def _wrap(self, name: str, attribute: str, raw: _t.Any) -> _t.Any:
        if isinstance(raw, classmethod):
            return classmethod(self._wrap(name, attribute, raw.__func__))
        if name == "logstore.write":
            return self._sized_span(name, raw)
        after = _AFTER.get(name)
        if attribute == "defer_edge":
            after = _count_deferred
        if inspect.isgeneratorfunction(raw):
            return self._generator_span(name, raw, after)
        return self._span(name, raw, after)

    def _sized_span(self, name: str, fn: _t.Callable) -> _t.Callable:
        """Store writes: count the records each call added."""
        traced = self._span(name, fn)

        @functools.wraps(fn)
        def counted(store, *args, **kwargs):
            before = len(store)
            try:
                return traced(store, *args, **kwargs)
            finally:
                self.count("logstore.records", len(store) - before)

        return counted

    # -- reading ---------------------------------------------------------------

    def summary(self) -> _t.Dict[str, _t.Dict[str, float]]:
        """Per span name: ``calls`` and ``total_s`` over spans with no
        ancestor of the same name (so recursion and a wrapped method
        calling another wrapped method of its own layer count once),
        and ``self_s``, each span's time minus its direct children's."""
        names, starts, ends = self.name, self.start, self.end
        child_ns = self._child_ns()
        nested = self._nested_in_same_name()
        out: _t.Dict[str, _t.Dict[str, float]] = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names
        }
        for index in range(len(names)):
            row = out[self.names[names[index]]]
            duration = ends[index] - starts[index]
            row["self_s"] += (duration - child_ns[index]) / 1e9
            if not nested[index]:
                row["calls"] += 1
                row["total_s"] += duration / 1e9
        return out

    def _child_ns(self) -> _t.List[int]:
        """Per span, the summed durations of its direct children."""
        child_ns = [0] * len(self.name)
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                child_ns[parent] += self.end[index] - self.start[index]
        return child_ns

    def _nested_in_same_name(self) -> _t.List[bool]:
        names, parents = self.name, self.parent
        # Spans are appended in start order, so walking them in order
        # with a stack of open ancestors sees each span's whole chain.
        nested = [False] * len(names)
        open_spans: _t.List[int] = []
        open_by_name = [0] * len(self.names)
        for index in range(len(names)):
            parent = parents[index]
            while open_spans and open_spans[-1] != parent:
                open_by_name[names[open_spans.pop()]] -= 1
            nested[index] = open_by_name[names[index]] > 0
            open_spans.append(index)
            open_by_name[names[index]] += 1
        return nested

    def check_nesting(self) -> _t.List[str]:
        """Problems with the span tree: a child outside its parent's
        interval, or a span whose children cover more than itself."""
        problems = []
        starts, ends = self.start, self.end
        for index, parent in enumerate(self.parent):
            if ends[index] < starts[index]:
                problems.append(f"span {index} ends before it starts")
            if parent >= 0 and not (starts[parent] <= starts[index] and ends[index] <= ends[parent]):
                problems.append(f"span {index} lies outside its parent {parent}")
        for index, covered in enumerate(self._child_ns()):
            if covered > ends[index] - starts[index]:
                problems.append(f"span {index} has negative self time")
        return problems

    def span_tree(self, workload: str) -> dict:
        """The recorded spans as plain data (times in ns from the first
        span's start)."""
        origin = self.start[0] if len(self.start) else 0
        return {
            "workload": workload,
            "names": list(self.names),
            "columns": ["name", "parent", "start_ns", "end_ns"],
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start_ns": [value - origin for value in self.start],
            "end_ns": [value - origin for value in self.end],
        }


def _count_query(tracer: Tracer, args, result) -> None:
    tracer.count("logstore.queries")


def _count_deferred(tracer: Tracer, args, result) -> None:
    tracer.count("explore.deferred")


def _keep_deployment(tracer: Tracer, args, result) -> None:
    tracer._deployments.append(result)


def _fold_counters(tracer: Tracer, args, result) -> None:
    """Add the metric counters of deployments built since the last fold."""
    deployments, tracer._deployments = tracer._deployments, []
    for deployment in deployments:
        for series, value in deployment.metrics_snapshot()["counters"].items():
            metric = COUNTERS.get(series.split("{", 1)[0])
            if metric is not None:
                tracer.count(metric, int(value))


#: Span name -> hook run when a call returns.
_AFTER = {
    "logstore.read": _count_query,
    "microservice.deploy": _keep_deployment,
    **{name: _fold_counters for name in UNIT_SPANS},
}
