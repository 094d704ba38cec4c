"""Spans recorded from the benchmark's own files.

The program has no timing seam yet, so the traced run wraps the public
functions at each layer boundary (module attributes and class methods)
before the program runs.  A span is (name, thread, start, end, parent);
spans of one request share the root span of their thread.  Spans stay
in memory and are written out once, when the traced process ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import threading
import time
from typing import Any, Callable


class Recorder:
    """In-memory span store with a per-thread span stack."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, **extra: Any) -> dict:
        stack = self._stack()
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        span = {
            "id": span_id,
            "name": name,
            "thread": threading.get_ident(),
            "parent": stack[-1]["id"] if stack else None,
            "root": stack[0]["id"] if stack else span_id,
            "start": time.perf_counter(),
            "end": None,
        }
        span.update(extra)
        stack.append(span)
        return span

    def end(self, span: dict, **extra: Any) -> None:
        span["end"] = time.perf_counter()
        span.update(extra)
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str, **extra: Any):
        record = self.begin(name, **extra)
        try:
            yield record
        finally:
            self.end(record)

    def dump(self, path: str, **extra: Any) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, **extra}, handle)


def wrap(
    recorder: Recorder,
    owner: Any,
    attribute: str,
    name: str,
    annotate: Callable[..., dict] | None = None,
) -> None:
    """Replace ``owner.attribute`` with a span-recording wrapper.

    ``annotate(result, *args, **kwargs)`` may add fields to the span.
    Class and static methods keep their descriptor type; a generator
    function records one span per resumption.
    """
    raw = (
        owner.__dict__.get(attribute)
        if isinstance(owner, type) else None
    )
    if isinstance(raw, (classmethod, staticmethod)):
        function = raw.__func__
    else:
        function = getattr(owner, attribute)

    if inspect.isgeneratorfunction(function):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            iterator = function(*args, **kwargs)
            while True:
                span = recorder.begin(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    recorder.end(span)
                    return
                recorder.end(span)
                yield item
    else:
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            span = recorder.begin(name)
            try:
                result = function(*args, **kwargs)
            except BaseException:
                recorder.end(span, error=True)
                raise
            recorder.end(
                span, **(annotate(result, *args, **kwargs) if annotate else {})
            )
            return result

    if isinstance(raw, classmethod):
        wrapper = classmethod(wrapper)
    elif isinstance(raw, staticmethod):
        wrapper = staticmethod(wrapper)
    setattr(owner, attribute, wrapper)


# ----------------------------------------------------------------------
# probe sets: which public functions each traced process wraps
# ----------------------------------------------------------------------


def install_service_probes(recorder: Recorder, states: list) -> None:
    """Request-path boundaries of `repro serve` (the launcher's set)."""
    import json as json_module
    import types

    import repro.corpus.hashing as hashing
    import repro.service.app as app
    import repro.service.state as state_module
    from repro.engine.costengine import CostEngine
    from repro.service.batching import CostBatcher
    from repro.service.cache import ResponseCache
    from repro.service.schemas import CostRequest, CostResult

    wrap(recorder, app._Handler, "do_POST", "service.handler",
         annotate=lambda _result, handler: {"path": handler.path})
    wrap(recorder, CostRequest, "from_dict", "service.decode")
    wrap(recorder, CostRequest, "canonical", "service.canonical")
    wrap(recorder, state_module.ServiceState, "current_registry_hash",
         "registry.current_hash")
    wrap(recorder, hashing, "registry_hash", "registry.hash")
    wrap(recorder, ResponseCache, "get", "service.cache_get")
    wrap(recorder, ResponseCache, "put", "service.cache_put")
    wrap(recorder, CostBatcher, "evaluate", "service.batcher_evaluate")
    wrap(recorder, state_module.ServiceState, "evaluate_cost_batch",
         "service.state_batch",
         annotate=lambda _result, _self, requests: {"size": len(requests)})
    wrap(recorder, state_module, "evaluate_cost_batch", "service.batch_eval")
    wrap(recorder, state_module, "build_system", "explore.build_system")
    wrap(recorder, CostEngine, "evaluate_many", "engine.evaluate_many")
    wrap(recorder, CostResult, "to_dict", "service.to_dict")
    wrap(recorder, state_module.ServiceState, "run_search",
         "service.run_search")
    wrap(recorder, state_module.ServiceState, "run_scenario",
         "service.run_scenario")

    encoder = types.SimpleNamespace(
        dumps=json_module.dumps,
        loads=json_module.loads,
        JSONDecodeError=json_module.JSONDecodeError,
    )
    wrap(recorder, encoder, "dumps", "service.json_dumps")
    app.json = encoder

    original_init = state_module.ServiceState.__init__

    @functools.wraps(original_init)
    def capture_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        states.append(self)

    state_module.ServiceState.__init__ = capture_init


def install_search_probes(recorder: Recorder) -> None:
    """Search-layer boundaries (the exploration session's set)."""
    import repro.search.engine as search_engine
    import repro.search.evaluate as evaluate
    import repro.search.frontier as frontier

    wrap(recorder, evaluate, "linearize_packaging", "search.linearize")
    wrap(recorder, evaluate.SpaceEvaluator, "blocks", "search.evaluate")
    wrap(recorder, search_engine, "non_dominated_mask", "search.prune",
         annotate=lambda mask, scores, *rest, **kw: {
             "kept": int(sum(1 for kept in mask if kept)),
             "size": len(mask),
         })
    wrap(recorder, frontier, "non_dominated_mask", "search.prune_merge")


def install_corpus_probes(recorder: Recorder) -> None:
    """Corpus-layer boundaries (the exploration session's set)."""
    import repro.corpus.generator as generator
    import repro.corpus.runner as runner
    from repro.corpus.store import ResultStore

    wrap(recorder, runner, "execute_unit", "corpus.execute")
    wrap(recorder, runner, "compute_registry_hash", "corpus.registry_hash")
    wrap(recorder, ResultStore, "put", "corpus.store_put")
    wrap(recorder, ResultStore, "load", "corpus.store_load")
    wrap(recorder, generator, "spec_hash", "corpus.spec_hash")


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------


def durations_ms(spans: list[dict], name: str) -> list[float]:
    return [
        (span["end"] - span["start"]) * 1e3
        for span in spans if span["name"] == name
    ]


def self_times_ms(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    children: dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]] = children.get(span["parent"], 0.0) + (
                span["end"] - span["start"]
            )
    return {
        span["id"]: (span["end"] - span["start"] - children.get(span["id"], 0.0))
        * 1e3
        for span in spans
    }


def per_root_ms(spans: list[dict], names: set[str], roots: set[int]) -> list:
    """Summed duration of ``names`` spans under each of ``roots``."""
    totals = {root: 0.0 for root in roots}
    for span in spans:
        if span["name"] in names and span["root"] in totals:
            totals[span["root"]] += (span["end"] - span["start"]) * 1e3
    return [totals[root] for root in sorted(totals)]
