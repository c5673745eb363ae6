"""Span tracer for the traced run, installed from outside the package.

The tracer replaces the module and class attributes that callers resolve at
call time with wrappers that record a span per call: name, layer, parent
span, query id, start and end. Spans stay in memory and are written out at
the end. ``score`` spans running on ``LlmScorer``'s worker threads take the
open ``score_batch`` span as their parent.

A span's self time is its share of the wall time during which it is the
innermost open span; when several spans are innermost at once (worker
threads in flight together), they split that interval evenly. Self times
therefore partition the root span exactly, so each layer's self time sums to
the traced wall time.
"""

from __future__ import annotations

import functools
import gzip
import json
import threading
import time

# Span fields, as list positions.
NAME, LAYER, PARENT, QUERY, START, END, KIND = range(7)

LAYERS = (
    "bench",
    "cli",
    "io",
    "datamodel",
    "scorer.oracle",
    "scorer.prompts",
    "scorer.llm",
    "strategies",
    "analysis",
    "eval",
)


def _strategy_name(function_name: str) -> str:
    return function_name[len("rank_"):].replace("_", "-")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.calls: list = []  # (scorer, request) per score call, for the distinct-judgment key
        self.threads_max = threading.active_count()
        self.failures = 0
        self.originals: dict[str, object] = {}
        self._local = threading.local()
        self._open_batch: list | None = None
        self._lock = threading.Lock()

    def open(self, name: str, layer: str, query_id: str | None = None, kind: str = "") -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else self._open_batch
        if query_id is None and parent is not None:
            query_id = parent[QUERY]
        span = [name, layer, parent, query_id, 0, 0, kind]
        stack.append(span)
        self.spans.append(span)
        span[START] = time.perf_counter_ns()
        return span

    def close(self, span: list) -> None:
        span[END] = time.perf_counter_ns()
        self._local.stack.pop()

    def _wrap(self, fn, name: str, layer: str, query_of=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name, layer, query_of(args) if query_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(span)

        return wrapper

    def _wrap_score(self, fn, oracle_type):
        tracer = self

        @functools.wraps(fn)
        def score(scorer, request):
            layer = "scorer.oracle" if isinstance(scorer, oracle_type) else "scorer.llm"
            span = tracer.open("scorer.score", layer, kind=request.kind)
            threads = threading.active_count()
            if threads > tracer.threads_max:
                tracer.threads_max = threads
            try:
                return fn(scorer, request)
            except BaseException:
                with tracer._lock:
                    tracer.failures += 1
                raise
            finally:
                tracer.close(span)
                tracer.calls.append((scorer, request))

        return score

    def _wrap_batch(self, fn, oracle_type):
        tracer = self

        @functools.wraps(fn)
        def score_batch(scorer, requests):
            layer = "scorer.oracle" if isinstance(scorer, oracle_type) else "scorer.llm"
            span = tracer.open("scorer.score_batch", layer)
            outer, tracer._open_batch = tracer._open_batch, span
            try:
                return fn(scorer, requests)
            finally:
                tracer._open_batch = outer
                tracer.close(span)

        return score_batch

    def install(self) -> None:
        """Wrap the public entry points of every layer, where callers resolve them."""
        import refrank.analysis as analysis
        import refrank.eval as reval
        import refrank.io as rio
        import refrank.scorer.base as base
        import refrank.scorer.llm as llm
        import refrank.scorer.oracle as oracle
        import refrank.strategies as strategies

        for name in ("assemble_experiment", "parse_qrels", "write_run_file"):
            setattr(rio, name, self._wrap(getattr(rio, name), f"io.{name}", "io"))
        strategies.build_ranking = self._wrap(
            strategies.build_ranking, "datamodel.build_ranking", "datamodel"
        )
        for name in [n for n in vars(strategies) if n.startswith("rank_")]:
            wrapper = self._wrap(
                getattr(strategies, name),
                f"strategies.{_strategy_name(name)}",
                "strategies",
                query_of=lambda args: args[0].query.id,
            )
            setattr(strategies, name, wrapper)
            if hasattr(analysis, name):
                setattr(analysis, name, wrapper)

        self.originals["build_prompt"] = llm.build_prompt
        llm.build_prompt = self._wrap(llm.build_prompt, "scorer.prompts.build_prompt", "scorer.prompts")
        oracle_type = oracle.OracleScorer
        base.Scorer.score = self._wrap_score(base.Scorer.score, oracle_type)
        base.Scorer.score_batch = self._wrap_batch(base.Scorer.score_batch, oracle_type)
        llm.LlmScorer.score_batch = self._wrap_batch(llm.LlmScorer.score_batch, oracle_type)

        ndcg = self._wrap(reval.ndcg_at_k, "eval.ndcg_at_k", "eval")
        reval.ndcg_at_k = analysis.ndcg_at_k = ndcg
        reval.evaluate_rankings = self._wrap(
            reval.evaluate_rankings, "eval.evaluate_rankings", "eval"
        )

        def sweep_query(args):
            lists = args[0]
            return lists[0].query.id if len(lists) == 1 else None

        for name in ("sweep_reference_quality", "sweep_ensemble_size"):
            setattr(
                analysis,
                name,
                self._wrap(getattr(analysis, name), f"analysis.{name}", "analysis", sweep_query),
            )

    def write(self, path) -> None:
        """Write every span as one JSON line: id, name, layer, parent, query, start, end, kind."""
        ids = {id(span): index for index, span in enumerate(self.spans)}
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for index, span in enumerate(self.spans):
                parent = ids[id(span[PARENT])] if span[PARENT] is not None else None
                out.write(
                    json.dumps([index, span[NAME], span[LAYER], parent, span[QUERY],
                                span[START], span[END], span[KIND]])
                    + "\n"
                )


def self_times(spans: list[list]) -> list[float]:
    """Self time in seconds per span, splitting concurrent innermost spans evenly."""
    ids = {id(span): index for index, span in enumerate(spans)}
    parents = [ids[id(span[PARENT])] if span[PARENT] is not None else -1 for span in spans]
    # At equal timestamps ends come before starts, children end before their
    # parents and parents start before their children.
    events = [(span[START], 1, index) for index, span in enumerate(spans)]
    events += [(span[END], 0, -index) for index, span in enumerate(spans)]
    events.sort()
    open_children = [0] * len(spans)
    innermost: set[int] = set()
    self_ns = [0.0] * len(spans)
    last = events[0][0] if events else 0
    for when, is_start, key in events:
        if innermost and when > last:
            share = (when - last) / len(innermost)
            for index in innermost:
                self_ns[index] += share
        last = when
        index = key if is_start else -key
        parent = parents[index]
        if is_start:
            innermost.add(index)
            if parent >= 0:
                open_children[parent] += 1
                innermost.discard(parent)
        else:
            innermost.discard(index)
            if parent >= 0:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    innermost.add(parent)
    return [ns / 1e9 for ns in self_ns]
