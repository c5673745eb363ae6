"""Per-layer metrics of one traced pass, computed from its spans.

Counts are per pass. Metrics of a layer the workload does not use (the
oracle on ``endpoint-rerank``, the HTTP judge on the oracle workloads) read 0.
"""

from __future__ import annotations

import hashlib
from collections import Counter

from perfbench import stats
from perfbench.spans import END, KIND, LAYER, LAYERS, NAME, PARENT, START, Tracer, self_times

KINDS = ("pointwise", "triplet", "duel", "setwise")
STRATEGIES = (
    "pointwise",
    "refrank-single",
    "refrank-multiple",
    "pairwise-bubblesort",
    "setwise-heapsort",
)


def _seconds(span) -> float:
    return (span[END] - span[START]) / 1e9


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def _percentile_or_zero(values, p: float) -> float:
    return stats.percentile(values, p) if stats.supports(len(values), p) else 0.0


def distinct_share(calls, build_prompt) -> float:
    """Distinct judgments over calls issued, per scorer instance.

    A judgment is keyed by the prompt ``build_prompt`` renders with the
    default templates. Each scorer counts on its own, as a judgment store
    kept per run would.
    """
    from refrank.scorer import PromptTemplates

    if not calls:
        return 0.0
    templates = PromptTemplates.defaults()
    keys = {
        (id(scorer), hashlib.blake2b(build_prompt(request, templates).encode(), digest_size=16).digest())
        for scorer, request in calls
    }
    return len(keys) / len(calls)


def layer_metrics(tracer: Tracer, traced_pass: dict) -> dict[str, float]:
    """Per-layer metrics of a traced run: its set-up and its one pass."""
    spans = tracer.spans
    own = self_times(spans)
    wall = _seconds(spans[0])
    by_layer = dict.fromkeys(LAYERS, 0.0)
    self_by_name: dict[str, list[float]] = {}
    durations: dict[str, list[float]] = {}
    for span, seconds in zip(spans, own):
        by_layer[span[LAYER]] += seconds
        self_by_name.setdefault(span[NAME], []).append(seconds)
        durations.setdefault(span[NAME], []).append(_seconds(span))
    if abs(sum(by_layer.values()) - wall) > 1e-6 * wall:
        raise RuntimeError(f"layer self times sum to {sum(by_layer.values())} s, wall is {wall} s")

    scores = [span for span in spans if span[NAME] == "scorer.score"]
    calls = Counter(span[KIND] for span in scores)
    llm_calls = [_seconds(span) for span in scores if span[LAYER] == "scorer.llm"]
    serial = sum(1 for span in scores if span[PARENT][NAME] != "scorer.score_batch")
    stub = traced_pass.get("stub", {})
    http_requests = stub.get("requests", 0)

    metrics = {f"self_s.{layer}": by_layer[layer] for layer in LAYERS}
    metrics["trace.wall_s"] = wall
    metrics["cli.import_s"] = sum(durations.get("cli.import", []))
    metrics["io.assemble_s"] = sum(durations.get("io.assemble_experiment", []))
    metrics["io.parse_qrels_s"] = sum(durations.get("io.parse_qrels", []))
    metrics["io.write_run_s"] = sum(durations.get("io.write_run_file", []))
    for kind in KINDS:
        oracle = [_seconds(s) for s in scores if s[KIND] == kind and s[LAYER] == "scorer.oracle"]
        metrics[f"scorer.oracle.us_per_call.{kind}"] = _mean(oracle) * 1e6
    metrics["scorer.oracle.share_of_wall"] = by_layer["scorer.oracle"] / wall
    for kind in KINDS:
        metrics[f"scorer.calls.{kind}"] = calls[kind]
    metrics["scorer.batch_calls"] = len(durations.get("scorer.score_batch", []))
    metrics["scorer.serial_call_share"] = serial / len(scores) if scores else 0.0
    metrics["scorer.distinct_share"] = distinct_share(tracer.calls, tracer.originals["build_prompt"])
    metrics["scorer.prompts.render_us_per_call"] = _mean(durations.get("scorer.prompts.build_prompt", [])) * 1e6
    metrics["scorer.prompts.chars_per_call"] = traced_pass["prompt_chars"] / len(scores) if scores else 0.0
    metrics["scorer.llm.call_ms_p50"] = _percentile_or_zero(llm_calls, 50) * 1e3
    metrics["scorer.llm.call_ms_p99"] = _percentile_or_zero(llm_calls, 99) * 1e3
    metrics["scorer.llm.overhead_ms_mean"] = (
        (sum(llm_calls) * 1e3 - stub["service_ms_total"]) / len(llm_calls) if llm_calls else 0.0
    )
    metrics["scorer.llm.inflight_mean"] = stub.get("inflight_mean", 0.0)
    metrics["scorer.llm.inflight_max"] = stub.get("inflight_max", 0)
    metrics["scorer.llm.retries"] = http_requests - len(llm_calls)
    metrics["scorer.llm.failures"] = tracer.failures
    metrics["scorer.llm.threads_max"] = tracer.threads_max
    metrics["scorer.llm.http_requests_per_query"] = http_requests / traced_pass["attempted"]
    for strategy in STRATEGIES:
        metrics[f"strategies.self_us_per_query.{strategy}"] = _mean(self_by_name.get(f"strategies.{strategy}", [])) * 1e6
    metrics["datamodel.build_ranking_us_per_query"] = _mean(durations.get("datamodel.build_ranking", [])) * 1e6
    metrics["eval.ndcg_us_per_call"] = _mean(durations.get("eval.ndcg_at_k", [])) * 1e6
    metrics["analysis.self_s"] = by_layer["analysis"]
    return metrics
