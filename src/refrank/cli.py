"""Command-line entry points: rerank, analyze, eval, bench.

Exit codes: 0 success, 1 runtime error, 2 usage error. Every rerank run
writes a config snapshot (all parameters, the seed, and the package
version) into its report; re-running with the same configuration and seed
reproduces the run file byte for byte under the oracle backend, which never
touches the network.
"""

from __future__ import annotations

import functools
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import click

from . import __version__
from .analysis import (
    sweep_ensemble_size,
    sweep_reference_quality,
    sweep_topk_selection,
    write_topk_csv,
)
from .datamodel import CallLedger, HarnessError, Qrels
from .eval import (
    EfficiencyReport,
    ExperimentReport,
    MetricConfig,
    efficiency_report,
    evaluate_rankings,
    evaluate_run_map,
)
from .io import assemble_experiment, parse_qrels, parse_run_file, write_run_file
from .scorer import (
    LlmBackendConfig,
    LlmScorer,
    OracleConfig,
    OracleScorer,
    PromptTemplates,
    Scorer,
)
from .strategies import (
    EnsembleConfig,
    FixedIndex,
    RandomTopK,
    rank_pairwise_allpairs,
    rank_pairwise_bubblesort,
    rank_pointwise,
    rank_refrank_multiple,
    rank_refrank_single,
    rank_setwise_heapsort,
)

# Each entry turns the parsed command options into a ranker(candidates,
# scorer); a factory reads and validates only the options its strategy uses.
STRATEGIES = {
    "pointwise": lambda **_: rank_pointwise,
    "refrank-single": lambda ref_index, ref_topk, seed, **_: functools.partial(
        rank_refrank_single, policy=_ref_policy(ref_index, ref_topk, seed)
    ),
    "refrank-multiple": lambda ensemble_m, weights, **_: functools.partial(
        rank_refrank_multiple, config=EnsembleConfig(ensemble_m, _parse_weights(weights))
    ),
    "pairwise-allpairs": lambda **_: rank_pairwise_allpairs,
    "pairwise-bubblesort": lambda top_k, **_: functools.partial(
        rank_pairwise_bubblesort, k=top_k
    ),
    "setwise-heapsort": lambda children, top_k, **_: functools.partial(
        rank_setwise_heapsort, c=children, k=top_k
    ),
}

_EXISTING_FILE = click.Path(exists=True, dir_okay=False)


def _runtime_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except HarnessError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)

    return wrapper


def _input_options(require_qrels: bool = False):
    def deco(fn):
        fn = click.option("--run", "run_path", type=_EXISTING_FILE, required=True,
                          help="First-stage run file (six-column format).")(fn)
        fn = click.option("--corpus", "corpus_path", type=_EXISTING_FILE, required=True,
                          help="Corpus JSONL with id/contents (+optional title).")(fn)
        fn = click.option("--queries", "queries_path", type=_EXISTING_FILE, required=True,
                          help="Queries TSV: <qid><TAB><text>.")(fn)
        fn = click.option("--qrels", "qrels_path", type=_EXISTING_FILE,
                          required=require_qrels,
                          help="Relevance judgments (qid 0 docid grade).")(fn)
        fn = click.option("--depth", type=int, default=100, show_default=True,
                          help="Candidates kept per query.")(fn)
        return fn

    return deco


def _backend_options(fn):
    fn = click.option("--backend", type=click.Choice(["oracle", "endpoint"]),
                      default="oracle", show_default=True,
                      help="Relevance judge to use.")(fn)
    fn = click.option("--endpoint-url", default="", help="Chat-completions base URL.")(fn)
    fn = click.option("--model", default="", help="Model name for the endpoint.")(fn)
    fn = click.option("--api-key-env", default="",
                      help="Environment variable holding the API key.")(fn)
    fn = click.option("--template-dir", type=click.Path(exists=True, file_okay=False),
                      default=None, help="Directory of <kind>.txt prompt templates.")(fn)
    fn = click.option("--seed", type=int, default=None,
                      help="Seed; mandatory for the oracle backend and --ref-topk.")(fn)
    return fn


def _strategy_options(fn):
    fn = click.option("--strategy", default="refrank-single", show_default=True,
                      help="One of: " + ", ".join(STRATEGIES) + ". Bench accepts a comma list.")(fn)
    fn = click.option("--m", "ensemble_m", type=int, default=5, show_default=True,
                      help="Ensemble size (refrank-multiple).")(fn)
    fn = click.option("--weights", default="",
                      help="Comma-separated ensemble weights (default uniform).")(fn)
    fn = click.option("--ref-index", type=int, default=1, show_default=True,
                      help="Fixed anchor rank for refrank-single.")(fn)
    fn = click.option("--ref-topk", type=int, default=None,
                      help="Pick the refrank-single anchor at random from the top-K ranks.")(fn)
    fn = click.option("--k", "top_k", type=int, default=10, show_default=True,
                      help="Bubble passes / heap extractions.")(fn)
    fn = click.option("--children", type=int, default=3, show_default=True,
                      help="Heap fanout for setwise-heapsort.")(fn)
    fn = click.option("--concurrency", type=int, default=1, show_default=True,
                      help="Queries processed in parallel.")(fn)
    return fn


def _require_seed(seed: int | None, why: str) -> int:
    if seed is None:
        raise click.UsageError(f"--seed is required {why}")
    return seed


def _build_scorer(
    backend: str,
    seed: int | None,
    qrels: Qrels | None,
    endpoint_url: str,
    model: str,
    api_key_env: str,
    template_dir: str | None,
    ledger: CallLedger,
) -> Scorer:
    if backend == "oracle":
        seed = _require_seed(seed, "with the oracle backend")
        return OracleScorer(OracleConfig(seed=seed), qrels=qrels, ledger=ledger)
    if not endpoint_url or not model:
        raise click.UsageError(
            "--endpoint-url and --model are required with the endpoint backend"
        )
    templates = (
        PromptTemplates.from_dir(template_dir) if template_dir else PromptTemplates.defaults()
    )
    config = LlmBackendConfig(
        base_url=endpoint_url,
        model=model,
        api_key_env=api_key_env,
        templates=templates,
    )
    return LlmScorer(config, ledger=ledger)


def _parse_weights(text: str) -> tuple[float, ...]:
    if not text:
        return ()
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise click.UsageError(f"--weights {text!r} is not a comma-separated float list")


def _ref_policy(ref_index: int, ref_topk: int | None, seed: int | None):
    if ref_topk is not None:
        return RandomTopK(ref_topk, _require_seed(seed, "with --ref-topk"))
    return FixedIndex(ref_index)


def _ranker(name: str, options: dict):
    """The ranker a strategy's table entry builds from the command's options."""
    try:
        factory = STRATEGIES[name]
    except KeyError:
        raise click.UsageError(
            f"unknown strategy {name!r}; choose from {', '.join(STRATEGIES)}"
        ) from None
    return factory(**options)


def _run_all(lists, ranker, scorer, ledger, concurrency):
    def run_one(candidate_list):
        started = time.perf_counter()
        ranking = ranker(candidate_list, scorer)
        ledger.record_query_seconds(candidate_list.query.id, time.perf_counter() - started)
        return ranking

    if concurrency <= 1:
        return [run_one(cl) for cl in lists]
    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        return list(pool.map(run_one, lists))


def _guard_outputs(paths, force: bool) -> None:
    for path in paths:
        if Path(path).exists() and not force:
            raise HarnessError(f"refusing to overwrite {path} (pass --force)")


@click.group()
@click.version_option(version=__version__, prog_name="refrank")
def cli():
    """Rerank first-stage retrieval candidates with LLM relevance judges."""


@cli.command("rerank")
@_input_options()
@_strategy_options
@_backend_options
@click.option("--out", "out_dir", type=click.Path(file_okay=False), required=True,
              help="Output directory for the run file and report.")
@click.option("--gain", type=click.Choice(["exp", "linear"]), default="exp",
              show_default=True, help="NDCG gain convention for the report.")
@click.option("--force", is_flag=True, help="Overwrite existing outputs.")
@_runtime_errors
def cmd_rerank(run_path, corpus_path, queries_path, qrels_path, depth, strategy,
               ensemble_m, weights, ref_index, ref_topk, top_k, children, backend,
               endpoint_url, model, api_key_env, template_dir, seed, concurrency,
               out_dir, gain, force):
    """Rerank candidates and write a run file plus an experiment report."""
    ranker = _ranker(strategy, click.get_current_context().params)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    run_out = out / f"{strategy}.run"
    report_out = out / f"{strategy}.report.json"
    _guard_outputs([run_out, report_out], force)

    qrels = parse_qrels(qrels_path) if qrels_path else None
    lists = assemble_experiment(run_path, corpus_path, queries_path, depth)
    ledger = CallLedger()
    scorer = _build_scorer(backend, seed, qrels, endpoint_url, model, api_key_env,
                           template_dir, ledger)
    rankings = _run_all(lists, ranker, scorer, ledger, concurrency)
    write_run_file(rankings, strategy, run_out)

    report = ExperimentReport(
        config={
            "command": "rerank", "version": __version__, "strategy": strategy,
            "run": str(run_path), "corpus": str(corpus_path),
            "queries": str(queries_path), "qrels": str(qrels_path) if qrels_path else None,
            "depth": depth, "m": ensemble_m, "weights": weights or None,
            "ref_index": ref_index, "ref_topk": ref_topk, "k": top_k,
            "children": children, "backend": backend,
            "endpoint_url": endpoint_url or None, "model": model or None,
            "api_key_env": api_key_env or None, "template_dir": template_dir,
            "seed": seed, "concurrency": concurrency, "gain": gain,
        },
        strategy=strategy,
        calls=ledger.counts,
        total_calls=ledger.total_calls,
        prompt_chars=ledger.prompt_chars,
        query_seconds=ledger.query_seconds,
        total_seconds=sum(ledger.query_seconds.values()),
    )
    if qrels is not None:
        metric = MetricConfig(gain=gain)
        evaluation = evaluate_rankings(rankings, qrels, metric)
        report.metric = evaluation.metric
        report.per_query = evaluation.per_query
        report.mean = evaluation.mean
        report.judged_queries = evaluation.judged_queries
        report.unjudged_queries = evaluation.unjudged_queries
    report.to_json(report_out)
    click.echo(f"wrote {run_out}")
    click.echo(f"wrote {report_out}")
    if report.mean is not None:
        click.echo(f"mean {report.metric}: {report.mean:.4f} over {report.judged_queries} queries")


@cli.command("analyze")
@_input_options(require_qrels=True)
@click.option("--m", "ensemble_m", type=int, default=5, show_default=True,
              help="Ensemble sweep maximum.")
@click.option("--ref-topk", type=int, default=None,
              help="Anchor-index sweep depth [default: min(10, shortest list)].")
@_backend_options
@click.option("--out", "out_dir", type=click.Path(file_okay=False), required=True,
              help="Output directory for sweep CSVs.")
@click.option("--gain", type=click.Choice(["exp", "linear"]), default="exp",
              show_default=True, help="NDCG gain convention.")
@click.option("--force", is_flag=True, help="Overwrite existing outputs.")
@_runtime_errors
def cmd_analyze(run_path, corpus_path, queries_path, qrels_path, depth, ensemble_m,
                ref_topk, backend, endpoint_url, model, api_key_env, template_dir, seed,
                out_dir, gain, force):
    """Sweep anchor index and ensemble size; write one CSV per curve.

    --ref-topk sets the anchor-index sweep depth and --m the ensemble sweep
    maximum; the top-k selection curve is the prefix mean of the
    anchor-index curve.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    reference_csv = out / "reference_sweep.csv"
    topk_csv = out / "topk_selection.csv"
    ensemble_csv = out / "ensemble_sweep.csv"
    _guard_outputs([reference_csv, topk_csv, ensemble_csv], force)

    qrels = parse_qrels(qrels_path)
    lists = assemble_experiment(run_path, corpus_path, queries_path, depth)
    ledger = CallLedger()
    scorer = _build_scorer(backend, seed, qrels, endpoint_url, model, api_key_env,
                           template_dir, ledger)
    metric = MetricConfig(gain=gain)
    depth_r = ref_topk if ref_topk is not None else min(10, min(len(cl) for cl in lists))

    reference = sweep_reference_quality(lists, scorer, qrels, depth_r, metric)
    reference.to_csv(reference_csv)
    write_topk_csv(sweep_topk_selection(reference, depth_r), topk_csv)
    ensemble = sweep_ensemble_size(lists, scorer, qrels, ensemble_m, metric)
    ensemble.to_csv(ensemble_csv)
    for path in (reference_csv, topk_csv, ensemble_csv):
        click.echo(f"wrote {path}")


@cli.command("eval")
@click.option("--run", "run_path", type=_EXISTING_FILE, required=True,
              help="Run file to evaluate.")
@click.option("--qrels", "qrels_path", type=_EXISTING_FILE, required=True,
              help="Relevance judgments.")
@click.option("--k", "top_k", type=int, default=10, show_default=True,
              help="NDCG cutoff.")
@click.option("--gain", type=click.Choice(["exp", "linear"]), default="exp",
              show_default=True, help="NDCG gain convention.")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=None,
              help="Optional directory for eval.json.")
@click.option("--force", is_flag=True, help="Overwrite existing outputs.")
@_runtime_errors
def cmd_eval(run_path, qrels_path, top_k, gain, out_dir, force):
    """Score a run file against qrels: per-query and mean NDCG@k."""
    run = parse_run_file(run_path)
    qrels = parse_qrels(qrels_path)
    metric = MetricConfig(k=top_k, gain=gain)
    report = evaluate_run_map(run, qrels, metric)
    for query_id, value in report.per_query.items():
        click.echo(f"{query_id}\t{report.metric}\t{value:.6f}")
    click.echo(
        f"mean\t{report.metric}\t{report.mean:.6f}\t({report.judged_queries} queries)"
    )
    if report.unjudged_queries:
        click.echo(
            f"warning: {report.unjudged_queries} run query(ies) have no judgments "
            "and were excluded from the mean",
            err=True,
        )
    if out_dir:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        eval_json = out / "eval.json"
        _guard_outputs([eval_json], force)
        import json

        with open(eval_json, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "metric": report.metric,
                    "gain": gain,
                    "per_query": report.per_query,
                    "mean": report.mean,
                    "judged_queries": report.judged_queries,
                    "unjudged_queries": report.unjudged_queries,
                },
                handle,
                indent=2,
                sort_keys=True,
            )
            handle.write("\n")
        click.echo(f"wrote {eval_json}")


@cli.command("bench")
@_input_options()
@_strategy_options
@_backend_options
@_runtime_errors
def cmd_bench(run_path, corpus_path, queries_path, qrels_path, depth, strategy,
              ensemble_m, weights, ref_index, ref_topk, top_k, children, backend,
              endpoint_url, model, api_key_env, template_dir, seed, concurrency):
    """Run each named strategy on the same fixture and print call/latency stats.

    --strategy takes a comma-separated list, e.g. pointwise,refrank-single.
    """
    options = click.get_current_context().params
    names = [name.strip() for name in strategy.split(",") if name.strip()]
    rankers = {name: _ranker(name, options) for name in names}
    qrels = parse_qrels(qrels_path) if qrels_path else None
    lists = assemble_experiment(run_path, corpus_path, queries_path, depth)
    reports: dict[str, EfficiencyReport] = {}
    for name, ranker in rankers.items():
        ledger = CallLedger()
        scorer = _build_scorer(backend, seed, qrels, endpoint_url, model, api_key_env,
                               template_dir, ledger)
        _run_all(lists, ranker, scorer, ledger, concurrency)
        reports[name] = efficiency_report(ledger, len(lists))

    header = f"{'strategy':<20} {'calls/query':<28} {'total':>8} {'s/query':>10}"
    click.echo(header)
    click.echo("-" * len(header))
    for name, report in reports.items():
        per_kind = " ".join(
            f"{kind}={report.avg_calls_per_query[kind]:g}"
            for kind in report.calls
            if report.calls[kind]
        ) or "none"
        click.echo(
            f"{name:<20} {per_kind:<28} {report.total_calls:>8} "
            f"{report.avg_seconds_per_query:>10.4f}"
        )


def main():
    cli(prog_name="refrank")


if __name__ == "__main__":
    main()
