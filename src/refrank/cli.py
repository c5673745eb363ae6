"""Command-line entry points: rerank, analyze, eval, bench.

Exit codes: 0 success, 1 runtime error, 2 usage error. A strategy-only
flag (--m, --weights, --ref-index, --ref-topk, --k, --children) that no
named strategy reads is a usage error, as are --ref-index with --ref-topk
and an endpoint-only flag (--endpoint-url, --model, --api-key-env,
--template-dir) under the oracle backend; --concurrency is at least 1. The
oracle needs --seed, the endpoint --endpoint-url and --model. Every usage
error is raised before any input is read and before any refused setting. A
bad --template-dir, which is loaded once per command, a bad --endpoint-url
and an unset or malformed --api-key-env key are refused before any input
is read too; a setting out of range for any list is refused before the
first judge call, and any refusal before bench prints a line. rerank and
bench find such a setting by starting each strategy on the shortest list
with a stand-in judge that stops it at its first call, so nothing is
judged.
rerank and bench rank the queries on a pool of --concurrency threads. A
failed query or Ctrl-C starts no queued query, and the judge, closed on
the way out, ends the queries still running at once.
Every rerank run writes a config snapshot into its report: the options the
run read, the seed, and the package version. Under the oracle backend,
which never touches the network, the same configuration and seed reproduce
run files, sweep CSVs and report means byte for byte on Python 3.10-3.13.
Blank input lines and repeated qrel pairs are skipped with one warning on
stderr; rerank and bench also warn there when refrank-multiple's --m
exceeds floor(log2 n). An output directory is created only when the first
output is written, so a run that fails before then leaves none behind;
existing outputs are refused before any judge call; eval refuses eval.json
before it reads or prints anything.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import asdict
from pathlib import Path

import click
from click.core import ParameterSource

from . import __version__
from .analysis import check_sweep_depth, sweep_anchors, sweep_topk_selection, write_curve_csv
from .datamodel import CallLedger, HarnessError
from .eval import GAIN_MODES, MetricConfig, check_qrels, evaluate_rankings, evaluate_run_map
from .io import (
    ParseWarnings,
    assemble_experiment,
    parse_qrels,
    parse_run_file,
    write_run_file,
)
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
# scorer); a factory reads and validates only the options its strategy uses,
# and the parameters it names are the options the strategy reads.
STRATEGIES = {
    "pointwise": lambda **_: rank_pointwise,
    "refrank-single": lambda ref_index, ref_topk, seed, **_: functools.partial(
        rank_refrank_single, policy=_ref_policy(ref_index, ref_topk, seed)
    ),
    "refrank-multiple": lambda m, weights, **_: functools.partial(
        rank_refrank_multiple, config=EnsembleConfig(m, _parse_weights(weights))
    ),
    "pairwise-allpairs": lambda **_: rank_pairwise_allpairs,
    "pairwise-bubblesort": lambda k, **_: functools.partial(rank_pairwise_bubblesort, k=k),
    "setwise-heapsort": lambda children, k, **_: functools.partial(
        rank_setwise_heapsort, c=children, k=k
    ),
}

# The options that only some strategies read, and those only the endpoint reads.
_STRATEGY_ONLY = ("m", "weights", "ref_index", "ref_topk", "k", "children")
_ENDPOINT_ONLY = ("endpoint_url", "model", "api_key_env", "template_dir")

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
        fn = click.option("--run", type=_EXISTING_FILE, required=True,
                          help="First-stage run file (six-column format).")(fn)
        fn = click.option("--corpus", type=_EXISTING_FILE, required=True,
                          help="Corpus JSONL with id/contents (+optional title).")(fn)
        fn = click.option("--queries", type=_EXISTING_FILE, required=True,
                          help="Queries TSV: <qid><TAB><text>.")(fn)
        fn = click.option("--qrels", type=_EXISTING_FILE, required=require_qrels,
                          help="Relevance judgments (qid 0 docid grade).")(fn)
        fn = click.option("--depth", type=int, default=100, show_default=True,
                          help="Candidates kept per query.")(fn)
        return fn

    return deco


def _backend_options(fn):
    fn = click.option("--backend", type=click.Choice(["oracle", "endpoint"]),
                      default="oracle", show_default=True,
                      help="Relevance judge to use.")(fn)
    fn = click.option("--endpoint-url", help="Chat-completions base URL.")(fn)
    fn = click.option("--model", help="Model name for the endpoint.")(fn)
    fn = click.option("--api-key-env", help="Environment variable holding the API key.")(fn)
    fn = click.option("--template-dir", type=click.Path(exists=True, file_okay=False),
                      default=None, help="Directory of <kind>.txt prompt templates.")(fn)
    fn = click.option("--seed", type=int, default=None,
                      help="Seed; mandatory for the oracle backend and --ref-topk.")(fn)
    return fn


def _strategy_options(fn):
    fn = click.option("--strategy", default="refrank-single", show_default=True,
                      help="One of: " + ", ".join(STRATEGIES) + ". Bench accepts a comma list.")(fn)
    fn = click.option("--m", type=int, default=5, show_default=True,
                      help="Ensemble size (refrank-multiple).")(fn)
    fn = click.option("--weights",
                      help="Comma-separated ensemble weights (default uniform).")(fn)
    fn = click.option("--ref-index", type=int, default=1, show_default=True,
                      help="Fixed anchor rank for refrank-single.")(fn)
    fn = click.option("--ref-topk", type=int, default=None,
                      help="Pick the refrank-single anchor at random from the top-K ranks.")(fn)
    fn = click.option("--k", type=int, default=10, show_default=True,
                      help="Bubble passes / heap extractions.")(fn)
    fn = click.option("--children", type=int, default=3, show_default=True,
                      help="Heap fanout for setwise-heapsort, within 2..25.")(fn)
    fn = click.option("--concurrency", type=click.IntRange(min=1), default=1, show_default=True,
                      help="Queries processed in parallel.")(fn)
    return fn


def _require_seed(seed: int | None, why: str) -> int:
    if seed is None:
        raise click.UsageError(f"--seed is required {why}")
    return seed


def _refuse_given(names, reason: str) -> None:
    """A usage error for the first of these options given on the command line."""
    ctx = click.get_current_context()
    for name in names:
        if ctx.get_parameter_source(name) is not ParameterSource.DEFAULT:
            raise click.UsageError(f"--{name.replace('_', '-')} {reason}")


def _scorer_factory(options: dict):
    """A (qrels, ledger) -> Scorer maker for the chosen backend.

    Raises the backend's usage errors, and loads --template-dir, before any input is read.
    """
    if options["backend"] == "oracle":
        _refuse_given(_ENDPOINT_ONLY, "is not read by the oracle backend")
        oracle = OracleConfig(seed=_require_seed(options["seed"], "with the oracle backend"))
        return lambda qrels, ledger: OracleScorer(oracle, qrels=qrels, ledger=ledger)
    if not options["endpoint_url"] or not options["model"]:
        raise click.UsageError(
            "--endpoint-url and --model are required with the endpoint backend"
        )
    template_dir = options["template_dir"]
    endpoint = LlmBackendConfig(
        base_url=options["endpoint_url"],
        model=options["model"],
        api_key_env=options["api_key_env"] or "",
        templates=(
            PromptTemplates.from_dir(template_dir) if template_dir else PromptTemplates.defaults()
        ),
    )
    return lambda qrels, ledger: LlmScorer(endpoint, ledger=ledger)


def _parse_weights(text: str | None) -> tuple[float, ...]:
    if not text:
        return ()
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise click.UsageError(f"--weights {text!r} is not a comma-separated float list")


def _ref_policy(ref_index: int, ref_topk: int | None, seed: int | None):
    if ref_topk is not None:
        _refuse_given(["ref_index"], "is not read with --ref-topk")
        return RandomTopK(ref_topk, _require_seed(seed, "with --ref-topk"))
    return FixedIndex(ref_index)


def _reads(name: str) -> set[str]:
    """The options a strategy reads: the parameters its STRATEGIES entry names."""
    try:
        factory = STRATEGIES[name]
    except KeyError:
        raise click.UsageError(
            f"unknown strategy {name!r}; choose from {', '.join(STRATEGIES)}"
        ) from None
    return set(inspect.signature(factory).parameters)


def _setup(names: list[str], options: dict):
    """(rankers by name, scorer maker, lists, qrels): rerank's and bench's preamble.

    A strategy-only flag given on the command line that none of the named
    strategies reads is a usage error. The first refused setting or template
    is raised only once every build has run, so any usage error comes first;
    then the inputs are read, and each ranker is tried on the shortest list.
    """
    reads = set().union(*(_reads(name) for name in names))
    _refuse_given(
        [option for option in _STRATEGY_ONLY if option not in reads],
        f"is not read by strategy {', '.join(names)}",
    )
    builds = [functools.partial(STRATEGIES[name], **options) for name in names]
    built, refused = [], None
    for build in [*builds, functools.partial(_scorer_factory, options)]:
        try:
            built.append(build())
        except HarnessError as exc:
            refused = refused or exc
    if refused:
        raise refused
    *rankers, make_scorer = built
    lists, qrels = _load_inputs(options)
    _try_rankers(rankers, lists)
    _warn_over_budget(names, options["m"], lists)
    return dict(zip(names, rankers)), make_scorer, lists, qrels


def _load_inputs(options: dict):
    """The candidate lists and the qrels (None without --qrels).

    Skipped blank lines and repeated qrel pairs are reported in one warning.
    """
    warnings = ParseWarnings()
    qrels = parse_qrels(options["qrels"], warnings) if options["qrels"] else None
    lists = assemble_experiment(
        options["run"], options["corpus"], options["queries"], options["depth"],
        warnings=warnings,
    )
    _warn_skipped(warnings)
    return lists, qrels


def _warn_skipped(warnings: ParseWarnings) -> None:
    if warnings.blank_lines or warnings.duplicate_qrel_pairs:
        click.echo(
            f"warning: skipped {warnings.blank_lines} blank line(s) and "
            f"{warnings.duplicate_qrel_pairs} repeated qrel pair(s) in the inputs",
            err=True,
        )


class _FirstCall(Exception):
    """A ranker reached its first judge call, so its settings passed."""


class _NoJudge:
    """A stand-in scorer that stops a ranker at its first call, before any judgment."""

    max_in_flight = None

    def score_batch(self, requests):
        raise _FirstCall


def _try_rankers(rankers, lists) -> None:
    """Start each ranker on the shortest list and stop it at its first judge call.

    Every strategy checks its settings before its first judge call, and
    every limit bounds the list length from above, so a setting that some
    list cannot take raises its strategy's own error here, and nothing is
    judged.
    """
    shortest = min(lists, key=len)
    for ranker in rankers:
        with contextlib.suppress(_FirstCall):
            ranker(shortest, _NoJudge())


def _warn_over_budget(names: list[str], m: int, lists) -> None:
    """Warn when refrank-multiple's m*n calls cost more than an O(n log n) sort would."""
    n = min(len(cl) for cl in lists)
    log2_n = n.bit_length() - 1  # floor(log2 n)
    if "refrank-multiple" in names and m > log2_n:
        click.echo(f"warning: ensemble size m={m} exceeds the log2(n)~{log2_n} "
                   f"call-budget guideline at n={n}", err=True)


def _run_all(lists, ranker, scorer: Scorer, concurrency: int):
    """Rank every list with the scorer, on a pool of concurrency threads.

    Returns the rankings, each query's seconds and the wall seconds of the
    whole run. Queries overlap at a concurrency above 1, so their seconds
    can add up to more than the wall time. The first query to fail, or an
    interrupt, raises at once and starts no queued query. It does not wait
    for the queries still running: closing the scorer, as the caller's
    ``with`` does on the way out, ends them.
    """

    failed = threading.Event()

    def run_one(candidate_list):
        # A worker may take a queued query before the failure reaches this
        # thread and the queue is cancelled; skip it. Its None is never read.
        if failed.is_set():
            return None
        started = time.perf_counter()
        try:
            ranking = ranker(candidate_list, scorer)
        except BaseException:
            failed.set()
            raise
        return ranking, time.perf_counter() - started

    started = time.perf_counter()
    pool = ThreadPoolExecutor(max_workers=concurrency)
    try:
        futures = [pool.submit(run_one, cl) for cl in lists]
        for future in as_completed(futures):
            future.result()  # raises the first failure, while other queries may still run
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
    timed = [future.result() for future in futures]
    wall = time.perf_counter() - started
    seconds = {cl.query.id: elapsed for cl, (_, elapsed) in zip(lists, timed)}
    return [ranking for ranking, _ in timed], seconds, wall


def _outputs(out_dir, force: bool, *names: str) -> list[Path]:
    """The named paths in out_dir, none of which may exist without force.

    out_dir itself is made by _created, when the first output is written.
    """
    paths = [Path(out_dir) / name for name in names]
    for path in paths:
        if path.exists() and not force:
            raise HarnessError(f"refusing to overwrite {path} (pass --force)")
    return paths


def _created(path: Path) -> Path:
    """Make path's directory if it is missing, and return path."""
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as out:
        json.dump(payload, out, indent=2, sort_keys=True)
        out.write("\n")


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
@click.option("--gain", type=click.Choice(GAIN_MODES), default="exp",
              show_default=True, help="NDCG gain convention for the report.")
@click.option("--force", is_flag=True, help="Overwrite existing outputs.")
@_runtime_errors
def cmd_rerank(out_dir, force, **options):
    """Rerank candidates and write a run file plus an experiment report."""
    strategy = options["strategy"]
    rankers, make_scorer, lists, qrels = _setup([strategy], options)
    metric = MetricConfig(gain=options["gain"])
    if qrels is not None:
        check_qrels(qrels, metric)
    ledger = CallLedger()
    with make_scorer(qrels, ledger) as scorer:
        run_out, report_out = _outputs(out_dir, force, f"{strategy}.run", f"{strategy}.report.json")
        rankings, seconds, wall = _run_all(lists, rankers[strategy], scorer, options["concurrency"])
    write_run_file(rankings, strategy, _created(run_out))

    if qrels is None:
        evaluation = dict(metric=None, per_query={}, mean=None, judged_queries=0,
                          unjudged_queries=0)
    else:
        evaluation = asdict(evaluate_rankings(rankings, qrels, metric))
    reads = _reads(strategy)
    if options["ref_topk"] is not None:  # a --ref-topk anchor reads no --ref-index
        reads.discard("ref_index")
    config = {name: value for name, value in options.items()
              if name in reads or name not in _STRATEGY_ONLY}
    _write_json(report_out, {
        "config": {"command": "rerank", "version": __version__, **config},
        "strategy": strategy,
        "calls": ledger.counts,
        "total_calls": ledger.total_calls,
        "prompt_chars": ledger.prompt_chars,
        "retries": ledger.retries,
        "latency_ms": ledger.latency_ms,
        "query_seconds": seconds,
        "total_seconds": sum(seconds.values()),
        "wall_seconds": wall,
        **evaluation,
    })
    click.echo(f"wrote {run_out}")
    click.echo(f"wrote {report_out}")
    if qrels is not None:
        click.echo(
            f"mean {evaluation['metric']}: {evaluation['mean']:.4f} "
            f"over {evaluation['judged_queries']} queries"
        )


@cli.command("analyze")
@_input_options(require_qrels=True)
@click.option("--m", type=int, default=5, show_default=True,
              help="Ensemble sweep maximum.")
@click.option("--ref-topk", type=int, default=None,
              help="Anchor-index sweep depth [default: min(10, shortest list)].")
@_backend_options
@click.option("--out", "out_dir", type=click.Path(file_okay=False), required=True,
              help="Output directory for sweep CSVs.")
@click.option("--gain", type=click.Choice(GAIN_MODES), default="exp",
              show_default=True, help="NDCG gain convention.")
@click.option("--force", is_flag=True, help="Overwrite existing outputs.")
@_runtime_errors
def cmd_analyze(out_dir, force, **options):
    """Sweep anchor index and ensemble size; write one CSV per curve.

    --ref-topk sets the anchor-index sweep depth and --m the ensemble sweep
    maximum, each within 1..(shortest list length) and checked before any
    judge call; the top-k selection curve is the prefix mean of the
    anchor-index curve.
    """
    make_scorer = _scorer_factory(options)
    lists, qrels = _load_inputs(options)
    metric = MetricConfig(gain=options["gain"])
    check_qrels(qrels, metric)
    with make_scorer(qrels, CallLedger()) as scorer:
        ref_topk = options["ref_topk"]
        depth_r = ref_topk if ref_topk is not None else min(10, *map(len, lists))
        check_sweep_depth(lists, depth_r, "--ref-topk")
        check_sweep_depth(lists, options["m"], "--m")
        reference_csv, topk_csv, ensemble_csv = _outputs(
            out_dir, force, "reference_sweep.csv", "topk_selection.csv", "ensemble_sweep.csv"
        )
        reference, ensemble = sweep_anchors(
            lists, scorer, qrels, depth_r, options["m"], metric
        )
    write_curve_csv(reference.mean, _created(reference_csv))
    write_curve_csv(sweep_topk_selection(reference), topk_csv)
    write_curve_csv(ensemble.mean, ensemble_csv)
    for path in (reference_csv, topk_csv, ensemble_csv):
        click.echo(f"wrote {path}")


@cli.command("eval")
@click.option("--run", "run_path", type=_EXISTING_FILE, required=True,
              help="Run file to evaluate.")
@click.option("--qrels", "qrels_path", type=_EXISTING_FILE, required=True,
              help="Relevance judgments.")
@click.option("--k", "top_k", type=int, default=10, show_default=True,
              help="NDCG cutoff.")
@click.option("--gain", type=click.Choice(GAIN_MODES), default="exp",
              show_default=True, help="NDCG gain convention.")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=None,
              help="Optional directory for eval.json.")
@click.option("--force", is_flag=True, help="Overwrite existing outputs.")
@_runtime_errors
def cmd_eval(run_path, qrels_path, top_k, gain, out_dir, force):
    """Score a run file against qrels: per-query and mean NDCG@k."""
    metric = MetricConfig(k=top_k, gain=gain)
    eval_json = _outputs(out_dir, force, "eval.json")[0] if out_dir else None
    warnings = ParseWarnings()
    run = parse_run_file(run_path, warnings)
    qrels = parse_qrels(qrels_path, warnings)
    check_qrels(qrels, metric)
    _warn_skipped(warnings)
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
    if eval_json:
        _write_json(_created(eval_json), {**asdict(report), "gain": gain})
        click.echo(f"wrote {eval_json}")


@cli.command("bench")
@_input_options()
@_strategy_options
@_backend_options
@_runtime_errors
def cmd_bench(**options):
    """Run each named strategy on the same fixture and print call/latency stats.

    --strategy takes a comma-separated list of distinct names, e.g.
    pointwise,refrank-single.
    """
    names = [name.strip() for name in options["strategy"].split(",") if name.strip()]
    if not names or len(set(names)) < len(names):
        raise click.UsageError(f"--strategy {options['strategy']!r} must name distinct strategies")
    rankers, make_scorer, lists, qrels = _setup(names, options)
    header = (f"{'strategy':<20} {'calls/query':<28} {'total':>8} {'s/query':>10} "
              f"{'wall s/query':>13}")
    lines = [header, "-" * len(header)]  # printed with the first row
    for name, ranker in rankers.items():
        ledger = CallLedger()
        with make_scorer(qrels, ledger) as scorer:
            _, seconds, wall = _run_all(lists, ranker, scorer, options["concurrency"])
        per_kind = " ".join(
            f"{kind}={count / len(lists):g}" for kind, count in ledger.counts.items() if count
        ) or "none"
        lines.append(
            f"{name:<20} {per_kind:<28} {ledger.total_calls:>8} "
            f"{sum(seconds.values()) / len(lists):>10.4f} {wall / len(lists):>13.4f}"
        )
        click.echo("\n".join(lines))
        lines.clear()


def main():
    cli(prog_name="refrank")


if __name__ == "__main__":
    main()
