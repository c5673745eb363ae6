"""One workload in a fresh interpreter: set up, run passes, write a JSON report.

    python3 -m perfbench.workload --workload NAME --fixture-seed N --dir DIR \\
        --mode setup|run|trace --seconds S --t0 T --out REPORT [--stub-url URL]

``setup`` stops at the first judge call and reports how long the process
took to get there (``--t0`` is the parent's ``time.monotonic()`` just before
it started this process). ``run`` then runs as many whole passes over the
fixture as fit in ``--seconds``, at least one.
``trace`` installs the span tracer and runs exactly one pass.

Only the public API is called, and always through the module attribute, so
that the tracer's wrappers are what gets called in a traced run.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import resource
import sys
import time
from pathlib import Path
from urllib.parse import urlsplit

from perfbench.fixture import fixture_paths
from perfbench.speed import SpeedMeter, at_reference, calibrate_median
from perfbench.workloads import (
    RETRY_BACKOFF_S,
    WORKLOADS,
    Strategy,
    Workload,
)

ROOT = Path(__file__).resolve().parent.parent


def in_flight_limit() -> int:
    """The endpoint judge's in-flight limit: the CPUs this process may use."""
    return len(os.sched_getaffinity(0))


def _scorer_factory(workload: Workload, seed: int, qrels, stub_url: str | None):
    from refrank import datamodel, scorer

    if workload.backend == "oracle":
        config = scorer.OracleConfig(
            seed=seed,
            noise_sigma=workload.noise_sigma,
            bias_amplitude=workload.bias_amplitude,
            ref_noise_scale=workload.ref_noise_scale,
        )
        return lambda: scorer.OracleScorer(config, qrels=qrels, ledger=datamodel.CallLedger())
    config = scorer.LlmBackendConfig(
        base_url=stub_url,
        model="perfbench-stub",
        batch_size=in_flight_limit(),
        retry_backoff=RETRY_BACKOFF_S,
    )
    return lambda: scorer.LlmScorer(config, ledger=datamodel.CallLedger())


def _ranker(strategy: Strategy):
    from refrank import strategies

    if strategy.name == "pointwise":
        return lambda cl, s: strategies.rank_pointwise(cl, s)
    if strategy.name == "refrank-single":
        policy = strategies.FixedIndex(strategy.r)
        return lambda cl, s: strategies.rank_refrank_single(cl, s, policy)
    if strategy.name == "refrank-multiple":
        ensemble = strategies.EnsembleConfig(strategy.m)
        return lambda cl, s: strategies.rank_refrank_multiple(cl, s, ensemble)
    if strategy.name == "pairwise-bubblesort":
        return lambda cl, s: strategies.rank_pairwise_bubblesort(cl, s, k=strategy.k)
    if strategy.name == "setwise-heapsort":
        return lambda cl, s: strategies.rank_setwise_heapsort(cl, s, c=strategy.c, k=strategy.k)
    raise ValueError(f"no ranker for strategy {strategy.name!r}")


def _query(meter: SpeedMeter, result: dict, call):
    """Run one query as a timed segment; count it, and count it failed if it raised."""
    from refrank.datamodel import HarnessError

    result["attempted"] += 1
    try:
        return meter.time(call, query=True)
    except HarnessError as exc:
        result["failed"] += 1
        result.setdefault("errors", []).append(f"{type(exc).__name__}: {exc}")
        return None


def rerank_pass(workload, lists, qrels, make_scorer, outdir: Path, meter: SpeedMeter) -> dict:
    """Rank each query with every strategy in turn, one fresh scorer per strategy as ``bench`` does.

    A query's latency covers all the strategies: the per-strategy latencies
    of a workload differ by multiples, so pooling them would put the median
    at the edge between two strategies.
    """
    import refrank.eval as reval
    import refrank.io as rio

    result = {"attempted": 0, "failed": 0, "digests": {}, "calls": {}, "ndcg": {}, "prompt_chars": 0}
    metric = reval.MetricConfig()
    scorers = [meter.time(make_scorer) for _ in workload.strategies]
    rankers = [_ranker(strategy) for strategy in workload.strategies]
    rankings = [[] for _ in workload.strategies]
    for candidates in lists:
        ranked = _query(meter, result, lambda: [rank(candidates, s) for rank, s in zip(rankers, scorers)])
        for ranking, out in zip(ranked or [], rankings):
            out.append(ranking)
    for strategy, scorer, ranked in zip(workload.strategies, scorers, rankings):
        run_path = outdir / f"{strategy.name}.run"
        meter.time(lambda: rio.write_run_file(ranked, strategy.name, run_path))
        evaluation = meter.time(lambda: reval.evaluate_rankings(ranked, qrels, metric))
        result["digests"][strategy.name] = hashlib.sha256(run_path.read_bytes()).hexdigest()
        result["calls"][strategy.name] = scorer.ledger.counts
        result["prompt_chars"] += scorer.ledger.prompt_chars
        result["ndcg"][strategy.name] = evaluation.mean
    result["ndcg10_mean"] = sum(result["ndcg"].values()) / len(result["ndcg"])
    return result


def analyze_pass(workload, lists, qrels, make_scorer, meter: SpeedMeter) -> dict:
    import refrank.analysis as analysis
    import refrank.eval as reval

    result = {"attempted": 0, "failed": 0}
    metric = reval.MetricConfig()
    scorer = meter.time(make_scorer)
    lines = []
    values = []

    def sweep(candidates):
        reference = analysis.sweep_reference_quality([candidates], scorer, qrels, workload.depth_r, metric)
        ensemble = analysis.sweep_ensemble_size([candidates], scorer, qrels, workload.m_max, metric)
        return reference, ensemble

    for candidates in lists:
        swept = _query(meter, result, lambda: sweep(candidates))
        if swept is None:
            continue
        for sweep_result in swept:
            for cell, value in zip(sweep_result.cells, sweep_result.per_query[0]):
                lines.append(f"{candidates.query.id} {sweep_result.kind} {cell} {value!r}\n")
                values.append(value)
    result["digests"] = {"sweeps": hashlib.sha256("".join(lines).encode()).hexdigest()}
    result["calls"] = {"sweeps": scorer.ledger.counts}
    result["prompt_chars"] = scorer.ledger.prompt_chars
    result["ndcg10_mean"] = sum(values) / len(values) if values else 0.0
    return result


def stub_stats(stub_url: str) -> dict:
    """Fetch and reset the stub's counters."""
    address = urlsplit(stub_url)
    connection = http.client.HTTPConnection(address.hostname, address.port, timeout=30)
    try:
        connection.request("GET", "/stats")
        return json.loads(connection.getresponse().read())
    finally:
        connection.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--fixture-seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--stub-url", default=None)
    parser.add_argument("--spans", type=Path, default=None, help="Where a traced run writes its spans.")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    # Calibrate before and after set-up; the time spent here is not set-up.
    started = time.perf_counter()
    speed_before = calibrate_median()
    calibration_s = time.perf_counter() - started
    tracer = None
    if args.mode == "trace":
        from perfbench.spans import Tracer

        tracer = Tracer()
        root_span = tracer.open("bench", "bench")
        import_span = tracer.open("cli.import", "cli")
    sys.path.insert(0, str(ROOT / "src"))
    import refrank.cli  # noqa: F401  (the CLI's import cost is part of set-up)

    if Path(refrank.cli.__file__).resolve().parent.parent.parent != ROOT:
        raise SystemExit(f"refrank imported from {refrank.cli.__file__}, not from {ROOT / 'src'}")
    if tracer is not None:
        tracer.close(import_span)
        tracer.install()
    import refrank.io as rio

    paths = fixture_paths(args.dir)
    lists = rio.assemble_experiment(paths["run"], paths["corpus"], paths["queries"], depth=workload.depth)
    qrels = rio.parse_qrels(paths["qrels"])
    make_scorer = _scorer_factory(workload, args.fixture_seed, qrels, args.stub_url)
    make_scorer()
    setup_raw_s = time.monotonic() - args.t0 - calibration_s
    usage = resource.getrusage(resource.RUSAGE_SELF)
    setup_cpu_s = min(usage.ru_utime + usage.ru_stime - calibration_s, setup_raw_s)
    speed_after = calibrate_median()
    report = {
        "setup_s": at_reference(setup_raw_s, setup_cpu_s, (speed_before + speed_after) / 2.0),
        "setup_raw_s": setup_raw_s,
    }
    if args.mode != "setup":
        if args.stub_url:
            stub_stats(args.stub_url)  # start the first pass from clean counters
        outdir = args.dir / f"out-{args.mode}"
        outdir.mkdir(exist_ok=True)
        # Timed at the reference CPU speed (see speed.py), except in a traced
        # run, whose layer timings are as measured.
        meter = SpeedMeter(scale=tracer is None)
        passes = []
        pass_segments = []
        timed_from = time.perf_counter()
        while True:
            first = len(meter.segments)
            if workload.analyze:
                result = analyze_pass(workload, lists, qrels, make_scorer, meter)
            else:
                result = rerank_pass(workload, lists, qrels, make_scorer, outdir, meter)
            pass_segments.append((first, len(meter.segments)))
            if args.stub_url:
                result["stub"] = stub_stats(args.stub_url)
            passes.append(result)
            if tracer is not None:
                break
            # Stop before a pass that would likely end past --seconds.
            elapsed = time.perf_counter() - timed_from
            if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                break
        scaled = meter.scaled()
        for result, (first, last) in zip(passes, pass_segments):
            result["wall_s"] = sum(scaled[first:last])
            result["raw_wall_s"] = sum(wall for wall, _, _, _ in meter.segments[first:last])
            result["query_s"] = [scaled[i] for i in range(first, last) if meter.segments[i][3]]
        report["passes"] = passes
        report["calibrations"] = len(meter.calibrations)
        if tracer is not None:
            from perfbench.layers import layer_metrics

            tracer.close(root_span)
            report["layers"] = layer_metrics(tracer, passes[0])
            if args.spans is not None:
                tracer.write(args.spans)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    args.out.write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
