"""refrank benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload oracle-rerank --seed 0 --seconds 20 --trace 0

Run from the root of a refrank checkout; the package is imported from
``src/``. The run

1. writes the workload's fixture for fixture seed ``seed % 16`` (or the
   held-out seed with ``--holdout``) under ``perfbench/_work/``;
2. for ``endpoint-rerank``, starts the stub server in a child process;
3. times five set-ups, each in a fresh interpreter, to the first judge call;
4. runs the workload in a fresh interpreter for as many whole passes as fit
   in ``--seconds``, at least one;
5. with ``--trace 1``, runs one more pass in another fresh interpreter with
   the span tracer installed, for the per-layer metrics;
6. checks every pass against ``expected.json`` (see ``gate.py``).

It prints each metric with its unit and sample count, then, as the last
line, one JSON object: ``correct``, ``attempted``, ``failed`` (queries that
raised) and ``metrics`` (end-to-end with ``--trace 0``, per-layer with
``--trace 1``, as declared in ``BENCHMARK.json``). It exits 1 if the gate
fails and 2 if the run cannot be made at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import gate, stats  # noqa: E402
from perfbench.fixture import write_fixture  # noqa: E402
from perfbench.workload import in_flight_limit  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    FIXTURE_SEEDS,
    HOLDOUT_SEED,
    QUERY_PERCENTILE,
    STUB_LATENCY_MS,
    STUB_THROTTLE_SHARE,
    WORKLOADS,
)

SETUP_PROBES = 5
# Every process of a run must end within this many seconds of its start.
RUN_TIMEOUT_S = 170
WORK = ROOT / "perfbench" / "_work"


class BenchError(Exception):
    """The run could not be made; no result is printed."""


@contextmanager
def stub_server(seed: int, log):
    """Start the stub in a child process; yield its base URL; stop it and wait."""
    process = subprocess.Popen(
        [sys.executable, "-m", "perfbench.stub", "--seed", str(seed),
         "--latency-ms", str(STUB_LATENCY_MS), "--throttle-share", str(STUB_THROTTLE_SHARE)],
        cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log, text=True,
    )
    try:
        line = process.stdout.readline()
        if not line.startswith("PORT "):
            raise BenchError(f"stub server did not start (said {line!r})")
        yield f"http://127.0.0.1:{int(line.split()[1])}"
    finally:
        process.stdin.close()
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        process.stdout.close()


def execute(workload: str, fixture_seed: int, seconds: float, trace: bool, probes: int) -> dict:
    """Make one run and return the raw reports of its processes."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    directory = WORK / f"{workload}-{fixture_seed}-{os.getpid()}"
    directory.mkdir(parents=True, exist_ok=True)

    def child(mode: str, stub_url: str | None, log, seconds: float = 0.0) -> dict:
        out = directory / f"report-{mode}.json"
        command = [
            sys.executable, "-m", "perfbench.workload", "--workload", workload,
            "--fixture-seed", str(fixture_seed), "--dir", str(directory / "fixture"),
            "--mode", mode, "--seconds", repr(seconds), "--out", str(out),
        ]
        if stub_url:
            command += ["--stub-url", stub_url]
        if mode == "trace":
            command += ["--spans", str(WORK / f"spans-{workload}.jsonl.gz")]
        log.flush()
        try:
            subprocess.run(command + ["--t0", repr(time.monotonic())], cwd=ROOT, stdout=log,
                           stderr=log, timeout=max(0.0, deadline - time.monotonic()), check=True)
        except subprocess.CalledProcessError as exc:
            raise BenchError(f"{mode} process exited with {exc.returncode}; see {log.name}") from None
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} process ran past the {RUN_TIMEOUT_S} s run budget") from None
        return json.loads(out.read_text(encoding="utf-8"))

    try:
        write_fixture(WORKLOADS[workload], fixture_seed, directory / "fixture")
        with open(WORK / f"log-{workload}.txt", "w", encoding="utf-8") as log:
            endpoint = WORKLOADS[workload].backend == "endpoint"
            with stub_server(fixture_seed, log) if endpoint else nullcontext() as stub_url:
                setups = [child("setup", stub_url, log) for _ in range(probes)]
                run = child("run", stub_url, log, seconds)
                traced = child("trace", stub_url, log) if trace else None
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return {"setups": setups, "run": run, "traced": traced}


def end_to_end(raw: dict) -> tuple[dict, dict]:
    """End-to-end metric values, and a line describing each one's samples."""
    run = raw["run"]
    speed = f", at reference CPU speed ({run['calibrations']} calibrations)"
    passes = run["passes"]
    wall = sum(p["wall_s"] for p in passes)
    queries = sum(p["attempted"] for p in passes)
    calls = sum(sum(c.values()) for p in passes for c in p["calls"].values())
    setups = [r["setup_s"] for r in raw["setups"]] + [run["setup_s"]]
    q1, setup_median, q3 = statistics.quantiles(setups, n=4)
    setup_raw = statistics.median([r["setup_raw_s"] for r in raw["setups"]] + [run["setup_raw_s"]])
    # Every pass ranks the same queries in the same order: a query's latency is
    # its median over the passes, which keeps one-off stalls of a shared
    # machine out of the percentiles without hiding slow queries.
    latencies = [statistics.median(samples) for samples in zip(*(p["query_s"] for p in passes))]
    values = {
        "setup_s": setup_median,
        "queries_per_s": queries / wall,
        "query_ms_p50": stats.percentile(latencies, 50) * 1e3,
        "query_ms_p90": stats.percentile(latencies, QUERY_PERCENTILE) * 1e3,
        "judge_calls_per_query": calls / queries,
        "judge_calls_per_s": calls / wall,
        "peak_rss_mb": run["peak_rss_mb"],
        "ndcg10_mean": passes[0]["ndcg10_mean"],
    }
    basis = {
        "setup_s": f"median of {len(setups)} fresh set-ups (q1 {q1:.4f}, q3 {q3:.4f}), "
                   f"at reference CPU speed; {setup_raw:.4f} s as measured",
        "queries_per_s": f"{queries} queries / {wall:.3f} s timed wall, {len(passes)} passes{speed}",
        "query_ms_p50": f"nearest-rank p50 of {len(latencies)} per-query medians over {len(passes)} passes{speed}",
        "query_ms_p90": f"nearest-rank p{QUERY_PERCENTILE} of {len(latencies)} per-query medians over {len(passes)} passes{speed}",
        "judge_calls_per_query": f"{calls} ledger calls / {queries} queries",
        "judge_calls_per_s": f"{calls} ledger calls / {wall:.3f} s timed wall{speed}",
        "peak_rss_mb": "ru_maxrss of the workload process, 1 sample",
        "ndcg10_mean": f"mean NDCG@10 of pass 1, equal in all {len(passes)} passes",
    }
    return values, basis


def per_layer(raw: dict) -> tuple[dict, dict]:
    traced = raw["traced"]
    values = dict(traced["layers"])
    untraced = statistics.median(p["raw_wall_s"] for p in raw["run"]["passes"])
    values["trace.overhead_share"] = traced["passes"][0]["raw_wall_s"] / untraced - 1.0
    basis = {name: "1 traced pass" for name in values}
    basis["trace.overhead_share"] = (
        f"traced pass wall / median of {len(raw['run']['passes'])} untraced pass walls - 1"
    )
    return values, basis


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one refrank benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--holdout", action="store_true",
                        help=f"Use the held-out fixture seed {HOLDOUT_SEED} instead of seed % {FIXTURE_SEEDS}.")
    args = parser.parse_args(argv)

    try:
        if not (ROOT / "src" / "refrank" / "__init__.py").is_file():
            raise BenchError(f"no refrank package under {ROOT / 'src'}; run from a refrank checkout")
        declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        expected_all = json.loads((ROOT / "perfbench" / "expected.json").read_text(encoding="utf-8"))
        workload = WORKLOADS[args.workload]
        fixture_seed = HOLDOUT_SEED if args.holdout else args.seed % FIXTURE_SEEDS
        expected = expected_all[args.workload][str(fixture_seed)]
        raw = execute(args.workload, fixture_seed, args.seconds, bool(args.trace), SETUP_PROBES)
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    passes = raw["run"]["passes"] + ([raw["traced"]["passes"][0]] if args.trace else [])
    problems = gate.check(workload, passes, expected, in_flight_limit())
    values, basis = per_layer(raw) if args.trace else end_to_end(raw)
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(values) != set(units):
        print(f"perfbench: metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json",
              file=sys.stderr)
        return 2
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)

    print(f"workload {args.workload}: seed {args.seed} -> fixture seed {fixture_seed}, "
          f"{len(raw['run']['passes'])} timed passes, in-flight limit {in_flight_limit()}")
    for name, unit in units.items():
        print(f"  {name:<50} {values[name]:>14.6g} {unit:<8} {basis[name]}")
    print(f"  {'error_share':<50} {failed / attempted:>14.6g} {'ratio':<8} {failed} of {attempted} queries raised")
    for problem in problems:
        print(f"  gate: {problem}")
    print(f"  correct: {not problems}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
