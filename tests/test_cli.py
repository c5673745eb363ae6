import json
import math
import sys
import time

import pytest
from click.testing import CliRunner

from refrank import cli as cli_module
from refrank.cli import cli
from refrank.datamodel import CallLedger
from refrank.scorer import OracleScorer, Scorer

from synth import make_synth, shortest_last, write_experiment_files


@pytest.fixture
def fixture_files(tmp_path):
    data = make_synth(3, 12, seed=17, rank_correlation=0.4)
    return data, write_experiment_files(data, tmp_path / "data")


def invoke(args):
    return CliRunner().invoke(cli, args, catch_exceptions=False)


@pytest.fixture
def ledgers(monkeypatch):
    """Every CallLedger the commands make, in order of creation."""
    made = []

    class KeptLedger(CallLedger):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(cli_module, "CallLedger", KeptLedger)
    return made


def input_args(paths):
    run, corpus, queries, qrels = paths
    return ["--run", str(run), "--corpus", str(corpus), "--queries", str(queries)]


def rerank_args(paths, out, strategy="refrank-single", extra=()):
    run, corpus, queries, qrels = paths
    return [
        "rerank",
        "--run", str(run),
        "--corpus", str(corpus),
        "--queries", str(queries),
        "--qrels", str(qrels),
        "--out", str(out),
        "--strategy", strategy,
        "--seed", "7",
        "--depth", "12",
        *extra,
    ]


class TestRerank:
    def test_writes_run_and_report(self, fixture_files, tmp_path):
        data, paths = fixture_files
        out = tmp_path / "out"
        result = invoke(rerank_args(paths, out))
        assert result.exit_code == 0, result.output
        run_file = out / "refrank-single.run"
        report_file = out / "refrank-single.report.json"
        assert run_file.exists() and report_file.exists()
        lines = run_file.read_text().strip().splitlines()
        assert len(lines) == 3 * 12
        report = json.loads(report_file.read_text())
        assert report["calls"]["triplet"] == 3 * 12
        assert report["metric"] == "ndcg@10"
        assert report["mean"] == 1.0  # noiseless oracle on judged fixture
        assert report["latency_ms"] == {}  # the oracle times no attempt
        assert report["config"]["seed"] == 7
        # the snapshot holds the strategy options refrank-single reads, no others
        assert report["config"]["ref_index"] == 1
        assert not {"m", "weights", "k", "children"} & set(report["config"])

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--m", "0"),
            ("--weights", "nonsense"),
            ("--ref-index", "999"),
            ("--ref-topk", "2"),
            ("--k", "999"),
            ("--children", "-5"),
            ("--concurrency", "-3"),
        ],
    )
    def test_unread_strategy_flags_and_bad_concurrency_are_usage_errors(
        self, fixture_files, tmp_path, flag, value
    ):
        data, paths = fixture_files
        out = tmp_path / "out"
        result = CliRunner().invoke(
            cli, rerank_args(paths, out, strategy="pointwise", extra=[flag, value])
        )
        assert result.exit_code == 2
        assert flag in result.output
        assert not out.exists()

    def test_blank_input_line_warns_once(self, fixture_files, tmp_path):
        data, paths = fixture_files
        run = paths[0]
        run.write_text(run.read_text() + "\n")
        result = CliRunner().invoke(cli, rerank_args(paths, tmp_path / "out"))
        assert result.exit_code == 0, result.output
        warnings = [line for line in result.stderr.splitlines() if line.startswith("warning:")]
        assert len(warnings) == 1
        assert "1 blank line" in warnings[0]

    def test_budget_warning_past_log2_n(self, fixture_files, tmp_path):
        data, paths = fixture_files
        rerank = invoke(rerank_args(paths, tmp_path / "out", "refrank-multiple", ["--m", "4"]))
        bench = invoke([
            "bench", *input_args(paths), "--strategy", "pointwise,refrank-multiple",
            "--m", "4", "--seed", "7", "--depth", "12",
        ])
        for result in (rerank, bench):
            assert result.exit_code == 0, result.output
            assert result.stderr == (
                "warning: ensemble size m=4 exceeds the log2(n)~3 call-budget guideline at n=12\n"
            )

    def test_no_warning_within_budget(self, fixture_files, tmp_path):
        data, paths = fixture_files
        result = invoke(rerank_args(paths, tmp_path / "out", "refrank-multiple", ["--m", "3"]))
        assert result.exit_code == 0, result.output
        assert result.stderr == ""

    def test_unknown_strategy_is_usage_error(self, fixture_files, tmp_path):
        data, paths = fixture_files
        result = CliRunner().invoke(
            cli, rerank_args(paths, tmp_path / "out", strategy="quicksort")
        )
        assert result.exit_code == 2

    def test_missing_seed_with_oracle_is_usage_error(self, fixture_files, tmp_path):
        data, paths = fixture_files
        args = rerank_args(paths, tmp_path / "out")
        seed_at = args.index("--seed")
        del args[seed_at : seed_at + 2]
        result = CliRunner().invoke(cli, args)
        assert result.exit_code == 2
        assert "--seed" in result.output

    def test_deterministic_output_bytes(self, fixture_files, tmp_path):
        data, paths = fixture_files
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert invoke(rerank_args(paths, out_a)).exit_code == 0
        assert invoke(rerank_args(paths, out_b)).exit_code == 0
        assert (out_a / "refrank-single.run").read_bytes() == (
            out_b / "refrank-single.run"
        ).read_bytes()
        report_a = json.loads((out_a / "refrank-single.report.json").read_text())
        report_b = json.loads((out_b / "refrank-single.report.json").read_text())
        for report in (report_a, report_b):
            report.pop("query_seconds")
            report.pop("total_seconds")
            report.pop("wall_seconds")
        assert report_a == report_b

    @pytest.mark.parametrize("strategy", list(cli_module.STRATEGIES))
    def test_concurrency_preserves_output(self, tmp_path, strategy):
        # the run file and the ledger's totals, recorded from 1 thread or from 4
        paths = write_experiment_files(make_synth(8, 12, seed=17, rank_correlation=0.4), tmp_path)
        runs, ledgers = [], []
        for concurrency in ("1", "4"):
            out = tmp_path / concurrency
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)  # switch often, so that queries overlap on the pool's threads
            try:
                result = invoke(rerank_args(paths, out, strategy, ["--concurrency", concurrency]))
            finally:
                sys.setswitchinterval(interval)
            assert result.exit_code == 0, result.output
            report = json.loads((out / f"{strategy}.report.json").read_text())
            runs.append((out / f"{strategy}.run").read_bytes())
            ledgers.append({name: report[name] for name in
                            ("calls", "total_calls", "prompt_chars", "retries", "latency_ms")})
        assert runs[0] == runs[1]
        assert ledgers[0] == ledgers[1]
        assert ledgers[0]["total_calls"] > 0

    def test_wall_seconds_next_to_summed_query_seconds(self, tmp_path, monkeypatch):
        # every judgment waits 2 ms, as on an endpoint, so queries ranked in
        # parallel overlap: 8 queries of 12 docs take about 24 ms each
        paths = write_experiment_files(make_synth(8, 12, seed=3), tmp_path / "data")
        judges = OracleScorer._JUDGES

        def waiting(kind):
            def judge(*args):
                time.sleep(0.002)
                return judges[kind](*args)

            return judge

        monkeypatch.setattr(OracleScorer, "_JUDGES", {kind: waiting(kind) for kind in judges})
        reports = {}
        for concurrency in ("1", "4"):
            out = tmp_path / concurrency
            result = invoke(rerank_args(paths, out, strategy="pointwise",
                                        extra=["--concurrency", concurrency]))
            assert result.exit_code == 0, result.output
            reports[concurrency] = json.loads((out / "pointwise.report.json").read_text())
        serial, parallel = reports["1"], reports["4"]
        assert serial["total_seconds"] <= serial["wall_seconds"]
        assert max(parallel["query_seconds"].values()) <= parallel["wall_seconds"]
        assert parallel["wall_seconds"] < parallel["total_seconds"]

    def test_refrank_multiple_line_count(self, fixture_files, tmp_path):
        data, paths = fixture_files
        out = tmp_path / "out"
        result = invoke(
            rerank_args(paths, out, strategy="refrank-multiple", extra=["--m", "3"])
        )
        assert result.exit_code == 0
        report = json.loads((out / "refrank-multiple.report.json").read_text())
        assert report["calls"]["triplet"] == 3 * 12 * 3

    def test_ref_topk_requires_seed(self, fixture_files, tmp_path):
        data, paths = fixture_files
        args = rerank_args(paths, tmp_path / "out", extra=["--ref-topk", "2"])
        seed_at = args.index("--seed")
        del args[seed_at : seed_at + 2]
        result = CliRunner().invoke(cli, args)
        assert result.exit_code == 2

    def test_endpoint_requires_url_and_model(self, fixture_files, tmp_path):
        data, paths = fixture_files
        args = rerank_args(paths, tmp_path / "out", extra=["--backend", "endpoint"])
        result = CliRunner().invoke(cli, args)
        assert result.exit_code == 2

    def test_missing_input_file_is_usage_error(self, fixture_files, tmp_path):
        data, paths = fixture_files
        args = rerank_args(paths, tmp_path / "out")
        args[args.index("--run") + 1] = str(tmp_path / "nope.run")
        result = CliRunner().invoke(cli, args)
        assert result.exit_code == 2


@pytest.mark.parametrize(
    "command, extra, output",
    [
        ("rerank", ["--strategy", "pointwise"], "pointwise.run"),
        ("analyze", ["--ref-topk", "3", "--m", "2"], "reference_sweep.csv"),
        ("eval", [], "eval.json"),
    ],
    ids=["rerank", "analyze", "eval"],
)
def test_refuses_overwrite_without_force(fixture_files, tmp_path, ledgers, command, extra,
                                         output):
    data, paths = fixture_files
    inputs = ["--run", str(paths[0])] if command == "eval" else [*input_args(paths), "--seed", "7"]
    args = [command, *inputs, "--qrels", str(paths[3]), "--out", str(tmp_path / "out"), *extra]
    existing = tmp_path / "out" / output
    assert invoke(args).exit_code == 0
    written = existing.read_bytes()
    existing.write_bytes(b"kept\n")
    calls_before = sum(ledger.total_calls for ledger in ledgers)

    denied = CliRunner().invoke(cli, args)
    assert denied.exit_code == 1
    assert denied.stderr == f"error: refusing to overwrite {existing} (pass --force)\n"
    assert existing.read_bytes() == b"kept\n"
    assert sum(ledger.total_calls for ledger in ledgers) == calls_before

    assert invoke([*args, "--force"]).exit_code == 0
    assert existing.read_bytes() == written


@pytest.mark.parametrize(
    "command, extra",
    [
        ("rerank", ["--out", "out", "--strategy", "pointwise"]),
        ("analyze", ["--out", "out"]),
        ("bench", ["--strategy", "pointwise"]),
        ("eval", ["--out", "out"]),
    ],
)
def test_empty_run_file_is_runtime_error(fixture_files, tmp_path, monkeypatch, command, extra):
    data, paths = fixture_files
    paths[0].write_text("")
    monkeypatch.chdir(tmp_path)
    inputs = ["--run", str(paths[0])] if command == "eval" else [*input_args(paths), "--seed", "7"]
    result = CliRunner().invoke(cli, [command, *inputs, "--qrels", str(paths[3]), *extra])
    assert result.exit_code == 1
    assert "error:" in result.output
    assert str(paths[0]) in result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, extra, exit_code",
    [
        ("rerank", ["--strategy", "pointwise"], 2),  # no --seed
        ("analyze", ["--backend", "endpoint", "--model", "m"], 2),  # no --endpoint-url
        ("rerank", ["--backend", "endpoint", "--endpoint-url", "http://127.0.0.1:9",
                    "--model", "m", "--template-dir", "templates"], 1),
        ("rerank", ["--strategy", "refrank-multiple", "--m", "2", "--weights", "nan,1",
                    "--seed", "1"], 1),
        ("rerank", ["--strategy", "refrank-multiple", "--m", "2", "--weights", "a,b",
                    "--seed", "1"], 2),
        ("analyze", ["--m", "20", "--seed", "7"], 1),
        ("analyze", ["--m", "0", "--seed", "7"], 1),
        ("analyze", ["--ref-topk", "0", "--seed", "7"], 1),
        ("rerank", ["--strategy", "refrank-multiple", "--m", "99", "--seed", "7"], 1),
        ("rerank", ["--ref-index", "99", "--seed", "7"], 1),
        ("rerank", ["--strategy", "pairwise-bubblesort", "--k", "0", "--seed", "7"], 1),
        ("rerank", ["--strategy", "pairwise-bubblesort", "--k", "99", "--seed", "7"], 1),
        ("rerank", ["--strategy", "setwise-heapsort", "--children", "1", "--seed", "7"], 1),
    ],
    ids=["rerank-no-seed", "analyze-no-endpoint-url", "template-without-ref", "nan-weight",
         "weights-not-floats",
         "analyze-m-past-list", "analyze-m-zero", "analyze-ref-topk-zero", "rerank-m-past-list",
         "rerank-ref-index-past-list", "rerank-k-zero", "rerank-k-past-list",
         "rerank-children-one"],
)
def test_failed_setup_creates_no_out_dir(fixture_files, tmp_path, monkeypatch, command, extra,
                                         exit_code):
    data, paths = fixture_files
    (tmp_path / "templates").mkdir()
    (tmp_path / "templates" / "triplet.txt").write_text("{query} {doc}")
    monkeypatch.chdir(tmp_path)
    result = CliRunner().invoke(
        cli, [command, *input_args(paths), "--qrels", str(paths[3]), "--out", "out", *extra]
    )
    assert result.exit_code == exit_code, result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["rerank", "analyze", "bench"])
@pytest.mark.parametrize(
    "flag, value",
    [("--endpoint-url", "http://127.0.0.1:9"), ("--model", "gpt"), ("--api-key-env", "NOPE"),
     ("--template-dir", "templates")],
)
def test_endpoint_flags_under_the_oracle_are_usage_errors(fixture_files, tmp_path, monkeypatch,
                                                          command, flag, value):
    data, paths = fixture_files
    (tmp_path / "templates").mkdir()
    monkeypatch.chdir(tmp_path)
    out = [] if command == "bench" else ["--out", "out"]
    result = CliRunner().invoke(
        cli, [command, *input_args(paths), "--qrels", str(paths[3]), "--seed", "1", *out,
              flag, value]
    )
    assert result.exit_code == 2, result.output
    assert f"{flag} is not read by the oracle backend" in result.output
    assert "calls/query" not in result.output
    assert not (tmp_path / "out").exists()


def test_backend_usage_error_comes_before_any_input_is_read(fixture_files, tmp_path):
    data, paths = fixture_files
    paths[0].write_text("not a run line\n")
    out = tmp_path / "out"
    result = CliRunner().invoke(cli, ["rerank", *input_args(paths), "--out", str(out)])
    assert result.exit_code == 2
    assert "--seed is required with the oracle backend" in result.output
    assert not out.exists()


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("triplets.txt", "{query} {doc} {ref}",
         "{path}: not a template name; "
         "expected one of pointwise.txt, triplet.txt, duel.txt, setwise.txt"),
        ("triplet.txt", "{query} {doc} {{ref}}",
         "template problem with placeholder {ref}: missing from the triplet template"),
        ("triplet.txt", "{query} {doc} {ref} {nope}",
         "template problem with placeholder {nope}: not a known placeholder"),
        ("triplet.txt", "{query} {doc} {ref} {",
         "template problem with placeholder triplet: "
         "malformed template: Single '{' encountered in format string"),
    ],
    ids=["misnamed", "escaped-ref", "unknown", "lone-brace"],
)
def test_bad_template_dir_is_refused_before_any_input_is_read(
    fixture_files, tmp_path, name, text, message
):
    data, paths = fixture_files
    paths[0].write_text("not a run line\n")
    templates = tmp_path / "templates"
    templates.mkdir()
    (templates / name).write_text(text)
    out = tmp_path / "out"
    result = CliRunner().invoke(cli, [
        "rerank", *input_args(paths), "--out", str(out), "--backend", "endpoint",
        "--endpoint-url", "http://127.0.0.1:9", "--model", "m", "--template-dir", str(templates),
    ])
    assert result.exit_code == 1
    assert result.stderr == "error: " + message.replace("{path}", str(templates / name)) + "\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "url, key, message",
    [
        ("ftp://x", None, "base_url must be http(s)://host[:port], got 'ftp://x'"),
        ("http://127.0.0.1:9", "", "environment variable 'REFRANK_TEST_KEY' is not set"),
        ("http://127.0.0.1:9", "a b",
         "environment variable 'REFRANK_TEST_KEY' holds whitespace or a character "
         "outside printable ASCII"),
    ],
    ids=["bad-url", "unset-key", "key-with-space"],
)
@pytest.mark.parametrize("command", ["rerank", "bench", "analyze"])
def test_a_bad_endpoint_setting_is_refused_before_any_input_is_read(
    fixture_files, tmp_path, monkeypatch, command, url, key, message
):
    data, paths = fixture_files
    run, corpus, queries, qrels = paths
    run.write_text("not a run line\n")
    qrels.write_text("not a qrels line\n")
    monkeypatch.delenv("REFRANK_TEST_KEY", raising=False)
    key_args = []
    if key is not None:
        key_args = ["--api-key-env", "REFRANK_TEST_KEY"]
        if key:
            monkeypatch.setenv("REFRANK_TEST_KEY", key)
    out = tmp_path / "out"
    out_args = [] if command == "bench" else ["--out", str(out)]
    qrels_args = ["--qrels", str(qrels)] if command == "analyze" else []
    result = CliRunner().invoke(cli, [
        command, *input_args(paths), *qrels_args, *out_args, "--backend", "endpoint",
        "--endpoint-url", url, "--model", "m", *key_args,
    ])
    assert result.exit_code == 1, result.output
    assert result.stderr == f"error: {message}\n"
    assert result.stdout == ""
    assert not out.exists()


def test_bench_prints_nothing_before_a_backend_usage_error(fixture_files):
    data, paths = fixture_files
    result = CliRunner().invoke(cli, ["bench", *input_args(paths), "--strategy", "pointwise"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "--seed is required with the oracle backend" in result.stderr


@pytest.mark.parametrize(
    "command, strategy",
    [("rerank", "refrank-single"), ("bench", "refrank-single,refrank-multiple")],
)
def test_ref_index_with_ref_topk_is_refused_before_any_input_is_read(
    fixture_files, tmp_path, command, strategy
):
    data, paths = fixture_files
    run, corpus, queries, qrels = paths
    run.write_text("not a run line\n")
    out = tmp_path / "out"
    out_args = [] if command == "bench" else ["--out", str(out)]
    result = CliRunner().invoke(cli, [
        command, *input_args(paths), *out_args, "--strategy", strategy,
        "--ref-index", "999", "--ref-topk", "2", "--seed", "7",
    ])
    assert result.exit_code == 2, result.output
    assert "--ref-index is not read with --ref-topk" in result.stderr
    assert result.stdout == ""
    assert not out.exists()


def test_ref_topk_alone_still_runs(fixture_files, tmp_path):
    data, paths = fixture_files
    out = tmp_path / "out"
    result = invoke(rerank_args(paths, out, extra=["--ref-topk", "2"]))
    assert result.exit_code == 0, result.output
    report = json.loads((out / "refrank-single.report.json").read_text())
    assert report["config"]["ref_topk"] == 2


@pytest.mark.parametrize(
    "extra, anchor",
    [([], {"ref_index": 1, "ref_topk": None}), (["--ref-topk", "2"], {"ref_topk": 2})],
    ids=["ref-index", "ref-topk"],
)
def test_the_report_config_holds_the_anchor_option_the_run_read(fixture_files, tmp_path, extra, anchor):
    data, paths = fixture_files
    out = tmp_path / "out"
    result = invoke(rerank_args(paths, out, extra=extra))
    assert result.exit_code == 0, result.output
    config = json.loads((out / "refrank-single.report.json").read_text())["config"]
    assert {name: config[name] for name in ("ref_index", "ref_topk") if name in config} == anchor


@pytest.mark.parametrize(
    "command, extra, message",
    [
        ("rerank", ["--ref-index", "0"], "--seed is required with the oracle backend"),
        ("bench", ["--ref-index", "0"], "--seed is required with the oracle backend"),
        ("bench", ["--strategy", "refrank-single,refrank-multiple", "--ref-index", "0",
                   "--weights", "a,b", "--seed", "1"], "--weights 'a,b' is not a comma-separated"),
        ("rerank", ["--strategy", "pointwise", "--k", "3", "--backend", "endpoint",
                    "--endpoint-url", "http://127.0.0.1:9", "--model", "m",
                    "--template-dir", "templates"], "--k is not read by strategy pointwise"),
        ("rerank", ["--strategy", "pointwise", "--k", "3", "--backend", "endpoint",
                    "--endpoint-url", "ftp://x", "--model", "m"],
         "--k is not read by strategy pointwise"),
        ("bench", ["--strategy", "pointwise", "--k", "3", "--backend", "endpoint",
                   "--endpoint-url", "http://127.0.0.1:9", "--model", "m",
                   "--api-key-env", "REFRANK_UNSET_KEY"], "--k is not read by strategy pointwise"),
    ],
    ids=["rerank-no-seed", "bench-no-seed", "bench-later-strategy", "unread-flag-bad-templates",
         "unread-flag-bad-url", "unread-flag-unset-key"],
)
def test_a_usage_error_wins_over_a_refused_setting_or_template(
    fixture_files, tmp_path, monkeypatch, command, extra, message
):
    data, paths = fixture_files
    (tmp_path / "templates").mkdir()
    (tmp_path / "templates" / "triplets.txt").write_text("{query} {doc} {ref}")
    monkeypatch.chdir(tmp_path)
    out = [] if command == "bench" else ["--out", "out"]
    result = CliRunner().invoke(cli, [command, *input_args(paths), *out, *extra])
    assert result.exit_code == 2, result.output
    assert message in result.stderr
    assert result.stdout == ""
    assert not (tmp_path / "out").exists()


# Settings that a 4-doc list cannot take, and the message of the strategy or
# sweep that refuses them.
TOO_LONG_FOR_4 = {
    "ref-index": ("refrank-single", ["--ref-index", "6"],
                  "reference index 6 exceeds list length 4"),
    "ref-topk": ("refrank-single", ["--ref-topk", "6"], "reference top-k 6 exceeds list length 4"),
    "m": ("refrank-multiple", ["--m", "5"], "ensemble size m=5 exceeds list length 4"),
    "bubblesort-k": ("pairwise-bubblesort", ["--k", "10"],
                     "bubble passes k=10 must be within 1..4"),
    "heapsort-k": ("setwise-heapsort", ["--k", "10"], "extraction count k=10 must be within 1..4"),
}


@pytest.mark.parametrize(
    "command, strategy, flags, message",
    [pytest.param(command, *case, id=f"{command}-{name}")
     for command in ("rerank", "bench") for name, case in TOO_LONG_FOR_4.items()]
    + [pytest.param("analyze", None, ["--ref-topk", "6"],
                    "--ref-topk=6 must be within 1..4 (shortest list)", id="analyze-ref-topk"),
       pytest.param("analyze", None, ["--m", "5"], "--m=5 must be within 1..4 (shortest list)",
                    id="analyze-m")],
)
def test_a_setting_the_last_and_shortest_list_cannot_take_makes_no_judge_call(
    tmp_path, monkeypatch, ledgers, command, strategy, flags, message
):
    # lists of 12, 12 and 4 docs: the refusal must not wait for the third
    data = shortest_last(make_synth(3, 12, seed=17, rank_correlation=0.4), 4)
    paths = write_experiment_files(data, tmp_path / "data")
    monkeypatch.chdir(tmp_path)
    args = [command, *input_args(paths), "--qrels", str(paths[3]), "--seed", "1", *flags]
    if command == "rerank":
        args += ["--strategy", strategy, "--out", "out"]
    elif command == "bench":
        args += ["--strategy", f"pointwise,{strategy}"]
    else:
        args += ["--out", "out"]
    result = CliRunner().invoke(cli, args)
    assert result.exit_code == 1, result.output
    assert result.stdout == ""
    assert result.stderr == f"error: {message}\n"
    assert sum(ledger.total_calls for ledger in ledgers) == 0
    assert not (tmp_path / "out").exists()


def test_trying_every_strategy_on_the_shortest_list_judges_nothing(monkeypatch):
    # on a 100-doc list pairwise-allpairs alone would judge n(n-1) = 9,900 pairs;
    # each ranker must stop at the stand-in, and no real scorer may judge
    reached = []
    stop = cli_module._NoJudge.score_batch

    def recorded(self, requests):
        reached.append({request.kind for request in requests})
        return stop(self, requests)

    def judged(self, requests):
        raise AssertionError(f"a real scorer judged {len(requests)} request(s)")

    monkeypatch.setattr(cli_module._NoJudge, "score_batch", recorded)
    monkeypatch.setattr(Scorer, "score_batch", judged)
    options = dict(m=5, weights=None, ref_index=1, ref_topk=None, seed=1, k=10, children=3)
    rankers = [make(**options) for make in cli_module.STRATEGIES.values()]
    cli_module._try_rankers(rankers, make_synth(2, 100, seed=3).lists)
    # one first batch per ranker, in STRATEGIES order
    kinds = {"pointwise": "pointwise", "refrank-single": "triplet", "refrank-multiple": "triplet",
             "pairwise-allpairs": "duel", "pairwise-bubblesort": "duel", "setwise-heapsort": "setwise"}
    assert reached == [{kinds[name]} for name in cli_module.STRATEGIES]


class TestAnalyze:
    def test_sweeps_share_each_querys_judgments(self, tmp_path, monkeypatch, ledgers):
        # 8 queries x 100 docs, anchors 1..5 in both sweeps: 500 distinct
        # (doc, anchor) judgments per query behind 2,000 counted calls
        paths = write_experiment_files(make_synth(8, 100, 3), tmp_path / "data")
        judges = OracleScorer._JUDGES
        judged = []

        def counted(kind):
            def judge(*args):
                judged.append(kind)
                return judges[kind](*args)

            return judge

        monkeypatch.setattr(OracleScorer, "_JUDGES", {kind: counted(kind) for kind in judges})
        result = invoke(["analyze", *input_args(paths), "--qrels", str(paths[3]),
                         "--out", str(tmp_path / "out"), "--ref-topk", "5", "--m", "5",
                         "--seed", "1"])
        assert result.exit_code == 0, result.output
        assert len(judged) == 4_000
        assert [ledger.total_calls for ledger in ledgers] == [16_000]

    def test_writes_three_csvs(self, fixture_files, tmp_path):
        data, paths = fixture_files
        run, corpus, queries, qrels = paths
        out = tmp_path / "analysis"
        result = invoke(
            [
                "analyze",
                "--run", str(run),
                "--corpus", str(corpus),
                "--queries", str(queries),
                "--qrels", str(qrels),
                "--out", str(out),
                "--seed", "7",
                "--depth", "12",
                "--ref-topk", "10",
                "--m", "4",
            ]
        )
        assert result.exit_code == 0, result.output
        assert result.stderr == ""  # the sweeps pass --m 4 > log2(12) without a budget warning
        reference = (out / "reference_sweep.csv").read_text().strip().splitlines()
        topk = (out / "topk_selection.csv").read_text().strip().splitlines()
        ensemble = (out / "ensemble_sweep.csv").read_text().strip().splitlines()
        assert len(reference) == 11  # header + 10 rows
        assert len(topk) == 11
        assert len(ensemble) == 5

    def test_topk_is_prefix_mean_of_reference(self, fixture_files, tmp_path):
        data, paths = fixture_files
        run, corpus, queries, qrels = paths
        out = tmp_path / "analysis"
        invoke(
            [
                "analyze",
                "--run", str(run),
                "--corpus", str(corpus),
                "--queries", str(queries),
                "--qrels", str(qrels),
                "--out", str(out),
                "--seed", "7",
                "--depth", "12",
                "--ref-topk", "6",
                "--m", "2",
            ]
        )
        reference = [
            float(line.split(",")[1])
            for line in (out / "reference_sweep.csv").read_text().strip().splitlines()[1:]
        ]
        topk = [
            float(line.split(",")[1])
            for line in (out / "topk_selection.csv").read_text().strip().splitlines()[1:]
        ]
        for k in range(1, 7):
            assert topk[k - 1] == pytest.approx(sum(reference[:k]) / k, abs=1e-12)

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--strategy", "pointwise"),
            ("--weights", "1"),
            ("--k", "5"),
            ("--children", "2"),
            ("--ref-index", "2"),
            ("--concurrency", "2"),
        ],
    )
    def test_rerank_only_flags_are_usage_errors(self, fixture_files, tmp_path, flag, value):
        data, paths = fixture_files
        run, corpus, queries, qrels = paths
        result = CliRunner().invoke(
            cli,
            [
                "analyze",
                "--run", str(run),
                "--corpus", str(corpus),
                "--queries", str(queries),
                "--qrels", str(qrels),
                "--out", str(tmp_path / "x"),
                "--seed", "7",
                flag, value,
            ],
        )
        assert result.exit_code == 2
        assert "No such option" in result.output
        assert not (tmp_path / "x").exists()

    def test_m_max_exceeding_n_is_runtime_error(self, fixture_files, tmp_path):
        data, paths = fixture_files
        run, corpus, queries, qrels = paths
        result = CliRunner().invoke(
            cli,
            [
                "analyze",
                "--run", str(run),
                "--corpus", str(corpus),
                "--queries", str(queries),
                "--qrels", str(qrels),
                "--out", str(tmp_path / "x"),
                "--seed", "7",
                "--depth", "12",
                "--m", "50",
            ],
        )
        assert result.exit_code == 1


class TestEval:
    def test_ideal_run_scores_one(self, fixture_files, tmp_path):
        data, paths = fixture_files
        run, corpus, queries, qrels = paths
        out = tmp_path / "out"
        invoke(rerank_args(paths, out))  # noiseless oracle gives the ideal order
        result = invoke(
            [
                "eval",
                "--run", str(out / "refrank-single.run"),
                "--qrels", str(qrels),
            ]
        )
        assert result.exit_code == 0, result.output
        assert "mean\tndcg@10\t1.000000" in result.output

    def test_json_written(self, fixture_files, tmp_path):
        data, paths = fixture_files
        run, corpus, queries, qrels = paths
        out = tmp_path / "evalout"
        result = invoke(
            ["eval", "--run", str(run), "--qrels", str(qrels), "--out", str(out)]
        )
        assert result.exit_code == 0
        payload = json.loads((out / "eval.json").read_text())
        assert payload["metric"] == "ndcg@10"
        assert 0.0 <= payload["mean"] <= 1.0

    def test_empty_qrels_intersection_warns_and_zero(self, fixture_files, tmp_path):
        data, paths = fixture_files
        run, *_ = paths
        alien_qrels = tmp_path / "alien.qrels"
        alien_qrels.write_text("zz9 0 nosuchdoc 1\n")
        result = CliRunner().invoke(
            cli, ["eval", "--run", str(run), "--qrels", str(alien_qrels)]
        )
        assert result.exit_code == 0
        assert "mean\tndcg@10\t0.000000" in result.output
        assert "warning" in result.output

    def test_existing_json_is_refused_before_anything_is_printed(self, fixture_files, tmp_path):
        _, (run, _, _, qrels) = fixture_files
        existing = tmp_path / "out" / "eval.json"
        existing.parent.mkdir()
        existing.write_bytes(b"kept\n")
        result = CliRunner().invoke(
            cli, ["eval", "--run", str(run), "--qrels", str(qrels), "--out", str(existing.parent)]
        )
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == f"error: refusing to overwrite {existing} (pass --force)\n"
        assert existing.read_bytes() == b"kept\n"

    def test_a_bad_k_is_refused_before_the_run_file_is_read(self, fixture_files, tmp_path):
        _, (_, _, _, qrels) = fixture_files
        run = tmp_path / "broken.run"
        run.write_text("not a run line\n")
        result = CliRunner().invoke(
            cli, ["eval", "--run", str(run), "--qrels", str(qrels), "--k", "0"]
        )
        assert result.exit_code == 1
        assert result.stderr == "error: metric cutoff k must be >= 1, got 0\n"


@pytest.mark.parametrize("command", ["rerank", "analyze", "eval"])
@pytest.mark.parametrize(
    "regrade,gain,top",
    [
        pytest.param(lambda index: 1024 if index == 0 else None, "exp", 1024, id="1024-exp"),
        pytest.param(lambda index: 1023, "exp", 1023, id="1023-everywhere-exp"),
        pytest.param(lambda index: 1023, "linear", None, id="1023-everywhere-linear"),
    ],
)
def test_grades_past_a_float_are_refused_before_any_judge_call(
    fixture_files, tmp_path, ledgers, command, regrade, gain, top
):
    # q0002's judged docs regraded: regrade(index) for its index-th qrels line, None to keep it
    _, (run, corpus, queries, qrels) = fixture_files
    lines, index = [], 0
    for line in qrels.read_text().splitlines():
        query_id, zero, doc_id, grade = line.split()
        if query_id == "q0002":
            grade = regrade(index) or grade
            index += 1
        lines.append(f"{query_id} {zero} {doc_id} {grade}\n")
    qrels.write_text("".join(lines))
    out = tmp_path / "out"
    args = {
        "rerank": rerank_args((run, corpus, queries, qrels), out),
        "analyze": ["analyze", *input_args((run, corpus, queries, qrels)), "--qrels", str(qrels),
                    "--out", str(out), "--seed", "7", "--ref-topk", "2", "--m", "2"],
        "eval": ["eval", "--run", str(run), "--qrels", str(qrels)],
    }[command]
    result = CliRunner().invoke(cli, [*args, "--gain", gain])
    if top is None:  # linear gain: 1023 is a finite gain, and so is the mean
        assert result.exit_code == 0, result.output
        assert "nan" not in result.stdout
        if command == "rerank":
            report = json.loads((out / "refrank-single.report.json").read_text())
            assert all(map(math.isfinite, [report["mean"], *report["per_query"].values()]))
        assert all("nan" not in csv.read_text() for csv in out.glob("*.csv"))
        return
    assert result.exit_code == 1, result.output
    assert result.stdout == ""
    assert result.stderr == (
        f"error: query 'q0002': grades up to {top} give an ideal DCG@10 that is not a "
        f"finite float under {gain} gain\n"
    )
    assert sum(ledger.total_calls for ledger in ledgers) == 0
    assert not out.exists()


class TestBench:
    def test_reports_call_counts(self, fixture_files, tmp_path):
        data, paths = fixture_files
        run, corpus, queries, qrels = paths
        result = invoke(
            [
                "bench",
                "--run", str(run),
                "--corpus", str(corpus),
                "--queries", str(queries),
                "--strategy", "pointwise,refrank-single,refrank-multiple",
                "--seed", "7",
                "--depth", "12",
                "--m", "3",
            ]
        )
        assert result.exit_code == 0, result.output
        lines = {
            line.split()[0]: line for line in result.output.strip().splitlines()[2:]
        }
        assert "pointwise=12" in lines["pointwise"]
        assert "triplet=12" in lines["refrank-single"]
        assert "triplet=36" in lines["refrank-multiple"]
        assert result.output.splitlines()[0].split()[-3:] == ["s/query", "wall", "s/query"]
        for line in lines.values():
            summed, wall = map(float, line.split()[-2:])
            # one query at a time: the wall time holds every query's time
            assert summed <= wall

    def test_a_strategy_making_no_judge_call_reads_none(self, fixture_files):
        data, paths = fixture_files
        result = invoke(["bench", *input_args(paths), "--depth", "1",
                         "--strategy", "pairwise-allpairs,pointwise", "--seed", "1"])
        assert result.exit_code == 0, result.output
        rows = [line.split()[:3] for line in result.output.splitlines()[2:]]
        assert rows == [["pairwise-allpairs", "none", "0"], ["pointwise", "pointwise=1", "3"]]

    def test_flag_no_named_strategy_reads_is_usage_error(self, fixture_files):
        data, paths = fixture_files
        args = ["bench", *input_args(paths), "--seed", "1",
                "--strategy", "pointwise,refrank-single", "--ref-index", "2"]
        assert invoke(args).exit_code == 0
        result = CliRunner().invoke(cli, [*args, "--children", "2"])
        assert result.exit_code == 2
        assert "--children" in result.output
        assert "calls/query" not in result.output

    @pytest.mark.parametrize("names", [",", " , ", "pointwise,pointwise",
                                       "pointwise, refrank-single,pointwise"])
    def test_empty_or_repeated_strategy_names(self, tmp_path, names):
        # unparseable inputs: exit 2 shows the names were checked before any was read
        paths = [tmp_path / name for name in ("run", "corpus", "queries", "qrels")]
        for path in paths:
            path.write_text("not a valid line\n")
        result = CliRunner().invoke(cli, ["bench", *input_args(paths), "--strategy", names])
        assert result.exit_code == 2
        assert "must name distinct strategies" in result.output

    def test_unknown_strategy_in_list(self, fixture_files):
        data, paths = fixture_files
        run, corpus, queries, qrels = paths
        result = CliRunner().invoke(
            cli,
            [
                "bench",
                "--run", str(run),
                "--corpus", str(corpus),
                "--queries", str(queries),
                "--strategy", "pointwise,mystery",
                "--seed", "1",
            ],
        )
        assert result.exit_code == 2

    def test_refrank_single_wall_time_within_2x_pointwise(self):
        # oracle-backend latency: anchored scoring issues the same number of
        # calls as pointwise, so per-query wall time stays comparable
        import statistics
        import time

        from refrank.scorer import OracleConfig, OracleScorer
        from refrank.strategies import FixedIndex, rank_pointwise, rank_refrank_single

        data = make_synth(5, 100, seed=55)

        # CPU time, not wall time: time the machine spends on other work
        # during one sample would otherwise land on one strategy alone
        def seconds(run):
            scorer = OracleScorer(OracleConfig(seed=1), latents=data.latents)
            started = time.process_time()
            for cl in data.lists:
                run(cl, scorer)
            return time.process_time() - started

        # Samples alternate between the two strategies so that a change in
        # CPU speed during the test hits both medians alike.
        pointwise, anchored = [], []
        for _ in range(5):
            pointwise.append(seconds(rank_pointwise))
            anchored.append(
                seconds(lambda cl, sc: rank_refrank_single(cl, sc, FixedIndex(1)))
            )
        assert statistics.median(anchored) < 2.0 * statistics.median(pointwise)

    def test_refrank_multiple_vs_allpairs_calls_at_n100(self, tmp_path):
        data = make_synth(1, 100, seed=77)
        run, corpus, queries, qrels = write_experiment_files(data, tmp_path / "big")
        result = invoke(
            [
                "bench",
                "--run", str(run),
                "--corpus", str(corpus),
                "--queries", str(queries),
                "--strategy", "refrank-multiple,pairwise-allpairs",
                "--seed", "3",
                "--m", "5",
            ]
        )
        assert result.exit_code == 0, result.output
        lines = {
            line.split()[0]: line for line in result.output.strip().splitlines()[2:]
        }
        assert "triplet=500" in lines["refrank-multiple"]
        assert "duel=9900" in lines["pairwise-allpairs"]
