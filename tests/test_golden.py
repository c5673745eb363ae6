"""Golden output bytes of the `rerank` and `analyze` commands and of prompts.

The digests pin the exact run files and sweep CSVs the CLI writes for a
small seeded fixture, so any change to request construction, the oracle's
noise keying, strategy dispatch or the writers that alters a single byte
fails here. The prompt digests pin what the default templates render for
every request kind, with and without truncation, since the endpoint judge
sees nothing else. The CLI's oracle is built with noise_sigma=0; the test swaps in
a noisy OracleConfig (pointwise bias, pair noise and reference-dependent
noise all nonzero) so ties are rare and every noise draw reaches the output.

Regenerate only for an intended output change: run the test and copy the
digests from the failure message.
"""

import functools
import hashlib

import pytest
from click.testing import CliRunner

import refrank.cli as cli_module
from refrank.cli import cli
from refrank.scorer import JudgeRequest, OracleConfig, PromptTemplates, build_prompt

from synth import make_synth, write_experiment_files

NOISY_ORACLE = functools.partial(
    OracleConfig, noise_sigma=0.4, bias_amplitude=0.3, ref_noise_scale=0.5
)

RERANK_CASES = {
    "pointwise": (),
    "refrank-single": ("--ref-index", "2"),
    "refrank-multiple": ("--m", "3", "--weights", "0.5,0.3,0.2"),
    "pairwise-allpairs": (),
    "pairwise-bubblesort": ("--k", "4"),
    "setwise-heapsort": ("--children", "3", "--k", "4"),
}

GOLDEN_RUNS = {
    "pointwise": (
        "a8a2a0fe04c3152beed76f97e8daf0b9"
        "fbe9d2f38358f16bdb7723076e0b6f0f"
    ),
    "refrank-single": (
        "a5e1cc95b7a81464bb4d2e1e7b19b85a"
        "a985c24fdee72883caa947d7cd97b5c5"
    ),
    "refrank-multiple": (
        "3e2e55595af4c88ea9526e786855341d"
        "055e3a2aec9694d3d59508de33214cfe"
    ),
    "pairwise-allpairs": (
        "6554813ba9a01ce5d41d69f5e719ebf7"
        "f2c892d8b2b693eb9f5aba3f2e231301"
    ),
    "pairwise-bubblesort": (
        "a00e999ae9b34f70660d852c523c1061"
        "b977d17490332d2ee5fa7d9ed0b717c6"
    ),
    "setwise-heapsort": (
        "c523936648990cbfcd5d5412e8f133bb"
        "12c99c41afbeabcf5caef39d2c688eaa"
    ),
}

GOLDEN_SWEEPS = {
    "reference_sweep.csv": (
        "47697bb69856d355324fe86a5f345827"
        "bf35aaef752fafa333d2683544955ed5"
    ),
    "topk_selection.csv": (
        "b279a09e20f8f082d0ed5e17063eff69"
        "568aefa11db91969f85f4abd89683c45"
    ),
    "ensemble_sweep.csv": (
        "5ae12f64b70be9135876de579037326a"
        "486ce85996fd60f4a84828e312ef48f6"
    ),
}


# 0 renders whole passages. Every fixture passage is 15 chars long, so 14
# cuts each one and 15, the boundary, cuts none.
PROMPT_CAPS = (0, 14, 15)

GOLDEN_PROMPTS = {
    "pointwise": (
        "a9cf443d3593b55edc97184caad14f82"
        "a814de252b95186a179aa21cece55636"
    ),
    "triplet": (
        "96d31edc1873e734824cb308283ab6c0"
        "bdd8c0ff241f242d3a4d11dfd876756a"
    ),
    "duel": (
        "f25b9314cb0bef73192d22e3a874e14c"
        "d8da7b662e12b709cf1696d51b2b6cf8"
    ),
    "setwise": (
        "d8dbd85a90b888317eff9a5638665fc2"
        "9b1b0c5cde36bbcaa7caf3c602a22b0f"
    ),
}


def prompt_requests(kind: str) -> list[JudgeRequest]:
    """Requests of one kind over a small synth fixture; triplets anchor on the top two."""
    requests = []
    for candidates in make_synth(2, 6, seed=29).lists:
        query, docs = candidates.query, candidates.docs
        if kind == "pointwise":
            groups = [(doc,) for doc in docs]
        elif kind == "triplet":
            groups = [(doc, ref) for doc in docs for ref in docs[:2]]
        elif kind == "duel":
            groups = [(a, b) for a in docs for b in docs if a is not b]
        else:
            groups = [docs[i : i + size] for size in (2, 3, 4) for i in range(len(docs) - size + 1)]
        requests += [JudgeRequest(kind, query, group) for group in groups]
    return requests


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    data = make_synth(4, 12, seed=29, rank_correlation=0.3)
    run, corpus, queries, qrels = write_experiment_files(
        data, tmp_path_factory.mktemp("golden")
    )
    return [
        "--run", str(run),
        "--corpus", str(corpus),
        "--queries", str(queries),
        "--qrels", str(qrels),
        "--depth", "12",
        "--seed", "11",
    ]


@pytest.fixture
def noisy_oracle(monkeypatch):
    monkeypatch.setattr(cli_module, "OracleConfig", NOISY_ORACLE)


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("strategy", list(RERANK_CASES))
def test_rerank_run_file_bytes(strategy, inputs, noisy_oracle, tmp_path):
    args = ["rerank", *inputs, "--out", str(tmp_path), "--strategy", strategy]
    result = CliRunner().invoke(cli, [*args, *RERANK_CASES[strategy]])
    assert result.exit_code == 0, result.output
    assert sha256(tmp_path / f"{strategy}.run") == GOLDEN_RUNS[strategy]


def test_analyze_csv_bytes(inputs, noisy_oracle, tmp_path):
    args = ["analyze", *inputs, "--out", str(tmp_path), "--ref-topk", "6", "--m", "4"]
    result = CliRunner().invoke(cli, args)
    assert result.exit_code == 0, result.output
    digests = {name: sha256(tmp_path / name) for name in GOLDEN_SWEEPS}
    assert digests == GOLDEN_SWEEPS


@pytest.mark.parametrize("kind", list(GOLDEN_PROMPTS))
def test_default_prompt_bytes(kind):
    templates = PromptTemplates.defaults()
    prompts = [
        build_prompt(request, templates, cap)
        for cap in PROMPT_CAPS
        for request in prompt_requests(kind)
    ]
    digest = hashlib.sha256("\0".join(prompts).encode("utf-8")).hexdigest()
    assert digest == GOLDEN_PROMPTS[kind]
