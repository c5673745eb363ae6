import collections
import contextlib
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import os
import re
import signal
import socket
import socketserver
import ssl
import struct
import subprocess
import sys
import textwrap
import threading
import time
import types
import zlib
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import refrank
from refrank import cli as cli_module
from refrank._seeded import (
    encode,
    normal_from,
    prefix,
    stable_digest,
    std_normal,
    unit_uniform,
)
from refrank.cli import STRATEGIES, cli
from refrank.datamodel import DocCandidate, HarnessError, Qrels, Query, ValidationError
from refrank.scorer import llm
from refrank.scorer import (
    BatchScoringError,
    DegenerateResponseError,
    JudgeRequest,
    LlmBackendConfig,
    LlmScorer,
    OracleConfig,
    OracleScorer,
    PromptTemplates,
    Scorer,
    ScoringError,
    TemplateError,
    TransientBackendError,
    build_prompt,
)
from refrank.scorer.base import check_labels
from refrank.scorer.prompts import DEFAULT_TEMPLATES
from refrank.strategies import rank_pairwise_bubblesort
from synth import make_synth, shortest_last, write_experiment_files

QUERY = Query("q1", "what is x")


def doc(doc_id, text="passage text"):
    return DocCandidate(doc_id, text)


# the requests the stub-server tests send
PROBE_POINTWISE = JudgeRequest("pointwise", QUERY, (doc("p"),))
PROBE_TRIPLET = JudgeRequest("triplet", QUERY, (doc("p"), doc("r")))


def make_oracle(latents=None, **kwargs):
    config = OracleConfig(seed=kwargs.pop("seed", 7), **kwargs)
    return OracleScorer(config, latents=latents)


class TestRequests:
    def test_empty_doc_text_rejected(self):
        with pytest.raises(ValidationError):
            JudgeRequest("pointwise", QUERY, (doc("d1", text="  "),))

    def test_setwise_group_bounds(self):
        with pytest.raises(ValidationError):
            JudgeRequest("setwise", QUERY, (doc("d1"),))
        with pytest.raises(ValidationError):
            JudgeRequest("setwise", QUERY, tuple(doc(f"d{i}") for i in range(27)))

    @pytest.mark.parametrize("kind, count", [("pointwise", 2), ("triplet", 1), ("duel", 3)])
    def test_doc_count_fixed_by_kind(self, kind, count):
        with pytest.raises(ValidationError):
            JudgeRequest(kind, QUERY, tuple(doc(f"d{i}") for i in range(count)))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            JudgeRequest("quartet", QUERY, (doc("a"), doc("b")))

    @pytest.mark.parametrize("kind, count, message", [
        ("quartet", 2, "unknown request kind 'quartet'"),
        ("pointwise", 0, "pointwise request takes 1 documents, got 0"),
        ("pointwise", 2, "pointwise request takes 1 documents, got 2"),
        ("triplet", 1, "triplet request takes 2 documents, got 1"),
        ("triplet", 3, "triplet request takes 2 documents, got 3"),
        ("duel", 0, "duel request takes 2 documents, got 0"),
        ("duel", 3, "duel request takes 2 documents, got 3"),
        ("setwise", 1, "setwise request takes 2..26 documents, got 1"),
        ("setwise", 27, "setwise request takes 2..26 documents, got 27"),
    ])
    def test_refusal_messages(self, kind, count, message):
        with pytest.raises(ValidationError) as exc:
            JudgeRequest(kind, QUERY, tuple(doc(f"d{i}") for i in range(count)))
        assert str(exc.value) == message

    def test_a_request_is_frozen_and_slotted(self):
        request = JudgeRequest(kind="duel", query=QUERY, docs=(doc("a"), doc("b")))
        assert request == JudgeRequest("duel", QUERY, (doc("a"), doc("b")))
        assert not hasattr(request, "__dict__")
        with pytest.raises(AttributeError):
            request.kind = "triplet"

    def test_setwise_labels(self):
        request = JudgeRequest("setwise", QUERY, (doc("a"), doc("b"), doc("c")))
        assert request.labels == ("A", "B", "C")

    @pytest.mark.parametrize("size", range(2, 27))
    def test_setwise_labels_are_the_first_letters(self, size):
        request = JudgeRequest("setwise", QUERY, tuple(doc(f"d{i}") for i in range(size)))
        assert request.labels == tuple(chr(ord("A") + i) for i in range(size))

    @pytest.mark.parametrize(
        "answer",
        [{"A": 0.5}, {"A": 0.5, "B": float("-inf")}, {"A": float("nan"), "B": 0.5}],
        ids=["missing", "infinite", "nan"],
    )
    def test_score_rejects_missing_or_nonfinite_label(self, answer):
        with pytest.raises(DegenerateResponseError) as exc:
            check_labels(PROBE_TRIPLET, answer)
        assert exc.value.payload == answer


class TestOracleLatent:
    @staticmethod
    def latent(qrels, doc_id):
        return OracleScorer(OracleConfig(seed=1), qrels=qrels).latent("q1", doc_id)

    def test_normalized_by_query_max(self):
        qrels = Qrels({"q1": {"a": 0, "b": 1, "c": 2, "d": 3}})
        assert self.latent(qrels, "d") == 1.0
        assert self.latent(qrels, "b") == pytest.approx(1 / 3)

    def test_absent_doc_is_zero(self):
        qrels = Qrels({"q1": {"a": 2}})
        assert self.latent(qrels, "zz") == 0.0

    def test_all_zero_grades(self):
        qrels = Qrels({"q1": {"a": 0, "b": 0}})
        assert self.latent(qrels, "a") == 0.0

    def test_max_grade(self):
        qrels = Qrels({"q1": {"a": 0, "b": 0}, "q2": {"a": 1, "b": 2}})
        assert qrels.max_grade("unknown") == 0
        assert qrels.max_grade("q1") == 0
        assert qrels.max_grade("q2") == 2


class TestOracleScorer:
    def test_pointwise_noiseless_diff_is_2g_minus_1(self):
        oracle = make_oracle(latents={("q1", "d1"): 1.0})
        logits = oracle.score(JudgeRequest("pointwise", QUERY, (doc("d1"),)))
        assert logits["yes"] - logits["no"] == pytest.approx(1.0, abs=1e-15)

    def test_triplet_equal_latents_tie(self):
        latents = {("q1", "a"): 0.4, ("q1", "b"): 0.4}
        oracle = make_oracle(latents=latents)
        logits = oracle.score(JudgeRequest("triplet", QUERY, (doc("a"), doc("b"))))
        assert logits["A"] == logits["B"]

    def test_determinism_bit_identical(self):
        latents = {("q1", "a"): 0.9, ("q1", "b"): 0.2}
        request = JudgeRequest("triplet", QUERY, (doc("a"), doc("b")))
        first = make_oracle(latents=latents, noise_sigma=0.8).score(request)
        second = make_oracle(latents=latents, noise_sigma=0.8).score(request)
        assert first == second

    def test_swap_symmetry_is_exact_even_with_noise(self):
        latents = {("q1", "a"): 0.9, ("q1", "b"): 0.2}
        oracle = make_oracle(latents=latents, noise_sigma=1.5)
        ab = oracle.score(JudgeRequest("triplet", QUERY, (doc("a"), doc("b"))))
        ba = oracle.score(JudgeRequest("triplet", QUERY, (doc("b"), doc("a"))))
        assert ab["A"] == ba["B"] and ab["B"] == ba["A"]

    def test_self_pair_scores_half_even_with_noise(self):
        latents = {("q1", "a"): 0.7}
        oracle = make_oracle(latents=latents, noise_sigma=2.0)
        logits = oracle.score(JudgeRequest("triplet", QUERY, (doc("a"), doc("a"))))
        assert logits["A"] == logits["B"]

    def test_noiseless_monotonicity_in_latent_gap(self):
        gaps = np.linspace(-1, 1, 21)
        diffs = []
        for gap in gaps:
            latents = {("q1", "a"): 0.5 + gap / 2, ("q1", "b"): 0.5 - gap / 2}
            oracle = make_oracle(latents=latents)
            logits = oracle.score(JudgeRequest("triplet", QUERY, (doc("a"), doc("b"))))
            diffs.append(logits["A"] - logits["B"])
        assert all(b > a for a, b in zip(diffs, diffs[1:]))

    def test_ref_noise_scale_widens_noise_for_weak_references(self):
        strong, weak = [], []
        for i in range(300):
            qid = f"q{i}"
            query = Query(qid, "t")
            latents = {(qid, "cand"): 0.5, (qid, "good"): 1.0, (qid, "bad"): 0.0}
            oracle = OracleScorer(
                OracleConfig(seed=11, noise_sigma=0.0, ref_noise_scale=1.0),
                latents=latents,
            )
            cand = doc("cand")
            lg_good = oracle.score(JudgeRequest("triplet", query, (cand, doc("good"))))
            lg_bad = oracle.score(JudgeRequest("triplet", query, (cand, doc("bad"))))
            strong.append(lg_good["A"] - lg_good["B"])
            weak.append(lg_bad["A"] - lg_bad["B"])
        # a perfect reference (latent 1.0) gets sigma_eff = 0: exact logit diff
        assert strong == [pytest.approx(-0.5)] * 300
        # a worthless reference gets sigma_eff = 1.0: wide spread around +0.5
        assert np.std(weak) > 0.5

    def test_setwise_order_invariance(self):
        latents = {("q1", "a"): 0.9, ("q1", "b"): 0.5, ("q1", "c"): 0.1}
        oracle = make_oracle(latents=latents, noise_sigma=0.7)
        docs = (doc("a"), doc("b"), doc("c"))
        forward = oracle.score(JudgeRequest("setwise", QUERY, docs))
        backward = oracle.score(JudgeRequest("setwise", QUERY, tuple(reversed(docs))))
        # same doc gets the same logit regardless of its slot letter
        assert forward["A"] == backward["C"]
        assert forward["B"] == backward["B"]
        assert forward["C"] == backward["A"]

    def test_hash_latent_mode_without_qrels_or_latents(self):
        oracle = make_oracle()
        value = oracle.latent("q1", "d1")
        assert 0.0 < value < 1.0
        assert oracle.latent("q1", "d1") == value

    def test_qrels_latent_mode(self):
        qrels = Qrels({"q1": {"d1": 3, "d2": 1}})
        oracle = OracleScorer(OracleConfig(seed=1), qrels=qrels)
        assert oracle.latent("q1", "d1") == 1.0
        assert oracle.latent("q1", "d2") == pytest.approx(1 / 3)

    def test_missing_explicit_latent_is_error(self):
        oracle = make_oracle(latents={("q1", "a"): 0.5})
        with pytest.raises(ValidationError):
            oracle.score(JudgeRequest("pointwise", QUERY, (doc("unknown"),)))

    def test_ledger_counts_by_kind(self):
        latents = {("q1", "a"): 0.5, ("q1", "b"): 0.4}
        oracle = make_oracle(latents=latents)
        oracle.score(JudgeRequest("pointwise", QUERY, (doc("a"),)))
        oracle.score(JudgeRequest("triplet", QUERY, (doc("a"), doc("b"))))
        oracle.score(JudgeRequest("duel", QUERY, (doc("a"), doc("b"))))
        oracle.score(JudgeRequest("setwise", QUERY, (doc("a"), doc("b"))))
        assert oracle.ledger.counts == {
            "pointwise": 1,
            "triplet": 1,
            "duel": 1,
            "setwise": 1,
        }
        assert oracle.ledger.prompt_chars > 0

    def test_invalid_config(self):
        for field in ("noise_sigma", "bias_amplitude", "ref_noise_scale"):
            for value in (-1, math.nan, math.inf):
                with pytest.raises(ValidationError, match=f"{field} must be >= 0"):
                    OracleConfig(seed=0, **{field: value})


class TestOracleMemo:
    """The oracle remembers the current query's judgments without changing any."""

    QRELS = Qrels({"q1": {"a": 3, "b": 1, "c": 2}, "q2": {"a": 0, "b": 2, "c": 3}})
    CONFIG = OracleConfig(seed=5, noise_sigma=0.7, bias_amplitude=0.3, ref_noise_scale=0.5)

    @classmethod
    def requests(cls):
        # the same doc ids under two queries, every kind and both orientations
        out = []
        for query in (Query("q1", "first"), Query("q2", "second")):
            a, b, c = doc("a"), doc("b"), doc("c")
            out += [
                JudgeRequest("pointwise", query, (a,)),
                JudgeRequest("triplet", query, (a, b)),
                JudgeRequest("triplet", query, (b, a)),
                JudgeRequest("duel", query, (a, b)),
                JudgeRequest("setwise", query, (a, b, c)),
            ]
        return out

    @pytest.mark.parametrize("size", [1, 4], ids=["score", "batches-mixing-queries"])
    def test_interleaved_queries_across_threads_match_a_fresh_scorer(self, size):
        requests = self.requests()
        expected = [OracleScorer(self.CONFIG, qrels=self.QRELS).score(r) for r in requests]
        # the two queries' answers differ, so a judgment read under the wrong query shows
        assert expected[: len(expected) // 2] != expected[len(expected) // 2 :]
        shared = OracleScorer(self.CONFIG, qrels=self.QRELS)
        mismatches = []

        def worker(offset):
            for step in range(400):
                # alternate queries from one call to the next, out of step across
                # threads; a batch of 4 from 10 requests holds both queries in most steps
                index = (offset + step * 3) % len(requests)
                window = [(index + i) % len(requests) for i in range(size)]
                if size == 1:
                    answers = [shared.score(requests[index])]
                else:
                    answers = shared.score_batch([requests[i] for i in window])
                if answers != [expected[i] for i in window]:
                    mismatches.append(index)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []
        assert shared.ledger.total_calls == 8 * 400 * size

    def test_mutating_an_answer_leaves_the_next_one_unchanged(self):
        request = JudgeRequest("triplet", QUERY, (doc("a"), doc("b")))
        oracle = make_oracle(latents={("q1", "a"): 0.9, ("q1", "b"): 0.2}, noise_sigma=0.8)
        first = oracle.score(request)
        expected = dict(first)
        first["A"] = 99.0
        del first["B"]
        assert oracle.score(request) == expected

    def test_repeated_requests_are_each_counted_in_full(self):
        request = JudgeRequest("duel", QUERY, (doc("a", text="one"), doc("b", text="three")))
        oracle = make_oracle(latents={("q1", "a"): 0.9, ("q1", "b"): 0.2})
        for _ in range(3):
            oracle.score(request)
        assert oracle.ledger.counts == {"pointwise": 0, "triplet": 0, "duel": 3, "setwise": 0}
        assert oracle.ledger.prompt_chars == 3 * len("what is x" "one" "three")


class TestSeededDraws:
    """The seeded draws under every oracle judgment, pinned on fixed inputs."""

    @pytest.mark.parametrize("parts, digest, digest8, uniform, normal", [
        (("7", "triplet", "q1", "a", "b"), "9de6d498ccdcceaf39ee7b010ddae817",
         "f99360862f8eeb0e", 0.9749050452806461, 0.14587820332502105),
        (("0", "latent", "q0001", "q0001_d001"), "a963134c8b85b508cfc8b660d2245e2e",
         "c2da3ac66333c7cd", 0.7611424192757134, 0.3433408684837268),
        (("3", "bias", "ü", "文档"), "353f7b0924534dc4581fdc45672fc2e0",
         "85aea84e997671b8", 0.5221963111775609, -0.9890374598482836),
        ((), "cae66941d9efbd404e4d88758ea67670",
         "e4a6a0577479b2b4", 0.8931675160897388, -0.23447628454038916),
    ])
    def test_pinned_values(self, parts, digest, digest8, uniform, normal):
        assert stable_digest(*parts).hex() == digest
        assert stable_digest(*parts, size=8).hex() == digest8
        assert unit_uniform(*parts) == uniform
        assert std_normal(*parts) == normal

    def test_parts_hash_as_utf8_each_followed_by_0x1f(self):
        parts = ("3", "bias", "ü", "文档")
        data = b"".join(part.encode("utf-8") + b"\x1f" for part in parts)
        assert stable_digest(*parts) == hashlib.blake2b(data, digest_size=16).digest()

    def test_pinned_normals(self):
        # 1,000 part tuples over kinds, query ids, doc ids, non-ASCII parts
        # and prefix splits 0..3; the digest of both draws' IEEE-754 bytes
        kinds = ("latent", "pointwise", "triplet", "duel", "setwise")
        digest = hashlib.blake2b(digest_size=16)
        for i in range(1000):
            parts = (str(i % 7), kinds[i % 5], f"q{i % 13:04d}", f"d{i}", "ü文档"[: i % 4])
            split = i % 4
            for value in (
                std_normal(*parts), normal_from(prefix(*parts[:split]), encode(*parts[split:]))
            ):
                digest.update(struct.pack(">d", value))
        assert digest.hexdigest() == "d4d8982b1673ddf3e932b007e176bcb0"

    @pytest.mark.parametrize("split", range(6))
    def test_prefixed_normal_equals_std_normal(self, split):
        parts = ("7", "setwise", "q1", "group", "文档")
        state = prefix(*parts[:split])
        assert normal_from(state, encode(*parts[split:])) == std_normal(*parts)
        # the prefix is copied, not consumed
        assert normal_from(state, encode(*parts[split:])) == std_normal(*parts)


class TestOracleDraws:
    """Each oracle draw equals std_normal(seed, kind, query id, *parts)."""

    QUERY = Query("q-ü", "text")
    IDS = ("a", "é", "文档", "b🙂")
    LATENTS = {("q-ü", "a"): 0.9, ("q-ü", "é"): 0.4, ("q-ü", "文档"): 0.65, ("q-ü", "b🙂"): 0.1}

    def oracle(self, **kwargs):
        return OracleScorer(OracleConfig(seed=7, **kwargs), latents=self.LATENTS)

    def g(self, doc_id):
        return self.LATENTS[(self.QUERY.id, doc_id)]

    def draw(self, kind, *parts):
        return std_normal("7", kind, self.QUERY.id, *parts)

    def test_pointwise_and_bias(self):
        oracle = self.oracle(noise_sigma=0.5, bias_amplitude=0.3)
        for doc_id in self.IDS:
            logits = oracle.score(JudgeRequest("pointwise", self.QUERY, (doc(doc_id),)))
            diff = 2.0 * self.g(doc_id) - 1.0
            diff += 0.3 * self.draw("bias", doc_id)
            diff += 0.5 * self.draw("pointwise", doc_id)
            assert logits == {"yes": 0.5 * diff, "no": -0.5 * diff}

    @pytest.mark.parametrize("kind", ["triplet", "duel"])
    def test_pairs_in_both_orientations(self, kind):
        oracle = self.oracle(noise_sigma=0.5, ref_noise_scale=0.8)
        for id_a, id_b in itertools.permutations(self.IDS, 2):
            logits = oracle.score(JudgeRequest(kind, self.QUERY, (doc(id_a), doc(id_b))))
            g_a, g_b = self.g(id_a), self.g(id_b)
            sigma = 0.5 + 0.8 * (1.0 - g_b) if kind == "triplet" else 0.5
            lo, hi = sorted((id_a, id_b))
            eps = sigma * self.draw(kind, lo, hi) if id_a == lo else -sigma * self.draw(kind, lo, hi)
            assert logits == {"A": g_a + 0.5 * eps, "B": g_b - 0.5 * eps}

    def test_setwise_draws_are_keyed_by_the_group(self):
        oracle = self.oracle(noise_sigma=0.5)
        docs = tuple(doc(doc_id) for doc_id in reversed(self.IDS))
        logits = oracle.score(JudgeRequest("setwise", self.QUERY, docs))
        group_key = stable_digest(*sorted(self.IDS)).hex()
        assert logits == {
            label: self.g(d.doc_id) + 0.5 * self.draw("setwise", group_key, d.doc_id)
            for label, d in zip("ABCD", docs)
        }

    def test_pinned_judgments(self):
        # one judgment of each kind under noise, bias and reference noise,
        # each value pinned bit for bit
        oracle = self.oracle(noise_sigma=0.5, bias_amplitude=0.3, ref_noise_scale=0.8)
        requests = {"pointwise": ("é",), "triplet": ("文档", "a"), "duel": ("b🙂", "a"),
                    "setwise": self.IDS}
        assert {
            kind: oracle.score(JudgeRequest(kind, self.QUERY, tuple(map(doc, ids))))
            for kind, ids in requests.items()
        } == {
            "pointwise": {"yes": 0.19476061362422165, "no": -0.19476061362422165},
            "triplet": {"A": 0.7688581293554791, "B": 0.7811418706445209},
            "duel": {"A": 0.1487502906458804, "B": 0.8512497093541196},
            "setwise": {"A": 1.1066635672365297, "B": -0.18567803647380376,
                        "C": 0.276998961434369, "D": 0.03146903531868217},
        }

    def test_overlapping_setwise_groups_draw_under_their_own_keys(self):
        # the groups share two members; a group prefix carried over from the
        # first group would give the shared members the same draws twice
        oracle = self.oracle(noise_sigma=0.5)
        groups = [self.IDS[:3], self.IDS[1:], self.IDS[:3], ("b🙂", "é")]
        for ids in groups:
            logits = oracle.score(JudgeRequest("setwise", self.QUERY, tuple(map(doc, ids))))
            group_key = stable_digest(*sorted(ids)).hex()
            assert logits == {
                label: self.g(doc_id) + 0.5 * self.draw("setwise", group_key, doc_id)
                for label, doc_id in zip("ABCD", ids)
            }


class TestOracleLatentTable:
    def test_a_missing_latent_fails_every_call(self):
        oracle = make_oracle(latents={("q1", "a"): 0.5})
        missing = [
            JudgeRequest("pointwise", QUERY, (doc("unknown"),)),
            JudgeRequest("triplet", QUERY, (doc("a"), doc("unknown"))),
            JudgeRequest("pointwise", QUERY, (doc("unknown"),)),
        ]
        for request in missing:
            with pytest.raises(ValidationError, match="unknown"):
                oracle.score(request)
        assert oracle.score(JudgeRequest("pointwise", QUERY, (doc("a"),))) == {"yes": 0.0, "no": -0.0}
        assert oracle.ledger.total_calls == 1

    def test_seeded_latents_without_qrels_or_latents(self):
        oracle = make_oracle()
        ids = ("a", "é", "文档")
        for doc_id in ids:
            oracle.score(JudgeRequest("pointwise", QUERY, (doc(doc_id),)))
        assert oracle._state.latent == {
            doc_id: unit_uniform("7", "latent", "q1", doc_id) for doc_id in ids
        }


class TestScoreBatch:
    def test_alignment_and_count(self):
        latents = {("q1", f"d{i}"): i / 10 for i in range(10)}
        oracle = make_oracle(latents=latents)
        requests = [
            JudgeRequest("pointwise", QUERY, (doc(f"d{i}"),)) for i in range(10)
        ]
        results = oracle.score_batch(requests)
        assert len(results) == 10
        assert oracle.ledger.counts["pointwise"] == 10
        singles = [make_oracle(latents=latents).score(r) for r in requests]
        assert results == singles

    def test_a_scorer_without_a_judge_raises(self):
        with pytest.raises(NotImplementedError):
            Scorer().score(PROBE_POINTWISE)

    def test_empty_batch(self):
        oracle = make_oracle(latents={})
        assert oracle.score_batch([]) == []
        assert oracle.ledger.total_calls == 0

    def test_concatenation_statelessness(self):
        latents = {("q1", f"d{i}"): i / 8 for i in range(8)}
        requests = [
            JudgeRequest("pointwise", QUERY, (doc(f"d{i}"),)) for i in range(8)
        ]
        whole = make_oracle(latents=latents).score_batch(requests)
        oracle = make_oracle(latents=latents)
        split = oracle.score_batch(requests[:3]) + oracle.score_batch(requests[3:])
        assert whole == split

    def test_partial_failure_carries_results_and_errors(self):
        latents = {("q1", "good"): 0.5}
        oracle = make_oracle(latents=latents)
        requests = [
            JudgeRequest("pointwise", QUERY, (doc("good"),)),
            JudgeRequest("pointwise", QUERY, (doc("missing"),)),
        ]
        with pytest.raises(BatchScoringError) as exc:
            oracle.score_batch(requests)
        assert exc.value.results[0] is not None
        assert exc.value.results[1] is None
        assert list(exc.value.errors) == [1]

    def test_a_judge_that_supplies_only_judge_gets_the_batch_error(self):
        class EvenOnly(Scorer):
            def _judge(self, requests):
                results = [{"A": 0.0, "B": -1.0} if i % 2 == 0 else None for i in range(len(requests))]
                return results, {i: ScoringError(f"down {i}") for i in range(1, len(requests), 2)}

        requests = [JudgeRequest("duel", QUERY, (doc(f"a{i}"), doc(f"b{i}"))) for i in range(4)]
        with pytest.raises(BatchScoringError) as exc:
            EvenOnly().score_batch(requests)
        assert str(exc.value) == "scoring failed for: a1|b1, a3|b3 (ScoringError: down 1)"
        assert exc.value.results == [{"A": 0.0, "B": -1.0}, None, {"A": 0.0, "B": -1.0}, None]
        assert list(exc.value.errors) == [1, 3]
        assert EvenOnly().score_batch(requests[:1]) == [{"A": 0.0, "B": -1.0}]

    def test_the_endpoint_judge_binds_the_one_batch_body(self):
        # An alias, not an override: perfbench/spans.py wraps Scorer.score_batch
        # and LlmScorer.score_batch each, and an override calling the wrapped
        # base, or no binding at all, would trace every endpoint batch twice.
        assert LlmScorer.__dict__["score_batch"] is Scorer.__dict__["score_batch"]


class TestOracleBatch:
    """The oracle's one-pass ``_judge``: checks, memo, copies and the per-batch ledger update."""

    LATENTS = {("q1", "a"): 0.9, ("q1", "b"): 0.4, ("q1", "c"): 0.1, ("q1", "d"): 0.6}

    @classmethod
    def requests(cls):
        # every kind, both orientations, and each request twice: the second a memo hit
        a, b, c, d = doc("a", "one"), doc("b", "three"), doc("c", "five"), doc("d", "seven")
        once = [
            JudgeRequest("pointwise", QUERY, (a,)),
            JudgeRequest("triplet", QUERY, (a, b)),
            JudgeRequest("triplet", QUERY, (b, a)),
            JudgeRequest("duel", QUERY, (c, d)),
            JudgeRequest("setwise", QUERY, (a, b, c, d)),
            JudgeRequest("setwise", QUERY, (d, c)),
        ]
        return once + once

    def test_a_batch_answers_as_one_request_at_a_time_does(self):
        requests = self.requests()
        make = functools.partial(make_oracle, latents=self.LATENTS, noise_sigma=0.8,
                                 bias_amplitude=0.3, ref_noise_scale=0.5)
        oracle, single = make(), make()
        results = oracle.score_batch(requests)
        assert results == [single.score(request) for request in requests]
        # each answer is a dict of its own, memo hits included
        remembered = list(oracle._state.memo.values())
        assert len({id(logits) for logits in results + remembered}) == len(results) + len(remembered)
        assert oracle.ledger.counts == single.ledger.counts == {
            "pointwise": 2, "triplet": 4, "duel": 2, "setwise": 4,
        }
        assert oracle.ledger.prompt_chars == single.ledger.prompt_chars

    def test_a_missing_latent_fails_its_requests_and_the_ledger_counts_the_rest(self):
        requests = [
            JudgeRequest("pointwise", QUERY, (doc("a", "one"),)),
            JudgeRequest("triplet", QUERY, (doc("a", "one"), doc("unknown", "three"))),
            JudgeRequest("duel", QUERY, (doc("b", "five"), doc("a", "one"))),
            JudgeRequest("pointwise", QUERY, (doc("unknown", "seven"),)),
        ]
        oracle = make_oracle(latents=self.LATENTS)
        with pytest.raises(BatchScoringError) as exc:
            oracle.score_batch(requests)
        assert [result is not None for result in exc.value.results] == [True, False, True, False]
        assert list(exc.value.errors) == [1, 3]
        assert all(isinstance(error, ValidationError) for error in exc.value.errors.values())
        assert oracle.ledger.counts == {"pointwise": 1, "triplet": 0, "duel": 1, "setwise": 0}
        assert oracle.ledger.prompt_chars == len("what is x" "one") + len("what is x" "five" "one")

    @pytest.mark.parametrize("kind", ["pointwise", "triplet"])
    def test_a_nan_latent_is_degenerate_on_every_call_and_never_counted(self, kind):
        oracle = make_oracle(latents={("q1", "a"): 0.5, ("q1", "nan"): math.nan})
        request = JudgeRequest(kind, QUERY, (doc("nan"),) if kind == "pointwise" else (doc("a"), doc("nan")))
        for _ in range(2):
            with pytest.raises(DegenerateResponseError):
                oracle.score(request)
        for _ in range(2):
            with pytest.raises(BatchScoringError) as exc:
                oracle.score_batch([request, request])
            assert exc.value.results == [None, None]
            assert all(isinstance(e, DegenerateResponseError) for e in exc.value.errors.values())
        assert oracle._state.memo == {}
        assert oracle.ledger.total_calls == 0 and oracle.ledger.prompt_chars == 0

    def test_an_interrupt_mid_batch_still_counts_the_answers_before_it(self, monkeypatch):
        judges = OracleScorer._JUDGES

        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(OracleScorer, "_JUDGES", {**judges, "duel": interrupted})
        requests = [
            JudgeRequest("pointwise", QUERY, (doc("a", "one"),)),
            JudgeRequest("triplet", QUERY, (doc("a", "one"), doc("b", "three"))),
            JudgeRequest("duel", QUERY, (doc("a", "one"), doc("b", "three"))),
            JudgeRequest("pointwise", QUERY, (doc("b", "three"),)),
        ]
        oracle = make_oracle(latents=self.LATENTS)
        with pytest.raises(KeyboardInterrupt):
            oracle.score_batch(requests)
        assert oracle.ledger.counts == {"pointwise": 1, "triplet": 1, "duel": 0, "setwise": 0}
        assert oracle.ledger.prompt_chars == len("what is x" "one") + len("what is x" "one" "three")


# kind -> (document texts in slot order, the exact prompt they render)
SUBSTITUTIONS = {
    "pointwise": (("p",), "Q: what is x D: p"),
    "triplet": (("p", "r"), "Q: what is x A: p B: r"),
    "duel": (("i", "j"), "Q: what is x A: i B: j"),
    "setwise": (
        ("ta", "tb", "tc"),
        "Q: what is x\nPassage A: ta\n\nPassage B: tb\n\nPassage C: tc",
    ),
}


class TestPrompts:
    @pytest.mark.parametrize("kind", list(SUBSTITUTIONS))
    def test_substitution(self, kind):
        templates = PromptTemplates(
            pointwise="Q: {query} D: {doc}",
            triplet="Q: {query} A: {doc} B: {ref}",
            duel="Q: {query} A: {doc_i} B: {doc_j}",
            setwise="Q: {query}\n{docs}",
        )
        texts, expected = SUBSTITUTIONS[kind]
        docs = tuple(doc(f"d{i}", text=text) for i, text in enumerate(texts))
        assert build_prompt(JudgeRequest(kind, QUERY, docs), templates) == expected

    def test_missing_required_placeholder(self):
        with pytest.raises(TemplateError) as exc:
            PromptTemplates(
                pointwise="Q: {query} D: {doc}",
                triplet="Q: {query} A: {doc}",  # no {ref}
                duel="Q: {query} A: {doc_i} B: {doc_j}",
                setwise="Q: {query}\n{docs}",
            )
        assert exc.value.placeholder == "{ref}"

    def test_unknown_placeholder(self):
        with pytest.raises(TemplateError) as exc:
            PromptTemplates(
                pointwise="Q: {query} D: {doc} X: {mystery}",
                triplet=PromptTemplates.defaults().triplet,
                duel=PromptTemplates.defaults().duel,
                setwise=PromptTemplates.defaults().setwise,
            )
        assert exc.value.placeholder == "{mystery}"

    def test_lone_brace_is_a_malformed_template(self):
        with pytest.raises(TemplateError, match="malformed template"):
            PromptTemplates(
                pointwise="Q: {query} D: {doc} {",
                triplet=PromptTemplates.defaults().triplet,
                duel=PromptTemplates.defaults().duel,
                setwise=PromptTemplates.defaults().setwise,
            )

    @pytest.mark.parametrize(
        "triplet, placeholder, detail",
        [
            ("{query} {doc} {{ref}}", "{ref}", "missing from the triplet template"),
            ("{query} {doc!r} {ref}", "{doc!r}", "takes no conversion or format spec"),
            ("{query} {doc:>9} {ref}", "{doc:>9}", "takes no conversion or format spec"),
            ("{query} {doc!s:^5} {ref}", "{doc!s:^5}", "takes no conversion or format spec"),
            ("{query} {ref.x} {doc}", "{ref.x}", "not a known placeholder"),
            ("{query} {} {doc} {ref}", "{}", "not a known placeholder"),
            ("{query} {zeta} {alpha} {doc}", "{zeta}", "not a known placeholder"),
            ("{nope} {query} {doc} {", "{nope}", "not a known placeholder"),
            ("{query} } {nope}", "triplet",
             "malformed template: Single '}' encountered in format string"),
        ],
        ids=["escaped", "conversion", "format-spec", "both", "attribute", "positional",
             "first-unknown", "unknown-before-brace", "brace-before-unknown"],
    )
    def test_the_first_fault_in_template_order_is_refused_at_load(
        self, triplet, placeholder, detail
    ):
        with pytest.raises(TemplateError) as exc:
            PromptTemplates(**{**DEFAULT_TEMPLATES, "triplet": triplet})
        assert exc.value.placeholder == placeholder
        assert str(exc.value) == f"template problem with placeholder {placeholder}: {detail}"

    def test_truncation_marker(self):
        long_doc = doc("d", text="x" * 10_000)
        prompt = build_prompt(
            JudgeRequest("pointwise", QUERY, (long_doc,)),
            PromptTemplates.defaults(),
            max_doc_chars=4000,
        )
        assert "x" * 4000 + " [...]" in prompt
        assert "x" * 4001 not in prompt

    def test_setwise_blocks_use_labels(self):
        docs = (doc("a", text="ta"), doc("b", text="tb"))
        request = JudgeRequest("setwise", QUERY, docs)
        prompt = build_prompt(request, PromptTemplates.defaults())
        assert "Passage A: ta" in prompt and "Passage B: tb" in prompt

    def test_defaults_pass_placeholder_check(self):
        PromptTemplates.defaults()

    def test_from_dir_overrides_and_falls_back(self, tmp_path):
        (tmp_path / "triplet.txt").write_text("custom {query} {doc} {ref}")
        templates = PromptTemplates.from_dir(tmp_path)
        assert templates.triplet.startswith("custom")
        assert templates.pointwise == PromptTemplates.defaults().pointwise

    def test_from_dir_rejects_missing_placeholder_at_load(self, tmp_path):
        (tmp_path / "triplet.txt").write_text("custom {query} {doc}")
        with pytest.raises(TemplateError) as exc:
            PromptTemplates.from_dir(tmp_path)
        assert exc.value.placeholder == "{ref}"

    def test_from_dir_names_a_file_that_is_not_utf8(self, tmp_path):
        (tmp_path / "triplet.txt").write_bytes(b"caf\xe9 {query} {doc} {ref}")
        with pytest.raises(HarnessError) as exc:
            PromptTemplates.from_dir(tmp_path)
        assert str(exc.value) == (
            f"{tmp_path / 'triplet.txt'}: not valid UTF-8 (byte 0xe9 at offset 3)"
        )

    @pytest.mark.parametrize(
        "names, named",
        [(["triplets.txt"], "triplets.txt"), (["triplet.txt", "Duel.txt"], "Duel.txt"),
         ([], ""), (["triplet.md"], "")],
        ids=["misnamed", "one-misnamed", "empty", "no-txt"],
    )
    def test_from_dir_refuses_a_directory_that_would_change_nothing(
        self, tmp_path, names, named
    ):
        for name in names:
            (tmp_path / name).write_text("custom {query} {doc} {ref}")
        with pytest.raises(HarnessError) as exc:
            PromptTemplates.from_dir(tmp_path)
        message = str(exc.value)
        assert message.startswith(f"{tmp_path / named}: ")
        assert message.endswith(
            "; expected one of pointwise.txt, triplet.txt, duel.txt, setwise.txt"
        )


class StubHandler(BaseHTTPRequestHandler):
    """Programmable chat-completions stub.

    A behavior answers (status, body) or (status, body, headers), or None to
    close the connection without answering.
    """

    behaviors: list = []  # list of callables(request_index) -> answer
    calls: list = []
    peers: list = []  # the client address of each request
    authorizations: list = []  # the Authorization header of each request, or None
    close_after_answer = False  # close a keep-alive connection unannounced, as an idle timeout does

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length) or b"{}")
        index = len(StubHandler.calls)
        StubHandler.calls.append(body)
        StubHandler.peers.append(self.client_address)
        StubHandler.authorizations.append(self.headers.get("Authorization"))
        behavior = StubHandler.behaviors[min(index, len(StubHandler.behaviors) - 1)]
        answer = behavior(index)
        if answer is None:
            self.close_connection = True
            return
        status, payload, *headers = answer
        data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in (headers[0] if headers else {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)
        if self.close_after_answer:
            self.close_connection = True

    def log_message(self, *args):  # silence
        pass


def completion_payload(top):
    return {
        "choices": [
            {"logprobs": {"content": [{"top_logprobs": top}]}}
        ]
    }


@pytest.fixture
def stub_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), StubHandler)
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    StubHandler.behaviors = [lambda i: (200, completion_payload([]))]
    StubHandler.calls = []
    StubHandler.peers = []
    StubHandler.authorizations = []
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()


def llm_scorer(base_url, **kwargs):
    config = LlmBackendConfig(
        base_url=base_url,
        model="test-model",
        retry_backoff=0.01,
        **kwargs,
    )
    return LlmScorer(config)


class TestLlmScorer:
    def test_extracts_label_logits(self, stub_server):
        top = [
            {"token": "A", "logprob": -0.2},
            {"token": "B", "logprob": -1.7},
            {"token": "other", "logprob": -5.0},
        ]
        StubHandler.behaviors = [lambda i: (200, completion_payload(top))]
        scorer = llm_scorer(stub_server)
        logits = scorer.score(PROBE_TRIPLET)
        assert logits["A"] == pytest.approx(-0.2)
        assert logits["B"] == pytest.approx(-1.7)
        assert scorer.ledger.counts["triplet"] == 1

    def test_leading_space_variant_takes_max(self, stub_server):
        top = [
            {"token": " A", "logprob": -0.1},
            {"token": "A", "logprob": -3.0},
            {"token": "B", "logprob": -2.0},
        ]
        StubHandler.behaviors = [lambda i: (200, completion_payload(top))]
        logits = llm_scorer(stub_server).score(PROBE_TRIPLET)
        assert logits["A"] == pytest.approx(-0.1)

    def test_missing_label_gets_floor(self, stub_server):
        top = [
            {"token": "A", "logprob": -0.5},
            {"token": "noise", "logprob": -4.0},
        ]
        StubHandler.behaviors = [lambda i: (200, completion_payload(top))]
        logits = llm_scorer(stub_server).score(PROBE_TRIPLET)
        assert logits["B"] == pytest.approx(-5.0)  # min(-0.5, -4.0) - 1

    def test_no_label_at_all_is_degenerate(self, stub_server):
        top = [{"token": "zzz", "logprob": -1.0}]
        StubHandler.behaviors = [lambda i: (200, completion_payload(top))]
        with pytest.raises(DegenerateResponseError):
            llm_scorer(stub_server).score(PROBE_TRIPLET)
        # degenerate responses are not retried
        assert len(StubHandler.calls) == 1

    def test_infinite_label_logprob_is_degenerate(self, stub_server):
        top = [{"token": "A", "logprob": float("-inf")}, {"token": "B", "logprob": -0.5}]
        StubHandler.behaviors = [lambda i: (200, completion_payload(top))]
        scorer = llm_scorer(stub_server)
        with pytest.raises(DegenerateResponseError):
            scorer.score(PROBE_TRIPLET)
        assert len(StubHandler.calls) == 1
        assert scorer.ledger.total_calls == 0

    @pytest.mark.parametrize(
        "top",
        [
            [("A", -0.5), ("zzz", -math.inf)],
            [("zzz", math.nan), ("A", -0.5)],
            [("A", -0.5), ("zzz", math.nan)],
        ],
    )
    def test_floor_ignores_nonfinite_logprobs(self, stub_server, top):
        payload = completion_payload([{"token": t, "logprob": v} for t, v in top])
        StubHandler.behaviors = [lambda i: (200, payload)]
        assert llm_scorer(stub_server).score(PROBE_TRIPLET) == {"A": -0.5, "B": -1.5}

    @pytest.mark.parametrize(
        "top",
        [
            [("A", math.nan), (" A", -0.3), ("B", -1.0)],
            [(" A", -0.3), ("A", math.nan), ("B", -1.0)],
            [("A", math.nan), ("A", -0.3), ("B", -1.0)],
            [("A", -math.inf), ("A", -0.3), ("B", -1.0)],
            [("A", -0.3), ("A", -math.inf), ("B", -1.0)],
        ],
        ids=["nan-then-space", "space-then-nan", "repeated-token", "repeated-inf-then-finite",
             "repeated-finite-then-inf"],
    )
    def test_label_takes_max_finite_logprob(self, stub_server, top):
        payload = completion_payload([{"token": t, "logprob": v} for t, v in top])
        StubHandler.behaviors = [lambda i: (200, payload)]
        assert llm_scorer(stub_server).score(PROBE_TRIPLET) == {"A": -0.3, "B": -1.0}

    @pytest.mark.parametrize("token", [5, None, ["A"], {"t": 1}], ids=["int", "null", "list", "dict"])
    def test_a_token_that_is_no_string_is_ignored(self, stub_server, token):
        # its log-probability still counts towards the floor
        payload = completion_payload([{"token": "A", "logprob": -0.5}, {"token": token, "logprob": -1.0}])
        StubHandler.behaviors = [lambda i: (200, payload)]
        assert llm_scorer(stub_server).score(PROBE_TRIPLET) == {"A": -0.5, "B": -2.0}

    @pytest.mark.parametrize(
        "top, message",
        [
            ([("A", math.nan), ("B", -1.0)], "backend produced no finite logit for label 'A'"),
            ([("B", math.nan), ("A", -math.inf), ("zzz", -1.0)],
             "backend produced no finite logit for label 'A'"),
            ([("A", math.nan), ("B", -math.inf)], "no finite log-probability in top_logprobs"),
            ([("zzz", -math.inf), ("A", math.nan)], "no finite log-probability in top_logprobs"),
        ],
        ids=["nan-label", "labels-in-label-order", "none-finite-over-nan-label",
             "none-finite-over-label-last"],
    )
    def test_each_nonfinite_fault_names_itself(self, stub_server, top, message):
        payload = completion_payload([{"token": t, "logprob": v} for t, v in top])
        StubHandler.behaviors = [lambda i: (200, payload)]
        with pytest.raises(DegenerateResponseError) as exc:
            llm_scorer(stub_server).score(PROBE_TRIPLET)
        assert str(exc.value) == message

    def test_label_without_finite_logprob_is_degenerate(self, stub_server):
        top = [{"token": "A", "logprob": math.nan}, {"token": "B", "logprob": -1.0}]
        StubHandler.behaviors = [lambda i: (200, completion_payload(top))]
        scorer = llm_scorer(stub_server)
        with pytest.raises(DegenerateResponseError):
            scorer.score(PROBE_TRIPLET)
        assert scorer.ledger.total_calls == 0

    def test_no_finite_logprob_is_degenerate(self, stub_server):
        top = [{"token": "A", "logprob": float("-inf")}]
        StubHandler.behaviors = [lambda i: (200, completion_payload(top))]
        with pytest.raises(DegenerateResponseError):
            llm_scorer(stub_server).score(PROBE_TRIPLET)
        assert len(StubHandler.calls) == 1

    def test_missing_logprobs_structure_is_degenerate(self, stub_server):
        StubHandler.behaviors = [lambda i: (200, {"choices": [{}]})]
        with pytest.raises(DegenerateResponseError):
            llm_scorer(stub_server).score(PROBE_POINTWISE)

    @pytest.mark.parametrize(
        "top, message",
        [
            ([], "empty top_logprobs list"),
            ([{"token": "yes"}], "malformed top_logprobs entry"),
            ([{"logprob": -0.1}], "malformed top_logprobs entry"),
            ([{"token": "yes", "logprob": "high"}], "malformed top_logprobs entry"),
            (["yes"], "malformed top_logprobs entry"),
            (5, "malformed top_logprobs entry"),
            (True, "malformed top_logprobs entry"),
            (2.5, "malformed top_logprobs entry"),
            ({"token": "yes", "logprob": -0.1}, "malformed top_logprobs entry"),
            ([{"token": "yes", "logprob": 10**400}], "malformed top_logprobs entry"),
        ],
    )
    def test_empty_or_malformed_top_logprobs_is_degenerate(self, stub_server, top, message):
        StubHandler.behaviors = [lambda i: (200, completion_payload(top))]
        with pytest.raises(DegenerateResponseError, match=message):
            llm_scorer(stub_server).score(PROBE_POINTWISE)
        assert len(StubHandler.calls) == 1

    def test_a_top_logprobs_of_no_list_fails_only_its_request_in_a_batch(self, stub_server):
        top = [{"token": "yes", "logprob": -0.1}, {"token": "no", "logprob": -2.0}]
        StubHandler.behaviors = [lambda i: (200, completion_payload(5 if i == 1 else top))]
        requests = [JudgeRequest("pointwise", QUERY, (doc(f"d{i}"),)) for i in range(3)]
        with llm_scorer(stub_server, batch_size=1) as scorer:
            with pytest.raises(BatchScoringError) as exc:
                scorer.score_batch(requests)
        assert list(exc.value.errors) == [1]
        assert isinstance(exc.value.errors[1], DegenerateResponseError)
        assert str(exc.value.errors[1]) == "malformed top_logprobs entry"
        assert exc.value.results[0] is not None and exc.value.results[2] is not None
        assert len(StubHandler.calls) == 3

    def test_json_nested_too_deep_to_parse_is_degenerate(self, stub_server):
        StubHandler.behaviors = [lambda i: (200, b"[" * 100_000 + b"]" * 100_000)]
        with pytest.raises(DegenerateResponseError, match="response body is not JSON"):
            llm_scorer(stub_server).score(PROBE_POINTWISE)
        assert len(StubHandler.calls) == 1

    def test_retry_then_success(self, stub_server):
        top = [{"token": "yes", "logprob": -0.3}, {"token": "no", "logprob": -1.3}]
        StubHandler.behaviors = [
            lambda i: (500, {"error": "boom"}),
            lambda i: (429, {"error": "slow down"}),
            lambda i: (200, completion_payload(top)),
        ]
        scorer = llm_scorer(stub_server)
        logits = scorer.score(PROBE_POINTWISE)
        assert logits["yes"] == pytest.approx(-0.3)
        assert len(StubHandler.calls) == 3
        assert scorer.ledger.retries == {"pointwise": 2}
        assert scorer.ledger.total_calls == 1

    def test_transient_after_retries_exhausted(self, stub_server):
        StubHandler.behaviors = [lambda i: (503, {"error": "down"})]
        scorer = llm_scorer(stub_server)
        with pytest.raises(TransientBackendError):
            scorer.score(PROBE_POINTWISE)
        assert len(StubHandler.calls) == 4  # initial + 3 retries

    def test_non_retryable_http_error(self, stub_server):
        StubHandler.behaviors = [lambda i: (400, {"error": "bad request"})]
        with pytest.raises(ScoringError):
            llm_scorer(stub_server).score(PROBE_POINTWISE)
        assert len(StubHandler.calls) == 1

    def test_request_payload_shape(self, stub_server):
        top = [{"token": "yes", "logprob": -0.1}, {"token": "no", "logprob": -2.0}]
        StubHandler.behaviors = [lambda i: (200, completion_payload(top))]
        llm_scorer(stub_server).score(PROBE_POINTWISE)
        sent = StubHandler.calls[0]
        assert sent["temperature"] == 0
        assert sent["max_tokens"] == 1
        assert sent["logprobs"] is True
        assert sent["top_logprobs"] == 20
        assert sent["model"] == "test-model"

    def test_batch_partial_failure(self, stub_server):
        top = [{"token": "yes", "logprob": -0.1}, {"token": "no", "logprob": -2.0}]

        def behave(i):
            if i == 1:
                return 200, {"choices": [{}]}
            return 200, completion_payload(top)

        StubHandler.behaviors = [behave]
        scorer = llm_scorer(stub_server, batch_size=1)
        requests = [
            JudgeRequest("pointwise", QUERY, (doc(f"d{i}"),)) for i in range(3)
        ]
        with pytest.raises(BatchScoringError) as exc:
            scorer.score_batch(requests)
        assert list(exc.value.errors) == [1]
        assert exc.value.results[0] is not None and exc.value.results[2] is not None
        assert str(exc.value) == (
            "scoring failed for: d1 "
            "(DegenerateResponseError: response carries no first-position top_logprobs)"
        )

    def test_each_request_is_built_as_it_is_sent(self, stub_server, monkeypatch):
        # when the first request reaches the stub, no more than the batch_size
        # requests that may be in flight have been built, not the whole batch
        built = []

        def counted(*args):
            built.append(args[0])
            return build_prompt(*args)

        monkeypatch.setattr(llm, "build_prompt", counted)
        top = [{"token": "yes", "logprob": -0.1}, {"token": "no", "logprob": -2.0}]
        at_first = []

        def behave(i):
            if i == 0:
                at_first.append(len(built))
            return 200, completion_payload(top)

        StubHandler.behaviors = [behave]
        requests = [JudgeRequest("pointwise", QUERY, (doc(f"d{i}"),)) for i in range(12)]
        with llm_scorer(stub_server, batch_size=2) as scorer:
            assert len(scorer.score_batch(requests)) == 12
        assert 1 <= at_first[0] <= 2
        assert built == requests

    def test_api_key_env_missing(self, stub_server, monkeypatch):
        monkeypatch.delenv("STUB_KEY", raising=False)
        with pytest.raises(ValidationError):
            llm_scorer(stub_server, api_key_env="STUB_KEY")

    def test_api_key_is_sent_as_a_bearer_token(self, stub_server, monkeypatch):
        monkeypatch.setenv("STUB_KEY", "sk-Ab_9.~!")
        StubHandler.behaviors = [lambda i: (200, YES_NO)]
        with llm_scorer(stub_server, api_key_env="STUB_KEY") as scorer:
            scorer.score(PROBE_POINTWISE)
        assert StubHandler.authorizations == ["Bearer sk-Ab_9.~!"]

    def test_config_rejects_template_missing_required_placeholder(self):
        with pytest.raises(TemplateError):
            broken = PromptTemplates(
                pointwise="no placeholders here",
                triplet=PromptTemplates.defaults().triplet,
                duel=PromptTemplates.defaults().duel,
                setwise=PromptTemplates.defaults().setwise,
            )
            LlmBackendConfig(base_url="http://x", model="m", templates=broken)

    @pytest.mark.parametrize("field, value", [
        ("base_url", ""), ("model", ""), ("batch_size", 0),
        ("retry_backoff", math.nan), ("retry_backoff", math.inf), ("retry_backoff", -0.5),
    ])
    def test_config_rejects_empty_url_or_model_and_zero_batch_size(self, field, value):
        with pytest.raises(ValidationError, match=field):
            LlmBackendConfig(**{"base_url": "http://x", "model": "m", field: value})


# Name suffixes of the threads socketserver runs the stub on (Python 3.10+).
STUB_THREADS = ("(process_request_thread)", "(serve_forever)")


class CountingStub(ThreadingHTTPServer):
    """Keep-alive stub that counts requests, faults, connections and requests in flight.

    Every answer comes latency_s after the request. It lists the labels of
    every kind, with log-probabilities drawn from the prompt's SHA-256
    digest, so a run through the stub is a function of its prompts. The
    first attempts of each prompt that faulty selects get the answers in
    faults instead, one per attempt: an HTTP status with Retry-After:
    retry_after, or None to drop the connection without an answer.
    ``arrivals`` lists the prompt of each request in the order they came,
    and ``bodies`` each request's body as sent. With close_after set,
    the stub closes each connection unannounced once it has answered that
    many requests on it, as a keep-alive timeout does, and counts these
    closes. Each request also samples the client's live threads: those
    started since the stub was made, plus the thread that made it, less
    the stub's own.
    """

    daemon_threads = True

    def __init__(self, latency_s, faults=(), faulty=lambda prompt: zlib.crc32(prompt) % 4 == 0,
                 close_after=None, retry_after="0"):
        super().__init__(("127.0.0.1", 0), CountingHandler)
        self.latency_s = latency_s
        self.faults = faults
        self.retry_after = retry_after
        self.arrivals = []
        self.bodies = []
        self.faulty = faulty
        self.close_after = close_after
        self.lock = threading.Lock()
        self.requests = self.inflight = self.inflight_max = self.closes = 0
        self.attempts = collections.Counter()  # by prompt
        self.injected = collections.Counter()  # by fault
        self.ports = set()  # the client port of every connection
        self.bystanders = set(threading.enumerate()) - {threading.current_thread()}
        self.threads_max = 0

    def client_threads(self):
        return sum(
            1 for thread in threading.enumerate()
            if thread not in self.bystanders and not thread.name.endswith(STUB_THREADS)
        )

    @property
    def url(self):
        return f"http://127.0.0.1:{self.server_port}"

    def handle_error(self, request, client_address):
        # a client that closed its scorer leaves the stub's answer nowhere to go
        if not isinstance(sys.exc_info()[1], (BrokenPipeError, ConnectionResetError)):
            super().handle_error(request, client_address)


class CountingHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True  # else delayed ACKs stall each serial call
    TOKENS = ("A", "B", "C", "D", "yes", "no")
    answered = 0  # the answers on this handler's connection

    def do_POST(self):
        server = self.server
        length = int(self.headers["Content-Length"])
        raw = self.rfile.read(length)
        if len(raw) < length:  # the client shut the connection down as it sent
            self.close_connection = True
            return
        body = json.loads(raw)
        prompt = body["messages"][0]["content"].encode()
        with server.lock:
            server.requests += 1
            server.arrivals.append(prompt)
            server.bodies.append(raw)
            server.inflight += 1
            server.inflight_max = max(server.inflight_max, server.inflight)
            server.ports.add(self.client_address[1])
            server.threads_max = max(server.threads_max, server.client_threads())
            attempt = server.attempts[prompt]
            server.attempts[prompt] += 1
            status = 200
            if attempt < len(server.faults) and server.faulty(prompt):
                status = server.faults[attempt]
                server.injected[status] += 1
        time.sleep(server.latency_s)
        with server.lock:  # before answering, so the next request cannot overlap this one
            server.inflight -= 1
        if status is None:
            self.close_connection = True
            return
        if status == 200:
            digest = hashlib.sha256(prompt).digest()
            data = json.dumps(completion_payload(
                [{"token": token, "logprob": -digest[i] / 25.6} for i, token in enumerate(self.TOKENS)]
            )).encode()
        else:
            data = b'{"error": "injected"}'
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if status != 200:
            self.send_header("Retry-After", server.retry_after)
        self.end_headers()
        self.wfile.write(data)
        self.answered += 1
        if self.answered == server.close_after:
            self.close_connection = True
            with server.lock:
                server.closes += 1

    def log_message(self, *args):  # silence
        pass


@contextlib.contextmanager
def counting_stub(latency_s, tls=None, **kwargs):
    """A CountingStub serving on a thread; over TLS, with tls an ``ssl.SSLContext``."""
    server = CountingStub(latency_s, **kwargs)
    if tls is not None:
        server.socket = tls.wrap_socket(server.socket, server_side=True)
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


class RawStub(socketserver.ThreadingTCPServer):
    """Keep-alive stub that answers each request with the bytes answer(prompt, attempt) scripts.

    The script is a list of steps (delay_s, data): data is sent delay_s after
    the step before it, and None closes the connection. attempt counts the
    prompt's earlier requests. Each connection is served on its own thread,
    so a slow answer holds up no other connection. ``arrivals`` lists each
    request's arrival time, client port and prompt.
    """

    daemon_threads = True

    def __init__(self, answer):
        super().__init__(("127.0.0.1", 0), RawHandler)
        self.answer = answer
        self.lock = threading.Lock()
        self.arrivals = []

    @property
    def url(self):
        return f"http://127.0.0.1:{self.server_address[1]}"

    def handle_error(self, request, client_address):
        # a client that gave up on an answer leaves the rest of it nowhere to go
        if not isinstance(sys.exc_info()[1], (BrokenPipeError, ConnectionResetError)):
            super().handle_error(request, client_address)


class RawHandler(socketserver.StreamRequestHandler):
    disable_nagle_algorithm = True

    def handle(self):
        server = self.server
        while True:
            line, length = self.rfile.readline(), 0
            if not line:
                return
            while line.strip():
                name, _, value = line.partition(b":")
                if name.lower() == b"content-length":
                    length = int(value)
                line = self.rfile.readline()
            prompt = json.loads(self.rfile.read(length))["messages"][0]["content"]
            with server.lock:
                attempt = sum(1 for _, _, seen in server.arrivals if seen == prompt)
                server.arrivals.append((time.monotonic(), self.client_address[1], prompt))
            for delay, data in server.answer(prompt, attempt):
                time.sleep(delay)
                if data is None:
                    return
                self.wfile.write(data)


@contextlib.contextmanager
def raw_stub(answer):
    server = RawStub(answer)
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def rerank_through(server, paths, out, strategy, *extra):
    run, corpus, queries, _ = paths
    return CliRunner().invoke(cli, [
        "rerank", "--run", str(run), "--corpus", str(corpus), "--queries", str(queries),
        "--strategy", strategy, *extra, "--backend", "endpoint", "--endpoint-url", server.url,
        "--model", "m", "--out", str(out),
    ], catch_exceptions=False)


def close_while_waiting(scorer, requests, waiting):
    """Close the scorer once waiting() holds while another thread waits in score_batch.

    Returns what that call raised and the seconds from the close to its end.
    """
    outcome = []

    def wait():
        try:
            scorer.score_batch(requests)
        except Exception as exc:
            outcome.append(exc)

    waiter = threading.Thread(target=wait)
    waiter.start()
    started = time.monotonic()
    while not waiting() and time.monotonic() < started + 10:
        time.sleep(0.01)
    assert waiting()
    scorer.close()
    closed = time.monotonic()
    waiter.join(timeout=30)
    assert not waiter.is_alive()
    (error,) = outcome
    return error, time.monotonic() - closed


# Faults each prompt's first attempts may get; each costs one retry.
FAULT_PROFILES = {"429": (429,), "500-then-503": (500, 503), "drop": (None,)}
# Flags that keep every strategy's calls few on 6-document lists.
SMALL_RUN_FLAGS = {
    "refrank-multiple": ("--m", "2"),
    "pairwise-bubblesort": ("--k", "3"),
    "setwise-heapsort": ("--k", "3"),
}
FAST_RETRIES = functools.partial(LlmBackendConfig, retry_backoff=0.001)


class FakeClock:
    """Stands in for the llm module's ``time`` and a scorer's close event, never set.

    ``wait`` records each pause and moves the clock on.
    """

    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def monotonic(self):
        return self.now

    def is_set(self):
        return False

    def wait(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds
        return False


YES_NO = completion_payload([{"token": "yes", "logprob": -0.3}, {"token": "no", "logprob": -1.3}])
YES_NO_BODY = json.dumps(YES_NO).encode()


def whole_answer(status_line=b"HTTP/1.1 200 OK", body=YES_NO_BODY):
    return b"%s\r\nContent-Length: %d\r\n\r\n%s" % (status_line, len(body), body)


@pytest.fixture(params=["poll", "selector"])
def wait_path(request, monkeypatch):
    """Each of llm._ready's waits: select.poll, and the selector where poll is missing."""
    if request.param == "selector":
        monkeypatch.setattr(llm, "select", types.SimpleNamespace())
    return request.param


class TestLlmTransport:
    @pytest.mark.parametrize(
        "retry_after, low, high",
        [
            ("0.05", 0.05, 0.05),
            ("2", 2.0, 2.0),
            ("100", 30.0, 30.0),  # capped at the 30 s timeout
            ("Wed, 21 Oct 2015 07:28:00 GMT", 0.0, 0.01),  # a date falls back to the backoff
        ],
        ids=["decimal", "integer", "capped", "http-date"],
    )
    def test_retry_after_sets_the_least_sleep(
        self, stub_server, monkeypatch, retry_after, low, high
    ):
        clock = FakeClock()
        monkeypatch.setattr(llm, "time", clock)
        sleeps = clock.sleeps
        StubHandler.behaviors = [
            lambda i: (429, {"error": "slow down"}, {"Retry-After": retry_after}),
            lambda i: (200, YES_NO),
        ]
        scorer = llm_scorer(stub_server)
        scorer._closed = clock
        assert scorer.score(PROBE_POINTWISE)["yes"] == pytest.approx(-0.3)
        assert len(sleeps) == 1 and low <= sleeps[0] <= high
        assert scorer.ledger.retries == {"pointwise": 1}

    def test_5xx_burst_then_success_with_jittered_backoff(self, stub_server, monkeypatch):
        clock = FakeClock()
        monkeypatch.setattr(llm, "time", clock)
        sleeps = clock.sleeps
        StubHandler.behaviors = [
            lambda i: (500, {"error": "boom"}),
            lambda i: (502, {"error": "bad gateway"}),
            lambda i: (503, {"error": "down"}),
            lambda i: (200, YES_NO),
        ]
        scorer = llm_scorer(stub_server)
        scorer._closed = clock
        assert scorer.score(PROBE_POINTWISE)["no"] == pytest.approx(-1.3)
        assert len(sleeps) == 3
        assert all(0.0 <= pause <= 0.01 * 2**n for n, pause in enumerate(sleeps))
        assert scorer.ledger.retries == {"pointwise": 3}
        assert scorer.ledger.total_calls == 1

    def test_non_json_200_is_degenerate_and_not_retried(self, stub_server):
        StubHandler.behaviors = [lambda i: (200, b"<html>not json</html>")]
        scorer = llm_scorer(stub_server)
        with pytest.raises(DegenerateResponseError) as exc:
            scorer.score(PROBE_POINTWISE)
        assert exc.value.payload == "<html>not json</html>"
        assert len(StubHandler.calls) == 1
        assert scorer.ledger.retries == {} and scorer.ledger.total_calls == 0

    def test_dropped_connection_reconnects_and_counts_one_retry(self, stub_server, monkeypatch):
        monkeypatch.setattr(StubHandler, "protocol_version", "HTTP/1.1")  # keep-alive
        StubHandler.behaviors = [lambda i: None, lambda i: (200, YES_NO)]
        with llm_scorer(stub_server) as scorer:
            assert scorer.score(PROBE_POINTWISE)["yes"] == pytest.approx(-0.3)
            assert scorer.ledger.counts["pointwise"] == 1
            assert scorer.ledger.retries == {"pointwise": 1}
            scorer.score(PROBE_POINTWISE)
        first, retried, reused = StubHandler.peers
        assert retried != first  # a new connection after the drop
        assert reused == retried  # which is kept alive for the next call

    def test_connection_closed_while_idle_reopens_without_a_retry(
        self, stub_server, monkeypatch, wait_path
    ):
        monkeypatch.setattr(StubHandler, "protocol_version", "HTTP/1.1")
        monkeypatch.setattr(StubHandler, "close_after_answer", True)
        StubHandler.behaviors = [lambda i: (200, YES_NO)]
        with llm_scorer(stub_server) as scorer:
            for _ in range(3):
                scorer.score(PROBE_POINTWISE)
                time.sleep(0.05)  # idle, while the server's close arrives
        assert len(StubHandler.calls) == 3
        assert len(set(StubHandler.peers)) == 3  # one connection per request
        assert scorer.ledger.retries == {}

    def test_readable_tells_an_idle_socket_from_input_and_a_closed_peer(self, wait_path):
        ours, peer = socket.socketpair()
        with ours, peer:
            assert not llm._readable(ours)
            peer.sendall(b"x")  # bytes no request asked for
            assert llm._readable(ours)
            ours.recv(1)
            assert not llm._readable(ours)
            peer.close()
            assert llm._readable(ours)

    def test_a_batch_waits_alike_in_poll_and_in_a_selector(self, monkeypatch):
        requests = [JudgeRequest("pointwise", QUERY, (doc(f"d{i}"),)) for i in range(6)]
        logits = {}
        for path in ("poll", "selector"):
            if path == "selector":
                monkeypatch.setattr(llm, "select", types.SimpleNamespace())
            with counting_stub(latency_s=0.01) as server:
                with llm_scorer(server.url, batch_size=2) as scorer:
                    logits[path] = scorer.score_batch(requests)
            assert server.requests == 6 and server.inflight_max <= 2
        assert logits["selector"] == logits["poll"]

    def test_the_next_request_goes_out_before_an_answer_is_parsed(self, monkeypatch):
        # One connection: each answer frees it, the next request is built and
        # sent on it, and only then is the answer's JSON read.
        events = []

        def built(request, *args):
            events.append(("build", request.docs[0].doc_id))
            return build_prompt(request, *args)

        def parsed(*args):
            events.append(("logits",))
            return logits(*args)

        logits = llm._logits
        monkeypatch.setattr(llm, "build_prompt", built)
        monkeypatch.setattr(llm, "_logits", parsed)
        requests = [JudgeRequest("pointwise", QUERY, (doc(f"d{i}"),)) for i in range(3)]
        with counting_stub(latency_s=0.002) as server:
            with llm_scorer(server.url, batch_size=1) as scorer:
                results = scorer.score_batch(requests)
        assert events == [
            ("build", "d0"), ("build", "d1"), ("logits",), ("build", "d2"), ("logits",), ("logits",)
        ]
        assert all(set(result) == {"yes", "no"} for result in results)
        assert server.requests == 3 and scorer.ledger.total_calls == 3

    @pytest.mark.parametrize(
        "model", ["test-model", 'say "yes"', "back\\slash", "modèle-ü-模型", '"content": ""'],
        ids=["plain", "quote", "backslash", "non-ascii", "content-key"],
    )
    def test_each_body_is_the_json_of_the_request(self, model):
        requests = [
            JudgeRequest("pointwise", Query("q", "what is ü \\ \"x\""), (doc("d0", "élan 模型"),)),
            JudgeRequest("triplet", QUERY, (doc("d1", "x" * 4001), doc("d2", "}], \"model\": 1"))),
        ]
        config = LlmBackendConfig(base_url="http://x", model=model, retry_backoff=0.01)
        expected = [
            json.dumps({
                "model": model,
                "messages": [{"role": "user", "content": build_prompt(
                    request, config.templates, 4000
                )}],
                "temperature": 0,
                "max_tokens": 1,
                "logprobs": True,
                "top_logprobs": 20,
            }).encode()
            for request in requests
        ]
        with counting_stub(latency_s=0.0) as server:
            with LlmScorer(dataclasses.replace(config, base_url=server.url)) as scorer:
                for request in requests:
                    scorer.score(request)
        assert server.bodies == expected

    def test_bubblesort_fills_each_round_trip_at_the_in_flight_limit(self):
        candidates = make_synth(1, 10, seed=29).lists[0]
        outcomes = {}
        for batch_size in (2, 4):
            with counting_stub(latency_s=0.002) as server:
                with llm_scorer(server.url, batch_size=batch_size) as scorer:
                    sizes = []
                    score_batch = scorer.score_batch

                    def counted(requests):
                        sizes.append(len(requests))
                        return score_batch(requests)

                    scorer.score_batch = counted
                    ranking = rank_pairwise_bubblesort(candidates, scorer, k=3)
            assert max(sizes) <= batch_size and server.inflight_max <= batch_size
            assert sum(sizes) == server.requests == 3 * 9 - 3
            outcomes[batch_size] = ranking.doc_ids, len(sizes)
        assert outcomes[2][0] == outcomes[4][0]
        assert (outcomes[2][1], outcomes[4][1]) == (14, 11)

    @pytest.mark.parametrize(
        "base_url",
        ["localhost:8000", "ftp://host", "http://", "http://host/v1", "http://host?x=1",
         "http://user@host", "http://host:port"],
    )
    def test_base_url_must_be_scheme_host_and_port(self, base_url):
        with pytest.raises(ValidationError, match=r"http\(s\)://host"):
            LlmScorer(LlmBackendConfig(base_url=base_url, model="m"))

    @pytest.mark.parametrize(
        "base_url", ["http://127.0.0.1:8000/", "https://example.org", "http://[::1]:80"]
    )
    def test_base_url_accepts_scheme_host_and_port(self, base_url):
        with LlmScorer(LlmBackendConfig(base_url=base_url, model="m")):
            pass

    def test_rerank_concurrency_keeps_batch_size_in_flight(self, tmp_path):
        data = make_synth(4, 8, seed=17)
        run, corpus, queries, _ = write_experiment_files(data, tmp_path / "data")
        with counting_stub(latency_s=0.02) as server:
            result = CliRunner().invoke(cli, [
                "rerank", "--run", str(run), "--corpus", str(corpus), "--queries", str(queries),
                "--depth", "8", "--strategy", "refrank-multiple", "--m", "2", "--concurrency", "4",
                "--backend", "endpoint", "--endpoint-url", server.url, "--model", "m",
                "--out", str(tmp_path / "out"),
            ], catch_exceptions=False)
        assert result.exit_code == 0, result.output
        assert 1 < server.inflight_max <= LlmBackendConfig.batch_size
        report = json.loads((tmp_path / "out" / "refrank-multiple.report.json").read_text())
        assert report["total_calls"] == server.requests == 4 * 2 * 8
        assert report["retries"] == {}

    def test_shared_scorer_counts_and_bound_under_contention(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with counting_stub(latency_s=0.005, faults=(429,)) as server:
                with llm_scorer(server.url, batch_size=3) as scorer:

                    def work(worker):
                        requests = [
                            JudgeRequest(
                                "pointwise", QUERY, (doc(f"d{i}", f"text {worker} {i}"),)
                            )
                            for i in range(12)
                        ]
                        if worker % 2:  # half the workers batch, half call serially
                            scorer.score_batch(requests)
                        else:
                            for request in requests:
                                scorer.score(request)

                    threads = [threading.Thread(target=work, args=(w,)) for w in range(8)]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=60)
                    assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert scorer.ledger.total_calls == 8 * 12
        assert server.injected[429] > 0
        assert server.requests == 8 * 12 + server.injected[429]
        assert scorer.ledger.retries == {"pointwise": server.injected[429]}
        assert server.inflight_max <= 3
        assert len(server.ports) <= 3  # the scorer's connections, whichever thread calls

    def test_a_batch_runs_on_the_calling_thread(self):
        requests = [JudgeRequest("pointwise", QUERY, (doc(f"d{i}", f"text {i}"),)) for i in range(20)]
        with counting_stub(latency_s=0.005) as server:
            with llm_scorer(server.url, batch_size=4) as scorer:
                scorer.score_batch(requests)
        assert server.requests == scorer.ledger.total_calls == 20
        assert 1 < server.inflight_max <= 4
        assert server.threads_max == 1

    def test_a_backoff_holds_no_connection(self):
        # The first request gets a 429 that asks for 0.5 s. Over two
        # connections at 0.2 s an answer, the other five are answered by
        # 0.6 s, before the retry goes out at 0.7 s. A backoff that held a
        # connection, or a thread that sends on one, would leave the last of
        # them waiting until 0.8 s, after the retry.
        requests = [JudgeRequest("pointwise", QUERY, (doc(f"d{i}", f"text {i}"),)) for i in range(6)]
        with counting_stub(latency_s=0.2, faults=(429,), faulty=lambda prompt: b"text 0" in prompt,
                           retry_after="0.5") as server:
            with llm_scorer(server.url, batch_size=2) as scorer:
                scorer.score_batch(requests)
        order = [int(prompt.split(b"text ")[1][0:1]) for prompt in server.arrivals]
        assert sorted(order[:-1]) == [0, 1, 2, 3, 4, 5] and order[-1] == 0, order
        assert server.inflight_max == 2
        assert scorer.ledger.retries == {"pointwise": 1}
        assert scorer.ledger.total_calls == 6

    def test_latency_report_reads_the_stubs_latency(self, tmp_path):
        paths = write_experiment_files(make_synth(2, 6, seed=23), tmp_path / "data")
        with counting_stub(latency_s=0.05) as server:
            result = rerank_through(server, paths, tmp_path / "out", "pointwise")
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "out" / "pointwise.report.json").read_text())
        (kind, latency), = report["latency_ms"].items()
        assert kind == "pointwise"
        assert 50 <= latency["p50"] <= latency["p95"] <= latency["max"]
        assert latency["p50"] <= 50 * 2 ** (1 / 8) + 10  # one bucket, and the client's own time

    def test_rerank_reports_a_top_logprobs_of_no_list_as_a_scoring_failure(self, tmp_path):
        paths = write_experiment_files(make_synth(1, 3, seed=23), tmp_path / "data")
        body = json.dumps(completion_payload(5)).encode()
        with raw_stub(lambda prompt, attempt: [(0, whole_answer(body=body))]) as server:
            result = rerank_through(server, paths, tmp_path / "out", "pointwise")
        assert result.exit_code == 1, result.output
        assert "error: scoring failed for: " in result.output
        assert "(DegenerateResponseError: malformed top_logprobs entry)" in result.output

    def test_an_interrupt_in_the_wait_closes_and_frees_the_connections_in_flight(
        self, monkeypatch
    ):
        requests = [JudgeRequest("pointwise", QUERY, (doc(f"d{i}", f"text {i}"),)) for i in range(3)]

        def interrupted(fds, timeout):
            raise KeyboardInterrupt

        with counting_stub(latency_s=0.05) as server:
            with llm_scorer(server.url, batch_size=2) as scorer:
                with monkeypatch.context() as patch:
                    patch.setattr(llm, "_ready", interrupted)
                    with pytest.raises(KeyboardInterrupt):
                        scorer.score_batch(requests)
                assert scorer._free.qsize() == 2
                assert all(connection.sock is None for connection in scorer._connections)
                assert scorer.ledger.total_calls == 0
                assert scorer.score_batch(requests)  # the scorer still works
        assert scorer.ledger.total_calls == 3

    @pytest.mark.parametrize("concurrency", ["1", "2", "4"])
    def test_ctrl_c_stops_an_endpoint_run_at_once(self, tmp_path, concurrency):
        run, corpus, queries, _ = write_experiment_files(make_synth(8, 6, seed=23), tmp_path / "data")
        src = str(Path(refrank.__file__).resolve().parent.parent)
        with counting_stub(latency_s=5.0) as server:
            process = subprocess.Popen(
                [sys.executable, "-m", "refrank", "rerank", "--run", str(run), "--corpus",
                 str(corpus), "--queries", str(queries), "--strategy", "pointwise",
                 "--concurrency", concurrency,
                 "--backend", "endpoint", "--endpoint-url", server.url, "--model", "m",
                 "--out", str(tmp_path / "out")],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                env={**os.environ, "PYTHONPATH": src},
                # a SIGINT ignored here, as in a background job of a non-interactive
                # shell, stays ignored in the child, and Python then installs no
                # KeyboardInterrupt handler: restore the default before the exec
                preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
            )
            try:
                started = time.monotonic()
                while server.inflight == 0 and time.monotonic() < started + 30:
                    time.sleep(0.01)
                time.sleep(max(0.0, started + 1.0 - time.monotonic()))
                assert server.inflight > 0  # requests are in flight, with 4 s to go
                sent = server.requests
                process.send_signal(signal.SIGINT)
                signalled = time.monotonic()
                _, stderr = process.communicate(timeout=60)
                waited = time.monotonic() - signalled
            finally:
                process.kill()
                process.communicate()
        assert process.returncode != 0, stderr
        assert waited < 1.5, stderr
        assert server.requests == sent  # no query and no request started after the signal

    @pytest.mark.parametrize("concurrency", [2, 4])
    def test_a_failed_query_starts_no_queued_query(self, tmp_path, concurrency):
        paths = write_experiment_files(make_synth(8, 6, seed=23), tmp_path / "data")
        with counting_stub(latency_s=0.05, faults=(400,), faulty=lambda prompt: True) as server:
            result = rerank_through(server, paths, tmp_path / "out", "pointwise",
                                    "--concurrency", str(concurrency))
        assert result.exit_code == 1, result.output
        assert "HTTP 400" in result.output
        # at most the queries running when the first one failed; the other queries never start
        assert server.requests <= concurrency * 6, server.requests

    def test_a_query_failing_beside_a_running_one_ends_it_and_starts_no_queued_query(
        self, tmp_path
    ):
        # q0001 fails in its first round trip, while q0000, listed first, has
        # about six more of bubblesort's to go
        paths = write_experiment_files(make_synth(8, 6, seed=23), tmp_path / "data")
        with counting_stub(latency_s=0.1, faults=(400,),
                           faulty=lambda prompt: b"q0001" in prompt) as server:
            result = rerank_through(server, paths, tmp_path / "out", "pairwise-bubblesort",
                                    "--k", "3", "--concurrency", "2")
        assert result.exit_code == 1, result.output
        assert "q0001_d" in result.output
        queries = [set(re.findall(rb"q\d{4}", prompt)) for prompt in server.arrivals]
        assert set().union(*queries) == {b"q0000", b"q0001"}
        assert queries.count({b"q0000"}) < 3 * 5 - 3  # q0000 ended before its last duel

    def test_close_ends_a_wait_in_another_thread_at_once(self):
        requests = [JudgeRequest("pointwise", QUERY, (doc(f"d{i}", f"text {i}"),)) for i in range(3)]
        with counting_stub(latency_s=5.0) as server:
            scorer = llm_scorer(server.url, batch_size=2)
            # the third request waits for a connection
            error, ended = close_while_waiting(scorer, requests, lambda: server.inflight == 2)
            assert server.requests == 2  # nothing sent after the close, and no retry
        assert isinstance(error, ScoringError) and "scorer is closed" in str(error), error
        assert ended < 0.5
        assert scorer.ledger.retries == {} and scorer.ledger.total_calls == 0
        assert scorer._free.qsize() == 2
        assert all(connection.sock is None for connection in scorer._connections)

    def test_close_ends_a_backoff_beside_a_request_in_flight(self, stub_server):
        StubHandler.behaviors = [  # by arrival: a quick 429, then slow answers
            lambda i: (429, {"error": "slow down"}, {"Retry-After": "10"}),
            lambda i: (time.sleep(2), (200, YES_NO))[1],
        ]
        requests = [JudgeRequest("pointwise", QUERY, (doc(f"d{i}", f"text {i}"),)) for i in range(2)]
        scorer = llm_scorer(stub_server, batch_size=2)
        error, ended = close_while_waiting(scorer, requests, lambda: scorer.ledger.retries)
        assert isinstance(error, ScoringError) and "scorer is closed" in str(error), error
        assert ended < 0.5  # not when the retry falls due, 10 s on
        assert len(StubHandler.calls) == 2
        assert scorer._free.qsize() == 2
        assert all(connection.sock is None for connection in scorer._connections)

    def test_close_ends_a_call_whose_only_request_waits_out_a_backoff(self, stub_server):
        StubHandler.behaviors = [lambda i: (429, {"error": "slow down"}, {"Retry-After": "3"})]
        scorer = llm_scorer(stub_server)
        error, ended = close_while_waiting(scorer, [PROBE_POINTWISE], lambda: scorer.ledger.retries)
        assert isinstance(error, ScoringError) and "scorer is closed" in str(error), error
        assert ended < 0.5  # not when the retry falls due, 3 s on
        assert len(StubHandler.calls) == 1
        assert scorer._free.qsize() == 4
        assert all(connection.sock is None for connection in scorer._connections)

    def test_a_request_past_its_deadline_is_retried_then_fails(self, monkeypatch):
        monkeypatch.setattr(llm, "_TIMEOUT_S", 0.3)
        with counting_stub(latency_s=2.0) as server:
            scorer = llm_scorer(server.url)
            with pytest.raises(TransientBackendError) as exc:
                scorer.score(PROBE_POINTWISE)
        assert str(exc.value) == "request failed after 4 attempt(s): TimeoutError: timed out"
        assert scorer.ledger.retries == {"pointwise": 3} and scorer.ledger.total_calls == 0
        assert scorer._free.qsize() == 4
        assert all(connection.sock is None for connection in scorer._connections)

    def test_a_waiting_batch_burns_no_cpu(self):
        requests = [JudgeRequest("pointwise", QUERY, (doc(f"d{i}", f"text {i}"),)) for i in range(6)]
        with counting_stub(latency_s=0.3) as server:
            scorer = llm_scorer(server.url, batch_size=2)
            started, cpu = time.monotonic(), time.thread_time()
            scorer.score_batch(requests)
            wall, cpu = time.monotonic() - started, time.thread_time() - cpu
            scorer.close()
        assert wall >= 0.9  # three round trips of two
        assert cpu < 0.1, cpu

    def test_closed_scorer_raises_and_opens_nothing(self):
        with counting_stub(latency_s=0.0) as server:
            scorer = llm_scorer(server.url, batch_size=2)
            scorer.score(PROBE_POINTWISE)
            scorer.close()
            with pytest.raises(ScoringError, match="scorer is closed"):
                scorer.score(PROBE_POINTWISE)
            with pytest.raises(ScoringError, match="scorer is closed"):
                scorer.score_batch([PROBE_POINTWISE])
            assert all(connection.sock is None for connection in scorer._connections)
        assert server.requests == 1 and len(server.ports) == 1

    @pytest.mark.parametrize("concurrency", ["1", "4"])
    @pytest.mark.parametrize("strategy", list(STRATEGIES))
    def test_rerank_under_faults_matches_the_clean_run(
        self, tmp_path, monkeypatch, strategy, concurrency
    ):
        monkeypatch.setattr(cli_module, "LlmBackendConfig", FAST_RETRIES)
        paths = write_experiment_files(make_synth(4, 6, seed=23), tmp_path / "data")
        outcomes = {}
        for profile, faults in {"clean": (), **FAULT_PROFILES}.items():
            out = tmp_path / profile
            with counting_stub(latency_s=0.0, faults=faults,
                               faulty=lambda prompt: zlib.crc32(prompt) % 3 == 0) as server:
                result = rerank_through(server, paths, out, strategy, "--concurrency", concurrency,
                                        *SMALL_RUN_FLAGS.get(strategy, ()))
            assert result.exit_code == 0, (profile, result.output)
            report = json.loads((out / f"{strategy}.report.json").read_text())
            injected = sum(server.injected.values())
            assert (injected > 0) == bool(faults), profile
            assert sum(report["retries"].values()) == injected, profile
            # a dropped connection is reopened, on a new port
            assert len(server.ports) <= LlmBackendConfig.batch_size + server.injected[None], profile
            # the rerank workers and the caller: the scorer starts no thread
            assert server.threads_max <= int(concurrency) + 1, profile
            run_digest = hashlib.sha256((out / f"{strategy}.run").read_bytes()).hexdigest()
            outcomes[profile] = run_digest, report["total_calls"]
        assert all(outcome == outcomes["clean"] for outcome in outcomes.values()), outcomes

    @pytest.mark.parametrize("concurrency", ["1", "4"])
    @pytest.mark.parametrize("strategy", list(STRATEGIES))
    def test_rerank_over_connections_closed_while_idle_matches_the_clean_run(
        self, tmp_path, monkeypatch, strategy, concurrency
    ):
        monkeypatch.setattr(cli_module, "LlmBackendConfig", FAST_RETRIES)
        paths = write_experiment_files(make_synth(4, 6, seed=23), tmp_path / "data")
        outcomes = {}
        for profile, close_after in {"clean": None, "idle-close": 3}.items():
            out = tmp_path / profile
            with counting_stub(latency_s=0.0, close_after=close_after) as server:
                result = rerank_through(server, paths, out, strategy, "--concurrency", concurrency,
                                        *SMALL_RUN_FLAGS.get(strategy, ()))
            assert result.exit_code == 0, (profile, result.output)
            report = json.loads((out / f"{strategy}.report.json").read_text())
            # a close races the client's next request on that connection: seen
            # first, the connection reopens without a retry; else that request
            # fails once and is retried, on a new connection either way
            assert sum(report["retries"].values()) <= server.closes, profile
            assert len(server.ports) <= LlmBackendConfig.batch_size + server.closes, profile
            run_digest = hashlib.sha256((out / f"{strategy}.run").read_bytes()).hexdigest()
            outcomes[profile] = run_digest, report["total_calls"]
        assert server.closes >= 1
        assert outcomes["idle-close"] == outcomes["clean"], outcomes

    def test_analyze_under_faults_matches_the_clean_run(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli_module, "LlmBackendConfig", FAST_RETRIES)
        n_queries, n, depth_r, m_max = 4, 6, 3, 3
        run, corpus, queries, qrels = write_experiment_files(
            make_synth(n_queries, n, seed=23), tmp_path / "data"
        )
        csvs = ("reference_sweep.csv", "topk_selection.csv", "ensemble_sweep.csv")
        outcomes = {}
        for profile, faults in {"clean": (), **FAULT_PROFILES}.items():
            out = tmp_path / profile
            with counting_stub(latency_s=0.0, faults=faults,
                               faulty=lambda prompt: zlib.crc32(prompt) % 3 == 0) as server:
                result = CliRunner().invoke(cli, [
                    "analyze", "--run", str(run), "--corpus", str(corpus),
                    "--queries", str(queries), "--qrels", str(qrels),
                    "--ref-topk", str(depth_r), "--m", str(m_max), "--backend", "endpoint",
                    "--endpoint-url", server.url, "--model", "m", "--out", str(out),
                ], catch_exceptions=False)
            assert result.exit_code == 0, (profile, result.output)
            injected = sum(server.injected.values())
            assert (injected > 0) == bool(faults), profile
            digests = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest() for name in csvs)
            outcomes[profile] = digests, server.requests - injected
        # each cell is a full RefRank run: n calls per reference cell, m * n per ensemble cell
        assert outcomes["clean"][1] == n_queries * n * (depth_r + m_max * (m_max + 1) // 2)
        assert all(outcome == outcomes["clean"] for outcome in outcomes.values()), outcomes

    @pytest.mark.parametrize("strategy, failed", [
        ("pointwise", "q0001_d004"),
        ("pairwise-bubblesort", "q0001_d005|q0001_d004"),
        ("setwise-heapsort", "q0001_d001|q0001_d004|q0001_d005"),
    ], ids=["pointwise", "pairwise-bubblesort", "setwise-heapsort"])
    def test_rerank_names_the_docs_whose_retries_ran_out(
        self, tmp_path, monkeypatch, strategy, failed
    ):
        monkeypatch.setattr(cli_module, "LlmBackendConfig", FAST_RETRIES)
        paths = write_experiment_files(make_synth(2, 6, seed=23), tmp_path / "data")
        with counting_stub(latency_s=0.0, faults=(500,) * 4,
                           faulty=lambda prompt: b"passage q0001 4" in prompt) as server:
            result = rerank_through(server, paths, tmp_path / "out", strategy,
                                    *SMALL_RUN_FLAGS.get(strategy, ()))
        assert result.exit_code == 1
        assert result.stderr == (
            f"error: scoring failed for: {failed} "
            "(TransientBackendError: request failed after 4 attempt(s): HTTP 500)\n"
        )
        assert server.injected == {500: 4}

    def test_template_file_that_is_not_utf8_fails_before_any_output_or_call(self, tmp_path):
        paths = write_experiment_files(make_synth(2, 6, seed=23), tmp_path / "data")
        templates = tmp_path / "templates"
        templates.mkdir()
        text = "Query: {query}\nA: {doc}\nB: {ref}\nWhich is more relevant, caf\u00e9?"
        (templates / "triplet.txt").write_bytes(text.encode("latin-1"))
        with counting_stub(latency_s=0.0) as server:
            result = rerank_through(server, paths, tmp_path / "out", "refrank-single",
                                    "--template-dir", str(templates))
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == (
            f"error: {templates / 'triplet.txt'}: not valid UTF-8 "
            f"(byte 0xe9 at offset {text.index(chr(0xe9))})\n"
        )
        assert not (tmp_path / "out").exists()
        assert server.requests == 0

    def test_bench_loads_the_template_dir_once_for_all_its_strategies(self, tmp_path, monkeypatch):
        loaded = []
        from_dir = PromptTemplates.from_dir

        def counted(directory):
            loaded.append(directory)
            return from_dir(directory)

        monkeypatch.setattr(PromptTemplates, "from_dir", counted)
        data = make_synth(2, 6, seed=23)
        run, corpus, queries, _ = write_experiment_files(data, tmp_path / "data")
        templates = tmp_path / "templates"
        templates.mkdir()
        (templates / "triplet.txt").write_text("Query: {query}\nA: {doc}\nB: {ref}\nWhich?")
        with counting_stub(latency_s=0.0) as server:
            result = CliRunner().invoke(cli, [
                "bench", "--run", str(run), "--corpus", str(corpus), "--queries", str(queries),
                "--strategy", "pointwise,refrank-single", "--backend", "endpoint",
                "--endpoint-url", server.url, "--model", "m", "--template-dir", str(templates),
            ], catch_exceptions=False)
        assert result.exit_code == 0, result.output
        assert loaded == [str(templates)]
        assert server.requests == 2 * 2 * 6  # both strategies judged every candidate once

    @pytest.mark.parametrize(
        "key", ["sk-secret-4711\n", "sk-secret 4711", "sk-secret-4711\u00e9"],
        ids=["trailing-newline", "inner-space", "non-ascii"],
    )
    def test_api_key_no_header_can_carry_fails_before_any_output_or_call(
        self, tmp_path, monkeypatch, key
    ):
        monkeypatch.setenv("REFRANK_TEST_KEY", key)
        paths = write_experiment_files(make_synth(2, 6, seed=23), tmp_path / "data")
        with counting_stub(latency_s=0.0) as server:
            result = rerank_through(server, paths, tmp_path / "out", "pointwise",
                                    "--api-key-env", "REFRANK_TEST_KEY")
        assert result.exit_code == 1
        assert result.stdout == ""
        (line,) = result.stderr.splitlines()
        assert line.startswith("error: environment variable 'REFRANK_TEST_KEY' ")
        assert "secret" not in result.output and "4711" not in result.output
        assert not (tmp_path / "out").exists()
        assert server.requests == 0

    def test_a_setting_the_last_and_shortest_list_cannot_take_sends_no_request(self, tmp_path):
        # lists of 12, 12 and 4 docs: --k 10 fits the first two, so a run
        # that checked each list as it reached it would pay for both
        data = shortest_last(make_synth(3, 12, seed=17), 4)
        paths = write_experiment_files(data, tmp_path / "data")
        with counting_stub(latency_s=0.0) as server:
            result = rerank_through(server, paths, tmp_path / "out", "pairwise-bubblesort",
                                    "--k", "10")
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == "error: bubble passes k=10 must be within 1..4\n"
        assert not (tmp_path / "out").exists()
        assert server.requests == 0

    @pytest.mark.parametrize("close", [True, False])
    def test_close_leaves_no_socket_open(self, close):
        script = textwrap.dedent("""
            import gc, sys
            from refrank.datamodel import DocCandidate, Query
            from refrank.scorer import JudgeRequest, LlmBackendConfig, LlmScorer

            scorer = LlmScorer(LlmBackendConfig(base_url=sys.argv[1], model="m", batch_size=2))
            requests = [
                JudgeRequest("pointwise", Query("q", "x"), (DocCandidate(f"d{i}", f"t{i}"),))
                for i in range(4)
            ]
            scorer.score_batch(requests)
            scorer.score(requests[0])
            if sys.argv[2] == "close":
                scorer.close()
                assert all(connection.sock is None for connection in scorer._connections)
            del scorer
            gc.collect()
        """)
        src = str(Path(refrank.__file__).resolve().parent.parent)
        with counting_stub(latency_s=0.0) as server:
            done = subprocess.run(
                [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c", script,
                 server.url, "close" if close else "keep"],
                capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
            )
        assert done.returncode == 0, done.stderr
        if close:
            assert done.stderr == ""
        else:  # the check can fail: unclosed keep-alive sockets do warn
            assert "ResourceWarning" in done.stderr


# A self-signed certificate and key for 127.0.0.1, valid 2000-2099, made by
#   openssl req -x509 -newkey ec -pkeyopt ec_paramgen_curve:prime256v1 -nodes \
#     -not_before 20000101000000Z -not_after 20991231235959Z -subj /CN=127.0.0.1 \
#     -addext subjectAltName=IP:127.0.0.1 -keyout key.pem -out cert.pem
TLS = Path(__file__).parent / "tls"


def chunked_answer(body=YES_NO_BODY, size=b"%x", last=b"0"):
    chunks = b"".join((size + b";ext=1\r\n%s\r\n") % (len(part), part) for part in (body[:9], body[9:]))
    head = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
    return head + chunks + last + b"\r\nX-Trailer: 1\r\n\r\n"


def answer_of_length(*lengths, body=YES_NO_BODY):
    """A whole answer with body, framed by one Content-Length field per length given."""
    fields = b"".join(b"Content-Length: %s\r\n" % length for length in lengths)
    return b"HTTP/1.1 200 OK\r\n" + fields + b"\r\n" + body


LENGTH = b"%d" % len(YES_NO_BODY)


# Each way of framing a whole answer: the stub's steps, and whether the
# connection carries the next request.
FRAMINGS = {
    "content-length": ([(0, whole_answer())], True),
    "chunked": ([(0, chunked_answer())], True),
    "connection-close": (
        [(0, whole_answer(b"HTTP/1.1 200 OK\r\nConnection: close")), (0, None)], False
    ),
    "http-1.0-close-delimited": ([(0, b"HTTP/1.0 200 OK\r\n\r\n" + YES_NO_BODY), (0, None)], False),
    "100-continue": ([(0, b"HTTP/1.1 100 Continue\r\n\r\n" + whole_answer())], True),
    "repeated-content-length": ([(0, answer_of_length(LENGTH, LENGTH))], True),
    "blank-space-before-chunk-extension": ([(0, chunked_answer(size=b"%x \t"))], True),
}
# First answers that fail the attempt, which is retried on a new connection.
FAULTY_ANSWERS = {
    "cut-short": [(0, whole_answer()[:-20]), (0, None)],
    "cut-short-chunked": [(0, chunked_answer()[:-40]), (0, None)],  # in the second chunk
    "garbage-status-line": [(0, b"garbage\r\n")],  # the connection stays open
    "no-answer": [(0, None)],
    # lengths outside 1*DIGIT and 1*HEXDIG, which int() reads
    "signed-length": [(0, answer_of_length(b"+" + LENGTH))],
    "underscore-length": [(0, answer_of_length(LENGTH[:1] + b"_" + LENGTH[1:]))],
    "conflicting-lengths": [(0, answer_of_length(b"%d" % (len(YES_NO_BODY) + 1), LENGTH))],
    "prefixed-chunk-size": [(0, chunked_answer(size=b"0x%x"))],
    "underscore-chunk-size": [(0, chunked_answer(size=b"0_%x"))],
    "signed-last-chunk": [(0, chunked_answer(last=b"-0"))],
}


class TestResponseReader:
    @pytest.mark.parametrize("read_size", [65536, 1], ids=["whole", "one-byte-per-read"])
    @pytest.mark.parametrize("framing", list(FRAMINGS))
    def test_every_framing_gives_the_answer(self, monkeypatch, framing, read_size):
        monkeypatch.setattr(llm, "_READ_SIZE", read_size)
        steps, reusable = FRAMINGS[framing]
        with raw_stub(lambda prompt, attempt: steps) as server:
            with llm_scorer(server.url, batch_size=1) as scorer:
                for _ in range(2):
                    assert scorer.score(PROBE_POINTWISE) == pytest.approx({"yes": -0.3, "no": -1.3})
        assert scorer.ledger.retries == {} and scorer.ledger.total_calls == 2
        ports = {port for _, port, _ in server.arrivals}
        assert len(ports) == (1 if reusable else 2)

    @pytest.mark.parametrize("read_size", [65536, 1], ids=["whole", "one-byte-per-read"])
    @pytest.mark.parametrize("fault", list(FAULTY_ANSWERS))
    def test_a_malformed_or_cut_short_answer_is_retried(self, monkeypatch, fault, read_size):
        monkeypatch.setattr(llm, "_READ_SIZE", read_size)

        def answer(prompt, attempt):
            return FAULTY_ANSWERS[fault] if attempt == 0 else [(0, whole_answer())]

        with raw_stub(answer) as server:
            with llm_scorer(server.url, batch_size=1) as scorer:
                assert scorer.score(PROBE_POINTWISE) == pytest.approx({"yes": -0.3, "no": -1.3})
        assert scorer.ledger.retries == {"pointwise": 1} and scorer.ledger.total_calls == 1
        assert len({port for _, port, _ in server.arrivals}) == 2

    def test_a_garbage_status_line_on_every_attempt_fails_the_request(self):
        with raw_stub(lambda prompt, attempt: [(0, b"garbage\r\n")]) as server:
            with llm_scorer(server.url, batch_size=1) as scorer:
                with pytest.raises(TransientBackendError) as exc:
                    scorer.score(PROBE_POINTWISE)
        assert str(exc.value) == (
            "request failed after 4 attempt(s): BadResponseError: bad status line b'garbage'"
        )
        assert len(server.arrivals) == 4

    def test_a_slow_body_holds_up_no_other_answer(self):
        # One answer sends its headers at once and its body 2 s later; the
        # others come whole after 0.05 s. Over two connections, the one the
        # fast answers free carries the other three requests meanwhile. The
        # bounds sit halfway between the two delays, which leaves a loaded
        # machine about 0.9 s of room: a reader that waits on the slow body
        # holds the fast answers up for the whole 2 s.
        head, body = whole_answer().split(b"\r\n\r\n")
        slow_s = 2.0

        def answer(prompt, attempt):
            if "text 0" in prompt:
                return [(0, head + b"\r\n\r\n"), (slow_s, body)]
            return [(0.05, whole_answer())]

        requests = [JudgeRequest("pointwise", QUERY, (doc(f"d{i}", f"text {i}"),)) for i in range(4)]
        with raw_stub(answer) as server:
            with llm_scorer(server.url, batch_size=2) as scorer:
                started = time.monotonic()
                results = scorer.score_batch(requests)
                took = time.monotonic() - started
        assert results == [{"yes": -0.3, "no": -1.3}] * 4
        assert took < slow_s + 1.0, took
        *fast, slow = sorted(scorer.ledger._latency["pointwise"])
        assert max(fast) < slow_s * 1e3 / 2 and slow >= slow_s * 1e3, (fast, slow)
        (slow_arrived,) = [arrived for arrived, _, prompt in server.arrivals if "text 0" in prompt]
        assert max(arrived for arrived, _, _ in server.arrivals) < slow_arrived + slow_s / 2

    def test_a_body_trickling_past_its_deadline_times_out_and_is_retried(self, monkeypatch):
        monkeypatch.setattr(llm, "_TIMEOUT_S", 0.3)
        head, body = whole_answer().split(b"\r\n\r\n")
        trickle = [(0, head + b"\r\n\r\n")] + [(0.05, body[i : i + 1]) for i in range(len(body))]
        with raw_stub(lambda prompt, attempt: trickle) as server:
            with llm_scorer(server.url, batch_size=1) as scorer:
                started = time.monotonic()
                with pytest.raises(TransientBackendError) as exc:
                    scorer.score(PROBE_POINTWISE)
                took = time.monotonic() - started
        assert str(exc.value) == "request failed after 4 attempt(s): TimeoutError: timed out"
        assert scorer.ledger.retries == {"pointwise": 3} and scorer.ledger.total_calls == 0
        assert len(server.arrivals) == 4
        assert took < 4 * 0.3 + 1.0, took  # each attempt ends at its deadline, not its last byte

    @pytest.mark.parametrize(
        "raw, message",
        [
            (b"HTTP/2 200\r\n\r\n", "bad status line b'HTTP/2 200'"),
            (b"HTTP/1.1 20 OK\r\n", "bad status line b'HTTP/1.1 20 OK'"),
            (b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n", "bad Content-Length '-1'"),
            (b"HTTP/1.1 200 OK\r\nContent-Length: ten\r\n\r\n", "bad Content-Length 'ten'"),
            (b"HTTP/1.1 200 OK\r\nContent-Length: 1_0\r\n\r\n", "bad Content-Length '1_0'"),
            (b"HTTP/1.1 200 OK\r\nContent-Length: +10\r\n\r\n", "bad Content-Length '+10'"),
            (b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\nContent-Length: 11\r\n\r\n",
             "bad Content-Length '10, 11'"),
            (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n",
             "bad chunk size line b'zz'"),
            (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0x5\r\n",
             "bad chunk size line b'0x5'"),
            (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0_5\r\n",
             "bad chunk size line b'0_5'"),
            (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n-0\r\n",
             "bad chunk size line b'-0'"),
            (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5 \r\n",
             "bad chunk size line b'5 '"),
            (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nabXY",
             "a chunk does not end in CRLF"),
            (b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * 65536, "no end of headers in 65536 bytes"),
        ],
        ids=["http-2", "two-digit-status", "negative-length", "word-length", "underscore-length",
             "signed-length", "conflicting-lengths", "bad-chunk-size", "prefixed-chunk-size",
             "underscore-chunk-size", "signed-chunk-size", "blank-after-chunk-size",
             "chunk-without-crlf",
             "endless-headers"],
    )
    def test_a_malformed_answer_is_refused_before_the_peer_closes(self, raw, message):
        with pytest.raises(llm.BadResponseError) as exc:
            llm._parse(bytearray(raw), False)
        assert str(exc.value) == message

    def test_what_a_whole_answer_leaves_for_the_next_request(self):
        # no body after 204; bytes past the answer, or a closed stream, retire the connection
        assert llm._parse(bytearray(b"HTTP/1.1 204 No Content\r\n\r\n"), False) == (
            204, {}, b"", True
        )
        status, _, body, reusable = llm._parse(bytearray(whole_answer() + b"HTTP"), False)
        assert (status, bytes(body), reusable) == (200, YES_NO_BODY, False)
        assert llm._parse(bytearray(whole_answer()), True)[3] is False
        assert llm._parse(bytearray(whole_answer()[:-1]), False) is None
        with pytest.raises(llm.BadResponseError, match="closed the connection after"):
            llm._parse(bytearray(whole_answer()[:-1]), True)

    @pytest.mark.parametrize("read_size", [65536, 1], ids=["whole", "one-byte-per-read"])
    def test_https_gives_the_answers_http_gives(self, monkeypatch, read_size):
        # one byte per read leaves the rest of each TLS record pending in the
        # socket, where poll cannot see it
        monkeypatch.setattr(llm, "_READ_SIZE", read_size)
        tls = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        tls.load_cert_chain(TLS / "cert.pem", TLS / "key.pem")
        monkeypatch.setenv("SSL_CERT_FILE", str(TLS / "cert.pem"))
        requests = [JudgeRequest("pointwise", QUERY, (doc(f"d{i}", f"text {i}"),)) for i in range(6)]
        results = {}
        for scheme in ("http", "https"):
            with counting_stub(latency_s=0.0, tls=tls if scheme == "https" else None) as server:
                url = f"{scheme}://127.0.0.1:{server.server_port}"
                with llm_scorer(url, batch_size=2) as scorer:
                    results[scheme] = scorer.score_batch(requests)
            assert server.requests == 6 and len(server.ports) <= 2, scheme
        assert results["https"] == results["http"]

    def test_https_refuses_a_certificate_the_trust_store_lacks(self, monkeypatch):
        tls = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        tls.load_cert_chain(TLS / "cert.pem", TLS / "key.pem")
        monkeypatch.delenv("SSL_CERT_FILE", raising=False)
        with counting_stub(latency_s=0.0, tls=tls) as server:
            with llm_scorer(f"https://127.0.0.1:{server.server_port}") as scorer:
                with pytest.raises(TransientBackendError, match="CERTIFICATE_VERIFY_FAILED"):
                    scorer.score(PROBE_POINTWISE)
            assert server.requests == 0

    def test_close_ends_a_tls_handshake_that_stalls(self):
        # The listener never accepts, so the client's hello gets no answer.
        with socket.create_server(("127.0.0.1", 0)) as listener:
            scorer = llm_scorer(f"https://127.0.0.1:{listener.getsockname()[1]}", batch_size=1)

            def in_handshake():  # and some way into it
                if isinstance(scorer._connections[0].sock, ssl.SSLSocket):
                    time.sleep(0.2)
                    return True
                return False

            error, ended = close_while_waiting(scorer, [PROBE_POINTWISE], in_handshake)
        assert isinstance(error, ScoringError) and "scorer is closed" in str(error), error
        assert ended < 0.5
        assert scorer.ledger.retries == {} and scorer.ledger.total_calls == 0
        assert scorer._free.qsize() == 1 and scorer._connections[0].sock is None


class TestSoftmaxHelpers:
    def test_two_way_values(self):
        from refrank.strategies import pointwise_score, refrank_score

        assert pointwise_score(0.0, 0.0) == 0.5
        assert pointwise_score(math.log(3), 0.0) == pytest.approx(0.75, abs=1e-12)
        assert refrank_score(2.0, 1.0) == pytest.approx(0.7310585786300049, abs=1e-12)
        assert refrank_score(1000.0, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert refrank_score(-1000.0, 0.0) == pytest.approx(0.0, abs=1e-12)
