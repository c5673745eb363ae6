"""Deterministic synthetic judge for desk-scale verification.

Scores derive from a latent relevance value g in [0, 1] per (query, doc):

  pointwise   s_yes - s_no = (2 g - 1) + bias_d + eps
  triplet     s_A - s_B   = (g_A - g_B) + eps
  duel        same as triplet
  setwise     logit_k      = g_k + eps_k

All randomness is a pure function of (seed, request content), so batching,
call order, and threading can never change a result. For triplets and duels
the noise draw is keyed by the unordered doc pair and signed by orientation:
swapping the two slots swaps the logits exactly, and a document paired with
itself gets zero noise and therefore scores exactly 0.5.

bias_d is a seeded zero-mean Gaussian per-document shift (standard
deviation bias_amplitude) applied to pointwise requests only. It models how
isolated yes/no judgments drift per document in a way comparative judgments
cannot, which is what makes pointwise-versus-comparative experiments
meaningful under this judge.

When ref_noise_scale > 0, triplet noise widens as the reference document's
latent relevance falls: sigma_eff = noise_sigma + ref_noise_scale * (1 -
g_ref). This mode is the harness's explicit mechanism for studying how
anchor quality shapes ranking quality; it is asymmetric by construction and
leaves duels and setwise groups untouched.

Latent sources, in precedence order: an explicit (query_id, doc_id) -> g
map, qrels grades over the query's maximum grade (0.0 for unjudged docs and
for a query whose grades are all zero), or seeded per-document uniform
draws.

Each scorer keeps one state for the query it is judging now, built when the
query id changes and replaced in one assignment. A batch reads it once;
each judgment checks its query id against the request's and passes it to
the judge:

- the memo, keyed by (kind, ordered doc ids). With the state's query id,
  that key holds every input a judgment reads (the seed, the config and the
  latent source are fixed per scorer), so a remembered answer is the one a
  fresh computation would give, and a fresh answer is checked before it
  is remembered. Document text feeds only the prompt character count,
  which is computed on every call.
- the latent table, doc id -> g, computing each value on first use. Under
  qrels, the query's judged grades and its maximum grade are read once,
  when the state is built, so a value is one lookup and one division,
  equal bit for bit to ``latent``. Explicit and seeded latents call
  ``latent``; a computation that raises stores nothing.
- the draw-key table, doc id -> the bytes a draw hashes for it (its UTF-8
  followed by 0x1f, as _seeded.encode gives them), encoded inline on first
  use, so a doc id is encoded once per query however often it is drawn
  under.
- one BLAKE2b state per draw kind (pointwise, bias, triplet, duel, setwise)
  that has absorbed (seed, kind, query id). A draw copies it and hashes
  only its doc ids' keys, through _seeded.normal_from. A setwise judgment
  first extends a copy by its group key, once, so each member's draw
  hashes only the member's key. BLAKE2b is streaming, so each draw equals
  std_normal(seed, kind, query id, ...) bit for bit; see _seeded.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from .._seeded import extend, normal_from, prefix, stable_digest, unit_uniform
from ..datamodel import KINDS, CallLedger, HarnessError, Qrels, ValidationError
from .base import JudgeRequest, Scorer, check_labels


@dataclass(frozen=True)
class OracleConfig:
    """Knobs for the synthetic judge; see the module docstring for the math."""

    seed: int
    noise_sigma: float = 0.0
    bias_amplitude: float = 0.0
    ref_noise_scale: float = 0.0

    def __post_init__(self):
        for name in ("noise_sigma", "bias_amplitude", "ref_noise_scale"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:  # a NaN knob would act as 0
                raise ValidationError(f"{name} must be >= 0 and finite, got {value}")


# the draw kinds, each hashed under its own (seed, kind, query id) prefix
_DRAWS = ("pointwise", "bias", "triplet", "duel", "setwise")


class _Table(dict):
    """doc id -> a value for one query, each computed on first use.

    A computation that raises stores nothing, so a missing latent fails on
    every call, not only on the first.
    """

    __slots__ = ("_compute",)

    def __init__(self, compute):
        super().__init__()
        self._compute = compute

    def __missing__(self, doc_id: str) -> float:
        value = self[doc_id] = self._compute(doc_id)
        return value


class _Grades(dict):
    """doc id -> its qrels grade over the query's maximum grade, each computed on first use.

    0.0 for an unjudged doc, and for every doc of a query whose grades are
    all zero (as 0 / 1), as ``OracleScorer.latent`` gives.
    """

    __slots__ = ("_judged", "_top")

    def __init__(self, judged: Mapping[str, int], top: int):
        super().__init__()
        self._judged, self._top = (judged, top) if top > 0 else ({}, 1)

    def __missing__(self, doc_id: str) -> float:
        value = self[doc_id] = self._judged.get(doc_id, 0) / self._top
        return value


class _Keys(dict):
    """doc id -> the bytes a draw hashes for it, each encoded on first use."""

    __slots__ = ()

    def __missing__(self, doc_id: str) -> bytes:
        value = self[doc_id] = (doc_id + "\x1f").encode()  # _seeded.encode(doc_id)
        return value


class _QueryState:
    """The memo, latents, draw keys and draw prefixes of one query; see the module docstring."""

    __slots__ = ("query_id", "memo", "latent", "key", "prefix")

    def __init__(self, query_id: str, seed: str, latent: dict[str, float]):
        self.query_id = query_id
        self.memo: dict[tuple[str, ...], dict[str, float]] = {}
        self.latent = latent
        self.key = _Keys()
        self.prefix = {kind: prefix(seed, kind, query_id) for kind in _DRAWS}


class OracleScorer(Scorer):
    """Seeded judge that remembers the current query's judgments.

    Repeated calls agree bit for bit, since every judgment is a pure
    function of the memo key and the scorer's fixed inputs; see the module
    docstring. The scorer supplies only ``_judge``, one pass over a batch;
    each call, remembered or not, is counted in the ledger, once per batch.
    """

    def __init__(
        self,
        config: OracleConfig,
        *,
        qrels: Qrels | None = None,
        latents: Mapping[tuple[str, str], float] | None = None,
        ledger: CallLedger | None = None,
    ):
        super().__init__(ledger)
        self.config = config
        self._qrels = qrels
        self._latents = dict(latents) if latents is not None else None
        self._seed = str(config.seed)
        # any id will do: its state is built as the first query's would be
        self._state = self._query_state("")

    def _query_state(self, query_id: str) -> _QueryState:
        """A fresh state for one query, its latent table reading the scorer's source."""
        qrels = self._qrels
        if self._latents is None and qrels is not None:
            latent = _Grades(qrels.judged(query_id), qrels.max_grade(query_id))
        else:
            latent = _Table(functools.partial(self.latent, query_id))
        return _QueryState(query_id, self._seed, latent)

    def latent(self, query_id: str, doc_id: str) -> float:
        """Latent relevance g of one document, computed afresh.

        The judges read it through the current query's latent table, which
        under explicit or seeded latents calls this once per document, and
        under qrels gives the same value from the grades it read once.
        """
        if self._latents is not None:
            try:
                return self._latents[(query_id, doc_id)]
            except KeyError:
                raise ValidationError(
                    f"no latent relevance for ({query_id}, {doc_id})"
                ) from None
        if self._qrels is not None:
            top = self._qrels.max_grade(query_id)
            return self._qrels.grade(query_id, doc_id) / top if top > 0 else 0.0
        return unit_uniform(self._seed, "latent", query_id, doc_id)

    def _pointwise(self, state: _QueryState, request: JudgeRequest) -> dict[str, float]:
        cfg = self.config
        doc_id = request.docs[0].doc_id
        diff = 2.0 * state.latent[doc_id] - 1.0
        if cfg.bias_amplitude > 0.0:
            diff += cfg.bias_amplitude * normal_from(state.prefix["bias"], state.key[doc_id])
        if cfg.noise_sigma > 0.0:
            diff += cfg.noise_sigma * normal_from(state.prefix["pointwise"], state.key[doc_id])
        return {"yes": 0.5 * diff, "no": -0.5 * diff}

    def _duel(self, state: _QueryState, request: JudgeRequest) -> dict[str, float]:
        doc_a, doc_b = request.docs
        id_a, id_b = doc_a.doc_id, doc_b.doc_id
        g_a = state.latent[id_a]
        g_b = state.latent[id_b]
        sigma = self.config.noise_sigma
        if request.kind == "triplet":
            sigma += self.config.ref_noise_scale * (1.0 - g_b)
        eps = 0.0
        # keyed by the unordered pair, signed by orientation: swap-exact
        if sigma > 0.0 and id_a != id_b:
            lo, hi, signed = (id_a, id_b, sigma) if id_a < id_b else (id_b, id_a, -sigma)
            key = state.key
            eps = signed * normal_from(state.prefix[request.kind], key[lo] + key[hi])
        return {"A": g_a + 0.5 * eps, "B": g_b - 0.5 * eps}

    def _setwise(self, state: _QueryState, request: JudgeRequest) -> dict[str, float]:
        sigma = self.config.noise_sigma
        latent = state.latent
        docs = request.docs
        if sigma == 0.0:
            return {label: latent[doc.doc_id] for label, doc in zip(request.labels, docs)}
        group_key = stable_digest(*sorted(doc.doc_id for doc in docs)).hex()
        group = extend(state.prefix["setwise"], group_key)
        key = state.key
        return {
            label: latent[doc.doc_id] + sigma * normal_from(group, key[doc.doc_id])
            for label, doc in zip(request.labels, docs)
        }

    _JUDGES = {
        "pointwise": _pointwise,
        "triplet": _duel,
        "duel": _duel,
        "setwise": _setwise,
    }

    def _judge(self, requests: Sequence[JudgeRequest]):
        """(results, errors by index in index order), a result None where it failed.

        One pass over the batch. Each request builds its memo key and prompt
        character count and looks up the memo; a miss runs its kind's judge,
        read from ``_JUDGES`` at call time, and checks the answer before it
        is remembered, so the memo holds only good answers. Each result is
        a copy, so that a caller editing its answer cannot change a later
        one. The ledger counts the batch's answers once, on the way out, so
        those before an exception, an interrupt included, still count.
        """
        results: list[dict[str, float] | None] = []
        append = results.append
        errors: dict[int, Exception] = {}
        calls = dict.fromkeys(KINDS, 0)
        prompt_chars = 0
        judges = self._JUDGES
        state = self._state
        try:
            for index, request in enumerate(requests):
                kind = request.kind
                docs = request.docs
                query = request.query
                chars = len(query.text)
                if len(docs) == 2:
                    doc_a, doc_b = docs
                    chars += len(doc_a.text) + len(doc_b.text)
                    key = (kind, doc_a.doc_id, doc_b.doc_id)
                else:
                    parts = [kind]
                    for doc in docs:
                        chars += len(doc.text)
                        parts.append(doc.doc_id)
                    key = tuple(parts)
                if state.query_id != query.id:
                    # replaced in one assignment, so that concurrent callers
                    # never see one query's state under another query's id
                    state = self._state = self._query_state(query.id)
                logits = state.memo.get(key)
                if logits is None:
                    try:
                        logits = judges[kind](self, state, request)
                        check_labels(request, logits)
                    except HarnessError as exc:
                        append(None)
                        errors[index] = exc
                        continue
                    state.memo[key] = logits
                append(logits.copy())
                calls[kind] += 1
                prompt_chars += chars
        finally:
            for kind, count in calls.items():
                if count:
                    # the ledger keeps one character total, so one record carries it
                    self.ledger.record(kind, prompt_chars, calls=count)
                    prompt_chars = 0
        return results, errors
