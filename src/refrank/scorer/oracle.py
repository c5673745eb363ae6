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
map, qrels grades normalized per query (see oracle_latent), or seeded
per-document uniform draws.

Each scorer remembers the judgments of the query it is judging now, keyed
by (kind, ordered doc ids). With the query id that the memo is bound to,
that key holds every input a judgment reads (the seed, the config and the
latent source are fixed per scorer), so a remembered answer is the one a
fresh computation would give. Document text feeds only the prompt
character count, which is computed on every call.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from .._seeded import stable_digest, std_normal, unit_uniform
from ..datamodel import CallLedger, DocCandidate, Qrels, ValidationError
from .base import JudgeRequest, Scorer


def oracle_latent(doc: DocCandidate, qrels: Qrels, query_id: str) -> float:
    """Latent relevance from qrels: grade over the query's maximum grade.

    Docs absent from qrels get 0.0, and a query whose grades are all zero
    maps every doc to 0.0.
    """
    top = qrels.max_grade(query_id)
    if top <= 0:
        return 0.0
    return qrels.grade(query_id, doc.doc_id) / top


@dataclass(frozen=True)
class OracleConfig:
    """Knobs for the synthetic judge; see the module docstring for the math."""

    seed: int
    noise_sigma: float = 0.0
    bias_amplitude: float = 0.0
    ref_noise_scale: float = 0.0

    def __post_init__(self):
        if self.noise_sigma < 0:
            raise ValidationError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.bias_amplitude < 0:
            raise ValidationError(
                f"bias_amplitude must be >= 0, got {self.bias_amplitude}"
            )
        if self.ref_noise_scale < 0:
            raise ValidationError(
                f"ref_noise_scale must be >= 0, got {self.ref_noise_scale}"
            )


class OracleScorer(Scorer):
    """Seeded judge that remembers the current query's judgments.

    Repeated calls agree bit for bit, since every judgment is a pure
    function of the memo key and the scorer's fixed inputs; see the module
    docstring. Each call, remembered or not, is counted in the ledger.
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
        # (query id, {(kind, *doc ids): logits}), replaced in one assignment
        # so that concurrent callers never see one query's dict under another
        # query's id.
        self._memo: tuple[str | None, dict] = (None, {})

    def latent(self, query_id: str, doc: DocCandidate) -> float:
        if self._latents is not None:
            try:
                return self._latents[(query_id, doc.doc_id)]
            except KeyError:
                raise ValidationError(
                    f"no latent relevance for ({query_id}, {doc.doc_id})"
                ) from None
        if self._qrels is not None:
            return oracle_latent(doc, self._qrels, query_id)
        return unit_uniform(self._seed, "latent", query_id, doc.doc_id)

    def _pair_noise(self, kind: str, query_id: str, id_a: str, id_b: str, sigma: float) -> float:
        # Keyed by the unordered pair, signed by orientation: swap-exact.
        if sigma <= 0.0 or id_a == id_b:
            return 0.0
        lo, hi = (id_a, id_b) if id_a < id_b else (id_b, id_a)
        draw = std_normal(self._seed, kind, query_id, lo, hi)
        return sigma * draw if id_a == lo else -sigma * draw

    def _pointwise(self, request: JudgeRequest) -> dict[str, float]:
        cfg = self.config
        query_id = request.query.id
        (doc,) = request.docs
        diff = 2.0 * self.latent(query_id, doc) - 1.0
        if cfg.bias_amplitude > 0.0:
            diff += cfg.bias_amplitude * std_normal(self._seed, "bias", query_id, doc.doc_id)
        if cfg.noise_sigma > 0.0:
            diff += cfg.noise_sigma * std_normal(
                self._seed, "pointwise", query_id, doc.doc_id
            )
        return {"yes": 0.5 * diff, "no": -0.5 * diff}

    def _duel(self, request: JudgeRequest, ref_noise_scale: float = 0.0) -> dict[str, float]:
        cfg = self.config
        query_id = request.query.id
        doc_a, doc_b = request.docs
        g_a = self.latent(query_id, doc_a)
        g_b = self.latent(query_id, doc_b)
        sigma = cfg.noise_sigma + ref_noise_scale * (1.0 - g_b)
        eps = self._pair_noise(request.kind, query_id, doc_a.doc_id, doc_b.doc_id, sigma)
        return {"A": g_a + 0.5 * eps, "B": g_b - 0.5 * eps}

    def _triplet(self, request: JudgeRequest) -> dict[str, float]:
        return self._duel(request, self.config.ref_noise_scale)

    def _setwise(self, request: JudgeRequest) -> dict[str, float]:
        cfg = self.config
        query_id = request.query.id
        group_key = stable_digest(*sorted(d.doc_id for d in request.docs)).hex()
        values: dict[str, float] = {}
        for label, doc in zip(request.labels, request.docs):
            logit = self.latent(query_id, doc)
            if cfg.noise_sigma > 0.0:
                logit += cfg.noise_sigma * std_normal(
                    self._seed, "setwise", query_id, group_key, doc.doc_id
                )
            values[label] = logit
        return values

    _JUDGES = {
        "pointwise": _pointwise,
        "triplet": _triplet,
        "duel": _duel,
        "setwise": _setwise,
    }

    def _score_one(self, request: JudgeRequest) -> tuple[dict[str, float], int]:
        chars = len(request.query.text)
        parts = [request.kind]
        for doc in request.docs:
            chars += len(doc.text)
            parts.append(doc.doc_id)
        key = tuple(parts)
        query_id, memo = self._memo
        if query_id != request.query.id:
            memo = {}
            self._memo = (request.query.id, memo)
        logits = memo.get(key)
        if logits is None:
            logits = memo[key] = self._JUDGES[request.kind](self, request)
        # a copy, so that a caller editing its answer cannot change a later one
        return dict(logits), chars
