"""Seeded synthetic experiment fixtures shared across the test suite.

Each query gets n docs with a continuous latent relevance in [0, 1], drawn
so ties have probability zero. rank_correlation blends a strictly
decreasing baseline (latent falls with first-stage rank, like a good
first-stage ranker) with an independent uniform draw: 1.0 means the first
stage is perfect, 0.0 means it is uninformative. Qrels grades 0..3 are
assigned by latent quantile (top 10% grade 3, next 20% grade 2, next 30%
grade 1), so the ideal graded ordering agrees with descending latent.
"""

from dataclasses import dataclass

import numpy as np

from refrank.datamodel import CandidateList, DocCandidate, Qrels, Query


@dataclass
class SynthData:
    lists: list[CandidateList]
    qrels: Qrels
    latents: dict[tuple[str, str], float]


def grade_for_fraction(fraction: float) -> int:
    """Map a doc's latent-order fraction (0 = best) to a 0..3 grade."""
    if fraction < 0.10:
        return 3
    if fraction < 0.30:
        return 2
    if fraction < 0.60:
        return 1
    return 0


def make_synth(
    n_queries: int,
    n_docs: int,
    seed: int,
    rank_correlation: float = 0.0,
    prefix: str = "q",
) -> SynthData:
    rng = np.random.default_rng(seed)
    lists: list[CandidateList] = []
    latents: dict[tuple[str, str], float] = {}
    grades: dict[str, dict[str, int]] = {}
    baseline = np.linspace(1.0, 0.0, n_docs)
    for qi in range(n_queries):
        qid = f"{prefix}{qi:04d}"
        query = Query(qid, f"synthetic query {qid}")
        noise = rng.random(n_docs)
        latent = rank_correlation * baseline + (1.0 - rank_correlation) * noise
        docs = []
        for di in range(n_docs):
            doc_id = f"{qid}_d{di:03d}"
            docs.append(DocCandidate(doc_id, f"passage {qid} {di}"))
            latents[(qid, doc_id)] = float(latent[di])
        # grade by latent order: position p of n -> fraction p/n
        order = np.argsort(-latent)
        query_grades = {}
        for position, di in enumerate(order):
            grade = grade_for_fraction(position / n_docs)
            if grade > 0:
                query_grades[docs[di].doc_id] = grade
        grades[qid] = query_grades
        lists.append(CandidateList(query, docs))
    return SynthData(lists=lists, qrels=Qrels(grades), latents=latents)


def shortest_last(data: SynthData, n_docs: int) -> SynthData:
    """The same data with the last query's list cut to its first n_docs docs."""
    last = data.lists[-1]
    lists = [*data.lists[:-1], CandidateList(last.query, last.docs[:n_docs])]
    return SynthData(lists=lists, qrels=data.qrels, latents=data.latents)


def write_experiment_files(data: SynthData, directory, tag: str = "bm25"):
    """Materialize a SynthData as run/corpus/queries/qrels files for CLI tests."""
    directory.mkdir(parents=True, exist_ok=True)
    run_path = directory / "first_stage.run"
    corpus_path = directory / "corpus.jsonl"
    queries_path = directory / "queries.tsv"
    qrels_path = directory / "qrels.txt"
    import json

    with open(run_path, "w", encoding="utf-8") as run_out, open(
        corpus_path, "w", encoding="utf-8"
    ) as corpus_out, open(queries_path, "w", encoding="utf-8") as queries_out, open(
        qrels_path, "w", encoding="utf-8"
    ) as qrels_out:
        for cl in data.lists:
            queries_out.write(f"{cl.query.id}\t{cl.query.text}\n")
            for rank, doc in enumerate(cl.docs, start=1):
                run_out.write(
                    f"{cl.query.id} Q0 {doc.doc_id} {rank} {len(cl) - rank + 1:.6f} {tag}\n"
                )
                corpus_out.write(json.dumps({"id": doc.doc_id, "contents": doc.text}) + "\n")
            for doc_id, grade in data.qrels.judged(cl.query.id).items():
                qrels_out.write(f"{cl.query.id} 0 {doc_id} {grade}\n")
    return run_path, corpus_path, queries_path, qrels_path
