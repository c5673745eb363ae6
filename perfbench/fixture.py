"""Seeded fixture generator: run, corpus JSONL, queries TSV and qrels files.

Standard library only (numpy is a test-only extra of the package). The same
(workload, seed) always writes byte-identical files.

Each query gets ``depth`` first-stage candidates. A doc's hidden relevance
blends its first-stage position with a uniform draw, so the first stage is
informative but imperfect, and qrels grades 3/2/1/0 go to the top 10%, next
20%, next 30% and the rest by that relevance. Grade-0 docs are judged too, as
in pooled TREC qrels.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from perfbench.workloads import Workload

RANK_CORRELATION = 0.6
_SYLLABLES = (
    "ba", "co", "di", "fe", "ga", "hi", "jo", "ku", "la", "me", "ni", "po",
    "qua", "re", "si", "tu", "ve", "wo", "xi", "yu", "za", "ten", "mor", "lin",
)


def _vocabulary(rng: random.Random, size: int = 1500) -> list[str]:
    words: set[str] = set()
    while len(words) < size:
        words.add("".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(1, 4))))
    return sorted(words)


def _grade(position: int, n: int) -> int:
    fraction = position / n
    if fraction < 0.10:
        return 3
    if fraction < 0.30:
        return 2
    if fraction < 0.60:
        return 1
    return 0


def fixture_paths(directory) -> dict[str, Path]:
    directory = Path(directory)
    return {
        "run": directory / "first_stage.run",
        "corpus": directory / "corpus.jsonl",
        "queries": directory / "queries.tsv",
        "qrels": directory / "qrels.txt",
    }


def write_fixture(workload: Workload, seed: int, directory) -> dict[str, Path]:
    """Write the four input files for ``workload`` at ``seed``; return their paths."""
    rng = random.Random(f"refrank-perfbench:{workload.name}:{seed}")
    vocab = _vocabulary(rng)
    paths = fixture_paths(directory)
    Path(directory).mkdir(parents=True, exist_ok=True)
    run_lines, corpus_lines, query_lines, qrels_lines = [], [], [], []
    used_ids: set[str] = set()
    n = workload.depth
    for qi in range(workload.queries):
        query_id = f"{1000 + qi}"
        query_words = rng.sample(vocab, rng.randint(3, 8))
        query_lines.append(f"{query_id}\t{' '.join(query_words)}")
        score = 30.0 + rng.random()
        relevance = []
        doc_ids = []
        for position in range(n):
            doc_id = f"p{rng.getrandbits(40):010x}"
            while doc_id in used_ids:
                doc_id = f"p{rng.getrandbits(40):010x}"
            used_ids.add(doc_id)
            doc_ids.append(doc_id)
            score -= 0.01 + 0.2 * rng.random()
            run_lines.append(f"{query_id} Q0 {doc_id} {position + 1} {score:.4f} bm25")
            words = [rng.choice(vocab) for _ in range(rng.randint(40, 90))]
            for word in query_words[: rng.randint(0, len(query_words))]:
                words[rng.randrange(len(words))] = word
            record = {"id": doc_id, "contents": " ".join(words)}
            if rng.random() < 0.5:
                record["title"] = " ".join(rng.sample(vocab, rng.randint(2, 6))).title()
            corpus_lines.append(json.dumps(record, sort_keys=True))
            baseline = 1.0 - position / n
            relevance.append(RANK_CORRELATION * baseline + (1.0 - RANK_CORRELATION) * rng.random())
        order = sorted(range(n), key=lambda i: -relevance[i])
        for position, index in enumerate(order):
            qrels_lines.append(f"{query_id} 0 {doc_ids[index]} {_grade(position, n)}")
    contents = {
        "run": run_lines,
        "corpus": corpus_lines,
        "queries": query_lines,
        "qrels": qrels_lines,
    }
    for key, lines in contents.items():
        paths[key].write_text("\n".join(lines) + "\n", encoding="utf-8")
    return paths
