"""Parsers and writers for the standard retrieval experiment file formats.

Formats handled:

  run file  ``<qid> Q0 <docid> <rank> <score> <tag>`` (whitespace separated);
            read back as each query's doc ids in rank order, each rank and
            score checked, then dropped
  qrels     ``<qid> 0 <docid> <grade>``
  corpus    JSON Lines with keys "id" (a string or integer), "contents" (a
            string), optional "title" (a string or null); a passage is
            title + " " + contents when the title is non-empty
  queries   TSV ``<qid>\\t<text>``

Parsers are pure functions of file contents, and arbitrary bytes never
crash them. A line that fails to parse, repeats a unique key or lacks a
required field is a ParseError naming the path and line number: one error
type for every bad line. Every file must be UTF-8: a line that is not is a
ParseError too. Blank lines are skipped, and counted when a ParseWarnings
sink is given.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from .datamodel import (
    CandidateList,
    DocCandidate,
    HarnessError,
    Qrels,
    Query,
    Ranking,
    ValidationError,
)


class ParseError(HarnessError):
    """A line failed to parse; message carries the path and line number."""

    def __init__(self, path, line_number: int, message: str):
        self.path = str(path)
        self.line_number = line_number
        super().__init__(f"{path}:{line_number}: {message}")


@dataclass
class ParseWarnings:
    """Counts of tolerated oddities seen while parsing."""

    blank_lines: int = 0
    duplicate_qrel_pairs: int = 0


def _lines(path, warnings: ParseWarnings | None):
    """Yield (line number, line) for each non-blank line; count blank ones in warnings.

    A line that is not valid UTF-8 is a ParseError: replacing its bad bytes
    would let two different ids read as one.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        for line_number, raw in enumerate(handle, start=1):
            line = raw.rstrip("\r\n")
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as exc:
                    # surrogateescape keeps each undecodable byte b as U+DC00 + b
                    byte = ord(line[exc.start]) - 0xDC00
                    raise ParseError(
                        path, line_number,
                        f"not valid UTF-8 (byte 0x{byte:02x} at column {exc.start + 1})",
                    ) from None
            if line.strip():
                yield line_number, line
            elif warnings is not None:
                warnings.blank_lines += 1


def parse_run_file(path, warnings: ParseWarnings | None = None) -> dict[str, list[str]]:
    """Read a six-column run file into each query's doc ids in rank order.

    A run file without entries is an error, and so is a query that repeats
    a doc or a rank: the ranks alone fix the first-stage order. Each score
    must be a finite number, and is dropped once checked.
    """
    per_query: dict[str, list[tuple[int, str]]] = {}
    seen: set[tuple[str, str]] = set()
    rank_lines: dict[tuple[str, int], int] = {}
    for line_number, line in _lines(path, warnings):
        fields = line.split()
        if len(fields) != 6:
            raise ParseError(path, line_number, f"expected 6 fields, found {len(fields)}")
        query_id, _literal, doc_id, rank_text, score_text, _tag = fields
        try:
            rank = int(rank_text)
        except ValueError:
            raise ParseError(path, line_number, f"rank {rank_text!r} is not an integer") from None
        if rank < 1:
            raise ParseError(path, line_number, f"rank must be >= 1, got {rank}")
        try:
            score = float(score_text)
        except ValueError:
            raise ParseError(path, line_number, f"score {score_text!r} is not a number") from None
        if not math.isfinite(score):
            raise ParseError(path, line_number, f"score {score_text!r} is not finite")
        if (query_id, doc_id) in seen:
            raise ParseError(
                path, line_number, f"duplicate (query, doc) pair ({query_id}, {doc_id})"
            )
        seen.add((query_id, doc_id))
        first_line = rank_lines.setdefault((query_id, rank), line_number)
        if first_line != line_number:
            raise ParseError(
                path, line_number, f"query {query_id} repeats rank {rank} from line {first_line}"
            )
        per_query.setdefault(query_id, []).append((rank, doc_id))
    if not per_query:
        raise ValidationError(f"run file {path} has no entries")
    return {
        query_id: [doc_id for _, doc_id in sorted(ranked)]
        for query_id, ranked in per_query.items()
    }


def parse_qrels(path, warnings: ParseWarnings | None = None) -> Qrels:
    """Read TREC qrels; a repeated (query, doc) pair keeps the last grade."""
    grades: dict[str, dict[str, int]] = {}
    for line_number, line in _lines(path, warnings):
        fields = line.split()
        if len(fields) != 4:
            raise ParseError(path, line_number, f"expected 4 fields, found {len(fields)}")
        query_id, _iteration, doc_id, grade_text = fields
        try:
            grade = int(grade_text)
        except ValueError:
            raise ParseError(path, line_number, f"grade {grade_text!r} is not an integer") from None
        if grade < 0:
            raise ParseError(path, line_number, f"grade must be nonnegative, got {grade}")
        query_grades = grades.setdefault(query_id, {})
        if doc_id in query_grades and warnings is not None:
            warnings.duplicate_qrel_pairs += 1
        query_grades[doc_id] = grade
    return Qrels(grades)


def parse_corpus_jsonl(path, warnings: ParseWarnings | None = None) -> dict[str, str]:
    """Read a JSONL corpus into a map id -> passage text.

    The passage text is title + " " + contents when the record has a
    non-empty title, else contents.
    """
    records: dict[str, str] = {}
    for line_number, line in _lines(path, warnings):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(path, line_number, f"invalid JSON: {exc.msg}") from None
        if not isinstance(obj, dict):
            raise ParseError(path, line_number, "expected a JSON object")
        for key in ("id", "contents"):
            if key not in obj:
                raise ParseError(path, line_number, f"missing {key!r} key")
        doc_id, contents, title = obj["id"], obj["contents"], obj.get("title")
        if isinstance(doc_id, bool) or not isinstance(doc_id, (str, int)):
            raise ParseError(path, line_number, "'id' must be a string or an integer")
        if not isinstance(contents, str):
            raise ParseError(path, line_number, "'contents' must be a string")
        if not isinstance(title, (str, type(None))):
            raise ParseError(path, line_number, "'title' must be a string or null")
        doc_id = str(doc_id)
        if not doc_id:
            raise ParseError(path, line_number, "empty doc id")
        if doc_id in records:
            raise ParseError(path, line_number, f"duplicate doc id {doc_id!r}")
        records[doc_id] = f"{title} {contents}" if title else contents
    return records


def parse_queries_tsv(path, warnings: ParseWarnings | None = None) -> list[Query]:
    """Read ``qid<TAB>text`` lines into Query objects, in file order."""
    queries: list[Query] = []
    seen: set[str] = set()
    for line_number, line in _lines(path, warnings):
        if "\t" not in line:
            raise ParseError(path, line_number, "expected <qid><TAB><text>")
        query_id, text = line.split("\t", 1)
        if query_id in seen:
            raise ParseError(path, line_number, f"duplicate query id {query_id!r}")
        try:
            query = Query(query_id, text)
        except ValidationError as exc:
            raise ParseError(path, line_number, str(exc)) from exc
        seen.add(query_id)
        queries.append(query)
    return queries


def _check_token(value: str, what: str) -> str:
    # "".split() is [], and any whitespace character splits the value
    if value.split() != [value]:
        raise ValidationError(f"{what} {value!r} must be nonempty and whitespace-free")
    return value


def write_run_file(rankings: Sequence[Ranking], tag: str, path) -> None:
    """Write rankings as six-column run lines, queries in input order.

    Each line's rank is the doc's position in its ranking, from 1. Scores
    are serialized with six decimal places so golden files are stable across
    platforms; (query, doc, rank) round-trips exactly through parse_run_file.
    """
    _check_token(tag, "run tag")
    with open(path, "w", encoding="utf-8") as out:
        for ranking in rankings:
            query_id = _check_token(ranking.query_id, "query id")
            for rank, (doc_id, score) in enumerate(zip(ranking.doc_ids, ranking.scores), start=1):
                _check_token(doc_id, "doc id")
                out.write(f"{query_id} Q0 {doc_id} {rank} {score:.6f} {tag}\n")


def assemble_experiment(
    run_path,
    corpus_path,
    queries_path,
    depth: int = 100,
    warnings: ParseWarnings | None = None,
) -> list[CandidateList]:
    """Join a run file, corpus, and queries into per-query candidate lists.

    Each query's doc ids, in rank order, are truncated to ``depth`` and
    kept in that order, so a document's first-stage rank is its position in
    the list; the run file's own rank values are not kept. Docs within the
    truncated pool must resolve in the corpus. Blank lines in all three
    files are counted in ``warnings``.
    """
    if depth < 1:
        raise ValidationError(f"depth must be >= 1, got {depth}")
    run = parse_run_file(run_path, warnings)
    corpus = parse_corpus_jsonl(corpus_path, warnings)
    queries: Mapping[str, Query] = {
        q.id: q for q in parse_queries_tsv(queries_path, warnings)
    }

    missing_queries = [query_id for query_id in run if query_id not in queries]
    if missing_queries:
        raise HarnessError(
            "run queries missing from queries file: " + ", ".join(sorted(missing_queries))
        )
    kept = {query_id: doc_ids[:depth] for query_id, doc_ids in run.items()}
    missing_docs = sorted({
        doc_id for doc_ids in kept.values() for doc_id in doc_ids if doc_id not in corpus
    })
    if missing_docs:
        preview = ", ".join(missing_docs[:10]) + (", ..." if len(missing_docs) > 10 else "")
        raise HarnessError(f"{len(missing_docs)} run doc(s) missing from corpus: {preview}")

    lists: list[CandidateList] = []
    for query_id, doc_ids in kept.items():
        try:
            docs = tuple(DocCandidate(doc_id, corpus[doc_id]) for doc_id in doc_ids)
        except ValidationError as exc:
            raise ValidationError(f"{corpus_path}: {exc}") from exc
        lists.append(CandidateList(queries[query_id], docs))
    return lists
