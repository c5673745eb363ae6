import sys

import numpy as np
import pytest

from refrank.datamodel import (
    CandidateList,
    DocCandidate,
    HarnessError,
    Ranking,
    ValidationError,
    build_ranking,
)
from refrank.io import (
    MissingDocsError,
    ParseError,
    ParseWarnings,
    _check_token,
    assemble_experiment,
    parse_corpus_jsonl,
    parse_qrels,
    parse_queries_tsv,
    parse_run_file,
    write_run_file,
)


class TestParseRunFile:
    def test_basic_line(self, tmp_path):
        path = tmp_path / "a.run"
        path.write_text("q1 Q0 d3 1 14.2 bm25\n")
        run = parse_run_file(path)
        assert run == {"q1": ["d3"]}

    def test_sorted_by_rank(self, tmp_path):
        path = tmp_path / "a.run"
        path.write_text("q1 Q0 d2 2 1.0 t\nq1 Q0 d1 1 2.0 t\n")
        run = parse_run_file(path)
        assert run["q1"] == ["d1", "d2"]

    def test_five_fields_is_error_with_line_number(self, tmp_path):
        path = tmp_path / "a.run"
        path.write_text("q1 Q0 d3 1 14.2 bm25\nq1 Q0 d4 2 13.0\n")
        with pytest.raises(ParseError) as exc:
            parse_run_file(path)
        assert exc.value.line_number == 2

    def test_duplicate_query_doc_pair(self, tmp_path):
        path = tmp_path / "a.run"
        path.write_text("q1 Q0 d3 1 14.2 t\nq1 Q0 d3 2 13.0 t\n")
        with pytest.raises(ParseError, match=r"a\.run:2: duplicate \(query, doc\) pair \(q1, d3\)"):
            parse_run_file(path)

    def test_repeated_rank_names_its_line(self, tmp_path):
        path = tmp_path / "a.run"
        path.write_text("q1 Q0 d2 1 5.0 bm25\nq2 Q0 d2 1 5.0 bm25\nq1 Q0 d1 1 9.0 bm25\n")
        with pytest.raises(ParseError, match=r"a\.run:3: query q1 repeats rank 1 from line 1$"):
            parse_run_file(path)

    @pytest.mark.parametrize(
        "line", ["q1 Q0 d3 x 14.2 t", "q1 Q0 d3 0 14.2 t", "q1 Q0 d3 1 abc t", "q1 Q0 d3 1 nan t"]
    )
    def test_bad_rank_or_score(self, tmp_path, line):
        path = tmp_path / "a.run"
        path.write_text(line + "\n")
        with pytest.raises(ParseError):
            parse_run_file(path)

    def test_blank_lines_counted(self, tmp_path):
        path = tmp_path / "a.run"
        path.write_text("\nq1 Q0 d3 1 14.2 t\n\n")
        warnings = ParseWarnings()
        parse_run_file(path, warnings)
        assert warnings.blank_lines == 2

    def test_arbitrary_bytes_fail_structurally(self, tmp_path):
        path = tmp_path / "a.run"
        path.write_bytes(b"\xff\xfe garbage \x00\n")
        with pytest.raises(ParseError):
            parse_run_file(path)


@pytest.mark.parametrize(
    "parse, first_line, bad_line",
    [
        (parse_run_file, b"q1 Q0 d1 1 2.0 t", b"q1 Q0 d\xff1 2 1.0 t"),
        (parse_qrels, b"q1 0 d1 1", b"q1 0 d\xff1 1"),
        (parse_corpus_jsonl, b'{"id": "d1", "contents": "x"}', b'{"id": "d\xff1", "contents": "x"}'),
        (parse_queries_tsv, b"q1\tfirst", b"q2\tsecond \xff"),
    ],
    ids=["run", "qrels", "corpus", "queries"],
)
def test_invalid_utf8_is_a_parse_error_naming_the_line(tmp_path, parse, first_line, bad_line):
    path = tmp_path / "input"
    path.write_bytes(first_line + b"\r\n" + bad_line + b"\n")
    with pytest.raises(ParseError, match=r"input:2: not valid UTF-8 \(byte 0xff at column \d+\)$"):
        parse(path)


class TestParseQrels:
    def test_basic(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d3 2\n")
        qrels = parse_qrels(path)
        assert qrels.grade("q1", "d3") == 2
        assert qrels.grade("q1", "d9") == 0

    def test_non_integer_grade(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d3 x\n")
        with pytest.raises(ParseError) as exc:
            parse_qrels(path)
        assert exc.value.line_number == 1

    def test_repeated_pair_keeps_last_and_warns(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d3 1\nq1 0 d3 3\n")
        warnings = ParseWarnings()
        qrels = parse_qrels(path, warnings)
        assert qrels.grade("q1", "d3") == 3
        assert warnings.duplicate_qrel_pairs == 1

    def test_negative_grade(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d3 -1\n")
        with pytest.raises(ParseError):
            parse_qrels(path)

    @pytest.mark.parametrize("line", ["q1 0 d3", "q1 0 d3 1 extra"])
    def test_wrong_field_count_names_its_line(self, tmp_path, line):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 1\n" + line + "\n")
        with pytest.raises(ParseError, match=r"qrels\.txt:2: expected 4 fields"):
            parse_qrels(path)


class TestParseCorpus:
    def test_basic(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id":"d1","contents":"abc"}\n')
        assert parse_corpus_jsonl(path) == {"d1": "abc"}

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id":"d1","contents":"a"}\n{"id":"d1","contents":"b"}\n')
        with pytest.raises(ParseError, match=r"c\.jsonl:2: duplicate doc id 'd1'$"):
            parse_corpus_jsonl(path)

    def test_missing_contents(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id":"d1"}\n')
        with pytest.raises(ParseError, match=r"c\.jsonl:1: missing 'contents' key$"):
            parse_corpus_jsonl(path)

    def test_invalid_json_has_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id":"d1","contents":"a"}\n{oops\n')
        with pytest.raises(ParseError) as exc:
            parse_corpus_jsonl(path)
        assert exc.value.line_number == 2

    def test_title_concatenation(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            '{"id":"d1","contents":"body","title":"Head"}\n'
            '{"id":"d2","contents":"body","title":""}\n'
        )
        assert parse_corpus_jsonl(path) == {"d1": "Head body", "d2": "body"}

    @pytest.mark.parametrize("line", [
        '{"id":"d1","contents":null}',
        '{"id":"d1","contents":["a","list"]}',
        '{"id":"d1","contents":7}',
        '{"id":"d1","contents":"a","title":3}',
        '{"id":"d1","contents":"a","title":["t"]}',
        '{"id":true,"contents":"a"}',
        '{"id":null,"contents":"a"}',
        '{"id":1.5,"contents":"a"}',
        '{"id":["d1"],"contents":"a"}',
        '{"id":"","contents":"a"}',
        '["d1","a"]',
        '"d1"',
    ])
    def test_field_of_wrong_type_names_its_line(self, tmp_path, line):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id":"d0","contents":"ok"}\n' + line + "\n")
        with pytest.raises(ParseError, match=r"c\.jsonl:2: ") as exc:
            parse_corpus_jsonl(path)
        assert exc.value.line_number == 2

    def test_integer_id_and_null_title(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id":7,"contents":"a","title":null}\n')
        assert parse_corpus_jsonl(path) == {"7": "a"}


class TestParseQueries:
    def test_basic(self, tmp_path):
        path = tmp_path / "q.tsv"
        path.write_text("q1\twhat is x\n")
        queries = parse_queries_tsv(path)
        assert queries[0].id == "q1" and queries[0].text == "what is x"

    def test_missing_tab(self, tmp_path):
        path = tmp_path / "q.tsv"
        path.write_text("q1 what is x\n")
        with pytest.raises(ParseError):
            parse_queries_tsv(path)

    def test_duplicate_query_id(self, tmp_path):
        path = tmp_path / "q.tsv"
        path.write_text("q1\tfirst\nq1\tsecond\n")
        with pytest.raises(ParseError, match=r"q\.tsv:2: duplicate query id 'q1'"):
            parse_queries_tsv(path)

    def test_blank_text_is_a_parse_error_naming_its_line(self, tmp_path):
        path = tmp_path / "q.tsv"
        path.write_text("q0\tfine\nq1\t \n")
        with pytest.raises(ParseError, match=r"q\.tsv:2: query 'q1': text is empty$") as exc:
            parse_queries_tsv(path)
        assert (exc.value.path, exc.value.line_number) == (str(path), 2)

    def test_blank_line_skipped_and_counted(self, tmp_path):
        path = tmp_path / "q.tsv"
        path.write_text("q1\ta\n\nq2\tb\n")
        warnings = ParseWarnings()
        queries = parse_queries_tsv(path, warnings)
        assert [q.id for q in queries] == ["q1", "q2"]
        assert warnings.blank_lines == 1

    def test_text_may_contain_tabs(self, tmp_path):
        path = tmp_path / "q.tsv"
        path.write_text("q1\tleft\tright\n")
        queries = parse_queries_tsv(path)
        assert queries[0].text == "left\tright"


class TestWriteRunFile:
    def test_exact_format(self, tmp_path):
        ranking = Ranking("q1", ("d2", "d5"), (0.9, 0.1))
        path = tmp_path / "out.run"
        write_run_file([ranking], "tag", path)
        assert path.read_text() == "q1 Q0 d2 1 0.900000 tag\nq1 Q0 d5 2 0.100000 tag\n"

    def test_empty_rankings(self, tmp_path):
        path = tmp_path / "out.run"
        write_run_file([], "tag", path)
        assert path.read_text() == ""

    def test_whitespace_tag_rejected(self, tmp_path):
        ranking = Ranking("q1", ("d1",), (1.0,))
        with pytest.raises(ValidationError):
            write_run_file([ranking], "bad tag", tmp_path / "out.run")

    @pytest.mark.parametrize("space", ["\u2003", "\x1c", "\x85", "\u00a0"])
    @pytest.mark.parametrize("field", ["tag", "query id", "doc id"])
    def test_unicode_whitespace_rejected(self, tmp_path, space, field):
        token = f"x{space}y"
        tag = token if field == "tag" else "tag"
        query_id = token if field == "query id" else "q1"
        doc_id = token if field == "doc id" else "d1"
        ranking = Ranking(query_id, (doc_id,), (1.0,))
        with pytest.raises(ValidationError, match=field):
            write_run_file([ranking], tag, tmp_path / "out.run")

    def test_non_ascii_tokens_accepted(self, tmp_path):
        path = tmp_path / "out.run"
        write_run_file([Ranking("é", ("文档",), (1.0,))], "文档", path)
        assert path.read_text(encoding="utf-8") == "é Q0 文档 1 1.000000 文档\n"

    def test_token_check_rejects_exactly_the_whitespace_characters(self):
        for point in range(sys.maxunicode + 1):
            ch = chr(point)
            try:
                _check_token(f"a{ch}b", "id")
            except ValidationError:
                assert ch.isspace(), hex(point)
            else:
                assert not ch.isspace(), hex(point)
        with pytest.raises(ValidationError):
            _check_token("", "id")

    def test_round_trip_preserves_triples(self, tmp_path):
        rng = np.random.default_rng(7)
        rankings = []
        for qi in range(50):
            n = int(rng.integers(1, 20))
            docs = [DocCandidate(f"q{qi}_d{i}", "text") for i in range(n)]
            scores = rng.normal(size=n)
            rankings.append(build_ranking(f"q{qi}", list(zip(docs, scores))))
        path = tmp_path / "out.run"
        write_run_file(rankings, "t", path)
        parsed = parse_run_file(path)
        assert list(parsed) == [r.query_id for r in rankings]
        for ranking in rankings:
            assert parsed[ranking.query_id] == list(ranking.doc_ids)
        # scores survive at the serialized 6-decimal precision
        written = [float(line.split()[4]) for line in path.read_text().splitlines()]
        assert written == [float(f"{s:.6f}") for r in rankings for s in r.scores]


class TestAssembleExperiment:
    def write_inputs(self, tmp_path, n_docs=5, extra_run_doc=None):
        run_path = tmp_path / "first.run"
        corpus_path = tmp_path / "corpus.jsonl"
        queries_path = tmp_path / "queries.tsv"
        lines = [f"q1 Q0 d{i} {i} {10.0 - i:.1f} bm25" for i in range(1, n_docs + 1)]
        if extra_run_doc:
            lines.append(f"q1 Q0 {extra_run_doc} {n_docs + 1} 1.0 bm25")
        run_path.write_text("\n".join(lines) + "\n")
        corpus_path.write_text(
            "\n".join(
                f'{{"id":"d{i}","contents":"passage {i}"}}' for i in range(1, n_docs + 1)
            )
            + "\n"
        )
        queries_path.write_text("q1\twhat is x\n")
        return run_path, corpus_path, queries_path

    def test_truncates_to_depth_and_renumbers(self, tmp_path):
        run_path, corpus_path, queries_path = self.write_inputs(tmp_path, n_docs=5)
        lists = assemble_experiment(run_path, corpus_path, queries_path, depth=3)
        assert len(lists) == 1
        assert lists[0].doc_ids == ("d1", "d2", "d3")

    def test_missing_doc_in_corpus(self, tmp_path):
        run_path, corpus_path, queries_path = self.write_inputs(
            tmp_path, n_docs=3, extra_run_doc="d99"
        )
        with pytest.raises(MissingDocsError) as exc:
            assemble_experiment(run_path, corpus_path, queries_path, depth=10)
        assert exc.value.missing == ["d99"]

    def test_missing_docs_message_names_the_first_ten(self):
        missing = [f"d{i:02d}" for i in range(12)]
        message = str(MissingDocsError(reversed(missing)))
        assert message == f"12 run doc(s) missing from corpus: {', '.join(missing[:10])}, ..."

    def test_truncation_happens_before_coverage_check(self, tmp_path):
        run_path, corpus_path, queries_path = self.write_inputs(
            tmp_path, n_docs=3, extra_run_doc="d99"
        )
        lists = assemble_experiment(run_path, corpus_path, queries_path, depth=3)
        assert lists[0].doc_ids == ("d1", "d2", "d3")

    def test_depth_zero_rejected(self, tmp_path):
        run_path, corpus_path, queries_path = self.write_inputs(tmp_path)
        with pytest.raises(ValidationError):
            assemble_experiment(run_path, corpus_path, queries_path, depth=0)

    @pytest.mark.parametrize("content", ["", "\n\n"])
    def test_empty_run_file_rejected(self, tmp_path, content):
        run_path, corpus_path, queries_path = self.write_inputs(tmp_path)
        run_path.write_text(content)
        with pytest.raises(ValidationError, match="first.run"):
            assemble_experiment(run_path, corpus_path, queries_path, depth=3)

    def test_blank_passage_names_corpus_file(self, tmp_path):
        run_path, corpus_path, queries_path = self.write_inputs(tmp_path, n_docs=3)
        corpus_path.write_text(
            corpus_path.read_text().replace('"passage 2"', '"   "')
        )
        with pytest.raises(ValidationError, match=r"corpus\.jsonl: doc d2: text is empty"):
            assemble_experiment(run_path, corpus_path, queries_path, depth=3)

    def test_ids_that_differ_only_in_invalid_bytes_do_not_join(self, tmp_path):
        # decoded with replacement, both ids would read as "d\ufffd1" and join
        run_path, corpus_path, queries_path = self.write_inputs(tmp_path, n_docs=2)
        run_path.write_bytes(run_path.read_bytes() + b"q1 Q0 d\xff1 3 1.0 bm25\n")
        corpus_path.write_bytes(
            corpus_path.read_bytes() + b'{"id":"d\xfe1","contents":"passage x"}\n'
        )
        with pytest.raises(ParseError, match=r"first\.run:3: not valid UTF-8 \(byte 0xff"):
            assemble_experiment(run_path, corpus_path, queries_path, depth=3)

    def test_blank_lines_counted_in_warnings(self, tmp_path):
        run_path, corpus_path, queries_path = self.write_inputs(tmp_path)
        run_path.write_text("\n" + run_path.read_text())
        queries_path.write_text(queries_path.read_text() + "\n")
        warnings = ParseWarnings()
        assemble_experiment(run_path, corpus_path, queries_path, depth=3, warnings=warnings)
        assert warnings.blank_lines == 2

    def test_query_missing_from_queries_file(self, tmp_path):
        run_path, corpus_path, queries_path = self.write_inputs(tmp_path)
        (tmp_path / "queries.tsv").write_text("q2\tother\n")
        with pytest.raises(HarnessError):
            assemble_experiment(run_path, corpus_path, queries_path, depth=3)

    def test_title_inclusion_flag(self, tmp_path):
        run_path, corpus_path, queries_path = self.write_inputs(tmp_path, n_docs=1)
        corpus_path.write_text('{"id":"d1","contents":"body","title":"Head"}\n')
        with_title = assemble_experiment(run_path, corpus_path, queries_path, depth=1)
        assert with_title[0].docs[0].text == "Head body"

    def test_output_satisfies_invariants(self, tmp_path):
        run_path, corpus_path, queries_path = self.write_inputs(tmp_path, n_docs=5)
        lists = assemble_experiment(run_path, corpus_path, queries_path, depth=5)
        for cl in lists:
            CandidateList(cl.query, cl.docs)
