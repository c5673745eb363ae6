"""The README's "Library use" block and its CLI commands run as written.

Each is read from README.md and run in a directory holding the four files
it names, built from a tiny synthetic experiment, so a name or a flag the
package no longer has fails here.
"""

import re
import shlex
from pathlib import Path

from click.testing import CliRunner

from refrank.cli import cli

from synth import make_synth, write_experiment_files

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_block() -> str:
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Library use\n\n```python\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
    assert match, "README.md has no python block under '## Library use'"
    return match.group(1)


def cli_commands() -> list[list[str]]:
    """The ``refrank`` commands of the sh block under '## CLI', continuations joined."""
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## CLI\n.*?^```sh\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
    assert match, "README.md has no sh block under '## CLI'"
    block = re.sub(r"^#.*\n", "", match.group(1), flags=re.MULTILINE).replace("\\\n", " ")
    return [shlex.split(line) for line in block.splitlines() if line.strip()]


def test_cli_block_runs(tmp_path, monkeypatch):
    # 20 candidates a query, since the block sweeps --ref-topk 20
    run_path, *_ = write_experiment_files(make_synth(2, 20, seed=4), tmp_path)
    run_path.rename(tmp_path / "bm25.run")
    monkeypatch.chdir(tmp_path)
    commands = cli_commands()
    assert [command[:2] for command in commands] == [
        ["refrank", "rerank"], ["refrank", "analyze"], ["refrank", "eval"], ["refrank", "bench"]
    ]
    for command in commands:  # in order: eval reads the run file rerank writes
        result = CliRunner().invoke(cli, command[1:], catch_exceptions=False)
        assert result.exit_code == 0, (command, result.output)


def test_library_use_block_runs(tmp_path, monkeypatch, capsys):
    run_path, *_ = write_experiment_files(make_synth(2, 6, seed=4), tmp_path)
    run_path.rename(tmp_path / "bm25.run")
    monkeypatch.chdir(tmp_path)
    exec(compile(library_use_block(), str(README), "exec"), {"__name__": "readme"})
    mean, counts = capsys.readouterr().out.splitlines()
    assert 0.0 <= float(mean) <= 1.0
    # refrank-multiple with five anchors over 2 queries of 6 candidates
    assert counts == str({"pointwise": 0, "triplet": 60, "duel": 0, "setwise": 0})
