"""The README's "Library use" block runs as written.

The block is read from README.md and run in a directory holding the four
files it names, built from a tiny synthetic experiment, so a name the
package no longer has fails here.
"""

import re
from pathlib import Path

from synth import make_synth, write_experiment_files

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_block() -> str:
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Library use\n\n```python\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
    assert match, "README.md has no python block under '## Library use'"
    return match.group(1)


def test_library_use_block_runs(tmp_path, monkeypatch, capsys):
    run_path, *_ = write_experiment_files(make_synth(2, 6, seed=4), tmp_path)
    run_path.rename(tmp_path / "bm25.run")
    monkeypatch.chdir(tmp_path)
    exec(compile(library_use_block(), str(README), "exec"), {"__name__": "readme"})
    mean, counts = capsys.readouterr().out.splitlines()
    assert 0.0 <= float(mean) <= 1.0
    # refrank-multiple with five anchors over 2 queries of 6 candidates
    assert counts == str({"pointwise": 0, "triplet": 60, "duel": 0, "setwise": 0})
