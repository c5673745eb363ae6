"""Print each line of src/refrank that the tier-1 suite never runs.

Usage, from the repository root:

    python tools/untested_lines.py [pytest arguments]

Runs pytest in this process, on every thread, under a line tracer that
follows only frames from src/refrank, then prints each executable line (as
the compiled code objects list them) that never ran, as ``path:line:
source``. Code that only a subprocess runs, such as ``python -m refrank``,
shows as untested, and a line that only a race reaches may show in one run
and not the next, so this is a report, not a gate. Exits with pytest's status.
"""

import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "refrank"
FILES = {str(path): path for path in sorted(PACKAGE.rglob("*.py"))}
ran: set[tuple[str, int]] = set()


def lines(frame, event, arg):
    if event == "line":
        ran.add((frame.f_code.co_filename, frame.f_lineno))
    return lines


def calls(frame, event, arg):
    return lines if frame.f_code.co_filename in FILES else None


def executable(code):
    yield from (line for _, _, line in code.co_lines() if line is not None)
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from executable(const)


def main(args: list[str]) -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    threading.settrace(calls)
    sys.settrace(calls)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *(args or [str(ROOT)])])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for name, path in FILES.items():
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        for line in sorted(set(executable(compile(source, name, "exec"))) - {0}):
            if (name, line) not in ran:
                print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
