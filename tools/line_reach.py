#!/usr/bin/env python3
"""List the lines of src/rkhslab that neither tier-1 nor the report corpus runs.

    python3 tools/line_reach.py [--root CHECKOUT] [--seeds 1-3] [--no-tests]

Traces every line executed in the checkout's src/rkhslab with sys.settrace,
first while the tier-1 suite runs in-process (pytest.main on tests/), then
while every request of the report corpus (tools/report_corpus.py, at the
given seeds, in json and text) runs. For each module it prints the
executable lines, those the compiler gives an instruction, that neither
reached, as ranges. A line listed here is dead code or untested code.
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import report_corpus  # noqa: E402  (sets the one-thread BLAS environment first)


def executable_lines(path: Path) -> set:
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def trace_into(prefix: str, hits: defaultdict):
    """A sys.settrace function recording the lines run in files under prefix."""

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def start(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        hits[filename].add(frame.f_code.co_firstlineno)  # the def line starts no line event
        return local

    return start


def ranges(lines: list) -> str:
    out, i = [], 0
    while i < len(lines):
        j = i
        while j + 1 < len(lines) and lines[j + 1] == lines[j] + 1:
            j += 1
        out.append(str(lines[i]) if i == j else f"{lines[i]}-{lines[j]}")
        i = j + 1
    return ", ".join(out)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", type=Path, default=HERE.parent)
    ap.add_argument("--seeds", type=report_corpus.seed_range, default=report_corpus.seed_range("1-3"))
    ap.add_argument("--no-tests", action="store_true", help="trace the corpus only")
    args = ap.parse_args()
    root = args.root.resolve()
    package = root / "src" / "rkhslab"
    hits: defaultdict = defaultdict(set)
    tracer = trace_into(str(package) + os.sep, hits)

    sys.path.insert(0, str(root / "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        if not args.no_tests:
            import pytest

            cwd = os.getcwd()
            os.chdir(root)
            try:
                status = pytest.main(["-q", "-p", "no:cacheprovider", str(root / "tests")])
            finally:
                os.chdir(cwd)
            print(f"tier-1 exit status {int(status)}")
        corpus = report_corpus.dump(root, args.seeds, [])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print(f"{len(corpus)} corpus reports traced")

    total = 0
    for path in sorted(package.glob("*.py")):
        missed = sorted(executable_lines(path) - hits[str(path)])
        total += len(missed)
        print(f"{path.name}: {len(missed)} unreached" + (f": {ranges(missed)}" if missed else ""))
    print(f"{total} executable lines unreached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
