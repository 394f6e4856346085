#!/usr/bin/env python3
"""Dump the benchmark's reports as a corpus, and compare two corpora.

    python3 tools/report_corpus.py dump OUT.json [--root CHECKOUT] [--seeds 1-3] [--workloads W,...]
    python3 tools/report_corpus.py compare A.json B.json

`dump` builds every request of the benchmark workloads (bench/workloads.py,
imported read-only) at each seed, runs each through rkhslab.cli.main in
--format json and --format text, and writes one JSON object mapping
"workload/seed/index/label/format" to the report text. The input files live
in a temporary directory whose path is masked as <inputs>, so two dumps of
equal programs are equal. --root names the source checkout whose src/ and
bench/ are used (default: the checkout holding this script), so a parent
commit can be dumped without copying this tool into it.

verdicts() projects a corpus onto what must not change at all, and defects()
onto the Fock defects, which may move by rounding within their documented
bound; the tier-1 test tests/test_report_corpus.py compares those
projections of a fresh seed-1 dump with tests/data/corpus_verdicts.json and
tests/data/corpus_defects.json.

`compare` prints each key whose report differs or that only one corpus has,
each followed by the first line where the two reports part (numbered from 1,
both sides quoted, and the distance in ulps, as "(6 ulp)", when the two lines
differ only in one float), and exits 0 when the corpora are identical, 1
otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import struct
import sys
import tempfile
from pathlib import Path

# Pin BLAS to one thread before numpy loads, as the benchmark does.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

MASK = "<inputs>"
FORMATS = ("json", "text")
FLOAT = re.compile(r"(?<![\w.])-?(?:\d+\.\d*(?:e[-+]?\d+)?|\d+e[-+]?\d+)(?![\w.])")


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_report(main, argv: list) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            main(argv)
        except Exception as e:  # the CLI maps its own errors; anything else is a crash
            return f"CRASH {type(e).__name__}: {e}\n"
    return buf.getvalue()


def dump(root: Path, seeds: list, names: list) -> dict:
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    from rkhslab.cli import main
    import workloads

    corpus = {}
    for name in names or list(workloads.WORKLOADS):
        for seed in seeds:
            with tempfile.TemporaryDirectory() as tmp:
                for i, req in enumerate(workloads.build(name, seed, Path(tmp))):
                    for fmt in FORMATS:
                        text = run_report(main, list(req.argv) + ["--format", fmt])
                        corpus[f"{name}/{seed}/{i:03d}/{req.label}/{fmt}"] = text.replace(tmp, MASK)
    return corpus


def compare(a: dict, b: dict) -> list:
    """Keys whose reports differ or that only one corpus has, sorted."""
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


def verdicts(corpus: dict) -> dict:
    """The json reports of a corpus as their leaves that are not floats: the exit
    code, verdicts, strings, integers, nulls and inputs_digest, each under its path
    of keys and list indices joined by "/". Two programs that agree on every verdict
    agree on these exactly, whatever their floats. A report that is not JSON (a
    crash) is kept as its text."""
    out = {}
    for key, text in corpus.items():
        if key.endswith("/json"):
            try:
                out[key] = dict(leaves(json.loads(text)))
            except ValueError:
                out[key] = text
    return out


def defects(corpus: dict) -> dict:
    """The defect of each json report of `fock defect`, and the compression defect on
    three powers of each `fock arveson` report, under the report's key."""
    fields = {"fock defect": "defect", "fock arveson": "compression_defect_on_three_powers"}
    out = {}
    for key, text in corpus.items():
        try:
            report = json.loads(text) if key.endswith("/json") else {}
        except ValueError:  # a crash
            continue
        field = fields.get(report.get("command"))
        if field in report.get("results", {}):
            out[key] = report["results"][field]
    return out


def leaves(node, path: str = ""):
    """(path, value) for each leaf of a parsed JSON value that is not a float."""
    if isinstance(node, (dict, list)):
        for k, v in node.items() if isinstance(node, dict) else enumerate(node):
            yield from leaves(v, f"{path}/{k}" if path else str(k))
    elif not isinstance(node, float):
        yield path, node


def first_difference(a, b) -> str:
    """The first line where two reports differ, or which corpus lacks one."""
    if a is None or b is None:
        return "only in the " + ("second" if a is None else "first") + " corpus"
    la, lb = a.splitlines(keepends=True), b.splitlines(keepends=True)
    i = next((i for i, (x, y) in enumerate(zip(la, lb)) if x != y), min(len(la), len(lb)))
    side = lambda lines: repr(lines[i]) if i < len(lines) else "<end of report>"
    ulps = ulp_distance(la[i], lb[i]) if i < min(len(la), len(lb)) else None
    return f"line {i + 1}: {side(la)} -> {side(lb)}" + ("" if ulps is None else f" ({ulps} ulp)")


def ulp_distance(x: str, y: str):
    """How many doubles apart the one float in which two lines differ lies, or None
    when the lines differ in anything else or in more than one float."""
    if FLOAT.split(x) != FLOAT.split(y):
        return None
    pairs = [(a, b) for a, b in zip(FLOAT.findall(x), FLOAT.findall(y)) if a != b]
    if len(pairs) != 1:
        return None
    a, b = (ordinal(float(v)) for v in pairs[0])
    return abs(a - b)


def ordinal(x: float) -> int:
    """The rank of x among the doubles: consecutive doubles differ by 1, and -0.0 is 0."""
    n = struct.unpack("<q", struct.pack("<d", x))[0]
    return n if n >= 0 else -(n & 0x7FFFFFFFFFFFFFFF)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="action", required=True)
    d = sub.add_parser("dump", help="write the corpus of one checkout")
    d.add_argument("out", type=Path)
    d.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1])
    d.add_argument("--seeds", type=seed_range, default=seed_range("1-3"))
    d.add_argument("--workloads", type=lambda s: s.split(","), default=[])
    c = sub.add_parser("compare", help="list the reports two corpora disagree on")
    c.add_argument("a", type=Path)
    c.add_argument("b", type=Path)
    args = ap.parse_args()

    if args.action == "dump":
        corpus = dump(args.root.resolve(), args.seeds, args.workloads)
        args.out.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
        print(f"{len(corpus)} reports written to {args.out}")
        return 0
    a, b = (json.loads(p.read_text()) for p in (args.a, args.b))
    diff = compare(a, b)
    for key in diff:
        print(f"DIFFERS {key}")
        print(f"  {first_difference(a.get(key), b.get(key))}")
    print(f"{len(a.keys() | b.keys()) - len(diff)} identical, {len(diff)} differ")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
