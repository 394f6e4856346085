"""tools/report_corpus.py: a smoke test on one workload at one seed, and the
verdict and defect gates on the seed-1 corpus.

data/corpus_verdicts.json holds verdicts() of the seed-1 dump of the three
benchmark workloads: for each json report, its exit code and every leaf that
is not a float. A change that flips a verdict on a benchmark input fails the
gate and names the report. A change to the seed-1 requests regenerates the
file on purpose, and lists each changed entry:

    python3 tools/report_corpus.py dump seed1.json --seeds 1
    python3 -c 'import json, sys; sys.path.insert(0, "tools"); import report_corpus as rc;
        print(json.dumps(rc.verdicts(json.load(open("seed1.json"))), indent=1, sort_keys=True))' \
        > tests/data/corpus_verdicts.json

data/corpus_defects.json holds defects() of the same dump: the defect of each
`fock defect` report and the compression defect of `fock arveson`. Each fresh
defect must lie within 4 k eps defect_scale(phi) of it, the rounding bound
that compression_defect documents, with k the report's span_dim (3, the
powers 1, z1 z2, (z1 z2)^2, for `fock arveson`, whose phi is z1 z2). It is
written the same way, with rc.defects in place of rc.verdicts, from a dump of
the commit whose defects it pins (`dump --root` names that checkout).
"""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "report_corpus.py"
VERDICTS = Path(__file__).parent / "data" / "corpus_verdicts.json"
DEFECTS = Path(__file__).parent / "data" / "corpus_defects.json"
sys.path.insert(0, str(TOOL.parent))
import report_corpus  # noqa: E402

from rkhslab.cli import _parse_poly_obj  # noqa: E402
from rkhslab.fock import Polynomial, defect_scale  # noqa: E402


def corpus_tool(*args):
    return subprocess.run(
        [sys.executable, str(TOOL), *map(str, args)], capture_output=True, text=True, timeout=300
    )


def test_dump_and_compare(tmp_path):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    for out in (first, second):
        done = corpus_tool("dump", out, "--seeds", "1", "--workloads", "fock_engine")
        assert done.returncode == 0, done.stderr
    corpus = json.loads(first.read_text())
    assert corpus and all(k.startswith("fock_engine/1/") for k in corpus)
    assert {k.rsplit("/", 1)[1] for k in corpus} == {"json", "text"}
    assert not any(text.startswith("CRASH") for text in corpus.values())
    text = "".join(corpus.values())
    paths = re.findall(r"[^\s\"]*in\d{3}\.json", text)  # input files the reports name
    assert paths and all(p.startswith("<inputs>/") for p in paths)

    same = corpus_tool("compare", first, second)
    assert same.returncode == 0 and f"{len(corpus)} identical, 0 differ" in same.stdout

    keys = sorted(corpus)
    appended, edited, dropped = keys[0], keys[1], keys[2]
    lines = corpus[appended].splitlines(keepends=True)
    corpus[appended] += " "
    edited_lines = corpus[edited].splitlines(keepends=True)
    corpus[edited] = "".join(edited_lines[:1] + ["changed\n"] + edited_lines[2:])
    del corpus[dropped]
    second.write_text(json.dumps(corpus))
    differs = corpus_tool("compare", first, second)
    assert differs.returncode == 1
    out = differs.stdout.splitlines()
    # each DIFFERS line is followed by where the two reports first part
    assert out[out.index(f"DIFFERS {appended}") + 1] == f"  line {len(lines) + 1}: <end of report> -> ' '"
    assert out[out.index(f"DIFFERS {edited}") + 1] == f"  line 2: {edited_lines[1]!r} -> 'changed\\n'"
    assert out[out.index(f"DIFFERS {dropped}") + 1] == "  only in the first corpus"
    assert out[-1] == f"{len(keys) - 3} identical, 3 differ"


def test_compare_counts_ulps_in_one_float(tmp_path):
    value = -1.538520420285916
    moved = value
    for _ in range(6):
        moved = math.nextafter(moved, 0.0)
    report = lambda d, n: f'{{\n  "defect": {d!r},\n  "span_dim": {n}\n}}\n'
    first = {"one-float": report(value, 190), "two-lines": report(value, 190)}
    second = {"one-float": report(moved, 190), "two-lines": report(moved, 189)}
    first.update({"text": "a 0.5\n", "two-floats": "0.5 0.25\n"})
    second.update({"text": "b 0.5\n", "two-floats": "0.75 0.125\n"})
    paths = tmp_path / "first.json", tmp_path / "second.json"
    for path, corpus in zip(paths, (first, second)):
        path.write_text(json.dumps(corpus))
    out = corpus_tool("compare", *paths).stdout.splitlines()
    assert out[out.index("DIFFERS one-float") + 1].endswith(" (6 ulp)")
    # the first differing line differs in one float, though a later line differs too
    assert out[out.index("DIFFERS two-lines") + 1].endswith(" (6 ulp)")
    assert out[out.index("DIFFERS text") + 1] == "  line 1: 'a 0.5\\n' -> 'b 0.5\\n'"
    assert out[out.index("DIFFERS two-floats") + 1] == "  line 1: '0.5 0.25\\n' -> '0.75 0.125\\n'"
    assert out[-1] == "0 identical, 4 differ"


def test_seed_one_verdicts_match_the_committed_file(tmp_path):
    out = tmp_path / "seed1.json"
    done = corpus_tool("dump", out, "--seeds", "1")
    assert done.returncode == 0, done.stderr
    want = json.loads(VERDICTS.read_text())
    got = report_corpus.verdicts(json.loads(out.read_text()))
    differ = report_corpus.compare(want, got)
    assert not differ, f"verdicts differ from {VERDICTS.name}: " + ", ".join(differ)


def defect_bound(report: dict) -> float:
    """4 k eps defect_scale(phi) for a report of `fock defect` or `fock arveson`."""
    if report["command"] == "fock arveson":
        k, phi = 3, Polynomial.monomial(2, (1, 1))
    else:
        k, phi = report["results"]["span_dim"], _parse_poly_obj(json.loads(report["parameters"]["phi"]), "phi")
    return 4 * k * sys.float_info.epsilon * defect_scale(phi)


def test_seed_one_defects_lie_within_their_bound(tmp_path):
    out = tmp_path / "seed1.json"
    done = corpus_tool("dump", out, "--seeds", "1")
    assert done.returncode == 0, done.stderr
    corpus = json.loads(out.read_text())
    want = json.loads(DEFECTS.read_text())
    got = report_corpus.defects(corpus)
    assert sorted(got) == sorted(want)
    far = [
        f"{key} ({got[key]!r} against {want[key]!r})"
        for key in sorted(want)
        if not abs(got[key] - want[key]) <= defect_bound(json.loads(corpus[key]))
    ]
    assert not far, f"defects outside 4 k eps defect_scale(phi) of {DEFECTS.name}: " + ", ".join(far)


def test_defects_read_each_defect_report():
    report = lambda command, results: json.dumps({"command": command, "results": results})
    corpus = {
        "w/1/000/full/json": report("fock defect", {"defect": -0.5, "span_dim": 3}),
        "w/1/000/full/text": "results.defect = -0.5\n",
        "w/1/001/arveson/json": report("fock arveson", {"compression_defect_on_three_powers": -0.25}),
        "w/1/002/refused/json": report("fock defect", {"error": {"type": "WindowOverflowError"}}),
        "w/1/003/balance/json": report("fock balance", {"defect": 1.0}),
        "w/1/004/crash/json": "CRASH ValueError: x\n",
    }
    assert report_corpus.defects(corpus) == {"w/1/000/full/json": -0.5, "w/1/001/arveson/json": -0.25}


def test_verdicts_keep_every_leaf_but_floats():
    results = {
        "ok": False,
        "min_eig": -0.5,
        "classes": [[0, 1], [2]],
        "note": None,
        "exact": {"num": "1", "den": "6"},
    }
    corpus = {
        "w/1/000/a/json": json.dumps({"exit_code": 1, "results": results}),
        "w/1/000/a/text": "ok\n",
        "w/1/001/b/json": "CRASH ValueError: x\n",
    }
    assert report_corpus.verdicts(corpus) == {
        "w/1/000/a/json": {
            "exit_code": 1,
            "results/ok": False,
            "results/classes/0/0": 0,
            "results/classes/0/1": 1,
            "results/classes/1/0": 2,
            "results/note": None,
            "results/exact/num": "1",
            "results/exact/den": "6",
        },
        "w/1/001/b/json": "CRASH ValueError: x\n",
    }
