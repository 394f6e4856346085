"""The reports of the exact Fock path, byte for byte.

The report corpus of tools/report_corpus.py comes from the benchmark
workloads, whose points are all floats, so it never runs the exact path.
data/exact_reports.json holds the json and text reports that the dict
arithmetic gave, before the exact routine on the shift tables replaced it:
`fock balance` at points with rational coordinates (real, complex, and a
mix of scalar, imaginary and zero coordinates) at degrees 8, 30 and 60, and
`fock arveson`. Each entry is what rkhslab.cli.main(argv) wrote to stdout.
"""

import json
from pathlib import Path

import pytest

from rkhslab.cli import main

GOLDEN = json.loads((Path(__file__).parent / "data" / "exact_reports.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[f"{c['label']}/{c['argv'][-1]}" for c in GOLDEN])
def test_report_bytes(case, capsys):
    code = main(case["argv"])
    assert capsys.readouterr().out == case["report"]
    assert code == case["exit_code"]
