"""The benchmark's own checks, at seeds hypothesis draws.

bench/workloads.py builds every request of each workload from a seed and
checks its report against numpy or a closed form (bench/reference.py). This
test imports it read-only, as tools/report_corpus.py does, runs every request
of every workload through rkhslab.cli.main, and applies the request's check.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from conftest import seeded_by

from rkhslab.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402  (imports bench/reference.py by its name)


def report(argv: list) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(list(argv))
    return json.loads(buf.getvalue())


@seeded_by(10)
def test_every_request_passes_its_check(seed):
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in workloads.WORKLOADS:
            for req in workloads.build(name, seed, Path(tmp)):
                try:
                    req.check(report(req.argv))
                except Exception as e:  # a Mismatch, or a report without the fields checked
                    failed.append(f"{name}/{req.label}: {type(e).__name__}: {e}")
    assert not failed, f"seed {seed}: " + "; ".join(failed)
