import json

import pytest

from rkhslab.cli import main

SZEGO_COEFFS = [1] * 60
BERGMAN_COEFFS = [n + 1 for n in range(60)]


@pytest.fixture
def corpus(tmp_path):
    files = {
        "szego.json": {"type": "power_series", "coeffs": SZEGO_COEFFS},
        "bergman.json": {"type": "power_series", "coeffs": BERGMAN_COEFFS},
        "reciprocal.json": {
            "type": "power_series",
            "coeffs": [1.0 / (n + 1) for n in range(60)],
        },
        "bad_a0.json": {"type": "power_series", "coeffs": [2, 1, 1]},
        "pts.json": {"dim": 1, "points": [[[0.0, 0.0]], [[0.5, 0.0]], [[0.8, 0.0]]]},
        "pts2.json": {"dim": 2, "points": [[[0.0, 0.0], [0.0, 0.0]], [[0.5, 0.0], [0.0, 0.0]]]},
        "singleton.json": {"type": "sampled", "labels": ["a"], "gram": [[[2.0, 0.0]]]},
        "problem.json": {
            "kernel": {"type": "power_series", "coeffs": SZEGO_COEFFS},
            "nodes": [[[0.0, 0.0]], [[0.5, 0.0]]],
            "targets": [[0.0, 0.0], [0.25, 0.0]],
        },
        "geo.json": {"type": "geometric_tail", "c": 0.5, "q": 0.5},
        "harmonic.json": {"type": "polynomial_tail", "c": 1, "p": 1},
    }
    for name, content in files.items():
        (tmp_path / name).write_text(json.dumps(content))
    (tmp_path / "broken.json").write_text("{not json")
    return tmp_path


def run(capsys, argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, json.loads(out), out


class TestDeterminism:
    def test_identical_runs_identical_bytes(self, corpus, capsys):
        _, _, first = run(capsys, ["fock", "arveson"])
        _, _, second = run(capsys, ["fock", "arveson"])
        assert first == second

    def test_identical_runs_with_files(self, corpus, capsys):
        argv = ["cnp-check", corpus / "szego.json", "--points", corpus / "pts.json"]
        _, _, first = run(capsys, argv)
        _, _, second = run(capsys, argv)
        assert first == second

    def test_digest_tracks_file_content(self, corpus, capsys, tmp_path):
        argv = ["ratio-check", corpus / "szego.json"]
        _, r1, _ = run(capsys, argv)
        (corpus / "szego.json").write_text(
            json.dumps({"type": "power_series", "coeffs": [1] * 61})
        )
        _, r2, _ = run(capsys, argv)
        assert r1["inputs_digest"] != r2["inputs_digest"]


class TestArveson:
    def test_exact_rationals_and_defect(self, corpus, capsys):
        code, report, _ = run(capsys, ["fock", "arveson"])
        assert code == 0 and report["exit_code"] == 0
        assert report["results"]["forward_norm_sq"] == {"num": "1", "den": "6"}
        assert report["results"]["adjoint_norm_sq"] == {"num": "1", "den": "4"}
        assert report["results"]["compression_defect_on_three_powers"] <= -0.05


class TestRatioCheck:
    def test_hardy_geometric_exit_zero(self, corpus, capsys):
        code, report, _ = run(capsys, ["ratio-check", corpus / "szego.json"])
        assert code == 0
        assert report["results"]["geometric"] is True

    def test_bergman_hyponormal_only(self, corpus, capsys):
        code, report, _ = run(capsys, ["ratio-check", corpus / "bergman.json"])
        assert code == 0  # hyponormality not refuted; NP condition inconclusive
        assert report["results"]["hyponormal_ok"] is True
        assert report["results"]["np_sufficient_ok"] is False

    def test_reciprocal_refutes_hyponormality(self, corpus, capsys):
        code, report, _ = run(capsys, ["ratio-check", corpus / "reciprocal.json"])
        assert code == 1
        assert report["results"]["hyponormal_ok"] is False
        assert report["results"]["np_sufficient_ok"] is True

    def test_bad_leading_coefficient(self, corpus, capsys):
        code, report, _ = run(capsys, ["ratio-check", corpus / "bad_a0.json"])
        assert code == 2
        assert "a_0 must equal 1" in report["results"]["error"]["message"]


class TestCnpCheck:
    def test_szego_consistent(self, corpus, capsys):
        code, report, _ = run(
            capsys, ["cnp-check", corpus / "szego.json", "--points", corpus / "pts.json"]
        )
        assert code == 0
        assert report["results"]["status"] == "consistent"

    def test_bergman_refuted(self, corpus, capsys):
        code, report, _ = run(
            capsys, ["cnp-check", corpus / "bergman.json", "--points", corpus / "pts.json"]
        )
        assert code == 1
        assert report["results"]["status"] == "certified_not_cnp"
        assert report["results"]["min_eig"] < -1e-6

    def test_missing_points_for_analytic(self, corpus, capsys):
        code, report, _ = run(capsys, ["cnp-check", corpus / "szego.json"])
        assert code == 2

    def test_sampled_kernel_needs_no_points(self, corpus, capsys):
        code, report, _ = run(capsys, ["cnp-check", corpus / "singleton.json"])
        assert code == 0


class TestPick:
    def test_minimal_norm(self, corpus, capsys):
        code, report, _ = run(capsys, ["pick", corpus / "problem.json"])
        assert code == 0
        assert abs(report["results"]["minimal_norm"] - 0.5) < 1e-8

    def test_feasibility_levels(self, corpus, capsys):
        code, report, _ = run(capsys, ["pick", corpus / "problem.json", "--norm", "0.4"])
        assert code == 1 and report["results"]["feasible"] is False
        code, report, _ = run(capsys, ["pick", corpus / "problem.json", "--norm", "0.6"])
        assert code == 0 and report["results"]["feasible"] is True


class TestEmbedReconstruct:
    def test_embed_szego(self, corpus, capsys):
        code, report, _ = run(
            capsys, ["embed", corpus / "szego.json", "--points", corpus / "pts.json"]
        )
        assert code == 0
        assert report["results"]["rank"] == 1
        assert report["results"]["b_points"][0] == [[0.0, 0.0]]

    def test_embed_bergman_refuted(self, corpus, capsys):
        code, report, _ = run(
            capsys, ["embed", corpus / "bergman.json", "--points", corpus / "pts.json"]
        )
        assert code == 1
        assert report["results"]["status"] == "certified_not_cnp"

    def test_reconstruct_szego(self, corpus, capsys):
        code, report, _ = run(
            capsys, ["reconstruct", corpus / "szego.json", "--points", corpus / "pts.json"]
        )
        assert code == 0
        assert report["results"]["classification"] == "hardy_equivalent"
        assert report["results"]["factorization_residual"] < 1e-9

    def test_reconstruct_bergman_hypothesis_error(self, corpus, capsys):
        code, report, _ = run(
            capsys, ["reconstruct", corpus / "bergman.json", "--points", corpus / "pts.json"]
        )
        assert code == 2
        assert report["results"]["error"]["hypothesis"] == "cnp_consistency"

    def test_reconstruct_singleton(self, corpus, capsys):
        code, report, _ = run(capsys, ["reconstruct", corpus / "singleton.json"])
        assert code == 0
        assert report["results"]["classification"] == "singleton"


class TestOtherCommands:
    def test_partition(self, corpus, capsys):
        code, report, _ = run(
            capsys, ["partition", corpus / "szego.json", "--points", corpus / "pts.json"]
        )
        assert code == 0
        assert report["results"]["classes"] == [[0, 1, 2]]

    def test_blaschke_geometric(self, corpus, capsys):
        code, report, _ = run(capsys, ["blaschke", corpus / "geo.json"])
        assert code == 0
        assert report["results"]["gap_sum"] == pytest.approx(1.0)
        assert report["results"]["is_uniqueness_set"] is False

    def test_blaschke_divergent(self, corpus, capsys):
        code, report, _ = run(capsys, ["blaschke", corpus / "harmonic.json"])
        assert code == 0
        assert report["results"]["gap_sum"] == "DIVERGENT"
        assert report["results"]["is_uniqueness_set"] is True

    def test_blaschke_growing_polynomial_tail_refused(self, corpus, capsys):
        family = corpus / "growing.json"
        family.write_text(json.dumps({"type": "polynomial_tail", "c": 0.5, "p": -1e-6}))
        code, report, _ = run(capsys, ["blaschke", family])
        assert code == 2
        assert report["results"]["error"]["type"] == "InputError"

    def test_closure_member_and_not(self, corpus, capsys):
        base = ["closure", "--points", corpus / "pts2.json", "--degree", "8"]
        code, report, _ = run(capsys, base + ["--z", "[[0.5,0],[0,0]]"])
        assert code == 0 and report["results"]["member"] is True
        code, report, _ = run(capsys, base + ["--z", "[[0.3,0],[0,0]]"])
        assert code == 1 and report["results"]["member"] is False
        assert report["results"]["residual"] > 0.01

    def test_fock_balance(self, corpus, capsys):
        code, report, _ = run(
            capsys, ["fock", "balance", "--z", "[[0.5,0],[0.5,0]]", "--degree", "30"]
        )
        assert code == 0
        assert report["results"]["within_bound"] is True

    def test_fock_defect_shift_refutes(self, corpus, capsys):
        code, report, _ = run(
            capsys,
            [
                "fock",
                "defect",
                "--phi",
                '{"dim":1,"terms":[{"exp":[1],"coeff":1}]}',
                "--degree",
                "6",
            ],
        )
        assert code == 1
        assert report["results"]["defect"] == pytest.approx(-1.0, abs=1e-12)

    def test_fock_defect_constant_is_normal(self, corpus, capsys):
        code, report, _ = run(
            capsys,
            [
                "fock",
                "defect",
                "--phi",
                '{"dim":1,"terms":[{"exp":[0],"coeff":[0.5,0.5]}]}',
                "--degree",
                "4",
            ],
        )
        assert code == 0
        assert abs(report["results"]["defect"]) < 1e-12

    def test_fock_defect_powers_span(self, corpus, capsys):
        code, report, _ = run(
            capsys,
            [
                "fock",
                "defect",
                "--phi",
                '{"dim":2,"terms":[{"exp":[1,1],"coeff":1}]}',
                "--degree",
                "6",
                "--span",
                "powers",
            ],
        )
        assert code == 1
        assert report["results"]["span_dim"] == 4


class TestErrorPaths:
    def test_broken_json(self, corpus, capsys):
        code, report, _ = run(capsys, ["ratio-check", corpus / "broken.json"])
        assert code == 2
        assert "not valid JSON" in report["results"]["error"]["message"]

    def test_unknown_command_exits_two(self, corpus):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    def test_text_format_carries_same_fields(self, corpus, capsys):
        code = main(["blaschke", str(corpus / "geo.json"), "--format", "text"])
        out = capsys.readouterr().out
        assert code == 0
        assert "results.gap_sum = 1.0" in out
        assert "exit_code = 0" in out
