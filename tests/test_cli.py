import json
import math
import os
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from rkhslab import cli, fock
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

    def test_rational_below_the_float_range_beside_a_float(self, tmp_path, capsys):
        # a_1^2 = 1e-400 (to rounding) > a_0 a_2 = 2e-405: Kaluza fails at n = 1,
        # though a_2 as a float would be 0.0
        coeffs = [1, 1e-200, {"num": "2", "den": str(10**405)}]
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"type": "power_series", "coeffs": coeffs}))
        code, report, _ = run(capsys, ["ratio-check", path])
        assert code == 0
        got = {k: report["results"][k] for k in ("hyponormal_ok", "np_sufficient_ok", "geometric")}
        assert got == {"hyponormal_ok": True, "np_sufficient_ok": False, "geometric": False}
        assert report["results"]["first_violation"] == 1


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
    @pytest.mark.parametrize("level", ["inf", "-inf", "nan", "0", "-1", "1e200"])
    def test_norm_level_with_t_squared_not_finite_and_positive(self, level, corpus, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["pick", str(corpus / "problem.json"), f"--norm={level}"])
        captured = capsys.readouterr()
        assert code == 2 and captured.err == "" and not caught
        error = json.loads(captured.out)["results"]["error"]
        assert error == {
            "type": "InputError",
            "message": "norm level t must be positive with t^2 finite",
        }

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

    def test_a_point_on_the_sphere_is_refused(self, tmp_path, capsys):
        # F = 1 - 1/g has F[1, 1] = 1 - 2^-60, which rounds to 1: the embedded point 1 lies
        # on the sphere. The off-diagonal 2^-30 is below tol, so reconstruct finds the
        # sample reducible before it embeds it.
        off = [2.0**-30, 0.0]
        path = tmp_path / "kernel.json"
        path.write_text(json.dumps({"type": "sampled", "labels": ["a", "b"], "gram": [[[1.0, 0.0], off], [off, [1.0, 0.0]]]}))
        code, report, _ = run(capsys, ["embed", path])
        assert code == 2 and report["results"]["error"] == {
            "type": "InconsistentSampleError",
            "message": "embedded point 1 has norm 1.000000, not inside the open ball",
        }
        code, report, _ = run(capsys, ["reconstruct", path])
        assert code == 2 and report["results"]["error"]["hypothesis"] == "irreducibility"

    def test_disk_points_that_coincide_are_refused(self, tmp_path, capsys):
        # Rows 1 and 2 are swapped by exchanging the two points, and their 2x2 minor on
        # columns 1 and 2 is about 2e-8 on the unit diagonal, past tol: the sample is
        # irreducible. F = 1 - 1/g has eigenvalues 0, 1.8 and about 1e-9, below the rank
        # cut tol * 1.8, so the embedding has rank 1 and its eigenvector gives the two
        # points one and the same disk point.
        gram = [[1.0, 1.0, 1.0], [1.0, 10.0, 9.9999999], [1.0, 9.9999999, 10.0]]
        path = tmp_path / "kernel.json"
        sampled = {"type": "sampled", "labels": ["o", "p", "q"], "gram": [[[x, 0.0] for x in row] for row in gram]}
        path.write_text(json.dumps(sampled))
        code, report, _ = run(capsys, ["reconstruct", path])
        assert code == 2 and report["results"]["error"] == {
            "type": "InconsistentSampleError",
            "message": "recovered disk points 1 and 2 coincide",
        }

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

    def test_fock_balance_tail_bound_below_rounding(self, corpus, capsys):
        # the tail bound here is 5.6e-25, below one rounding of the norms
        code, report, _ = run(
            capsys, ["fock", "balance", "--z", "[[0.5,0.1],[0.3,-0.2]]", "--degree", "60"]
        )
        res = report["results"]
        assert code == 0 and res["within_bound"] is True
        assert res["tail_bound"] < 1e-24 < res["rounding_bound"] < 1e-12

    def test_fock_balance_exact_gaussian_rational_point(self, corpus, capsys):
        # rational parts keep z exact, so both norms are the closed form
        # sum_{n=2}^{N+1} ||z||^(2n), rounded once at the end
        fifth = {"num": "1", "den": "5"}
        z = [[{"num": "1", "den": "2"}, 0], [fifth, {"num": "-1", "den": "5"}]]
        code, report, _ = run(capsys, ["fock", "balance", "--z", json.dumps(z), "--degree", "8"])
        nz = Fraction(1, 4) + 2 * Fraction(1, 25)
        want = float(sum(nz**n for n in range(2, 10)))
        res = report["results"]
        assert code == 0 and res["rounding_bound"] == 0.0
        assert res["adjoint_norm_sq"] == want and res["forward_norm_sq"] == want

    def test_fock_balance_seeded_degree_30(self, corpus, capsys):
        rng = np.random.default_rng(30)
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        z *= math.sqrt(rng.uniform(0.6, 0.75)) / np.linalg.norm(z)
        arg = json.dumps([[x.real, x.imag] for x in z])
        code, report, _ = run(capsys, ["fock", "balance", "--z", arg, "--degree", "30"])
        assert code == 0 and report["results"]["within_bound"] is True

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

    @pytest.mark.parametrize("z, entry", [("[[NaN,0],[0,0]]", "(nan+0j)"), ("[[0,NaN],[0,0]]", "nanj")])
    def test_closure_refuses_a_nan_point(self, z, entry, corpus, capsys):
        argv = ["closure", "--points", corpus / "pts2.json", "--z", z]
        code, report, _ = run(capsys, argv)
        assert code == 2 and report["results"]["error"] == {
            "type": "InputError", "message": f"point: expected a finite number, got {entry}"}

    # abs(z_i) ** 2, or abs(z_i) itself, passes the float range
    @pytest.mark.parametrize(
        "z",
        [
            "[[-0.25341853557512867, 1e+308], [0.34060317350739183, -0.04985395938973676]]",
            "[[1e308, 1e308]]",
        ],
    )
    def test_fock_balance_refuses_a_point_past_the_float_range(self, z, corpus, capsys):
        code, report, _ = run(capsys, ["fock", "balance", "--z", z, "--degree", "10"])
        assert code == 2 and report["results"]["error"]["type"] == "DomainError"

    def test_fock_defect_refuses_a_window_past_the_array_budget(self, monkeypatch, capsys):
        # the budget just below the 36 x 36 matrix of the degree-7 window in 2 variables
        monkeypatch.setattr(fock, "_ARRAY_BYTES", 36 * 36 * 16 - 1)
        phi = json.dumps({"dim": 2, "terms": [{"exp": [1, 1], "coeff": 1}]})
        argv = ["fock", "defect", "--phi", phi, "--degree", "7", "--span"]
        code, report, _ = run(capsys, argv + ["full"])
        assert code == 2 and report["results"]["error"]["type"] == "WindowOverflowError"
        code, report, _ = run(capsys, argv + ["powers"])  # no k x k matrix: z1 z2 is refuted
        assert code == 1 and report["results"]["span_dim"] == 4

    # each budget is just below a small span's array, so nothing large is formed
    def test_powers_past_the_array_budget_are_refused(self, monkeypatch, capsys):
        # 1, z, ..., z^10 on the degree-10 window in one variable: 11 x 11 complex
        phi = json.dumps({"dim": 1, "terms": [{"exp": [1], "coeff": 1}]})
        argv = ["fock", "defect", "--phi", phi, "--span", "powers", "--degree", "10"]
        monkeypatch.setattr(fock, "_ARRAY_BYTES", 11 * 11 * 16 - 1)
        code, report, _ = run_within_a_second(capsys, argv)
        assert code == 2 and report["results"]["error"]["type"] == "WindowOverflowError"
        assert "11 x 11 matrix of powers" in report["results"]["error"]["message"]
        monkeypatch.setattr(fock, "_ARRAY_BYTES", 11 * 11 * 16)
        code, report, _ = run_within_a_second(capsys, argv)  # the truncated shift
        assert code == 1 and report["results"]["span_dim"] == 11

    def test_kernel_vectors_past_the_array_budget_are_refused(self, tmp_path, monkeypatch, capsys):
        # three points on the degree-4 window in two variables: 15 x 3 complex for the
        # kernel span, and 15 x 4 for the closure, which stacks z after them
        points = tmp_path / "three.json"
        points.write_text('{"dim": 2, "points": [[[0.1, 0], [0, 0]], [[0, 0], [0.2, 0]], [[0.3, 0], [0.1, 0]]]}')
        phi = json.dumps({"dim": 2, "terms": [{"exp": [1, 1], "coeff": 1}]})
        requests = [
            (["fock", "defect", "--phi", phi, "--span", "kernel", "--points", points, "--degree", "4"], 3),
            (["closure", "--points", points, "--z", "[[0.2, 0], [0.1, 0]]", "--degree", "4"], 4),
        ]
        for argv, columns in requests:
            monkeypatch.setattr(fock, "_ARRAY_BYTES", 15 * columns * 16 - 1)
            code, report, _ = run_within_a_second(capsys, argv)
            assert code == 2 and report["results"]["error"]["type"] == "WindowOverflowError"
            assert f"15 x {columns} matrix of kernel vectors" in report["results"]["error"]["message"]
            monkeypatch.setattr(fock, "_ARRAY_BYTES", 15 * columns * 16)
            assert run_within_a_second(capsys, argv)[0] in (0, 1)

    # an empty list was read as shape (0,): a point set took it for (0, 1) and the
    # Gram reader for a vector, and the refusal named a shape the input never had
    def test_an_empty_point_set_is_refused_as_empty(self, tmp_path, capsys):
        (tmp_path / "kernel.json").write_text('{"type": "drury_arveson", "dim": 2}')
        (tmp_path / "empty.json").write_text('{"dim": 2, "points": []}')
        (tmp_path / "problem.json").write_text(
            '{"kernel": {"type": "drury_arveson", "dim": 2}, "nodes": [], "targets": []}'
        )
        phi = json.dumps({"dim": 2, "terms": [{"exp": [1, 0], "coeff": 1}]})
        requests = [
            ["cnp-check", "kernel.json", "--points", "empty.json"],
            ["pick", "problem.json"],
            ["closure", "--points", "empty.json", "--z", "[[0.1, 0], [0, 0]]"],
            ["fock", "defect", "--phi", phi, "--span", "kernel", "--points", "empty.json", "--degree", "3"],
        ]
        for argv in requests:
            code, report, _ = run(capsys, [tmp_path / a if a.endswith(".json") else a for a in argv])
            assert code == 2 and report["results"]["error"] == {
                "message": "point set must be non-empty",
                "type": "InputError",
            }, argv

    def test_an_empty_sampled_gram_is_refused_as_empty(self, tmp_path, capsys):
        (tmp_path / "kernel.json").write_text('{"type": "sampled", "labels": [], "gram": []}')
        for command in ("cnp-check", "embed", "reconstruct", "partition"):
            code, report, _ = run(capsys, [command, tmp_path / "kernel.json"])
            assert code == 2 and report["results"]["error"] == {
                "message": "matrix must be non-empty",
                "type": "InputError",
            }, command

    def test_closure_refuses_the_degree_zero_window(self, corpus, capsys):
        # there every kernel function is the constant 1, so any z would be a member
        points = corpus / "origin2.json"
        points.write_text('{"dim": 2, "points": [[[0, 0], [0, 0]]]}')
        argv = ["closure", "--points", points, "--z", "[[0.9,0],[0,0.3]]", "--degree"]
        code, report, _ = run(capsys, argv + ["0"])
        assert code == 2 and report["results"]["error"]["type"] == "InputError"
        assert report["results"]["error"]["message"] == "degree: expected an integer >= 1, got 0"
        code, report, _ = run(capsys, argv + ["1"])
        assert code == 1 and report["results"]["member"] is False

    def test_window_with_subnormal_weights_refused(self, corpus, capsys):
        argv = ["fock", "balance", "--z", "[[0.5,0],[0.3,0]]", "--degree", "1100"]
        code, report, _ = run(capsys, argv)
        assert code == 2 and report["results"]["error"]["type"] == "InputError"
        assert "below the normal float range" in report["results"]["error"]["message"]

    def test_integer_beyond_float_range_refused(self, corpus, capsys):
        huge = 10**400
        family = corpus / "huge.json"
        family.write_text(json.dumps({"type": "polynomial_tail", "c": 0.5, "p": huge}))
        code, report, _ = run(capsys, ["blaschke", family])
        assert code == 2
        assert report["results"]["error"]["type"] == "InputError"
        z = json.dumps([[huge, 0], [0, 0]])
        code, report, _ = run(capsys, ["fock", "balance", "--z", z, "--degree", "3"])
        assert code == 2
        assert report["results"]["error"]["type"] == "InputError"

    @pytest.mark.parametrize("coeff", ["Infinity", "1e400"])
    def test_infinite_coefficient_refused_without_warnings(self, coeff, corpus, capsys):
        # refused before the Gram assembly, which would warn of an invalid
        # value on stderr
        kernel = corpus / "infinite.json"
        kernel.write_text(f'{{"type": "power_series", "coeffs": [1, {coeff}, 1]}}')
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["cnp-check", str(kernel), "--points", str(corpus / "pts.json")])
        captured = capsys.readouterr()
        assert code == 2 and captured.err == "" and not caught
        error = json.loads(captured.out)["results"]["error"]
        assert error == {"type": "InputError", "message": "coefficient 1 must be finite, got inf"}

    @pytest.mark.parametrize(
        "argv, step",
        [
            (["cnp-check", "sampled.json"], "the normalization by the base column"),
            (["embed", "sampled.json"], "the normalization by the base column"),
            (["cnp-check", "series.json", "--points", "points.json"], "the power-series kernel's value"),
            (["pick", "problem.json"], "the power-series kernel's value"),
        ],
    )
    def test_a_value_past_the_float_range_is_refused_by_its_step_without_warnings(
        self, argv, step, tmp_path, capsys
    ):
        # G[2][2] / |delta_2|^2 overflows in the normalization; the series' Horner sums
        # overflow at every point. Each is refused where it is formed, with no numpy
        # warning on stderr first. Which non-finite value the overflow leaves is numpy's.
        gram = [[[2.0, 0.0], [0.5, 0.25], [0.1, 0.0]], [[0.5, -0.25], [1.0, 0.0], [1.0, 0.1]]]
        gram.append([[0.1, 0.0], [0.2, -0.1], [1e308, 1.0]])
        points = [[[0.9, 0.0]], [[0.0, 0.5]], [[-0.3, 0.1]]]
        files = {
            "sampled.json": {"type": "sampled", "labels": ["a", "b", "c"], "gram": gram},
            "series.json": {"type": "power_series", "coeffs": [1.0, 1e308, 1e308, 1e308]},
            "points.json": {"dim": 1, "points": points},
            "problem.json": {
                "kernel": {"type": "power_series", "coeffs": [1.0, 1e308, 1e308]},
                "nodes": points,
                "targets": [[0.0, 0.0], [0.25, 0.0], [0.1, 0.0]],
            },
        }
        for name, content in files.items():
            (tmp_path / name).write_text(json.dumps(content))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([str(tmp_path / a) if a.endswith(".json") else a for a in argv])
        captured = capsys.readouterr()
        assert code == 2 and captured.err == "" and not caught
        error = json.loads(captured.out)["results"]["error"]
        assert error["type"] == "InputError"
        assert error["message"].startswith(f"{step}: expected a finite number, got (")

    def test_coordinate_past_the_square_root_of_the_float_range_refused_silently(
        self, tmp_path, capsys
    ):
        # |x|^2 overflows past about 1.3e154: the norm is inf and the point is
        # refused, with no numpy overflow warning on stderr first
        far, near = tmp_path / "far.json", tmp_path / "near.json"
        inside, outside = [[0.1, 0], [0, 0]], [[1e308, 0.0], [0, 0]]
        far.write_text(json.dumps({"dim": 2, "points": [inside, outside]}))
        near.write_text(json.dumps({"dim": 2, "points": [inside]}))
        cases = [  # the points file through PointSet, --z through TruncatedSpace.kernel_vector
            (far, inside, "point 1 has norm inf"),
            (near, outside, "inside the open unit ball"),
        ]
        for points, z, message in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(["closure", "--points", str(points), "--z", json.dumps(z)])
            captured = capsys.readouterr()
            assert code == 2 and captured.err == ""
            error = json.loads(captured.out)["results"]["error"]
            assert error["type"] == "DomainError" and message in error["message"]

    def test_malformed_json_argument(self, corpus, capsys):
        code, report, _ = run(capsys, ["fock", "balance", "--z", "[[0.5,0]", "--degree", "3"])
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


def in_corpus(corpus, argv) -> list:
    return [str(corpus / a) if a.endswith(".json") else a for a in argv]


def phi_with_exponent(e) -> str:
    return json.dumps({"dim": 1, "terms": [{"exp": [e], "coeff": 1}]})


GEOMETRIC = {"type": "geometric_tail", "c": 0.5, "q": 0.5}
FINITE = {"type": "finite_list", "radii": [0.5]}
SZEGO = {"type": "power_series", "coeffs": SZEGO_COEFFS}
SAMPLED = {"type": "sampled", "labels": ["a", "b"]}
SZEGO_AT_CASE = ["cnp-check", "szego.json", "--points", "case.json"]
KERNEL_AT_CASE = ["cnp-check", "case.json", "--points", "pts.json"]
PROBLEM = {"kernel": SZEGO, "nodes": [[[0.0, 0.0]], [[0.5, 0.0]]], "targets": [[0, 0], [0.25, 0]]}
TERM = {"exp": [1], "coeff": 1}

# (argv, content of case.json, written as JSON, or as it is when a string):
# malformed shapes, most of which used to crash with a traceback or be
# misread (an exponent 1.5 as 1, true as 1, an infinite coefficient as
# geometric)
MALFORMED = {
    "points-not-a-list": (SZEGO_AT_CASE, {"dim": 1, "points": 5}),
    "dim-boolean": (SZEGO_AT_CASE, {"dim": True, "points": []}),
    "gram-row-not-a-list": (["cnp-check", "case.json"], {**SAMPLED, "gram": [[[1, 0], [0, 0]], 5]}),
    "gram-row-ragged": (["cnp-check", "case.json"], {**SAMPLED, "gram": [[[1, 0], [0, 0]], [[1]]]}),
    "prefix-not-a-list": (["blaschke", "case.json"], {**GEOMETRIC, "prefix": 3}),
    "finite-list-with-prefix": (["blaschke", "case.json"], {**FINITE, "prefix": [0.9]}),
    "finite-list-with-bad-prefix": (["blaschke", "case.json"], {**FINITE, "prefix": [1.5]}),
    "rational-num-a-list": (["blaschke", "case.json"], {**GEOMETRIC, "c": {"num": [1], "den": 2}}),
    "rational-num-a-float": (["blaschke", "case.json"], {**GEOMETRIC, "c": {"num": 1.5, "den": 2}}),
    "terms-not-a-list": (["fock", "defect", "--phi", '{"dim": 1, "terms": 5}'], None),
    "exp-object": (["fock", "defect", "--phi", phi_with_exponent({})], None),
    "exp-null": (["fock", "defect", "--phi", phi_with_exponent(None)], None),
    "exp-float": (["fock", "defect", "--phi", phi_with_exponent(1.5)], None),
    "exp-boolean": (["fock", "defect", "--phi", phi_with_exponent(True)], None),
    "exp-negative": (["fock", "defect", "--phi", phi_with_exponent(-1)], None),
    "z-not-a-list": (["fock", "balance", "--z", "5"], None),
    "number-boolean": (["blaschke", "case.json"], {**GEOMETRIC, "c": True}),
    "number-string": (["blaschke", "case.json"], {**GEOMETRIC, "c": "half"}),
    "points-without-dim": (SZEGO_AT_CASE, {"points": []}),
    "kernel-without-type": (["cnp-check", "case.json", "--points", "pts.json"], {"coeffs": [1]}),
    "kernel-type-unknown": (["cnp-check", "case.json", "--points", "pts.json"], {"type": "heat"}),
    "family-without-type": (["blaschke", "case.json"], {"c": 0.5, "q": 0.5}),
    "family-type-unknown": (["blaschke", "case.json"], {**GEOMETRIC, "type": "harmonic"}),
    "phi-without-terms": (["fock", "defect", "--phi", '{"dim": 1}'], None),
    "term-without-coeff": (["fock", "defect", "--phi", '{"dim": 1, "terms": [{"exp": [1]}]}'], None),
    "file-missing": (["ratio-check", "missing.json"], None),
    "sampled-with-points": (["cnp-check", "singleton.json", "--points", "pts.json"], None),
    "base-out-of-range": (["cnp-check", "szego.json", "--points", "pts.json", "--base", "3"], None),
    "ratio-of-sampled": (["ratio-check", "singleton.json"], None),
    "problem-without-targets": (["pick", "case.json"], {"kernel": SZEGO, "nodes": [[[0, 0]]]}),
    "problem-empty": (["pick", "case.json"], {"kernel": SZEGO, "nodes": [], "targets": []}),
    "targets-matrix-valued": (
        ["pick", "case.json"],
        {"kernel": SZEGO, "nodes": [[[0, 0]]], "targets": [[[1, 0]]]},
    ),
    "kernel-span-without-points": (
        ["fock", "defect", "--phi", phi_with_exponent(1), "--span", "kernel"],
        None,
    ),
    "kernel-span-dim-mismatch": (
        ["fock", "defect", "--phi", phi_with_exponent(1), "--span", "kernel", "--points", "pts2.json"],
        None,
    ),
    "coordinate-re-boolean": (SZEGO_AT_CASE, {"dim": 1, "points": [[[True, 0.0]]]}),
    "coordinate-im-boolean": (SZEGO_AT_CASE, {"dim": 1, "points": [[[0.0, False]]]}),
    "complex-one-part": (SZEGO_AT_CASE, {"dim": 1, "points": [[[0.5]]]}),
    "complex-three-parts": (SZEGO_AT_CASE, {"dim": 1, "points": [[[0.1, 0.2, 0.3]]]}),
    "complex-integer-beyond-float": (SZEGO_AT_CASE, {"dim": 1, "points": [[[10**400, 0.0]]]}),
    "coeff-infinity": (["ratio-check", "case.json"], {**SZEGO, "coeffs": [1, math.inf, 1]}),
    "coeff-beyond-float": (
        ["ratio-check", "case.json"],
        '{"type": "power_series", "coeffs": [1, 1e400, 1]}',
    ),
    # one key outside each kind of object, which the parser used to drop
    "points-unknown-key": (SZEGO_AT_CASE, {"dim": 1, "points": [[[0.5, 0.0]]], "weights": [1]}),
    "problem-with-norm": (["pick", "case.json"], {**PROBLEM, "norm": 0.1}),
    "phi-unknown-key": (
        ["fock", "defect", "--phi", json.dumps({"dim": 1, "terms": [TERM], "degree": 3})],
        None,
    ),
    "term-unknown-key": (
        ["fock", "defect", "--phi", json.dumps({"dim": 1, "terms": [{**TERM, "scale": 2}]})],
        None,
    ),
    "power-series-unknown-key": (KERNEL_AT_CASE, {**SZEGO, "dim": 1}),
    "drury-arveson-unknown-key": (KERNEL_AT_CASE, {"type": "drury_arveson", "dim": 1, "coeffs": [1]}),
    "sampled-unknown-key": (
        ["cnp-check", "case.json"],
        {**SAMPLED, "gram": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], "points": []},
    ),
    "finite-list-unknown-key": (["blaschke", "case.json"], {**FINITE, "q": 0.5}),
    "geometric-tail-unknown-key": (["blaschke", "case.json"], {**GEOMETRIC, "p": 2}),
    "polynomial-tail-unknown-key": (
        ["blaschke", "case.json"],
        {"type": "polynomial_tail", "c": 0.5, "p": 2, "q": 0.9, "radii": [0.1]},
    ),
    "prefix-misspelled": (["blaschke", "case.json"], {**GEOMETRIC, "prefx": [0.5]}),
    "problem-not-an-object": (["pick", "case.json"], [SZEGO, [], []]),
    "kernel-type-not-a-string": (KERNEL_AT_CASE, {"type": ["power_series"], "coeffs": [1]}),
    "power-series-without-coeffs": (KERNEL_AT_CASE, {"type": "power_series"}),
    "geometric-tail-without-q": (["blaschke", "case.json"], {"type": "geometric_tail", "c": 0.5}),
    "count-without-powers-span": (
        ["fock", "defect", "--phi", phi_with_exponent(1), "--span", "full", "--count", "3"],
        None,
    ),
    "points-without-kernel-span": (
        ["fock", "defect", "--phi", phi_with_exponent(1), "--span", "powers", "--points", "pts.json"],
        None,
    ),
}

# the key or option each refusal names
NAMED = {
    "points-unknown-key": "points: unknown key 'weights'",
    "problem-with-norm": "problem: unknown key 'norm'",
    "phi-unknown-key": "--phi: unknown key 'degree'",
    "term-unknown-key": "--phi.terms: unknown key 'scale'",
    "power-series-unknown-key": "kernel: unknown key 'dim'",
    "drury-arveson-unknown-key": "kernel: unknown key 'coeffs'",
    "sampled-unknown-key": "kernel: unknown key 'points'",
    "finite-list-unknown-key": "family: unknown key 'q'",
    "geometric-tail-unknown-key": "family: unknown key 'p'",
    "polynomial-tail-unknown-key": "family: unknown key 'q'",
    "prefix-misspelled": "family: unknown key 'prefx'",
    "finite-list-with-prefix": "family: unknown key 'prefix'",
    "kernel-without-type": 'kernel: missing key "type"',
    "power-series-without-coeffs": 'kernel: missing key "coeffs"',
    "geometric-tail-without-q": 'family: missing key "q"',
    "problem-without-targets": 'problem: missing key "targets"',
    "term-without-coeff": 'missing key "coeff"',
    "count-without-powers-span": "--count",
    "points-without-kernel-span": "--points",
    "kernel-span-without-points": "--points",
}

# [re, im] pairs that are not two plain floats take the generic number path,
# not the plain-float one, and keep its messages
COMPLEX_REFUSALS = {
    "coordinate-re-boolean": "points: expected a number, got a boolean",
    "coordinate-im-boolean": "points: expected a number, got a boolean",
    "complex-one-part": "points: expected [re, im], got [0.5]",
    "complex-three-parts": "points: expected [re, im], got [0.1, 0.2, 0.3]",
    "complex-integer-beyond-float": "points: number beyond the float range",
}


class TestInternalError:
    """Any exception other than InputError and HypothesisError is a fault of the
    program: exit code 3, an InternalError report, and the traceback on stderr."""

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_exits_three_with_the_traceback_on_stderr(self, fmt, monkeypatch, capsys):
        def broken():
            raise ZeroDivisionError("a fault of the program")

        monkeypatch.setattr(fock, "arveson_example", broken)
        code = main(["fock", "arveson", "--format", fmt])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("Traceback")
        assert captured.err.endswith("ZeroDivisionError: a fault of the program\n")
        message = "ZeroDivisionError: a fault of the program"
        if fmt == "json":
            report = json.loads(captured.out)
            assert report["results"] == {"error": {"type": "InternalError", "message": message}}
            assert report["exit_code"] == 3
        else:
            lines = captured.out.splitlines()
            assert 'results.error.type = "InternalError"' in lines
            assert f"results.error.message = {json.dumps(message)}" in lines
            assert lines[-1] == "exit_code = 3"


class TestMalformedShapes:
    @pytest.mark.parametrize("case", MALFORMED)
    def test_refused_with_exit_two(self, case, corpus, capsys):
        argv, content = MALFORMED[case]
        if content is not None:
            text = content if isinstance(content, str) else json.dumps(content)
            (corpus / "case.json").write_text(text)
        code, report, _ = run(capsys, in_corpus(corpus, argv))
        assert code == 2 and report["exit_code"] == 2
        assert list(report["results"]) == ["error"]
        assert report["results"]["error"]["type"] == "InputError"

    @pytest.mark.parametrize("case", NAMED)
    def test_refusal_names_the_key_or_option(self, case, corpus, capsys):
        argv, content = MALFORMED[case]
        if content is not None:
            (corpus / "case.json").write_text(json.dumps(content))
        _, report, _ = run(capsys, in_corpus(corpus, argv))
        assert NAMED[case] in report["results"]["error"]["message"]

    @pytest.mark.parametrize("case", COMPLEX_REFUSALS)
    def test_complex_refusals_keep_their_messages(self, case, corpus, capsys):
        argv, content = MALFORMED[case]
        (corpus / "case.json").write_text(json.dumps(content))
        _, report, _ = run(capsys, in_corpus(corpus, argv))
        assert report["results"]["error"]["message"] == COMPLEX_REFUSALS[case]

    def test_rational_and_integer_parts_still_accepted(self, corpus, capsys):
        def problem(half, one):
            return {
                "kernel": SZEGO,
                "nodes": [[[half, 0.0]], [[0.0, 0.0]]],
                "targets": [[one, 0.5], [0.0, 0.0]],
            }

        reports = []
        for half, one in (({"num": "1", "den": "2"}, 1), (0.5, 1.0)):
            (corpus / "case.json").write_text(json.dumps(problem(half, one)))
            reports.append(run(capsys, ["pick", corpus / "case.json"]))
        (code, mixed, _), (_, floats, _) = reports
        assert code == 0 and mixed["results"] == floats["results"]


class TestArgumentRules:
    COMMANDS = [
        ["cnp-check", "bergman.json", "--points", "pts.json"],
        ["partition", "szego.json", "--points", "pts.json"],
        ["fock", "defect", "--phi", phi_with_exponent(1)],
    ]
    # commands whose verdicts read no tolerance
    NO_TOL = [
        ["ratio-check", "szego.json"],
        ["blaschke", "geo.json"],
        ["fock", "arveson"],
        ["fock", "balance", "--z", "[[0.5,0],[0.5,0]]"],
    ]

    @pytest.mark.parametrize("command", NO_TOL, ids=lambda c: " ".join(c[:2]))
    def test_tol_is_a_usage_error_where_no_verdict_reads_it(self, command, corpus, capsys):
        with pytest.raises(SystemExit) as exc:
            main(in_corpus(corpus, command) + ["--tol", "1e-9"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--tol" in captured.err
        code, report, _ = run(capsys, in_corpus(corpus, command))
        assert code == 0 and "tol" not in report["parameters"]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1e-9", "abc"])
    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_tol_must_be_finite_and_positive(self, command, value, corpus, capsys):
        with pytest.raises(SystemExit) as exc:
            main(in_corpus(corpus, command) + ["--tol", value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--tol" in captured.err

    def test_tol_reaches_the_sampled_gram_check(self, corpus, capsys):
        # least eigenvalue -5.0e-7 at scale 1: not PSD at the default tol,
        # PSD within 1e-6
        gram = [[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [1.0 - 1e-6, 0.0]]]
        kernel = {**SAMPLED, "gram": gram}
        (corpus / "case.json").write_text(json.dumps(kernel))
        problem = {"kernel": kernel, "nodes": ["a", "b"], "targets": [[0.0, 0.0], [0.0, 0.0]]}
        (corpus / "problem.json").write_text(json.dumps(problem))
        for argv in (["partition", "case.json"], ["pick", "problem.json", "--norm", "1"]):
            code, report, _ = run(capsys, in_corpus(corpus, argv))
            assert code == 2 and "not PSD" in report["results"]["error"]["message"]
            code, report, _ = run(capsys, in_corpus(corpus, argv) + ["--tol", "1e-6"])
            assert code == 0 and report["parameters"]["tol"] == 1e-6

    @pytest.mark.parametrize("value", ["-3", "-1", "1.5", "two"])
    def test_count_must_be_a_non_negative_integer(self, value, capsys):
        phi = phi_with_exponent(1)
        with pytest.raises(SystemExit) as exc:
            main(["fock", "defect", "--phi", phi, "--span", "powers", "--count", value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--count" in captured.err

    @pytest.mark.parametrize("phi", [phi_with_exponent(0), '{"dim": 1, "terms": []}'])
    def test_count_of_a_constant_is_bounded_by_the_degree(self, phi, capsys):
        argv = ["fock", "defect", "--phi", phi, "--span", "powers", "--degree", "12", "--count"]
        code, report, _ = run(capsys, argv + ["13"])
        assert code == 2 and report["results"]["error"]["type"] == "WindowOverflowError"
        assert "count 13" in report["results"]["error"]["message"]
        code, report, _ = run(capsys, argv + ["12"])
        assert code == 0 and report["results"]["span_dim"] == 1

    def test_count_zero_spans_the_constants(self, capsys):
        argv = ["fock", "defect", "--phi", phi_with_exponent(1), "--span", "powers", "--count", "0"]
        code, report, _ = run(capsys, argv)
        assert code == 0 and report["results"]["span_dim"] == 1


class TestPowersSpan:
    @staticmethod
    def coordinate_sum(coeff) -> str:
        exps = ([1, 0, 0], [0, 1, 0], [0, 0, 1])
        return json.dumps({"dim": 3, "terms": [{"exp": e, "coeff": coeff} for e in exps]})

    def test_integer_coefficients_run_on_the_tables(self, monkeypatch, capsys):
        # the powers of an exact multiplier used to be built with Gaussian
        # rationals, only to be rounded to floats
        def exact_arithmetic(*args):
            raise AssertionError("fock defect ran Gaussian-rational arithmetic")

        monkeypatch.setattr(fock.Polynomial, "__pow__", exact_arithmetic)
        monkeypatch.setattr(fock.TruncatedSpace, "exact_norms_sq", exact_arithmetic)
        reports = [
            run(capsys, ["fock", "defect", "--phi", self.coordinate_sum(c), "--span", "powers"])
            for c in (1, 1.0)
        ]
        (code, exact, _), (float_code, numeric, _) = reports
        assert code == float_code and exact["results"] == numeric["results"]
        assert exact["results"]["span_dim"] == 13

    def test_count_beyond_the_window(self, capsys):
        argv = ["fock", "defect", "--phi", self.coordinate_sum(1), "--span", "powers", "--count", "7"]
        code, report, _ = run(capsys, argv + ["--degree", "6"])
        assert code == 2 and report["results"]["error"]["type"] == "WindowOverflowError"


class TestSelfCommutatorExits:
    """Two compressions that join no indices by pairs: a constant on the whole window,
    and a kernel span, whose S is formed whole."""

    def test_constant_multiplier_has_no_pairs(self, capsys):
        # the window has no pairs: every index is a block of its own, and each block is 0
        phi = json.dumps({"dim": 2, "terms": [{"exp": [0, 0], "coeff": [0.5, 0.5]}]})
        code, report, _ = run(capsys, ["fock", "defect", "--phi", phi, "--span", "full", "--degree", "11"])
        assert code == 0 and report["results"]["defect"] == 0.0
        assert report["results"]["span_dim"] == 78

    def test_dense_compression_is_solved_whole(self, tmp_path, monkeypatch, capsys):
        # a kernel span makes t dense: S is formed by two dense products, and no class is sought
        def no_classes(*args):
            raise AssertionError("classes sought for a dense compression")

        monkeypatch.setattr(fock, "connected_components", no_classes)
        rng = np.random.default_rng(70)
        z = rng.standard_normal((70, 2)) + 1j * rng.standard_normal((70, 2))
        z *= 0.8 * np.sqrt(rng.random((70, 1))) / np.linalg.norm(z, axis=1, keepdims=True)
        points = tmp_path / "pts70.json"
        points.write_text(json.dumps({"dim": 2, "points": [[[x.real, x.imag] for x in y] for y in z]}))
        terms = [{"exp": [1, 0], "coeff": [0.6, 0.1]}, {"exp": [1, 1], "coeff": [0.0, 0.5]}]
        argv = ["fock", "defect", "--phi", json.dumps({"dim": 2, "terms": terms}), "--span", "kernel"]
        code, report, _ = run(capsys, argv + ["--points", points, "--degree", "12"])
        assert code == 1 and report["results"]["hyponormal_on_this_model"] is False
        assert report["results"]["span_dim"] == 70


class TestTermsPastTheWindow:
    """A term of phi past the window's degree acts on nothing in it: it moves neither the
    defect nor the threshold that judges it, and its size cannot overflow the scale."""

    @pytest.mark.parametrize("span", ["full", "kernel", "powers", "powers --count 2"])
    @pytest.mark.parametrize("far", [1000.0, 1e300])
    def test_same_defect_and_exit(self, span, far, corpus, capsys):
        near = {"exp": [1, 1], "coeff": 0.001}
        argv = ["fock", "defect", "--span", *span.split(), "--degree", "6"]
        argv += ["--points", corpus / "pts2.json"] if span == "kernel" else []
        reports = []
        for terms in ([near], [near, {"exp": [50, 0], "coeff": far}]):
            code, report, _ = run(capsys, argv + ["--phi", json.dumps({"dim": 2, "terms": terms})])
            reports.append((code, report["results"]))
        (code, alone), (code_far, with_far) = reports
        assert code == code_far and alone == with_far
        if span == "full":  # a refutation either way, not one that the far term hides
            assert code == 1 and alone["defect"] < 0

    @pytest.mark.parametrize("count", [[], ["--count", "6"]])
    def test_powers_are_counted_on_the_terms_that_act(self, count, capsys):
        # z^20 acts on nothing at degree 6, so the powers of z fill the window as for z alone
        terms = [{"exp": [1], "coeff": 1.0}, {"exp": [20], "coeff": 0.5}]
        argv = ["fock", "defect", "--span", "powers", "--degree", "6", *count]
        code, report, _ = run(capsys, argv + ["--phi", json.dumps({"dim": 1, "terms": terms})])
        assert code == 1 and report["results"]["span_dim"] == 7 and report["results"]["defect"] == -1.0


def run_within_a_second(capsys, argv):
    start = time.perf_counter()
    result = run(capsys, argv)
    assert time.perf_counter() - start < 1.0, argv
    return result


def past_the_window(e) -> str:
    terms = [{"exp": [e, 0], "coeff": 0.5}, {"exp": [1, 1], "coeff": 0.9}]
    return json.dumps({"dim": 2, "terms": terms})


class TestHugeIntegers:
    """Integers past 2^63 in a Fock window, and degrees whose largest multinomial
    is too large to form quickly, end in a report within a second."""

    @pytest.mark.parametrize("span", ["full", "powers"])
    def test_exponent_past_int64_reads_as_any_term_past_the_window(self, span, capsys):
        argv = ["fock", "defect", "--span", span, "--degree", "6", "--phi"]
        code, report, _ = run_within_a_second(capsys, argv + [past_the_window(10**20)])
        want_code, want, _ = run(capsys, argv + [past_the_window(30)])
        assert (code, report["results"]) == (want_code, want["results"])
        if span == "full":
            assert code == 1 and report["results"]["defect"] == pytest.approx(-0.243, rel=1e-12)

    @pytest.mark.parametrize("degree", [10**20, 10**6, 10**7])
    @pytest.mark.parametrize(
        "command",
        [
            ["fock", "defect", "--phi", past_the_window(1)],
            ["fock", "balance", "--z", "[[0.5,0],[0.3,0]]"],
            ["closure", "--points", "pts2.json", "--z", "[[0.1,0],[0.1,0]]"],
        ],
        ids=["defect", "balance", "closure"],
    )
    def test_huge_degree_is_refused_at_once(self, command, degree, corpus, capsys):
        argv = in_corpus(corpus, command) + ["--degree", str(degree)]
        code, report, _ = run_within_a_second(capsys, argv)
        assert code == 2 and report["results"]["error"]["type"] == "InputError"
        assert "below the normal float range" in report["results"]["error"]["message"]


@pytest.mark.parametrize("span", ["full", "powers"])
def test_hardy_shift_defect_refutes_the_compression_only(span, capsys):
    # M_z on the Hardy space is an isometry; its truncation diag(1, 0, ..., 0, -1) is not
    argv = ["fock", "defect", "--phi", phi_with_exponent(1), "--span", span, "--degree", "6"]
    code, report, _ = run(capsys, argv)
    assert code == 1 and report["results"]["defect"] == -1.0
    assert report["results"]["hyponormal_on_this_model"] is False
    assert "hyponormality of the compression P_F M_phi|_F only" in report["results"]["claim_scope"]


def test_targets_and_z_of_plain_floats_are_read_as_one_array(corpus, monkeypatch, capsys):
    def entry_by_entry(*args):
        raise AssertionError("plain floats read entry by entry")

    monkeypatch.setattr(cli, "_parse_complex", entry_by_entry)
    code, report, _ = run(capsys, ["pick", corpus / "problem.json", "--norm", "1.0"])
    assert code == 0 and report["results"]["feasible"] is True
    argv = ["closure", "--points", corpus / "pts2.json", "--z", "[[0.5,0.0],[0.0,0.0]]"]
    code, report, _ = run(capsys, argv + ["--degree", "4"])
    assert code == 0 and report["results"]["member"] is True


class TestOneParser:
    """main builds the parser on its first call and reuses it; nothing of one
    request may reach the next."""

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_count_does_not_carry_over(self, capsys):
        phi = phi_with_exponent(1)
        _, first, _ = run(capsys, ["fock", "defect", "--phi", phi, "--span", "powers", "--count", "3"])
        _, second, _ = run(capsys, ["fock", "defect", "--phi", phi, "--span", "powers"])
        assert first["parameters"]["count"] == 3 and "count" not in second["parameters"]

    def test_usage_error_leaves_no_trace(self, corpus, capsys):
        argv = in_corpus(corpus, ["cnp-check", "szego.json", "--points", "pts.json"])
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--tol", "nan"])
        assert exc.value.code == 2
        capsys.readouterr()
        _, _, out = run(capsys, argv)
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        fresh = subprocess.run(
            [sys.executable, "-m", "rkhslab.cli", *argv], capture_output=True, text=True, env=env
        )
        assert fresh.returncode == 0 and out == fresh.stdout

    def test_help_twice(self, capsys):
        outputs = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["--help"])
            assert exc.value.code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert all(name.split()[0] in outputs[0] for name in cli.COMMANDS)
