"""Command-line interface: parsing, config files, rendering, determinism."""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import warnings
from pathlib import Path

import pytest

from selhaz.cli import (
    ConfigError,
    ExperimentConfig,
    build_estimator,
    main,
    read_config_file,
    serialize_config,
)
from selhaz.cli import _build_parser, config_from_args


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SMALL = ("--scales", "0.3,0.2;1,1", "--reps", "400", "--seed", "11")


class TestRiskTable:
    def test_header_and_shape(self, capsys):
        code, out, err = run_cli(capsys, "risk-table", *SMALL)
        assert code == 0 and err == ""
        lines = out.strip().splitlines()
        assert lines[0] == (
            "scale_1,scale_2,R_N1,SE_N1,R_N2,SE_N2,R_N2I,SE_N2I,"
            "R_ML,SE_ML,R_MLI,SE_MLI"
        )
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "0.3" and first[1] == "0.2"
        # Risk cells print with six decimals.
        assert all("." in cell and len(cell.split(".")[1]) == 6 for cell in first[2:])

    def test_repeat_runs_byte_identical(self, capsys):
        _, out1, _ = run_cli(capsys, "risk-table", *SMALL)
        _, out2, _ = run_cli(capsys, "risk-table", *SMALL)
        assert out1 == out2

    def test_worker_count_invariant(self, capsys):
        outputs = []
        for workers in ("1", "2", "8"):
            _, out, _ = run_cli(capsys, "risk-table", *SMALL, "--workers", workers)
            outputs.append(out)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(capsys, "risk-table", *SMALL, "--out", str(target))
        assert code == 0 and out == ""
        _, stdout_text, _ = run_cli(capsys, "risk-table", *SMALL)
        assert target.read_text(encoding="utf-8") == stdout_text

    def test_out_path_that_cannot_be_opened(self, capsys, tmp_path):
        target = tmp_path / "no-such-dir" / "x.txt"
        code, out, err = run_cli(capsys, "bounds", "--out", str(target))
        assert code == 1 and out == ""
        assert err.startswith("error: out: cannot write")
        assert err.count("\n") == 1

    def test_json_meta(self, capsys):
        code, out, _ = run_cli(capsys, "risk-table", *SMALL, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        meta = payload["meta"]
        assert meta["command"] == "risk-table"
        assert meta["n"] == 5 and meta["k"] == 2
        assert meta["replications"] == 400 and meta["seed"] == 11
        assert meta["estimators"] == ["N1", "N2", "N2I", "ML", "MLI"]
        assert len(payload["rows"]) == 2
        assert payload["rows"][0]["scale_1"] == "0.3"

    def test_markdown(self, capsys):
        code, out, _ = run_cli(capsys, "risk-table", *SMALL, "--format", "markdown")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("| scale_1 | scale_2 |")
        assert set(lines[1]) <= {"|", "-", " "}

    def test_custom_estimators(self, capsys):
        code, out, _ = run_cli(
            capsys, "risk-table", *SMALL, "--estimators", "N2,c4.5,i4:0.1:2"
        )
        assert code == 0
        assert out.splitlines()[0] == (
            "scale_1,scale_2,R_N2,SE_N2,R_c4.5,SE_c4.5,R_i4:0.1:2,SE_i4:0.1:2"
        )

    def test_default_grid_size(self, capsys):
        code, out, _ = run_cli(capsys, "risk-table", "--reps", "50", "--estimators", "N2")
        assert code == 0
        assert len(out.strip().splitlines()) == 26

    def test_empty_scales_rejected(self, capsys):
        code, out, err = run_cli(capsys, "risk-table", "--scales", "", "--reps", "50")
        assert code == 1 and out == ""
        assert "at least one scale vector" in err

    def test_malformed_scales_rejected(self, capsys):
        code, _, err = run_cli(capsys, "risk-table", "--scales", "0.3,oops")
        assert code == 1
        assert "cannot parse scale vector" in err

    def test_unknown_estimator_rejected(self, capsys):
        code, _, err = run_cli(capsys, "risk-table", *SMALL, "--estimators", "XX")
        assert code == 1
        assert "unknown estimator" in err

    def test_alpha_above_bound_rejected(self, capsys):
        code, _, err = run_cli(capsys, "risk-table", *SMALL, "--alpha", "0.5")
        assert code == 1
        assert "alpha" in err


class TestConfigFile:
    def test_round_trip_reproduces_output(self, capsys, tmp_path):
        _, stdout_text, _ = run_cli(capsys, "risk-table", *SMALL)
        cfg = ExperimentConfig(
            n=5,
            k=2,
            scales_grid=((0.3, 0.2), (1.0, 1.0)),
            estimators=("N1", "N2", "N2I", "ML", "MLI"),
            replications=400,
            seed=11,
            output_format="csv",
            workers=1,
        )
        path = tmp_path / "run.cfg"
        path.write_text(serialize_config(cfg), encoding="utf-8")
        code, out, _ = run_cli(capsys, "risk-table", "--config", str(path))
        assert code == 0
        assert out == stdout_text

    def test_flags_override_file(self, capsys, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("reps = 400\nseed = 11\nscales = 0.3,0.2;1,1\n", encoding="utf-8")
        _, baseline, _ = run_cli(capsys, "risk-table", *SMALL)
        _, overridden, _ = run_cli(
            capsys, "risk-table", "--config", str(path), "--seed", "12"
        )
        assert overridden != baseline
        _, same, _ = run_cli(capsys, "risk-table", "--config", str(path))
        assert same == baseline

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("repz = 400\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="unknown key"):
            read_config_file(str(path))

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just some words\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="expected key=value"):
            read_config_file(str(path))

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text("# comment\n\nreps = 250\n", encoding="utf-8")
        assert read_config_file(str(path)) == {"reps": "250"}

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "risk-table", "--config", "/nonexistent.cfg")
        assert code == 1
        assert "cannot read" in err


class TestBounds:
    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n", "5")
        assert code == 0
        assert "admissible c interval: [4, 5.505376344]" in out
        assert "minimax value: 0.1198233073" in out
        assert "c = n-1 = 4: 0.2727272727" in out
        assert "c = n = 5: 0.09090909091" in out

    def test_n2_drops_nonpositive_c(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n", "2")
        assert code == 0
        assert "n-2" not in out
        assert "admissible c interval: [1, 2]" in out

    def test_json_structure(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n", "8", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["c_lower"] == 7.0
        assert payload["c_upper"] > 7.0
        assert payload["minimax_value"] == pytest.approx(0.0697313, abs=5e-8)
        assert [row["c_label"] for row in payload["sup_risk_bounds"]] == ["n-1", "n"]

    def test_large_n(self, capsys):
        # The incomplete beta at n = 1e6 used to exhaust its continued fraction.
        code, out, err = run_cli(capsys, "bounds", "--n", "1000000")
        assert code == 0 and err == ""
        assert "admissible c interval: [999999, " in out

    def test_upper_end_at_n_1e9(self, capsys):
        # c* = 1000017840.56; 2 I_{1/2}(n, n-1) by continued fraction gave 1000016896.
        code, out, err = run_cli(capsys, "bounds", "--n", "1000000000")
        assert code == 0 and err == ""
        assert "admissible c interval: [999999999, 1000017841]" in out

    def test_minimax_and_sup_digits_at_n_1e9(self, capsys):
        # 40-digit values 5.000000004e-10 and 5.000000009e-10. Taken by
        # subtraction, psi(n) - ln(n-1) printed 5.000018177e-10 for both.
        code, out, err = run_cli(capsys, "bounds", "--n", "1000000000")
        assert code == 0 and err == ""
        assert "minimax value: 5.000000004e-10" in out
        assert "c = n-1 = 1e+09: 5.000000004e-10" in out
        assert "c = n = 1e+09: 5.000000009e-10" in out

    def test_rejects_n1(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--n", "1")
        assert code == 1
        assert "n >= 2" in err

    def test_k_other_than_2_rejected(self, capsys, tmp_path):
        # Every bounds quantity is a k = 2 result: no --k flag, and a k from
        # a config file fails naming k.
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--n", "5", "--k", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --k 3" in capsys.readouterr().err
        path = tmp_path / "k3.cfg"
        path.write_text("n = 5\nk = 3\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "bounds", "--config", str(path))
        assert code == 1 and out == ""
        assert err == "error: k: bounds prints k = 2 results only, got k=3\n"


class TestDominance:
    def test_n2_dominates_n1(self, capsys):
        code, out, _ = run_cli(
            capsys, "dominance", "N1", "N2", "--scales", "0.3,0.2;1,1",
            "--reps", "4000", "--seed", "5",
        )
        assert code == 0
        assert "# verdict: N2 dominates N1 at 3 std errors" in out
        header = out.splitlines()[0]
        assert header == "scale_1,scale_2,mean_diff,std_error_diff,replications"

    def test_self_comparison_inconclusive_with_exact_zeros(self, capsys):
        code, out, _ = run_cli(
            capsys, "dominance", "N2", "N2", "--scales", "1,1", "--reps", "500"
        )
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert row[2] == "0.000000" and row[3] == "0.000000"
        assert "inconclusive at 3 std errors" in out

    def test_json_meta_names_the_compared_pair(self, capsys):
        code, out, _ = run_cli(
            capsys, "dominance", "N2", "c4.5", "--scales", "1,1", "--reps", "50",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["meta"]["estimators"] == ["N2", "c4.5"]

    def test_unknown_name(self, capsys):
        code, _, err = run_cli(capsys, "dominance", "N1", "QQ", "--scales", "1,1")
        assert code == 1
        assert "unknown estimator" in err


class TestPlotData:
    def test_shape_and_sort(self, capsys):
        code, out, _ = run_cli(
            capsys, "plot-data", "--scales", "0.9,0.3;0.2,0.4;1,1",
            "--reps", "200", "--estimators", "N2,ML",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "ratio,estimator,risk,std_error"
        assert len(lines) == 7
        keys = [(row.split(",")[1], float(row.split(",")[0])) for row in lines[1:]]
        assert keys == sorted(keys)
        ratios = sorted({row.split(",")[0] for row in lines[1:]})
        assert ratios == ["0.5", "1", "3"]

    def test_rejects_k3(self, capsys):
        code, _, err = run_cli(
            capsys, "plot-data", "--k", "3", "--scales", "1,1,1", "--reps", "100"
        )
        assert code == 1
        assert "k=2" in err

    def test_rejects_other_formats(self, capsys):
        code, _, err = run_cli(
            capsys, "plot-data", "--scales", "1,1", "--reps", "100",
            "--format", "json",
        )
        assert code == 1
        assert "CSV" in err


@pytest.mark.parametrize(
    "argv", [("bounds", "--n", "5"), ("exact", "--c", "4", "--scales", "1,1", "--reps", "50")]
)
def test_text_commands_reject_markdown(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--format", "markdown")
    assert code == 1 and out == ""
    assert err.startswith("error: format:") and "markdown" in err


class TestExact:
    def test_symmetric_point(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "--c", "4", "--scales", "1,1", "--reps", "500"
        )
        assert code == 0
        assert "h(q) = 0.181640625" in out
        assert "q (rate ratio) = 1" in out

    def test_scale_invariance_of_report(self, capsys):
        _, out_a, _ = run_cli(
            capsys, "exact", "--c", "4", "--scales", "1,2", "--reps", "200"
        )
        _, out_b, _ = run_cli(
            capsys, "exact", "--c", "4", "--scales", "2,4", "--reps", "200"
        )
        pick = lambda text, key: next(
            line for line in text.splitlines() if line.startswith(key)
        )
        assert pick(out_a, "h(q)") == pick(out_b, "h(q)")
        assert pick(out_a, "exact risk") == pick(out_b, "exact risk")

    def test_json_fields(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "--c", "4", "--scales", "1,1", "--reps", "200",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["h_of_q"] == pytest.approx(93.0 / 512.0, abs=1e-12)
        assert payload["exact_risk"] == pytest.approx(0.109519967, abs=1e-6)

    def test_needs_scales(self, capsys):
        code, _, err = run_cli(capsys, "exact", "--c", "4", "--reps", "100")
        assert code == 1
        assert "--scales" in err

    def test_rejects_nonpositive_c(self, capsys):
        code, _, err = run_cli(
            capsys, "exact", "--c", "-1", "--scales", "1,1", "--reps", "100"
        )
        assert code == 1
        assert "must be positive" in err

    @pytest.mark.parametrize("c", ["-1", "0", "nan"])
    def test_bad_c_error_names_the_field(self, capsys, c):
        code, out, err = run_cli(capsys, "exact", "--c", c, "--scales", "1,1", "--reps", "100")
        assert code == 1 and out == ""
        assert err.startswith("error: c: ")

    def test_rejects_three_scales(self, capsys):
        code, _, err = run_cli(
            capsys, "exact", "--c", "4", "--scales", "1,1,1", "--reps", "100"
        )
        assert code == 1
        assert "scale" in err


    def test_large_n_prints_the_right_digits(self, capsys):
        # 5.000041667e-06 by a 40-digit integral; the finite negative-binomial
        # sum printed 5.000076118e-06.
        code, out, err = run_cli(
            capsys, "exact", "--c", "99999", "--n", "100000", "--scales", "0.1,1", "--reps", "2"
        )
        assert code == 0 and err == ""
        assert "exact risk = 5.000041667e-06" in out

class TestBuildEstimator:
    def test_named_case_insensitive(self):
        assert build_estimator("ml", 5, 2, None, None).label() == "ML"
        assert build_estimator("n2i", 5, 2, None, None).label() == "N2I"

    def test_explicit_constant(self):
        spec = build_estimator("c4.5", 5, 2, None, None)
        assert spec.c == 4.5 and spec.label() == "c4.5"

    def test_explicit_improved_validated(self):
        with pytest.raises(ConfigError):
            build_estimator("i4:0.9:2", 5, 2, None, None)

    def test_named_improved_honors_overrides(self):
        spec = build_estimator("N2I", 5, 2, 0.05, None)
        assert spec.alpha == 0.05

    def test_garbage_token(self):
        with pytest.raises(ConfigError, match="unknown estimator"):
            build_estimator("zzz", 5, 2, None, None)


class TestOneConfigPath:
    """Every command runs from one validated config and takes only the
    flags it reads."""

    def test_dominance_resolves_only_its_two_tokens(self, capsys):
        # The default estimator list holds N1 (needs n >= 3) and N2I
        # (alpha 0.5 is above its bound); neither is in these comparisons.
        for argv in (("N2", "ML", "--n", "2"), ("N1", "N2", "--alpha", "0.5")):
            code, out, err = run_cli(
                capsys, "dominance", *argv, "--scales", "1,1", "--reps", "200"
            )
            assert code == 0 and err == ""
            assert "# verdict:" in out

    def test_exact_worker_count_invariant(self, capsys):
        argv = ("exact", "--c", "4", "--scales", "0.3,0.2", "--reps", "9000")
        _, one, _ = run_cli(capsys, *argv, "--workers", "1")
        code, two, err = run_cli(capsys, *argv, "--workers", "2")
        assert code == 0 and err == ""
        assert one == two

    def test_exact_rejects_zero_workers(self, capsys):
        code, out, err = run_cli(
            capsys, "exact", "--c", "4", "--scales", "1,1", "--workers", "0"
        )
        assert code == 1 and out == ""
        assert err.startswith("error: workers:")

    @pytest.mark.parametrize("flag, field", [("--n", "n"), ("--k", "k")])
    def test_n_and_k_errors_name_the_field(self, capsys, flag, field):
        code, _, err = run_cli(capsys, "risk-table", flag, "1")
        assert code == 1
        assert err.startswith(f"error: {field}: need {field} >= 2")

    @pytest.mark.parametrize("scales", ["inf,1", "1e-320,1", "nan,1"])
    def test_nonfinite_scale_or_rate_names_scales(self, capsys, scales):
        code, _, err = run_cli(capsys, "risk-table", "--scales", scales, "--reps", "50")
        assert code == 1
        assert err.startswith("error: scales:")

    @pytest.mark.parametrize(
        "argv",
        [
            ("bounds", "--reps", "5"),
            ("bounds", "--n", "5", "--workers", "0"),
            ("dominance", "N1", "N2", "--estimators", "N2"),
            ("exact", "--c", "4", "--scales", "1,1", "--k", "2"),
        ],
    )
    def test_flag_a_command_does_not_read_is_an_argparse_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_infinite_constant_token_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "risk-table", "--estimators", "cinf", "--scales", "1,1", "--reps", "50"
        )
        assert code == 1 and out == ""
        assert "'cinf'" in err and "c must be positive and finite" in err

    def test_exact_overflowing_rate_ratio_names_scales(self, capsys):
        # Both scales and their rates are finite, but the ratio overflows.
        code, out, err = run_cli(capsys, "exact", "--c", "4", "--scales", "1e-200,1e200")
        assert code == 1 and out == ""
        assert err == "error: scales: rate ratio q must be finite and >= 1, got inf\n"

    @pytest.mark.parametrize("command", [("risk-table",), ("dominance", "N2I", "N2")])
    def test_overflowing_risk_names_scales_and_estimator(self, capsys, command):
        # Finite scales whose improved-estimator risk overflows the float
        # range: an error naming the row and the estimator, and no warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, *command, "--scales", "1,1;1e-200,1e200", "--reps", "200"
            )
        assert code == 1 and out == ""
        assert err.startswith("error: scales: 1e-200,1e+200: N2I")
        assert "Monte Carlo risk is not finite" in err and err.count("\n") == 1

    def test_exact_infinite_constant_rejected(self, capsys):
        code, out, err = run_cli(capsys, "exact", "--c", "inf", "--scales", "1,1")
        assert code == 1 and out == ""
        assert "c must be positive and finite" in err

    @pytest.mark.parametrize(
        "line, message",
        [("alpha = abc", "alpha: expected a number, got 'abc'"),
         ("h_count = x", "h_count: expected an integer, got 'x'")],
    )
    def test_config_file_number_names_the_key(self, capsys, tmp_path, line, message):
        path = tmp_path / "bad.cfg"
        path.write_text(f"scales = 1,1\n{line}\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "risk-table", "--config", str(path))
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    def test_config_file_is_validated_as_a_whole(self, capsys, tmp_path):
        # bounds reads only n and k, but a bad key elsewhere in its file fails.
        path = tmp_path / "run.cfg"
        path.write_text("n = 5\nreps = 0\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "bounds", "--config", str(path))
        assert code == 1
        assert err.startswith("error: reps:")


class TestGoldenBytes:
    """Output bytes pinned to sha256 digests; any change to the sampler,
    the loss kernel, block assembly or rendering shows up here."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ("risk-table",),
                "b984e7af9310cac05657541444da087e318c3d6a090cb707b2e2e7f5b8b8ed21",
            ),
            (
                (
                    "plot-data", "--scales", "0.9,0.3;0.2,0.4;1,1", "--reps", "300",
                    "--seed", "11", "--estimators", "N2,c4.5,i4:0.1:2",
                ),
                "6de8fdd1eca0773e39fee2092f0e431f95b504946d41ebc26df556b678710fa8",
            ),
            (
                (
                    "dominance", "N2I", "N2", "--n", "3", "--k", "5", "--h-count", "3",
                    "--workers", "2", "--reps", "9000",
                    "--scales", "1,0.5,0.8,0.3,0.6;1,1,1,1,1", "--seed", "3",
                ),
                "15d08eec77396c0ac162d3bded44fdfc4d945825eab3c49b0678e84d54a8fb34",
            ),
            (
                ("bounds", "--n", "5"),
                "fc9eb884b84cdc63ae0b79e9e86d326bf7f1dd4c03638d2ff698f4cda418ad39",
            ),
            (
                ("bounds", "--n", "8", "--format", "json"),
                "75ac3693fe85a53745b7cc29c019802763364746544d5be882762b4ddca7d142",
            ),
            (
                ("exact", "--c", "4", "--scales", "1,1", "--reps", "500"),
                "9f6dfeed811265c5714e75fa907e7e2514ca51e0d669fc27b7e72fa0909d46ae",
            ),
            (
                (
                    "exact", "--c", "5", "--n", "8", "--scales", "0.3,0.2", "--reps", "500",
                    "--seed", "9", "--format", "json",
                ),
                "a2816f0cb7d5f5560c7684b1202b8a95a93760fbed1aea43a948ae2df1f1575a",
            ),
            (
                ("risk-table", "--format", "markdown"),
                "39f1229c5702a94a03f8f503a732974fd9738b1b08e462216cf33c1e3e8d80a7",
            ),
            (
                ("risk-table", "--format", "json"),
                "c5d272e9517bf81a3ffecac1994d2a01587cadbb21ed183d23e3c1c865c3daa7",
            ),
            (
                ("dominance", "N2", "N1", "--reps", "300", "--format", "markdown"),
                "bd8730e606c81527f6e96040d9d929da8ba8103ceab7f63bcd5ab98f3a27dc03",
            ),
            (
                ("dominance", "N2", "N1", "--reps", "300", "--format", "json"),
                "c8bba980ef0d9eb722cd830580270f19f7be6d252a343dcfe499726f2ec335bb",
            ),
        ],
        ids=[
            "risk-table-default", "plot-data", "dominance-k5", "bounds-n5", "bounds-n8-json",
            "exact-text", "exact-json",
            "risk-table-markdown", "risk-table-json", "dominance-markdown", "dominance-json",
        ],
    )
    def test_output_digest(self, capsys, argv, digest):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


class TestSavedConfigRoundTrip:
    """serialize_config writes floats that parse back to the same bits."""

    CFG = ExperimentConfig(
        n=5,
        k=2,
        scales_grid=((0.1234567, 1.0),),
        estimators=("N2", "c4.5"),
        replications=300,
        seed=7,
        output_format="json",
        workers=2,
        alpha=0.0123456789,
        h_count=2,
    )

    def test_saved_config_reads_back_equal(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(serialize_config(self.CFG), encoding="utf-8")
        assert config_from_args(argparse.Namespace(config=str(path))) == self.CFG

    def test_exact_from_saved_config_matches_flags(self, capsys, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(serialize_config(self.CFG), encoding="utf-8")
        code, from_file, err = run_cli(capsys, "exact", "--c", "4", "--config", str(path))
        assert code == 0 and err == ""
        _, from_flags, _ = run_cli(
            capsys, "exact", "--c", "4", "--scales", "0.1234567,1", "--reps", "300",
            "--seed", "7", "--workers", "2", "--format", "json",
        )
        assert from_file == from_flags


class TestReadmeFlagTable:
    """The README's CLI flag table lists exactly the flags each subcommand takes."""

    def readme_rows(self):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = text.split("## CLI usage", 1)[1]
        rows = {}
        for line in section.splitlines():
            cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
            if len(cells) != 2 or not cells[0].startswith("`"):
                continue
            for command in re.findall(r"`([a-z-]+)[^`]*`", cells[0]):
                rows[command] = re.findall(r"--[a-z-]+", cells[1])
        return rows

    def parser_flags(self):
        parser = _build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return {
            name: [
                opt for action in command._actions for opt in action.option_strings
                if opt not in ("-h", "--help")
            ]
            for name, command in sub.choices.items()
        }

    def test_rows_match_the_parser(self):
        readme, parser = self.readme_rows(), self.parser_flags()
        assert readme == parser
        assert sum(len(flags) for flags in parser.values()) == 48


class TestGridRunnerAndReport:
    """Every engine command walks the grid through one runner and every
    command writes through one report; main checks each command's formats."""

    # A small, valid run of every command.
    RUNS = {
        "risk-table": ("--scales", "1,1", "--reps", "50", "--estimators", "N2"),
        "bounds": ("--n", "5"),
        "dominance": ("N2", "N1", "--scales", "1,1", "--reps", "50"),
        "plot-data": ("--scales", "1,1", "--reps", "50", "--estimators", "N2"),
        "exact": ("--c", "4", "--scales", "1,1", "--reps", "50"),
    }
    ACCEPTED = {
        "risk-table": ("csv", "json", "markdown"),
        "bounds": ("csv", "json"),
        "dominance": ("csv", "json", "markdown"),
        "plot-data": ("csv",),
        "exact": ("csv", "json"),
    }

    @pytest.mark.parametrize("fmt", ["csv", "json", "markdown"])
    @pytest.mark.parametrize("command", list(RUNS))
    def test_format_rule(self, capsys, command, fmt):
        code, out, err = run_cli(capsys, command, *self.RUNS[command], "--format", fmt)
        if fmt in self.ACCEPTED[command]:
            assert code == 0 and err == "" and out
        else:
            assert code == 1 and out == ""
            assert err.startswith(f"error: format: {command} prints ")
            assert err.endswith(f", not {fmt}\n")

    @pytest.mark.parametrize("command", ["risk-table", "plot-data"])
    def test_duplicate_estimator_label_rejected(self, capsys, command):
        # N2 and n2 resolve to one label; JSON rows would keep one column.
        code, out, err = run_cli(
            capsys, command, "--estimators", "N2,n2", "--scales", "1,1", "--reps", "50"
        )
        assert code == 1 and out == ""
        assert err == "error: estimators: duplicate estimator label 'N2'\n"

    def test_dominance_needs_two_replications(self, capsys):
        code, out, err = run_cli(capsys, "dominance", "N1", "N2", "--reps", "1", "--scales", "1,1")
        assert code == 1 and out == ""
        assert err.startswith("error: reps: ") and "reps >= 2" in err
        code, out, _ = run_cli(capsys, "dominance", "N1", "N2", "--reps", "2", "--scales", "1,1")
        assert code == 0 and "# verdict:" in out

    def test_plot_data_keeps_grid_order_for_equal_ratios(self, capsys):
        # Every row has ratio 0.5, so the rows follow the grid, whose risks
        # the table prints in the same order.
        grid = ("--scales", "0.5,1;1,2;2,4;4,8", "--estimators", "N2", "--reps", "50")
        code, plot, _ = run_cli(capsys, "plot-data", *grid)
        assert code == 0
        _, table, _ = run_cli(capsys, "risk-table", *grid)
        table_rows = [line.split(",") for line in table.splitlines()[1:]]
        assert len({row[2] for row in table_rows}) == 4
        assert plot.splitlines()[1:] == [f"0.5,N2,{row[2]},{row[3]}" for row in table_rows]

    def test_counter_overflow_names_reps(self):
        # 2**62 replications at k * n = 10 need counters past 2**64.
        with pytest.raises(ConfigError, match=r"^reps: .*64-bit draw counter at k=2, n=5"):
            ExperimentConfig(
                n=5, k=2, scales_grid=None, estimators=("N2",), replications=2**62, seed=1
            )
        ExperimentConfig(
            n=4, k=2, scales_grid=None, estimators=("N2",), replications=2**61, seed=1
        )
