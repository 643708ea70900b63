"""CLI subcommands: flags, outputs, determinism, exit codes."""

import json

import numpy as np
import pytest

from rkhsquad.cli import main
from rkhsquad.worst_case import MultiIndexSet, QuadratureRule, SamplingMethod


@pytest.fixture()
def hermite_spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"family": "hermite", "params": [0.5, 0.25]}))
    return str(path)


@pytest.fixture()
def rule_file(tmp_path):
    rule = QuadratureRule(np.array([[0.0], [1.0]]), np.array([0.6, 0.4]))
    path = tmp_path / "rule.json"
    path.write_text(json.dumps(rule.to_json()))
    return str(path)


class TestE0:
    def test_hermite_prints_one(self, hermite_spec_file, capsys):
        assert main(["e0", "--kernel", hermite_spec_file, "--problem", "int"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_gaussian_value(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"family": "gaussian", "params": [0.5]}))
        assert main(["e0", "--kernel", str(path), "--problem", "int"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(2.0**-0.25, rel=1e-14)

    def test_missing_file(self, capsys):
        assert main(["e0", "--kernel", "/nonexistent.json", "--problem", "int"]) == 2


class TestTransfer:
    def test_integration_transfer(self, rule_file, tmp_path, capsys):
        out = tmp_path / "twin.json"
        code = main([
            "transfer", "--rule", rule_file, "--sigma", "1.0",
            "--problem", "int", "--out", str(out),
        ])
        assert code == 0
        text = capsys.readouterr().out
        fields = dict(line.split("=") for line in text.strip().splitlines())
        assert float(fields["identity_residual"]) <= 1e-12
        twin = QuadratureRule.from_json(json.loads(out.read_text()))
        assert twin.n == 2

    def test_approximation_transfer(self, tmp_path, capsys):
        idx = MultiIndexSet.box(1, 20)
        coeff = np.zeros((1, idx.size))
        coeff[0, 0] = 1.0
        method = SamplingMethod(np.zeros((1, 1)), coeff, idx)
        path = tmp_path / "method.json"
        path.write_text(json.dumps(method.to_json()))
        out = tmp_path / "twin.json"
        code = main([
            "transfer", "--rule", str(path), "--sigma", "0.5",
            "--problem", "approx", "--out", str(out),
        ])
        assert code == 0
        text = capsys.readouterr().out
        fields = dict(
            line.split("=") for line in text.strip().splitlines() if "=" in line and not line.startswith("{")
        )
        residual = float(fields["identity_residual"])
        tails = float(fields["tail_gaussian"]) + float(fields["tail_hermite"])
        assert residual <= tails + 1e-12
        twin = SamplingMethod.from_json(json.loads(out.read_text()))
        assert twin.index_set.indices == idx.indices
        assert twin.coeff_table[0, 0] == pytest.approx(
            (1.0 + 8.0 * 0.25) ** 0.125, rel=1e-13
        )


class TestCsvCommands:
    def test_univariate_decay_csv(self, tmp_path):
        out = tmp_path / "uni.csv"
        code = main([
            "univariate-decay", "--space", "hermite", "--param", "0.5",
            "--n-max", "8", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,error,lower_bound,rate_fit"
        errors = [float(line.split(",")[1]) for line in lines[1:]]
        assert len(errors) == 8
        assert all(b < a for a, b in zip(errors, errors[1:]))

    def test_csv_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            main(["univariate-decay", "--space", "gauss", "--param", "0.7",
                  "--n-max", "6", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()

    def test_tensor_decay_csv(self, tmp_path):
        out = tmp_path / "tensor.csv"
        code = main([
            "tensor-decay", "--sigma", "1.0,1.0", "--eps-list", "0.5,0.1",
            "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "eps,n_choice,size,error"
        assert lines[2].split(",")[1] == "8;8"

    def test_mdm_run_csv(self, tmp_path, capsys):
        out = tmp_path / "mdm.csv"
        code = main([
            "mdm-run", "--sigma-rule", "j^-1.5", "--budgets", "10,40,160",
            "--dollar-table", ",".join(str(1 + m) for m in range(16)),
            "--trunc", "512", "--max-coord", "16", "--pool-size", "64",
            "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "cost,error,tail_bound"
        assert len(lines) == 4
        assert "decay_exponent=" in capsys.readouterr().out

    def test_stdout_csv(self, capsys):
        code = main(["univariate-decay", "--space", "hermite", "--param", "0.3", "--n-max", "4"])
        assert code == 0
        assert capsys.readouterr().out.startswith("n,error,lower_bound,rate_fit\n")


class TestVerify:
    def test_mehler_suite_passes(self, capsys):
        assert main(["verify", "--suite", "mehler"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_mehler_grid_is_one_series_call_per_beta(self, monkeypatch):
        from rkhsquad import verify as verify_mod

        shapes = []
        original = verify_mod.hermite_kernel_series

        def counted(beta, x, y, terms=400):
            shapes.append(np.broadcast_shapes(np.shape(x), np.shape(y)))
            return original(beta, x, y, terms)

        monkeypatch.setattr(verify_mod, "hermite_kernel_series", counted)
        assert all(r.passed for r in verify_mod.suite_mehler())
        assert shapes == [(9, 9)] * 3 + [()]  # three betas, then the spot value

    def test_exit_code_reflects_failures(self, monkeypatch, capsys):
        from rkhsquad import verify as verify_mod

        def broken_suite():
            return [verify_mod.CheckResult("forced-failure", False, "injected")]

        monkeypatch.setitem(verify_mod.SUITES, "mehler", broken_suite)
        assert main(["verify", "--suite", "mehler"]) == 1
        assert "FAIL forced-failure" in capsys.readouterr().out

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit):
            main(["verify", "--suite", "everything"])

    def test_suite_choices_come_from_the_suites(self, monkeypatch, capsys):
        from rkhsquad import verify as verify_mod

        def extra_suite():
            return [verify_mod.CheckResult("extra-check", True, "")]

        monkeypatch.setitem(verify_mod.SUITES, "extra", extra_suite)
        assert main(["verify", "--suite", "extra"]) == 0
        assert "PASS extra-check" in capsys.readouterr().out


class TestUsageErrors:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_bad_float_list(self, rule_file):
        code = main(["transfer", "--rule", rule_file, "--sigma", "1.0;2.0", "--problem", "int"])
        assert code == 1

    def test_out_path_is_a_directory(self, tmp_path, capsys):
        code = main([
            "univariate-decay", "--space", "hermite", "--param", "0.5", "--n-max", "3",
            "--out", str(tmp_path),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_non_finite_rule_file(self, tmp_path, capsys):
        path = tmp_path / "rule.json"
        path.write_text('{"nodes": [[0.0], [NaN]], "weights": [0.5, 0.5]}')
        code = main(["transfer", "--rule", str(path), "--sigma", "1.0", "--problem", "int"])
        assert code == 1
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("payload, message", [
        ('{"nodes": [[0.0]], "index_set": [[0], [1.5]], "coeffs": [[1.0, 0.0]]}', "integer"),
        ('{"nodes": [[0.0]], "index_set": [[0], [NaN]], "coeffs": [[1.0, 0.0]]}', "integer"),
        ('{"nodes": [[NaN]], "index_set": [[0], [1]], "coeffs": [[1.0, 0.0]]}', "finite"),
    ])
    def test_bad_sampling_method_file(self, tmp_path, capsys, payload, message):
        path = tmp_path / "method.json"
        path.write_text(payload)
        code = main(["transfer", "--rule", str(path), "--sigma", "1.0", "--problem", "approx"])
        assert code == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["e0", "--kernel", "{path}", "--problem", "int"],
        ["transfer", "--rule", "{path}", "--sigma", "1.0", "--problem", "int"],
        ["transfer", "--rule", "{path}", "--sigma", "1.0", "--problem", "approx"],
    ], ids=["e0", "transfer-int", "transfer-approx"])
    @pytest.mark.parametrize("payload", ["5", "[]", "null", "{}"])
    def test_malformed_json_file(self, tmp_path, capfd, argv, payload):
        path = tmp_path / "input.json"
        path.write_text(payload)
        assert main([str(path) if arg == "{path}" else arg for arg in argv]) == 1
        err = capfd.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_non_finite_budget(self, capsys):
        code = main([
            "mdm-run", "--sigma-rule", "j^-1.5", "--budgets", "nan,10,100",
            "--dollar-table", "1,2,3,4,5", "--max-coord", "4", "--pool-size", "8",
        ])
        assert code == 1
        assert "finite" in capsys.readouterr().err

    def test_bad_sigma_rule(self, capsys):
        code = main([
            "mdm-run", "--sigma-rule", "exp(-j)", "--budgets", "10",
            "--dollar-table", "1,2",
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_equal_costs_have_no_decay_fit(self, capfd):
        # three budgets that all plan cost 9 leave nothing to fit a slope to
        code = main([
            "mdm-run", "--sigma-rule", "j^-1.5", "--budgets", "10,10.5,10.9",
            "--dollar-table", "1,2,3,4,5,6,7,8",
        ])
        assert code == 1
        err = capfd.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_zero_errors_have_no_decay_fit(self, capfd):
        # every plan of 1e-10^j has error 0.0 (inside its tail): the curve is
        # written, and the fit is refused naming the first point
        code = main([
            "mdm-run", "--sigma-rule", "1e-10^j", "--budgets", "10,100,1000",
            "--dollar-table", "1,2,3,4,5,6,7,8",
        ])
        assert code == 1
        out, err = capfd.readouterr()
        assert len(out.splitlines()) == 4  # the header and three rows
        err = err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "the error at cost 9 is 0.0" in err[0]

    def test_univariate_decay_refuses_tail_above_error(self, capfd):
        # at sigma = 50 the n = 1 error 0.955 has truncation tail 3.99 at the degree cap,
        # and at sigma = 1e7 the error 2.67e-3 has tail 4.9e3
        for sigma in ("50", "1e7"):
            code = main(["univariate-decay", "--space", "gaussian", "--param", sigma, "--n-max", "3"])
            assert code == 1
            err = capfd.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error:") and "n=1" in err[0] and "tail" in err[0]

    def test_univariate_decay_beta_rounding_to_one(self, capfd):
        # sigma = 1e9 puts the Hermite-side beta at 1.0 in float64: refused before any degree
        code = main(["univariate-decay", "--space", "gaussian", "--param", "1e9", "--n-max", "3"])
        assert code == 1
        err = capfd.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "strictly inside (0, 1)" in err[0]

    def test_max_coord_below_one(self, capsys):
        code = main([
            "mdm-run", "--sigma-rule", "j^-1.5", "--budgets", "10,100,1000",
            "--dollar-table", "1,2,3", "--max-coord", "0",
        ])
        assert code == 1
        assert "max_coord" in capsys.readouterr().err
