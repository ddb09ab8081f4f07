"""Integration tests for the command-line front end."""

import json
import math
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import csv_oracle
from fidelity_records import save_fidelity_csv
from qclink import cli, cloning, qkd
from qclink import weakmeas as wm


def run_cli(args, tmp_path, name):
    code = cli.main(list(args) + ["--outdir", str(tmp_path)])
    base = tmp_path / name
    return code, base.with_suffix(".csv"), base.with_suffix(".json")


def write_config(tmp_path, values):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(values))
    return str(path)


# Valid values of each command's required flags.
REQUIRED_ARGS = {"distill-classical": ["--d", "0.2"],
                 "distill-quantum": ["--f0", "0.7"],
                 "clone-mc": ["--n", "1", "--m", "3"],
                 "clone-mixture": ["--mu-in", "5"]}


def out_of_range_cases():
    """(command, flag, value) for every flag whose spec carries an
    interval: NaN, both infinities and the nearest value outside each
    bound."""
    for (group, sub), (_, spec) in cli.COMMANDS.items():
        for name, (kind, _, *interval) in spec.items():
            for lo, hi in interval:
                if kind is int:
                    outside = [str(lo - 1), str(hi + 1)]
                else:
                    outside = [repr(math.nextafter(lo, -math.inf)),
                               repr(math.nextafter(hi, math.inf))]
                for value in dict.fromkeys(["nan", "inf", "-inf", *outside]):
                    yield pytest.param(f"{group}-{sub}", name, value,
                                       id=f"{group}-{sub}--{name}={value}")


def strict_json(path):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(path.read_text(), parse_constant=reject)


class TestParse:
    def test_sweep_flags(self):
        cfg = cli.parse(["qkd", "sweep", "--d-min", "0", "--d-max", "0.4",
                         "--steps", "81", "--n-max", "30"])
        assert cfg.command == "qkd-sweep"
        assert cfg.params["d-min"] == 0.0
        assert cfg.params["d-max"] == 0.4
        assert cfg.params["steps"] == 81
        assert cfg.params["n-max"] == 30
        assert cfg.seed == 0

    @pytest.mark.parametrize("text, value", [
        ("-1e-3", -1e-3), ("-2.5E+2", -250.0), ("-.5e1", -5.0), ("-7.", -7.0),
        ("-inf", -math.inf), ("-0.001", -0.001)])
    def test_negative_value_after_a_space(self, text, value):
        for args in (["--theta-pre", text], [f"--theta-pre={text}"]):
            cfg = cli.parse(["weak", "toa", "--dtau", "0.5", *args])
            assert cfg.params["theta-pre"] == value

    def test_unknown_command_exits_one(self, capsys):
        assert cli.main(["warp", "drive"]) == 1
        assert cli.main(["qkd", "nonsense"]) == 1

    def test_invalid_parameter_names_it(self, tmp_path, capsys):
        code = cli.main(["distill", "classical", "--d", "0.9",
                         "--outdir", str(tmp_path)])
        assert code == 1
        assert "--d" in capsys.readouterr().err

    def test_missing_required_parameter(self, capsys):
        assert cli.main(["clone", "fidelity", "--n", "1"]) == 1
        assert "--m" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(
            {"d": 0.2, "n": 4, "seed": 42}))
        cfg = cli.parse(["distill", "classical", "--config", str(cfg_path),
                         "--seed", "7"])
        assert cfg.params["d"] == 0.2
        assert cfg.params["n"] == 4
        assert cfg.seed == 7

    def test_config_file_unknown_key(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"dee": 0.2}))
        with pytest.raises(cli.UsageError):
            cli.parse(["distill", "classical", "--config", str(cfg_path)])

    def test_config_keys_normalised(self, tmp_path):
        cfg = cli.parse(["qkd", "sweep", "--config", write_config(
            tmp_path, {"n_max": 12, "--d_min": 0.1})])
        assert cfg.params["n-max"] == 12
        assert cfg.params["d-min"] == 0.1

    @pytest.mark.parametrize("values", [{"n": 2.7, "m": 5}, {"n": "x"}])
    def test_config_values_parsed_like_flags(self, tmp_path, values):
        with pytest.raises(cli.UsageError):
            cli.parse(["clone", "fidelity", "--config",
                       write_config(tmp_path, values)])

    def test_json_report_cannot_be_switched_off(self, tmp_path):
        args = ["clone", "fidelity", "--n", "1", "--m", "2",
                "--outdir", str(tmp_path)]
        assert cli.main(args + ["--no-json"]) == 1
        config = write_config(tmp_path, {"json": False})
        assert cli.main(args + ["--config", config]) == 1
        assert not (tmp_path / "clone-fidelity-0.json").exists()

    def test_csv_table_cannot_be_switched_off(self, tmp_path):
        args = ["clone", "fidelity", "--n", "1", "--m", "2",
                "--outdir", str(tmp_path)]
        assert cli.main(args + ["--no-csv"]) == 1
        config = write_config(tmp_path, {"csv": False})
        assert cli.main(args + ["--config", config]) == 1
        assert not list(tmp_path.glob("clone-fidelity-0.*"))

    @pytest.mark.parametrize("basis", ["z", "x"])
    def test_sweep_has_no_basis_option(self, tmp_path, basis):
        """Both bases gave the same tables, so the option is gone."""
        args = ["qkd", "sweep", "--steps", "2", "--outdir", str(tmp_path)]
        assert cli.main(args + ["--basis", basis]) == 1
        config = write_config(tmp_path, {"basis": basis})
        assert cli.main(args + ["--config", config]) == 1
        assert not list(tmp_path.glob("qkd-sweep-0.*"))

    def test_thresholds_have_no_tol_option(self, tmp_path):
        """Every tolerance the option admitted was coarser than the
        default, so the option is gone."""
        args = ["qkd", "thresholds", "--outdir", str(tmp_path)]
        assert cli.main(args + ["--tol", "1e-3"]) == 1
        config = write_config(tmp_path, {"tol": 1e-3})
        assert cli.main(args + ["--config", config]) == 1
        assert not list(tmp_path.glob("qkd-thresholds-0.*"))

    def test_outdir_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
        cfg = cli.parse(["clone", "fidelity", "--n", "1", "--m", "2"])
        assert cfg.outdir == str(tmp_path)


class TestExitCodes:
    def test_success_is_zero(self, tmp_path):
        code, _, _ = run_cli(["clone", "fidelity", "--n", "1", "--m", "2"],
                             tmp_path, "clone-fidelity-0")
        assert code == 0

    def test_missing_input_file_is_one(self, tmp_path, capsys):
        code = cli.main(["clone", "fit", "--input", str(tmp_path / "no.csv"),
                         "--outdir", str(tmp_path)])
        assert code == 1
        assert "no.csv" in capsys.readouterr().err

    def test_numerical_failure_is_two_with_diagnostic(self, tmp_path):
        code, csv_path, json_path = run_cli(
            ["distill", "classical", "--d", "0.499", "--n", "60",
             "--trials", "10000"], tmp_path, "distill-classical-0")
        assert code == 2
        assert not csv_path.exists()
        diag = json.loads(json_path.read_text())
        assert "error" in diag and "accepted" in diag["error"]

    def test_rejected_run_clears_stale_outputs(self, tmp_path):
        args = ["distill", "classical", "--d", "0.25", "--n", "4"]
        code, csv_path, json_path = run_cli(args, tmp_path,
                                            "distill-classical-0")
        assert code == 0 and csv_path.exists()
        config = write_config(tmp_path, {"d": 0.9})
        code, _, _ = run_cli(["distill", "classical", "--config", config],
                             tmp_path, "distill-classical-0")
        assert code == 1
        assert not csv_path.exists()
        report = strict_json(json_path)
        assert "--d" in report["error"] and "summary" not in report

    def test_non_finite_input_is_one(self, tmp_path):
        assert cli.main(["clone", "amplifier", "--mu-in", "nan", "--mu-out",
                         "2", "--q", "1", "--outdir", str(tmp_path)]) == 1
        assert cli.main(["weak", "profile", "--dtau", "1", "--step", "0",
                         "--outdir", str(tmp_path)]) == 1

    def test_unwritable_csv_leaves_error_report(self, tmp_path, capsys):
        """A directory in the CSV's place fails the run, and the report
        records that failure rather than a summary."""
        (tmp_path / "clone-fidelity-0.csv").mkdir()
        code, csv_path, json_path = run_cli(
            ["clone", "fidelity", "--n", "1", "--m", "2"], tmp_path,
            "clone-fidelity-0")
        assert code == 1
        assert csv_path.is_dir()
        report = strict_json(json_path)
        assert "summary" not in report
        assert "clone-fidelity-0.csv" in report["error"]
        assert "clone-fidelity-0.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["clone", "amplifier", "--mu-in", "1e160", "--mu-out", "1e160",
         "--q", "1"],
        ["clone", "amplifier", "--mu-in", "1", "--mu-out", "1e308",
         "--q", "0"]])
    def test_amplifier_overflow_is_one(self, tmp_path, capsys, args):
        code, csv_path, json_path = run_cli(args, tmp_path,
                                            "clone-amplifier-0")
        assert code == 1 and not csv_path.exists()
        assert "overflows" in strict_json(json_path)["error"]
        assert "overflows" in capsys.readouterr().err

    def test_mixture_gain_past_its_interval_is_one(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, csv_path, json_path = run_cli(
                ["clone", "mixture", "--mu-in", "5", "--gain", "1e308"],
                tmp_path, "clone-mixture-0")
        assert code == 1 and not csv_path.exists()
        assert "--gain" in strict_json(json_path)["error"]
        assert "--gain" in capsys.readouterr().err

    def test_overflowing_record_is_one(self, tmp_path, capsys):
        path = tmp_path / "rec.csv"
        path.write_text("mu_in,mu_out,fidelity\n1e200,2e200,0.9\n"
                        "3e200,6e200,0.95\n5e200,1e201,0.97\n")
        code, csv_path, _ = run_cli(["clone", "fit", "--input", str(path)],
                                    tmp_path, "clone-fit-0")
        assert code == 1 and not csv_path.exists()
        assert "overflows" in capsys.readouterr().err

    def test_non_finite_record_is_one(self, tmp_path, capsys):
        path = tmp_path / "rec.csv"
        path.write_text("mu_in,mu_out,fidelity\n0.5,5,0.8\n2,20,0.7\n"
                        "10,100,nan\n")
        code, csv_path, _ = run_cli(["clone", "fit", "--input", str(path)],
                                    tmp_path, "clone-fit-0")
        assert code == 1 and not csv_path.exists()
        assert "finite" in capsys.readouterr().err

    def test_loss_record_is_one(self, tmp_path, capsys):
        path = tmp_path / "rec.csv"
        path.write_text("mu_in,mu_out,fidelity\n1,0.5,0.9\n2,1,0.95\n"
                        "3,1.5,0.97\n")
        code, csv_path, _ = run_cli(["clone", "fit", "--input", str(path)],
                                    tmp_path, "clone-fit-0")
        assert code == 1 and not csv_path.exists()
        assert "mu_out must lie in [1.0" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["qkd", "sweep", "--d-min", "0.3", "--d-max", "0.2"],
        ["distill", "equivalence", "--d-min", "0.3", "--d-max", "0.2"],
        ["weak", "sweep", "--ratio-min", "2", "--ratio-max", "2"]],
        ids=["qkd-sweep", "distill-equivalence", "weak-sweep"])
    def test_reversed_range_is_one(self, tmp_path, args):
        code, csv_path, json_path = run_cli(
            args, tmp_path, "-".join(args[:2]) + "-0")
        assert code == 1 and not csv_path.exists()
        error = strict_json(json_path)["error"]
        assert args[2] in error and args[4] in error

    @pytest.mark.parametrize("args, name", [
        (["weak", "sweep", "--pdl-axis", "nan"], "axis"),
        (["weak", "toa", "--dtau", "0.5", "--theta-pre", "nan"], "theta")])
    def test_non_finite_angle_is_one(self, tmp_path, capsys, args, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(args + ["--outdir", str(tmp_path)]) == 1
        assert f"angle {name} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value", out_of_range_cases())
    def test_out_of_range_flag_is_one(self, tmp_path, capsys, command, flag,
                                      value):
        code, csv_path, _ = run_cli(
            command.split("-") + REQUIRED_ARGS.get(command, [])
            + [f"--{flag}={value}"], tmp_path, f"{command}-0")
        assert code == 1 and not csv_path.exists()
        assert f"--{flag}" in capsys.readouterr().err

    def test_birth_chain_budget_is_one(self, tmp_path, capsys):
        code, csv_path, _ = run_cli(
            ["clone", "mc", "--n", "1", "--m", "3", "--trials", "1000000000"],
            tmp_path, "clone-mc-0")
        assert code == 1 and not csv_path.exists()
        assert "--trials" in capsys.readouterr().err

    def test_birth_chain_step_budget_is_one(self, tmp_path, capsys):
        code, csv_path, _ = run_cli(
            ["clone", "mc", "--n", "1", "--m", "10000"], tmp_path,
            "clone-mc-0")
        assert code == 1 and not csv_path.exists()
        assert "budget" in capsys.readouterr().err

    def test_extreme_delay_ratio_hits_grid_budget(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["weak", "profile", "--dtau", "1e308",
                             "--outdir", str(tmp_path)]) == 1
        assert "exceeds" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["--dtau", "1e308"],
        ["--dtau", "0.5", "--tc", "1e-300"],
        ["--dtau", "3", "--tc", "1e200"],
        ["--dtau", "1e-300", "--tc", "1e-300"]])
    def test_extreme_scales_arrival_time(self, tmp_path, args):
        """The field's arrival time samples no grid: at extreme delays and
        widths it runs without a warning and matches the closed form to
        1e-12 of the larger of t_c and dtau."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, csv_path, _ = run_cli(["weak", "toa", *args], tmp_path,
                                        "weak-toa-0")
        assert code == 0
        header, row = csv_path.read_text().splitlines()
        row = dict(zip(header.split(","), map(float, row.split(","))))
        scale = max(row["tc"], row["dtau"])
        assert abs(row["toa_numeric"] - row["toa_closed"]) <= 1e-12 * scale

    def test_profile_at_tiny_pulse_width(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, csv_path, json_path = run_cli(
                ["weak", "profile", "--dtau", "1e-300", "--tc", "1e-300"],
                tmp_path, "weak-profile-0")
        assert code == 0 and csv_path.exists()
        summary = strict_json(json_path)["summary"]
        assert summary["energy"] == pytest.approx(math.sqrt(math.pi) * 1e-300,
                                                  rel=1e-12)

    def test_sweep_delay_overflow_is_one_without_warning(self, tmp_path,
                                                        capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, csv_path, _ = run_cli(
                ["weak", "sweep", "--ratio-max", "1e308", "--tc", "10"],
                tmp_path, "weak-sweep-0")
        assert code == 1 and not csv_path.exists()
        assert "delay must be finite" in capsys.readouterr().err

    def test_sweep_at_tiny_pulse_width(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, csv_path, _ = run_cli(["weak", "sweep", "--tc", "1e-310"],
                                        tmp_path, "weak-sweep-0")
        assert code == 0 and len(csv_path.read_text().splitlines()) == 26

    def test_sweep_from_the_smallest_subnormal_ratio(self, tmp_path):
        """The first delay, 5e-324, halves to a zero pointer scale: the
        weak-end fit skips it, where it used to fail the run with exit 2
        after every row was computed."""
        code, csv_path, json_path = run_cli(
            ["weak", "sweep", "--ratio-min", "5e-324"], tmp_path,
            "weak-sweep-0")
        assert code == 0
        assert len(csv_path.read_text().splitlines()) == 26
        slope = strict_json(json_path)["summary"][
            "weak_end_scaled_error_slope"]
        assert slope is None or (isinstance(slope, float)
                                 and math.isfinite(slope))

    def test_monte_carlo_budget_is_one(self, tmp_path, capsys):
        code, csv_path, _ = run_cli(
            ["distill", "classical", "--d", "0.2", "--n", "64",
             "--trials", "1000000000"], tmp_path, "distill-classical-0")
        assert code == 1 and not csv_path.exists()
        assert "budget" in capsys.readouterr().err

    def test_exit_codes_through_real_process(self, tmp_path):
        calls = {
            0: ["clone", "fidelity", "--n", "2", "--m", "3",
                "--outdir", str(tmp_path)],
            1: ["clone", "fidelity", "--n", "2"],
            2: ["distill", "classical", "--d", "0.499", "--n", "60",
                "--trials", "10000", "--outdir", str(tmp_path)],
        }
        for expected, args in calls.items():
            proc = subprocess.run([sys.executable, "-m", "qclink"] + args,
                                  capture_output=True, text=True)
            assert proc.returncode == expected, proc.stderr


class TestReports:
    def test_reports_are_strict_json(self, tmp_path):
        code, _, json_path = run_cli(
            ["weak", "toa", "--dtau", "0.5", "--pdl-db", "inf"], tmp_path,
            "weak-toa-0")
        assert code == 0
        report = strict_json(json_path)
        assert report["config"]["params"]["pdl-db"] == "inf"
        header, row = [ln.split(",") for ln in
                       json_path.with_suffix(".csv").read_text().splitlines()]
        assert dict(zip(header, row))["pdl_db"] == "inf"

    def test_report_holds_config_and_outcome_only(self, tmp_path):
        """The table lives in the CSV alone; the report of a 6001-row
        profile stays a short record of the run."""
        code, csv_path, json_path = run_cli(
            ["weak", "profile", "--dtau", "3"], tmp_path, "weak-profile-0")
        assert code == 0
        assert len(csv_path.read_text().splitlines()) > 1000
        report = strict_json(json_path)
        assert list(report) == ["tool", "version", "timestamp", "command",
                                "config", "summary"]
        assert list(report["config"]) == ["params", "seed", "outdir"]
        assert json_path.stat().st_size < 4096

    def test_rows_stream_to_the_csv(self, tmp_path):
        """A 2e5-row profile is written a block of rows at a time:
        holding its rows as lists and the CSV as one string would take
        about 94 MB."""
        tracemalloc.start()
        try:
            code, csv_path, _ = run_cli(
                ["weak", "profile", "--dtau", "3", "--step", "7.5e-5"],
                tmp_path, "weak-profile-0")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        with open(csv_path) as fh:
            assert sum(1 for _ in fh) > 200_000
        assert peak < 40 * 2 ** 20

    def test_profile_samples_the_field_once(self, tmp_path, monkeypatch):
        """The rows and the peak separation share one sampled intensity;
        the energy and the mean arrival time are the field's own."""
        sizes = []
        intensity = wm.PropagatedField.intensity

        def counted(field, t):
            sizes.append(np.size(t))
            return intensity(field, t)

        monkeypatch.setattr(wm.PropagatedField, "intensity", counted)
        code, csv_path, _ = run_cli(["weak", "profile", "--dtau", "3"],
                                    tmp_path, "weak-profile-0")
        assert code == 0
        with open(csv_path) as fh:
            assert sizes == [sum(1 for _ in fh) - 1]

    def test_failure_report_has_success_layout(self, tmp_path):
        args = ["distill", "classical", "--trials", "10000"]
        name = "distill-classical-0"
        code, _, json_path = run_cli(args + ["--d", "0.2", "--n", "4"],
                                     tmp_path, name)
        assert code == 0
        ok = strict_json(json_path)
        code, _, _ = run_cli(args + ["--d", "0.499", "--n", "60"], tmp_path,
                             name)
        assert code == 2
        failed = strict_json(json_path)
        assert failed["config"].keys() == ok["config"].keys()
        assert failed["config"]["params"]["d"] == 0.499
        assert set(failed) - set(ok) == {"error"}

    def test_thresholds_summary_values(self, tmp_path):
        """The exact roots, the same under either measurement."""
        for eve in qkd.EVE_MEASUREMENTS:
            code, csv_path, json_path = run_cli(
                ["qkd", "thresholds", "--eve", eve], tmp_path,
                "qkd-thresholds-0")
            assert code == 0
            assert csv_path.read_text().splitlines() == [
                "kind,critical_disturbance",
                "one_way,0.14644660940672624",
                "chsh,0.14644660940672624",
                "entanglement,0.2928932188134525"]
            report = json.loads(json_path.read_text())
            assert report["summary"] == {"one_way": 0.14644660940672624,
                                         "chsh": 0.14644660940672624,
                                         "entanglement": 0.2928932188134525}
            assert report["config"]["seed"] == 0

    def test_no_attack_leaves_eve_nothing(self, tmp_path):
        """At D = 0 the binary measurement's table is exact, so Eve's
        block information is exactly zero."""
        code, csv_path, _ = run_cli(
            ["distill", "classical", "--d", "0", "--n", "4"], tmp_path,
            "distill-classical-0")
        assert code == 0
        header, row = [ln.split(",") for ln in
                       csv_path.read_text().splitlines()]
        assert dict(zip(header, row))["i_ae"] == "0.0"

    def test_clone_fidelity_value(self, tmp_path):
        code, csv_path, _ = run_cli(
            ["clone", "fidelity", "--n", "1", "--m", "2"], tmp_path,
            "clone-fidelity-0")
        assert code == 0
        header, row = csv_path.read_text().splitlines()
        assert header == "n,m,fidelity"
        assert float(row.split(",")[2]) == pytest.approx(5 / 6, abs=1e-12)

    def test_equivalence_columns(self, tmp_path):
        code, csv_path, _ = run_cli(
            ["distill", "equivalence", "--d-min", "0.2", "--d-max", "0.36",
             "--steps", "5", "--n-max", "10"], tmp_path,
            "distill-equivalence-0")
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "D,entangled,chsh,i_ab,i_ae,ad_min_block"
        assert len(lines) == 6
        # separable end has an empty block column
        assert lines[-1].endswith(",")

    def test_weak_profile_columns(self, tmp_path):
        code, csv_path, json_path = run_cli(
            ["weak", "profile", "--dtau", "0.3"], tmp_path, "weak-profile-0")
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "t,intensity_x,intensity_y,intensity_total"
        data = np.array([[float(v) for v in ln.split(",")]
                         for ln in lines[1:]])
        np.testing.assert_allclose(data[:, 1] + data[:, 2], data[:, 3],
                                   atol=1e-15)

    def test_weak_sweep_columns_and_slope(self, tmp_path):
        code, csv_path, json_path = run_cli(
            ["weak", "sweep", "--theta-pre", "0.96", "--pdl-db", "inf",
             "--pdl-axis", "0.17"], tmp_path, "weak-sweep-0")
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == ("dtau,tc,theta_pre,phi_pre,pdl_db,pdl_axis,"
                            "toa_exact,toa_weak,abs_error")
        report = json.loads(json_path.read_text())
        assert report["summary"]["weak_end_scaled_error_slope"] == \
            pytest.approx(2.0, abs=0.1)

    def test_weak_sweep_slope_null_at_round_off(self, tmp_path):
        """With no loss element the closed form equals the weak value, so
        the weak-end errors are round-off and no slope is fitted."""
        code, _, json_path = run_cli(["weak", "sweep", "--points", "25"],
                                     tmp_path, "weak-sweep-0")
        assert code == 0
        summary = strict_json(json_path)["summary"]
        assert summary["weak_end_scaled_error_slope"] is None

    def test_weak_toa_routes_agree(self, tmp_path):
        code, _, json_path = run_cli(
            ["weak", "toa", "--dtau", "0.05", "--pdl-db", "15",
             "--pdl-axis", "0.9"], tmp_path, "weak-toa-0")
        assert code == 0
        summary = json.loads(json_path.read_text())["summary"]
        assert summary["toa_numeric"] == pytest.approx(summary["toa_closed"],
                                                       abs=1e-10)

    def test_clone_fit_roundtrip(self, tmp_path):
        data = cloning.generate_fidelity_dataset(
            0.8, np.logspace(np.log10(0.5), np.log10(50), 40),
            noise_sigma=0.003, seed=2)
        path = tmp_path / "records.csv"
        save_fidelity_csv(path, data)
        code, _, json_path = run_cli(
            ["clone", "fit", "--input", str(path)], tmp_path, "clone-fit-0")
        assert code == 0
        assert json.loads(json_path.read_text())["summary"]["q_hat"] == \
            pytest.approx(0.8, abs=0.02)

    def test_qkd_sweep_with_blocks(self, tmp_path):
        code, csv_path, _ = run_cli(
            ["qkd", "sweep", "--d-min", "0.05", "--d-max", "0.25",
             "--steps", "3", "--n-max", "12"], tmp_path, "qkd-sweep-0")
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0].endswith(",ad_min_block")
        assert lines[1].endswith(",1")

    def test_sweep_commands_share_cells(self, tmp_path):
        grid = ["--d-min", "0.1", "--d-max", "0.34", "--steps", "7",
                "--n-max", "12", "--eve", "square_root_4"]
        tables = []
        for args, name in ((["qkd", "sweep"], "qkd-sweep-0"),
                           (["distill", "equivalence"],
                            "distill-equivalence-0")):
            code, csv_path, _ = run_cli(args + grid, tmp_path, name)
            assert code == 0
            header, *rows = [ln.split(",") for ln in
                             csv_path.read_text().splitlines()]
            tables.append([dict(zip(header, row)) for row in rows])
        shared = ["D", "entangled", "chsh", "i_ab", "i_ae", "ad_min_block"]
        qkd_rows, distill_rows = tables
        assert len(qkd_rows) == len(distill_rows) == 7
        assert [[r[c] for c in shared] for r in qkd_rows] == \
            [[r[c] for c in shared] for r in distill_rows]
        assert {r["ad_min_block"] for r in qkd_rows} > {""}


# The README's example arguments of every command.
README_ARGS = {
    ("qkd", "sweep"): "--d-min 0 --d-max 0.4 --steps 81 --n-max 30",
    ("qkd", "thresholds"): "",
    ("distill", "classical"): "--d 0.25 --n 10 --trials 100000",
    ("distill", "quantum"): "--f0 0.75 --rounds 10",
    ("distill", "equivalence"): "--d-min 0.2 --d-max 0.36 --steps 33 "
                                "--n-max 30",
    ("clone", "fidelity"): "--n 1 --m 2",
    ("clone", "amplifier"): "--mu-in 5 --mu-out 50 --q 0.8",
    ("clone", "mc"): "--n 1 --m 3 --trials 100000",
    ("clone", "mixture"): "--mu-in 5 --gain 10",
    ("clone", "fit"): "--input {records}",
    ("weak", "toa"): "--dtau 0.05 --pdl-db 15 --pdl-axis 0.9",
    ("weak", "sweep"): "--ratio-min 1e-3 --ratio-max 10 --points 25",
    ("weak", "profile"): "--dtau 3 --theta-pre 0.7853981633974483"}


class TestCsvWriter:
    """The block writer gives the bytes of the row-by-row oracle, which
    formats the same values, so no float's bits are assumed."""

    @staticmethod
    def written(tmp_path, table):
        path = tmp_path / "table.csv"
        cli._write_csv(path, table)
        return path.read_bytes()

    @pytest.mark.parametrize("key", list(cli.COMMANDS), ids="-".join)
    def test_every_command_matches_the_oracle(self, key, tmp_path):
        records = tmp_path / "records.csv"
        save_fidelity_csv(records, cloning.generate_fidelity_dataset(
            0.8, np.geomspace(0.5, 50, 12), noise_sigma=0.005, seed=1))
        config = cli.parse(
            [*key, *README_ARGS[key].format(records=records).split()])
        table, _ = cli.COMMANDS[key][0](config.params, config.seed)
        assert self.written(tmp_path, table) == \
            csv_oracle.csv_text(table).encode()

    @pytest.mark.parametrize("block", [1, 2, 3, 2 ** 16])
    def test_edge_cells_across_blocks(self, block, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "CSV_BLOCK", block)
        table = {
            "x": np.array([-0.0, np.inf, -np.inf, np.nan, 0.1]),
            "y": [-0.0, math.inf, math.nan, 5e-324, 1e16],
            "block": [None, 3, None, 10 ** 23, -(2 ** 64)],
            "entangled": [True, False, True, True, False],
            "flag": np.array([False, True, False, True, True]),
            "mode": ["exact", "mc", "a b", "", "x"]}
        text = self.written(tmp_path, table)
        assert text == csv_oracle.csv_text(table).encode()
        assert text.splitlines()[1:3] == [
            b"-0.0,-0.0,,true,false,exact", b"inf,inf,3,false,true,mc"]
        assert b",100000000000000000000000,true,true," in text

    def test_peak_memory_is_one_block(self, tmp_path):
        """On 999 001 rows of four float columns, the size of the largest
        weak profile, the writer holds one block's text at a time."""
        rng = np.random.default_rng(0)
        table = dict(zip("abcd", rng.random((4, 999_001))))
        tracemalloc.start()
        try:
            cli._write_csv(tmp_path / "table.csv", table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    def test_empty_table_writes_its_header(self, tmp_path):
        table = {"t": np.zeros(0), "flag": []}
        assert self.written(tmp_path, table) == b"t,flag\n"


class TestRuntimeDependencies:
    def test_cli_runs_without_scipy(self, tmp_path):
        blocked = ("import runpy, sys; sys.modules['scipy'] = None; "
                   "runpy.run_module('qclink', run_name='__main__')")
        proc = subprocess.run(
            [sys.executable, "-c", blocked, "clone", "fidelity", "--n", "1",
             "--m", "2", "--outdir", str(tmp_path)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "clone-fidelity-0.csv").exists()

    def test_import_loads_no_scipy(self):
        probe = ("import sys, qclink; "
                 "print(sorted(m for m in sys.modules if m == 'scipy' "
                 "or m.startswith('scipy.')))")
        proc = subprocess.run([sys.executable, "-c", probe],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestDeterminism:
    def test_identical_runs_identical_csv(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for sub in (a, b):
            code = cli.main(["distill", "classical", "--d", "0.2", "--n", "4",
                             "--trials", "20000", "--seed", "123",
                             "--outdir", str(sub)])
            assert code == 0
        name = "distill-classical-123.csv"
        assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_named_in_outputs(self, tmp_path):
        code = cli.main(["clone", "mc", "--n", "1", "--m", "3",
                         "--seed", "5", "--outdir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "clone-mc-5.csv").exists()
        report = json.loads((tmp_path / "clone-mc-5.json").read_text())
        assert report["config"]["seed"] == 5

    def test_full_precision_numbers(self, tmp_path):
        code, csv_path, _ = run_cli(
            ["clone", "fidelity", "--n", "1", "--m", "2"], tmp_path,
            "clone-fidelity-0")
        value = csv_path.read_text().splitlines()[1].split(",")[2]
        assert float(value) == 5 / 6  # round-trips exactly
