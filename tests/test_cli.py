import csv
import dataclasses
import pathlib
import re

import pytest

from cylgap import cli, eig
from cylgap import experiments as ex
from cylgap.errors import ConfigError, NoConvergence

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"

SMALL_CFG = """
# quick run for plumbing tests
[run]
experiments = bounds, nu-half
output_dir = {out}
seed = 0
parallelism = 1

[field]
kind = model
delta = 0.6

[mesh]
resolution = 8
axial_resolution = 4

[schedules]
ell_bounds = 0.5 1
l_half = 2 4
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfigParsing:
    def test_happy_path(self, tmp_path):
        path = write_cfg(tmp_path, SMALL_CFG.format(out=tmp_path / "out"))
        rc = cli.parse_config(path)
        assert rc.experiments == ["bounds", "nu-half"]
        assert rc.field_kind == "model"
        assert rc.schedules["ell_bounds"] == [0.5, 1.0]
        assert rc.cfg.resolution == 8.0

    @pytest.mark.parametrize("name, experiments, field_kind, field_params", [
        ("model_gap", ["bounds", "gap", "limit-zero", "nu-half",
                       "limit-infinity", "second", "dirichlet", "decay",
                       "end-profile"], "model", {"delta": 0.6}),
        ("multi_direction", ["multi-direction"], "multi-model",
         {"delta": 0.6}),
        ("asymmetric_showcase", ["bounds", "nu-half", "limit-infinity",
                                 "decay"], "asymmetric", {"delta0": 0.5}),
    ])
    def test_committed_configs(self, tmp_path, name, experiments, field_kind,
                               field_params):
        text = (CONFIG_DIR / f"{name}.cfg").read_text()
        # every committed config resolves to the default experiment settings
        expected = ex.ExperimentConfig(resolution=16.0, axial_resolution=8.0,
                                       grading=1.0, tol=1e-9, seed=0,
                                       omega=(-1.0, 1.0),
                                       conv_tol=5e-3, tol_inf=5e-3,
                                       res3d_axial=3.0, res3d_cross=12.0)
        rc = cli.parse_config(write_cfg(tmp_path, text))
        assert rc.experiments == experiments
        assert (rc.field_kind, rc.field_params) == (field_kind, field_params)
        assert rc.cfg == expected
        # the [run] seed/output_dir/parallelism lines a benchmark copy forces
        forced = re.sub(r"(?m)^(seed|output_dir|parallelism)\s*=.*\n", "",
                        text).replace("[run]\n", "[run]\nseed = 7\n"
                                      "output_dir = bench/out\n"
                                      "parallelism = 1\n")
        rc = cli.parse_config(write_cfg(tmp_path, forced, "forced.cfg"))
        assert rc.output_dir == "bench/out"
        assert rc.cfg == dataclasses.replace(expected, seed=7)

    def test_every_setting_reaches_experiment_config(self, tmp_path):
        text = """
[run]
seed = 3
[domain]
omega = -1 1 -2 2
[mesh]
resolution = 10
axial_resolution = 5
grading = 2
node_cap = 1000
res3d_axial = 4
res3d_cross = 6
[solver]
tol = 1e-8
[tolerances]
conv_tol = 1e-3
tol_inf = 2e-3
"""
        path = write_cfg(tmp_path, text)
        assert cli.parse_config(path).cfg == ex.ExperimentConfig(
            resolution=10.0, axial_resolution=5.0, grading=2.0, tol=1e-8,
            seed=3, node_cap=1000, conv_tol=1e-3, tol_inf=2e-3,
            omega=((-1.0, 1.0), (-2.0, 2.0)), res3d_axial=4.0,
            res3d_cross=6.0)
        # runs are serial: parallelism parses only as 1
        path = write_cfg(tmp_path, text.replace("seed = 3\n",
                                                "seed = 3\nparallelism = 2\n"))
        with pytest.raises(ConfigError) as err:
            cli.parse_config(path)
        assert ":4:" in str(err.value) and "parallelism" in str(err.value)

    def test_unknown_key_reports_line(self, tmp_path):
        path = write_cfg(tmp_path, "[mesh]\nbogus = 3\n")
        with pytest.raises(ConfigError) as err:
            cli.parse_config(path)
        assert ":2:" in str(err.value) and "bogus" in str(err.value)

    def test_unknown_section(self, tmp_path):
        path = write_cfg(tmp_path, "[nope]\n")
        with pytest.raises(ConfigError):
            cli.parse_config(path)

    def test_negative_tolerance_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "[solver]\ntol = -1\n")
        with pytest.raises(ConfigError):
            cli.parse_config(path)
        assert cli.main(["run", path]) == 1

    @pytest.mark.parametrize("old, new, message", [
        ("seed = 0", "seed = -1", "seed must be non-negative"),
        ("[mesh]", "[solver]\ntol = 1e-13\n[mesh]",
         "tol must be at least 1e-12"),
    ])
    def test_out_of_range_seed_and_tol_rejected(self, tmp_path, capsys,
                                                old, new, message):
        # unchecked, each would crash the run with a raw ValueError
        path = write_cfg(tmp_path, SMALL_CFG.format(out=tmp_path / "out")
                         .replace(old, new))
        with pytest.raises(ConfigError, match=message):
            cli.parse_config(path)
        assert cli.main(["run", path]) == 1
        assert f"error: {path}: " in capsys.readouterr().err

    def test_duplicate_key_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "[solver]\ntol = 1e-9\ntol = 1e-8\n")
        with pytest.raises(ConfigError):
            cli.parse_config(path)

    def test_unsorted_schedule_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "[schedules]\nl_half = 4 2 8\n")
        with pytest.raises(ConfigError):
            cli.parse_config(path)

    def test_fractional_lengths_write_their_rows(self, tmp_path):
        # lengths stay floats: l_gap = 2 2.4 runs two distinct cylinders
        out = tmp_path / "out"
        path = write_cfg(tmp_path, SMALL_CFG.format(out=out)
                         .replace("bounds, nu-half", "gap")
                         .replace("l_half = 2 4", "l_gap = 2 2.4"))
        assert cli.parse_config(path).schedules["l_gap"] == [2.0, 2.4]
        assert cli.main(["run", path]) == 0
        with open(out / "gap.csv") as f:
            rows = list(csv.DictReader(f))
        assert [float(r["ell"]) for r in rows] == [2.0, 2.4]
        assert rows[0]["resolution"] != rows[1]["resolution"]
        assert all(r["passed"] == "true" for r in rows)

    def test_unknown_experiment(self, tmp_path):
        path = write_cfg(tmp_path, "[run]\nexperiments = warp\n")
        with pytest.raises(ConfigError):
            cli.parse_config(path)


class TestRun:
    def test_happy_path_exit_zero(self, tmp_path):
        out = tmp_path / "out"
        path = write_cfg(tmp_path, SMALL_CFG.format(out=out))
        assert cli.main(["run", path]) == 0
        assert (out / "bounds.csv").exists()
        assert (out / "nu-half.csv").exists()
        assert (out / "summary.txt").exists()
        with open(out / "bounds.csv") as f:
            header = f.readline().strip().split(",")
        assert header == cli.CSV_COLUMNS
        assert "wall_time_s" not in header

    def test_gap_with_delta_zero_exits_two(self, tmp_path):
        cfg = """
[run]
experiments = gap
output_dir = {out}

[field]
kind = model
delta = 0.0

[mesh]
resolution = 8
axial_resolution = 4

[schedules]
l_gap = 2 4
"""
        out = tmp_path / "out"
        path = write_cfg(tmp_path, cfg.format(out=out))
        assert cli.main(["run", path]) == 2
        with open(out / "gap.csv") as f:
            rows = list(csv.DictReader(f))
        assert rows[0]["passed"] == "false"
        assert "ConditionConFails" in rows[0]["note"]

    @pytest.mark.parametrize("field", [
        "kind = model\ndelta = 1.5",
        "kind = table\ntable = {tmp}/missing.txt",
        "kind = table\ntable = {tmp}/bad.txt",
    ], ids=["bad-param", "missing-table", "malformed-table"])
    def test_field_builder_error_exits_one(self, tmp_path, capsys, field):
        (tmp_path / "bad.txt").write_text("2 1\n-1 0 2 0\n")
        cfg = SMALL_CFG.replace("kind = model\ndelta = 0.6",
                                field.format(tmp=tmp_path))
        path = write_cfg(tmp_path, cfg.format(out=tmp_path / "out"))
        assert cli.main(["run", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: field kind ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("field, domain", [
        ("kind = diagonal\ndiag = 1 1 1", ""),
        ("kind = identity\nn = 3", ""),
        ("kind = model\ndelta = 0.6", "[domain]\nomega = -1 1 -1 1\n"),
    ], ids=["diagonal-3", "identity-3", "box-omega"])
    def test_field_omega_dimension_mismatch_exits_one(self, tmp_path, capsys,
                                                      field, domain):
        cfg = SMALL_CFG.replace("kind = model\ndelta = 0.6", field) + domain
        path = write_cfg(tmp_path, cfg.format(out=tmp_path / "out"))
        assert cli.main(["run", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: field kind ")
        assert "but omega has dimension" in err
        assert not (tmp_path / "out" / "bounds.csv").exists()

    def test_short_schedules_fail_a_row(self, tmp_path):
        template = """
[run]
experiments = {name}
output_dir = {out}

[field]
kind = model
delta = 0.6

[mesh]
resolution = 8
axial_resolution = 4

[schedules]
{schedule}
"""
        cases = [("nu-half", "l_half = 4", "needs 2 solved lengths, got 1"),
                 ("limit-infinity", "l_infinity = 4",
                  "needs 2 solved lengths, got 1"),
                 ("limit-zero", "ell_zero = 0.4 0.2",
                  "needs 3 solved lengths, got 2")]
        for name, schedule, shortfall in cases:
            out = tmp_path / name
            path = write_cfg(tmp_path, template.format(
                name=name, out=out, schedule=schedule), name=f"{name}.cfg")
            assert cli.main(["run", path]) == 2, name
            with open(out / f"{name}.csv") as f:
                failed = [r for r in csv.DictReader(f)
                          if r["passed"] == "false"]
            assert len(failed) == 1, name
            assert "NotConverged" in failed[0]["note"]
            assert shortfall in failed[0]["note"]

    def test_end_collar_longer_than_a_cylinder_fails_its_row(self,
                                                              tmp_path):
        # the ell = 2 cylinder cannot hold the collar of length 3
        out = tmp_path / "out"
        path = write_cfg(tmp_path, SMALL_CFG.format(out=out)
                         .replace("bounds, nu-half", "end-profile")
                         .replace("l_half = 2 4", "ell_end_profile = 2 6"))
        assert cli.main(["run", path]) == 2
        with open(out / "end-profile.csv") as f:
            rows = list(csv.DictReader(f))
        assert [(r["ell"], r["passed"]) for r in rows] == \
            [("2", "false"), ("6", "true")]
        assert "TooShort" in rows[0]["note"]
        assert (out / "summary.txt").exists()

    @pytest.mark.parametrize("field, experiment, n_rows", [
        ("kind = model", "multi-direction", 1),
        ("kind = multi-model", "bounds", 2),
    ], ids=["p1-on-multi-direction", "p2-on-bounds"])
    def test_field_with_the_wrong_axis_count_fails_its_rows(
            self, tmp_path, field, experiment, n_rows):
        out = tmp_path / "out"
        path = write_cfg(tmp_path, SMALL_CFG.format(out=out)
                         .replace("kind = model", field)
                         .replace("bounds, nu-half", experiment))
        assert cli.main(["run", path]) == 2
        with open(out / f"{experiment}.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == n_rows
        assert all(r["passed"] == "false" and "DimensionMismatch" in r["note"]
                   for r in rows)
        assert f"FAIL  {experiment}" in (out / "summary.txt").read_text()

    def test_failed_reflection_check_fails_only_its_row(self, tmp_path,
                                                        monkeypatch):
        solve = eig.smallest_eigenpairs

        def fails_reflected(K, M, **kwargs):
            if "-reflected(" in K.provenance["field"]:
                raise NoConvergence("forced", best_residual=1.0)
            return solve(K, M, **kwargs)

        monkeypatch.setattr(eig, "smallest_eigenpairs", fails_reflected)
        out = tmp_path / "out"
        path = write_cfg(tmp_path, SMALL_CFG.format(out=out).replace(
            "bounds, nu-half", "nu-half"))
        assert cli.main(["run", path]) == 2
        with open(out / "nu-half.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 5
        assert all(r["passed"] == "true" for r in rows[:4])
        last = rows[-1]
        assert (last["experiment"], last["ell"]) == ("nu-half", "2")
        assert last["delta"] == last["resolution"] == last["grading"] == ""
        assert last["passed"] == "false"
        assert "NoConvergence" in last["note"]

    def test_env_output_override(self, tmp_path, monkeypatch):
        out = tmp_path / "envout"
        path = write_cfg(tmp_path, SMALL_CFG.format(out=tmp_path / "ignored"))
        monkeypatch.setenv(cli.ENV_OUTPUT_DIR, str(out))
        assert cli.main(["run", path]) == 0
        assert (out / "bounds.csv").exists()

    def test_determinism_byte_identical(self, tmp_path, monkeypatch):
        path = write_cfg(tmp_path, SMALL_CFG.format(out=tmp_path / "a"))
        monkeypatch.setenv(cli.ENV_OUTPUT_DIR, str(tmp_path / "r1"))
        assert cli.main(["run", path]) == 0
        monkeypatch.setenv(cli.ENV_OUTPUT_DIR, str(tmp_path / "r2"))
        assert cli.main(["run", path]) == 0
        for name in ("bounds.csv", "nu-half.csv"):
            b1 = (tmp_path / "r1" / name).read_bytes()
            b2 = (tmp_path / "r2" / name).read_bytes()
            assert b1 == b2


class TestPlotAndReport:
    @pytest.fixture()
    def results_dir(self, tmp_path):
        out = tmp_path / "out"
        path = write_cfg(tmp_path, SMALL_CFG.format(out=out))
        assert cli.main(["run", path]) == 0
        return out

    def test_plot_svg(self, results_dir, tmp_path):
        svg = tmp_path / "plot.svg"
        rc = cli.main(["plot", str(results_dir / "bounds.csv"),
                       "--x", "ell", "--y", "lambda1,mu1_disc",
                       "--out", str(svg)])
        assert rc == 0
        text = svg.read_text()
        assert text.startswith("<?xml")
        assert text.count("<polyline") == 2

    def test_plot_deterministic(self, results_dir, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        args = ["plot", str(results_dir / "bounds.csv"), "--x", "ell",
                "--y", "lambda1"]
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_plot_logy_and_group(self, results_dir, tmp_path):
        svg = tmp_path / "halves.svg"
        rc = cli.main(["plot", str(results_dir / "nu-half.csv"),
                       "--x", "ell", "--y", "lambda_half_plus",
                       "--group", "experiment", "--logy",
                       "--out", str(svg)])
        assert rc == 0

    def test_plot_missing_column(self, results_dir, tmp_path):
        rc = cli.main(["plot", str(results_dir / "bounds.csv"),
                       "--x", "nope", "--y", "lambda1",
                       "--out", str(tmp_path / "x.svg")])
        assert rc == 1

    def test_plot_non_numeric_column(self, results_dir, tmp_path, capsys):
        rc = cli.main(["plot", str(results_dir / "bounds.csv"),
                       "--x", "ell", "--y", "passed",
                       "--out", str(tmp_path / "x.svg")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'passed'" in err
        assert not (tmp_path / "x.svg").exists()

    def test_plot_empty_csv(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        rc = cli.main(["plot", str(empty), "--x", "a", "--y", "b",
                       "--out", str(tmp_path / "x.svg")])
        assert rc == 1

    def test_report(self, results_dir, capsys):
        assert cli.main(["report", str(results_dir)]) == 0
        out = capsys.readouterr().out
        assert "bounds.csv" in out and "PASS" in out

    def test_report_flags_failures(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        with open(out / "fake.csv", "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(cli.CSV_COLUMNS)
            row = [""] * len(cli.CSV_COLUMNS)
            row[cli.CSV_COLUMNS.index("passed")] = "false"
            row[cli.CSV_COLUMNS.index("note")] = "synthetic failure"
            w.writerow(row)
        assert cli.main(["report", str(out)]) == 2


class TestFieldFactory:
    def test_all_kinds_constructible(self, tmp_path):
        rc = cli.RunConfig()
        for kind, params in [("model", {"delta": 0.3}),
                             ("identity", {}),
                             ("diagonal", {"diag": [1.0, 2.0]}),
                             ("asymmetric", {"delta0": 0.4}),
                             ("variable-a22", {"delta": 0.5}),
                             ("neg-coupling", {"c": 0.4}),
                             ("multi-model", {"delta": 0.5})]:
            rc.field_kind = kind
            rc.field_params = params
            field = cli.make_field(rc)
            assert field.n in (2, 3)

    def test_table_kind(self, tmp_path):
        table = tmp_path / "t.txt"
        table.write_text("2 1\n-1 0 2 0 2\n0 1 2 0 2\n")
        rc = cli.RunConfig()
        rc.field_kind = "table"
        rc.field_params = {"table": str(table)}
        field = cli.make_field(rc)
        assert field.piecewise_constant

    def test_missing_table_path(self):
        rc = cli.RunConfig()
        rc.field_kind = "table"
        with pytest.raises(ConfigError):
            cli.make_field(rc)
