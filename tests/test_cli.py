import csv
import dataclasses
import inspect
import os
import pathlib
import re
import subprocess
import sys

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


# a small run on the default mesh (no [mesh] section)
DEFAULT_MESH_CFG = """
[run]
experiments = bounds, nu-half
output_dir = {out}
seed = 0

[field]
kind = model
delta = 0.6

[schedules]
ell_bounds = 0.5 1
l_half = 2 4
"""


# a 3D run on multi-direction's own mesh: its band factor differs in the
# last digits between one and two OpenBLAS threads
SMALL_3D_CFG = """
[run]
experiments = multi-direction
seed = 0

[field]
kind = multi-model
delta = 0.6

[schedules]
l_multi = 2 4
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def one_error_line(capsys):
    """The captured stderr, checked to be one ``error:`` line and no
    traceback."""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


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
                                       seed=0, omega=(-1.0, 1.0))
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
"""
        path = write_cfg(tmp_path, text)
        assert cli.parse_config(path).cfg == ex.ExperimentConfig(
            resolution=10.0, axial_resolution=5.0, seed=3,
            omega=((-1.0, 1.0), (-2.0, 2.0)))
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
        # verdict tolerances are constants of the experiments, no setting
        path = write_cfg(tmp_path, "[mesh]\nresolution = 8\n[tolerances]\n"
                         "tol_inf = 1\n")
        with pytest.raises(ConfigError, match=re.escape(
                f"{path}:3: unknown section [tolerances]")):
            cli.parse_config(path)

    def test_solver_section_is_unknown(self, tmp_path):
        # solves take eig.DEFAULT_TOL, which no setting moves
        path = write_cfg(tmp_path, "[solver]\ntol = 1e-9\n")
        with pytest.raises(ConfigError, match=re.escape(
                f"{path}:1: unknown section [solver]")):
            cli.parse_config(path)
        assert cli.main(["run", path]) == 1

    @pytest.mark.parametrize("key", ["grading", "res3d_axial",
                                     "res3d_cross", "node_cap"])
    def test_removed_mesh_key_is_unknown(self, tmp_path, key):
        # only the end-collar rows are graded, multi-direction runs on its
        # own mesh, and meshes and factors share errors.MEMORY_BUDGET
        path = write_cfg(tmp_path, f"[mesh]\nresolution = 8\n{key} = 2\n")
        with pytest.raises(ConfigError, match=re.escape(
                f"{path}:3: unknown key '{key}' in [mesh]")):
            cli.parse_config(path)

    @pytest.mark.parametrize("old, new, message", [
        ("seed = 0", "seed = -1", "seed must be non-negative"),
    ])
    def test_out_of_range_seed_and_tol_rejected(self, tmp_path, capsys,
                                                old, new, message):
        # unchecked, each would crash the run with a raw ValueError
        text = SMALL_CFG.format(out=tmp_path / "out").replace(old, new)
        path = write_cfg(tmp_path, text)
        bad = next(line for line in new.splitlines() if "=" in line)
        lineno = text.splitlines().index(bad) + 1
        with pytest.raises(ConfigError, match=message):
            cli.parse_config(path)
        assert cli.main(["run", path]) == 1
        assert f"error: {path}:{lineno}: " in capsys.readouterr().err

    def test_duplicate_key_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "[mesh]\nresolution = 8\nresolution = 4\n")
        with pytest.raises(ConfigError, match=re.escape(
                f"{path}:3: duplicate key 'resolution' (first at line 2)")):
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

    def test_directory_as_config_exits_one(self, tmp_path, capsys):
        assert cli.main(["run", str(tmp_path)]) == 1
        assert f"cannot read {tmp_path}: " in one_error_line(capsys)

    def test_non_utf8_config_exits_one(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"[run]\nseed = 0\n# caf\xe9\n")
        assert cli.main(["run", str(path)]) == 1
        assert f"cannot read {path}: 'utf-8' codec can't decode byte 0xe9" \
            in one_error_line(capsys)

    def test_all_is_not_an_experiment(self, tmp_path):
        # no field runs every experiment (multi-direction needs p = 2,
        # the others p = 1), so there is no alias for all of them
        path = write_cfg(tmp_path, "# every one\n[run]\nexperiments = all\n")
        with pytest.raises(ConfigError,
                           match=r":3: experiments names unknown experiment 'all'"):
            cli.parse_config(path)


    @pytest.mark.parametrize("old, new, message", [
        ("axial_resolution = 4", "axial_resolution = nan",
         "axial_resolution must be a finite number, not 'nan'"),
        ("resolution = 8", "resolution = nan",
         "resolution must be a finite number, not 'nan'"),
        ("ell_bounds = 0.5 1", "ell_bounds = 1 inf",
         "ell_bounds must be a finite number, not 'inf'"),
        ("[mesh]", "[domain]\nomega = -1 nan\n[mesh]",
         "omega must be a finite number, not 'nan'"),
        ("experiments = bounds, nu-half", "experiments =",
         "experiments must name at least one experiment"),
    ], ids=["axial-resolution-nan", "resolution-nan", "schedule-inf",
            "omega-nan", "no-experiments"])
    def test_bad_value_ends_as_one_error_line(self, tmp_path, capsys, old,
                                              new, message):
        # unchecked, an infinite or nan mesh value ends in a traceback,
        # and no experiments runs none
        out = tmp_path / "out"
        text = SMALL_CFG.format(out=out).replace(old, new)
        path = write_cfg(tmp_path, text)
        bad = [line for line in new.splitlines() if "=" in line][-1]
        lineno = text.splitlines().index(bad) + 1
        assert cli.main(["run", path]) == 1
        assert one_error_line(capsys) == \
            f"error: {path}:{lineno}: {message}\n"
        assert not out.exists()


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

    def test_one_free_cross_node_fails_its_row(self, tmp_path):
        # resolution 1 on (-1, 1): two cross cells leave one free node,
        # too few for the pair the cross context asks of its pencil
        out = tmp_path / "out"
        path = write_cfg(tmp_path, SMALL_CFG.format(out=out)
                         .replace("resolution = 8", "resolution = 1")
                         .replace("bounds, nu-half", "bounds"))
        assert cli.main(["run", path]) == 2
        with open(out / "bounds.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 1
        assert rows[0]["passed"] == "false"
        assert "BadResolution" in rows[0]["note"]

    @pytest.mark.parametrize("field", [
        "kind = model\ndelta = 1.5",
        "kind = table\ntable = {tmp}/missing.txt",
        "kind = table\ntable = {tmp}/bad.txt",
        "kind = table\ntable = {tmp}/cellless.txt",
    ], ids=["bad-param", "missing-table", "malformed-table", "no-cells"])
    def test_field_builder_error_exits_one(self, tmp_path, capsys, field):
        (tmp_path / "bad.txt").write_text("2 1\n-1 0 2 0\n")
        (tmp_path / "cellless.txt").write_text("2 1\n")
        cfg = SMALL_CFG.replace("kind = model\ndelta = 0.6",
                                field.format(tmp=tmp_path))
        path = write_cfg(tmp_path, cfg.format(out=tmp_path / "out"))
        assert cli.main(["run", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: field kind ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("field, message", [
        ("kind = asymmetric\ndelta = 0.3",
         "field kind 'asymmetric': got an unexpected keyword argument "
         "'delta'"),
        ("kind = model\nc = 0.5",
         "field kind 'model': got an unexpected keyword argument 'c'"),
    ], ids=["delta-on-asymmetric", "c-on-model"])
    def test_key_the_kind_does_not_take_exits_one(self, tmp_path, capsys,
                                                  field, message):
        # unchecked, asymmetric ran its default delta0 = 0.5 in silence
        cfg = SMALL_CFG.replace("kind = model\ndelta = 0.6", field)
        path = write_cfg(tmp_path, cfg.format(out=tmp_path / "out"))
        assert cli.main(["run", path]) == 1
        assert one_error_line(capsys) == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_non_finite_table_entry_fails_its_row_as_not_elliptic(
            self, tmp_path):
        table = tmp_path / "nan.txt"
        table.write_text("2 1\n-1 0 1 nan 1\n0 1 1 0 1\n")
        out = tmp_path / "out"
        path = write_cfg(tmp_path, SMALL_CFG.format(out=out)
                         .replace("kind = model\ndelta = 0.6",
                                  f"kind = table\ntable = {table}")
                         .replace("bounds, nu-half", "bounds"))
        assert cli.main(["run", path]) == 2
        with open(out / "bounds.csv") as f:
            rows = list(csv.DictReader(f))
        assert rows and all(r["note"].startswith("NotElliptic: ")
                            for r in rows)

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
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("old, new", [
        ("resolution = 8", "resolution = 1e300"),
        ("ell_bounds = 0.5 1", "ell_bounds = 1e308"),
    ], ids=["resolution", "length"])
    def test_huge_mesh_value_fails_its_row_as_memory_budget(
            self, tmp_path, capsys, old, new):
        # finite but huge, the cell count once overflowed int() or
        # linspace and ended the run in a traceback
        out = tmp_path / "out"
        path = write_cfg(tmp_path, SMALL_CFG.format(out=out)
                         .replace("bounds, nu-half", "bounds")
                         .replace(old, new))
        assert cli.main(["run", path]) == 2
        assert "Traceback" not in capsys.readouterr().err
        with open(out / "bounds.csv") as f:
            rows = list(csv.DictReader(f))
        assert rows and all(r["passed"] == "false" and
                            r["note"].startswith("MemoryBudget: ")
                            for r in rows)

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
                raise NoConvergence("forced")
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

    def test_env_output_dir_naming_a_file_exits_one(self, tmp_path,
                                                    monkeypatch, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        path = write_cfg(tmp_path, SMALL_CFG.format(out=tmp_path / "out"))
        monkeypatch.setenv(cli.ENV_OUTPUT_DIR, str(taken))
        assert cli.main(["run", path]) == 1
        err = one_error_line(capsys)
        assert "cannot make output directory" in err and str(taken) in err

    def test_a_second_run_builds_its_slot_sets_again(self, tmp_path,
                                                      slot_builds, samplings):
        # the store's slot-matrix sets and samples end with the run's
        # solve_memo block
        path = write_cfg(tmp_path, SMALL_CFG.format(out=tmp_path / "out"))
        counts = []
        for _ in range(2):
            slot_builds.clear()
            samplings.clear()
            assert cli.main(["run", path]) == 0
            counts.append((len(slot_builds), len(samplings)))
        assert counts[0] == counts[1] and min(counts[0]) > 0

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

    def test_csv_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        """Every 2D pencil is solved by Lanczos on its banded factor, so
        the CSVs come out the same under one and two OpenBLAS threads.
        The thread count is set in each child's environment only, since
        OpenBLAS reads it when numpy is first imported."""
        path = write_cfg(tmp_path,
                         DEFAULT_MESH_CFG.format(out=tmp_path / "ignored"))
        src = pathlib.Path(cli.__file__).resolve().parent.parent
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=str(src))
            env[cli.ENV_OUTPUT_DIR] = str(out)
            proc = subprocess.run(
                [sys.executable, "-m", "cylgap.cli", "run", path], env=env,
                capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            outs.append(out)
        names = [sorted(p.name for p in out.glob("*.csv")) for out in outs]
        assert names[0] == names[1] == ["bounds.csv", "nu-half.csv"]
        for name in names[0]:
            assert (outs[0] / name).read_bytes() == \
                (outs[1] / name).read_bytes(), name

    def test_import_leaves_the_thread_count_as_found(self):
        """``import cylgap`` sets OPENBLAS_NUM_THREADS only while it loads
        numpy and scipy: unset before, unset after; a caller's value is
        kept."""
        src = pathlib.Path(cli.__file__).resolve().parent.parent
        probe = ("import os, cylgap; "
                 "print(os.environ.get('OPENBLAS_NUM_THREADS'))")
        for value in (None, "2"):
            env = {k: v for k, v in os.environ.items()
                   if k != "OPENBLAS_NUM_THREADS"}
            env["PYTHONPATH"] = str(src)
            if value is not None:
                env["OPENBLAS_NUM_THREADS"] = value
            proc = subprocess.run([sys.executable, "-c", probe], env=env,
                                  capture_output=True, text=True,
                                  timeout=120)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip() == str(value)

    def test_3d_csv_bytes_do_not_depend_on_an_unset_thread_count(
            self, tmp_path):
        """The 3D band goes through threaded ``dpbtrf``, whose rounding
        depends on the thread count; with OPENBLAS_NUM_THREADS unset a run
        uses one thread and writes the bytes of a run at one thread."""
        path = write_cfg(tmp_path, SMALL_3D_CFG)
        src = pathlib.Path(cli.__file__).resolve().parent.parent
        outs = []
        for value in (None, "1"):
            out = tmp_path / f"threads{value}"
            env = {k: v for k, v in os.environ.items()
                   if k != "OPENBLAS_NUM_THREADS"}
            env.update(PYTHONPATH=str(src), **{cli.ENV_OUTPUT_DIR: str(out)})
            if value is not None:
                env["OPENBLAS_NUM_THREADS"] = value
            proc = subprocess.run(
                [sys.executable, "-m", "cylgap.cli", "run", path], env=env,
                capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            outs.append((out / "multi-direction.csv").read_bytes())
        assert outs[0] == outs[1]


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

    def test_plot_logy_without_positive_values_exits_one(self, tmp_path,
                                                         capsys):
        data = tmp_path / "data.csv"
        data.write_text("x,y\n1,0\n2,-1\n")
        rc = cli.main(["plot", str(data), "--x", "x", "--y", "y", "--logy",
                       "--out", str(tmp_path / "x.svg")])
        assert rc == 1
        assert "no positive plottable data" in one_error_line(capsys)
        assert not (tmp_path / "x.svg").exists()

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

    def test_report_on_a_non_utf8_csv_exits_one(self, tmp_path, capsys):
        (tmp_path / "bad.csv").write_bytes(b"passed,note\nfalse,caf\xe9\n")
        assert cli.main(["report", str(tmp_path)]) == 1
        assert f"cannot read {tmp_path / 'bad.csv'}: 'utf-8' codec" in \
            one_error_line(capsys)


    @pytest.mark.parametrize("command", [
        ["report", "{dir}"],
        ["plot", "{dir}/short.csv", "--x", "note", "--y", "passed",
         "--out", "{dir}/x.svg"],
    ], ids=["report", "plot"])
    def test_short_row_exits_one(self, tmp_path, capsys, command):
        (tmp_path / "short.csv").write_text("note,passed\nx\n")
        args = [a.format(dir=tmp_path) for a in command]
        assert cli.main(args) == 1
        assert one_error_line(capsys) == (
            f"error: {tmp_path / 'short.csv'}:2: 1 cells under a header "
            "of 2\n")
        assert not (tmp_path / "x.svg").exists()

    def test_plot_non_finite_cell_exits_one(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("x,y\n1,inf\n2,3\n")
        rc = cli.main(["plot", str(data), "--x", "x", "--y", "y",
                       "--out", str(tmp_path / "x.svg")])
        assert rc == 1
        assert "must be a finite number, not 'inf'" in one_error_line(capsys)
        assert not (tmp_path / "x.svg").exists()


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


def _accepts(parse, raw):
    try:
        parse(raw)
    except ValueError:
        return False
    return True


class TestSchema:
    def test_config_keys_are_the_experiment_config_fields(self):
        # a field no key sets, or a key that sets no field, fails here
        keys = set(cli.SCHEMA["mesh"]) | set(cli.SCHEMA["domain"]) | {"seed"}
        assert {f.name for f in dataclasses.fields(ex.ExperimentConfig)} \
            == keys

    def test_field_keys_are_the_builders_parameters(self):
        params = {name for builder in cli.FIELD_KINDS.values()
                  for name in inspect.signature(builder).parameters}
        assert set(cli.SCHEMA["field"]) - {"kind"} == params

    def test_every_numeric_key_rejects_non_finite_values(self, tmp_path):
        # a key that rejects a word is numeric when it takes a number or
        # an interval, else it names an entry of a table
        numeric, names, text = {}, set(), set()
        for section, keys in cli.SCHEMA.items():
            for key, parse in keys.items():
                sample = next((s for s in ("1", "-1 1")
                               if _accepts(parse, s)), None)
                if _accepts(parse, "x"):
                    text.add(key)
                elif sample is None:
                    names.add(key)
                else:
                    numeric[section, key] = sample
        assert text == {"output_dir", "table"}
        assert names == {"experiments", "kind"}
        assert len(numeric) == 22
        for (section, key), sample in numeric.items():
            for bad in ("nan", "inf", "-inf"):
                value = " ".join(sample.split()[:-1] + [bad])
                path = write_cfg(tmp_path,
                                 f"# probe\n[{section}]\n{key} = {value}\n")
                with pytest.raises(ConfigError, match=re.escape(
                        f"{path}:3: {key} must be ")):
                    cli.parse_config(path)
