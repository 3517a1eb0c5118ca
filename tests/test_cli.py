import ast
import csv
import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import acdcdyn
import acdcdyn.cli
from acdcdyn import NumericFailure
from acdcdyn.cli import COMMANDS, _CSV_BLOCK_ROWS, _write_csv, main
from acdcdyn.system import _load_preset, steady_state
from conftest import preset


def write_config(tmp_path, data, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def read_csv(path):
    with open(path) as f:
        return list(csv.reader(f))


class TestConfigHandling:
    def test_invalid_json_exit_1(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["poles", "--config", str(p), "--out",
                     str(tmp_path / "o")]) == 1
        assert "line" in capsys.readouterr().err

    def test_undecodable_config_exit_1(self, tmp_path, capsys):
        # fails before the run starts: no output directory, no error.json
        p = tmp_path / "bad.json"
        p.write_bytes(b'{"scenario": "\xff"}')
        out = tmp_path / "o"
        assert main(["poles", "--config", str(p), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_missing_scenario_exit_1(self, tmp_path):
        cfg = write_config(tmp_path, {"options": {}})
        assert main(["poles", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("data", [
        5,
        {"scenario": "islanded_pv", "overrides": 5},
        {"scenario": "islanded_pv", "options": [1, 2]},
    ], ids=["config", "overrides", "options"])
    def test_non_object_exit_1(self, tmp_path, capsys, data):
        cfg = write_config(tmp_path, data)
        assert main(["poles", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must be" in err
        assert "Traceback" not in err

    def test_unknown_top_level_key_exit_1(self, tmp_path, capsys):
        # a misspelt "overrides" was ignored, and the run used the
        # preset's gains
        cfg = write_config(tmp_path, {"scenario": "islanded_pv",
                                      "overide": {"k_p": 9}})
        out = tmp_path / "o"
        assert main(["poles", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            "error: unknown keys ['overide'] in the config\n"
        assert not out.exists()

    def test_repeated_ac_node_exit_1(self, tmp_path, capsys):
        # it built a graph whose load block failed in build, as a numeric
        # failure (exit 2)
        data = _load_preset("lvdc_async")
        data["ac_nodes"].append(["load1", "load_ac"])
        cfg = write_config(tmp_path, {"scenario": data})
        out = tmp_path / "o"
        assert main(["check", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            "error: AC node 'load1' is listed twice\n"
        assert sorted(p.name for p in out.iterdir()) == ["error.json"]

    @pytest.mark.parametrize("scenario, block, edge, message", [
        ("islanded_pv", "ac_edges",
         {"n": "sg", "k": "sg",
          "segments": [{"cable": "NAYY 4x240", "length_m": 4.0}]},
         "ac_edges.2: AC edge joins node 'sg' to itself"),
        ("lvdc_async", "dc_edges",
         {"n": "vsc1", "k": "vsc1", "cable": "H07RN-F 2x6",
          "length_m": 40.0},
         "dc_edges.1: DC edge joins node 'vsc1' to itself"),
    ], ids=["ac", "dc"])
    def test_self_loop_exit_1(self, tmp_path, capsys, scenario, block, edge,
                              message):
        # the AC self-loop gave 32 poles instead of 24, and the DC one 44
        # states instead of 40, both with exit 0
        data = _load_preset(scenario)
        data[block].append(edge)
        cfg = write_config(tmp_path, {"scenario": data})
        out = tmp_path / "o"
        assert main(["poles", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(p.name for p in out.iterdir()) == ["error.json"]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_lossless_link_between_unequal_setpoints_exit_1(
            self, tmp_path, capsys, command):
        # check wrote stable,true (exit 0) for this network, which has no
        # operating point, while steady refused it
        cfg = write_config(tmp_path, {"scenario": "parallel_ac_dc"})
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out),
                     "--set", "r_dc=0"]) == 1
        assert capsys.readouterr().err == (
            "error: lossless DC edge vsc1-vsc2 between unequal setpoints has "
            "no operating point\n")
        assert sorted(p.name for p in out.iterdir()) == ["error.json"]

    def test_unknown_preset_exit_1(self, tmp_path):
        cfg = write_config(tmp_path, {"scenario": "bogus"})
        assert main(["poles", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 1

    def test_improper_step_exit_1(self, tmp_path):
        cfg = write_config(tmp_path, {
            "scenario": "islanded_pv",
            "overrides": {"vscs.0.control.tau_kd_s": 0.0},
            "options": {"input": "p_load_load1"}})
        out = tmp_path / "o"
        assert main(["step", "--config", cfg, "--out", str(out)]) == 1
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "ImproperController"


    @pytest.mark.parametrize("command,options", [
        ("step", {"input": "p_load_load1", "t_end_s": [1]}),
        ("sweep", {"parameter": "k_d", "values": 5,
                   "input": "p_load_load1", "output": "omega_vsc1"}),
    ], ids=["step-t_end", "sweep-values"])
    def test_option_of_wrong_type_exit_1(self, tmp_path, capsys, command,
                                         options):
        cfg = write_config(tmp_path, {"scenario": "islanded_pv",
                                      "options": options})
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert json.loads((out / "error.json").read_text())["error"] \
            == "TypeError"

    def test_linalg_error_exit_2(self, tmp_path, capsys, monkeypatch):
        # LinAlgError subclasses ValueError, yet it is a numeric failure
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(acdcdyn.cli, "build", singular)
        cfg = write_config(tmp_path, {"scenario": "islanded_pv"})
        out = tmp_path / "o"
        assert main(["poles", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("numeric failure: ")
        assert json.loads((out / "error.json").read_text())["error"] \
            == "LinAlgError"

    def test_unknown_option_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "scenario": "islanded_pv",
            "options": {"input": "p_load_load1", "output": "omega_vsc1"}})
        out = tmp_path / "o"
        assert main(["bode", "--config", cfg, "--out", str(out),
                     "--set", "options.pionts=5"]) == 1
        assert "pionts" in capsys.readouterr().err
        assert not (out / "bode.csv").exists()

    def test_step_output_cap_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "scenario": "islanded_pv",
            "options": {"input": "p_load_load1", "t_end_s": 1e9,
                        "dt_s": 1e-9}})
        out = tmp_path / "o"
        assert main(["step", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "exceed" in err
        assert "Traceback" not in err
        assert (out / "error.json").exists()

    def test_bode_points_cap_exit_1(self, tmp_path, capsys):
        # refused before the frequency grid is allocated
        cfg = write_config(tmp_path, {
            "scenario": "islanded_pv",
            "options": {"input": "p_load_load1", "output": "omega_vsc1",
                        "points": 10**15}})
        out = tmp_path / "o"
        assert main(["bode", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: points = 1000000000000000") \
            and "exceeds" in err
        assert "Traceback" not in err
        assert (out / "error.json").exists()
        assert not (out / "bode.csv").exists()

    @pytest.mark.parametrize("command, options, sets, message", [
        ("bode", {"f_min_hz": math.nan}, [],
         "f_min must be finite and positive, got nan"),
        ("bode", {}, ["options.f_max_hz=Infinity"],
         "f_max must be finite and positive, got inf"),
        ("bode", {"f_min_hz": 0}, [], "f_min must be finite and positive"),
        ("bode", {}, ["options.f_min_hz=true"],
         "f_min must be a real number, got True"),
        ("bode", {}, ['options.f_min_hz="0.1"'],
         "f_min must be a real number, got '0.1'"),
        ("bode", {"points": 0}, [], "points must be a positive int"),
        ("bode", {"points": 2.5}, [], "points must be a positive int"),
        ("steady", {"delta_p_l_pu": math.nan}, [], "options.delta_p_l_pu"),
        ("steady", {"delta_p_l_w": math.inf}, [], "options.delta_p_l_w"),
        ("step", {"amplitude": math.inf}, [], "options.amplitude"),
        ("step", {"dt_s": math.nan}, [], "options.dt_s"),
        ("spectrum", {"t_end_s": math.nan}, [], "options.t_end_s"),
        ("bode", {"input": None}, [], "missing options.input"),
        ("step", {"input": None}, [], "missing options.input"),
        ("spectrum", {"input": None, "channel": None}, [],
         "missing options.input, options.channel"),
        ("sweep", {"parameter": None}, [], "missing options.parameter"),
        ("steady", {}, [], "steady takes exactly one of "
         "options.delta_p_l_pu and options.delta_p_l_w"),
        ("steady", {"delta_p_l_pu": 0.1, "delta_p_l_w": 5000.0}, [],
         "steady takes exactly one of"),
    ], ids=["bode-f_min-nan", "bode-f_max-inf", "bode-f_min-zero",
            "bode-f_min-bool", "bode-f_min-string", "bode-points-zero", "bode-points-float", "steady-pu-nan",
            "steady-w-inf", "step-amplitude-inf", "step-dt-nan",
            "spectrum-t_end-nan", "bode-no-input", "step-no-input",
            "spectrum-no-input-channel", "sweep-no-parameter",
            "steady-no-step", "steady-both-steps"])
    def test_bad_number_exit_1(self, tmp_path, capsys, command, options,
                               sets, message):
        # a NaN, an infinity, a band that is not one or a missing option
        # exits 1 naming the quantity, and writes no table; an option
        # given as None is left out of the run's options
        channel = {
            "bode": {"input": "p_load_load1", "output": "omega_vsc1"},
            "steady": {},
            "step": {"input": "p_load_load1"},
            "sweep": {"parameter": "k_d", "values": [0.005],
                      "input": "p_load_load1", "output": "omega_vsc1"},
            "spectrum": {"input": "p_load_load1", "channel": "omega_vsc1"},
        }[command]
        options = {key: value for key, value in {**channel, **options}.items()
                   if value is not None}
        cfg = write_config(tmp_path, {"scenario": "islanded_pv",
                                      "options": options})
        out = tmp_path / "o"
        argv = [command, "--config", cfg, "--out", str(out)]
        for item in sets:
            argv += ["--set", item]
        assert main(argv) == 1
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["error.json"]
        assert message in json.loads((out / "error.json").read_text())[
            "message"]

    def test_readme_lists_every_option(self):
        # the README's option table has one row per key of cli.OPTIONS,
        # with "required" or the default that the command fills in
        readme = Path(acdcdyn.__file__).resolve().parents[2] / "README.md"
        rows = {}
        for line in readme.read_text(encoding="utf-8").splitlines():
            cells = [c.strip() for c in line.strip("|").split("|")]
            if len(cells) == 4 and cells[0].strip("`") in COMMANDS:
                rows[cells[0].strip("`"), cells[1].strip("`")] = cells[2]
        expected = {(command, key): default
                    for command, spec in acdcdyn.cli.OPTIONS.items()
                    for key, (_, default) in spec.items()}
        assert sorted(rows) == sorted(expected)
        for row, default in expected.items():
            if default is acdcdyn.cli._REQUIRED:
                assert rows[row] == "required", row
            elif default is not None:
                assert rows[row] == repr(default), row


class TestArtifacts:
    def test_poles_schema_and_manifest(self, tmp_path):
        cfg = write_config(tmp_path, {"scenario": "islanded_pv"})
        out = tmp_path / "run"
        assert main(["poles", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out / "poles.csv")
        assert rows[0] == ["re", "im", "structural"]
        assert sum(int(r[2]) for r in rows[1:]) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["per_unit_base"]["s_base_va"] == 50000.0
        assert manifest["outputs"] == ["poles.csv"]

    def test_determinism_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, {
            "scenario": "islanded_pv",
            "options": {"input": "p_load_load1", "output": "omega_vsc1",
                        "points": 40}})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["bode", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["bode", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "bode.csv").read_bytes() == \
            (out2 / "bode.csv").read_bytes()

    def test_steady_matches_library(self, tmp_path):
        cfg = write_config(tmp_path, {"scenario": "islanded_pv",
                                      "options": {"delta_p_l_w": 2500.0}})
        out = tmp_path / "run"
        assert main(["steady", "--config", cfg, "--out", str(out)]) == 0
        rows = {r[0]: r[1] for r in read_csv(out / "steady.csv")[1:]}
        st = steady_state(preset("islanded_pv"), 0.05)
        assert float(rows["domega"]) == pytest.approx(st.domega, rel=1e-8)
        assert float(rows["dp_pv"]) == pytest.approx(st.dp_pv, rel=1e-8)
        assert float(rows["dv_dc_vsc1"]) == pytest.approx(st.dv_dc["vsc1"],
                                                          rel=1e-8)

    def test_steady_dc_only_area_matches_library(self, tmp_path):
        # the SG area of lvdc_async reaches the grid only over DC
        cfg = write_config(tmp_path, {"scenario": "lvdc_async",
                                      "options": {"delta_p_l_pu": 0.05}})
        out = tmp_path / "run"
        assert main(["steady", "--config", cfg, "--out", str(out)]) == 0
        st = steady_state(preset("lvdc_async"), 0.05)
        rows = [("delta_p_l", 0.05), ("domega", st.domega),
                ("dp_tg", st.dp_tg), ("dp_pv", st.dp_pv)]
        rows += [(f"dv_dc_{n}", v) for n, v in sorted(st.dv_dc.items())]
        rows += [(f"dp_ac_{n}", v) for n, v in sorted(st.dp_ac.items())]
        assert read_csv(out / "steady.csv")[1:] == [
            [name, "%.9g" % v] for name, v in rows]
        assert st.domega < 0 < st.dp_tg

    def test_step_csv_columns(self, tmp_path):
        cfg = write_config(tmp_path, {
            "scenario": "islanded_pv",
            "options": {"input": "p_load_load1", "t_end_s": 1.0,
                        "dt_s": 0.01}})
        out = tmp_path / "run"
        assert main(["step", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out / "step.csv")
        assert rows[0][0] == "t_s"
        assert "omega_vsc1" in rows[0]
        assert len(rows) == 102  # header + 101 samples

    def test_check_reports_verdicts(self, tmp_path):
        cfg = write_config(tmp_path, {"scenario": "lvdc_async"})
        out = tmp_path / "run"
        assert main(["check", "--config", cfg, "--out", str(out)]) == 0
        rows = {r[0]: r[1] for r in read_csv(out / "check.csv")[1:]}
        assert rows["stable"] == "true"
        assert rows["ratio_bound_vsc1"] == "pass"

    def test_check_one_row_per_bounded_vsc(self, tmp_path):
        cfg = write_config(tmp_path, {
            "scenario": "lvdc_async",
            "overrides": {"ratio_bounds": {"vsc1": 0.2571}}})
        out = tmp_path / "run"
        assert main(["check", "--config", cfg, "--out", str(out)]) == 0
        names = [r[0] for r in read_csv(out / "check.csv")[1:]]
        assert [n for n in names if n.startswith("ratio_bound_")] == \
            ["ratio_bound_vsc1"]

    def test_sweep_csv(self, tmp_path):
        cfg = write_config(tmp_path, {
            "scenario": "islanded_pv",
            "options": {"parameter": "k_d", "values": [0.005, 0.01],
                        "input": "p_load_load1", "output": "omega_vsc1"}})
        out = tmp_path / "run"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out / "sweep.csv")
        assert rows[0][:4] == ["k_d", "stable", "f_peak_hz", "mag_peak_db"]
        assert len(rows) == 3
        assert all(r[1] == "1" for r in rows[1:])

    def test_sweep_over_a_path(self, tmp_path):
        cfg = write_config(tmp_path, {
            "scenario": "lvdc_async",
            "options": {"parameter": "vscs.0.c_dc_f",
                        "values": [0.003, 0.006],
                        "input": "p_load_load1", "output": "omega_vsc1"}})
        out = tmp_path / "run"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out / "sweep.csv")[1:]
        assert len(rows) == 2
        assert all(r[1] == "1" and r[4] == "" for r in rows)

    def test_sweep_records_error_type(self, tmp_path):
        cfg = write_config(tmp_path, {
            "scenario": "islanded_pv",
            "options": {"parameter": "tau_kd", "values": [0.0, 0.01],
                        "input": "p_load_load1", "output": "omega_vsc1"}})
        out = tmp_path / "run"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out / "sweep.csv")
        assert rows[0][4] == "error"
        assert rows[1][1:4] == ["", "", ""]
        assert rows[1][4].startswith("ImproperController: ")
        assert rows[2][1] == "1" and rows[2][4] == ""
        assert float(rows[2][2]) > 0

    def test_sweep_error_text_with_a_comma_is_one_cell(self, tmp_path):
        cfg = write_config(tmp_path, {
            "scenario": "islanded_pv",
            "options": {"parameter": "k_p", "values": [0.025, -0.1, 0.0],
                        "input": "p_load_load1", "output": "omega_vsc1"}})
        out = tmp_path / "run"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "sweep.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert [len(r) for r in rows] == [5] * 4
        assert rows[2][4] == ("ValueError: vscs.0: GfmCtrlParams.k_p must "
                              "be finite and positive, got -0.1")

    @pytest.mark.parametrize("name", ["s,g", "s\ng", 's"g'])
    def test_node_names_that_need_quotes(self, tmp_path, name):
        data = _load_preset("islanded_pv")
        data["sg"]["node"] = data["ac_nodes"][0][0] = name
        data["ac_edges"][0]["n"] = name
        cfg = write_config(tmp_path, {
            "scenario": data,
            "options": {"input": "p_load_load1", "t_end_s": 1.0,
                        "dt_s": 0.01}})
        out = tmp_path / "run"
        assert main(["step", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "step.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0][:4] == ["t_s", f"omega_{name}", f"p_ac_{name}",
                               f"p_tg_{name}"]
        assert [len(r) for r in rows] == [8] * 102

    @pytest.mark.parametrize("options", [
        {"parameter": "bogus", "values": [1.0, 2.0],
         "input": "p_load_load1", "output": "omega_vsc1"},
        {"parameter": "k_d", "values": [0.005, 0.01],
         "input": "p_load_load1", "output": "bogus"},
    ], ids=["parameter", "output"])
    def test_sweep_unknown_name_exit_1(self, tmp_path, capsys, options):
        # a name that no point can have is the run's error, not a row's
        cfg = write_config(tmp_path, {"scenario": "islanded_pv",
                                      "options": options})
        out = tmp_path / "run"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
        assert "bogus" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()
        assert json.loads((out / "error.json").read_text())["error"] \
            == "KeyError"

    @pytest.mark.parametrize("parameter", ["base.bogus", "vscs.0.c_dcf"])
    def test_sweep_unknown_scenario_key_exit_1(self, tmp_path, capsys,
                                               parameter):
        # a key no point can use fails the run at the first point
        cfg = write_config(tmp_path, {
            "scenario": "islanded_pv",
            "options": {"parameter": parameter, "values": [1.0, 2.0],
                        "input": "p_load_load1", "output": "omega_vsc1"}})
        out = tmp_path / "run"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and parameter.split(".")[-1] in err
        assert not (out / "sweep.csv").exists()
        assert json.loads((out / "error.json").read_text())["error"] \
            == "KeyError"

    def test_spectrum_unknown_channel_before_the_step(self, tmp_path,
                                                      capsys, monkeypatch):
        def kernel(*args):
            raise AssertionError("step_response called")

        monkeypatch.setattr(acdcdyn.cli, "step_response", kernel)
        cfg = write_config(tmp_path, {
            "scenario": "islanded_pv",
            "options": {"input": "p_load_load1", "channel": "nope"}})
        out = tmp_path / "run"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            "error: unknown output channel 'nope'\n"
        assert json.loads((out / "error.json").read_text())["error"] \
            == "KeyError"

    def test_spectrum_csv(self, tmp_path):
        cfg = write_config(tmp_path, {
            "scenario": "islanded_pv",
            "options": {"input": "p_load_load1", "channel": "v_dc_vsc1",
                        "t_end_s": 4.0, "dt_s": 0.01}})
        out = tmp_path / "run"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out / "spectrum.csv")
        assert rows[0] == ["f_hz", "magnitude"]
        assert float(rows[1][0]) == 0.0


class TestSetFlag:
    def test_set_overrides_and_options(self, tmp_path):
        cfg = write_config(tmp_path, {
            "scenario": "islanded_pv",
            "options": {"input": "p_load_load1", "output": "omega_vsc1"}})
        out = tmp_path / "run"
        assert main(["bode", "--config", cfg, "--out", str(out),
                     "--set", "options.points=25",
                     "--set", "vscs.0.control.k_d=0.005"]) == 0
        rows = read_csv(out / "bode.csv")
        assert len(rows) == 26
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["resolved_parameters"]["vscs"][0]["control"]["k_d"] \
            == 0.005

    def test_named_gain_equals_its_path(self, tmp_path):
        # the preset has k_p = 0.025, so only a change shows in the poles
        cfg = write_config(tmp_path, {"scenario": "islanded_pv"})
        poles = {}
        for item in ("k_p=0.025", "k_p=0.05", "vscs.0.control.k_p=0.05"):
            out = tmp_path / item
            assert main(["poles", "--config", cfg, "--out", str(out),
                         "--set", item]) == 0
            poles[item] = (out / "poles.csv").read_bytes()
        assert poles["k_p=0.05"] == poles["vscs.0.control.k_p=0.05"]
        assert poles["k_p=0.05"] != poles["k_p=0.025"]
        # every other named gain, on a scenario with two VSCs and a DC edge
        vb = _load_preset("lvdc_async")["base"]["v_base_dc_v"]
        spellings = {
            "k_d_1=0.004": ["vscs.0.control.k_d=0.004"],
            "tau_kd=0.02": ["vscs.0.control.tau_kd_s=0.02",
                            "vscs.1.control.tau_kd_s=0.02"],
            "r_dc=0.3": ["dc_edges.0.r_ohm=0.3"],
            "l_dc=3e-05": ["dc_edges.0.l_h=3e-05"],
            "v_dc_star_pu=[0.9975,1.0]": [
                f"vscs.0.v_dc_star_v={json.dumps(0.9975 * vb)}",
                f"vscs.1.v_dc_star_v={json.dumps(1.0 * vb)}"]}
        cfg = write_config(tmp_path, {"scenario": "lvdc_async"}, "lvdc.json")
        for named, paths in spellings.items():
            runs = []
            for items in ([named], paths):
                out = tmp_path / "lvdc" / items[0]
                argv = ["poles", "--config", cfg, "--out", str(out)]
                for item in items:
                    argv += ["--set", item]
                assert main(argv) == 0
                manifest = json.loads((out / "manifest.json").read_text())
                runs.append((json.dumps(manifest["resolved_parameters"],
                                        sort_keys=True),
                             (out / "poles.csv").read_bytes()))
            assert runs[0] == runs[1], named

    def test_ratio_bounds_on_a_preset_without_them(self, tmp_path):
        cfg = write_config(tmp_path, {"scenario": "islanded_pv"})
        out = tmp_path / "run"
        assert main(["check", "--config", cfg, "--out", str(out),
                     "--set", 'ratio_bounds={"vsc1": 0.3}']) == 0
        names = [r[0] for r in read_csv(out / "check.csv")[1:]]
        assert [n for n in names if n.startswith("ratio_bound_")] == \
            ["ratio_bound_vsc1"]

    def test_unknown_named_gain_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"scenario": "islanded_pv"})
        out = tmp_path / "o"
        assert main(["poles", "--config", cfg, "--out", str(out),
                     "--set", "bogus=1"]) == 1
        assert "bogus" in capsys.readouterr().err
        assert (out / "error.json").exists()

    @pytest.mark.parametrize("scenario, item, message", [
        ("lvdc_async", "k_d_0=0.5", "has 2 VSCs"),
        ("lvdc_async", "k_d_3=0.5", "has 2 VSCs"),
        ("lvdc_async", "tau_kd_-1=0.01", "has 2 VSCs"),
        ("lvdc_async", "k_p_x=0.05", "has 2 VSCs"),
        ("lvdc_async", "v_dc_star_pu=[1.01]", "1 values for 2 VSCs"),
        ("lvdc_async", "v_dc_star_pu=[1.01,1.0,0.99]", "3 values for 2"),
        ("islanded_pv", "r_dc=0.5", "no DC edge"),
        ("islanded_pv", "l_dc=0.001", "no DC edge"),
        ("lvdc_async", "vscs.-1.control.k_d=0.5",
         "override 'vscs.-1.control.k_d': vscs has 2 items, no index '-1'"),
        ("lvdc_async", "vscs.2.control.k_d=0.5",
         "override 'vscs.2.control.k_d': vscs has 2 items, no index '2'"),
        ("lvdc_async", "vscs.x.control.k_d=0.5",
         "override 'vscs.x.control.k_d': vscs has 2 items, no index 'x'"),
        ("lvdc_async", "base.nope.x=1",
         "override 'base.nope.x': base has no 'nope'"),
        ("lvdc_async", "k_p_1.5=0.1",
         "override 'k_p_1.5': the scenario has no 'k_p_1'")])
    def test_named_override_that_misses_exit_1(self, tmp_path, capsys,
                                               scenario, item, message):
        # an index that is not one of 1..n, a list of another length, a
        # scenario without the element, or a dotted path with a list index
        # that is not a decimal below the list's length or a missing
        # segment: no other element is written or silently left out
        cfg = write_config(tmp_path, {"scenario": scenario})
        out = tmp_path / "o"
        assert main(["poles", "--config", cfg, "--out", str(out),
                     "--set", item]) == 1
        assert message in capsys.readouterr().err
        assert not (out / "poles.csv").exists()

    @pytest.mark.parametrize("item, message", [
        ("k_d=true", "override 'k_d' takes a number, got True"),
        ("k_d=[1,2]", "override 'k_d' takes a number, got [1, 2]"),
        ("r_dc=null", "override 'r_dc' takes a number, got None"),
        ('k_p_1="0.1"', "override 'k_p_1' takes a number, got '0.1'"),
        ("v_dc_star_pu=1.0",
         "override 'v_dc_star_pu' takes a list of numbers, got 1.0"),
    ], ids=["bool", "list", "null", "string", "scalar-setpoints"])
    def test_named_gain_of_wrong_type_exit_1(self, tmp_path, capsys, item,
                                             message):
        cfg = write_config(tmp_path, {"scenario": "lvdc_async"})
        out = tmp_path / "o"
        assert main(["poles", "--config", cfg, "--out", str(out),
                     "--set", item]) == 1
        assert message in capsys.readouterr().err
        assert json.loads((out / "error.json").read_text())["error"] \
            == "TypeError"
        assert not (out / "poles.csv").exists()

    @pytest.mark.parametrize("command, item, error, message", [
        ("steady", "k_p=NaN", "ValueError",
         "vscs.0: GfmCtrlParams.k_p must be finite and positive, got nan"),
        ("poles", "k_p_2=NaN", "ValueError",
         "vscs.1: GfmCtrlParams.k_p must be finite and positive, got nan"),
        ("poles", "sg.h_s=NaN", "ValueError",
         "sg: SgParams.H must be finite and positive, got nan"),
        ("poles", "vscs.0.control.k_d=[1]", "TypeError",
         "vscs.0: GfmCtrlParams.k_d must be a real number, got [1]"),
        ("poles", "sg.h_s=true", "TypeError",
         "sg: SgParams.H must be a real number, got True"),
        ("poles", "vscs.1.r_virtual_ohm=-1", "ValueError",
         "ac_edges.2: AcEdge.r_virt_n must be finite and nonnegative, "
         "got -1"),
        ("poles", "dc_edges.0.r_ohm=-1", "ValueError",
         "dc_edges.0: DcEdge.r_dc must be finite and nonnegative, got -1"),
        ("step", "options.t_end_s=true", "TypeError",
         "options.t_end_s must be a real number, got True"),
        ("step", 'options.dt_s="0.001"', "TypeError",
         "options.dt_s must be a real number, got '0.001'"),
        ("steady", "options.delta_p_l_pu=true", "TypeError",
         "options.delta_p_l_pu must be a real number, got True"),
        ("poles", "ac_edges.0.segments.0.length_m=-1", "ValueError",
         "ac_edges.0.segments.0: length_m must be finite and positive, "
         "got -1"),
        ("poles", "dc_edges.0.length_m=0", "ValueError",
         "dc_edges.0: length_m must be finite and positive, got 0"),
        # a KeyError is reported by its argument, not by its quoted repr
        ("poles", 'ac_edges.0.segments.0.cable="NAYY"', "KeyError",
         "ac_edges.0.segments.0: unknown cable type 'NAYY'"),
        ("poles", 'dc_edges.0.cable="NAYY"', "KeyError",
         "dc_edges.0: unknown cable type 'NAYY'"),
        ("poles", 'ac_nodes.0.1="xyz"', "ValueError",
         "ac_nodes.0: 'xyz' is not a valid NodeKind"),
        ("poles", 'ac_edges.1.virtual_at="vsc2"', "ValueError",
         "ac_edges.1: virtual_at 'vsc2' is not a VSC at an end of this "
         "edge"),
        ("poles", 'ac_edges.1.virtual_at="load1"', "ValueError",
         "ac_edges.1: virtual_at 'load1' is not a VSC at an end of this "
         "edge"),
        ("sweep", "options.values=5", "TypeError",
         "options.values must be a list, got 5"),
        ("sweep", 'options.values={"a":1}', "TypeError",
         "options.values must be a list, got {'a': 1}"),
        ("sweep", "options.parameter=5", "TypeError",
         "options.parameter must be a string, got 5"),
        ("step", "options.input=nope", "KeyError",
         "unknown input channel 'nope'"),
        ("spectrum", "options.channel=nope", "KeyError",
         "unknown output channel 'nope'"),
        ("bode", "options.output=nope", "KeyError",
         "unknown output channel 'nope'"),
        ("poles", "ac_edges=5", "TypeError",
         "ac_edges must be an array, got 5"),
        ("poles", "dc_edges=null", "TypeError",
         "dc_edges must be an array, got None"),
        ("poles", 'vscs="ab"', "TypeError",
         "vscs must be an array, got 'ab'"),
        ("poles", "vscs.0.pv=false", "TypeError",
         "vscs.0.pv must be an object, got False"),
        ("poles", "vscs.0.pv={}", "KeyError",
         "vscs.0.pv: missing key 's_base_va'"),
        ("poles", "ratio_bounds=0", "TypeError",
         "ratio_bounds must be an object, got 0"),
        ("poles", 'ratio_bounds="x"', "TypeError",
         "ratio_bounds must be an object, got 'x'"),
        ("poles", "k_p_0=0.1", "KeyError",
         "override 'k_p_0': vscs has 2 VSCs, counted from 1 to 2; "
         "no VSC '0'"),
        ("poles", "tau_kd_3=0.02", "KeyError",
         "override 'tau_kd_3': vscs has 2 VSCs, counted from 1 to 2; "
         "no VSC '3'"),
    ], ids=["k_p-nan", "k_p_2-nan", "h_s-nan", "k_d-list", "h_s-bool",
            "r_virtual-negative", "r_dc-negative", "t_end_s-bool",
            "dt_s-string", "delta_p_l_pu-bool", "segment-length-negative",
            "dc-edge-length-zero", "segment-cable-unknown",
            "dc-edge-cable-unknown", "node-kind-unknown",
            "virtual-at-other-vsc", "virtual-at-non-vsc", "values-int",
            "values-object", "parameter-int", "step-input-unknown",
            "spectrum-channel-unknown", "bode-output-unknown",
            "ac-edges-int", "dc-edges-null", "vscs-string", "pv-false",
            "pv-empty", "ratio-bounds-zero", "ratio-bounds-string",
            "k_p_0", "tau_kd_3"])
    def test_bad_value_is_named_exit_1(self, tmp_path, capsys, command, item,
                                       error, message):
        # a value of the wrong type or range, or a name the model lacks, is
        # named where it is read: it neither fails deep in a kernel (exit
        # 2, or exit 1 naming nothing) nor is read as 1 or parsed (exit 0)
        channel = {"input": "p_load_load1", "output": "omega_vsc1"}
        options = {"poles": {}, "steady": {"delta_p_l_pu": 1.0},
                   "step": {"input": "p_load_load1", "t_end_s": 1.0},
                   "bode": channel,
                   "sweep": {"parameter": "k_d", "values": [0.005],
                             **channel},
                   "spectrum": {"input": "p_load_load1",
                                "channel": "omega_vsc1"}}
        cfg = write_config(tmp_path, {"scenario": "lvdc_async",
                                      "options": options[command]})
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out),
                     "--set", item]) == 1
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["error.json"]
        record = json.loads((out / "error.json").read_text())
        assert (record["error"], record["message"]) == (error, message)

    @pytest.mark.parametrize("content, value, error, message", [
        (None, "{path}", "ParseError",
         "cannot read cable_catalog '{path}': No such file or directory"),
        ("{not json", "{path}", "ParseError",
         "invalid JSON in cable_catalog '{path}' at line 1, column 2: "
         "Expecting property name enclosed in double quotes"),
        ("[1]", "{path}", "ValueError",
         "cable_catalog '{path}' must be a JSON object with a 'cables' "
         "object"),
        ('{"cables": [1]}', "{path}", "ValueError",
         "cable_catalog '{path}' must be a JSON object with a 'cables' "
         "object"),
        (None, "true", "TypeError",
         "cable_catalog must be a path string, got True"),
        (None, "5", "TypeError", "cable_catalog must be a path string, got 5"),
        (None, "{}", "TypeError",
         "cable_catalog must be a path string, got {}"),
        ('{"cables": {"NAYY 4x240": {"x_ohm_per_km": 0.08}}}', "{path}",
         "TypeError", "cable_catalog '{path}': cables.NAYY 4x240.r_ohm_per_km "
         "must be a real number, got None"),
        ('{"cables": {"NAYY 4x35": {"r_ohm_per_km": "0.868", '
         '"x_ohm_per_km": 0.083}}}', "{path}", "TypeError",
         "cable_catalog '{path}': cables.NAYY 4x35.r_ohm_per_km must be a "
         "real number, got '0.868'"),
        ('{"cables": {"NAYY 4x35": {"r_ohm_per_km": 0.868, '
         '"x_ohm_per_km": 0}}}', "{path}", "ValueError",
         "cable_catalog '{path}': cables.NAYY 4x35.x_ohm_per_km must be "
         "finite and positive, got 0"),
        ('{"cables": {"NAYY 4x35": 0.868}}', "{path}", "TypeError",
         "cable_catalog '{path}': cables.NAYY 4x35 must be an object, "
         "got 0.868"),
    ], ids=["missing", "invalid-json", "list", "cables-list", "bool", "int",
            "object", "entry-no-r", "entry-string-r", "entry-zero-x",
            "entry-not-object"])
    def test_bad_cable_catalog_exit_1(self, tmp_path, capsys, content, value,
                                      error, message):
        # a catalog that is not a readable JSON file of a 'cables' object,
        # or has a bad entry, is named with its path (and the entry's field):
        # no traceback, no file descriptor opened
        path = tmp_path / "cables.json"
        if content is not None:
            path.write_text(content)
        value, message = (x.replace("{path}", str(path))
                          for x in (value, message))
        cfg = write_config(tmp_path, {"scenario": "islanded_pv"})
        out = tmp_path / "o"
        assert main(["poles", "--config", cfg, "--out", str(out),
                     "--set", f"cable_catalog={value}"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(p.name for p in out.iterdir()) == ["error.json"]
        record = json.loads((out / "error.json").read_text())
        assert (record["error"], record["message"]) == (error, message)

    def test_misspelt_scenario_key_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"scenario": "islanded_pv"})
        out = tmp_path / "o"
        assert main(["poles", "--config", cfg, "--out", str(out),
                     "--set", "vscs.0.c_dcf=0.1"]) == 1
        assert "c_dcf" in capsys.readouterr().err
        assert not (out / "poles.csv").exists()

    def test_malformed_set(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"scenario": "islanded_pv"})
        assert main(["poles", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--set", "nonsense"]) == 1


class TestErrorTaxonomy:
    def test_every_error_has_one_exit_code(self):
        # exit 2 for NumericFailure, exit 1 for ValueError: a class under
        # neither (or both) would end in a traceback (or be misreported)
        classes = set()
        for info in pkgutil.walk_packages(acdcdyn.__path__, "acdcdyn."):
            module = importlib.import_module(info.name)
            classes |= {c for c in vars(module).values()
                        if isinstance(c, type) and issubclass(c, Exception)
                        and not issubclass(c, Warning)
                        and c.__module__ == info.name}
        assert {c.__name__ for c in classes} >= {
            "NumericFailure", "PoleHit", "NoDroop", "NoInteriorPeak",
            "ImproperController", "ParseError"}
        for c in classes:
            assert issubclass(c, NumericFailure) != issubclass(c, ValueError), c


def _fmt_reference(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.9g" % float(x)


def _quote_reference(text: str) -> str:
    # RFC 4180: a field with a comma, quote, CR or LF goes in quotes, and
    # each quote in it is doubled
    if set(text) & set(',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv_reference(path, header, rows):
    """The per-cell writer: one formatted cell at a time."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(map(_quote_reference, header)) + "\n")
        for row in rows:
            f.write(",".join(_fmt_reference(x) if not isinstance(x, str)
                             else _quote_reference(x) for x in row) + "\n")


def assert_same_bytes_as_reference(tmp_path, columns):
    header = [f"c{j}" for j in range(len(columns))]
    _write_csv(tmp_path / "new.csv", header, columns)
    write_csv_reference(tmp_path / "ref.csv", header, zip(*columns))
    assert (tmp_path / "new.csv").read_bytes() == \
        (tmp_path / "ref.csv").read_bytes()


class TestCsvWriter:
    def test_column_kinds_match_per_cell_writer(self, tmp_path):
        n = 2 * _CSV_BLOCK_ROWS + 3
        rng = np.random.default_rng(0)
        floats = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        floats[:6] = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324]
        ints = rng.integers(-10**12, 10**12, n)
        bools = rng.random(n) < 0.5
        strs = [f"s{i}" for i in range(n)]
        mixed = [[True, "", 1.5, 3, "x", np.float64(-0.0), np.int64(4),
                  np.bool_(False), math.nan][i % 9] for i in range(n)]
        assert_same_bytes_as_reference(
            tmp_path, [floats, ints, bools, strs, mixed, floats.tolist(),
                       ints.tolist(), bools.tolist(),
                       rng.standard_normal(n).astype(np.float32)])

    def test_empty_table_writes_header(self, tmp_path):
        assert_same_bytes_as_reference(tmp_path, [np.zeros(0), []])
        _write_csv(tmp_path / "none.csv", ["re", "im"], zip(*[]))
        assert (tmp_path / "none.csv").read_text() == "re,im\n"

    @staticmethod
    def ulp_neighbours(values):
        values = np.asarray(values, dtype=np.float64)
        return np.concatenate([values, np.nextafter(values, np.inf),
                               np.nextafter(values, -np.inf)])

    def test_decimal_ties_at_the_ninth_digit(self, tmp_path):
        # each value is exact in binary and has a 5 after its 9th digit,
        # so %g rounds half to even; its neighbours round one way
        q = np.array([100000000, 123456788, 123456789, 987654321,
                      999999998, 999999999])
        ties = [q + 0.5, (10 * q + 5) * 10.0, (10 * q + 5) * 1e5,
                (q + 0.5) / 1024]
        values = self.ulp_neighbours(np.concatenate(ties))
        assert_same_bytes_as_reference(tmp_path, [values, -values])

    def test_doubles_nearest_decimal_ties(self, tmp_path):
        # not ties in binary, but |x| * 10**(8 - e) rounds onto a half:
        # only the exact value says which way %g rounds
        rng = np.random.default_rng(2)
        near = [float(f"{q}5e{x}") for q, x in zip(
            rng.integers(10**8, 10**9, 3000), rng.integers(-40, 30, 3000))]
        near += [56379300.45, 4.676258845e-23, 1.407476745e-30,
                 9.992585035e-19, 3.110591815e-14, 4.914527965e-15]
        values = np.array(near)
        assert_same_bytes_as_reference(tmp_path, [values, -values])

    def test_rounding_that_carries_into_the_next_power(self, tmp_path):
        values = self.ulp_neighbours(
            [9.9999999995, 999999999.5, 99999999.95, 9.9999999995e-20,
             9.9999999995e20, 0.99999999995, 9.999999999e-5])
        assert_same_bytes_as_reference(tmp_path, [values, -values])

    def test_both_g_switch_points(self, tmp_path):
        # %g turns scientific below 1e-4 and from 1e9, after rounding
        values = self.ulp_neighbours(
            [1e-4, 9.99999999949e-5, 9.99999999951e-5, 1e-5, 1e9,
             999999999.4, 999999999.6, 1e8, 123456789.0, 1.0, 0.1])
        assert_same_bytes_as_reference(tmp_path, [values, -values])

    def test_extreme_and_special_values(self, tmp_path):
        values = np.array([
            1.5e-100, -1.23456789e-100, 1e300, -2.5e123, 1e-45, 3.4e38,
            1e39, 1.7976931348623157e308, 2.2250738585072014e-308,
            2.2250738585072e-310, 5e-324, -5e-324, 0.0, -0.0, math.nan,
            math.inf, -math.inf])
        assert_same_bytes_as_reference(tmp_path, [values, values[::-1]])
        _write_csv(tmp_path / "one.csv", ["x"], [values[1:2]])
        assert (tmp_path / "one.csv").read_text() == "x\n-1.23456789e-100\n"

    def test_float32_and_python_float_columns(self, tmp_path):
        rng = np.random.default_rng(1)
        wide = rng.standard_normal(300) * 10.0 ** rng.integers(-40, 40, 300)
        with np.errstate(over="ignore"):    # to inf in float16 and float32
            narrow = [wide.astype(np.float32), wide.astype(np.float16)]
        assert_same_bytes_as_reference(tmp_path, [
            *narrow, wide.tolist(), [float(v) for v in narrow[0]]])

    @pytest.mark.parametrize("n", [_CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS,
                                   _CSV_BLOCK_ROWS + 1])
    def test_all_nan_column_at_block_edges(self, tmp_path, n):
        t = np.arange(n) * 1e-3
        assert_same_bytes_as_reference(tmp_path, [
            t, np.full(n, math.nan), -t, np.zeros(n)])

    def test_text_cells_of_any_width(self, tmp_path):
        # text slots grow by whole words; a NUL in a text stays
        texts = ["", "a", "seven77", "eight888", "x" * 40, "a\0b", "\0",
                 "µs ünïcode"]
        n = len(texts)
        assert_same_bytes_as_reference(tmp_path, [
            texts, np.arange(n) * 10**17, np.arange(n) % 2 == 0,
            np.linspace(-1, 1, n)])

    def test_text_that_needs_quotes_reads_back(self, tmp_path):
        texts = ["a,b", 'say "hi"', '"', ",", "x\ny", "x\r\ny", "\r", "",
                 "plain", '""', "a\0,b"]
        header = ["t,ext", 'q"uote', "new\nline", "x"]
        columns = [texts, texts[::-1], np.arange(len(texts)) * 0.5,
                   np.arange(len(texts))]
        _write_csv(tmp_path / "new.csv", header, columns)
        write_csv_reference(tmp_path / "ref.csv", header, zip(*columns))
        assert (tmp_path / "new.csv").read_bytes() == \
            (tmp_path / "ref.csv").read_bytes()
        with open(tmp_path / "new.csv", newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))
        assert rows[0] == header
        assert [r[0] for r in rows[1:]] == texts
        assert [r[1] for r in rows[1:]] == texts[::-1]
        assert all(len(r) == len(header) for r in rows)

    def test_blocks_bound_the_kernel(self, tmp_path, monkeypatch):
        sizes = []
        kernel = acdcdyn.cli._float_words

        def spy(x):
            sizes.append(x.size)
            return kernel(x)
        monkeypatch.setattr(acdcdyn.cli, "_float_words", spy)
        n = 3 * _CSV_BLOCK_ROWS + 5
        _write_csv(tmp_path / "b.csv", ["a", "b", "c"],
                   [np.ones(n), [1.5] * n, np.arange(n)])
        assert sizes == [3 * _CSV_BLOCK_ROWS] * 3 + [15]

    def test_tables_are_read_only(self):
        tables = acdcdyn.cli._csv_tables()
        arrays = [a for a in vars(tables).values()
                  if isinstance(a, np.ndarray)]
        assert len(arrays) >= 8
        assert not any(a.flags.writeable for a in arrays)

    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True),
                    max_size=40),
           st.sampled_from([np.float64, np.float32]))
    @settings(max_examples=200, deadline=None)
    def test_float_array_matches_per_cell_writer(self, values, dtype):
        with np.errstate(over="ignore"):
            column = np.array(values, dtype=dtype)
        with tempfile.TemporaryDirectory() as d:
            assert_same_bytes_as_reference(Path(d), [column, -column])

    @given(st.lists(st.tuples(
        st.floats(allow_nan=True, allow_infinity=True),
        st.one_of(st.booleans(), st.integers(), st.text(
            alphabet='abc ,"\r\n', max_size=3)),
        st.one_of(st.floats(), st.just(""))), max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_rows_match_per_cell_writer(self, rows):
        columns = [list(c) for c in zip(*rows)] or [[], [], []]
        with tempfile.TemporaryDirectory() as d:
            assert_same_bytes_as_reference(Path(d), columns)


class TestImports:
    @pytest.mark.parametrize("command, scenario, options", [
        ("poles", "islanded_pv", {}),
        ("bode", "islanded_pv", {"input": "p_load_load1",
                                 "output": "omega_vsc1", "points": 20}),
        ("steady", "islanded_pv", {"delta_p_l_pu": 1.0}),
        ("sweep", "islanded_pv", {"parameter": "k_d_1",
                                  "values": [0.001, 0.002],
                                  "input": "p_load_load1",
                                  "output": "omega_vsc1"}),
        ("step", "parallel_ac_dc", {"input": "p_load_load1",
                                    "t_end_s": 1.0, "dt_s": 0.001}),
        ("spectrum", "islanded_pv", {"input": "p_load_load1",
                                     "channel": "omega_vsc1",
                                     "t_end_s": 2.0}),
        ("check", "lvdc_async", {}),
        ("check", "parallel_ac_dc", {}),
    ], ids=["poles", "bode", "steady", "sweep", "step", "spectrum",
            "check-lvdc", "check-parallel"])
    def test_command_never_imports_scipy(self, tmp_path, command, scenario,
                                         options):
        cfg = write_config(tmp_path, {"scenario": scenario,
                                      "options": options})
        # nor numpy.random, which NumPy loads only on first use
        probe = ("import sys, acdcdyn.cli\n"
                 "loaded = lambda: sorted(m for m in sys.modules\n"
                 "                        if m.split('.')[0] == 'scipy'\n"
                 "                        or m.startswith('numpy.random'))\n"
                 "assert not loaded(), loaded()\n"
                 "assert acdcdyn.cli.main(sys.argv[1:]) == 0\n"
                 "assert not loaded(), loaded()\n")
        src = str(Path(acdcdyn.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", probe, command, "--config", cfg,
             "--out", str(tmp_path / "o")],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_csv_tables_wait_for_the_first_write(self, tmp_path):
        # and the write imports no module (np.unique would load numpy.ma)
        probe = ("import sys, math, numpy as np, acdcdyn.cli as cli\n"
                 "assert cli._csv_tables.cache_info().currsize == 0\n"
                 "loaded = set(sys.modules)\n"
                 "x = np.array([1.5, math.nan, -1e-300, 0.0, 9.9999999995])\n"
                 "cli._write_csv(sys.argv[1], list('abcd'),\n"
                 "               [x, list('xyz\\0w'), x > 1, x.tolist()])\n"
                 "assert cli._csv_tables.cache_info().currsize == 1\n"
                 "new = set(sys.modules) - loaded\n"
                 "assert not new, new\n")
        src = str(Path(acdcdyn.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", probe, str(tmp_path / "x.csv")],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_no_module_draws_random_numbers(self):
        package = Path(acdcdyn.__file__).resolve().parent
        found = [path.name for path in sorted(package.rglob("*.py"))
                 if any(word in path.read_text() for word in (
                     "numpy.random", "np.random", "default_rng"))]
        assert not found, found

    def test_no_module_imports_scipy(self):
        package = Path(acdcdyn.__file__).resolve().parent
        modules = sorted(package.rglob("*.py"))
        assert len(modules) >= 7
        found = []
        for path in modules:
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                found += [f"{path.name}:{node.lineno} {name}"
                          for name in names if name.split(".")[0] == "scipy"]
        assert not found, found
