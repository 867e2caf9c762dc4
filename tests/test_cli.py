"""Config parsing and command-line behavior."""

import math
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kljnsim
from kljnsim import cli, montecarlo, protocol
from kljnsim.cli import RunConfig, _leaves, cmd_tables, cmd_waveforms, main, parse_config
from kljnsim.montecarlo import validate_steady_state
from kljnsim.protocol import PhysicalConfig

FAST_CFG = """
# compact setup for command tests
scenarios = 1,2
tau_multipliers = 1,2,3,4
n_trials = 6
n_cal = 50
record_len = 65536
master_seed = 9
"""


# effective_config.txt of the default configuration: key order and formatting
# are part of the output format
DEFAULT_TEXT = """\
r_h = 11000
r_l = 2000
z0 = 50
temperature = 7e+15
bandwidth = 5000
t_f = 1e-05
dt_divisor = 100
scenarios = 1,2,3,4
tau_multipliers = 1,2,3,4
n_trials = 1000
n_cal = 200
master_seed = 1
record_len = 1048576
value_tol = 0.001
slope_tol = 0.01
s3_value_fraction = 0.5
steady_duration = 6.4
jobs = 1
out_dir = out
"""

# one non-default value per key, written as to_text writes it
NON_DEFAULT = {
    "r_h": "12000", "r_l": "3000", "z0": "75", "temperature": "3e+15", "bandwidth": "4000",
    "t_f": "2e-05", "dt_divisor": "50", "scenarios": "2,4", "tau_multipliers": "1,3",
    "n_trials": "7", "n_cal": "60", "master_seed": "5", "record_len": "65536",
    "value_tol": "0.002", "slope_tol": "0.02", "s3_value_fraction": "0.25",
    "steady_duration": "1.5", "jobs": "2", "out_dir": "elsewhere",
}


# out_dir values that effective_config.txt echoes exactly, and values it
# could not: a '#' starts a comment, surrounding whitespace is stripped, and
# a line break splits the line
ECHOABLE_OUT_DIRS = ["runs/a=b", "runs/a b", "runs/\u00e4", ""]
UNECHOABLE_OUT_DIRS = ["runs/a#b", " runs", "runs ", "runs\t", "a\nb", "a\rb", "a\u2028b"]


# One-key configs: every RunConfig leaf but jobs, scenarios and out_dir, at
# each of these values, over a base config that plans small runs.
GRID_KEYS = [key for key, _, _ in _leaves(RunConfig()) if key not in ("jobs", "scenarios",
                                                                       "out_dir")]
GRID_VALUES = ["0", "-1", "1e-300", "1e300", "nan", "inf", "1.5", "3", str(10**12), "9e15", ""]
GRID_BASE = "n_cal = 50\nn_trials = 2\nrecord_len = 65536\nsteady_duration = 0.2097152\n"
# The search keys, at the grid's values that every planner accepts for them.
SEARCH_KEYS = ["value_tol", "slope_tol", "s3_value_fraction"]
SEARCH_VALUES = ["1e-300", "1e300", "1.5", "3", str(10**12), "9e15"]


class _Planned(Exception):
    """Raised in place of a command's work once its plan has passed."""


def _write(tmp_path, text):
    path = tmp_path / "conf.cfg"
    path.write_text(text)
    return str(path)


class TestParseConfig:
    def test_empty_text_gives_demonstration_defaults(self):
        cfg = parse_config("")
        p = cfg.physical
        assert (p.r_h, p.r_l, p.z0) == (11e3, 2e3, 50.0)
        assert (p.temperature, p.bandwidth, p.fly_time) == (7e15, 5e3, 1e-5)
        assert cfg.n_trials == 1000 and cfg.n_cal == 200
        assert cfg.scenarios == (1, 2, 3, 4)

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# a comment\n\nr_h = 12e3  # inline\n")
        assert cfg.physical.r_h == 12e3

    def test_dt_divisor_arithmetic(self):
        cfg = parse_config("dt_divisor = 100")
        assert cfg.physical.dt == pytest.approx(1e-7, rel=1e-15)

    def test_unknown_key_named_in_error(self):
        with pytest.raises(ValueError, match="unknown config key: 'r_x'"):
            parse_config("r_x = 5")

    def test_bad_value_names_key(self):
        with pytest.raises(ValueError, match="n_trials"):
            parse_config("n_trials = many")

    def test_equal_resistors_rejected(self):
        with pytest.raises(ValueError, match="r_h"):
            parse_config("r_h = 2e3\nr_l = 2e3")

    def test_non_positive_z0_rejected(self):
        with pytest.raises(ValueError, match="z0"):
            parse_config("z0 = -50")

    def test_malformed_line(self):
        with pytest.raises(ValueError, match="key = value"):
            parse_config("this is not a config line")

    def test_round_trip_through_to_text(self):
        cfg = parse_config(FAST_CFG)
        assert parse_config(cfg.to_text()) == cfg
        for out_dir in ECHOABLE_OUT_DIRS:
            echoed = replace(cfg, out_dir=out_dir)
            assert parse_config(echoed.to_text()) == echoed
        for out_dir in UNECHOABLE_OUT_DIRS:
            with pytest.raises(ValueError, match="would not read back from effective_config"):
                replace(cfg, out_dir=out_dir)

    @settings(max_examples=400, deadline=None)
    @given(out_dir=st.text(max_size=12))
    def test_every_accepted_out_dir_round_trips(self, out_dir):
        try:
            cfg = RunConfig(out_dir=out_dir)
        except ValueError as exc:
            assert "out_dir" in str(exc)
        else:
            assert parse_config(cfg.to_text()) == cfg

    def test_record_len_above_cap_names_it(self):
        with pytest.raises(ValueError, match=r"invalid configuration: record_len must be in "
                                             r"\[2, 16777216 = 2\^24\], got 17179869184"):
            parse_config("record_len = 17179869184")

    def test_default_text_is_pinned(self):
        assert RunConfig().to_text() == DEFAULT_TEXT

    @pytest.mark.parametrize("key", list(NON_DEFAULT))
    def test_each_key_round_trips(self, key):
        line = f"{key} = {NON_DEFAULT[key]}"
        cfg = parse_config(line)
        expected = [line if old.startswith(f"{key} = ") else old
                    for old in DEFAULT_TEXT.splitlines()]
        assert cfg.to_text().splitlines() == expected
        assert parse_config(cfg.to_text()) == cfg

    def test_all_keys_at_once_round_trip(self):
        text = "".join(f"{key} = {value}\n" for key, value in NON_DEFAULT.items())
        cfg = parse_config(text)
        assert cfg.to_text() == text
        assert cfg.physical.fly_time == 2e-5 and cfg.physical.dt_divisor == 50
        assert cfg.search.record_len == 65536 and cfg.search.s3_value_fraction == 0.25
        assert cfg.scenarios == (2, 4) and cfg.out_dir == "elsewhere"

    @pytest.mark.parametrize("key, named", [
        ("r_h", "r_h"), ("r_l", "r_l"), ("z0", "z0"), ("temperature", "temperature"),
        ("bandwidth", "bandwidth"), ("t_f", "fly_time"), ("value_tol", "value_tol"),
        ("slope_tol", "slope_tol"), ("s3_value_fraction", "s3_value_fraction"),
        ("steady_duration", "steady_duration"),
    ])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, key, named, value):
        with pytest.raises(ValueError, match=f"invalid configuration: {named} must be finite"):
            parse_config(f"{key} = {value}")

    def test_negative_master_seed_rejected(self):
        with pytest.raises(ValueError, match="master_seed must be >= 0, got -1"):
            parse_config("master_seed = -1")

    @settings(max_examples=400, deadline=None)
    @given(key=st.sampled_from([line.split(" = ")[0] for line in DEFAULT_TEXT.splitlines()]),
           value=st.one_of(
               # anything on one line, and values at the edges of the checks
               st.text(st.characters(blacklist_categories=("Cc", "Zl", "Zp", "Cs")),
                       max_size=12),
               st.integers().map(str),
               st.integers(-2, 2).map(lambda e: str(10 ** 400 * e)),
               st.floats().map(repr),
               st.lists(st.integers(-3, 6), max_size=4).map(
                   lambda xs: ",".join(map(str, xs))),
               st.sampled_from(["", "true", "no", "1e400", "-0", "0x10", "1_000"]),
           ))
    def test_fuzz_parses_or_names_the_key(self, key, value):
        try:
            cfg = parse_config(f"{key} = {value}")
        except ValueError as exc:
            assert key in str(exc) or (key == "t_f" and "fly_time" in str(exc))
        else:
            assert all(type(m) is int and m >= 1 for m in cfg.tau_multipliers)

    @settings(max_examples=400, deadline=None)
    @given(key=st.sampled_from([key for key, _, value in _leaves(RunConfig())
                                if isinstance(value, float)]),
           value=st.floats(allow_nan=False, allow_infinity=False))
    def test_float_keys_round_trip_exactly(self, key, value):
        # effective_config.txt must reproduce the run bit for bit
        try:
            cfg = parse_config(f"{key} = {value!r}")
        except ValueError:
            return
        assert parse_config(cfg.to_text()) == cfg

    @pytest.mark.parametrize("key", ["zero_value_tol", "s3_value_tol", "random_state"])
    def test_removed_keys_are_unknown(self, key):
        with pytest.raises(ValueError, match=f"unknown config key: '{key}'"):
            parse_config(f"{key} = 0.001")

    def test_out_dir_key(self, tmp_path):
        cfg = parse_config(f"out_dir = {tmp_path}/from_key\n" + FAST_CFG + "scenarios = 1\n")
        assert main(["tables", "--config", _write(tmp_path, cfg.to_text())]) == 0
        assert (tmp_path / "from_key" / "scenario_1.csv").exists()


class TestCmdTables:
    def test_writes_one_csv_per_scenario(self, tmp_path):
        cfg = parse_config(FAST_CFG)
        paths = cmd_tables(replace(cfg, out_dir=str(tmp_path)))
        assert [p.name for p in paths] == ["scenario_1.csv", "scenario_2.csv"]
        for p in paths:
            lines = p.read_text().splitlines()
            assert lines[0] == "scenario,tau_s,p_ev,se_v,p_ei,se_i,n,loosened_fraction"
            assert len(lines) == 5
        assert (tmp_path / "effective_config.txt").exists()

    def test_repeat_run_is_byte_identical(self, tmp_path):
        cfg = parse_config(FAST_CFG)
        first = cmd_tables(replace(cfg, out_dir=str(tmp_path / "a")))
        second = cmd_tables(replace(cfg, out_dir=str(tmp_path / "b")))
        for p1, p2 in zip(first, second):
            assert p1.read_bytes() == p2.read_bytes()

    def test_single_scenario_config(self, tmp_path):
        cfg = parse_config(FAST_CFG + "scenarios = 1\n")
        paths = cmd_tables(replace(cfg, out_dir=str(tmp_path)))
        assert len(paths) == 1

    def test_tau_column_is_multiplier_times_fly_time(self, tmp_path):
        # a fly time and grid with no short decimal form: tau_s is m * t_f
        t_f = 1.23456789e-05
        cfg = parse_config(FAST_CFG + f"scenarios = 1\nt_f = {t_f!r}\ndt_divisor = 37\n")
        (path,) = cmd_tables(replace(cfg, out_dir=str(tmp_path)))
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert [row[1] for row in rows] == [f"{m * t_f:.6g}" for m in (1, 2, 3, 4)]


class TestCmdWaveforms:
    def test_dump_columns_and_length(self, tmp_path):
        cfg = parse_config(FAST_CFG)
        path = cmd_waveforms(replace(cfg, out_dir=str(tmp_path)), 1)
        lines = path.read_text().splitlines()
        assert lines[0].split("\t") == ["time_s", "ugen_a", "ugen_b", "v_a", "v_b", "i_a", "i_b"]
        assert len(lines) == 1 + 2 * cfg.physical.dt_divisor

    def test_no_defense_dump_has_arrival_jump(self, tmp_path):
        cfg = parse_config(FAST_CFG)
        path = cmd_waveforms(replace(cfg, out_dir=str(tmp_path)), 1)
        data = np.loadtxt(path, skiprows=1)
        steps = np.abs(np.diff(data[:, 3]))
        arrival = steps[cfg.physical.dt_divisor - 1]
        assert arrival > 10.0 * np.median(steps)

    def test_full_defense_dump_has_no_arrival_jump(self, tmp_path):
        cfg = parse_config("n_cal = 50\nmaster_seed = 9\nrecord_len = 262144")
        path = cmd_waveforms(replace(cfg, out_dir=str(tmp_path)), 4)
        data = np.loadtxt(path, skiprows=1)
        steps = np.abs(np.diff(data[:, 3]))
        arrival = steps[cfg.physical.dt_divisor - 1]
        assert arrival <= 10.0 * np.median(steps)


class TestMain:
    @pytest.mark.parametrize("command", ["tables", "waveforms"])
    def test_scenario_choices_print_as_numbers(self, capsys, command):
        # numbers, not enum member names, in the help, the error and the echo
        with pytest.raises(SystemExit) as info:
            main([command, "--help"])
        assert info.value.code == 0
        assert "--scenario {1,2,3,4}" in capsys.readouterr().out
        with pytest.raises(SystemExit) as info:
            main([command, "--scenario", "5"])
        assert info.value.code == 2
        assert "invalid choice: 5 (choose from 1, 2, 3, 4)" in capsys.readouterr().err
        assert "scenarios = 1,2,3,4\n" in RunConfig().to_text()

    def test_tables_exit_zero(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(FAST_CFG + "scenarios = 1\n")
        rc = main(["tables", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "scenario_1.csv").exists()

    def test_flag_overrides_config_and_is_echoed(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(FAST_CFG + "scenarios = 1\n")
        out = tmp_path / "out"
        rc = main(["tables", "--config", str(cfg_file), "--seed", "123",
                   "--trials", "4", "--out", str(out)])
        assert rc == 0
        echoed = (out / "effective_config.txt").read_text()
        assert "master_seed = 123" in echoed
        assert "n_trials = 4" in echoed

    def test_config_error_exit_two(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("z0 = 0\n")
        rc = main(["validate", "--config", str(cfg_file)])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["tables"], ["waveforms", "--scenario", "1"],
                                         ["validate"]])
    def test_negative_seed_exit_two_before_writing(self, tmp_path, capsys, command):
        rc = main(command + ["--seed", "-1", "--out", str(tmp_path)])
        assert rc == 2
        assert "master_seed must be >= 0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", [["tables"], ["waveforms", "--scenario", "1"],
                                         ["validate"]])
    @pytest.mark.parametrize("physical", [
        "temperature = 1e-310\n",  # 4kTRB underflows: sigma_L = sigma_H = 0
        "temperature = 1e300\nr_h = 1e300\n",  # 4kTRB overflows: sigma_H = inf
        "temperature = 1e-300\n",  # 4kTRB = sigma_L^2 = 5.5e-316 is subnormal
    ], ids=["zero_sigma", "infinite_sigma", "subnormal_square"])
    def test_degenerate_johnson_rms_exit_two_before_writing(self, tmp_path, capsys, command,
                                                             physical):
        out = tmp_path / "out"
        rc = main(command + ["--config", _write(tmp_path, physical), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "configuration error" in err and "Traceback" not in err
        assert "temperature" in err and "bandwidth" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["tables", "--scenario", "1"],
                                         ["waveforms", "--scenario", "1"], ["validate"]])
    @pytest.mark.parametrize("z0, message", [
        # the wire current squares underflow: tables wrote p_ev 0.7667 and
        # p_ei 0.4667 at tau = t_f on the reduced config, which v = z0*i
        # would make equal
        ("1e300", "wire current sigma/(r + z0) of 1.97e-300 A"),
        # the wire voltage squares underflow: p_ev 0.4667, p_ei 0.8333
        ("1e-300", "voltage sigma*z0/(r + z0) of 9.83e-304 V"),
    ], ids=["huge_z0", "tiny_z0"])
    def test_degenerate_wire_scale_exit_two_before_writing(self, tmp_path, capsys, command, z0,
                                                           message):
        out = tmp_path / "out"
        config = _write(tmp_path, "n_cal = 50\nn_trials = 30\nrecord_len = 65536\n"
                                  f"z0 = {z0}\n")
        rc = main(command + ["--config", config, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert message in err and "both squares must be normal floats" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("physical, message", [
        # sigma_H = 4.4e148 is finite, but the ideal-line reference overflows
        ("r_h = 1e300\n", "steady state of resistances (1e+300, 2000.0) and z0 50.0 overflows"),
        ("bandwidth = 1e15\n", "is not below the Nyquist frequency"),
        # the wire voltage of a generator alone underflows to 0
        ("z0 = 1e-300\n", "voltage sigma*z0/(r + z0) of 9.83e-304 V; both squares must be normal"),
        # the levels are normal, but the standard errors, which sum their
        # squares, would underflow to 0
        ("temperature = 1e-150\n", "must both have normal squares"),
        # G_H*G_L = 1 - 2.6e-8: the line settles in 769 s, not in a quarter
        # segment of 0.05 s (with the discard window cut to a quarter
        # segment, <i^2> read rel dev +1.2667 at 6.4 s and validate exited 1)
        ("z0 = 1e12\n", "the line settles in 769 s, so the discard window of 30 settle times, "
                        "2.31e+11 samples, is longer than a quarter segment, 524288 samples"),
        # both ends reflect fully (G = 1 in floating point), and bin 8 of a
        # segment is a line resonance, where the settled response would be
        # 0/0; the line never settles, which the settle bound refuses first
        ("z0 = 1e-14\nt_f = 1e-3\ndt_divisor = 131072\n",
         "the line settles in 2e+09 s, so the discard window of 30 settle times, 7.86e+18 "
         "samples, is longer than a quarter segment, 524288 samples"),
    ], ids=["huge_resistor", "band_above_nyquist", "tiny_z0", "tiny_levels", "slow_settling",
            "resonance"])
    def test_validate_unusable_reference_exit_two_before_writing(self, tmp_path, capsys,
                                                                  physical, message):
        out = tmp_path / "out"
        t0 = time.perf_counter()
        rc = main(["validate", "--config", _write(tmp_path, physical), "--out", str(out)])
        elapsed = time.perf_counter() - t0
        err = capsys.readouterr().err
        assert rc == 2 and elapsed < 1.0
        assert "configuration error" in err and message in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("out", UNECHOABLE_OUT_DIRS)
    def test_unechoable_out_exit_two_before_writing(self, tmp_path, monkeypatch, capsys, out):
        monkeypatch.chdir(tmp_path)
        rc = main(["validate", "--out", out])
        err = capsys.readouterr().err
        assert rc == 2
        assert "would not read back" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_huge_record_len_exit_two_before_writing(self, tmp_path, monkeypatch, capsys):
        # 2^34 samples would need tens of GiB; the cap rejects it before any synthesis
        def no_synthesis(*args, **kwargs):
            raise AssertionError("synthesized a record")
        for name in ("draw_spectrum", "synthesize_record"):
            monkeypatch.setattr(protocol, name, no_synthesis)
        out = tmp_path / "out"
        t0 = time.perf_counter()
        rc = main(["tables", "--scenario", "1", "--config",
                   _write(tmp_path, "record_len = 17179869184\n"), "--out", str(out)])
        elapsed = time.perf_counter() - t0
        err = capsys.readouterr().err
        assert rc == 2 and elapsed < 1.0
        assert "record_len must be in [2, 16777216 = 2^24], got 17179869184" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_validate_writes_the_library_report(self, tmp_path, capsys):
        # one segment of 2^21 samples per state
        rc = main(["validate", "--duration", "0.2097152", "--out", str(tmp_path)])
        report = validate_steady_state(PhysicalConfig(), 0.2097152, 1)
        text = report.render() + "\n"
        assert (tmp_path / "validation.txt").read_text() == text
        assert capsys.readouterr().out == text
        assert rc == (0 if report.all_ok else 1)

    def test_validate_fails_a_perturbed_settled_wave(self, tmp_path, monkeypatch, capsys):
        # One sample of v_a after the discard window, at position 1 of the
        # engine's 100-sample blocks and of the 128-sample search grid: only
        # the grid shifted by one sample meets it.
        sample = 128 * 1000 + 1
        propagate = montecarlo._propagate

        def perturbed(*args):
            v_a, v_b, i_a, i_b = propagate(*args)
            v_a[sample] += 1e-9
            return v_a, v_b, i_a, i_b

        monkeypatch.setattr(montecarlo, "_propagate", perturbed)
        rc = main(["validate", "--duration", "0.2097152", "--out", str(tmp_path)])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 1
        assert lines[1].startswith("  step response vs bounce-diagram oracle:")
        assert lines[1].endswith("[pass]")
        assert lines[2].startswith("  settled waves vs periodic steady state: worst rel err 1.")
        assert lines[2].endswith("e-09 (limit 1e-12) [FAIL]")
        assert lines[-1] == "overall: FAIL"

    def test_missing_config_file_exit_two(self, tmp_path):
        rc = main(["tables", "--config", str(tmp_path / "nope.cfg")])
        assert rc == 2

    def test_validate_short_duration_names_minimum(self, tmp_path, capsys):
        rc = main(["validate", "--duration", "0.05", "--out", str(tmp_path)])
        assert rc == 2
        assert "0.2" in capsys.readouterr().err

    def test_validate_infinite_duration_exit_two(self, tmp_path, capsys):
        rc = main(["validate", "--duration", "inf", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "steady_duration must be finite" in err and "Traceback" not in err

    def test_validate_huge_duration_exit_two_at_once(self, tmp_path, capsys):
        # 1e9 s would plan 4.77e9 segments of 2^21 samples per state
        t0 = time.perf_counter()
        rc = main(["validate", "--duration", "1e9", "--out", str(tmp_path)])
        elapsed = time.perf_counter() - t0
        out, err = capsys.readouterr()
        assert rc == 2 and elapsed < 1.0 and out == ""
        assert "duration 1000000000.0 s plans 4768371582 segments" in err
        assert "maximum of 1000; the largest accepted duration is about 209.715 s" in err

    @pytest.mark.parametrize("duration, planned", [
        (1e300, "plans 4.77e+300 segments"), (1e308, "plans inf segments"),
        (sys.float_info.max, "plans inf segments"),
    ], ids=["1e300", "1e308", "float-max"])
    def test_validate_overflowing_duration_exit_two(self, tmp_path, capsys, duration, planned):
        rc = main(["validate", "--duration", repr(duration), "--out", str(tmp_path / "out")])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert planned in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, out", [
        (["tables"], "file"),
        (["waveforms", "--scenario", "1"], "file/sub"),
        (["validate"], "file"),
    ], ids=["tables", "waveforms", "validate"])
    def test_unusable_out_exit_two_at_once(self, tmp_path, capsys, command, out):
        (tmp_path / "file").write_text("")
        t0 = time.perf_counter()
        rc = main(command + ["--out", str(tmp_path / out)])
        elapsed = time.perf_counter() - t0
        err = capsys.readouterr().err
        assert rc == 2 and elapsed < 1.0
        assert "configuration error" in err and "Traceback" not in err

    @pytest.mark.parametrize("config, duration, message", [
        # a segment holds the band in 10 bins, but the segments are too many
        ("dt_divisor = 10000", "6.4", "plans 3052 segments per state"),
        # the cap would suggest 0.419 s, but a segment holds the band in
        # only 2 bins, so no duration is accepted
        ("dt_divisor = 50000", "6.4",
         "a segment of 2097152 samples at dt_divisor 50000 holds only 2 in-band frequency bins"),
        # a segment of 2^21 steps of 1e-11 s holds no bin of the band
        ("dt_divisor = 1000000", "6.4", "holds only 0 in-band frequency bins"),
        # only 95 segments of 10.5 bins, but the discard window of 60*D
        # samples or more is far longer than a quarter segment
        ("t_f = 1\ndt_divisor = 1000000000", "0.2", "the line settles in 34.9 s"),
        # the time step t_f/dt_divisor underflows to 0
        ("t_f = 5e-324", "6.4", "dt and bandwidth must be positive"),
    ], ids=["segments", "band", "oracle", "oracle-long-fly-time", "zero-step"])
    def test_validate_fine_grid_exit_two_at_once(self, tmp_path, capsys, config, duration,
                                                 message):
        t0 = time.perf_counter()
        rc = main(["validate", "--config", _write(tmp_path, config), "--duration", duration,
                   "--out", str(tmp_path / "out")])
        elapsed = time.perf_counter() - t0
        out, err = capsys.readouterr()
        assert rc == 2 and elapsed < 1.0 and out == ""
        assert "configuration error" in err and message in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config, scenario, message", [
        # the window outgrows any record
        ("tau_multipliers = 1" + "0" * 400, [],
         f"record_len 1048576 too short for {10**402} transient steps"),
        # sigma_L = 1e150 V is finite, but the public slope target, the RMS
        # slope 2*pi*B*sigma_L/sqrt(3), overflows; t_f keeps B below Nyquist
        ("temperature = 9e160\nbandwidth = 1e158\nt_f = 1e-161", ["--scenario", "4"],
         "scenario 4's public slope targets [inf, inf] V/s must be nonzero normal floats"),
    ], ids=["overflowing-tau", "infinite-slope-target"])
    def test_tables_plan_refusal_exit_two_before_writing(self, tmp_path, capsys, config,
                                                         scenario, message):
        # the plan reports each before any trial
        out = tmp_path / "out"
        rc = main(["tables", "--config", _write(tmp_path, config + "\n"), "--out", str(out)]
                  + scenario)
        err = capsys.readouterr().err
        assert rc == 2 and "Traceback" not in err
        assert "configuration error" in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["tables"], ["waveforms", "--scenario", "1"]])
    def test_record_without_band_exit_two_before_writing(self, tmp_path, capsys, command):
        # 1000 samples of 1e-7 s hold no bin of the 5 kHz band
        out = tmp_path / "out"
        rc = main(command + ["--config", _write(tmp_path, "record_len = 1000\n"),
                             "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2 and "Traceback" not in err
        assert "record too short: only 0 in-band frequency bins" in err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["n_trials", "n_cal"])
    def test_trial_count_above_cap_exit_two_before_writing(self, tmp_path, monkeypatch, capsys,
                                                           key):
        # 10^12 trials would need hundreds of terabytes for the task list alone
        def no_tasks(*args, **kwargs):
            raise AssertionError("built the task list")
        monkeypatch.setattr(montecarlo, "_collect", no_tasks)
        out = tmp_path / "out"
        rc = main(["tables", "--config", _write(tmp_path, f"{key} = {10**12}\n"),
                   "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2 and "Traceback" not in err
        assert f"must be at most {montecarlo.MAX_TRIALS}" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", GRID_VALUES)
    @pytest.mark.parametrize("key", GRID_KEYS)
    def test_one_key_config_is_planned_or_rejected_before_writing(self, tmp_path, monkeypatch,
                                                                    capsys, key, value):
        # Each command either passes its plan and reaches its work, here a
        # stand-in that raises _Planned, or exits 2 with nothing written.
        def work(*args, **kwargs):
            raise _Planned
        for name in ("run_experiment", "trial_waveforms", "validate_steady_state"):
            monkeypatch.setattr(cli, name, work)
        config = _write(tmp_path, GRID_BASE + f"{key} = {value}\n")
        for command in (["tables"], ["waveforms", "--scenario", "4"], ["validate"]):
            out = tmp_path / command[0]
            try:
                rc = main(command + ["--config", config, "--out", str(out)])
            except _Planned:
                continue
            err = capsys.readouterr().err
            assert rc == 2, (command, err)
            assert "configuration error:" in err and "Traceback" not in err, (command, err)
            assert not out.exists(), command

    def test_unreachable_search_exit_two(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(FAST_CFG + "scenarios = 2\nvalue_tol = 1e-12\n")
        rc = main(["tables", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "no start point in 100 records" in capsys.readouterr().err

    @pytest.mark.parametrize("value", SEARCH_VALUES)
    @pytest.mark.parametrize("key", SEARCH_KEYS)
    def test_planned_search_runs_to_finite_tables_or_names_the_search(self, tmp_path, capsys,
                                                                       key, value):
        # The plan cannot see whether a search tolerance is reachable: the
        # run either writes four tables of finite numbers or exits 2 on the
        # search's record cap.
        out = tmp_path / "out"
        rc = main(["tables", "--config", _write(tmp_path, GRID_BASE + f"{key} = {value}\n"),
                   "--out", str(out)])
        err = capsys.readouterr().err
        if rc == 2:
            assert "no start point in 100 records" in err
            return
        assert rc == 0, err
        for k in (1, 2, 3, 4):
            rows = (out / f"scenario_{k}.csv").read_text().splitlines()[1:]
            assert len(rows) == 4
            assert all(math.isfinite(float(x)) for row in rows for x in row.split(",")), rows

    def test_module_entry_point_runs_without_warnings(self):
        # the package must not import its command-line module, or running
        # that module with -m warns that it is already imported
        src = str(Path(kljnsim.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "kljnsim.cli", "--help"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "kljn-sim" in proc.stdout

    def test_import_leaves_scipy_out(self):
        # numpy is the only runtime dependency; scipy is for the tests alone
        src = str(Path(kljnsim.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, kljnsim.cli; "
             "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_import_leaves_process_pool_out(self):
        # the process pool, and with it multiprocessing, loads only when --jobs > 1 starts one
        src = str(Path(kljnsim.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, kljnsim.cli; "
             "print([m for m in sys.modules if m.split('.')[0] == 'multiprocessing'])"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_waveforms_command(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(FAST_CFG)
        rc = main(["waveforms", "--config", str(cfg_file), "--scenario", "1",
                   "--out", str(tmp_path / "w")])
        assert rc == 0
        assert (tmp_path / "w" / "waveforms_scenario_1.tsv").exists()
