import contextlib
import dataclasses
import errno
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from entangler import cli
from entangler.cli import (MAX_CHART_POINTS, MAX_SWEEP_STEPS, ConfigError,
                           SweepSpec, main, parse_config, run)
from entangler.channel_qlm import ChannelPotentialParams
from entangler.gates import u_swap_alpha
from entangler.numerics import Grid1D
from entangler.source_spectrum import SourceParams, build_hmatrix, chart_delta_e
from entangler.twoqubit_channel import (TwoQubitParams, build_matrix,
                                        claimed_vs_numeric, expectations)
from target_keys import FLOAT_KEYS, SWEEPABLE

SRC = Path(__file__).resolve().parents[1] / "src"


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestParseConfig:
    def test_gate_check_with_alpha(self):
        spec = parse_config("target=gate_check\nalpha=3.14159265")
        assert spec.target == "gate_check"
        assert float(spec.parameter_overrides["alpha"]) == pytest.approx(math.pi,
                                                                         abs=1e-6)

    def test_empty_requires_target(self):
        with pytest.raises(ConfigError, match="target is required"):
            parse_config("")

    def test_sweep_parses(self):
        spec = parse_config(
            "target=source_delta_e\nsweep_key=alpha_r\nsweep_range=0,1,11")
        assert spec.sweep_key == "alpha_r"
        assert spec.sweep_range == (0.0, 1.0, 11)

    def test_comments_and_blanks(self):
        spec = parse_config("# a comment\n\ntarget=gate_check  # trailing\n")
        assert spec.target == "gate_check"

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_config("target=gate_check\nalpha 3.14")

    def test_non_numeric_value(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config("target=gate_check\nalpha=fast")

    def test_unknown_key_lists_valid(self):
        with pytest.raises(ConfigError, match="valid keys"):
            parse_config("target=gate_check\nalfa=1.0")

    def test_unknown_target(self):
        with pytest.raises(ConfigError, match="valid targets"):
            parse_config("target=warp_drive")

    def test_invalid_sweep_key(self):
        with pytest.raises(ConfigError, match="sweep_key"):
            parse_config("target=gate_check\nsweep_key=beta\nsweep_range=0,1,2")

    def test_bad_sweep_range(self):
        with pytest.raises(ConfigError, match="sweep_range"):
            parse_config("target=gate_check\nsweep_key=alpha\nsweep_range=1,0,2")

    def test_sweep_range_requires_sweep_key(self):
        with pytest.raises(ConfigError, match="sweep_range requires sweep_key"):
            parse_config("target=gate_check\nsweep_range=0,1,3")

    def test_empty_out_is_config_error(self):
        with pytest.raises(ConfigError, match="out must be a path or -, got ''"):
            parse_config("target=gate_check\nout=")

    def test_sweep_steps_cap(self):
        base = "target=gate_check\nsweep_key=alpha\nsweep_range=0,1,"
        assert parse_config(f"{base}{MAX_SWEEP_STEPS}").sweep_range[2] == MAX_SWEEP_STEPS
        with pytest.raises(ConfigError, match="sweep_range"):
            parse_config(f"{base}{MAX_SWEEP_STEPS + 1}")

    @pytest.mark.parametrize("text, message", [
        ("target=channel_qlm\npotential=cubic",
         "bad value 'cubic' for key 'potential' (expected quartic|harmonic)"),
        ("target=twoqubit_eigen\nwave_direction=diag",
         "bad value 'diag' for key 'wave_direction' (expected along_y|along_x)"),
    ])
    def test_unknown_choice(self, text, message):
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert str(exc.value) == message

    def test_chart_points_cap(self):
        base = "target=source_delta_e\nx_count=1000\ny_points="
        rows = MAX_CHART_POINTS // 1000
        assert parse_config(f"{base}{rows}").parameter_overrides["y_points"] == str(rows)
        with pytest.raises(ConfigError, match=r"x_count \* y_points"):
            parse_config(f"{base}{rows + 1}")


class TestRun:
    def test_gate_check_swap_matches(self, tmp_path):
        out = tmp_path / "gates.json"
        spec = parse_config(f"target=gate_check\nalpha={math.pi!r}\nformat=json")
        spec.output_path = str(out)
        assert run(spec) == 0
        payload = json.loads(out.read_text())
        row = dict(zip(payload["columns"], payload["rows"][0]))
        assert row["swap_matches"] is True
        assert row["cnot_fidelity"] == pytest.approx(1.0, abs=1e-10)

    def test_channel_harmonic_preset(self, tmp_path):
        out = tmp_path / "channel.csv"
        spec = parse_config("target=channel_qlm\npotential=harmonic\niterations=2")
        spec.output_path = str(out)
        assert run(spec) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,e_n"
        e1 = float(lines[1].split(",")[1])
        assert e1 == pytest.approx(0.5, abs=1e-8)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = ("target=source_delta_e\nx_count=3\ny_points=7\n"
               "sweep_key=alpha_r\nsweep_range=0,0.4,5\n")
        outs = []
        for name in ("a.csv", "b.csv"):
            spec = parse_config(cfg)
            spec.output_path = str(tmp_path / name)
            assert run(spec) == 0
            outs.append((tmp_path / name).read_bytes())
        assert outs[0] == outs[1]

    def test_manifest_round_trip(self, tmp_path):
        spec = parse_config("target=twoqubit_eigen\nalpha_r=0.35\nk=1.25")
        spec.output_path = str(tmp_path / "one.csv")
        assert run(spec) == 0
        manifest = json.loads((tmp_path / "one.csv.manifest.json").read_text())
        params = manifest["resolved_parameters"]
        replay = "".join(f"{k}={v}\n" for k, v in params.items())
        spec2 = parse_config(replay)
        spec2.output_path = str(tmp_path / "two.csv")
        assert run(spec2) == 0
        assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()
        manifest2 = json.loads((tmp_path / "two.csv.manifest.json").read_text())
        assert manifest["input_hash"] == manifest2["input_hash"]
        canonical = "".join(f"{k}={v}\n" for k, v in sorted(params.items()))
        assert manifest["input_hash"] == hashlib.sha256(
            canonical.encode("utf-8")).hexdigest()

    @pytest.mark.parametrize("change, code, message", [
        ({"output_format": "xml"}, 2, "format must be csv or json"),
        ({"parameter_overrides": {"alpha": "2.0"}}, 0, ""),
        ({"sweep_key": "dump_matrix", "sweep_range": (0.0, 1.0, 2)}, 2,
         "sweep_key 'dump_matrix' not valid"),
        ({"target": "warp_drive"}, 2, "unknown target 'warp_drive'"),
        ({"sweep_key": "alpha", "sweep_range": (0.0, 1.0, MAX_SWEEP_STEPS + 1)},
         2, "sweep_range steps"),
        ({"sweep_key": "alpha", "sweep_range": (0.0, 1.0, 2.5)}, 2,
         "sweep_range must be (start, stop, steps)"),
        ({"sweep_key": "alpha", "sweep_range": (0.0, 1.0)}, 2,
         "sweep_range must be (start, stop, steps)"),
        ({"sweep_key": "alpha", "sweep_range": ("0", "1", 3)}, 2,
         "sweep_range must be (start, stop, steps)"),
        ({"sweep_range": (0.0, 1.0, 3)}, 2, "sweep_range requires sweep_key"),
        ({"output_path": ""}, 2, "out must be a path or -, got ''"),
    ])
    def test_spec_changed_after_parse(self, tmp_path, monkeypatch, capsys,
                                      change, code, message):
        """run takes the spec as it stands when called, not as parse_config
        saw it: a change runs as changed or exits 2, and a failing run
        leaves no file, temporary or not, anywhere."""
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        spec = parse_config("target=gate_check\nalpha=1.0\ndump_matrix=m.csv")
        spec.output_path = str(tmp_path / "out.csv")
        for name, value in change.items():
            if isinstance(value, dict):
                getattr(spec, name).update(value)  # in place
            else:
                setattr(spec, name, value)
        assert run(spec) == code
        assert message in capsys.readouterr().err
        if code == 0:
            assert (tmp_path / "out.csv").read_text().splitlines()[1].startswith("2,")
            assert sorted(os.listdir(cwd)) == ["m.csv"]
        else:
            assert list(tmp_path.rglob("*")) == [cwd]

    def test_twoqubit_json_report_fields(self, tmp_path):
        out = tmp_path / "report.json"
        spec = parse_config("target=twoqubit_eigen\nformat=json")
        spec.output_path = str(out)
        assert run(spec) == 0
        report = json.loads(out.read_text())["report"]
        assert set(report) >= {"h0", "hr", "claimed_eigenvalues",
                               "numeric_eigenvalues", "residuals",
                               "hermitian", "degenerate"}

    def test_twoqubit_coulomb_near_domain_edge(self, tmp_path):
        # lambda = 1.40 is inside lambda < sqrt(2) fermi_l; a truncated
        # quadrature of the Coulomb term used to fail here
        out = tmp_path / "edge.csv"
        assert main(["twoqubit", "--set", "coulomb_k=0.7", "--set", "lambda=1.40",
                     "--out", str(out)]) == 0
        h0 = float(out.read_text().splitlines()[1].split(",")[0])
        closed = (1.0 / (4.0 * 1.40 ** 2) + 0.5 + 3.0 / 32.0
                  + math.sqrt(math.pi / 2.0) * 0.7 / math.sqrt(1.0 - 1.40 ** 2 / 2.0))
        assert h0 == pytest.approx(closed, rel=1e-15)

    @pytest.mark.parametrize("settings", [
        {},
        {"wave_direction": "along_x"},
        {"coulomb_k": 0.3, "lambda": 0.8},
        {"coulomb_k": 0.7, "lambda": 1.2, "alpha_r": 4.0},  # |hr| >= h0
    ])
    def test_twoqubit_sweep_row_is_report_spectrum(self, tmp_path, monkeypatch,
                                                   settings):
        """A one-step twoqubit sweep row holds, bit for bit, h0, hr and the
        numeric eigenvalues of the claimed-vs-numeric report, which a sweep
        point does not build."""
        def unused(m):
            raise AssertionError("a sweep point built the eigen report")
        monkeypatch.setattr("entangler.twoqubit_channel.claimed_vs_numeric", unused)
        out = tmp_path / "k.csv"
        spec = parse_config("target=twoqubit_eigen\nsweep_key=k\n"
                            "sweep_range=0.7,0.7,1\n"
                            + "".join(f"{k}={v}\n" for k, v in settings.items()))
        spec.output_path = str(out)
        assert run(spec) == 0
        row = [float(v) for v in out.read_text().splitlines()[1].split(",")]
        p = TwoQubitParams(
            m_eff=1.0, omega=1.0, a_b=1.0, lam=settings.get("lambda", 1.0),
            k=0.7, alpha_r=settings.get("alpha_r", 0.2),
            coulomb_k=settings.get("coulomb_k", 0.0), fermi_l=1.0,
            wave_direction=settings.get("wave_direction", "along_y"))
        report = claimed_vs_numeric(build_matrix(*expectations(p)))
        expected = [0.7, report.h0, report.hr.real, report.hr.imag]
        for e in report.numeric.eigenvalues:
            expected += [e.real, e.imag]
        assert row == expected

    def test_channel_dump_l(self, tmp_path):
        dump = tmp_path / "l.csv"
        spec = parse_config(
            f"target=channel_qlm\niterations=1\nn_points=201\ndump_l={dump}")
        spec.output_path = str(tmp_path / "c.csv")
        assert run(spec) == 0
        lines = dump.read_text().splitlines()
        assert lines[0] == "y,l"
        assert len(lines) == 202

    def test_gate_matrix_dump(self, tmp_path):
        dump = tmp_path / "swap.csv"
        spec = parse_config(
            f"target=gate_check\nalpha={math.pi!r}\ndump_matrix={dump}")
        spec.output_path = str(tmp_path / "r.csv")
        assert run(spec) == 0
        lines = dump.read_text().splitlines()
        assert lines[0] == "re1,im1,re2,im2,re3,im3,re4,im4"
        assert len(lines) == 5
        first = [float(v) for v in lines[1].split(",")]
        assert first == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        # JSON: one [re, im] pair per entry, exact at 17 significant digits
        dump = tmp_path / "swap.json"
        spec = parse_config(f"target=gate_check\nalpha={math.pi!r}\n"
                            f"dump_matrix={dump}\nformat=json")
        spec.output_path = str(tmp_path / "r.json")
        assert run(spec) == 0
        payload = json.loads(dump.read_text())
        assert list(payload) == ["matrix"]
        matrix = np.array([[complex(*pair) for pair in row]
                           for row in payload["matrix"]])
        assert all(len(pair) == 2 for row in payload["matrix"] for pair in row)
        assert np.array_equal(matrix, u_swap_alpha(math.pi).matrix)

    @pytest.mark.parametrize("target, resolved, key, values", [
        ("gate_check", {"alpha": 0.0, "dump_matrix": "d.csv"}, "alpha", [1.0, 2.0]),
        ("channel_qlm", {**cli._resolve(SweepSpec("channel_qlm")), "n_points": 101,
                         "iterations": 1, "dump_l": "d.csv"}, "coulomb_k", [0.0, 0.5])])
    def test_point_returns_its_first_point_dump_and_writes_nothing(
            self, tmp_path, monkeypatch, target, resolved, key, values):
        """A point function returns the table of its first point's dump file
        as pieces; only run writes files."""
        monkeypatch.chdir(tmp_path)
        _, dumps = cli._TARGETS[target].point(resolved, key, values, False)
        assert list(tmp_path.iterdir()) == [] and list(dumps) == ["d.csv"]
        text = "".join(dumps["d.csv"])
        if target == "gate_check":
            assert text == "".join(cli._render_gate_matrix(u_swap_alpha(1.0), False))
        else:
            assert text.startswith("y,l\n") and len(text.splitlines()) == 102

    def test_computation_error_exit_one(self, tmp_path, capsys):
        # g=0.01 spreads the 101 points over [0, 75], 0.75 apart: the
        # integrating factor underflows, a module-level failure
        spec = SweepSpec(target="channel_qlm",
                         parameter_overrides={"n_points": "101", "g": "0.01"})
        spec.output_path = str(tmp_path / "never.csv")
        assert run(spec) == 1
        assert not (tmp_path / "never.csv").exists()

    def test_source_sweep_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        spec = parse_config(
            "target=source_delta_e\nsweep_key=alpha_r\nsweep_range=0,0.5,6")
        spec.output_path = str(out)
        assert run(spec) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "alpha_r,e_up,e_down,delta_e"
        assert len(lines) == 7
        deltas = [float(line.split(",")[3]) for line in lines[1:]]
        assert deltas == sorted(deltas)  # splitting grows with alpha_r


class TestMain:
    def test_stdout_marker_routes_table_and_manifest(self, tmp_path, capsys):
        rc = main(["gates", "--set", "alpha=0.5"])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("alpha,")
        assert "resolved_parameters" in captured.err

    def test_config_file_plus_overrides(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "target=gate_check\nalpha=1.0\n")
        rc = main(["gates", "--config", cfg, "--set", "alpha=3.141592653589793",
                   "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        row = dict(zip(payload["columns"], payload["rows"][0]))
        assert row["swap_matches"] is True

    def test_conflicting_target_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "target=gate_check\n")
        assert main(["channel", "--config", cfg]) == 2
        assert "conflicts" in capsys.readouterr().err

    @pytest.mark.parametrize("text, lineno", [
        ("foo\nalpha=1\n", 1),
        ("# a comment\nalpha=1\n\nfoo\n", 4),
        ("alpha=1  # trailing\r\nbar # baz\r\n", 2),
    ])
    def test_config_error_names_the_line_of_the_file(self, tmp_path, capsys,
                                                     text, lineno):
        cfg = write_config(tmp_path, text)
        assert main(["gates", "--config", cfg, "--set", "alpha=2"]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: line {lineno}: expected key=value")

    @pytest.mark.parametrize("lines", [
        "format=xml\nout=\n", "format=json\nout=elsewhere.csv\n",
        "format=xml\nout=o.csv\n"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_format_and_out_flags_replace_config_lines(
            self, tmp_path, monkeypatch, capsys, lines, fmt):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, lines + "alpha=1\n")
        assert main(["gates", "--config", cfg, "--format", fmt, "--out", "-"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("alpha," if fmt == "csv" else '{"manifest": ')
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]
        assert main(["gates", "--config", cfg, "--format", fmt, "--out", "o.csv"]) == 0
        assert (tmp_path / "o.csv").read_text() == out

    @pytest.mark.parametrize("args", [
        ["--config", "run.cfg"],
        ["--set", "target=channel_qlm", "--set", "alpha=1"],
        ["--set", "alpha=1", "--set", "target=channel_qlm"],
        ["--set", "target=channel_qlm", "--set", "sweep_range=x"],
        ["--set", "target=channel_qlm", "--format", "csv", "--out", ""],
    ])
    def test_target_conflict_is_reported_before_other_key_errors(
            self, tmp_path, monkeypatch, capsys, args):
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path, "target=channel_qlm\nalpha=1\n")
        assert main(["gates", *args]) == 2
        assert capsys.readouterr().err == (
            "config error: config target 'channel_qlm' conflicts with "
            "subcommand 'gates' (gate_check)\n")

    @pytest.mark.parametrize("args, message", [
        (["source", "--set", "y_points=1"], "key 'y_points': need y_points >= 3, got 1"),
        (["twoqubit", "--set", "lambda=-1"],
         "key 'lambda': lambda must be positive, got -1.0"),
        (["channel", "--set", "iterations=0"],
         "key 'iterations': iterations must be >= 1, got 0"),
        (["twoqubit", "--set", "coulomb_k=0.5", "--set", "lambda=2"],
         "key 'lambda': Coulomb expectation diverges unless lambda < sqrt(2) * "
         "fermi_l, i.e. 1 - lambda^2 / (2 fermi_l^2) > 0 (got lambda = 2.0, "
         "fermi_l = 1.0)"),
    ])
    def test_domain_error_text_names_the_config_key(self, capsys, args, message):
        assert main(args) == 2
        assert capsys.readouterr().err == f"config error: bad value for {message}\n"

    @pytest.mark.parametrize("name, cls", [
        ("source_delta_e", SourceParams), ("channel_qlm", ChannelPotentialParams),
        ("twoqubit_eigen", TwoQubitParams)])
    def test_every_params_field_has_a_config_key(self, name, cls):
        target = cli._TARGETS[name]
        for f in dataclasses.fields(cls):
            assert target.aliases.get(f.name, f.name) in target.schema, f.name
        resolved = {key: default for key, (_, default, _) in target.schema.items()}
        params = cli._params(cls, resolved, target.aliases)
        for f in dataclasses.fields(cls):
            assert getattr(params, f.name) == resolved[target.aliases.get(f.name, f.name)]

    def test_invalid_sweep_key_exits_two_without_output(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        rc = main(["source", "--set", "sweep_key=bogus",
                   "--set", "sweep_range=0,1,2", "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    @pytest.mark.parametrize("setting", [
        "dump_matrix=m#1.csv", "dump_matrix=m.csv\nalpha=2", "alpha=2\r"])
    def test_set_value_with_hash_or_line_break_exits_two(
            self, tmp_path, monkeypatch, capsys, setting):
        # A manifest's resolved_parameters, written as key=value lines, is a
        # config that reproduces the run: there the value would be cut at
        # the '#' or run on into a line of its own.
        monkeypatch.chdir(tmp_path)
        assert main(["gates", "--set", setting, "--out", "o.csv"]) == 2
        err = capsys.readouterr().err
        assert setting.split("=")[0] in err and "'#' or a line break" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", sorted(cli._TARGETS))
    def test_help_lists_csv_columns(self, tmp_path, capsys, name):
        """--help names the CSV header of a default run and of a sweep."""
        target = cli._TARGETS[name]
        with pytest.raises(SystemExit):
            main([target.command, "--help"])
        help_lines = capsys.readouterr().out.splitlines()
        key = target.sweepable[0]
        default = target.schema[key][1]
        headers = []
        for extra in ([], ["--set", f"sweep_key={key}",
                           "--set", f"sweep_range={default!r},{default!r},1"]):
            out = tmp_path / f"{len(headers)}.csv"
            assert main([target.command, *extra, "--out", str(out)]) == 0
            headers.append(out.read_text().splitlines()[0].replace(",", ", "))
        assert f"csv columns: {headers[0]}" in help_lines
        sweep_line, = [line for line in help_lines
                       if line.startswith("sweep csv columns: ")]
        assert sweep_line.replace("<sweep_key>", key) == f"sweep csv columns: {headers[1]}"

    def test_missing_config_file(self, capsys):
        assert main(["gates", "--config", "/no/such/file.cfg"]) == 2

    def test_bad_set_value(self, capsys):
        assert main(["gates", "--set", "alpha"]) == 2

    @pytest.mark.parametrize("args, key", [
        (["gates", "--set", "alpha=nan"], "alpha"),
        (["source", "--set", "omega=nan"], "omega"),
        (["channel", "--set", "omega=inf"], "omega"),
        (["source", "--set", "sweep_key=alpha_r",
          "--set", "sweep_range=0,nan,3"], "sweep_range"),
    ])
    def test_non_finite_exits_two_without_output(self, tmp_path, capsys,
                                                 args, key):
        out = tmp_path / "never.csv"
        assert main(args + ["--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "never.csv.manifest.json").exists()

    @pytest.mark.parametrize("args, named", [
        (["channel", "--set", "iterations=0"], "key 'iterations'"),
        (["channel", "--set", "g=-1"], "key 'g'"),
        (["source", "--set", "y_points=2"], "key 'y_points'"),
        (["source", "--set", "y_min=1", "--set", "y_max=0"], "key 'y_max'"),
        (["source", "--set", "l_x=0.005"], "key 'reg_delta'"),
        (["source", "--set", "x_count=0"], "key 'x_count'"),
        (["source", "--set", "x_count=-3"], "key 'x_count'"),
        (["source", "--set", "sweep_key=omega",
          "--set", "sweep_range=-1,1,3"], "key 'omega'"),
        (["twoqubit", "--set", "lambda=1.5", "--set", "coulomb_k=0.3"],
         "key 'lambda'"),
        # the float just below sqrt(2) * fermi_l, where the radicand
        # 1 - lambda^2 / (2 fermi_l^2) of the Coulomb term rounds to 0
        (["twoqubit", "--set", "fermi_l=0.7", "--set", "lambda=0.9899494936611665",
          "--set", "coulomb_k=0.5"], "key 'lambda'"),
    ])
    def test_out_of_domain_exits_two_without_output(self, tmp_path, capsys,
                                                    args, named):
        out = tmp_path / "never.csv"
        assert main(args + ["--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args, out, failing", [
        (["source"], "missing/x.csv", "missing/x.csv"),
        (["gates", "--set", "dump_matrix=P"], "missing/x.csv", "missing/x.csv"),
        (["channel", "--set", "n_points=201", "--set", "dump_l=missing/l.csv"],
         "x.csv", "missing/l.csv"),
        # --out names a directory: refused before the dump is renamed into place
        (["gates", "--set", "dump_matrix=d.csv"], "outdir", "outdir"),
    ])
    def test_write_failure_exits_two_and_creates_no_file(
            self, tmp_path, monkeypatch, capsys, args, out, failing):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "outdir").mkdir()
        assert main(args + ["--out", out]) == 2
        assert f"cannot write {failing}" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["outdir"]
        assert list((tmp_path / "outdir").iterdir()) == []

    @pytest.mark.parametrize("args, key", [
        (["gates", "--set", "dump_matrix=o.csv"], "dump_matrix"),
        (["gates", "--set", "dump_matrix=./o.csv.manifest.json"], "dump_matrix"),
        (["channel", "--set", "n_points=201", "--set", "dump_l=o.csv"], "dump_l"),
    ])
    def test_dump_path_equal_to_output_exits_two(
            self, tmp_path, monkeypatch, capsys, args, key):
        # the dump would replace the output or its sidecar, or be replaced
        monkeypatch.chdir(tmp_path)
        assert main(args + ["--out", "o.csv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key} ") and "output" in err
        assert list(tmp_path.iterdir()) == []

    def test_dump_path_may_equal_output_name_on_stdout(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["gates", "--set", "dump_matrix=o.csv"]) == 0
        assert capsys.readouterr().out.startswith("alpha,")
        assert (tmp_path / "o.csv").read_text().startswith("re1,")

    def test_fig2_style_chart_is_well_formed(self, tmp_path):
        out = tmp_path / "chart.csv"
        rc = main(["source", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,y,e_up,e_down,delta_e"
        rows = [list(map(float, line.split(","))) for line in lines[1:]]
        assert len(rows) == 5 * 21
        assert all(r[4] >= 0.0 for r in rows)

    def test_channel_coulomb_golden_across_series_switch(self, capsys):
        # y_max = 7.5 at g = 1, so u = y / (sqrt(2) fermi_l) runs to 10.6:
        # one erfcx array holds product (u < 8) and series (u >= 8) samples.
        # Output captured before erfcx took arrays.
        assert 7.5 / (math.sqrt(2.0) * 0.5) > 8.0
        rc = main(["channel", "--set", "include_vc=1", "--set", "coulomb_k=0.3",
                   "--set", "fermi_l=0.5"])
        assert rc == 0
        assert capsys.readouterr().out == ("n,e_n\n"
                                           "1,0.76569062642958508\n"
                                           "2,0.65910187014954502\n"
                                           "3,0.65765891266411936\n")


def child_env() -> dict:
    """The environment of a child interpreter that imports this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def run_fresh(args, cwd=None):
    """main(args) in a new interpreter: the completed process, output as bytes."""
    return subprocess.run(
        [sys.executable, "-c",
         "import sys; from entangler.cli import main; sys.exit(main())", *args],
        env=child_env(), cwd=cwd, capture_output=True, timeout=120)


@pytest.mark.parametrize("command,setting", [
    ("channel", "m_eff=1e300"), ("channel", "g=1e-300"),
    # y / (sqrt(2) fermi_l) overflows in the Coulomb profile
    ("channel", "include_vc=1 fermi_l=5e-324 coulomb_k=1"),
    ("source", "l_x=1e300"), ("source", "y_max=1e300"),
    ("twoqubit", "m_eff=1e300"), ("twoqubit", "alpha_r=1e300")])
def test_overflow_fails_with_one_stderr_line(tmp_path, command, setting):
    # numpy overflows on the way to the non-finite channel energy, chart
    # column or twoqubit report column; only the failure line reaches
    # stderr, with no source path from a RuntimeWarning
    sets = [a for pair in setting.split() for a in ("--set", pair)]
    proc = run_fresh([command, *sets, "--out", "x.csv"], cwd=tmp_path)
    assert proc.returncode == 1
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith({
        "channel": "channel_qlm: computation failed: iteration 1: ",
        "source": "source_delta_e: computation failed: non-finite ",
        "twoqubit": "twoqubit_eigen: computation failed: non-finite "}[command])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["twoqubit", "--set", "k=1e200"],
                                  ["channel", "--set", "omega=1e200"],
                                  ["twoqubit", "--set", "a_b=1e200"],
                                  # 4 m lambda^2 and a^2 underflow to zero
                                  ["twoqubit", "--set", "lambda=1e-300"],
                                  ["channel", "--set", "a=5e-324"]])
def test_float_overflow_is_named_in_the_failure_line(tmp_path, argv):
    # A square that overflows is inf, and so is a division by one that
    # underflows to zero: the finite check of the kernel names a column, or
    # the iterate, not Python's bare errno text "(34, 'Numerical result out
    # of range')" or "float division by zero"
    proc = run_fresh(argv + ["--out", "x.csv"], cwd=tmp_path)
    assert proc.returncode == 1
    line = proc.stderr.decode().splitlines()[0]
    assert line == {"twoqubit": "twoqubit_eigen: computation failed: non-finite h0",
                    "channel": "channel_qlm: computation failed: iteration 1: "
                               "non-finite energy"}[argv[0]]
    assert "(34," not in line and "division by zero" not in proc.stderr.decode()
    assert list(tmp_path.iterdir()) == []


def test_zero_point_term_underflows_to_its_double_value():
    # 1/(4 m lambda^2) is below the smallest double: 0, so h0 = k^2/2 + 3/32
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "o")
        assert run_main(["twoqubit", "--set", "lambda=1e300", "--out", out]) == (0, "")
        row = Path(out).read_text().splitlines()[1].split(",")
        assert float(row[0]) == 0.59375
    # with a Coulomb term, lambda^2 = inf fails the radicand check: exit 2
    rc, err = run_main(["twoqubit", "--set", "lambda=1e300", "--set", "coulomb_k=0.5",
                        "--out", os.devnull])
    assert rc == 2
    assert err.startswith("config error: bad value for key 'lambda': ")


def test_coulomb_radicand_where_both_squares_overflow():
    # lambda^2 / (2 fermi_l^2) is inf / inf; the radicand is 1 - (lambda /
    # fermi_l)^2 / 2 there: 1/2 runs (the Coulomb term is ~1e-300), 2 is
    # out of domain
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "o")
        argv = ["twoqubit", "--set", "fermi_l=1e300", "--set", "coulomb_k=0.5"]
        assert run_main(argv + ["--set", "lambda=1e300", "--out", out]) == (0, "")
        assert float(Path(out).read_text().splitlines()[1].split(",")[0]) == 0.59375
        rc, err = run_main(argv + ["--set", "lambda=2e300", "--out", out + "2"])
        assert rc == 2
        assert err.startswith("config error: bad value for key 'lambda': Coulomb "
                              "expectation diverges unless lambda < sqrt(2) * fermi_l")


def test_log_coulomb_term_where_delta_over_r_underflows():
    # reg_delta / r_coulomb underflows to 0: ln delta - ln R, and delta ln delta
    # is far below the bracket's ulp, so the row is that of reg_delta = 1e-300
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for reg_delta in ("5e-324", "1e-300"):
            out = os.path.join(tmp, reg_delta)
            assert run_main(["source", "--set", f"reg_delta={reg_delta}", "--set",
                             "r_coulomb=2", "--set", "sweep_key=k", "--set",
                             "sweep_range=1,1,1", "--out", out]) == (0, "")
            rows.append(Path(out).read_text())
    assert rows[0] == rows[1]
    # 2 pi / l_x overflows: so does the box term, and the row is not finite
    assert run_main(["source", "--set", "l_x=1e-322", "--set", "reg_delta=5e-324",
                     "--set", "sweep_key=k", "--set", "sweep_range=1,1,1",
                     "--out", os.devnull]) == (
        1, "source_delta_e: computation failed: non-finite e_up\n")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv, column", [
    # the claimed +-sqrt(h0^2 - hr^2) pair overflows: NaN residuals
    (["twoqubit", "--set", "k=1e154"], "max_residual"),
    (["twoqubit", "--set", "alpha_r=1e300"], "max_residual"),
    # m_eff = 1e-320 makes the kinetic terms inf
    (["source", "--set", "sweep_key=m_eff", "--set", "sweep_range=1e-320,1,3"], "e_up"),
    (["source", "--set", "m_eff=1e-320"], "e_up"),
    # k^2 overflows to inf, in the chart as in its one-point sweep
    (["source", "--set", "k=1e200"], "e_up"),
    (["source", "--set", "sweep_key=k", "--set", "sweep_range=1e200,1e200,1"], "e_up")])
def test_non_finite_output_fails_naming_its_column(argv, column, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        rc, err = run_main(argv + ["--format", fmt, "--out", os.path.join(tmp, "o")])
        assert rc == 1
        assert err.splitlines()[0].endswith(f": computation failed: non-finite {column}")
        assert os.listdir(tmp) == []


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv, code, last", [
    # start + (stop - start) * 2 / 2 is inf: the last value is stop itself
    (["gates", "--set", "sweep_key=alpha", "--set", "sweep_range=1,1e308,3"], 0, "1e+308"),
    (["channel", "--set", "n_points=201", "--set", "sweep_key=coulomb_k",
      "--set", "sweep_range=1,1e308,3"], 0, "1e+308"),
    # (stop - start) * i overflows: interior values on the range scaled by 2^-s
    (["gates", "--set", "sweep_key=alpha", "--set", "sweep_range=1e300,1.7e308,3"],
     0, "1.6999999999999999e+308"),
    # stop - start is inf; every value is finite, but k^2 is not
    (["source", "--set", "sweep_key=k", "--set", "sweep_range=-1e308,1e308,3"], 1, None)])
def test_sweep_range_with_finite_endpoints_runs_to_its_stop(argv, code, last, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "o")
        rc, err = run_main(argv + ["--format", fmt, "--out", out])
        assert rc == code, err
        if code:
            assert err == "source_delta_e: computation failed: non-finite e_up\n"
            assert os.listdir(tmp) == []
            return
        text = Path(out).read_text()
        if fmt == "csv":
            assert text.splitlines()[-1].split(",")[0] == last
        else:
            assert json.loads(text)["rows"][-1][0] == float(last)


def assert_within_2_ulp(got, exact):
    assert (np.abs(got - exact) <= 2.0 * np.spacing(exact)).all()


def test_chart_and_its_one_point_sweep_agree_where_squares_overflow(tmp_path):
    """At m_eff = 1e-200 the diagonal is near 1e200: its square overflows,
    the energies do not, and delta_e is still 2 |alpha_r k| (times
    |phi(x)|^2 in the chart), 1e-200 of the diagonal.
    Where the kinetic denominator 2 m l_x^2 underflows to zero, or pi x
    overflows at the largest l_x, both fail naming the same column."""
    failed = (1, "source_delta_e: computation failed: non-finite e_up\n")
    for sets in (("m_eff=5e-324", "l_x=1e-160", "reg_delta=1e-170"),
                 ("l_x=1.7976931348623157e308",)):
        argv = ["source"] + [a for pair in sets for a in ("--set", pair)]
        l_x = dict(pair.split("=") for pair in sets)["l_x"]
        assert run_main(argv + ["--out", str(tmp_path / "c")]) == failed
        assert run_main(argv + ["--set", "sweep_key=l_x", "--set",
                                f"sweep_range={l_x},{l_x},1",
                                "--out", str(tmp_path / "s")]) == failed
    assert not any(tmp_path.glob("[cs]*"))
    chart, sweep = tmp_path / "chart.csv", tmp_path / "sweep.csv"
    assert run_main(["source", "--set", "m_eff=1e-200", "--out", str(chart)]) == (0, "")
    assert run_main(["source", "--set", "sweep_key=m_eff", "--set",
                     "sweep_range=1e-200,1e-200,1", "--out", str(sweep)]) == (0, "")
    for out in (chart, sweep):
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert rows and all(1e199 < float(r[-3]) < 1e201 for r in rows)
        # defaults alpha_r = 0.2, k = 1, l_x = pi; the sweep's |phi|^2 is 1
        weight = [(2.0 / math.pi) * math.sin(math.pi * float(r[0]) / math.pi) ** 2
                  if out is chart else 1.0 for r in rows]
        assert_within_2_ulp(np.array([float(r[-1]) for r in rows]),
                            2.0 * np.abs(0.2 * 1.0 * np.array(weight)))
        sidecar = json.loads(Path(f"{out}.manifest.json").read_text())
        assert "diagnostics" not in sidecar


def test_twoqubit_sweep_fails_as_its_first_point_before_a_later_build_failure():
    """The first point builds but its eigenvalue h0 + hr overflows; the
    second does not build (k^2 overflows). The sweep fails as the first."""
    base = ["twoqubit", "--set", "lambda=3.8e-155", "--set", "alpha_r=1e158",
            "--set", "sweep_key=k", "--out", os.devnull]
    first = run_main(base + ["--set", "sweep_range=1e150,1e150,1"])
    second = run_main(base + ["--set", "sweep_range=2e154,2e154,1"])
    assert first == (1, "twoqubit_eigen: computation failed: non-finite e4_re\n")
    assert second == (1, "twoqubit_eigen: computation failed: non-finite h0\n")
    assert run_main(base + ["--set", "sweep_range=1e150,2e154,2"]) == first


def test_widest_finite_sweep_range_runs():
    # the last value of 1,1e308,2 is stop
    rc, err = run_main(["gates", "--set", "sweep_key=alpha",
                        "--set", "sweep_range=1,1e308,2", "--out", os.devnull])
    assert (rc, err) == (0, "")


OMEGA_SWEEP = ["channel", "--set", "sweep_key=omega", "--set", "sweep_range=0.5,2,4"]
MISMATCH ="a = 1.0 differs from the natural-unit harmonic length 1/sqrt(omega) = "


def test_warnings_go_to_the_sidecar_not_stderr(tmp_path):
    proc = run_fresh(OMEGA_SWEEP + ["--out", "o.csv"], cwd=tmp_path)
    assert proc.returncode == 0
    assert proc.stderr == b""
    sidecar = json.loads((tmp_path / "o.csv.manifest.json").read_text())
    # omega = 1 matches a = 1 and does not warn; the rest in sweep order
    assert sidecar["diagnostics"]["warnings"] == [
        MISMATCH + "1.41421", MISMATCH + "0.816497", MISMATCH + "0.707107"]


def test_warnings_after_the_failure_line(tmp_path):
    proc = run_fresh(OMEGA_SWEEP + ["--set", "m_eff=1e300", "--out", "o.csv"],
                     cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stderr.decode().splitlines() == [
        "channel_qlm: computation failed: iteration 1: non-finite energy",
        "channel_qlm: warning: " + MISMATCH + "1.41421"]
    assert list(tmp_path.iterdir()) == []


def test_each_distinct_warning_once_and_only_in_the_sidecar(tmp_path):
    out = tmp_path / "o.json"
    argv = ["channel", "--set", "n_points=401", "--set", "sweep_key=omega",
            "--set", "sweep_range=2,2,3", "--format", "json", "--out", str(out)]
    assert main(argv) == 0
    sidecar = json.loads(Path(f"{out}.manifest.json").read_text())
    assert sidecar["diagnostics"] == {"warnings": [MISMATCH + "0.707107"]}
    assert "diagnostics" not in json.loads(out.read_text())["manifest"]


def test_clean_run_sidecar_has_no_diagnostics(tmp_path):
    out = tmp_path / "o.csv"
    assert main(["channel", "--set", "n_points=401", "--out", str(out)]) == 0
    assert "diagnostics" not in json.loads(Path(f"{out}.manifest.json").read_text())


def assert_same_rows(text, expected, sep):
    """text == expected, failing at the first row that differs instead of in
    a diff of megabyte texts: str.split at sep is undone by sep.join."""
    rows, expected_rows = text.split(sep), expected.split(sep)
    for i, (row, expected_row) in enumerate(zip(rows, expected_rows)):
        assert row == expected_row, f"row {i} differs"
    assert len(rows) == len(expected_rows)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_chart_in_many_pieces_equals_one_string_rendering(tmp_path, capsys, fmt):
    """A chart of more rows than one rendered piece holds, in x blocks of
    fewer rows than a piece and of more, written to a file and to standard
    output, equals its table rendered as one string, every cell per value
    from chart_delta_e's floats."""
    for x_count, y_points in ((3, 401), (2, 1100)):
        sets = (f"x_count={x_count}", f"y_points={y_points}")
        config = f"target=source_delta_e\n{sets[0]}\n{sets[1]}\nformat={fmt}"
        assert x_count * y_points > 2 * cli._PIECE_ROWS
        cfg, out = write_config(tmp_path, config), tmp_path / f"chart{x_count}.{fmt}"
        assert main(["source", "--config", cfg, "--out", str(out)]) == 0
        assert main(["source", "--config", cfg]) == 0
        text = out.read_text(encoding="utf-8")
        assert capsys.readouterr().out == text
        spec = parse_config(config)
        resolved = cli._resolve(spec)
        points, s = chart_points(["--set", sets[0], "--set", sets[1]])
        cells = [[format(v, ".17g") for v in xy + r] for xy, r in zip(points, zip(
            s.e_up.tolist(), s.e_down.tolist(), s.delta_e.tolist()))]
        if fmt == "csv":
            expected = "".join(",".join(r) + "\n"
                               for r in [list(cli._CHART_COLUMNS)] + cells)
        else:
            manifest = {k: v for k, v in cli._manifest(spec, resolved).items()
                        if k != "timestamp"}
            lines = ", ".join("[" + ", ".join(r) + "]" for r in cells)
            expected = (f'{{"manifest": {cli._emit_json_value(manifest)}, '
                        f'"columns": {cli._emit_json_value(list(cli._CHART_COLUMNS))}, '
                        f'"rows": [{lines}]}}\n')
            assert len(json.loads(text)["rows"]) == x_count * y_points
        assert_same_rows(text, expected, "\n" if fmt == "csv" else "], [")


@pytest.mark.parametrize("out", ["o.csv", "-"])
@pytest.mark.parametrize("failing_call, error", [
    (0, RuntimeError), (1, RuntimeError), (1, MemoryError), (1, KeyboardInterrupt)])
def test_failure_while_rendering_leaves_no_file(tmp_path, monkeypatch, capsys,
                                                failing_call, error, out):
    """A table is rendered as it is written. A piece iterator that fails after
    its first piece, in the dump (call 0) or in the table of three pieces
    (call 1, once the dump's temp is whole), leaves no target, no manifest
    and no temp file, also when the table goes to stdout: there the dump is
    renamed into place only after the table is written. An exception fails
    the run with exit 1; an interrupt is raised again."""
    original, calls = cli._format_rows, []

    def format_rows(*args, **kwargs):
        calls.append(args)
        pieces = original(*args, **kwargs)
        yield next(pieces)
        if len(calls) - 1 == failing_call:
            raise error("rendering failed")
        yield from pieces
    monkeypatch.setattr(cli, "_format_rows", format_rows)
    monkeypatch.chdir(tmp_path)
    argv = ["gates", "--set", "dump_matrix=m.csv", "--set", "sweep_key=alpha",
            "--set", "sweep_range=0,1,1201", "--out", out]
    if error is KeyboardInterrupt:
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    else:
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "gate_check: computation failed: rendering failed\n"
        # on stdout, the header and the first piece of the table came before
        assert captured.out.startswith("alpha,") == (out == "-" and failing_call == 1)
    assert len(calls) == failing_call + 1
    assert list(tmp_path.iterdir()) == []


def test_failure_to_write_stdout_renames_no_dump(tmp_path, monkeypatch, capsys):
    """Standard output that cannot be written fails the run with exit 2,
    naming it, before the dump file is renamed into place."""
    class BrokenStdout:
        def writelines(self, pieces):
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "stdout", BrokenStdout())
    assert main(["gates", "--set", "dump_matrix=m.csv", "--out", "-"]) == 2
    assert capsys.readouterr().err == (
        f"gate_check: cannot write standard output: {os.strerror(errno.EPIPE)}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("sets, fmt, bound", [
    # a 20 MB chart: its peak is below the size of its text
    (("x_count=200", "y_points=1000"), "json", 1.0),
    # a 7 MB sweep: the Python lists of its columns come close to the text
    (("sweep_key=k", "sweep_range=-1,2,100000"), "csv", 2.0)])
def test_a_run_holds_its_arrays_not_its_text(tmp_path, sets, fmt, bound):
    """The traced peak of a run that writes a large table, measured with
    tracemalloc (deterministic, unlike RSS), stays below a bound in units of
    the size of the file it writes: its text is written piece by piece as
    it is rendered, so no run holds all of it."""
    out = tmp_path / "out"
    argv = ["source", "--format", fmt, "--out", str(out)]
    argv += [a for pair in sets for a in ("--set", pair)]
    peak = traced_peak(argv)
    assert peak < bound * out.stat().st_size, (peak, out.stat().st_size)


def traced_peak(argv) -> int:
    """The tracemalloc peak of main(argv), which must succeed."""
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_twoqubit_sweep_solves_its_points_in_chunks(tmp_path):
    """The stacked eigen solve of a 20,000-step sweep holds the (n, 4, 4)
    arrays of a few thousand points at a time, not of every point: one
    stack of them all peaked at 8.8 times the size of the file written."""
    out = tmp_path / "out"
    peak = traced_peak(["twoqubit", "--out", str(out), "--set", "sweep_key=k",
                        "--set", "sweep_range=0,2,20000"])
    assert peak < 4.0 * out.stat().st_size, (peak, out.stat().st_size)


# One process, the same parser: each option present in one call and absent
# in the next, targets interleaved.
REUSED_PARSER_RUNS = [
    ["gates", "--config", "{tmp}/gates.cfg", "--set", "alpha=0.5",
     "--format", "json", "--out", "{out}"],
    ["gates"],
    ["channel", "--set", "n_points=401", "--set", "include_vc=1",
     "--set", "coulomb_k=0.3", "--format", "json"],
    ["channel", "--config", "{tmp}/channel.cfg", "--out", "{out}"],
    ["source", "--set", "x_count=2", "--set", "y_points=5", "--out", "{out}"],
    ["source", "--format", "json"],
    ["gates", "--set", "alpha=2", "--set", "sweep_key=alpha",
     "--set", "sweep_range=0,1,3"],
    ["twoqubit", "--config", "{tmp}/twoqubit.cfg", "--format", "json"],
    ["twoqubit"],
]


def test_reused_parser_matches_fresh_processes(tmp_path):
    (tmp_path / "gates.cfg").write_text("alpha=1.0\n")
    (tmp_path / "channel.cfg").write_text("n_points=201\niterations=2\n")
    (tmp_path / "twoqubit.cfg").write_text("k=1.5\ncoulomb_k=0.2\n")

    def argv(i, where):
        return [a.format(tmp=tmp_path, out=tmp_path / f"{where}{i}.out")
                for a in REUSED_PARSER_RUNS[i]]

    def primary(i, where, stdout):
        path = tmp_path / f"{where}{i}.out"
        return path.read_bytes() if path.exists() else stdout

    in_process = []
    for i in range(len(REUSED_PARSER_RUNS)):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv(i, "reused")) == 0
        in_process.append(primary(i, "reused", out.getvalue().encode()))
    assert cli._parser() is cli._parser()
    for i, expected in enumerate(in_process):
        proc = run_fresh(argv(i, "fresh"))
        assert proc.returncode == 0, proc.stderr
        assert primary(i, "fresh", proc.stdout) == expected, REUSED_PARSER_RUNS[i]


def reference_value(v, as_json):
    if isinstance(v, bool):
        return ("true" if v else "false") if as_json else ("1" if v else "0")
    if isinstance(v, int):
        return str(v)
    return format(v, ".17g")


def reference_json(v):
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {reference_json(x)}"
                               for k, x in v.items()) + "}"
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(reference_json(x) for x in v) + "]"
    return reference_value(v, True)


RENDER_CASES = [
    ["source"],
    # y values printed in exponent form, and the smallest chart
    ["source", "--set", "y_min=-3e-5", "--set", "y_max=3e-5", "--set", "y_points=7"],
    ["source", "--set", "x_count=1", "--set", "y_points=3"],
    ["source", "--set", "sweep_key=alpha_r", "--set", "sweep_range=0,1,4"],
    ["channel", "--set", "n_points=401"],
    ["channel", "--set", "n_points=401", "--set", "sweep_key=g",
     "--set", "sweep_range=0.8,1.2,3"],
    ["twoqubit"],
    ["twoqubit", "--set", "sweep_key=k", "--set", "sweep_range=0,2,3"],
    ["gates"],
    ["gates", "--set", "sweep_key=alpha", "--set", "sweep_range=0,6.283185307179586,5"],
]


def chart_points(args):
    """The (x, y) floats of a chart's rows, row-major, from its --set pairs
    (x_count interior cross-sections l_x (i + 1) / (x_count + 1), y on the
    uniform grid), and the energies that chart_delta_e gives them."""
    r = {"x_count": 5, "y_min": -2.0, "y_max": 2.0, "y_points": 21,
         **dataclasses.asdict(SourceParams())}
    for pair in (args[i + 1] for i, a in enumerate(args) if a == "--set"):
        key, value = pair.split("=")
        r[key] = type(r[key])(value)
    n = r["x_count"]
    xs = [r["l_x"] * (i + 1) / (n + 1) for i in range(n)]
    ys = np.linspace(r["y_min"], r["y_max"], r["y_points"]).tolist()
    p = SourceParams(**{f.name: r[f.name] for f in dataclasses.fields(SourceParams)})
    s = chart_delta_e(p, xs, Grid1D(r["y_min"], r["y_max"], r["y_points"]))
    return [(x, y) for x in xs for y in ys], s


def test_row_templates_match_per_value_formatting(tmp_path, monkeypatch):
    """Every target, defaults and one sweep, CSV and JSON: the rendered text
    equals a per-value format(v, ".17g") rendering of the same table, the
    columns that _format_rows renders. A chart renders its rows from the
    texts of its grid values and of each x block's delta_e, without
    _format_rows: its reference is chart_delta_e's floats at the grid
    points, every cell of them."""
    calls = {"_format_rows": [], "_render_csv": [], "_render_json": []}
    for name, recorded in calls.items():
        original = getattr(cli, name)

        def recording(*args, _original=original, _recorded=recorded, **kwargs):
            _recorded.append((args, kwargs))
            return _original(*args, **kwargs)
        monkeypatch.setattr(cli, name, recording)
    kinds = set()
    for i, args in enumerate(RENDER_CASES):
        for fmt in ("csv", "json"):
            out = tmp_path / f"{i}.{fmt}"
            for recorded in calls.values():
                recorded.clear()
            assert main(args + ["--format", fmt, "--out", str(out)]) == 0
            (table_args, kwargs), = calls["_render_" + fmt]
            if calls["_format_rows"]:
                ((columns, *_), _), = calls["_format_rows"]
                rows = list(zip(*(c.tolist() if isinstance(c, np.ndarray) else c
                                  for c in columns)))
            else:
                assert args[0] == "source" and "sweep_key" not in " ".join(args)
                points, s = chart_points(args)
                rows = [xy + r for xy, r in zip(points, zip(
                    s.e_up.tolist(), s.e_down.tolist(), s.delta_e.tolist()))]
            if fmt == "csv":
                columns = table_args[0]
                expected = "".join(
                    ",".join(line) + "\n" for line in
                    [columns] + [[reference_value(v, False) for v in r] for r in rows])
            else:
                manifest, columns = table_args[:2]
                head = {"manifest": {
                    "input_hash": manifest["input_hash"],
                    "resolved_parameters": dict(sorted(
                        manifest["resolved_parameters"].items())),
                    "tool_version": manifest["tool_version"]}}
                if kwargs.get("report") is not None:
                    payload = {**head, "report": kwargs["report"]}
                    rows = []
                else:
                    payload = {**head, "columns": list(columns),
                               "rows": [list(r) for r in rows]}
                expected = reference_json(payload) + "\n"
            kinds.update(type(v) for r in rows for v in r)
            assert out.read_text(encoding="utf-8") == expected, (args, fmt)
    assert {bool, int, float} <= kinds and str not in kinds


_IMPORT_PROBE = """
import json, os, sys
from entangler.cli import main
out = sys.argv[1]
codes = {c: main([c, "--out", os.path.join(out, c + ".csv")])
         for c in ("source", "channel", "twoqubit", "gates")}
print(json.dumps({"codes": codes, "scipy": sorted(
    m for m in sys.modules if m.split(".")[0] == "scipy"),
    "openssl": "_hashlib" in sys.modules}))
"""


@pytest.fixture(scope="module")
def all_targets_in_one_process(tmp_path_factory):
    """Modules loaded after every target ran once in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE,
                           str(tmp_path_factory.mktemp("probe"))],
                          env=child_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == {"source": 0, "channel": 0, "twoqubit": 0,
                               "gates": 0}
    return result


def test_no_scipy_module_loaded_by_any_target(all_targets_in_one_process):
    assert all_targets_in_one_process["scipy"] == []


def test_openssl_not_loaded_by_any_target(all_targets_in_one_process):
    # the manifest hash uses CPython's built-in SHA-256, not hashlib's OpenSSL
    assert all_targets_in_one_process["openssl"] is False


_COLD_PROBE = """
import contextlib, io, json, os, sys
from entangler.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(sys.argv[1:])
threads = os.listdir("/proc/self/task") if os.path.isdir("/proc/self/task") else None
print(json.dumps({"code": code, "modules": sorted(sys.modules),
                  "openblas": os.environ.get("OPENBLAS_NUM_THREADS"),
                  "threads": threads and len(threads)}))
"""


def cold_start(args, openblas=None) -> dict:
    """One command in a fresh interpreter, OPENBLAS_NUM_THREADS unset or set
    to openblas: its exit code, the modules it loaded and what it saw."""
    env = child_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if openblas is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas
    proc = subprocess.run([sys.executable, "-c", _COLD_PROBE, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("command, module", [
    ("source", "source_spectrum"), ("channel", "channel_qlm"),
    ("twoqubit", "twoqubit_channel"), ("gates", "gates")])
def test_cold_command_loads_only_its_target_module(command, module):
    """A fresh run imports numerics and its own library module, no other, and
    starts numpy with one OpenBLAS thread: no worker pool beside it."""
    result = cold_start([command])
    assert result["code"] == 0
    assert {m for m in result["modules"] if m.startswith("entangler")} == {
        "entangler", "entangler.cli", f"entangler.{module}", "entangler.numerics"}
    assert result["openblas"] == "1"
    assert result["threads"] in (None, 1)


def test_cold_command_keeps_the_callers_openblas_setting():
    assert cold_start(["gates"], openblas="2")["openblas"] == "2"


_DISPATCH_PROBE = """
import contextlib, io, json, sys
import numpy as np
from entangler.cli import main
from entangler.numerics import erfcx
outputs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        outputs.append([main(argv), out.getvalue()])
outputs.append(erfcx(np.linspace(-26.0, 26.0, 200_001)).tobytes().hex())
print(json.dumps(outputs))
"""


def test_source_and_twoqubit_bytes_do_not_depend_on_simd_dispatch():
    """The source and twoqubit outputs, and erfcx, are the same bytes when
    numpy dispatches to none of its optional SIMD kernels: erfcx and the
    source log term take libm's exp and log per sample, whose last bit,
    unlike np.exp's and np.log's, does not depend on them."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    present = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    if not present:
        pytest.skip("numpy dispatches to no optional SIMD kernel on this CPU")
    # the 50 x 401 chart holds log arguments where np.log's kernels differ
    runs = [["source"], ["source", "--format", "json"],
            ["source", "--set", "x_count=50", "--set", "y_points=401"],
            ["source", "--set", "sweep_key=l_x", "--set", "sweep_range=2,4,41"],
            ["twoqubit", "--format", "json"],
            ["twoqubit", "--set", "sweep_key=k", "--set", "sweep_range=0,2,41"]]
    outputs = []
    for disabled in ("", " ".join(present)):
        env = child_env()
        env.pop("NPY_ENABLE_CPU_FEATURES", None)
        env["NPY_DISABLE_CPU_FEATURES"] = disabled
        proc = subprocess.run([sys.executable, "-c", _DISPATCH_PROBE, json.dumps(runs)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(json.loads(proc.stdout.splitlines()[-1]))
    assert [code for code, _ in outputs[0][:-1]] == [0] * len(runs)
    assert outputs[1] == outputs[0]


def test_package_import_loads_no_submodule_until_used():
    probe = ("import json, sys, entangler\n"
             "before = sorted(m for m in sys.modules if m.startswith(('entangler', 'numpy')))\n"
             "from entangler import channel_qlm\n"
             "print(json.dumps([before, entangler.gates is sys.modules['entangler.gates'],\n"
             "                  channel_qlm is sys.modules['entangler.channel_qlm']]))")
    proc = subprocess.run([sys.executable, "-c", probe], env=child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [["entangler"], True, True]


def test_package_names_no_module_it_does_not_have():
    import entangler
    with pytest.raises(AttributeError, match="no attribute 'cli_main'"):
        entangler.cli_main


# Property tests of the README contracts. Only the size keys (n_points,
# y_points, x_count, iterations, sweep steps) are bounded, to keep them fast.
PROPERTY_SETTINGS = settings(derandomize=True, max_examples=100, deadline=None)

COMMANDS = ("source", "channel", "twoqubit", "gates")
ENUMS = {"potential": ("quartic", "harmonic"),
         "wave_direction": ("along_y", "along_x")}


def finite(**bounds):
    return st.floats(allow_nan=False, allow_infinity=False, **bounds)


NON_POSITIVE = finite(max_value=0.0)
NEGATIVE = finite(max_value=0.0, exclude_max=True).filter(lambda v: v < 0)
WORD = st.text("abcdefghijklmnopqrstuvwxyz_", max_size=12)

# Values outside each key's domain, with the other keys at their defaults
# (y_min = -2, y_max = 2, l_x = pi, reg_delta = 1e-3).
OUT_OF_DOMAIN = {
    "source": dict(
        m_eff=NON_POSITIVE, omega=NON_POSITIVE, r_coulomb=NON_POSITIVE,
        beta=NEGATIVE, alpha_r=NEGATIVE, l_x=finite(max_value=0.01),
        reg_delta=st.one_of(NON_POSITIVE, finite(min_value=math.pi / 10)),
        y_min=finite(min_value=2.0), y_max=finite(max_value=-2.0),
        x_count=st.integers(max_value=0), y_points=st.integers(max_value=2)),
    "channel": dict(
        m_eff=NON_POSITIVE, omega=NON_POSITIVE, a=NON_POSITIVE,
        fermi_l=NON_POSITIVE, coulomb_k=NEGATIVE, g=NEGATIVE,
        # too few points, or n_points * iterations above 1e6 (with the other
        # at its default of 4001 points or 3 iterations): exit 2 before any
        # array is made, so 10**12 points are safe here
        n_points=st.one_of(st.integers(max_value=2), st.integers(min_value=333_334),
                           st.just(10 ** 12)),
        iterations=st.one_of(st.integers(max_value=0), st.integers(min_value=250)),
        potential=WORD.filter(lambda w: w not in ENUMS["potential"])),
    "twoqubit": dict(
        m_eff=NON_POSITIVE, omega=NON_POSITIVE, a_b=NON_POSITIVE,
        fermi_l=NON_POSITIVE, alpha_r=NEGATIVE, coulomb_k=NEGATIVE,
        wave_direction=WORD.filter(lambda w: w not in ENUMS["wave_direction"]),
        **{"lambda": NON_POSITIVE}),
    "gates": {},
}


def bad_settings():
    non_finite = st.sampled_from(["nan", "inf", "-inf", "-NaN", "Infinity"])
    cases = [st.tuples(st.just(c), st.just(k), non_finite)
             for c in COMMANDS for k in FLOAT_KEYS[c]]
    cases += [st.tuples(st.just(c), st.just(k), values.map(str))
              for c in COMMANDS for k, values in OUT_OF_DOMAIN[c].items()]
    return st.one_of(cases)


def run_main(args):
    """main(args) with standard error captured: (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(args)
    return rc, err.getvalue()


@PROPERTY_SETTINGS
@given(bad_settings())
def test_property_bad_value_exits_two_naming_key(case):
    command, key, value = case
    with tempfile.TemporaryDirectory() as tmp:
        rc, err = run_main([command, "--set", f"{key}={value}",
                            "--out", os.path.join(tmp, "out.csv")])
        assert rc == 2, err
        assert re.search(rf"\b{re.escape(key)}\b", err), err
        assert os.listdir(tmp) == []


def in_domain_settings(command):
    """Config lines for one command, mostly inside every key's domain."""
    positive = finite(min_value=0.05, max_value=20.0)
    keys = {
        "source": dict(m_eff=positive, omega=positive, r_coulomb=positive,
                       beta=finite(min_value=0.0, max_value=5.0),
                       alpha_r=finite(min_value=0.0, max_value=2.0),
                       l_x=finite(min_value=0.5, max_value=10.0),
                       k=finite(min_value=-5.0, max_value=5.0),
                       reg_delta=finite(min_value=1e-4, max_value=0.04),
                       y_min=finite(min_value=-3.0, max_value=-0.1),
                       y_max=finite(min_value=0.1, max_value=3.0),
                       x_count=st.integers(1, 3), y_points=st.integers(3, 9)),
        "channel": dict(m_eff=positive, omega=positive, a=positive,
                        fermi_l=positive,
                        coulomb_k=finite(min_value=0.0, max_value=2.0),
                        g=finite(min_value=0.0, max_value=5.0),
                        include_vc=st.integers(0, 1),
                        potential=st.sampled_from(ENUMS["potential"]),
                        n_points=st.integers(101, 301),
                        iterations=st.integers(1, 3)),
        "twoqubit": dict(m_eff=positive, omega=positive, a_b=positive,
                         fermi_l=positive,
                         k=finite(min_value=-5.0, max_value=5.0),
                         alpha_r=finite(min_value=0.0, max_value=2.0),
                         coulomb_k=finite(min_value=0.0, max_value=2.0),
                         wave_direction=st.sampled_from(ENUMS["wave_direction"]),
                         **{"lambda": positive}),
        "gates": dict(alpha=finite(min_value=-20.0, max_value=20.0)),
    }[command]
    return st.fixed_dictionaries({}, optional=keys).map(
        lambda d: [f"{k}={v}" for k, v in d.items()])


def sweep_settings(command, value=None):
    if value is None:
        value = finite(min_value=0.05, max_value=5.0)
    return st.one_of(st.just([]), st.tuples(
        st.sampled_from(SWEEPABLE[command]), value, value,
        st.integers(1, 4)).map(lambda t: [
            f"sweep_key={t[0]}",
            f"sweep_range={min(t[1], t[2])!r},{max(t[1], t[2])!r},{t[3]}"]))


@st.composite
def valid_configs(draw):
    command = draw(st.sampled_from(COMMANDS))
    lines = draw(in_domain_settings(command)) + draw(sweep_settings(command))
    return command, lines, draw(st.sampled_from(("csv", "json")))


@PROPERTY_SETTINGS
@given(valid_configs())
def test_property_manifest_reproduces_output(case):
    command, lines, fmt = case
    with tempfile.TemporaryDirectory() as tmp:
        first = os.path.join(tmp, "first")
        args = [command, "--format", fmt, "--out", first]
        rc, _ = run_main(args + [a for line in lines for a in ("--set", line)])
        assume(rc == 0)
        with open(first + ".manifest.json", encoding="utf-8") as fh:
            params = json.load(fh)["resolved_parameters"]
        config = os.path.join(tmp, "replay.cfg")
        with open(config, "w", encoding="utf-8") as fh:
            fh.writelines(f"{k}={v}\n" for k, v in params.items())
        again = os.path.join(tmp, "again")
        assert run_main([command, "--config", config, "--out", again])[0] == 0
        assert Path(first).read_bytes() == Path(again).read_bytes()


@PROPERTY_SETTINGS
@given(valid_configs())
def test_property_config_file_and_set_flags_run_alike(case):
    """The same key=value lines, as a --config file and as --set flags, are
    the same run: byte-identical output and the same input_hash."""
    command, lines, fmt = case
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "run.cfg")
        with open(config, "w", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for line in lines)
        outs = [os.path.join(tmp, name) for name in ("from_file", "from_set")]
        results = [
            run_main([command, "--config", config, "--format", fmt, "--out", outs[0]]),
            run_main([command, *(a for line in lines for a in ("--set", line)),
                      "--format", fmt, "--out", outs[1]])]
        assert results[0] == results[1]
        assume(results[0][0] == 0)
        first, second = (Path(out).read_bytes() for out in outs)
        assert first == second
        hashes = [json.loads(Path(out + ".manifest.json").read_text())["input_hash"]
                  for out in outs]
        assert hashes[0] == hashes[1]


@st.composite
def twoqubit_configs(draw):
    """Every float key 0 or of magnitude in [1e-6, 1e6], within the sign its
    domain allows; lambda often within a few floats of sqrt(2) fermi_l."""
    magnitude = finite(min_value=1e-6, max_value=1e6)
    signs = {"k": st.one_of(st.just(0.0), magnitude, magnitude.map(lambda v: -v)),
             "alpha_r": st.one_of(st.just(0.0), magnitude),
             "coulomb_k": st.one_of(st.just(0.0), magnitude)}
    values = {key: draw(signs.get(key, magnitude)) for key in FLOAT_KEYS["twoqubit"]}
    if draw(st.booleans()):
        lam = math.sqrt(2.0) * values["fermi_l"]
        for _ in range(draw(st.integers(0, 3))):
            lam = math.nextafter(lam, 0.0)
        values["lambda"] = lam
    lines = [f"{k}={v!r}" for k, v in values.items()]
    return lines + [f"wave_direction={draw(st.sampled_from(ENUMS['wave_direction']))}"]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(twoqubit_configs())
@example(["fermi_l=0.7", "lambda=0.9899494936611665", "coulomb_k=0.5"])
@example(["fermi_l=0.001", "lambda=0.001414213562373095", "coulomb_k=0.5"])
def test_property_twoqubit_in_domain_succeeds(lines):
    """A twoqubit config either fails a domain check (exit 2) or succeeds:
    no float key in 0 or [1e-6, 1e6] in magnitude makes it exit 1."""
    with tempfile.TemporaryDirectory() as tmp:
        sets = [a for line in lines for a in ("--set", line)]
        rc, err = run_main(["twoqubit", "--out", os.path.join(tmp, "out.csv")]
                           + sets)
        assert rc in (0, 2), err


@st.composite
def source_sweeps(draw):
    """(params, k range): every float key of magnitude in [1e-100, 1e100],
    log-uniform (beta and alpha_r may be 0), l_x and reg_delta the larger
    and the smaller of two such, and a 2-point k sweep of either sign."""
    magnitude = st.floats(-100.0, 100.0).map(lambda e: 10.0 ** e)
    signed = st.builds(lambda v, sign: sign * v, magnitude, st.sampled_from([1.0, -1.0]))
    params = {key: draw(magnitude) for key in ("m_eff", "omega", "r_coulomb")}
    for key in ("beta", "alpha_r"):
        params[key] = draw(st.one_of(st.just(0.0), magnitude))
    params["reg_delta"], params["l_x"] = sorted([draw(magnitude), draw(magnitude)])
    return params, tuple(sorted([draw(signed), draw(signed)]))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(source_sweeps())
def test_property_source_in_domain_succeeds(case):
    """A source sweep either fails a domain check (exit 2) or succeeds;
    it exits 1 only where an entry of a point's matrix is not finite, and
    where it succeeds every delta_e is 2 |alpha_r k|."""
    params, (start, stop) = case
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.csv")
        sets = [a for k, v in params.items() for a in ("--set", f"{k}={v!r}")]
        rc, err = run_main(["source", "--out", out, *sets, "--set", "sweep_key=k",
                            "--set", f"sweep_range={start!r},{stop!r},2"])
        if rc == 0:
            rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
            assert_within_2_ulp(rows[:, -1], 2.0 * np.abs(params["alpha_r"] * rows[:, 0]))
    if rc == 1:
        ks = np.array([start, start + (stop - start)])  # the values the CLI sweeps
        h = build_hmatrix(SourceParams(**params, k=ks))
        assert not all(np.isfinite(v).all() for v in (h.h11, h.h12, h.h21, h.h22)), err
        assert err.endswith(": computation failed: non-finite e_up\n"), err
    else:
        assert rc in (0, 2), err


OTHER_KEYS = {"source": ("x_count", "y_points"),
              "channel": ("include_vc", "potential", "n_points", "iterations",
                          "dump_l"),
              "twoqubit": ("wave_direction",),
              "gates": ("dump_matrix",)}


def any_value(key):
    """Any finite value of the key's type; the size keys are bounded."""
    sizes = {"n_points": st.integers(-2, 301), "y_points": st.integers(-2, 30),
             "x_count": st.integers(-2, 5), "iterations": st.integers(-2, 4)}
    if key in sizes:
        return sizes[key]
    if key in ENUMS:
        return st.one_of(st.sampled_from(ENUMS[key]), WORD)
    if key in ("dump_l", "dump_matrix"):
        return st.sampled_from(["", "{tmp}/dump.txt"])
    if key == "include_vc":
        return st.integers()
    return finite()


@st.composite
def finite_configs(draw):
    command = draw(st.sampled_from(COMMANDS))
    keys = draw(st.lists(st.sampled_from(FLOAT_KEYS[command] + OTHER_KEYS[command]),
                         unique=True))
    lines = [f"{k}={draw(any_value(k))!r}" if k in FLOAT_KEYS[command]
             else f"{k}={draw(any_value(k))}" for k in keys]
    return command, lines + draw(sweep_settings(command, finite()))


@PROPERTY_SETTINGS
@given(finite_configs())
@example(("channel", ["m_eff=1e300"]))
@example(("channel", ["omega=1e150", "a=1e-75"]))
def test_property_finite_config_exits_cleanly(case):
    command, lines = case
    with tempfile.TemporaryDirectory() as tmp:
        sets = [a for line in lines for a in ("--set", line.format(tmp=tmp))]
        rc, err = run_main([command, "--out", os.path.join(tmp, "out.csv")] + sets)
        assert rc in (0, 1, 2)
        assert "Traceback" not in err
        if rc != 0:
            assert os.listdir(tmp) == [], err
        elif command == "channel":  # exit 0 means the full table
            values = dict(line.split("=", 1) for line in lines)
            points = int(values.get("sweep_range", "0,0,1").split(",")[2])
            rows = Path(tmp, "out.csv").read_text().splitlines()[1:]
            assert len(rows) == points * int(values.get("iterations", 3)), err
