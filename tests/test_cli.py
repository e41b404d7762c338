import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from entangler import cli
from entangler.cli import (MAX_CHART_POINTS, MAX_SWEEP_STEPS, ConfigError,
                           SweepSpec, main, parse_config, run)

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

    def test_sweep_steps_cap(self):
        base = "target=gate_check\nsweep_key=alpha\nsweep_range=0,1,"
        assert parse_config(f"{base}{MAX_SWEEP_STEPS}").sweep_range[2] == MAX_SWEEP_STEPS
        with pytest.raises(ConfigError, match="sweep_range"):
            parse_config(f"{base}{MAX_SWEEP_STEPS + 1}")

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

    def test_twoqubit_json_report_fields(self, tmp_path):
        out = tmp_path / "report.json"
        spec = parse_config("target=twoqubit_eigen\nformat=json")
        spec.output_path = str(out)
        assert run(spec) == 0
        report = json.loads(out.read_text())["report"]
        assert set(report) >= {"h0", "hr", "claimed_eigenvalues",
                               "numeric_eigenvalues", "residuals",
                               "hermitian", "degenerate"}

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

    def test_computation_error_exit_one(self, tmp_path, capsys):
        # y grid too short for the requested slope: module-level failure
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

    def test_invalid_sweep_key_exits_two_without_output(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        rc = main(["source", "--set", "sweep_key=bogus",
                   "--set", "sweep_range=0,1,2", "--out", str(out)])
        assert rc == 2
        assert not out.exists()

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
    ])
    def test_write_failure_exits_two_and_creates_no_file(
            self, tmp_path, monkeypatch, capsys, args, out, failing):
        monkeypatch.chdir(tmp_path)
        assert main(args + ["--out", out]) == 2
        assert f"cannot write {failing}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_fig2_style_chart_is_well_formed(self, tmp_path):
        out = tmp_path / "chart.csv"
        rc = main(["source", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,y,e_up,e_down,delta_e"
        rows = [list(map(float, line.split(","))) for line in lines[1:]]
        assert len(rows) == 5 * 21
        assert all(r[4] >= 0.0 for r in rows)


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
    ["source", "--set", "sweep_key=alpha_r", "--set", "sweep_range=0,1,4"],
    ["channel", "--set", "n_points=401"],
    ["channel", "--set", "n_points=401", "--set", "sweep_key=g",
     "--set", "sweep_range=0.8,1.2,3"],
    ["twoqubit"],
    ["twoqubit", "--set", "sweep_key=k", "--set", "sweep_range=0,2,3"],
    ["gates"],
    ["gates", "--set", "sweep_key=alpha", "--set", "sweep_range=0,6.283185307179586,5"],
]


def test_row_templates_match_per_value_formatting(tmp_path, monkeypatch):
    """Every target, defaults and one sweep, CSV and JSON: the rendered text
    equals a per-value format(v, ".17g") rendering of the same table."""
    tables = []
    for name in ("_render_csv", "_render_json"):
        original = getattr(cli, name)

        def recording(*args, _original=original, **kwargs):
            tables.append((args, kwargs))
            return _original(*args, **kwargs)
        monkeypatch.setattr(cli, name, recording)
    kinds = set()
    for i, args in enumerate(RENDER_CASES):
        for fmt in ("csv", "json"):
            out = tmp_path / f"{i}.{fmt}"
            tables.clear()
            assert main(args + ["--format", fmt, "--out", str(out)]) == 0
            (table_args, kwargs), = tables
            if fmt == "csv":
                columns, rows = table_args
                expected = "".join(
                    ",".join(line) + "\n" for line in
                    [columns] + [[reference_value(v, False) for v in r] for r in rows])
            else:
                manifest, columns, rows = table_args
                head = {"manifest": {
                    "input_hash": manifest.input_hash,
                    "resolved_parameters": dict(sorted(
                        manifest.resolved_parameters.items())),
                    "tool_version": manifest.tool_version}}
                if kwargs.get("report") is not None:
                    payload = {**head, "report": kwargs["report"]}
                    rows = []
                else:
                    payload = {**head, "columns": list(columns),
                               "rows": [list(r) for r in rows]}
                expected = reference_json(payload) + "\n"
            kinds.update(type(v) for r in rows for v in r)
            assert out.read_text(encoding="utf-8") == expected, (args, fmt)
    assert {bool, int, float} <= kinds


_IMPORT_PROBE = """
import json, os, sys
from entangler.cli import main
out = sys.argv[1]
codes = {c: main([c, "--out", os.path.join(out, c + ".csv")])
         for c in ("source", "channel", "twoqubit")}
before = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
codes["gates"] = main(["gates", "--out", os.path.join(out, "gates.csv")])
print(json.dumps({"codes": codes, "scipy_before_gates": before,
                  "linalg_after_gates": "scipy.linalg" in sys.modules}))
"""


def test_scipy_linalg_loaded_only_by_gates(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == {"source": 0, "channel": 0, "twoqubit": 0,
                               "gates": 0}
    assert result["scipy_before_gates"] == []
    assert result["linalg_after_gates"] is True
