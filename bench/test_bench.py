"""Tests of the benchmark itself: python3 -m pytest bench -q

Each check must pass on the program's real output and reject that output
once one value is perturbed; the input generator must be a pure function
of (workload, seed) that keeps the shape of a round fixed.
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

import checks
import inputs
import run

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from entangler import cli  # noqa: E402


# ------------------------------------------------------------- generator

@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert inputs.round_ops(workload, 7) == inputs.round_ops(workload, 7)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_other_seed_other_inputs_same_shape(workload):
    a, b = inputs.round_ops(workload, 7), inputs.round_ops(workload, 8)
    assert a != b
    shape = [(op.command, op.fmt, op.expect_failure, op.rows()) for op in a]
    assert shape == [(op.command, op.fmt, op.expect_failure, op.rows()) for op in b]


def test_known_failures_do_not_depend_on_seed():
    for seed in range(5):
        failing = [op for op in inputs.round_ops("physics_sweep", seed)
                   if op.expect_failure]
        assert [op.settings for op in failing] == [inputs.KNOWN_FAILURE] * 2


def test_seeded_lambda_stays_below_failing_band():
    for seed in range(50):
        for op in inputs.round_ops("physics_sweep", seed):
            p = op.params()
            if op.command == "twoqubit" and not op.expect_failure:
                top = p["sweep_range"][1] if p["sweep_key"] == "lambda" else p["lambda"]
                assert top <= inputs.LAMBDA_MAX


def test_unknown_workload_rejected():
    with pytest.raises(ValueError):
        inputs.round_ops("nope", 1)


# ----------------------------------------------------------------- checks

def _produce(op: inputs.Op, tmp_path: Path) -> Path:
    out = tmp_path / f"out.{op.fmt}"
    assert cli.main(op.argv(str(out))) == 0
    return out


def _first(workload: str, command: str, fmt: str | None = None, sweep=None):
    for seed in range(20):
        for op in inputs.round_ops(workload, seed):
            p = op.params()
            if (op.command == command and not op.expect_failure
                    and (fmt is None or op.fmt == fmt)
                    and (sweep is None or p.get("sweep_key") == sweep)):
                return op
    raise LookupError(command)


def _edit_csv(path: Path, row: int, col: int, change) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = repr(change(float(cells[col])))
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _edit_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def _rejects(op, path):
    with pytest.raises(checks.CheckError):
        checks.check(op, str(path))


CASES = {
    # name: (workload, command, fmt, sweep key, perturbation of the output)
    "source_sweep_delta_e": ("physics_sweep", "source", "csv", "alpha_r",
                             lambda p: _edit_csv(p, 3, 3, lambda v: v + 1e-9)),
    "source_sweep_diagonal": ("physics_sweep", "source", "csv", "alpha_r",
                              lambda p: _edit_csv(p, 5, 1, lambda v: v + 1e-6)),
    "source_sweep_column": ("physics_sweep", "source", "csv", "alpha_r",
                            lambda p: _edit_csv(p, 2, 0, lambda v: v * (1 + 1e-12))),
    "chart_delta_e": ("cold_cli", "source", "csv", None,
                      lambda p: _edit_csv(p, 40, 4, lambda v: v * (1 + 1e-9))),
    "chart_sum": ("cold_cli", "source", "csv", None,
                  lambda p: _edit_csv(p, 7, 2, lambda v: v + 1e-9)),
    "chart_grid": ("cold_cli", "source", "csv", None,
                   lambda p: _edit_csv(p, 0, 1, lambda v: v + 1e-6)),
    "channel_far_from_fd": ("physics_sweep", "channel", "csv", "omega",
                            lambda p: _edit_csv(p, 2, 2, lambda v: v * 1.01)),
    "channel_gaps_grow": ("cold_cli", "channel", "csv", None,
                          lambda p: _edit_csv(p, 1, 1, lambda v: v * 1.2)),
    "twoqubit_sweep_h0": ("physics_sweep", "twoqubit", "csv", "lambda",
                          lambda p: _edit_csv(p, 4, 1, lambda v: v + 1e-6)),
    "twoqubit_sweep_eigenvalue": ("physics_sweep", "twoqubit", "csv", "lambda",
                                  lambda p: _edit_csv(p, 6, 6, lambda v: v + 1e-5)),
    "twoqubit_report_eigenvalue": (
        "cold_cli", "twoqubit", "json", None,
        lambda p: _edit_json(p, lambda d: d["report"]["numeric_eigenvalues"][2]
                             .__setitem__(0, d["report"]["numeric_eigenvalues"][2][0]
                                          + 1e-5))),
    "twoqubit_report_flag": (
        "cold_cli", "twoqubit", "json", None,
        lambda p: _edit_json(p, lambda d: d["report"].__setitem__("hermitian", True))),
    "gates_fidelity": ("gate_sweep", "gates", "csv", "alpha",
                       lambda p: _edit_csv(p, 9, 5, lambda v: v - 1e-9)),
    "gates_projector": ("gate_sweep", "gates", "csv", "alpha",
                        lambda p: _edit_csv(p, 11, 3, lambda v: 1e-11)),
    "gates_swap_flag": ("gate_sweep", "gates", "csv", "alpha",
                        lambda p: _edit_csv(p, 3, 1, lambda v: 1.0)),
    "gates_swap_flag_at_pi": ("gate_sweep", "gates", "json", "alpha",
                              lambda p: _edit_json(p, lambda d: d["rows"][20]
                                                   .__setitem__(1, False))),
    "gates_concurrence_json": ("gate_sweep", "gates", "json", "alpha",
                               lambda p: _edit_json(p, lambda d: d["rows"][4]
                                                    .__setitem__(7, 0.5))),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_check_accepts_real_output_and_rejects_perturbed(case, tmp_path):
    workload, command, fmt, sweep, perturb = CASES[case]
    op = _first(workload, command, fmt, sweep)
    out = _produce(op, tmp_path)
    checks.check(op, str(out))
    perturb(out)
    _rejects(op, out)


def test_gate_sweep_full_range_hits_pi():
    op = inputs.round_ops("gate_sweep", 3)[1]
    assert op.sweep()[20] == math.pi and op.fmt == "json"


def test_check_rejects_missing_row(tmp_path):
    op = _first("physics_sweep", "twoqubit", "csv", "lambda")
    out = _produce(op, tmp_path)
    lines = out.read_text(encoding="utf-8").splitlines()
    out.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    _rejects(op, out)


def test_check_rejects_manifest_mismatch(tmp_path):
    op = _first("chart_render", "source", "json")
    out = _produce(op, tmp_path)
    side = Path(f"{out}.manifest.json")
    doc = json.loads(side.read_text(encoding="utf-8"))
    doc["resolved_parameters"]["k"] = "2"
    side.write_text(json.dumps(doc), encoding="utf-8")
    _rejects(op, out)


def test_known_failure_output_would_be_checked(tmp_path):
    """Once the program handles lambda = 1.40, its single-point CSV is held
    to the same closed form as every other twoqubit run."""
    op = inputs.Op("twoqubit", inputs.KNOWN_FAILURE, "csv", expect_failure=True)
    p = op.params()
    h0 = checks.twoqubit_h0(p)
    out = tmp_path / "known.csv"
    header = "h0,hr_re,hr_im,max_residual,eigenvalue_set_distance,hermitian,degenerate"
    out.write_text(f"{header}\n{h0!r},0.2,0,1e-16,1e-16,0,0\n", encoding="utf-8")
    Path(f"{out}.manifest.json").write_text(json.dumps({
        "input_hash": "0" * 64,
        "resolved_parameters": {k: str(v) for k, v in op.settings}}),
        encoding="utf-8")
    checks.check(op, str(out))
    _edit_csv(out, 0, 0, lambda v: v * (1 + 1e-6))
    _rejects(op, out)


def test_known_failure_still_fails(tmp_path, capsys):
    op = inputs.Op("twoqubit", inputs.KNOWN_FAILURE)
    assert cli.main(op.argv(str(tmp_path / "x.csv"))) == 1
    assert "integrand not finite" in capsys.readouterr().err


# ------------------------------------------------------------ run loop

def test_checker_process_answers_rows_and_errors(tmp_path):
    op = inputs.round_ops("gate_sweep", 3)[1]
    out = _produce(op, tmp_path)
    checker = run.Checker("gate_sweep", 3)
    try:
        assert checker.check(1, out) == (41, "")
        _edit_json(out, lambda d: d["rows"][20].__setitem__(1, False))
        rows, error = checker.check(1, out)
        assert rows == 0 and "CheckError" in error
    finally:
        checker.close()
    assert checker.proc.returncode == 0


class _FailingRunner:
    """Every operation exits 1 at once, as a broken program might."""

    message = "boom"

    def __call__(self, op, index, out):
        return 1, 1e-4, 1e-4, None

    def take_round(self):
        return {}, {}

    def set_keep_spans(self, keep):
        pass


def test_unexpected_failure_is_incorrect_and_still_reported():
    ops = inputs.round_ops("physics_sweep", 1)
    samples, rounds, errors, correct = run.run_rounds(
        _FailingRunner(), ops, 0.0, None, checker=None)
    assert not correct
    assert len(errors) == sum(not op.expect_failure for op in ops)
    metrics = run.end_to_end(samples, rounds, [0.5], cold=False)
    assert metrics["latency_s_min"][0] == 1e-4
