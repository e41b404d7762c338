"""Independent checks of the program's outputs.

Nothing here imports the program. Each check recomputes what an output must
hold from the operation's own inputs, with closed forms, scipy routines or
properties the method must have, and raises CheckError on the first
mismatch. No stored copy of earlier output is compared against.

run.py starts this file as its checker process, so that the checks' imports
and arrays stay out of the process whose peak memory it measures:

    checks.py WORKLOAD SEED
        says ``{"ready": n}`` once its imports are done, then reads one
        ``index<TAB>path`` line per output of the round that
        inputs.round_ops(WORKLOAD, SEED) gives, checks it, and answers with
        one JSON line, ``{"rows": n}`` or ``{"error": message}``.
"""
from __future__ import annotations

import json
import math
import sys

import numpy as np
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal
from scipy.special import erfcx

from inputs import Op, round_ops

# Finite-difference reference: full line [-FD_HALF_WIDTH/sqrt(g), ...] with
# Dirichlet ends. The O(h^2) error at this size is ~1e-7 relative, far below
# the 1e-3 the check allows.
FD_POINTS = 6001
FD_HALF_WIDTH = 9.0
QLM_REL_TOL = 1e-3

GATE_COLUMNS = ("alpha", "swap_matches", "sqrt_swap_matches",
                "projector_max_dev", "exp_phase_fidelity", "cnot_fidelity",
                "cnot_bell_concurrence", "bell_concurrence_min")


class CheckError(AssertionError):
    """An output disagrees with its independent check."""


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _close(got, want, tol: float, what: str, scale=None) -> None:
    """|got - want| <= tol * scale elementwise; scale defaults to max(1, |want|)."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    _require(got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}")
    if scale is None:
        scale = np.maximum(1.0, np.abs(want))
    bad = ~(np.abs(got - want) <= tol * scale)
    if bad.any():
        i = int(np.argmax(bad.ravel()))
        raise CheckError(f"{what}: {got.ravel()[i]!r} vs expected "
                         f"{want.ravel()[i]!r} (tol {tol:g})")


# ---------------------------------------------------------------- parsing

def read_output(path: str, fmt: str):
    """Parse a primary output into (columns, rows) or, for a single-point
    twoqubit JSON run, (None, report)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    _require(text.endswith("\n"), f"{path}: output does not end with a newline")
    if fmt == "json":
        doc = json.loads(text)
        if "report" in doc:
            return None, doc["report"]
        return tuple(doc["columns"]), np.array(doc["rows"], dtype=float)
    lines = text.splitlines()
    columns = tuple(lines[0].split(","))
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return columns, rows.reshape(len(lines) - 1, len(columns))


def check_manifest(path: str, op: Op) -> None:
    """The sidecar records every setting the operation passed."""
    with open(path + ".manifest.json", "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    resolved = manifest["resolved_parameters"]
    _require(len(manifest["input_hash"]) == 64, "manifest input_hash is not sha256")
    for key, value in op.settings:
        got = resolved.get(key)
        _require(got is not None, f"manifest lacks {key}")
        if isinstance(value, tuple):
            start, stop, steps = (float(v) for v in got.split(","))
            _require((start, stop, steps) == (value[0], value[1], value[2]),
                     f"manifest {key} = {got!r}, passed {value!r}")
        elif isinstance(value, str):
            _require(got == value, f"manifest {key} = {got!r}, passed {value!r}")
        else:
            _require(float(got) == float(value),
                     f"manifest {key} = {got!r}, passed {value!r}")


def check(op: Op, path: str) -> int:
    """Check one operation's output file; returns its data row count."""
    columns, rows = read_output(path, op.fmt)
    check_manifest(path, op)
    checker = {"source": check_source, "channel": check_channel,
               "twoqubit": check_twoqubit, "gates": check_gates}[op.command]
    checker(op, columns, rows)
    count = 1 if columns is None else len(rows)
    _require(count == op.rows(), f"{count} rows, expected {op.rows()}")
    return count


def _swept(op: Op, rows: np.ndarray):
    """Per-row parameter dicts of a sweep, after checking its first column."""
    p = op.params()
    key = p["sweep_key"]
    _close(rows[:, 0], op.sweep(), 1e-15, f"{key} sweep column")
    return [{**p, key: v} for v in rows[:, 0]]


# ----------------------------------------------------------------- source

def source_log_coulomb(p: dict) -> float:
    """Regularized log-Coulomb expectation at y = 0 by scipy quad."""
    l_x, delta = p["l_x"], p["reg_delta"]

    def f(x):
        return (2.0 / l_x) * math.sin(math.pi * x / l_x) ** 2 * (
            -p["beta"] * math.log(max(x, delta) / p["r_coulomb"]))

    value, _ = quad(f, delta, l_x, epsabs=1e-13, epsrel=1e-13, limit=200)
    return value


def source_diagonal(p: dict) -> float:
    m, l_x = p["m_eff"], p["l_x"]
    return (math.pi ** 2 / (2.0 * m * l_x ** 2) + p["k"] ** 2 / (2.0 * m)
            + 0.5 * m * p["omega"] ** 2 * l_x ** 2 * (1.0 / 3.0 - 0.5 / math.pi ** 2)
            + source_log_coulomb(p))


def check_source(op: Op, columns, rows) -> None:
    p = op.params()
    if "sweep_key" in p:
        _require(columns == (p["sweep_key"], "e_up", "e_down", "delta_e"),
                 f"source sweep columns {columns}")
        params = _swept(op, rows)
        diag = np.array([source_diagonal(q) for q in params])
        split = np.array([2.0 * q["alpha_r"] * abs(q["k"]) for q in params])
        _close(rows[:, 3], split, 1e-12, "delta_e = 2 alpha_r |k|")
        _close(rows[:, 1] + rows[:, 2], 2.0 * diag, 1e-8, "e_up + e_down = 2 diag")
        _require(np.all(rows[:, 1] <= rows[:, 2]), "e_up above e_down")
        return
    _require(columns == ("x", "y", "e_up", "e_down", "delta_e"),
             f"source chart columns {columns}")
    n, l_x = p["x_count"], p["l_x"]
    xs = l_x * (np.arange(n) + 1) / (n + 1)
    ys = np.linspace(p["y_min"], p["y_max"], p["y_points"])
    x, y = np.repeat(xs, len(ys)), np.tile(ys, n)
    _require(len(rows) == len(x), f"chart has {len(rows)} rows, expected {len(x)}")
    _close(rows[:, 0], x, 1e-15, "chart x")
    _close(rows[:, 1], y, 1e-15, "chart y")
    weight = (2.0 / l_x) * np.sin(np.pi * x / l_x) ** 2
    m = p["m_eff"]
    dens = (math.pi ** 2 / (2.0 * m * l_x ** 2) + p["k"] ** 2 / (2.0 * m)
            + 0.5 * m * p["omega"] ** 2 * (x * x + y * y)
            - p["beta"] * np.log(np.maximum(np.abs(x - y), p["reg_delta"])
                                 / p["r_coulomb"])) * weight
    split = 2.0 * p["alpha_r"] * abs(p["k"]) * weight
    # delta_e is a difference of two energies of size |density|, so its
    # rounding error scales with the density, not with the splitting.
    _close(rows[:, 4], split, 1e-12,
           "delta_e = 2 alpha_r |k| (2/l_x) sin^2(pi x/l_x)",
           scale=np.maximum(np.abs(dens), 1.0))
    _close(rows[:, 2] + rows[:, 3], 2.0 * dens, 1e-12, "e_up + e_down = 2 density")


# ---------------------------------------------------------------- channel

def channel_potential(p: dict, y: np.ndarray) -> np.ndarray:
    m, omega, a = p["m_eff"], p["omega"], p["a"]
    v = (m * omega ** 2 / (8.0 * a * a)) * (y * y - a * a) ** 2
    if p["include_vc"]:
        fermi_l = p["fermi_l"]
        v = v + (math.sqrt(math.pi / 2.0) * p["coulomb_k"] / fermi_l
                 * erfcx(np.abs(y) / (math.sqrt(2.0) * fermi_l)))
    return v


def fd_ground_state(p: dict) -> float:
    """Lowest level of the symmetric channel by second-order differences.

    The screened term is even in y, so |y| is used on the negative side.
    """
    m = p["m_eff"]
    g = p["g"] or m * p["omega"]
    y = np.linspace(-FD_HALF_WIDTH / math.sqrt(g), FD_HALF_WIDTH / math.sqrt(g),
                    FD_POINTS + 2)[1:-1]
    h = y[1] - y[0]
    diag = 1.0 / (m * h * h) + channel_potential(p, y)
    off = np.full(FD_POINTS - 1, -0.5 / (m * h * h))
    return float(eigh_tridiagonal(diag, off, select="i", select_range=(0, 0),
                                  eigvals_only=True)[0])


def check_channel(op: Op, columns, rows) -> None:
    p = op.params()
    key = p.get("sweep_key")
    n_iter = p["iterations"]
    lead = (key,) if key else ()
    _require(columns == lead + ("n", "e_n"), f"channel columns {columns}")
    offset = len(lead)
    points = op.sweep() or [None]
    _require(len(rows) == len(points) * n_iter,
             f"{len(rows)} channel rows for {len(points)} points x {n_iter} iterates")
    for i, value in enumerate(points):
        block = rows[i * n_iter:(i + 1) * n_iter]
        q = dict(p)
        if key:
            _close(block[:, 0], [value] * n_iter, 1e-15, f"{key} column")
            q[key] = value
        _require(list(block[:, offset]) == list(range(1, n_iter + 1)),
                 f"iterate indices {block[:, offset]}")
        e_ref = fd_ground_state(q)
        gaps = np.abs(block[:, offset + 1] - e_ref) / abs(e_ref)
        _require(gaps[-1] <= QLM_REL_TOL,
                 f"last QLM iterate {block[-1, offset + 1]!r} is {gaps[-1]:.3g} "
                 f"from the FD ground state {e_ref!r}")
        _require(np.all(np.diff(gaps) < 0),
                 f"QLM gaps to the FD ground state do not shrink: {gaps}")


# --------------------------------------------------------------- twoqubit

def twoqubit_h0(p: dict) -> float:
    """Closed-form <H0>: zero point, plane wave, quartic moments and the
    Gaussian average of the screened Coulomb term,
    sqrt(pi/2) (k/l) / sqrt(1 - lam^2 / (2 l^2))."""
    m, lam, fermi_l = p["m_eff"], p["lambda"], p["fermi_l"]
    along_y = p.get("wave_direction", "along_y") == "along_y"
    h0 = (1.0 / (4.0 * m * lam ** 2)
          + (p["k"] ** 2 / (2.0 * m) if along_y else 0.0)
          + 3.0 * m * p["omega"] ** 2 * p["a_b"] ** 2 / 32.0)
    if p["coulomb_k"] > 0:
        h0 += (math.sqrt(math.pi / 2.0) * p["coulomb_k"] / fermi_l
               / math.sqrt(1.0 - lam ** 2 / (2.0 * fermi_l ** 2)))
    return h0


def twoqubit_hr(p: dict) -> complex:
    along_y = p.get("wave_direction", "along_y") == "along_y"
    return complex(p["alpha_r"] * p["k"]) if along_y else 0j


def pattern(h0: float, hr: complex) -> np.ndarray:
    return np.array([[h0, 0, hr, 0], [hr, 0, h0, 0],
                     [0, h0, 0, hr], [0, hr, 0, h0]], dtype=complex)


def _same_set(got, want, tol: float, what: str) -> None:
    got, want = np.asarray(got, dtype=complex), np.asarray(want, dtype=complex)
    dist = max(max(np.min(np.abs(want - g)) for g in got),
               max(np.min(np.abs(got - w)) for w in want))
    _require(dist <= tol * max(1.0, float(np.max(np.abs(want)))),
             f"{what}: set distance {dist:.3g}")


def check_twoqubit(op: Op, columns, rows) -> None:
    p = op.params()
    if columns is None:  # single point, JSON report
        report = rows
        h0, hr = twoqubit_h0(p), twoqubit_hr(p)
        _close(report["h0"], h0, 1e-8, "h0 closed form")
        _close(report["hr"], [hr.real, hr.imag], 1e-15, "hr = alpha_r k")
        want = np.linalg.eigvals(pattern(h0, hr))
        for name in ("claimed_eigenvalues", "numeric_eigenvalues"):
            got = [complex(re, im) for re, im in report[name]]
            _same_set(got, want, 1e-7, name)
        _require(max(report["residuals"]) <= 1e-8, "claimed residuals above 1e-8")
        _require(report["hermitian"] == (hr == 0), "hermitian flag")
        _require(report["degenerate"] == (abs(hr) >= abs(h0)), "degenerate flag")
        return
    key = p.get("sweep_key")
    if key is None:  # single point, CSV summary
        _require(columns == ("h0", "hr_re", "hr_im", "max_residual",
                             "eigenvalue_set_distance", "hermitian", "degenerate"),
                 f"twoqubit columns {columns}")
        (h0_got, hr_re, hr_im, residual, distance, herm, degen), = rows
        h0, hr = twoqubit_h0(p), twoqubit_hr(p)
        _close(h0_got, h0, 1e-8, "h0 closed form")
        _close([hr_re, hr_im], [hr.real, hr.imag], 1e-15, "hr = alpha_r k")
        _require(residual <= 1e-8 and distance <= 1e-8, "eigen residuals above 1e-8")
        _require(bool(herm) == (hr == 0), "hermitian flag")
        _require(bool(degen) == (abs(hr) >= abs(h0)), "degenerate flag")
        return
    ev_cols = tuple(f"e{i}_{part}" for i in range(1, 5) for part in ("re", "im"))
    _require(columns == (key, "h0", "hr_re", "hr_im") + ev_cols,
             f"twoqubit sweep columns {columns}")
    for q, row in zip(_swept(op, rows), rows):
        h0, hr = twoqubit_h0(q), twoqubit_hr(q)
        _close(row[1], h0, 1e-8, f"h0 closed form at {key} = {q[key]!r}")
        _close(row[2:4], [hr.real, hr.imag], 1e-15, "hr = alpha_r k")
        got = row[4::2] + 1j * row[5::2]
        _same_set(got, np.linalg.eigvals(pattern(h0, hr)), 1e-7,
                  f"eigenvalues at {key} = {q[key]!r}")


# ------------------------------------------------------------------ gates

def _near(alpha: np.ndarray, target: float):
    """(surely equal, surely different) masks; the band between the two is
    where the program's 1e-13 matrix tolerance can go either way."""
    d = np.abs(alpha - target)
    return d <= 1e-14, d >= 1e-12


def check_gates(op: Op, columns, rows) -> None:
    _require(columns == GATE_COLUMNS, f"gates columns {columns}")
    alpha = rows[:, 0]
    _close(alpha, op.sweep() or [op.params()["alpha"]], 1e-15, "alpha column")
    _require(np.all(rows[:, 3] <= 1e-12), "projector_max_dev above 1e-12")
    _close(rows[:, 4:8], np.ones((len(rows), 4)), 1e-12,
           "fidelity and concurrence columns")
    for col, target in ((1, math.pi), (2, 0.5 * math.pi)):
        same, different = _near(alpha, target)
        flags = rows[:, col]
        _require(np.all(np.isin(flags, (0.0, 1.0))), f"{columns[col]} not 0/1")
        _require(np.all(flags[same] == 1) and np.all(flags[different] == 0),
                 f"{columns[col]} set away from alpha = {target!r}")


# ------------------------------------------------------------------ serve

def serve(workload: str, seed: int) -> None:
    ops = round_ops(workload, seed)
    print(json.dumps({"ready": len(ops)}), flush=True)
    for line in sys.stdin:
        index, path = line.rstrip("\n").split("\t", 1)
        try:
            reply = {"rows": check(ops[int(index)], path)}
        except (CheckError, OSError, ValueError, KeyError, IndexError,
                TypeError) as exc:  # malformed output
            reply = {"error": f"{type(exc).__name__}: {exc}"}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    serve(sys.argv[1], int(sys.argv[2]))
