"""Batch command-line front end: parameter sweeps and CSV/JSON emission.

Configs are flat key=value files (``#`` comments allowed); ``--set`` flags
override individual keys. Every run writes the data table plus a sidecar
manifest recording the resolved parameters, and identical resolved specs
produce byte-identical primary output (floats at 17 significant digits,
``\\n`` line endings; the manifest timestamp lives only in the sidecar).

Exit codes: 0 success, 1 computation failure (including output that would
hold a value that is not finite), 2 usage/configuration error (including an
out-of-domain parameter and an output file that cannot be written).
"""
from __future__ import annotations

import argparse
import errno
import functools
import json
import math
import numbers
import operator
import os
import sys
import warnings
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from typing import Callable

# Set before numpy loads: 4x4 matrices at most, so a BLAS worker pool only spins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
import numpy as np

from . import __version__
from .numerics import DomainError, Grid1D, check_finite, eigen_small

# CPython's own SHA-256, as random.py takes its own SHA-512: importing
# hashlib also maps OpenSSL's libcrypto, about 3.5 MiB of resident memory in
# every run, for one hash of a short config text.
try:
    from _sha2 import sha256  # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256  # Python <= 3.11
    except ImportError:
        from hashlib import sha256

__all__ = ["SweepSpec", "ConfigError", "parse_config", "run", "main"]

STDOUT_MARKER = "-"

# Largest accepted sweep_range step count: one row per step is computed and
# held in memory before anything is written, so an unbounded count could run
# for hours and exhaust memory.
MAX_SWEEP_STEPS = 100_000

# Largest accepted source chart, x_count * y_points rows, held in memory
# before anything is written for the same reason (50x the 50 x 401 chart).
MAX_CHART_POINTS = 1_000_000

# Largest accepted channel run, n_points * iterations samples: each iterate
# computes n_points samples, so this bounds the work of a run.
MAX_CHANNEL_SAMPLES = 1_000_000

# Rows per piece of rendered output. A table is rendered and written piece
# by piece, so no string or encoded buffer holds a whole megabyte chart.
_PIECE_ROWS = 512

TARGET_SOURCE = "source_delta_e"
TARGET_CHANNEL = "channel_qlm"
TARGET_TWOQUBIT = "twoqubit_eigen"
TARGET_GATES = "gate_check"


class ConfigError(ValueError):
    """Unusable configuration; maps to exit code 2."""


@dataclass
class SweepSpec:
    """One run: a target, raw parameter overrides, an optional sweep and the
    output. Fields may be changed after parse_config; run validates the spec
    as it stands when it is called."""

    target: str
    parameter_overrides: dict = field(default_factory=dict)
    sweep_key: str | None = None
    sweep_range: tuple[float, float, int] | None = None
    output_format: str = "csv"
    output_path: str = STDOUT_MARKER


@dataclass
class _RunState:
    """What the points of one run share."""

    as_json: bool
    files: dict = field(default_factory=dict)  # path -> pieces; dumps first


@dataclass(frozen=True)
class _Target:
    """Everything the CLI knows about one target. A point function maps the
    resolved dict, the swept key and the list of its values to the columns
    of all their rows; a run without a sweep is a sweep of one, with key
    None. A single run that is not one point returns (rendered rows, report),
    and a report is the JSON output in place of the table."""

    command: str
    schema: dict[str, tuple]  # key -> (parser, default, help)
    sweepable: tuple[str, ...]
    aliases: dict[str, str]  # params field -> config key, where they differ
    columns: tuple[str, ...]  # of a point's rows; a sweep leads with its key
    point: Callable[[dict, str | None, list, _RunState], list]
    single: Callable[[dict, _RunState], tuple] | None = None
    single_columns: tuple[str, ...] | None = None  # of single's rows


def _parse_sweep_range(text: str) -> tuple[float, float, int]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ConfigError(f"sweep_range must be start,stop,steps; got {text!r}")
    try:
        return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad sweep_range {text!r}: {exc}") from None


def _pairs(text: str):
    """The (key, value) pairs of config text; an error names its line."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        yield key.strip(), value.strip()


def _spec(pairs) -> SweepSpec:
    """A SweepSpec of (key, value) pairs, a later pair replacing an earlier
    one of its key. It keeps the raw override texts; run validates them."""
    pairs = dict(pairs)
    if "target" not in pairs:
        raise ConfigError("target is required")
    spec = SweepSpec(pairs.pop("target"), sweep_key=pairs.pop("sweep_key", None))
    if "sweep_range" in pairs:
        spec.sweep_range = _parse_sweep_range(pairs.pop("sweep_range"))
    spec.output_format = pairs.pop("format", spec.output_format)
    spec.output_path = pairs.pop("out", spec.output_path)
    spec.parameter_overrides = pairs
    return spec


def parse_config(text: str) -> SweepSpec:
    """Parse a flat key=value config into a SweepSpec.

    The target key is required; parameter keys are validated against the
    target's schema and unknown keys are rejected with the valid list. The
    spec keeps the raw override texts, and run validates it again as it
    stands when it is called.
    """
    spec = _spec(_pairs(text))
    _resolve(spec)  # fail fast on unknown keys or bad values
    return spec


def _resolve(spec: SweepSpec) -> dict:
    """Full resolved parameter map (defaults plus overrides), typed."""
    if spec.target not in _TARGETS:
        raise ConfigError(
            f"unknown target {spec.target!r}; valid targets: {sorted(_TARGETS)}")
    if spec.sweep_range is not None:
        try:
            start, stop, steps = spec.sweep_range
            steps = operator.index(steps)
            if not (isinstance(start, numbers.Real) and isinstance(stop, numbers.Real)):
                raise TypeError
        except (TypeError, ValueError):
            raise ConfigError(
                "sweep_range must be (start, stop, steps) with real start and "
                f"stop and integer steps; got {spec.sweep_range!r}") from None
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ConfigError(
                f"sweep_range start and stop must be finite; got {start!r}, {stop!r}")
        if steps < 1:
            raise ConfigError("sweep_range steps must be >= 1")
        if steps > MAX_SWEEP_STEPS:
            raise ConfigError(
                f"sweep_range steps must be <= {MAX_SWEEP_STEPS}; got {steps}")
        if start > stop:
            raise ConfigError("sweep_range start must be <= stop")
    target = _TARGETS[spec.target]
    schema = target.schema
    resolved = {key: default for key, (_, default, _) in schema.items()}
    for key, raw in spec.parameter_overrides.items():
        if key not in schema:
            raise ConfigError(
                f"unknown key {key!r} for target {spec.target!r}; "
                f"valid keys: {sorted(schema)}")
        caster = schema[key][0]
        try:
            resolved[key] = caster(raw)
        except (TypeError, ValueError):
            raise ConfigError(
                f"bad value {raw!r} for key {key!r} (expected {caster.__name__})"
            ) from None
        if caster is float and not math.isfinite(resolved[key]):
            raise ConfigError(f"non-finite value {raw!r} for key {key!r}")
    if spec.target == TARGET_SOURCE and spec.sweep_key is None:  # chart mode
        if resolved["x_count"] < 1:
            raise ConfigError(f"bad value for key 'x_count': must be >= 1, "
                              f"got {resolved['x_count']}")
        if resolved["x_count"] * resolved["y_points"] > MAX_CHART_POINTS:
            raise ConfigError(
                f"x_count * y_points must be <= {MAX_CHART_POINTS}; got "
                f"{resolved['x_count']} * {resolved['y_points']}")
    if (spec.target == TARGET_CHANNEL
            and resolved["n_points"] * resolved["iterations"] > MAX_CHANNEL_SAMPLES):
        raise ConfigError(
            f"n_points * iterations must be <= {MAX_CHANNEL_SAMPLES}; got "
            f"{resolved['n_points']} * {resolved['iterations']}")
    if spec.output_format not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {spec.output_format!r}")
    if spec.sweep_key is not None:
        if spec.sweep_key not in target.sweepable:
            raise ConfigError(
                f"sweep_key {spec.sweep_key!r} not valid for {spec.target!r}; "
                f"valid: {list(target.sweepable)}")
        if spec.sweep_range is None:
            raise ConfigError("sweep_key requires sweep_range")
    elif spec.sweep_range is not None:
        raise ConfigError("sweep_range requires sweep_key")
    if not spec.output_path:
        raise ConfigError(f"out must be a path or -, got {spec.output_path!r}")
    for key in ("dump_l", "dump_matrix"):
        dump = resolved.get(key)
        if dump and spec.output_path != STDOUT_MARKER and os.path.abspath(dump) in {
                os.path.abspath(spec.output_path + end) for end in ("", ".manifest.json")}:
            raise ConfigError(f"{key} {dump!r} is the output or its manifest")
    return resolved


def _choice(*values: str) -> Callable[[str], str]:
    """A schema caster for these words only, named after them for --help."""
    def caster(raw: str) -> str:
        if raw not in values:
            raise ValueError(raw)
        return raw
    caster.__name__ = "|".join(values)
    return caster


def _sweep_values(start: float, stop: float, steps: int) -> list[float]:
    """start + (stop - start) * i / (steps - 1), ending at stop. A value that
    overflows is taken on the range scaled by 2^-s, steps < 2^(s-1), so none do."""
    if steps == 1:
        return [start]
    values = [start + (stop - start) * i / (steps - 1) for i in range(steps - 1)]
    down = math.ldexp(1.0, -steps.bit_length() - 1)
    a, b = start * down, stop * down
    return [v if math.isfinite(v) else (a + (b - a) * i / (steps - 1)) / down
            for i, v in enumerate(values)] + [stop]


# Output text of each value kind: ints (and bools, in CSV) as %d, floats at
# 17 significant digits, text as is; JSON spells bools true/false.
_JSON_BOOL = ("false", "true")
_LAYOUT = (("\n", ",", "", ""), (", ", ", ", "[", "]"))  # CSV, JSON: separators, row ends


def _field(v) -> str:
    if isinstance(v, str):
        return "%s"
    return "%d" if isinstance(v, (int, np.integer)) else "%.17g"


def _fmt(v) -> str:
    return _field(v) % v


def _format_rows(columns, as_json: bool = False) -> list[str]:
    """The columns (arrays or lists of one length) as CSV lines or JSON arrays in
    pieces of at most _PIECE_ROWS rows, each led by the row separator as an item
    of its own. A piece is one % on copies of the row template, a field per
    column of its first value's kind, on values interleaved by slice assignment."""
    columns = [(np.take(_JSON_BOOL, c) if as_json and c.dtype == bool else c).tolist()
               for c in map(np.asarray, columns)]
    sep, comma, start, end = _LAYOUT[as_json]
    template = start + comma.join(_field(c[0]) for c in columns) + end
    pieces, n, width = [], len(columns[0]), len(columns)
    for i in range(0, n, _PIECE_ROWS):
        flat = [None] * width * min(_PIECE_ROWS, n - i)
        for j, column in enumerate(columns):
            flat[j::width] = column[i:i + _PIECE_ROWS]
        pieces += [sep, sep.join([template] * (len(flat) // width)) % tuple(flat)]
    return pieces


# Point and single-run functions. Each dump file (dump_l, dump_matrix)
# describes the first point of its run. An overflow is inf or nan that a
# finite check names at its first row; _sweep_rows orders domain errors.

_SOURCE_COLUMNS = ("e_up", "e_down", "delta_e")
_CHART_COLUMNS = ("x", "y", "e_up", "e_down", "delta_e")
_TWOQUBIT_COLUMNS = ("h0", "hr_re", "hr_im", "e1_re", "e1_im", "e2_re", "e2_im",
                     "e3_re", "e3_im", "e4_re", "e4_im")
_REPORT_COLUMNS = ("h0", "hr_re", "hr_im", "max_residual", "eigenvalue_set_distance",
                   "hermitian", "degenerate")


@functools.cache
def _field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def _params(cls, resolved: dict, aliases: dict):
    """A params dataclass with each field from its config key in resolved."""
    return cls(**{f: resolved[aliases.get(f, f)] for f in _field_names(cls)})


def _source_point(resolved: dict, key: str, values: list, state: _RunState) -> list:
    from .source_spectrum import SourceParams, build_hmatrix, spin_split
    swept = np.array(values)
    p = _params(SourceParams, {**resolved, key: swept}, _TARGETS[TARGET_SOURCE].aliases)
    s = spin_split(build_hmatrix(p))
    columns = [swept, s.e_up, s.e_down, s.delta_e]
    check_finite((key,) + _SOURCE_COLUMNS, columns)
    return columns


def _source_chart(resolved: dict, state: _RunState) -> tuple:
    """The rows as _format_rows renders them; only e_up and e_down go through %, and
    y, x and delta_e (2 |alpha_r k| |phi(x)|^2, one per x block) are formatted once."""
    from .source_spectrum import SourceParams, chart_delta_e
    p = _params(SourceParams, resolved, _TARGETS[TARGET_SOURCE].aliases)
    x_values = _sweep_values(0.0, p.l_x, resolved["x_count"] + 2)[1:-1]  # finite as l_x is
    grid = Grid1D(resolved["y_min"], resolved["y_max"], resolved["y_points"])
    s = chart_delta_e(p, x_values, grid)
    sep, comma, start, end = _LAYOUT[state.as_json]
    ys = [_fmt(y) + comma + "%.17g" + comma + "%.17g" for y in grid.points().tolist()]
    blocks = np.column_stack((s.e_up, s.e_down)).reshape(len(x_values), -1).tolist()
    pieces = []
    for x, d, block in zip(x_values, s.delta_e[::len(ys)].tolist(), blocks):
        lead, tail = start + _fmt(x) + comma, comma + _fmt(d) + end
        for j in range(0, len(ys), _PIECE_ROWS):
            template = lead + (tail + sep + lead).join(ys[j:j + _PIECE_ROWS]) + tail
            pieces += [sep, template % tuple(block[2 * j:2 * (j + _PIECE_ROWS)])]
    return pieces, None


def _channel_point(resolved: dict, key: str | None, values: list,
                   state: _RunState) -> list:
    """One QLM run per point, in sweep order, so the first failing point
    raises. qlm_spectrum checks that every e_n is finite."""
    from .channel_qlm import (ChannelPotentialParams, QlmConfig, channel_potential,
                              coulomb_profile, harmonic_reference_potential, qlm_spectrum)
    swept, ns, es = [], [], []
    profiles = {}  # the Coulomb erfcx column per (grid, fermi_l), this sweep only
    for value in values:
        r = resolved if key is None else {**resolved, key: value}
        p = _params(ChannelPotentialParams, r, _TARGETS[TARGET_CHANNEL].aliases)
        cfg = QlmConfig(r["g"] or p.m_eff * p.omega, r["n_points"], r["iterations"])
        y = cfg.grid.points()
        if r["potential"] == "harmonic":
            v = harmonic_reference_potential(p, y)
        else:
            shape = cfg.grid, p.fermi_l
            if p.include_vc and shape not in profiles:
                profiles[shape] = coulomb_profile(y, p.fermi_l)
            v = channel_potential(p, y, profile=profiles.get(shape))
        energies, l_last = qlm_spectrum(p, cfg, v)
        dump = r["dump_l"]
        if dump and dump not in state.files:
            state.files[dump] = _render_csv(("y", "l"), _format_rows([y, l_last]))
        swept += [value] * len(energies)
        ns += range(1, len(energies) + 1)
        es += energies
    return ([] if key is None else [swept]) + [ns, es]


def _twoqubit_point(resolved: dict, key: str, values: list, state: _RunState) -> list:
    """Every point in one array pass: the finite matrices go through one
    stacked solve and the others get NaN eigenvalues, so the first row that
    is not finite fails, at h0 or hr as build_matrix names them."""
    from .twoqubit_channel import TwoQubitMatrix, TwoQubitParams, expectations
    swept = np.array(values)
    p = _params(TwoQubitParams, {**resolved, key: swept}, _TARGETS[TARGET_TWOQUBIT].aliases)
    h0, hr = (np.broadcast_to(a, swept.shape) for a in expectations(p))
    finite = np.isfinite(h0) & np.isfinite(hr)
    ev = np.full((len(values), 4), np.nan, dtype=complex)
    ev[finite] = eigen_small(TwoQubitMatrix(h0[finite], hr[finite]).matrix).eigenvalues
    columns = [swept, h0, hr.real, hr.imag, *ev.view(float).T]  # e1_re, e1_im .. e4_im
    check_finite((key, "h0", "hr", "hr") + _TWOQUBIT_COLUMNS[3:], columns)
    return columns


def _twoqubit_single(resolved: dict, state: _RunState) -> tuple:
    from .twoqubit_channel import (TwoQubitParams, build_matrix, claimed_vs_numeric,
                                   expectations)
    p = _params(TwoQubitParams, resolved, _TARGETS[TARGET_TWOQUBIT].aliases)
    report = claimed_vs_numeric(build_matrix(*expectations(p)))
    # np.max, not max: Python's max passes over a NaN residual
    columns = [np.array([v]) for v in (
        report.h0, report.hr.real, report.hr.imag, np.max(report.claimed_residuals),
        report.eigenvalue_set_distance, report.hermitian, report.degenerate)]
    check_finite(_REPORT_COLUMNS, columns)
    return _format_rows(columns, state.as_json), report.to_json_dict()


@functools.cache
def _gate_constants() -> tuple:
    """The Bell states and the alpha-independent columns of a gates row,
    computed on the first call in a process. Callers only read them."""
    from .gates import (BELL_LABELS, CNOT, Gate4, TwoQubitState, apply, bell_state,
                        cnot_from_sqrt_swap, concurrence, gate_fidelity)
    bells = [bell_state(label) for label in BELL_LABELS]
    _, cnot = cnot_from_sqrt_swap()
    s = 1.0 / math.sqrt(2.0)
    plus_control = TwoQubitState(np.array([s, 0, s, 0], dtype=complex))
    return bells, (gate_fidelity(cnot, Gate4(CNOT)),
                   concurrence(apply(cnot, plus_control)),
                   min(concurrence(b) for b in bells))


def _gate_point(resolved: dict, key: str | None, values: list, state: _RunState) -> list:
    """One row per alpha, alpha by alpha. The gates are unitary and their
    phases have unit modulus, so a row is finite where its alpha is."""
    from .gates import SQRT_SWAP, SWAP, exchange_evolution_expm, gate_fidelity, u_swap_alpha
    bells, alpha_independent = _gate_constants()
    alphas = [resolved["alpha"]] if key is None else values
    swap, sqrt_swap, deviation, fidelity = [], [], [], []
    for alpha in alphas:
        u = u_swap_alpha(alpha)
        dump = resolved["dump_matrix"]
        if dump and dump not in state.files:
            state.files[dump] = _render_gate_matrix(u, state.as_json)
        projector = sum(
            phase * np.outer(b.amplitudes, b.amplitudes.conj())
            for b, phase in zip(bells, [1.0, 1.0, 1.0, np.exp(1j * alpha)]))
        swap.append(bool(np.abs(u.matrix - SWAP).max() <= 1e-13))
        sqrt_swap.append(bool(np.abs(u.matrix - SQRT_SWAP).max() <= 1e-13))
        deviation.append(float(np.abs(u.matrix - projector).max()))
        fidelity.append(gate_fidelity(u, exchange_evolution_expm(alpha)))
    return ([alphas, swap, sqrt_swap, deviation, fidelity]
            + [[v] * len(alphas) for v in alpha_independent])


def _render_gate_matrix(gate, as_json: bool) -> list[str]:
    pairs = np.stack([gate.matrix.real, gate.matrix.imag], axis=-1)  # 4x4x(re, im)
    if as_json:
        return [_emit_json_value({"matrix": pairs.tolist()}) + "\n"]
    return _render_csv([f"{part}{j + 1}" for j in range(4) for part in ("re", "im")],
                       _format_rows(pairs.reshape(4, 8).T))


# The records hold cli's own functions, which import their target's module and
# read its functions when called: a run loads only that module, and a wrapper
# on a module attribute (as the benchmark's tracer installs) sees every call.
_TARGETS = {
    TARGET_SOURCE: _Target(
        command="source",
        schema={
            "m_eff": (float, 1.0, "effective mass ratio"),
            "omega": (float, 1.0, "confinement frequency"),
            "beta": (float, 0.5, "log-Coulomb strength"),
            "r_coulomb": (float, 1.0, "Coulomb length scale"),
            "alpha_r": (float, 0.2, "Rashba strength"),
            "l_x": (float, math.pi, "transverse width"),
            "k": (float, 1.0, "propagation wavenumber"),
            "reg_delta": (float, 1e-3, "log-singularity exclusion half-width"),
            "x_count": (int, 5, "number of interior x cross-sections in the chart"),
            "y_min": (float, -2.0, "chart y range start"),
            "y_max": (float, 2.0, "chart y range end"),
            "y_points": (int, 21, "chart y points"),
        },
        sweepable=("m_eff", "omega", "beta", "alpha_r", "l_x", "k"),
        aliases={"n_points": "y_points"},
        columns=_SOURCE_COLUMNS,
        point=_source_point,
        single=_source_chart,
        single_columns=_CHART_COLUMNS,
    ),
    TARGET_CHANNEL: _Target(
        command="channel",
        schema={
            "m_eff": (float, 1.0, "effective mass ratio"),
            "omega": (float, 1.0, "confinement frequency"),
            "a": (float, 1.0, "harmonic length"),
            "coulomb_k": (float, 0.0, "screened Coulomb strength"),
            "fermi_l": (float, 1.0, "Fermi length"),
            "include_vc": (int, 0, "1 to add the screened Coulomb term"),
            "potential": (_choice("quartic", "harmonic"), "quartic",
                          "channel potential; harmonic is the validation preset"),
            "g": (float, 0.0, "zero-iterate slope; 0 means m_eff * omega"),
            "n_points": (int, 4001, "grid points on the half line"),
            "iterations": (int, 3, "quasilinearization iterations"),
            "dump_l": (str, "", "optional path for the final (y, l) samples"),
        },
        sweepable=("omega", "coulomb_k", "g"),
        aliases={},
        columns=("n", "e_n"),
        point=_channel_point,
    ),
    TARGET_TWOQUBIT: _Target(
        command="twoqubit",
        schema={
            "m_eff": (float, 1.0, "effective mass ratio"),
            "omega": (float, 1.0, "confinement frequency"),
            "a_b": (float, 1.0, "transverse harmonic length"),
            "lambda": (float, 1.0, "longitudinal Gaussian width"),
            "k": (float, 1.0, "plane-wave number"),
            "alpha_r": (float, 0.2, "Rashba strength"),
            "coulomb_k": (float, 0.0, "screened Coulomb strength"),
            "fermi_l": (float, 1.0, "Fermi length"),
            "wave_direction": (_choice("along_y", "along_x"), "along_y",
                               "direction of the plane wave"),
        },
        sweepable=("omega", "k", "alpha_r", "coulomb_k", "lambda"),
        aliases={"lam": "lambda"},
        columns=_TWOQUBIT_COLUMNS,
        point=_twoqubit_point,
        single=_twoqubit_single,
        single_columns=_REPORT_COLUMNS,
    ),
    TARGET_GATES: _Target(
        command="gates",
        schema={
            "alpha": (float, math.pi, "integrated exchange angle"),
            "dump_matrix": (str, "", "optional path for the U_SWAP^alpha matrix "
                                     "as (re, im) pairs"),
        },
        sweepable=("alpha",),
        aliases={},
        # The rows hold alpha itself, so a sweep over it adds no column.
        columns=("alpha", "swap_matches", "sqrt_swap_matches",
                 "projector_max_dev", "exp_phase_fidelity", "cnot_fidelity",
                 "cnot_bell_concurrence", "bell_concurrence_min"),
        point=_gate_point,
    ),
}


def _manifest(spec: SweepSpec, resolved: dict) -> dict:
    """The sidecar's fields, keys in sorted order. resolved_parameters holds
    every config key of the run as text, sorted, and input_hash is the
    SHA-256 of its key=value lines: re-fed as a config, it is the same run."""
    params = {"target": spec.target, "format": spec.output_format}
    if spec.sweep_key:
        start, stop, steps = spec.sweep_range
        params["sweep_key"] = spec.sweep_key
        params["sweep_range"] = f"{_fmt(start)},{_fmt(stop)},{steps}"
    params.update((key, _fmt(value)) for key, value in resolved.items())
    params = dict(sorted(params.items()))
    text = "".join(f"{k}={v}\n" for k, v in params.items())
    return {"input_hash": sha256(text.encode("utf-8")).hexdigest(),
            "resolved_parameters": params,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "tool_version": __version__}


def _emit_json_value(v) -> str:
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, (bool, int, float, np.integer, np.floating)):
        return _JSON_BOOL[v] if isinstance(v, bool) else _fmt(v)
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_emit_json_value(x) for x in v) + "]"
    if isinstance(v, dict):
        return "{" + ", ".join(
            f"{json.dumps(k)}: {_emit_json_value(val)}" for k, val in v.items()) + "}"
    raise TypeError(f"cannot emit {type(v)}")


def _render_csv(columns, rows: list[str]) -> list[str]:
    return [",".join(columns)] + rows + ["\n"]


def _render_json(manifest: dict, columns, rows: list[str], report=None) -> list[str]:
    # The timestamp stays in the sidecar, so identical runs render alike.
    manifest_obj = {k: v for k, v in manifest.items() if k != "timestamp"}
    if report is not None:
        return [_emit_json_value({"manifest": manifest_obj, "report": report}) + "\n"]
    head = (f'{{"manifest": {_emit_json_value(manifest_obj)}, '
            f'"columns": {_emit_json_value(list(columns))}, "rows": [')
    return [head] + rows[1:] + ["]}\n"]


def _write_files(files: dict) -> None:
    """Write every path -> pieces entry, piece by piece, or none of them.

    Each file goes to a temp file beside its target, and the temps replace
    their targets only once all of them are written; a directory is no
    target. On failure the temps are removed and the OSError is raised
    again, naming the target path.
    """
    temps = {}
    try:
        for path, pieces in files.items():
            if os.path.isdir(path):
                raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), path)
            tmp = f"{path}.{os.urandom(4).hex()}.tmp"
            with open(tmp, "x", encoding="utf-8", newline="") as fh:
                temps[path] = tmp
                fh.writelines(pieces)
        for path, tmp in temps.items():
            os.replace(tmp, path)
    except OSError as exc:
        for tmp in temps.values():
            if os.path.exists(tmp):
                os.remove(tmp)
        raise OSError(exc.errno, exc.strerror, path) from None


def _sweep_rows(target: _Target, resolved: dict, key: str | None, values: list,
                state: _RunState) -> list:
    """target.point's columns, or the failure of its first failing point alone:
    a domain error first at point i > 0 is raised once the points before pass."""
    try:
        return target.point(resolved, key, values, state)
    except DomainError as exc:
        if exc.index:
            _sweep_rows(target, resolved, key, values[:exc.index], state)
        raise


def run(spec: SweepSpec) -> int:
    """Execute a spec: compute the table, then write output plus manifest.

    The spec is validated as it stands when run is called, so a spec changed
    after parse_config runs as changed or fails as a config error. Nothing
    is written on failure; errors go to stderr with the target named. Each
    distinct warning raised while computing goes once to the sidecar's
    diagnostics, or to stderr after the error line when the run fails.
    """
    key = spec.sweep_key
    state = _RunState(spec.output_format == "json")
    with warnings.catch_warnings(record=True) as caught:
        try:
            resolved = _resolve(spec)
            target = _TARGETS[spec.target]
            if key is None and target.single is not None:
                columns = target.single_columns
                rows, report = target.single(resolved, state)
            else:
                # a sweep's rows lead with its key; gates rows hold alpha already
                lead = key is not None and key not in target.columns
                columns = ((key,) if lead else ()) + target.columns
                values = [None] if key is None else _sweep_values(*spec.sweep_range)
                table = _sweep_rows(target, resolved, key, values, state)
                rows, report = _format_rows(table, state.as_json), None
        except ConfigError as exc:
            failure = 2, f"config error: {exc}"
        except DomainError as exc:
            name = target.aliases.get(exc.name, exc.name)
            failure = 2, (f"config error: bad value for key {name!r}: "
                          f"{str(exc).replace(exc.name, name)}")
        except Exception as exc:  # computation failure inside a module
            failure = 1, f"{spec.target}: computation failed: {exc}"
        else:
            failure = None
    warned = list(dict.fromkeys(str(w.message) for w in caught))
    if failure is None:
        manifest = _manifest(spec, resolved)
        primary = (_render_json(manifest, columns, rows, report=report) if state.as_json
                   else _render_csv(columns, rows))
        if warned:
            manifest["diagnostics"] = {"warnings": warned}
        sidecar = [json.dumps(manifest, indent=2, sort_keys=True) + "\n"]
        if spec.output_path != STDOUT_MARKER:
            state.files[spec.output_path] = primary
            state.files[spec.output_path + ".manifest.json"] = sidecar
        try:
            _write_files(state.files)
        except OSError as exc:
            failure = 2, f"{spec.target}: cannot write {exc.filename}: {exc.strerror}"
    if failure is not None:
        code, line = failure
        sys.stderr.write(line + "\n" + "".join(
            f"{spec.target}: warning: {message}\n" for message in warned))
        return code
    if spec.output_path == STDOUT_MARKER:
        sys.stdout.writelines(primary)
        sys.stderr.writelines(sidecar)
    return 0


def _schema_help(name: str) -> str:
    target = _TARGETS[name]
    lines = [f"config keys for {name} (key=value, # comments allowed):"]
    for key, (caster, default, help_text) in target.schema.items():
        lines.append(f"  {key} ({caster.__name__}, default {default!r}): {help_text}")
    lines.append(f"sweepable keys: {', '.join(target.sweepable)}")
    single = target.columns if target.single is None else target.single_columns
    lines.append(f"csv columns: {', '.join(single)}")
    lead = () if target.sweepable[0] in target.columns else ("<sweep_key>",)
    lines.append(f"sweep csv columns: {', '.join(lead + target.columns)}")
    return "\n".join(lines)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args keeps no
    state in it, and the append action copies the --set default before it
    adds to it, so no call sees another's options."""
    parser = argparse.ArgumentParser(
        prog="entangler",
        description="Batch driver for the two-qubit entangler toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, target in _TARGETS.items():
        p = sub.add_parser(
            target.command, help=f"run the {name} target",
            epilog=_schema_help(name),
            formatter_class=argparse.RawDescriptionHelpFormatter)
        p.set_defaults(target=name)
        p.add_argument("--config", help="path to a key=value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override one config key (repeatable)")
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--out", default=None,
                       help="output path, or - for standard output (default)")
    return parser


def main(argv=None) -> int:
    """Run the spec of one command's pairs, a later one replacing an earlier
    of its key: the target, the --config lines, each --set, --format/--out."""
    args = _parser().parse_args(argv)
    try:
        text = ""
        if args.config:
            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise ConfigError(f"cannot read {args.config}: {exc}") from None
        sets = []
        for override in args.set:
            key, eq, value = override.partition("=")
            if not eq:
                raise ConfigError(f"--set expects KEY=VALUE, got {override!r}")
            # A manifest's resolved_parameters, written as key=value lines,
            # is a config that reproduces the run: there a '#' would cut the
            # value, and a line break would start another line.
            if "#" in override or override.splitlines() != [override]:
                raise ConfigError(f"--set value for key {key.strip()!r} may not "
                                  f"hold '#' or a line break, got {override!r}")
            sets.append((key.strip(), value.strip()))
        pairs = [("target", args.target), *_pairs(text), *sets]
        target = dict(pairs)["target"]
        if target != args.target:
            raise ConfigError(f"config target {target!r} conflicts with subcommand "
                              f"{args.command!r} ({args.target})")
        flags = (("format", args.format), ("out", args.out))
        spec = _spec(pairs + [(k, v) for k, v in flags if v is not None])
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    return run(spec)


if __name__ == "__main__":
    sys.exit(main())
