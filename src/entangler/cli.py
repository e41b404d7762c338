"""Batch command-line front end: parameter sweeps and CSV/JSON emission.

Configs are flat key=value files (``#`` comments allowed); ``--set`` flags
override individual keys. Every run writes the data table plus a sidecar
manifest recording the resolved parameters, and identical resolved specs
produce byte-identical primary output (floats at 17 significant digits,
``\\n`` line endings; the manifest timestamp lives only in the sidecar).

Exit codes: 0 success, 1 computation failure, 2 usage/configuration error
(including an out-of-domain parameter and an output file that cannot be
written).
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
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Callable

import numpy as np

from . import __version__
from .channel_qlm import (ChannelPotentialParams, QlmConfig, default_qlm_grid,
                          harmonic_reference_potential, qlm_spectrum)
from .gates import (BELL_LABELS, CNOT, SQRT_SWAP, SWAP, Gate4, TwoQubitState,
                    apply, bell_state, cnot_from_sqrt_swap, concurrence,
                    exchange_evolution_expm, gate_fidelity, u_swap_alpha)
from .numerics import DomainError, Grid1D, eigen_small
from .source_spectrum import SourceParams, build_hmatrix, chart_delta_e, spin_split
from .twoqubit_channel import (ALONG_X, ALONG_Y, TwoQubitMatrix, TwoQubitParams,
                               build_matrix, claimed_vs_numeric, expectations)

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

# Largest accepted channel run, n_points * iterations samples: every iterate
# keeps its n_points log-derivative samples until the run ends.
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

    output_format: str
    files: dict = field(default_factory=dict)  # path -> pieces; dumps first


@dataclass(frozen=True)
class _Target:
    """Everything the CLI knows about one target. A point maps one resolved
    dict to its rows; a single run that is not one point returns (rows,
    report), and a report is the JSON output in place of the table."""

    command: str
    schema: dict[str, tuple]  # key -> (parser, default, help)
    sweepable: tuple[str, ...]
    aliases: dict[str, str]  # params field -> config key, for DomainError
    columns: tuple[str, ...]  # of a point's rows; a sweep leads with its key
    point: Callable[[dict, _RunState], list[tuple]]
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


def parse_config(text: str) -> SweepSpec:
    """Parse a flat key=value config into a SweepSpec.

    The target key is required; parameter keys are validated against the
    target's schema and unknown keys are rejected with the valid list. The
    spec keeps the raw override texts, and run validates it again as it
    stands when it is called.
    """
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        pairs[key.strip()] = value.strip()

    target = pairs.pop("target", None)
    if target is None:
        raise ConfigError("target is required")

    spec = SweepSpec(target=target)
    if "format" in pairs:
        spec.output_format = pairs.pop("format")
    if "out" in pairs:
        spec.output_path = pairs.pop("out")
    if "sweep_key" in pairs:
        spec.sweep_key = pairs.pop("sweep_key")
    if "sweep_range" in pairs:
        spec.sweep_range = _parse_sweep_range(pairs.pop("sweep_range"))
    spec.parameter_overrides = pairs
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


def _sweep_values(spec: SweepSpec) -> list[float]:
    start, stop, steps = spec.sweep_range
    if steps == 1:
        return [start]
    return [start + (stop - start) * i / (steps - 1) for i in range(steps)]


# Output text of each value kind: ints (and bools, in CSV) as %d, floats at
# 17 significant digits; JSON spells bools true/false.
_JSON_BOOL = ("false", "true")


def _field(v) -> str:
    return "%d" if isinstance(v, (int, np.integer)) else "%.17g"


def _fmt(v) -> str:
    return _field(v) % v


def _json_number(v) -> str:
    return _JSON_BOOL[v] if isinstance(v, bool) else _fmt(v)


def _format_rows(rows, as_json: bool = False) -> list[str]:
    """Each row (a tuple) through one %-template, built once from the kinds
    of the first row's values: a CSV line, or a JSON array."""
    if not rows:
        return []
    bools = [i for i, v in enumerate(rows[0]) if as_json and isinstance(v, bool)]
    fields = ["%s" if i in bools else _field(v) for i, v in enumerate(rows[0])]
    template = "[" + ", ".join(fields) + "]" if as_json else ",".join(fields)
    if bools:
        rows = [tuple(_JSON_BOOL[v] if i in bools else v for i, v in enumerate(row))
                for row in rows]
    return [template % row for row in rows]


# Point and single-run functions. Each dump file (dump_l, dump_matrix)
# describes the first point of its run.

_SOURCE_FIELDS = ("m_eff", "omega", "beta", "r_coulomb", "alpha_r", "l_x", "k",
                  "reg_delta")
_CHART_COLUMNS = ("x", "y", "e_up", "e_down", "delta_e")


def _source_params(resolved: dict) -> SourceParams:
    return SourceParams(**{k: resolved[k] for k in _SOURCE_FIELDS})


def _source_point(resolved: dict, state: _RunState) -> list[tuple]:
    s = spin_split(build_hmatrix(_source_params(resolved)))
    return [(s.e_up, s.e_down, s.delta_e)]


def _source_chart(resolved: dict, state: _RunState) -> tuple:
    p = _source_params(resolved)
    n = resolved["x_count"]
    x_values = [p.l_x * (i + 1) / (n + 1) for i in range(n)]
    grid = Grid1D(resolved["y_min"], resolved["y_max"], resolved["y_points"])
    return chart_delta_e(p, x_values, grid), None


def _channel_point(resolved: dict, state: _RunState) -> list[tuple]:
    p = ChannelPotentialParams(
        m_eff=resolved["m_eff"], omega=resolved["omega"], a=resolved["a"],
        coulomb_k=resolved["coulomb_k"], fermi_l=resolved["fermi_l"],
        include_vc=bool(resolved["include_vc"]))
    g = resolved["g"] or p.m_eff * p.omega
    cfg = QlmConfig(g=g, grid=default_qlm_grid(g, resolved["n_points"]),
                    max_iterations=resolved["iterations"])
    potential = None
    if resolved["potential"] == "harmonic":
        potential = lambda y: harmonic_reference_potential(p, y)
    iterates = qlm_spectrum(p, cfg, potential=potential)
    dump = resolved["dump_l"]
    if dump and dump not in state.files:
        samples = zip(cfg.grid.points().tolist(), iterates[-1].l_n.tolist())
        state.files[dump] = _render_csv(("y", "l"), list(samples))
    return [(it.n, it.e_n) for it in iterates]


def _twoqubit_matrix(resolved: dict) -> TwoQubitMatrix:
    p = TwoQubitParams(
        m_eff=resolved["m_eff"], omega=resolved["omega"], a_b=resolved["a_b"],
        lam=resolved["lambda"], k=resolved["k"], alpha_r=resolved["alpha_r"],
        coulomb_k=resolved["coulomb_k"], fermi_l=resolved["fermi_l"],
        wave_direction=resolved["wave_direction"])
    return build_matrix(*expectations(p))


def _twoqubit_point(resolved: dict, state: _RunState) -> list[tuple]:
    m = _twoqubit_matrix(resolved)
    hr, ev = m.hr, eigen_small(m.matrix).eigenvalues
    return [(m.h0, hr.real, hr.imag, ev[0].real, ev[0].imag, ev[1].real,
             ev[1].imag, ev[2].real, ev[2].imag, ev[3].real, ev[3].imag)]


def _twoqubit_single(resolved: dict, state: _RunState) -> tuple:
    report = claimed_vs_numeric(_twoqubit_matrix(resolved))
    row = (report.h0, report.hr.real, report.hr.imag,
           max(report.claimed_residuals), report.eigenvalue_set_distance,
           report.hermitian, report.degenerate)
    return [row], report.to_json_dict()


@functools.cache
def _gate_constants() -> tuple:
    """The Bell states and the alpha-independent columns of a gates row,
    computed on the first call in a process. Callers only read them."""
    bells = [bell_state(label) for label in BELL_LABELS]
    _, cnot = cnot_from_sqrt_swap()
    s = 1.0 / math.sqrt(2.0)
    plus_control = TwoQubitState(np.array([s, 0, s, 0], dtype=complex))
    return bells, (gate_fidelity(cnot, Gate4(CNOT)),
                   concurrence(apply(cnot, plus_control)),
                   min(concurrence(b) for b in bells))


def _gate_point(resolved: dict, state: _RunState) -> list[tuple]:
    bells, alpha_independent = _gate_constants()
    alpha = resolved["alpha"]
    u = u_swap_alpha(alpha)
    dump = resolved["dump_matrix"]
    if dump and dump not in state.files:
        state.files[dump] = _render_gate_matrix(u, state.output_format)
    projector = sum(
        phase * np.outer(b.amplitudes, b.amplitudes.conj())
        for b, phase in zip(bells, [1.0, 1.0, 1.0, np.exp(1j * alpha)]))
    return [(alpha,
             bool(np.abs(u.matrix - SWAP).max() <= 1e-13),
             bool(np.abs(u.matrix - SQRT_SWAP).max() <= 1e-13),
             float(np.abs(u.matrix - projector).max()),
             gate_fidelity(u, exchange_evolution_expm(alpha)))
            + alpha_independent]


def _render_gate_matrix(gate, output_format: str) -> list[str]:
    pairs = np.stack([gate.matrix.real, gate.matrix.imag], axis=-1)  # 4x4x(re, im)
    if output_format == "json":
        return [_emit_json_value({"matrix": pairs.tolist()}) + "\n"]
    return _render_csv([f"{part}{j + 1}" for j in range(4) for part in ("re", "im")],
                       [tuple(row) for row in pairs.reshape(4, 8).tolist()])


# The records hold cli's own functions, which reach the library through
# module globals: a wrapper installed on a module attribute (as the
# benchmark's tracer does) then sees every call.
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
        columns=("e_up", "e_down", "delta_e"),
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
        aliases={"max_iterations": "iterations"},
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
            "wave_direction": (_choice(ALONG_Y, ALONG_X), ALONG_Y,
                               "direction of the plane wave"),
        },
        sweepable=("omega", "k", "alpha_r", "coulomb_k", "lambda"),
        aliases={"lam": "lambda"},
        columns=("h0", "hr_re", "hr_im", "e1_re", "e1_im", "e2_re", "e2_im",
                 "e3_re", "e3_im", "e4_re", "e4_im"),
        point=_twoqubit_point,
        single=_twoqubit_single,
        single_columns=("h0", "hr_re", "hr_im", "max_residual",
                        "eigenvalue_set_distance", "hermitian", "degenerate"),
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
    for key, value in resolved.items():
        params[key] = _fmt(value) if isinstance(value, (int, float)) else str(value)
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
        return _json_number(v)
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_emit_json_value(x) for x in v) + "]"
    if isinstance(v, dict):
        return "{" + ", ".join(
            f"{json.dumps(k)}: {_emit_json_value(val)}" for k, val in v.items()) + "}"
    raise TypeError(f"cannot emit {type(v)}")


def _pieces(lines: list[str], sep: str) -> list[str]:
    """sep.join(lines) cut into pieces of at most _PIECE_ROWS lines."""
    return [("" if i == 0 else sep) + sep.join(lines[i:i + _PIECE_ROWS])
            for i in range(0, len(lines), _PIECE_ROWS)]


def _render_csv(columns, rows) -> list[str]:
    return _pieces([",".join(columns)] + _format_rows(rows), "\n") + ["\n"]


def _render_json(manifest: dict, columns, rows, report=None) -> list[str]:
    # The timestamp stays in the sidecar, so identical runs render alike.
    manifest_obj = {k: v for k, v in manifest.items() if k != "timestamp"}
    if report is not None:
        return [_emit_json_value({"manifest": manifest_obj, "report": report}) + "\n"]
    head = (f'{{"manifest": {_emit_json_value(manifest_obj)}, '
            f'"columns": {_emit_json_value(list(columns))}, "rows": [')
    return [head] + _pieces(_format_rows(rows, as_json=True), ", ") + ["]}\n"]


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


def run(spec: SweepSpec) -> int:
    """Execute a spec: compute the table, then write output plus manifest.

    The spec is validated as it stands when run is called, so a spec changed
    after parse_config runs as changed or fails as a config error. Nothing
    is written on failure; errors go to stderr with the target named. Each
    distinct warning raised while computing goes once to the sidecar's
    diagnostics, or to stderr after the error line when the run fails.
    """
    key = spec.sweep_key
    state = _RunState(spec.output_format)
    with warnings.catch_warnings(record=True) as caught:
        try:
            resolved = _resolve(spec)
            target = _TARGETS[spec.target]
            if key is None and target.single is not None:
                columns = target.single_columns
                rows, report = target.single(resolved, state)
            elif key is None:
                columns, rows, report = target.columns, target.point(resolved, state), None
            else:
                lead = key not in target.columns  # gates rows hold alpha already
                columns = ((key,) if lead else ()) + target.columns
                rows, report = [], None
                for value in _sweep_values(spec):
                    point_rows = target.point({**resolved, key: value}, state)
                    rows += [(value,) + row for row in point_rows] if lead else point_rows
        except ConfigError as exc:
            failure = 2, f"config error: {exc}"
        except DomainError as exc:
            name = target.aliases.get(exc.name, exc.name)
            failure = 2, f"config error: bad value for key {name!r}: {exc}"
        except Exception as exc:  # computation failure inside a module
            failure = 1, f"{spec.target}: computation failed: {exc}"
        else:
            failure = None
    warned = list(dict.fromkeys(str(w.message) for w in caught))
    if failure is None:
        manifest = _manifest(spec, resolved)
        if spec.output_format == "json":
            primary = _render_json(manifest, columns, rows, report=report)
        else:
            primary = _render_csv(columns, rows)
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
    args = _parser().parse_args(argv)

    text = ""
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            sys.stderr.write(f"config error: cannot read {args.config}: {exc}\n")
            return 2
    try:
        for override in args.set:
            if "=" not in override:
                raise ConfigError(f"--set expects KEY=VALUE, got {override!r}")
            # The pairs are joined into config text, where these would cut
            # the value or start a line of their own.
            if "#" in override or override.splitlines() != [override]:
                raise ConfigError(
                    f"--set value for key {override.split('=', 1)[0].strip()!r} "
                    f"may not hold '#' or a line break, got {override!r}")
        # The subcommand's target goes first, so a target line in the config
        # or a --set replaces it and is caught as a conflict below.
        spec = parse_config("\n".join([f"target={args.target}", text, *args.set]))
        if spec.target != args.target:
            raise ConfigError(
                f"config target {spec.target!r} conflicts with subcommand "
                f"{args.command!r} ({args.target})")
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    if args.format:
        spec.output_format = args.format
    if args.out is not None:
        spec.output_path = args.out
    return run(spec)


if __name__ == "__main__":
    sys.exit(main())
