"""Seeded input generator: one round of operations per workload.

A round is a fixed list of CLI invocations. A run repeats the same round
until its time is up, so every run attempts whole rounds and the share of
failing operations is the same in every run. The seed picks the physical
parameters and sweep ranges inside each round; it never changes how many
operations a round holds, their targets, their sizes or which of them are
expected to fail, so the work per round stays the same from seed to seed.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("cold_cli", "gate_sweep", "physics_sweep", "chart_render")

TWO_PI = 2.0 * math.pi

# Sizes. Per-operation work is matched across targets inside physics_sweep
# (each sweep costs roughly the same), so the median latency does not jump
# between clusters when the seed moves the parameters.
GATE_STEPS = 41           # 40 intervals: the full-range sweep hits pi/2, pi, 3pi/2
SOURCE_STEPS = 41
TWOQUBIT_STEPS = 11
CHANNEL_STEPS = 5
QLM_ITERATIONS = 3
QLM_POINTS = 4001
CHART_X_COUNT = 50
CHART_Y_POINTS = 401
DEFAULT_CHART_X_COUNT = 5
DEFAULT_CHART_Y_POINTS = 21

# Valid input (1.40 < sqrt(2) * fermi_l) that the program rejects with
# "integrand not finite": the truncated Coulomb quadrature in
# twoqubit_channel reaches erfcx overflow for lambda above ~1.374. Every
# parameter is given, so that the output can be checked once it succeeds.
KNOWN_FAILURE = (("m_eff", 1.0), ("omega", 1.0), ("a_b", 1.0), ("lambda", 1.40),
                 ("k", 1.0), ("alpha_r", 0.2), ("coulomb_k", 0.7),
                 ("fermi_l", 1.0), ("wave_direction", "along_y"))
# Seeded twoqubit lambdas stay at or below this, clear of the failing band.
LAMBDA_MAX = 1.25


@dataclass(frozen=True)
class Op:
    """One CLI invocation: subcommand, --set pairs and output format."""

    command: str
    settings: tuple
    fmt: str = "csv"
    expect_failure: bool = False

    def params(self) -> dict:
        return dict(self.settings)

    def argv(self, out_path: str) -> list[str]:
        args = [self.command]
        for key, value in self.settings:
            args += ["--set", f"{key}={_text(value)}"]
        return args + ["--format", self.fmt, "--out", out_path]

    def sweep(self) -> list[float] | None:
        """The sweep points, computed here from the range alone."""
        p = self.params()
        if "sweep_key" not in p:
            return None
        start, stop, steps = p["sweep_range"]
        if steps == 1:
            return [start]
        return [start + (stop - start) * i / (steps - 1) for i in range(steps)]

    def rows(self) -> int:
        """Data rows the operation produces when it succeeds."""
        p = self.params()
        points = len(self.sweep() or [None])
        if self.command == "channel":
            return points * p["iterations"]
        if self.command == "source" and "sweep_key" not in p:
            return p["x_count"] * p["y_points"]
        return points


def _text(value) -> str:
    if isinstance(value, tuple):
        start, stop, steps = value
        return f"{start!r},{stop!r},{steps}"
    if isinstance(value, float):
        return repr(value)
    return str(value)


# The seed draws the parameters that do not change how much work the
# adaptive quadrature does. Those that do (beta for the source log term;
# lambda and coulomb_k for the twoqubit Coulomb term) stay at fixed values,
# or are swept over ranges whose ends move only a little, so that the
# work per round, and with it the spread between seeds, stays small.

def _source_base(rng: random.Random) -> dict:
    return {
        "m_eff": rng.uniform(0.8, 1.2), "omega": rng.uniform(0.8, 1.2),
        "beta": 0.5, "r_coulomb": 1.0,
        "alpha_r": rng.uniform(0.1, 0.4), "l_x": rng.uniform(2.9, 3.3),
        "k": rng.uniform(0.5, 1.5), "reg_delta": 1e-3,
    }


def _twoqubit_base(rng: random.Random) -> dict:
    return {
        "m_eff": rng.uniform(0.8, 1.2), "omega": rng.uniform(0.8, 1.2),
        "a_b": rng.uniform(0.8, 1.2), "lambda": 1.0,
        "k": rng.uniform(0.5, 1.5), "alpha_r": rng.uniform(0.1, 0.4),
        "coulomb_k": 0.5, "fermi_l": 1.0,
        "wave_direction": "along_y",
    }


def _channel_base(rng: random.Random, omega: float) -> dict:
    # a = 1/sqrt(omega) is the natural-unit harmonic length; keeping it
    # consistent avoids the program's mismatch warning.
    return {
        "m_eff": 1.0, "omega": omega, "a": 1.0 / math.sqrt(omega),
        "coulomb_k": rng.uniform(0.2, 0.8), "fermi_l": 1.0, "include_vc": 1,
        "potential": "quartic", "g": 0.0, "n_points": QLM_POINTS,
        "iterations": QLM_ITERATIONS,
    }


def _sweep(base: dict, key: str, start: float, stop: float, steps: int) -> tuple:
    settings = dict(base)
    settings.pop(key, None)
    settings["sweep_key"] = key
    settings["sweep_range"] = (start, stop, steps)
    return tuple(settings.items())


def _cold_cli(rng: random.Random) -> list[Op]:
    source = _source_base(rng)
    source.update(x_count=DEFAULT_CHART_X_COUNT, y_points=DEFAULT_CHART_Y_POINTS,
                  y_min=-2.0, y_max=2.0)
    channel = _channel_base(rng, rng.uniform(0.8, 1.25))
    channel.update(include_vc=0, coulomb_k=0.0)
    twoqubit = _twoqubit_base(rng)
    return [
        Op("source", tuple(source.items()), "csv"),
        Op("channel", tuple(channel.items()), "csv"),
        Op("twoqubit", tuple(twoqubit.items()), "json"),
        Op("gates", (("alpha", rng.uniform(0.0, TWO_PI)),), "csv"),
    ]


def _gate_sweep(rng: random.Random) -> list[Op]:
    ops = []
    for i in range(8):
        if i < 2:
            lo, hi = 0.0, TWO_PI
        else:
            lo = rng.uniform(0.0, 0.25 * math.pi)
            hi = rng.uniform(1.75 * math.pi, TWO_PI)
        ops.append(Op("gates", (("sweep_key", "alpha"),
                                ("sweep_range", (lo, hi, GATE_STEPS))),
                      "csv" if i % 2 == 0 else "json"))
    return ops


def _physics_sweep(rng: random.Random) -> list[Op]:
    def source(key, lo, hi, fmt):
        return Op("source", _sweep(_source_base(rng), key, lo, hi, SOURCE_STEPS),
                  fmt)

    def twoqubit(key, lo, hi, fmt):
        return Op("twoqubit", _sweep(_twoqubit_base(rng), key, lo, hi,
                                     TWOQUBIT_STEPS), fmt)

    def channel(key, lo, hi, omega, fmt):
        return Op("channel", _sweep(_channel_base(rng, omega), key, lo, hi,
                                    CHANNEL_STEPS), fmt)

    failing = Op("twoqubit", KNOWN_FAILURE, "csv", expect_failure=True)
    # The omega sweep keeps a = 1 (natural for omega = 1), so the program
    # warns once about the mismatch at the other points; that is its
    # documented behaviour, not a failure.
    return [
        source("alpha_r", rng.uniform(0.0, 0.2), rng.uniform(0.6, 1.0), "csv"),
        twoqubit("k", rng.uniform(0.2, 0.8), rng.uniform(1.5, 2.5), "json"),
        channel("omega", rng.uniform(0.85, 0.95), rng.uniform(1.05, 1.2), 1.0,
                "csv"),
        source("k", rng.uniform(0.2, 0.8), rng.uniform(1.5, 2.5), "json"),
        twoqubit("lambda", rng.uniform(0.55, 0.65), rng.uniform(1.2, LAMBDA_MAX),
                 "csv"),
        failing,
        channel("coulomb_k", rng.uniform(0.05, 0.2), rng.uniform(0.8, 1.2),
                rng.uniform(0.8, 1.25), "json"),
        source("beta", rng.uniform(0.15, 0.25), rng.uniform(0.95, 1.05), "csv"),
        twoqubit("coulomb_k", rng.uniform(0.08, 0.12), rng.uniform(0.95, 1.05),
                 "json"),
        failing,
    ]


def _chart_render(rng: random.Random) -> list[Op]:
    ops = []
    for fmt in ("csv", "json"):
        p = _source_base(rng)
        p.update(x_count=CHART_X_COUNT, y_points=CHART_Y_POINTS,
                 y_min=-2.0, y_max=2.0)
        ops.append(Op("source", tuple(p.items()), fmt))
    return ops


_BUILDERS = {
    "cold_cli": _cold_cli,
    "gate_sweep": _gate_sweep,
    "physics_sweep": _physics_sweep,
    "chart_render": _chart_render,
}


def round_ops(workload: str, seed: int) -> list[Op]:
    """The fixed operation list of one round of a workload for a seed."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))


def warmup_ops(workload: str) -> list[Op]:
    """Default-size runs of every command a workload uses, one per format.

    Run once before timing, in the measuring process and in each fresh
    start that setup_s times, so first-call costs land in set-up.
    """
    commands = sorted({op.command for op in round_ops(workload, 0)})
    return [Op(cmd, (), fmt) for cmd in commands for fmt in ("csv", "json")]
