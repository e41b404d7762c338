#!/usr/bin/env python3
"""Golden diff: run a fixed corpus of entangler commands on a git revision
and on the working tree, and print the runs whose results differ.

    python3 tools/goldens.py REV

REV (for example HEAD~) is unpacked with `git archive` into a temporary
directory, which is removed afterwards. Each run is a fresh interpreter calling
entangler.cli.main, with PYTHONPATH set to one side's src/, in an empty
directory of its own; two run at a time. A config-file run finds its file
there as run.cfg. A run's result is its exit code, stdout, stderr and every
file in its directory, with the sidecar timestamp masked wherever it
appears. The corpus holds no benchmark round, so it does not move when the
benchmark's inputs do. The differing runs are printed grouped by target,
each with what changed.
Exit code 0 when every run matches, 1 when some differ, 2 on a bad REV.
"""
from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHILD = "import sys; from entangler.cli import main; sys.exit(main())"
TIMEOUT_S = 300
JOBS = 2
TIMESTAMP = re.compile(rb'"timestamp": "[^"]*"')

# In-domain start,stop of every sweepable key, and the --set pairs its runs add.
SWEEPS = {
    "source": {"m_eff": ("0.5,2", ()), "omega": ("0.5,2", ()), "beta": ("0,1", ()),
               "alpha_r": ("0,1", ()), "l_x": ("2,4", ()), "k": ("-1,2", ())},
    "channel": {"omega": ("0.5,2", ("n_points=401",)),
                "coulomb_k": ("0,1", ("n_points=401", "include_vc=1")),
                "g": ("0.5,1.5", ("n_points=401",))},
    "twoqubit": {"omega": ("0.5,2", ()), "k": ("0,2", ()), "alpha_r": ("0,1", ()),
                 "coulomb_k": ("0,1", ()), "lambda": ("0.5,1.25", ())},
    "gates": {"alpha": ("0,6.283185307179586", ())},
}
# A range whose formula start + (stop - start) * i / (steps - 1) ends 1 ulp
# past stop, and finite ranges where it overflows.
EXTREME_RANGES = ("-1.6980278140200147,3.9001089761289887,24", "1,1e308,3",
                  "1e300,1.7e308,3", "-1e308,1e308,3")
# Every float key, each run at every extreme value (a single run, not a sweep).
FLOAT_KEYS = {
    "source": ("m_eff", "omega", "beta", "r_coulomb", "alpha_r", "l_x", "k",
               "reg_delta", "y_min", "y_max"),
    "channel": ("m_eff", "omega", "a", "coulomb_k", "fermi_l", "g"),
    "twoqubit": ("m_eff", "omega", "a_b", "lambda", "k", "alpha_r", "coulomb_k",
                 "fermi_l"),
    "gates": ("alpha",),
}
EXTREME_VALUES = ("-1.7976931348623157e308", "-1", "0", "5e-324", "1e300",
                  "1.7976931348623157e308")
# (name, argv without --config, text of run.cfg): a file alone and with a
# --set that replaces one of its keys, format/out lines that the flags
# replace, a bad line counted from the file's first line, and a target
# conflict beside a key the subcommand does not have.
CONFIG_RUNS = (
    ("twoqubit config file", ["twoqubit", "--out", "out"],
     "# a comment\nomega=1.5\n\nk=0.5  # trailing\nsweep_key=alpha_r\n"
     "sweep_range=0,1,3\n"),
    ("twoqubit config file --set k", ["twoqubit", "--out", "out", "--set", "k=0.25"],
     "omega=1.5\nk=0.5\n"),
    ("gates config format=xml out= --format csv --out -",
     ["gates", "--format", "csv", "--out", "-"], "format=xml\nout=\n"),
    ("gates config format=xml out=x --format json --out out",
     ["gates", "--format", "json", "--out", "out"], "format=xml\nout=x\nalpha=1\n"),
    ("gates config bad line 1", ["gates"], "foo\nalpha=1\n"),
    ("gates config bad line 4", ["gates"], "# a comment\nalpha=1\n# another\nfoo\n"),
    ("gates config target=channel_qlm alpha=1", ["gates"],
     "target=channel_qlm\nalpha=1\n"),
)
# Source parameters off the defaults, within the benchmark's chart ranges.
BENCH_CHART = ("m_eff=1.13", "omega=0.87", "alpha_r=0.31", "l_x=3.07", "k=1.29")
# Values outside a domain whose message names a parameter field, and words
# that a key's choice of words does not hold.
DOMAIN_RUNS = (("source", "y_points=1"), ("twoqubit", "lambda=-1"),
               ("channel", "iterations=0"), ("twoqubit", "coulomb_k=0.5", "lambda=2"),
               ("twoqubit", "coulomb_k=0.5", "lambda=2e300", "fermi_l=1e300"),
               ("twoqubit", "wave_direction=diag"), ("channel", "potential=cubic"))
# Runs that reach code no run above reaches: the harmonic preset, erfcx's
# asymptotic tail (y / (sqrt(2) fermi_l) passes 8 on the grid; at the
# default 4,001 points and fermi_l = 0.5, a quarter of the grid does), every
# interval of its Taylor table (the grid's y / (sqrt(2) fermi_l) runs over
# [0, 7.58]), a Coulomb profile whose y / (sqrt(2) fermi_l) overflows, a zero
# kinetic denominator in a chart and in its one-point sweep, a zero-point
# term 1 / (4 m lambda^2) whose denominator underflows; sweeps whose first
# failing point is not finite and whose later point is out of domain; a
# Coulomb radicand 1/2 whose squares overflow; source log terms of an x / R
# that underflows to 0, in a chart where an x is a y and in a sweep, of an
# x / R that is subnormal in such a chart, of an x / R that overflows to inf
# in a sweep, and of a 2 pi / l_x that overflows, in a one-point sweep and
# at every point of an l_x sweep; an l_x sweep over six decades, whose
# log-Coulomb brackets take one array pass; a Rashba splitting far below the
# diagonal, also in a chart whose diagonal squares overflow; and gate alphas
# past ~1e20, where 3 alpha / 4 may round (at 3e23 it does).
REACH_RUNS = (("channel", "potential=harmonic"),
              ("channel", "potential=harmonic", "omega=1e300"),
              ("channel", "include_vc=1", "coulomb_k=0.5", "fermi_l=0.2", "n_points=401"),
              ("channel", "include_vc=1", "coulomb_k=0.5", "fermi_l=0.7", "n_points=401"),
              ("channel", "include_vc=1", "coulomb_k=0.5", "fermi_l=0.5"),
              ("channel", "include_vc=1", "fermi_l=5e-324", "coulomb_k=1"),
              ("source", "m_eff=5e-324", "l_x=1e-160", "reg_delta=1e-170"),
              ("source", "m_eff=5e-324", "l_x=1e-160", "reg_delta=1e-170",
               "sweep_key=l_x", "sweep_range=1e-160,1e-160,1"),
              ("twoqubit", "lambda=1e-300"),
              ("twoqubit", "coulomb_k=0.5", "sweep_key=lambda", "sweep_range=5e-324,2,2"),
              ("twoqubit", "coulomb_k=0.5", "alpha_r=1e158", "k=1e150",
               "sweep_key=lambda", "sweep_range=3.8e-155,2,2"),
              ("twoqubit", "k=1e200", "lambda=2", "sweep_key=coulomb_k",
               "sweep_range=0,0.5,2"),
              ("twoqubit", "lambda=1e300", "fermi_l=1e300", "coulomb_k=0.5"),
              ("source", "reg_delta=5e-324", "r_coulomb=2", "sweep_key=k",
               "sweep_range=1,1,1"),
              ("source", "l_x=2", "x_count=1", "y_min=-1", "y_max=1", "y_points=3",
               "reg_delta=5e-324", "r_coulomb=2"),
              ("source", "l_x=2", "x_count=1", "y_min=-1", "y_max=1", "y_points=3",
               "reg_delta=1e-320", "r_coulomb=3"),
              ("source", "r_coulomb=5e-324", "sweep_key=k", "sweep_range=1,1,1"),
              ("source", "l_x=1e-322", "reg_delta=5e-324", "sweep_key=k",
               "sweep_range=1,1,1"),
              ("source", "sweep_key=l_x", "sweep_range=0.001,1000,2001", "reg_delta=1e-5"),
              ("source", "sweep_key=l_x", "sweep_range=1e-310,1e-300,3",
               "reg_delta=5e-324"),
              ("source", "sweep_key=k", "sweep_range=1e-8,1e-6,3"),
              ("source", "sweep_key=beta", "sweep_range=1e5,1e9,5"),
              ("source", "m_eff=1e-200"),
              ("gates", "alpha=1e23"),
              ("gates", "alpha=3e23"))


def _sets(*pairs: str) -> list[str]:
    return [a for pair in pairs for a in ("--set", pair)]


def corpus() -> list[tuple[str, list[str], str | None]]:
    """(name, argv, config text or None) of every run, in a fixed order; a
    name starts with its command. Runs that write a file write it as "out"
    in their directory."""
    runs = []
    for command in SWEEPS:
        for fmt in ("csv", "json"):
            runs.append((f"{command} default {fmt} file",
                         [command, "--format", fmt, "--out", "out"]))
            runs.append((f"{command} default {fmt} stdout", [command, "--format", fmt]))
    # 2x1100: an x block of more rows than one output piece holds
    for nx, ny in ((1, 3), (3, 401), (50, 401), (2, 1100)):
        for fmt in ("csv", "json"):
            runs.append((f"source chart {nx}x{ny} {fmt}",
                         ["source", "--format", fmt, "--out", "out"]
                         + _sets(f"x_count={nx}", f"y_points={ny}")))
    # Tables of many output pieces: a 50x401 chart off the defaults, as the
    # benchmark draws them, and a gates sweep whose booleans span 3 pieces.
    for fmt in ("csv", "json"):
        runs.append((f"source chart 50x401 {' '.join(BENCH_CHART)} {fmt}",
                     ["source", "--format", fmt, "--out", "out"]
                     + _sets("x_count=50", "y_points=401", *BENCH_CHART)))
    runs.append(("gates sweep alpha 0,6.283185307179586,1201 json",
                 ["gates", "--format", "json", "--out", "out"]
                 + _sets("sweep_key=alpha", "sweep_range=0,6.283185307179586,1201")))
    for command, keys in SWEEPS.items():
        for key, (span, extra) in keys.items():
            for steps in (1, 3, 11) + ((101,) if command == "twoqubit" else ()):
                runs.append((f"{command} sweep {key} {span},{steps}",
                             [command, "--out", "out"] + _sets(
                                 *extra, f"sweep_key={key}", f"sweep_range={span},{steps}")))
    for fmt in ("csv", "json"):
        runs.append((f"channel dump_l {fmt}", ["channel", "--format", fmt, "--out", "out"]
                     + _sets("n_points=401", "dump_l=l.csv")))
        runs.append((f"gates dump_matrix {fmt}", ["gates", "--format", fmt, "--out", "out"]
                     + _sets("dump_matrix=m.txt")))
    runs.append(("source chart k=1e200", ["source", "--out", "out"] + _sets("k=1e200")))
    for command, keys in SWEEPS.items():
        for key, (_, extra) in keys.items():
            for span in EXTREME_RANGES:
                runs.append((f"{command} sweep {key} {span}", [command, "--out", "out"]
                             + _sets(*extra, f"sweep_key={key}", f"sweep_range={span}")))
    runs = [run + (None,) for run in runs]
    runs += [(name, argv + ["--config", "run.cfg"], text)
             for name, argv, text in CONFIG_RUNS]
    for command, *pairs in DOMAIN_RUNS:
        runs.append((f"{command} domain {' '.join(pairs)}", [command] + _sets(*pairs), None))
    for command, keys in FLOAT_KEYS.items():
        for key in keys:
            for value in EXTREME_VALUES:
                runs.append((f"{command} {key}={value}",
                             [command, "--out", "out"] + _sets(f"{key}={value}"), None))
    for command, *pairs in REACH_RUNS:
        runs.append((f"{command} {' '.join(pairs)}",
                     [command, "--out", "out"] + _sets(*pairs), None))
    return runs


def run_one(src: Path, argv: list[str], config: str | None = None) -> dict:
    """Exit code, stdout, stderr and the files of one run, timestamps masked.
    A config text is written as run.cfg before the run."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    with tempfile.TemporaryDirectory() as cwd:
        if config is not None:
            Path(cwd, "run.cfg").write_text(config, encoding="utf-8")
        proc = subprocess.run([sys.executable, "-c", CHILD, *argv], cwd=cwd, env=env,
                              capture_output=True, timeout=TIMEOUT_S)
        files = {p.name: p.read_bytes() for p in sorted(Path(cwd).iterdir())}
    return {"exit": proc.returncode, "stdout": _mask(proc.stdout),
            "stderr": _mask(proc.stderr),
            **{f"file {name}": _mask(data) for name, data in files.items()}}


def _mask(data: bytes) -> bytes:
    return TIMESTAMP.sub(b'"timestamp": "*"', data)


def _first_line_diff(old: bytes, new: bytes) -> str:
    for a, b in zip(old.splitlines(), new.splitlines()):
        if a != b:
            return f"{a[:100]!r} -> {b[:100]!r}"
    return f"{len(old.splitlines())} -> {len(new.splitlines())} lines"


def describe(old: dict, new: dict) -> list[str]:
    """What differs between two results of one run, one line per part."""
    lines = []
    for part in sorted(set(old) | set(new), key=lambda p: (p != "exit", p)):
        a, b = old.get(part), new.get(part)
        if a == b:
            continue
        if part == "exit":
            lines.append(f"exit {a} -> {b}")
        elif a is None or b is None:
            lines.append(f"{part}: {'written' if a is None else 'not written'}")
        else:
            lines.append(f"{part}: {_first_line_diff(a, b)}")
    return lines


def compare(old_src: Path, new_src: Path, runs) -> list[tuple]:
    """(name, argv, differences) of every run whose results differ."""
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        old = list(pool.map(lambda r: run_one(old_src, *r[1:]), runs))
        new = list(pool.map(lambda r: run_one(new_src, *r[1:]), runs))
    return [(name, argv, describe(a, b))
            for (name, argv, _), a, b in zip(runs, old, new) if a != b]


def report(diffs, total: int) -> str:
    lines = [f"{total - len(diffs)} of {total} runs identical, {len(diffs)} differ"]
    for target in dict.fromkeys(name.split()[0] for name, _, _ in diffs):
        lines.append(f"\n[{target}]")
        for name, argv, parts in diffs:
            if name.split()[0] == target:
                lines.append(f"  {name}: entangler {' '.join(argv)}")
                lines += [f"    {part}" for part in parts]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare the working tree with")
    args = parser.parse_args(argv)
    runs = corpus()
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.rev, "src"],
                                 capture_output=True)
        if archive.returncode:
            sys.stderr.write(archive.stderr.decode())
            return 2
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        diffs = compare(Path(tmp) / "src", ROOT / "src", runs)
    sys.stdout.write(report(diffs, len(runs)))
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
