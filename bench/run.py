#!/usr/bin/env python3
"""Benchmark of the entangler CLI: four workloads, checked outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/entangler`` must exist; the
package need not be installed). One client, closed loop: each operation
starts when the previous one has finished. A run repeats whole rounds of
the seeded operation list from inputs.py until S seconds of rounds have
passed, checks every output with checks.py in a separate checker process,
and prints one JSON object as its last line of standard output. With
--trace 0 it reports the end-to-end metrics; with --trace 1 it installs
the span tracer and reports per-layer metrics instead.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import inputs
from tracing import LAYERS, TRACED, Tracer, parse_importtime

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_STARTS = 7      # fresh starts per run; setup_s is the fastest
IMPORT_STARTS = 5     # fresh `-X importtime` starts per traced run
CHILD_TIMEOUT_S = 60

IMPORT_MODULES = ("entangler",) + tuple(LAYERS)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def run_child(cmd: list[str], stderr_path: Path):
    """Run one child to completion; (exit code, wall s, rusage of the child)."""
    with open(stderr_path, "w", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


class Runner:
    """Executes one operation and returns (exit code, wall s, cpu s, rss KiB)."""

    def __init__(self, workload: str, trace: bool):
        self.cold = workload == "cold_cli"
        self.trace = trace
        self.tracer = None
        self.round_stats: list[dict] = []     # traced children of this round
        self.last_totals: tuple[dict, dict] = ({}, {})
        self.keep_spans = True
        self.spans: list[tuple] = []          # (op index, span...) of round 1
        self.message = ""
        if self.cold:
            return
        sys.path.insert(0, str(SRC))
        if trace:
            self.tracer = Tracer()
            self.tracer.install()
        from entangler import cli
        self.cli = cli

    def __call__(self, op: inputs.Op, index: int, out: Path):
        for stale in (out, Path(f"{out}.manifest.json")):
            stale.unlink(missing_ok=True)
        if self.cold:
            return self._child(op, index, out)
        buf = io.StringIO()
        with contextlib.redirect_stderr(buf):
            cpu0, t0 = time.process_time(), time.perf_counter()
            try:
                rc = self.cli.main(op.argv(str(out)))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            t1, cpu1 = time.perf_counter(), time.process_time()
        self.message = buf.getvalue()
        if self.tracer is not None and self.keep_spans:
            self.spans += [(index,) + s for s in self.tracer.spans]
            self.tracer.spans.clear()
        return rc, t1 - t0, cpu1 - cpu0, None

    def _child(self, op: inputs.Op, index: int, out: Path):
        argv = op.argv(str(out))
        stats_path = WORK / "child-trace.json"
        if self.trace:
            cmd = [sys.executable, str(BENCH / "probe.py"), "trace",
                   str(stats_path), "1" if self.keep_spans else "0", *argv]
        else:
            cmd = [sys.executable, "-m", "entangler.cli", *argv]
        err_path = WORK / "child-stderr.txt"
        rc, wall, usage = run_child(cmd, err_path)
        self.message = err_path.read_text(encoding="utf-8", errors="replace")
        if self.trace and stats_path.is_file():
            stats = json.loads(stats_path.read_text(encoding="utf-8"))
            self.round_stats.append(stats)
            self.spans += [(index,) + tuple(s) for s in stats["spans"]]
            stats_path.unlink()
        return rc, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss

    def take_round(self) -> tuple[dict, dict]:
        """(calls, self ns) per traced function since the last call."""
        calls, self_ns = {}, {}
        if self.tracer is not None:
            calls, self_ns = self.tracer.snapshot()
            last_calls, last_self = self.last_totals
            self.last_totals = calls, self_ns
            return ({k: v - last_calls.get(k, 0) for k, v in calls.items()},
                    {k: v - last_self.get(k, 0) for k, v in self_ns.items()})
        for stats in self.round_stats:
            for name, n in stats["calls"].items():
                calls[name] = calls.get(name, 0) + n
            for name, ns in stats["self_ns"].items():
                self_ns[name] = self_ns.get(name, 0) + ns
        self.round_stats = []
        return calls, self_ns

    def set_keep_spans(self, keep: bool) -> None:
        self.keep_spans = keep
        if self.tracer is not None:
            self.tracer.keep_spans = keep


class SetupProbe:
    """Fresh starts that import entangler.cli and run the warm-up; setup_s is
    the fastest of their wall times, the same estimator as latency_s_min.
    The starts are spread over the run so that they see the same machine
    load as the operations do."""

    def __init__(self, workload: str):
        warm = [op.argv(str(WORK / f"warmup.{op.fmt}"))
                for op in inputs.warmup_ops(workload)]
        self.cmd = [sys.executable, str(BENCH / "probe.py"), "setup",
                    json.dumps(warm)]
        self.times: list[float] = []

    def start_once(self) -> float:
        err = WORK / "setup-stderr.txt"
        rc, wall, _ = run_child(self.cmd, err)
        if rc != 0:
            raise RuntimeError("set-up probe failed: "
                               + err.read_text(encoding="utf-8"))
        self.times.append(wall)
        return wall


class Checker:
    """checks.py as a child process. The measuring process then holds only
    the program, so its peak RSS is the program's and not the checker's.
    The child has finished its imports before the first timed start, waits
    on its input while an operation runs, and keeps one BLAS thread so that
    it never spins beside the program."""

    def __init__(self, workload: str, seed: int):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "checks.py"), workload, str(seed)],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)
        if not self.proc.stdout.readline():  # {"ready": n}: imports done
            raise RuntimeError(f"checker exited with {self.proc.wait()}")

    def check(self, index: int, path: Path) -> tuple[int, str]:
        """(rows, "") for a passing output, (0, reason) for a failing one."""
        self.proc.stdin.write(f"{index}\t{path}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"checker exited with {self.proc.wait()}")
        reply = json.loads(line)
        return reply.get("rows", 0), reply.get("error", "")

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def warm_up(runner: Runner, workload: str) -> None:
    if runner.cold:
        return
    for op in inputs.warmup_ops(workload):
        rc, *_ = runner(op, -1, WORK / f"warmup.{op.fmt}")
        if rc != 0:
            raise RuntimeError(f"warm-up {op.command} failed: {runner.message}")
    runner.take_round()
    runner.spans.clear()


def run_rounds(runner: Runner, ops: list[inputs.Op], seconds: float,
               probe: SetupProbe | None, checker: Checker):
    """Repeat whole rounds of ops until `seconds` of rounds have run.
    Returns the per-operation samples, per-round records, error lines, and
    whether every operation that should succeed did and passed its check."""
    samples, rounds, errors = [], [], []
    correct = True
    start = time.perf_counter()
    probe_s = 0.0      # time spent in set-up starts, not counted as run time
    while True:
        if probe is not None and len(probe.times) < SETUP_STARTS and (
                time.perf_counter() - start - probe_s
                >= seconds * len(probe.times) / SETUP_STARTS):
            probe_s += probe.start_once()
        record = {"rows": 0}
        for index, op in enumerate(ops):
            out = WORK / f"op{index}.{op.fmt}"
            begin = time.perf_counter() - start
            rc, wall, cpu, rss = runner(op, index, out)
            sample = {"op": index, "round": len(rounds), "ok": rc == 0,
                      "wall_s": wall, "cpu_s": cpu, "rss_kib": rss,
                      "start_s": begin}
            samples.append(sample)
            if rc != 0:
                if not op.expect_failure:
                    errors.append(f"unexpected exit {rc} from {op.command}: "
                                  f"{runner.message.strip()[:200]}")
                    correct = False
                continue
            rows, error = checker.check(index, out)
            record["rows"] += rows
            if error:
                errors.append(f"check failed on {op.command} op {index}: {error}")
                correct = False
        record["calls"], record["self_ns"] = runner.take_round()
        rounds.append(record)
        runner.set_keep_spans(False)
        elapsed = time.perf_counter() - start - probe_s
        probes_done = probe is None or len(probe.times) >= SETUP_STARTS
        if elapsed >= seconds and probes_done:
            return samples, rounds, errors, correct


def end_to_end(samples, rounds, setup_times, cold: bool) -> dict:
    """Every round repeats the same operations, so each operation of the
    round has one sample per round. Its cost is the fastest of those
    samples, and the round's cost is the sum over its operations.

    The minimum, not the median: contention from other tenants of the
    machine only ever adds time and comes in stretches of 30 s to minutes
    that slow everything by up to 2x, so a run's median depends on how
    much of it fell in such a stretch, while its best rounds do not.

    Failed operations count in the round's time but not in the per-op
    figures; when no operation succeeded (the run is then not correct)
    the per-op figures fall back to all of them."""
    by_op: dict[int, list[dict]] = {}
    for s in samples:
        by_op.setdefault(s["op"], []).append(s)
    round_s = sum(min(s["wall_s"] for s in runs) for runs in by_op.values())
    timed = [ok for ok in ([s for s in runs if s["ok"]]
                           for runs in by_op.values()) if ok]
    timed = timed or list(by_op.values())
    wall = [min(s["wall_s"] for s in runs) for runs in timed]
    cpu = [min(s["cpu_s"] for s in runs) for runs in timed]
    if cold:
        rss_kib = max(s["rss_kib"] for s in samples)
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (min(setup_times), "s"),
        "latency_s_min": (statistics.fmean(wall), "s"),
        "rows_per_s": (rounds[0]["rows"] / round_s, "1/s"),
        "cpu_s_per_op": (statistics.fmean(cpu), "s"),
        "peak_rss_mb": (rss_kib / 1024.0, "MiB"),
    }


def import_times() -> dict:
    """Median over fresh starts of `python -X importtime` for entangler.cli."""
    runs = []
    for _ in range(IMPORT_STARTS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import entangler.cli"],
                              cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError("import of entangler.cli failed:\n" + proc.stderr)
        runs.append(parse_importtime(proc.stderr))

    def med(pick) -> float:
        return statistics.median(pick(r) for r in runs) / 1e6

    out = {}
    for mod in IMPORT_MODULES:
        name = "entangler" if mod == "entangler" else f"entangler.{mod}"
        out[f"import.{mod}_s"] = med(lambda r: r.get(name, (0, 0, 0))[0])
    out["import.scipy_linalg_s"] = med(lambda r: r.get("scipy.linalg", (0, 0, 0))[1])
    out["import.numpy_s"] = med(lambda r: r.get("numpy", (0, 0, 0))[1])
    out["import.total_s"] = med(
        lambda r: sum(cum for _, cum, level in r.values() if level == 0))
    return out


def per_layer(rounds) -> tuple[dict, str]:
    first = rounds[0]["calls"]
    steady = all(r["calls"] == first for r in rounds)
    metrics = {}
    module_self = {mod: [0.0] * len(rounds) for mod in LAYERS}
    for name in TRACED:
        per_round = [r["self_ns"].get(name, 0) / 1e9 for r in rounds]
        metrics[f"{name}.calls"] = (first.get(name, 0), "count")
        metrics[f"{name}.self_s"] = (min(per_round), "s")
        mod = name.split(".")[0]
        module_self[mod] = [a + b for a, b in zip(module_self[mod], per_round)]
    for mod, per_round in module_self.items():
        metrics[f"{mod}.self_s"] = (min(per_round), "s")
    for name, value in import_times().items():
        metrics[name] = (value, "s")
    note = ("calls and self times are per round; call counts "
            + ("identical in every round" if steady else "DIFFER between rounds"))
    return metrics, note


def write_samples(samples, workload: str, seed: int, trace: int) -> None:
    """Raw per-operation samples, for looking at a run after the fact."""
    path = WORK / f"samples-{workload}-{seed}-trace{trace}.json"
    path.write_text(json.dumps(samples), encoding="utf-8")


def write_spans(runner: Runner, workload: str, seed: int) -> Path:
    path = WORK / f"trace-{workload}-{seed}.tsv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("op\tspan\tparent\tname\tstart_ns\tend_ns\n")
        for span in runner.spans:
            fh.write("\t".join(str(v) for v in span) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "entangler" / "cli.py").is_file():
        sys.stderr.write(f"no program to measure: {SRC / 'entangler'} is missing; "
                         "run from the root of a source checkout\n")
        return 2
    WORK.mkdir(exist_ok=True)

    ops = inputs.round_ops(args.workload, args.seed)
    probe = None if args.trace else SetupProbe(args.workload)
    runner = Runner(args.workload, bool(args.trace))
    checker = Checker(args.workload, args.seed)
    try:
        warm_up(runner, args.workload)
        samples, rounds, errors, correct = run_rounds(
            runner, ops, args.seconds, probe, checker)
    finally:
        checker.close()
    write_samples(samples, args.workload, args.seed, args.trace)
    for line in errors[:20]:
        print(line)
    note = ""
    if args.trace:
        metrics, note = per_layer(rounds)
        spans = write_spans(runner, args.workload, args.seed)
        note = f"; {note}; spans of round 1 in {spans.name}"
    else:
        metrics = end_to_end(samples, rounds, probe.times, runner.cold)
    attempted = len(samples)
    failed = sum(1 for s in samples if not s["ok"])
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds of {len(ops)} "
          f"operations, {attempted} attempted, {failed} failed{note}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
