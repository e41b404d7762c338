"""Span tracer for the per-layer run, kept in the benchmark's own files.

install() replaces each traced public function of the program with a
wrapper, in every entangler module that holds a reference to it, so calls
made through ``cli`` and calls made between modules are both seen. A
wrapper records one span (id, parent id, name, start, end) and adds the
span's duration, minus the time of its traced children, to the function's
self time. Spans are kept in memory while ``keep_spans`` is set and written
out by the caller when the run ends; counts and self times are always kept.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import time

# module -> public functions traced in it (the layer boundaries).
LAYERS = {
    "cli": ("main", "parse_config", "run"),
    "gates": ("u_swap_alpha", "bell_state", "exchange_evolution_expm",
              "cnot_from_sqrt_swap", "gate_fidelity", "concurrence", "apply"),
    "source_spectrum": ("build_hmatrix", "spin_split", "chart_delta_e"),
    "channel_qlm": ("qlm_spectrum", "qlm_energy", "qlm_step", "channel_potential"),
    "twoqubit_channel": ("expectations", "build_matrix", "claimed_vs_numeric"),
    "numerics": ("integrate", "erfcx", "eigen_small", "is_hermitian"),
}

TRACED = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


class Tracer:
    def __init__(self):
        self.calls = dict.fromkeys(TRACED, 0)
        self.self_ns = dict.fromkeys(TRACED, 0)
        self.spans: list[tuple] = []
        self.keep_spans = True
        self._stack: list[list] = []   # [span id, child ns] per open span
        self._ids = itertools.count(1)

    def wrap(self, name: str, fn):
        calls, self_ns, stack = self.calls, self.self_ns, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [next(self._ids), 0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[name] += 1
                self_ns[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if self.keep_spans:
                    self.spans.append((frame[0], parent, name, start, end))

        return traced

    def install(self) -> None:
        modules = {name: importlib.import_module(f"entangler.{name}")
                   for name in LAYERS}
        for mod_name, fns in LAYERS.items():
            for fn_name in fns:
                original = getattr(modules[mod_name], fn_name)
                wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
                for module in modules.values():
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def snapshot(self) -> tuple[dict, dict]:
        return dict(self.calls), dict(self.self_ns)


def parse_importtime(stderr: str) -> dict:
    """{module: (self_us, cumulative_us, nesting level)} from the lines
    ``python -X importtime`` writes to standard error."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        name = parts[2][1:].rstrip()  # one space follows the bar
        level = (len(name) - len(name.lstrip())) // 2
        out[name.strip()] = (int(parts[0]), int(parts[1]), level)
    return out
