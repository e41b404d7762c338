"""A sweep is its one-point sweeps: every target computes all the values of a
sweep at once, and each row, each failure and each warning must come out
as if every value had been run alone."""
import contextlib
import io
import json
import math
import os
import re
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from entangler.cli import MAX_SWEEP_STEPS, _sweep_rows, _sweep_values, main
from entangler.numerics import DomainError, check_finite
from target_keys import FLOAT_KEYS, SWEEPABLE

# Ordinary values, and the magnitudes where squares overflow, divisions by
# an underflowed product fail, and domain checks trip.
VALUES = st.one_of(
    st.floats(-2.0, 6.0),
    st.sampled_from([0.0, 5e-324, 1e-320, 1e-300, 1e-160, 1e150, 1.5e154,
                     1e155, 1e200, 1e300, -1e-300, -1e155, -1e300]),
    st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def sweeps(draw, command, key):
    """--set lines of a sweep of key, with at most one other float key
    moved, its (start, stop, steps) and its format."""
    a, b = draw(VALUES), draw(VALUES)
    start, stop, steps = min(a, b), max(a, b), draw(st.integers(2, 4))
    lines = []
    # y_min and y_max shape the source chart, which a sweep does not draw
    others = [k for k in FLOAT_KEYS[command] if k not in (key, "y_min", "y_max")]
    if others and draw(st.booleans()):
        lines.append(f"{draw(st.sampled_from(others))}={draw(VALUES)!r}")
    if command == "channel":
        lines += [f"n_points={draw(st.integers(101, 201))}",
                  f"iterations={draw(st.integers(1, 2))}",
                  f"include_vc={draw(st.integers(0, 1))}",
                  f"potential={draw(st.sampled_from(['quartic', 'harmonic']))}"]
    if command == "twoqubit":
        lines.append(f"wave_direction={draw(st.sampled_from(['along_y', 'along_x']))}")
    return lines, (start, stop, steps), draw(st.sampled_from(["csv", "json"]))


def run_sweep(command, lines, key, sweep_range, fmt, tmp):
    """(exit code, stderr lines, data rows as text, sidecar warnings)."""
    out = os.path.join(tmp, "out")
    sets = [a for line in lines + [f"sweep_key={key}", f"sweep_range={sweep_range}"]
            for a in ("--set", line)]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main([command, "--format", fmt, "--out", out] + sets)
    rows, warned = None, None
    if rc == 0:
        with open(out, encoding="utf-8") as fh:
            text = fh.read()
        if fmt == "csv":
            rows = text.splitlines()[1:]
        else:  # each row as it is printed, so -0 stays apart from 0
            rows = re.findall(r"\[[^\[\]]*\]", text.split('"rows": [', 1)[1])
        with open(out + ".manifest.json", encoding="utf-8") as fh:
            warned = json.load(fh).get("diagnostics", {}).get("warnings", [])
        os.remove(out)
        os.remove(out + ".manifest.json")
    assert os.listdir(tmp) == []  # a failing run writes nothing
    return rc, err.getvalue().splitlines(), rows, warned


def warning_lines(target, lines):
    prefix = f"{target}: warning: "
    return [line[len(prefix):] for line in lines if line.startswith(prefix)]


def assert_sweep_is_its_points(command, lines, key, start, stop, steps, fmt):
    """Run the sweep and its one-point sweeps up to the first that fails:
    the sweep's rows and warnings are theirs, or it fails as that point
    does. Returns the sweep's exit code and stderr lines."""
    values = _sweep_values(start, stop, steps)
    with tempfile.TemporaryDirectory() as tmp:
        sweep = run_sweep(command, lines, key, f"{start!r},{stop!r},{steps}", fmt, tmp)
        singles = []
        for v in values:
            singles.append(run_sweep(command, lines, key, f"{v!r},{v!r},1", fmt, tmp))
            if singles[-1][0] != 0:
                break
    rc, err, rows, warned = sweep
    first_failure = singles[-1] if singles[-1][0] != 0 else None
    earlier = [w for s in singles if s[0] == 0 for w in s[3]]
    if first_failure is None:
        assert rc == 0, err
        assert rows == [row for s in singles for row in s[2]]
        assert warned == list(dict.fromkeys(earlier))
    else:
        f_rc, f_err = first_failure[:2]
        assert (rc, err[:1]) == (f_rc, f_err[:1])
        target = err[0].split(":", 1)[0]
        assert warning_lines(target, err) == list(dict.fromkeys(
            earlier + warning_lines(target, f_err)))
    return rc, err


@pytest.mark.parametrize("command, key", [(c, k) for c, keys in SWEEPABLE.items()
                                          for k in keys])
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_sweep_equals_its_one_point_sweeps(command, key, data):
    lines, (start, stop, steps), fmt = data.draw(sweeps(command, key))
    assert_sweep_is_its_points(command, lines, key, start, stop, steps, fmt)


# The radicand check fails for a trailing run of a lambda or coulomb_k sweep,
# after a first point that is not finite: 1 / (4 lambda^2) or k^2 overflows,
# or the eigenvalue h0 + hr does.
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("lines, key, sweep_range, column", [
    (["coulomb_k=0.5"], "lambda", (5e-324, 2.0, 2), "h0"),
    (["coulomb_k=0.5", "alpha_r=1e158", "k=1e150"], "lambda", (3.8e-155, 2.0, 2), "e4_re"),
    (["k=1e200", "lambda=2"], "coulomb_k", (0.0, 0.5, 2), "h0")])
def test_row_not_finite_fails_before_a_later_domain_error(lines, key, sweep_range,
                                                          column, fmt):
    rc, err = assert_sweep_is_its_points("twoqubit", lines, key, *sweep_range, fmt)
    assert (rc, err[0]) == (1, f"twoqubit_eigen: computation failed: non-finite {column}")


@pytest.mark.parametrize("bad, message", [(1, "non-finite x"), (4, "at 3")])
def test_sweep_rows_fail_at_the_first_failing_point(bad, message):
    """A point function whose first domain check fails from point 5, whose
    second fails from point 3, and whose row `bad` is not finite: the error
    of the first failing point is raised, whatever the order of the checks."""
    calls = []

    def point(resolved, key, values, as_json):
        calls.append(len(values))
        for i in (5, 3):
            if len(values) > i:
                raise DomainError("x", f"at {i}", i)
        check_finite(("x",), ([math.inf if i == bad else 1.0 for i in values],))
        return values, {"dump": values[:1]}

    target = type("Target", (), {"point": staticmethod(point)})
    with pytest.raises(ValueError, match=message):
        _sweep_rows(target, {}, "x", list(range(8)), False)
    assert calls == [8, 5, 3]
    assert _sweep_rows(target, {}, "x", [0, 2], False) == ([0, 2], {"dump": [0]})


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(a=FINITE, b=FINITE, steps=st.one_of(st.integers(1, 50),
                                          st.integers(1, MAX_SWEEP_STEPS)))
def test_sweep_values_end_at_stop_and_keep_the_formula_where_finite(a, b, steps):
    start, stop = min(a, b), max(a, b)
    values = _sweep_values(start, stop, steps)
    assert len(values) == steps and values[0] == start
    assert values[-1] == (stop if steps > 1 else start)
    assert all(math.isfinite(v) for v in values)
    assert values == sorted(values)
    for i, v in enumerate(values[:-1]):
        formula = start + (stop - start) * i / (steps - 1)
        if math.isfinite(formula):
            assert v.hex() == formula.hex()
