#!/usr/bin/env python3
"""Write src/entangler/_erfcx_table.py, the Taylor coefficients that
numerics.erfcx evaluates on [0, 8), from mpmath.

    python3 tools/erfcx_table.py [--check]

[0, 8) is split into INTERVALS intervals of width WIDTH. Interval i holds
the coefficients c_0 .. c_DEGREE of erfcx's Taylor series at its centre
(i + 1/2) * WIDTH, each computed at DIGITS significant digits and rounded
to the nearest float. They follow from erfcx' = 2 x erfcx - 2/sqrt(pi),
differentiated n times: (n + 1) c_{n+1} = 2 x c_n + 2 c_{n-1}.
With --check, nothing is written: exit code 1 when the committed file
differs from what this script would write, else 0.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import mpmath

TABLE = Path(__file__).resolve().parents[1] / "src" / "entangler" / "_erfcx_table.py"
INTERVALS = 32
WIDTH = 0.25
DEGREE = 13
DIGITS = 40
PER_LINE = 3

HEADER = f'''"""Taylor coefficients of erfcx on [0, 8), for numerics.erfcx.

Written by tools/erfcx_table.py from mpmath at {DIGITS} digits; run it again
rather than edit this file. TAYLOR[n, i] is the n-th Taylor coefficient of
erfcx at the centre (i + 1/2) * WIDTH of the interval [i, i + 1) * WIDTH,
rounded to the nearest float; the rows below are the intervals.
"""
import numpy as np

__all__ = ["TAYLOR", "WIDTH"]

WIDTH = {WIDTH!r}
TAYLOR = np.array([
'''


def coefficients(centre: float) -> list[float]:
    """c_0 .. c_DEGREE of erfcx's Taylor series at centre, as floats."""
    with mpmath.workdps(DIGITS):
        x = mpmath.mpf(centre)
        c = [mpmath.exp(x * x) * mpmath.erfc(x)]
        c.append(2 * x * c[0] - 2 / mpmath.sqrt(mpmath.pi))
        for n in range(1, DEGREE):
            c.append((2 * x * c[n] + 2 * c[n - 1]) / (n + 1))
        return [float(v) for v in c]


def render() -> str:
    """The text of the table module."""
    lines = [HEADER]
    for i in range(INTERVALS):
        values = [repr(v) for v in coefficients((i + 0.5) * WIDTH)]
        rows = [", ".join(values[j:j + PER_LINE]) for j in range(0, len(values), PER_LINE)]
        lines.append(f"    # [{i * WIDTH!r}, {(i + 1) * WIDTH!r})\n")
        lines.append("    (" + ",\n     ".join(rows) + "),\n")
    lines.append("]).T.copy()\n")
    return "".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed file, write nothing")
    args = parser.parse_args(argv)
    text = render()
    if args.check:
        return int(TABLE.read_text(encoding="utf-8") != text)
    TABLE.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
