"""Numerical toolkit for a solid-state exchange-coupled two-qubit entangler.

Subpackages by role:

* ``numerics`` - quadrature, erfcx and small dense eigen solvers.
* ``source_spectrum`` - spin-split spectrum of the 2DEG source lead under
  Rashba coupling.
* ``channel_qlm`` - channel levels from the Riccati/quasilinearization
  iteration on the quartic double well.
* ``twoqubit_channel`` - the 4x4 two-qubit channel matrix, its expectations,
  and the claimed-versus-numeric eigen report.
* ``gates`` - Bell states, the U_SWAP^alpha family, SWAP / sqrt(SWAP) / CNOT
  synthesis, and concurrence.
* ``cli`` - batch sweep driver with deterministic CSV/JSON output.
"""

__version__ = "0.1.0"

from . import channel_qlm, gates, numerics, source_spectrum, twoqubit_channel

__all__ = [
    "__version__",
    "numerics",
    "source_spectrum",
    "channel_qlm",
    "twoqubit_channel",
    "gates",
]
