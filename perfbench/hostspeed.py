"""How fast the host runs right now, from a fixed calibration unit.

The benchmark's host is a 2-vCPU virtual machine shared with other tenants.
Its speed drifts by a factor of 1.5 or more between minutes, and it flips
between a fast and a slow state every few hundred milliseconds. Run-to-run
figures are made comparable by timing the unit right next to the work: a
run times it before a pass's first operation, after its last, and between
operations once ``CALIBRATE_EVERY_S`` has passed since the last time. Each
operation's latency is divided by the faster of the calibrations on either
side of it, and a run reports the lower quartile of these ratios over its
passes, times ``REFERENCE_S``. A ratio to a calibration a few milliseconds away follows
both the flips and the drift; the lower quartile drops the passes in which
the host changed state between the work and its calibration.

The unit does the kinds of work diffgen's Python code does: exact
``Fraction`` polynomial arithmetic (a node polynomial and its synthetic
divisions, as in Lagrange coefficient formulas) and 50-digit ``Decimal``
arithmetic. It is written out here and calls nothing else of the benchmark
or of diffgen, so no change to the program or to the checks can move it.
A tight integer loop followed the other tenants less well (its small
footprint barely feels them), and a small LAPACK LU varied by a factor of
1.6 on its own.

Set-up time, mostly numpy and scipy loading their modules and extensions,
does not follow that unit. It has a unit of its own: a fresh interpreter
importing a fixed set of standard-library modules (``IMPORT_UNIT``), timed
right before each set-up probe.
"""

from __future__ import annotations

import math
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from time import perf_counter

# Best time of one calibration unit on this host in its fast state
# (Python 3.11.7, Intel Xeon vCPU); times measured against the unit read as
# seconds there. Any change to a unit moves every time measured against it,
# so the baseline must be measured again after one.
REFERENCE_S = 0.00086
UNITS_PER_SAMPLE = 3  # a calibration is the fastest of these, to drop interrupts
CALIBRATE_EVERY_S = 0.005  # between operations, calibrate at most this often

IMPORT_UNIT = ("argparse", "asyncio", "csv", "decimal", "email.parser", "fractions",
               "http.client", "json", "sqlite3", "unittest", "xml.etree.ElementTree")
# Typical time of the import unit on this host; set-up times read as seconds.
IMPORT_REFERENCE_S = 0.08


def _unit() -> None:
    nodes = [Fraction(7, 3) - j for j in range(12)]
    poly = [Fraction(1)]  # ascending coefficients of prod_m (x - x_m)
    for x_m in nodes:
        poly = [Fraction(0)] + poly
        for k in range(len(poly) - 1):
            poly[k] -= x_m * poly[k + 1]
    for x_j in nodes:  # top of poly / (x - x_j), down to the x^2 coefficient
        carry = poly[-1]
        for k in range(len(poly) - 2, 2, -1):
            carry = poly[k] + x_j * carry
    with localcontext() as ctx:
        ctx.prec = 50
        step, dec = Decimal(1) / Decimal(7), Decimal(0)
        for i in range(1, 1500):
            dec += step * i


class HostSpeed:
    """Calibrates on demand; keeps the best calibration of this process."""

    def __init__(self):
        self.best = math.inf
        self._last = -math.inf

    def sample(self) -> float:
        """Seconds of one calibration unit now (the fastest of a few)."""
        now = math.inf
        for _ in range(UNITS_PER_SAMPLE):
            t0 = perf_counter()
            _unit()
            self._last = perf_counter()
            now = min(now, self._last - t0)
        self.best = min(self.best, now)
        return now

    def due(self) -> bool:
        return perf_counter() - self._last >= CALIBRATE_EVERY_S


def import_unit_seconds(timeout: float) -> float:
    """Seconds a fresh interpreter takes to import IMPORT_UNIT."""
    code = ("import time; t0 = time.perf_counter(); import " + ", ".join(IMPORT_UNIT)
            + "; print(time.perf_counter() - t0)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=timeout, check=True)
    return float(done.stdout)
