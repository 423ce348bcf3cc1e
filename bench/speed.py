"""The machine's current speed, measured by a fixed piece of work.

On a shared VM the same code runs up to about 1.7x slower for seconds at a
time (see bench/README.md, Timing). Each child times `calibrate()` just before
and just after its repetition, and the benchmark divides the repetition's
wall time by the calibration's wall time, and its CPU and import times by
the calibration's CPU time, so a slow phase of the host scales both and
cancels. The work mixes what pdqw's workloads do: map sampling and the
coin-shift walk in numpy (the oracle in checks.py), dense complex matrix
products, and float formatting, CSV writing and hashing. It calls no pdqw
code, so a change to pdqw never changes the yardstick.
"""

from __future__ import annotations

import csv
import hashlib
import io
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

import checks

# calibrate() takes about this long, in wall and in CPU time, at the full
# speed of the 2-vCPU Xeon VM the benchmark was written on. Times are
# reported as measured * REFERENCE_S / calibration, in seconds at that speed.
REFERENCE_S = 0.1

_SEED = 20190726
_DIM = 82  # mode count of a 20-step walk, as in two-photon-20
_UNITS = 8


def _unit(k: int) -> float:
    total = float(checks._mean_positions(_SEED + k, 0.5, 20, 12).sum())
    total += float(checks._pair_sites(checks._phase_rows(_SEED, 0.2, 20, k), 20)[-1].sum())
    rng = np.random.default_rng(_SEED + k)
    u = rng.standard_normal((_DIM, _DIM)) + 1j * rng.standard_normal((_DIM, _DIM))
    u /= np.linalg.norm(u, 2)
    v = np.eye(_DIM, dtype=complex)
    for _ in range(15):
        v = u @ v
    total += float(np.abs(v).sum())
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    values = rng.random(1000)
    for i in range(0, values.size, 4):
        writer.writerow([repr(float(x)) for x in values[i : i + 4]])
    return total + len(hashlib.sha256(buf.getvalue().encode("ascii")).hexdigest())


def calibrate(threads: int) -> tuple[float, float]:
    """Wall and CPU seconds that the fixed work takes now, split over
    `threads` pool threads as the workload splits its own work. With two
    threads the wall time also depends on the second vCPU and on handing the
    GIL between them, which a one-thread calibration misses; the CPU time
    leaves out that waiting, so it is the yardstick for CPU time."""
    t0, cpu0 = time.perf_counter(), time.process_time()
    if threads == 1:
        for k in range(_UNITS):
            _unit(k)
    else:
        with ThreadPoolExecutor(threads) as pool:
            list(pool.map(_unit, range(_UNITS)))
    return time.perf_counter() - t0, time.process_time() - cpu0
