"""The reference kernel: the unit that timings are normalised by.

The machine the benchmark was tuned on runs all code up to twice as slow
in phases lasting seconds to minutes (CPU time slows exactly as wall time
does, so it is contention, not descheduling). A time divided by this
kernel's time, measured right next to it, keeps only what the program
changed.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

# the kernel's median time on the tuning machine outside its slow phases;
# a time in seconds times NOMINAL_S / kernel time is that time at this speed
NOMINAL_S = 0.0055
# the reference start-up's time at the same speed
NOMINAL_START_S = 0.109

_RNG = np.random.default_rng(20090713)
_M = (_RNG.normal(size=(48, 48)) + 1j * _RNG.normal(size=(48, 48))) / 10
_V = _RNG.normal(size=48) + 0j


def reference_kernel():
    """A fixed amount of dict work and small matrix-vector products.

    It mirrors the mix the program spends its time on and calls nothing in
    ``cuntzr``.
    """
    acc = {}
    for i in range(12000):
        key = (i % 101, i % 89)
        acc[key] = acc.get(key, 0j) + (1.0 + 0.5j)
    acc = {k: a for k, a in acc.items() if abs(a) > 1e-13}
    v = _V
    for _ in range(300):
        v = _M @ v
        v = v / np.linalg.norm(v)
    return len(acc), v


def timed_ref():
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def timed_start(env):
    """Wall time of the reference start-up: a fresh interpreter that only
    imports numpy, the part of a process start that no kernel mirrors."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, check=True)
    return time.perf_counter() - start
