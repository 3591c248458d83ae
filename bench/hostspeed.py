"""A fixed probe of how fast the host runs right now.

The benchmark shares a few cores of a host with other tenants, and the host's
speed drifts: the same pass of calls takes anywhere from 1x to 2x its
fastest time, in phases lasting from seconds to minutes.  No run length
averages that out, so timed work is scaled by the host speed measured around
it instead.

``probe()`` times a fixed kernel that mixes the kinds of work the library
does (JSON parsing, a numpy sort, interpreted Python) and returns the best of
three tries.  ``normalize(seconds, before, after)`` scales a measured time to
the host speed at which the probe takes ``REF_PROBE_S``: seconds times
``REF_PROBE_S`` over the mean of the probes taken just before and just after
it.  The probe never touches the library, so a change to the library moves
the scaled time exactly as it moves the raw one.

Interpreter start-up follows a different clock: it is file mapping, page
faults and module execution more than computation, and the kernel above
tracks it poorly.  Its probe is a fresh interpreter importing only the
modules the library depends on (``STARTUP_PROBE_CODE``), started right
after each timed start and scaled to ``REF_STARTUP_S`` the same way.
"""

from __future__ import annotations

import json
import time

import numpy as np

# the probes' usual times on an idle 2-vCPU x86-64 VM (Python 3, numpy with
# OpenBLAS); they only fix the unit, so that scaled times read as seconds
REF_PROBE_S = 0.015
REF_STARTUP_S = 0.085

STARTUP_PROBE_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import argparse, json, numpy\n"
    "print(time.perf_counter() - t)\n"
)

_rng = np.random.default_rng(12345)
_ARR = _rng.random(1 << 16)
_TEXT = json.dumps(_rng.random(20_000).tolist())


def _kernel() -> float:
    t0 = time.perf_counter()
    json.loads(_TEXT)
    np.lexsort((_ARR, -_ARR))
    acc = {}
    for i in range(20_000):
        acc[i % 997] = acc.get(i % 997, 0) + i
    return time.perf_counter() - t0


def probe() -> float:
    return min(_kernel() for _ in range(3))


def normalize(seconds: float, before: float, after: float) -> float:
    return seconds * REF_PROBE_S / (0.5 * (before + after))


def normalize_startup(seconds: float, probe_s: float) -> float:
    return seconds * REF_STARTUP_S / probe_s


_kernel()  # first use pays for page faults and lazy set-up
