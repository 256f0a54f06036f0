"""A fixed probe of how fast the machine is running right now.

On a shared machine the same work can run 1.7 times slower for seconds at a
time while neighbours are busy, which no amount of repetition inside one run
averages out.  The benchmark therefore runs this probe before the first
batch and after every batch, and scales each batch time by how much slower
than nominal the probe ran on either side of it.  The probe runs no package
code, so a change to the package moves the scaled time exactly as much as
the raw one; only the machine's drift is divided out.

Contention slows different kinds of work by different amounts, so the probe
times four kinds separately and each workload weighs them by what it spends
its time on (``Workload.speed_mix``).
"""

from __future__ import annotations

import json
from time import perf_counter

import numpy as np

#: Seconds each probe part takes on the machine the bounds were set on (a
#: 2-vCPU x86_64 VM) when uncontended.  They only set the scale of the
#: reported figures.
NOMINAL_S = {"json": 0.00104, "sort": 0.0015, "interp": 0.00092, "memory": 0.00072}

_rng = np.random.default_rng(20250902)
_DOC = json.dumps(_rng.random(4000).tolist())
_SORT = _rng.random(16384)


def _interp() -> None:
    total = 0
    for i in range(15000):
        total += i * i


_PARTS = {
    "json": lambda: json.loads(_DOC),
    "sort": lambda: np.argsort(_SORT, kind="stable"),
    "interp": _interp,
    "memory": lambda: np.ones(1 << 19).sum(),  # allocate, fill and read 4 MB
}


def probe() -> dict[str, float]:
    """Seconds taken by each probe part, now."""
    out = {}
    for name, part in _PARTS.items():
        start = perf_counter()
        part()
        out[name] = perf_counter() - start
    return out


def scaled(times: list[float], probes: list[dict], mix: dict[str, float]) -> list[float]:
    """Each time, scaled by the probes taken just before and just after it.

    ``mix`` weighs the parts (weights sum to 1); the scale is the weighted
    mean of nominal / observed over the parts.
    """
    out = []
    for t, before, after in zip(times, probes, probes[1:]):
        factor = sum(
            w * NOMINAL_S[part] / (0.5 * (before[part] + after[part])) for part, w in mix.items()
        )
        out.append(t * factor)
    return out
