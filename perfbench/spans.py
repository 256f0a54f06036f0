"""Span recording for the traced run, and the per-layer metrics derived from it.

Spans are recorded by wrappers that ``patched`` installs on module
attributes of the package for the traced pass only and removes afterwards.
Each span keeps its name, start, end, parent span and batch; spans live in
flat in-memory arrays and are written out once, at the end.  A layer's self
time is its span durations minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (module, attribute, span name).  The package calls each of these through
# the module attribute, so replacing the attribute intercepts every call.
PATCH_POINTS = (
    ("toph.cli", "read_dataset", "synthgen.read_dataset"),
    ("toph.cli", "truncate", "truncation.truncate"),
    ("toph.cli", "sample_token", "truncation.sample_token"),
    ("toph.cli", "generate", "synthgen.generate"),
    ("toph.cli", "optimality_gap", "oracle.optimality_gap"),
    ("toph.synthgen", "make_distribution", "distributions.make_distribution"),
    ("toph.truncation", "u01", "rng.u01"),
    ("toph.oracle", "exact_ecmm", "oracle.exact_ecmm"),
    ("toph.oracle", "top_h_truncate", "oracle.greedy"),
    ("toph.hardness", "decide_ecme_small", "hardness.decide_ecme_small"),
    ("toph.hardness", "mixed_subset_entropy", "hardness.mixed_subset_entropy"),
    ("toph.hardness", "reduce_to_ecme", "hardness.reduce_to_ecme"),
)


# Counts taken at a span boundary from the call's arguments or result:
# span name -> function (args, result) -> (counter name, amount).
COUNTERS = {
    "truncation.truncate":
        lambda args, result: ("truncation.selected_total", len(result.selected)),
    "oracle.exact_ecmm":
        lambda args, result: ("oracle.subsets_enumerated", 2 ** args[0].p.n),
    "hardness.decide_ecme_small":
        lambda args, result: ("hardness.subsets_enumerated", 2 ** args[0].m),
}


class Tracer:
    """In-memory span store; ``wrap`` makes a function record a span per call."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.batch = array("q")
        self.current_batch = 0
        self.counts: dict[str, float] = {}
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        count = COUNTERS.get(name)
        stack = self._stack

        def traced(*args, **kwargs):
            sid = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.batch.append(self.current_batch)
            self.end.append(0.0)
            stack.append(sid)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = perf_counter()
                stack.pop()
            if count is not None:
                self.add(*count(args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def add(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "batch": np.frombuffer(self.batch, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.asarray(self.names), **self.arrays())


@contextmanager
def patched(tracer: Tracer):
    """Install span wrappers on every patch point; always restore the originals.

    Yields the patch points that do not exist in this version of the
    package, which then simply report zero.
    """
    saved, missing = [], []
    try:
        for module_name, attr, span_name in PATCH_POINTS:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                missing.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span_name, original))
        yield missing
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def snapshot() -> dict[tuple[str, str], object]:
    """The current object at every patch point, to check restoration against."""
    out = {}
    for module_name, attr, _ in PATCH_POINTS:
        module = importlib.import_module(module_name)
        out[(module_name, attr)] = getattr(module, attr, None)
    return out


def restore_failures(before: dict) -> list[str]:
    """Patch points whose object is no longer the one in ``before``."""
    return [f"{m}.{a}" for (m, a), obj in snapshot().items() if obj is not before[(m, a)]]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Busy time, self time and call counts per span name, plus counters."""
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    child_time = np.bincount(
        a["parent"][has_parent], weights=dur[has_parent], minlength=dur.shape[0]
    )
    self_time = dur - child_time
    out: dict[str, float] = {}
    for nid, name in enumerate(tracer.names):
        mask = a["name"] == nid
        out[f"{name}.busy_s"] = float(dur[mask].sum())
        out[f"{name}.self_s"] = float(self_time[mask].sum())
        out[f"{name}.calls"] = float(np.count_nonzero(mask))
    out.update(tracer.counts)
    return out
