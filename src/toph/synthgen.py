"""Seeded synthetic distribution families and JSON Lines dataset I/O.

These generators stand in for next-token distributions wherever a batch of
test inputs is needed.  Generation is a pure function of (spec, count):
instance ``i`` of a batch consumes stream ``i`` of the counter-based
generator in ``toph.rng``, so batches regenerate bit-identically on any
platform.

Families:

- ``zipf``: p_i proportional to (i+1)**(-s).  Deterministic; the only
  randomness is an optional per-instance index shuffle.  ``s = 0`` would be
  uniform, but that is exposed as its own family below.
- ``dirichlet``: one draw from the symmetric Dirichlet with concentration a.
- ``gaussian_logits``: n logits drawn N(0, sigma**2), then temperature
  softmax.
- ``one_hot_mix``: mass ``peak`` on one uniformly chosen position, the rest
  spread evenly.  ``peak = 1`` degenerates to an exact one-hot.
- ``uniform``: every entry 1/n.  Deterministic.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import ProbabilityDistribution, make_distribution
from .errors import InvalidParameters, MalformedRecord, MixedSchema
from .rng import Stream

FAMILIES = ("zipf", "dirichlet", "gaussian_logits", "one_hot_mix", "uniform")

SCHEMA_VERSION = 1

#: The Python types ``json`` gives a JSON number; ``bool`` is not one of them.
_NUMBER_TYPES = {int, float}


@dataclass(frozen=True)
class GeneratorSpec:
    """Family, size, seed, and per-family parameters."""

    family: str
    n: int
    seed: int = 0
    s: float = 1.0            # zipf exponent
    a: float = 1.0            # dirichlet concentration
    sigma: float = 1.0        # gaussian logit scale
    temperature: float = 1.0  # gaussian softmax temperature
    peak: float = 0.9         # one_hot_mix peak mass
    shuffle: bool = False     # zipf: shuffle indices per instance

    def validate(self) -> None:
        if self.family not in FAMILIES:
            raise InvalidParameters(f"unknown family {self.family!r}")
        if self.n < 1:
            raise InvalidParameters("n must be >= 1")
        if self.family == "zipf" and not self.s > 0.0:
            raise InvalidParameters("zipf exponent s must be > 0")
        if self.family == "dirichlet" and not self.a > 0.0:
            raise InvalidParameters("dirichlet concentration a must be > 0")
        if self.family == "gaussian_logits":
            if not self.sigma > 0.0:
                raise InvalidParameters("sigma must be > 0")
            if not self.temperature > 0.0:
                raise InvalidParameters("temperature must be > 0")
        if self.family == "one_hot_mix" and not 0.0 < self.peak <= 1.0:
            raise InvalidParameters("peak mass must be in (0, 1]")


def _zipf_probs(n: int, s: float) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-s)
    return weights / weights.sum()


def _one_instance(spec: GeneratorSpec, stream: Stream) -> ProbabilityDistribution:
    n = spec.n
    if spec.family == "zipf":
        probs = _zipf_probs(n, spec.s)
        if spec.shuffle:
            probs = probs[np.asarray(stream.permutation(n))]
        return ProbabilityDistribution(probs)
    if spec.family == "uniform":
        return ProbabilityDistribution(np.full(n, 1.0 / n))
    if spec.family == "dirichlet":
        draws = np.asarray([stream.gamma(spec.a) for _ in range(n)])
        return ProbabilityDistribution(draws / draws.sum())
    if spec.family == "gaussian_logits":
        logits = [spec.sigma * stream.normal() for _ in range(n)]
        return make_distribution(logits, mode="logits", temperature=spec.temperature)
    if spec.family == "one_hot_mix":
        if n == 1:
            return ProbabilityDistribution(np.ones(1))
        probs = np.full(n, (1.0 - spec.peak) / (n - 1))
        probs[stream.integer_below(n)] = spec.peak
        return ProbabilityDistribution(probs / probs.sum())
    raise InvalidParameters(f"unknown family {spec.family!r}")


def generate(spec: GeneratorSpec, count: int) -> list[ProbabilityDistribution]:
    """Produce ``count`` distributions; instance i uses rng stream i."""
    spec.validate()
    if count < 0:
        raise InvalidParameters("count must be >= 0")
    return [_one_instance(spec, Stream(spec.seed, i)) for i in range(count)]


# --- JSON Lines datasets ---------------------------------------------------
#
# One object per line.  Two record shapes:
#     {"id": str, "probs": [float, ...]}
#     {"id": str, "logits": [float, ...], "temperature": float}
# A file must use one shape throughout.  Floats are serialized with
# shortest-round-trip repr (up to 17 significant digits), so write/read is
# an exact identity.


@dataclass(frozen=True)
class DatasetRecord:
    id: str
    dist: ProbabilityDistribution


def write_dataset(
    path: str | os.PathLike,
    dists: Sequence[ProbabilityDistribution],
    ids: Sequence[str] | None = None,
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i, dist in enumerate(dists):
            rid = ids[i] if ids is not None else f"d{i:06d}"
            record = {
                "schema_version": SCHEMA_VERSION,
                "id": rid,
                "probs": [float(x) for x in dist.probs],
            }
            fh.write(json.dumps(record) + "\n")


def _parse_record(obj: dict, line_no: int) -> tuple[str, ProbabilityDistribution, str]:
    if not isinstance(obj, dict):
        raise MalformedRecord(line_no, "record is not a JSON object")
    rid = obj.get("id")
    if not isinstance(rid, str):
        raise MalformedRecord(line_no, "missing or non-string 'id'")
    has_probs = "probs" in obj
    has_logits = "logits" in obj
    if has_probs == has_logits:
        raise MalformedRecord(line_no, "record needs exactly one of 'probs'/'logits'")
    kind = "probs" if has_probs else "logits"
    values = obj[kind]
    temperature = obj.get("temperature", 1.0) if has_logits else 1.0
    # exact types: a JSON boolean is an int to isinstance, and numpy would
    # turn a string or a boolean into a float
    if not isinstance(values, list) or not set(map(type, values)) <= _NUMBER_TYPES:
        raise MalformedRecord(line_no, f"'{kind}' must be a list of numbers")
    if type(temperature) not in _NUMBER_TYPES:
        raise MalformedRecord(line_no, "'temperature' must be a number")
    try:
        dist = make_distribution(values, mode=kind, temperature=float(temperature))
    except (ValueError, OverflowError) as exc:
        # OverflowError: a JSON integer beyond the float range
        raise MalformedRecord(line_no, str(exc)) from exc
    return rid, dist, kind


def read_dataset(path: str | os.PathLike) -> list[DatasetRecord]:
    """Parse a JSONL dataset; malformed lines are reported by number."""
    records: list[DatasetRecord] = []
    seen_kind: str | None = None
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedRecord(line_no, f"invalid JSON: {exc.msg}") from exc
            rid, dist, kind = _parse_record(obj, line_no)
            if seen_kind is None:
                seen_kind = kind
            elif kind != seen_kind:
                raise MixedSchema(
                    f"line {line_no}: '{kind}' record in a '{seen_kind}' file"
                )
            records.append(DatasetRecord(id=rid, dist=dist))
    return records
