"""The per-line JSONL reader that the tests compare ``toph.synthgen.read_dataset`` against.

This is the reader as it was before datasets were read in validated
blocks: each line is parsed, type-checked and turned into its own
distribution by the per-record ``make_distribution``, and the first bad
line raises.  It trades speed for plainness.  Both functions are kept
verbatim; only their names and imports differ.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from toph.distributions import INPUT_MASS_TOLERANCE, MASS_TOLERANCE, ProbabilityDistribution
from toph.errors import (
    EmptyInput,
    MalformedRecord,
    MixedSchema,
    NegativeProbability,
    NonFiniteValue,
    NonPositiveTemperature,
    NormalizationOutOfTolerance,
)

_NUMBER_TYPES = {int, float}


def reference_make_distribution(values, mode="probs", temperature=1.0):
    arr = np.array(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise EmptyInput("need a non-empty 1-d vector")
    if mode == "probs":
        if np.any(arr < 0.0):
            raise NegativeProbability("probabilities must be non-negative")
        total = float(arr.sum())
        if not math.isfinite(total):
            raise NonFiniteValue(f"probabilities must be finite, got sum {total!r}")
        if abs(total - 1.0) > INPUT_MASS_TOLERANCE:
            raise NormalizationOutOfTolerance(
                f"mass {total!r} deviates from 1 by more than {INPUT_MASS_TOLERANCE}"
            )
        if abs(total - 1.0) <= MASS_TOLERANCE:
            # already compliant: keep entries bit-exact
            return ProbabilityDistribution(arr)
        return ProbabilityDistribution(arr / total)
    if mode == "logits":
        if not temperature > 0.0:
            raise NonPositiveTemperature(f"temperature must be > 0, got {temperature!r}")
        # overflow and inf - inf surface below as a non-finite normalizer
        with np.errstate(over="ignore", invalid="ignore"):
            scaled = arr / temperature
            scaled = scaled - scaled.max()
            ex = np.exp(scaled)
        normalizer = float(ex.sum())
        if not math.isfinite(normalizer):
            raise NonFiniteValue(
                f"softmax normalizer is {normalizer!r}; logits / temperature "
                "must be finite and not all -inf"
            )
        return ProbabilityDistribution(ex / normalizer)
    raise ValueError(f"unknown mode {mode!r}; expected 'probs' or 'logits'")


@dataclass(frozen=True)
class ReferenceRecord:
    id: str
    dist: ProbabilityDistribution


def _parse_record(obj, line_no):
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
        dist = reference_make_distribution(values, mode=kind, temperature=float(temperature))
    except (ValueError, OverflowError) as exc:
        # OverflowError: a JSON integer beyond the float range
        raise MalformedRecord(line_no, str(exc)) from exc
    return rid, dist, kind


def reference_read_dataset(path):
    """Parse a JSONL dataset; malformed lines are reported by number."""
    records = []
    seen_kind = None
    with open(path, "r", encoding="utf-8") as fh:
        try:
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
                records.append(ReferenceRecord(id=rid, dist=dist))
        except UnicodeDecodeError as exc:
            # the file is decoded a block at a time, so the bad line is unknown
            raise MalformedRecord(None, f"{path} is not UTF-8 text: {exc.reason}") from exc
    return records
