"""Seeded synthetic distribution families and JSON Lines dataset I/O.

These generators stand in for next-token distributions wherever a batch of
test inputs is needed.  Generation is a pure function of (spec, count):
instance ``i`` of a batch consumes stream ``i`` of the counter-based
generator in ``toph.rng``, so batches regenerate bit-identically on any
platform.  ``generate_blocks`` draws a batch as the blocks ``read_dataset``
gives for the file of it (same chunk rule, row check and bits); ``generate``
is the list of their rows.

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
import math
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .distributions import ProbabilityDistribution, validate_block
from .errors import InvalidParameters, MalformedRecord, MixedSchema, TophError
from .rng import Stream

FAMILIES = ("zipf", "dirichlet", "gaussian_logits", "one_hot_mix", "uniform")

SCHEMA_VERSION = 1

#: The Python types ``json`` gives a JSON number; ``bool`` is not one of them.
_NUMBER_TYPES = {int, float}
#: All-float lists, the common case, pass ``_FLOAT.issuperset`` without a set built.
_FLOAT = {float}


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
        for name in ("s", "a", "sigma", "temperature", "peak"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidParameters(f"{name} must be finite, got {getattr(self, name)!r}")
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


def _raw_row(spec: GeneratorSpec, stream: Stream) -> np.ndarray:
    """One instance's unvalidated row: logits for ``gaussian_logits``, else probabilities."""
    n = spec.n
    if spec.family == "zipf":
        weights = np.arange(1, n + 1, dtype=np.float64) ** (-spec.s)
        probs = weights / weights.sum()
        if spec.shuffle:
            probs = probs[np.asarray(stream.permutation(n))]
        return probs
    if spec.family == "uniform":
        return np.full(n, 1.0 / n)
    if spec.family == "dirichlet":
        draws = np.asarray([stream.gamma(spec.a) for _ in range(n)])
        # at a tiny ``a`` every draw can underflow to 0; the 0/0 row is refused as NaN
        with np.errstate(invalid="ignore"):
            return draws / draws.sum()
    if spec.family == "gaussian_logits":
        return np.asarray([spec.sigma * stream.normal() for _ in range(n)])
    probs = np.full(n, (1.0 - spec.peak) / max(n - 1, 1))  # one_hot_mix
    probs[stream.integer_below(n)] = spec.peak
    return probs / probs.sum()


def generate_blocks(spec: GeneratorSpec, count: int) -> Iterator[DatasetBlock]:
    """The blocks ``read_dataset`` gives for a file of ``count`` generated records.

    Record ``i`` draws from rng stream ``i``.  Each block is drawn when it is
    reached and checked by the reader's rule: a NaN row raises ``NonFiniteValue``.
    """
    spec.validate()
    if count < 0:
        raise InvalidParameters("count must be >= 0")
    mode = "logits" if spec.family == "gaussian_logits" else "probs"
    for start in range(0, count, chunk_rows(spec.n)):
        records = range(start, min(count, start + chunk_rows(spec.n)))
        rows = np.array([_raw_row(spec, Stream(spec.seed, i)) for i in records])
        probs = validate_block(rows, mode, [spec.temperature] * len(records))
        yield DatasetBlock([_record_id(i) for i in records], probs)


def generate(spec: GeneratorSpec, count: int) -> list[ProbabilityDistribution]:
    """Produce ``count`` distributions, views of the rows of ``generate_blocks``."""
    return [ProbabilityDistribution(row) for block in generate_blocks(spec, count)
            for row in block.probs]


# --- JSON Lines datasets ---------------------------------------------------
#
# One object per line.  Two record shapes:
#     {"id": str, "probs": [float, ...]}
#     {"id": str, "logits": [float, ...], "temperature": float}
# A file must use one shape throughout.  Floats are serialized with
# shortest-round-trip repr (up to 17 significant digits), so write/read is
# an exact identity.


#: The id of record ``i`` of a dataset written without ids: ``d000000``, ...
_record_id = "d{:06d}".format

#: Element budget of one block: a block of records with ``n`` tokens each
#: holds at most ``chunk_rows(n)`` of them, so its arrays stay small and a
#: large vocabulary is never stacked.
CHUNK_ELEMENTS = 2**14


def chunk_rows(n: int) -> int:
    """The most records of ``n`` tokens one block holds: 163 at n = 100, one at 32k.

    An empty record (``n = 0``, refused by validation) counts as one token.
    """
    return max(1, CHUNK_ELEMENTS // max(n, 1))


@dataclass(frozen=True)
class DatasetBlock:
    """Consecutive dataset records of one vocabulary size: ``ids[r]`` names row ``r``.

    ``probs`` is a read-only ``(B, n)`` float64 matrix of validated
    probability rows (logits records arrive as their softmax), at most
    ``chunk_rows(n)`` of them.
    """

    ids: list[str]
    probs: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)


def write_text(path: str | os.PathLike, pieces: Iterable[str]) -> None:
    """Write ``pieces`` to ``path`` whole or not at all, never joining them.

    They go to a new file next to ``path`` (mode as ``open(path, "w")`` would
    give), which replaces ``path`` once all are written, or is removed on any
    exception, including one raised while producing a piece.  A symlink at
    ``path`` stays, and the file it points to (at the end of a chain of
    them, and created if missing) is replaced.  Only a symlink is resolved:
    under a symlinked directory the new file already lands beside ``path``.
    """
    if os.path.islink(path):
        path = os.path.realpath(path)
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            fh.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def dataset_lines(blocks: Iterable[DatasetBlock]) -> Iterator[str]:
    """The JSONL lines of a dataset of ``blocks``, one at a time."""
    for block in blocks:
        for rid, row in zip(block.ids, block.probs.tolist()):
            yield json.dumps({"schema_version": SCHEMA_VERSION, "id": rid, "probs": row}) + "\n"


def write_dataset(
    path: str | os.PathLike,
    dists: Sequence[ProbabilityDistribution],
    ids: Sequence[str] | None = None,
) -> None:
    ids = map(_record_id, range(len(dists))) if ids is None else ids
    write_text(path, dataset_lines(DatasetBlock([rid], dist.probs[None, :])
                                   for rid, dist in zip(ids, dists, strict=True)))


def _parse_record(line: str, line_no: int) -> tuple[str, str, list, float]:
    """(id, kind, values, temperature) of one line, each entry's type checked."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise MalformedRecord(line_no, f"invalid JSON: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        # an integer past Python's digit limit, or nesting too deep for the parser
        raise MalformedRecord(line_no, f"cannot parse JSON: {exc}") from exc
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
    # turn a string, a boolean or a null into a float
    floats = isinstance(values, list) and _FLOAT.issuperset(map(type, values))
    if not floats and not (isinstance(values, list) and set(map(type, values)) <= _NUMBER_TYPES):
        raise MalformedRecord(line_no, f"'{kind}' must be a list of numbers")
    if type(temperature) not in _NUMBER_TYPES:
        raise MalformedRecord(line_no, "'temperature' must be a number")
    try:
        temperature = float(temperature)
        if not floats:
            values = np.array(values, dtype=np.float64)
    except OverflowError as exc:
        # a JSON integer beyond the float range, refused on its own line
        raise MalformedRecord(line_no, str(exc)) from exc
    return rid, kind, values, temperature


def _validated(kind: str, lines, rows, temperatures) -> np.ndarray:
    """``validate_block`` on ``rows``; a bad row is a ``MalformedRecord`` on its line."""
    try:
        return validate_block(np.array(rows, dtype=np.float64), kind, temperatures)
    except TophError as exc:
        raise MalformedRecord(lines[exc.row], str(exc)) from exc


def read_dataset(path: str | os.PathLike) -> Iterator[DatasetBlock]:
    """The validated blocks of a JSONL dataset, read as they are consumed.

    Each block is a run of consecutive records with equal vocabulary size,
    at most ``chunk_rows(n)`` of them, validated as soon as it is full: a
    large vocabulary goes one record at a time, and its parsed list is
    freed once its block is taken.  The file is opened at the first
    ``next``.  A malformed line raises when its block is reached, after
    every earlier block was yielded, and names the earliest bad line: any
    error first validates the records read before it.
    """
    run: list[tuple] = []  # (line number, id, values, temperature) not yet in a block
    kind = None

    def take() -> DatasetBlock:
        lines, ids, rows, temperatures = zip(*run)
        run.clear()
        return DatasetBlock(list(ids), _validated(kind, lines, rows, temperatures))

    with open(path, "r", encoding="utf-8") as fh:
        try:
            line_no = 0  # counted by hand: enumerate's tuple would keep the last line
            for line in fh:
                line_no += 1
                if line.isspace():
                    continue
                try:
                    rid, record_kind, values, temperature = _parse_record(line, line_no)
                    if kind is None:
                        kind = record_kind
                    elif record_kind != kind:
                        # the record's own values are refused before the switch
                        _validated(record_kind, [line_no], [values], [temperature])
                        raise MixedSchema(
                            f"line {line_no}: '{record_kind}' record in a '{kind}' file")
                except (MalformedRecord, MixedSchema):
                    if run:
                        take()  # an earlier bad line in the pending block wins
                    raise
                if run and len(values) != n:
                    yield take()
                if not run:  # a new block: its vocabulary size and row limit
                    n = len(values)
                    limit = chunk_rows(n)
                run.append((line_no, rid, values, temperature))
                del line, values  # the run holds the only reference, which take() drops
                if len(run) >= limit:
                    yield take()
            if run:
                yield take()
        except UnicodeDecodeError as exc:
            if run:
                take()
            # the file is decoded a block at a time, so the bad line is unknown
            raise MalformedRecord(None, f"{path} is not UTF-8 text: {exc.reason}") from exc
