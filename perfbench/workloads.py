"""The benchmark's four workloads: inputs, the timed operation, the checks.

Every input comes from ``numpy.random.default_rng`` seeded with the
workload seed and is written by the benchmark itself, so a change to the
package's generators or writers cannot change what is measured.  Each
workload is a closed loop with one caller: batch ``i`` starts when batch
``i - 1`` and its (untimed) check have finished.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import zlib
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from toph import cli, hardness, truncation
from toph.distributions import ProbabilityDistribution

from reference import ref_top_h

ALPHA = 0.4          # top-H budget coefficient (the package default)
CAP = 100            # candidate cap (the package default)
LOGIT_SIGMA = 2.0    # scale of the gaussian logits behind every vocabulary
SCHEMA_VERSION = 1   # the record shape documented in toph.synthgen


def softmax(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - logits.max())
    return e / e.sum()


def sha256(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


@dataclass(frozen=True)
class CliRun:
    code: int
    stdout: str
    stderr: str


@dataclass(frozen=True)
class Verdict:
    """The check of one batch.

    ``key`` names the input slot the digest belongs to; every batch on the
    same slot must give the same digest.  ``None`` means the batch's output
    is not part of the workload digest.
    """

    ops: int
    failed: int
    key: object
    digest: str
    output_bytes: int = 0


class Context:
    """How a pass calls the package: plainly, or through span wrappers."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self._main = self.wrap("cli.main", cli.main)

    def wrap(self, name: str, fn):
        return fn if self.tracer is None else self.tracer.wrap(name, fn)

    def cli(self, *argv) -> CliRun:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self._main([str(a) for a in argv])
        return CliRun(code, out.getvalue(), err.getvalue())


class Workload:
    name = ""
    #: Batches in each pass of a traced run; fixed so its counts repeat exactly.
    trace_batches = 1
    #: What the workload spends its time on, as weights of the speed probe's
    #: parts (see ``speed.py``): set from its traced profile, then checked
    #: against the run-to-run spread of its figures.
    speed_mix: dict = {}

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def rng(self) -> np.random.Generator:
        return np.random.default_rng([self.seed, zlib.crc32(self.name.encode())])

    def setup(self) -> None:
        """Build and write the inputs (timed as ``setup_s``)."""
        raise NotImplementedError

    def input_info(self) -> dict:
        raise NotImplementedError

    def prepare(self) -> None:
        """Compute the expected answers; runs after set-up, untimed."""
        raise NotImplementedError

    def bind(self, ctx: Context) -> None:
        self.ctx = ctx

    def ops_per_batch(self) -> int:
        raise NotImplementedError

    def run(self, i: int):
        """The timed operation of batch ``i``."""
        raise NotImplementedError

    def check(self, i: int, raw) -> Verdict:
        raise NotImplementedError


class _RecordFile(Workload):
    """A ``toph`` command over a JSONL file of gaussian-logit distributions."""

    vocab = 0
    records = 0

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.input = workdir / "input.jsonl"
        self.output = workdir / "output.jsonl"

    def _distributions(self):
        rng = self.rng()
        for r in range(self.records):
            yield f"r{r:06d}", softmax(rng.normal(0.0, LOGIT_SIGMA, self.vocab))

    def setup(self):
        # one record in memory at a time, so set-up's memory peak stays
        # below the timed phase's
        with open(self.input, "w", encoding="utf-8") as fh:
            for rid, probs in self._distributions():
                record = {"schema_version": SCHEMA_VERSION, "id": rid, "probs": probs.tolist()}
                fh.write(json.dumps(record) + "\n")

    def input_info(self):
        return {"records": self.records, "vocab": self.vocab,
                "bytes": self.input.stat().st_size}

    def prepare(self):
        self.refs = [(rid, ref_top_h(p, ALPHA, CAP)) for rid, p in self._distributions()]

    def ops_per_batch(self):
        return self.records

    def argv(self) -> list:
        raise NotImplementedError

    def record_ok(self, ref: tuple[int, ...], record: dict) -> bool:
        raise NotImplementedError

    def run(self, i):
        return self.ctx.cli(*self.argv())

    def check(self, i, raw):
        if raw.code != 0:
            return Verdict(self.records, self.records, 0, sha256(raw.stderr.encode()))
        data = self.output.read_bytes()
        lines = data.decode("utf-8").splitlines()
        failed = abs(self.records - len(lines))
        for (rid, ref), line in zip(self.refs, lines):
            try:
                record = json.loads(line)
                ok = record["id"] == rid and self.record_ok(ref, record)
            except (ValueError, KeyError, TypeError):
                ok = False
            failed += not ok
        return Verdict(self.records, min(failed, self.records), 0,
                       sha256(data, raw.stdout.encode()), len(data))


class TruncateFile(_RecordFile):
    """toph truncate --method top-h over large-vocabulary records."""

    name = "truncate-32k"
    vocab = 32768
    records = 20
    trace_batches = 6
    speed_mix = {"json": 0.8, "sort": 0.2}

    def argv(self):
        return ["truncate", "--method", "top-h", "--input", self.input, "--output", self.output]

    def record_ok(self, ref, record):
        return record["method"] == "top_h" and tuple(record["selected"]) == ref


class SampleFile(_RecordFile):
    """toph sample over many small-vocabulary records, where the cap never cuts."""

    name = "sample-v100"
    vocab = 100
    records = 1000
    num_samples = 16
    trace_batches = 12
    speed_mix = {"json": 0.5, "interp": 0.5}

    def argv(self):
        return ["sample", "--method", "top-h", "--num-samples", self.num_samples,
                "--seed", self.seed, "--input", self.input, "--output", self.output]

    def record_ok(self, ref, record):
        tokens = record["tokens"]
        return len(tokens) == self.num_samples and set(tokens) <= set(ref)


class Decode(Workload):
    """truncate then sample_token in process, one decoding step per batch."""

    name = "decode-128k"
    vocab = 131072
    slots = 32
    trace_batches = 128
    speed_mix = {"sort": 0.9, "interp": 0.1}

    def setup(self):
        self.dists = None  # release the previous repetition's inputs first
        rng = self.rng()
        probs = np.empty((self.slots, self.vocab))
        for r in range(self.slots):
            probs[r] = softmax(rng.normal(0.0, LOGIT_SIGMA, self.vocab))
        self.dists = [ProbabilityDistribution(row) for row in probs]

    def input_info(self):
        return {"records": self.slots, "vocab": self.vocab, "bytes": self.slots * self.vocab * 8}

    def prepare(self):
        self.config = truncation.TruncationConfig()
        self.refs = [ref_top_h(d.probs, ALPHA, CAP) for d in self.dists]

    def bind(self, ctx):
        super().bind(ctx)
        self._truncate = ctx.wrap("truncation.truncate", truncation.truncate)
        self._sample = ctx.wrap("truncation.sample_token", truncation.sample_token)

    def ops_per_batch(self):
        return 1

    def run(self, i):
        result = self._truncate(self.dists[i % self.slots], self.config)
        return result.selected, self._sample(result, self.seed, i)

    def check(self, i, raw):
        selected, token = raw
        ref = self.refs[i % self.slots]
        ok = tuple(selected) == ref and token in ref
        # draws differ on every step, so only the first pass is digested
        key = i if i < self.slots else None
        return Verdict(1, int(not ok), key, sha256(repr((tuple(selected), token)).encode()))


class ExactEnum(Workload):
    """toph gap, reduce and decide: the callers of the 2^n subset enumerators."""

    name = "exact-enum"
    slots = 8
    n = 20
    gap_trials = 4
    trace_batches = 8
    speed_mix = {"interp": 0.5, "sort": 0.3, "memory": 0.2}

    def setup(self):
        rng = self.rng()
        self.cases = []
        for s in range(self.slots):
            gap_seed = int(rng.integers(0, 2**31))
            instances = []
            for kind in ("yes", "no"):
                weights = [int(w) for w in rng.integers(770, 831, size=self.n)]
                # YES: the whole set hits tau; NO: tau sits a deficit above it
                tau = sum(weights) + (0 if kind == "yes" else int(rng.integers(1, 400)))
                path = self.workdir / f"ccss-{s}-{kind}.json"
                path.write_text(json.dumps({
                    "schema_version": SCHEMA_VERSION, "kind": "ccss",
                    "weights": [str(w) for w in weights], "tau": str(tau), "k": self.n,
                }) + "\n", encoding="utf-8")
                instances.append((kind, path, weights, tau))
            self.cases.append((gap_seed, instances))

    def input_info(self):
        files = [path for _, instances in self.cases for _, path, _, _ in instances]
        return {"records": self.slots * (self.gap_trials + 2), "vocab": self.n,
                "bytes": sum(p.stat().st_size for p in files)}

    def prepare(self):
        self.expected = {
            path: "YES" if hardness.brute_force_ccss(
                hardness.prepare(hardness.CcssInstance(tuple(w), tau, self.n)))[0] else "NO"
            for _, instances in self.cases for _, path, w, tau in instances
        }

    def ops_per_batch(self):
        return self.gap_trials + 2

    def _paths(self, kind):
        return self.workdir / f"ecme-{kind}.json", self.workdir / f"decision-{kind}.json"

    def run(self, i):
        gap_seed, instances = self.cases[i % self.slots]
        runs = [self.ctx.cli("gap", "--family", "dirichlet", "--n", self.n, "--alpha", ALPHA,
                             "--trials", self.gap_trials, "--seed", gap_seed,
                             "--output", self.workdir / "gap.csv")]
        for kind, path, _, _ in instances:
            ecme, decision = self._paths(kind)
            runs.append(self.ctx.cli("reduce", "--input", path, "--output", ecme))
            runs.append(self.ctx.cli("decide", "--mode", "full", "--input", ecme,
                                     "--output", decision))
        return runs

    def _check_gap(self, run) -> tuple[int, bytes]:
        if run.code != 0:
            return self.gap_trials, b""
        data = (self.workdir / "gap.csv").read_bytes()
        rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
        failed = abs(self.gap_trials - len(rows))
        for row in rows[: self.gap_trials]:
            try:
                ratio = float(row["ratio"])
            except (KeyError, TypeError, ValueError):
                ratio = float("nan")
            failed += not 0.0 < ratio <= 1.0 + 1e-12
        return min(failed, self.gap_trials), data

    def check(self, i, raw):
        gap_run, *decided = raw
        failed, gap_csv = self._check_gap(gap_run)
        parts = [gap_csv, gap_run.stdout.encode()]
        _, instances = self.cases[i % self.slots]
        for (kind, path, _, _), reduce_run, decide_run in zip(instances, decided[::2], decided[1::2]):
            ecme, decision = self._paths(kind)
            ok = reduce_run.code == 0 and decide_run.code == 0
            if ok:
                answer = json.loads(decision.read_text(encoding="utf-8")).get("decision")
                ok = answer == self.expected[path]
                parts += [ecme.read_bytes(), decision.read_bytes(), decide_run.stdout.encode()]
            failed += not ok
        data_bytes = sum(len(p) for p in parts)
        return Verdict(self.ops_per_batch(), failed, i % self.slots, sha256(*parts), data_bytes)


WORKLOADS = [TruncateFile, Decode, SampleFile, ExactEnum]
BY_NAME = {w.name: w for w in WORKLOADS}
