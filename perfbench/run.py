#!/usr/bin/env python3
"""Benchmark of the toph package, run from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in ``workloads.py``, or ``all`` to run each of
them in turn in its own process and print every metric.  The benchmark
builds its inputs from the seed, runs a closed loop with one caller, checks
every output against a plain reference, and prints one line per metric
(value, unit, sample count), then, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the ``end_to_end`` list of
``BENCHMARK.json``, measured untraced for S seconds.  With ``--trace 1`` they
are the ``per_layer`` list: a fixed number of batches runs once untraced and
once with span wrappers on the package's module attributes, and the two
passes must produce identical outputs.  Work files, results and span dumps
go to ``.perfbench_work/`` in the checkout.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads, so this one process is
# the only load.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPEC = ROOT / "BENCHMARK.json"

# Set-up is repeated until both limits are met (or MAX_REPS is reached),
# and its median is reported.
SETUP_MIN_REPS = 3
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPS = 50

#: The per-op latency tail reported next to the median.
TAIL_PERCENTILE = 90


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


@dataclass
class PassResult:
    """What one pass of the closed loop measured and checked."""

    times: list = field(default_factory=list)   # timed seconds per batch
    probes: list = field(default_factory=list)  # speed probe before each batch and after the last
    ops_per_batch: int = 1
    attempted: int = 0
    failed: int = 0
    output_bytes: int = 0
    digests: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)

    @property
    def busy_s(self) -> float:
        return sum(self.times)

    @property
    def digest(self) -> str:
        joined = "".join(f"{k}:{d};" for k, d in sorted(self.digests.items()))
        return hashlib.sha256(joined.encode()).hexdigest()


def run_pass(workload, ctx, *, seconds=None, batches=None) -> PassResult:
    """Run batches until ``seconds`` of timed work, or exactly ``batches``."""
    workload.bind(ctx)
    res = PassResult(ops_per_batch=workload.ops_per_batch())
    gc.collect()
    res.probes.append(speed.probe())
    i = 0
    while (i < batches) if batches is not None else (res.busy_s < seconds):
        if ctx.tracer is not None:
            ctx.tracer.current_batch = i
        start = perf_counter()
        try:
            raw = workload.run(i)
            res.times.append(perf_counter() - start)
            verdict = workload.check(i, raw)
        except Exception:  # a crash fails the batch; the loop carries on
            if len(res.times) == i:
                res.times.append(perf_counter() - start)
            res.errors.append(f"batch {i}: {traceback.format_exc(limit=3)}")
            verdict = None
        res.attempted += res.ops_per_batch
        if verdict is None:
            res.failed += res.ops_per_batch
        else:
            failed = verdict.failed
            if verdict.key is not None:
                first = res.digests.setdefault(verdict.key, verdict.digest)
                if first != verdict.digest:
                    res.errors.append(f"batch {i}: output differs from an earlier batch on the same input")
                    failed = verdict.ops
            res.failed += failed
            res.output_bytes += verdict.output_bytes
        res.probes.append(speed.probe())
        i += 1
    return res


def end_to_end(setup_times: list, res: PassResult) -> dict:
    """Timing metrics of a pass, from its batch times as given."""
    per_op_ms = [1e3 * t / res.ops_per_batch for t in res.times]
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": res.attempted / sum(res.times),
        "op_ms_p50": statistics.median(per_op_ms),
        f"op_ms_p{TAIL_PERCENTILE}": float(np.percentile(per_op_ms, TAIL_PERCENTILE)),
    }


def per_layer(layers: dict, base: PassResult, traced: PassResult) -> dict:
    g = lambda key: float(layers.get(key, 0.0))  # noqa: E731 - absent layer: zero
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    out = {}
    for name in ("synthgen.read_dataset", "distributions.make_distribution",
                 "truncation.truncate", "truncation.sample_token", "oracle.exact_ecmm",
                 "oracle.greedy", "hardness.reduce_to_ecme", "hardness.decide_ecme_small",
                 "synthgen.generate"):
        out[f"{name}.busy_s"] = g(f"{name}.busy_s")
    for name in ("synthgen.read_dataset", "truncation.truncate", "truncation.sample_token",
                 "rng.u01", "oracle.exact_ecmm", "hardness.decide_ecme_small",
                 "hardness.mixed_subset_entropy"):
        out[f"{name}.calls"] = g(f"{name}.calls")
    out.update({
        "synthgen.json_decode.self_s": g("synthgen.read_dataset.self_s"),
        "truncation.truncate.us_per_call":
            1e6 * ratio(g("truncation.truncate.busy_s"), g("truncation.truncate.calls")),
        "truncation.selected_mean":
            ratio(g("truncation.selected_total"), g("truncation.truncate.calls")),
        "oracle.subsets_enumerated": g("oracle.subsets_enumerated"),
        "hardness.confirm_ratio":
            ratio(g("hardness.mixed_subset_entropy.calls"), g("hardness.subsets_enumerated")),
        "cli.self_s": g("cli.main.self_s"),
        "cli.output_bytes": float(traced.output_bytes),
        "trace.overhead_s": traced.busy_s - base.busy_s,
        "trace.wall_s": traced.busy_s,
    })
    return out


def environment() -> dict:
    import mpmath
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "blas_threads": os.environ["OMP_NUM_THREADS"],
        "machine": platform.machine(),
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    import reference
    import spans
    import workloads

    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    self_test = reference.self_test()
    workdir = WORK / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = workloads.BY_NAME[name](seed, workdir)

    setup_times, setup_probes = [], [speed.probe()]
    while len(setup_times) < SETUP_MIN_REPS or (
        sum(setup_times) < SETUP_MIN_SECONDS and len(setup_times) < SETUP_MAX_REPS
    ):
        start = perf_counter()
        workload.setup()
        setup_times.append(perf_counter() - start)
        setup_probes.append(speed.probe())
    inputs = workload.input_info()
    workload.prepare()
    workload.bind(workloads.Context())
    workload.run(0)  # warm-up: imports, caches, first-call costs; not counted

    env = environment()
    print(f"workload {name}  seed {seed}  seconds {seconds}  trace {int(trace)}")
    print("env " + "  ".join(f"{k}={v}" for k, v in env.items()) + "  processes=1")
    print("inputs " + "  ".join(f"{k}={v}" for k, v in inputs.items()))
    problems = list(self_test)
    unscaled = {}
    if trace:
        base = run_pass(workload, workloads.Context(), batches=workload.trace_batches)
        tracer = spans.Tracer()
        before = spans.snapshot()
        with spans.patched(tracer) as missing:
            traced = run_pass(workload, workloads.Context(tracer), batches=workload.trace_batches)
        problems += [f"wrapper not restored: {p}" for p in spans.restore_failures(before)]
        if traced.digest != base.digest:
            problems.append("traced outputs differ from untraced outputs")
        tracer.save(workdir / "spans.npz")
        values = per_layer(spans.layer_metrics(tracer), base, traced)
        metric_spec = spec["per_layer"]
        passes = [base, traced]
        if missing:
            print("missing patch points (reported as 0): " + ", ".join(missing))
    else:
        res = run_pass(workload, workloads.Context(), seconds=seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        unscaled = end_to_end(setup_times, res)
        res_scaled = replace(res, times=speed.scaled(res.times, res.probes, workload.speed_mix))
        values = end_to_end(speed.scaled(setup_times, setup_probes, workload.speed_mix), res_scaled)
        values["peak_rss_mb"] = peak_rss_mb
        metric_spec = spec["end_to_end"]
        passes = [res]

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    errors = [e for p in passes for e in p.errors]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_spec}
    batch_note = f"{len(passes[0].times)} batches of {passes[0].ops_per_batch} ops"
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups",
        "ops_per_s": f"{passes[0].attempted} ops in {passes[0].busy_s:.3f} s",
        "op_ms_p50": batch_note,
        f"op_ms_p{TAIL_PERCENTILE}": batch_note,
    }
    for m in metric_spec:
        metric, value = m["name"], metrics[m["name"]]["value"]
        note = notes.get(metric, "")
        if metric in unscaled:
            note += f"; unscaled {unscaled[metric]:.6g}"
        if trace and metric.endswith("busy_s") and values["trace.wall_s"]:
            note += f"{100 * value / values['trace.wall_s']:.1f}% of traced wall"
        print(f"{metric:40s} {value:>16.8g} {m['unit']:6s} {note}")
    print(f"fail_frac {failed / attempted:.6f} ({failed} of {attempted} ops)")
    print(f"digest {passes[0].digest}")
    for problem in problems + errors[:5]:
        print(f"problem: {problem}")

    WORK.joinpath("results").mkdir(exist_ok=True)
    WORK.joinpath("results", f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps({
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "env": env,
        "inputs": inputs, "setup_times": setup_times, "digest": passes[0].digest,
        "batch_times": [p.times for p in passes], "probes": [p.probes for p in passes],
        "setup_probes": setup_probes, "attempted": attempted, "failed": failed,
        "problems": problems, "errors": errors, "metrics": metrics,
    }, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    from workloads import WORKLOADS
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", w.name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return _fail(f"workload {w.name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]) + "\n")
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{w.name}.{metric}"] = value
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "toph" / "__init__.py").is_file():
        return _fail(f"no package source at {SRC / 'toph'}; run from a full checkout")
    if not SPEC.is_file():
        return _fail(f"missing {SPEC}")
    if args.seconds < 1:
        return _fail("--seconds must be >= 1")
    sys.path.insert(0, str(SRC))
    import toph
    if Path(toph.__file__).resolve().parent != SRC / "toph":
        return _fail(f"imported toph from {toph.__file__}, not from {SRC}")
    import workloads
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    if args.workload not in workloads.BY_NAME:
        return _fail(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.BY_NAME)} or all")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
