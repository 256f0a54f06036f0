"""Command-line interface tying the library into reproducible experiments.

Exit codes (stable contract for scripting):
    0  success
    1  usage or flag validation error (any out-of-range flag, whatever
       the method)
    2  malformed input data (offending line/file reported on stderr)
    3  domain precondition failure (e.g. instance too large to decide)

Every command given ``--output`` also writes a sidecar manifest
``<output>.manifest.json`` recording the command, the fully resolved
configuration, the seed, and the input/output paths: enough to reproduce
the output byte-for-byte.  Runs that generate their distributions record
every generator flag; runs that read ``--input`` record none of them.
Outputs themselves contain no timestamps, so rerunning a command with the
same manifest reproduces them exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from . import hardness, synthgen
from .errors import (
    MalformedRecord,
    MixedSchema,
    TophError,
)
from .oracle import (
    ENUMERATION_LIMIT,
    EcmmInstance,
    gap_report_csv,
    optimality_gap,
    summary_line,
)
from .rng import u01
from .synthgen import SCHEMA_VERSION, GeneratorSpec, generate, read_dataset, write_dataset
from .truncation import Method, SelectionBlock, TruncationConfig, select_chunks

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_DOMAIN = 3

#: Source of every truncation flag default.
_DEFAULTS = TruncationConfig()

_METHOD_FLAGS = {m.value.replace("_", "-"): m for m in Method}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse, but flag errors exit with code 1 per the CLI contract."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to replay a command byte-for-byte.

    Written as ``<output>.manifest.json`` next to each output file.  The
    duration is informational; all other fields determine the output.
    """

    command: str
    config: dict
    seed: int | None
    input: str | None
    output: str
    tool_version: str
    duration_s: float
    schema_version: int = SCHEMA_VERSION


@dataclass(frozen=True)
class CommandResult:
    """What a command hands back to ``main``: its manifest fields and exit code."""

    config: dict
    seed: int | None = None
    input: str | None = None
    code: int = EXIT_OK


def _write_manifest(command: str, result: CommandResult, output: str,
                    started: float) -> None:
    manifest = RunManifest(
        command=command,
        config=result.config,
        seed=result.seed,
        input=result.input,
        output=output,
        tool_version=__version__,
        duration_s=round(time.monotonic() - started, 6),
    )
    hardness.save_json(asdict(manifest), output + ".manifest.json")


def _config(**fields) -> TruncationConfig:
    """A ``TruncationConfig`` from flag values; an out-of-range one is a usage error."""
    try:
        return TruncationConfig(**fields)
    except TophError as exc:
        raise UsageError(str(exc)) from exc


def _build_config(args) -> TruncationConfig:
    return _config(
        method=_METHOD_FLAGS[args.method],
        alpha=args.alpha,
        k=args.k,
        p_nucleus=args.p_nucleus,
        p_base=args.p_base,
        eta=args.eta,
        candidate_cap=args.candidate_cap,
    )


def _add_method_flags(sub) -> None:
    sub.add_argument("--method", choices=sorted(_METHOD_FLAGS), default="top-h")
    sub.add_argument("--alpha", type=float, default=_DEFAULTS.alpha)
    sub.add_argument("--k", type=int, default=_DEFAULTS.k)
    sub.add_argument("--p-nucleus", type=float, default=_DEFAULTS.p_nucleus)
    sub.add_argument("--p-base", type=float, default=_DEFAULTS.p_base)
    sub.add_argument("--eta", type=float, default=_DEFAULTS.eta)
    sub.add_argument("--candidate-cap", type=int, default=_DEFAULTS.candidate_cap)


def _add_family_flags(sub) -> None:
    sub.add_argument("--family", choices=synthgen.FAMILIES, default="zipf")
    sub.add_argument("--n", type=int, default=15)
    sub.add_argument("--s", type=float, default=1.0, help="zipf exponent")
    sub.add_argument("--a", type=float, default=1.0, help="dirichlet concentration")
    sub.add_argument("--sigma", type=float, default=1.0, help="gaussian logit scale")
    sub.add_argument("--temperature", type=float, default=1.0)
    sub.add_argument("--peak", type=float, default=0.9, help="one_hot_mix peak mass")
    sub.add_argument("--shuffle", action="store_true", help="zipf index shuffle")


def _generate(args, count: int) -> list:
    """``count`` distributions from the family flags; a bad spec is a usage error."""
    spec = GeneratorSpec(
        family=args.family,
        n=args.n,
        seed=args.seed,
        s=args.s,
        a=args.a,
        sigma=args.sigma,
        temperature=args.temperature,
        peak=args.peak,
        shuffle=args.shuffle,
    )
    try:
        return generate(spec, count)
    except TophError as exc:
        raise UsageError(str(exc)) from exc


def _generator_fields(args, count_key: str) -> dict:
    """Manifest fields of the generator flags, or none when ``--input`` gave the data.

    ``count_key`` names the count flag (``trials`` or ``count``).  With the
    seed, these fields regenerate the run's distributions exactly.
    """
    if getattr(args, "input", None):
        return {}
    return {"family": args.family, "n": args.n, count_key: getattr(args, count_key),
            "s": args.s, "a": args.a, "sigma": args.sigma,
            "temperature": args.temperature, "peak": args.peak,
            "shuffle": args.shuffle}


def _config_dict(config: TruncationConfig) -> dict:
    d = asdict(config)
    d["method"] = config.method.value
    return d


def _truncate_record(rid: str, block: SelectionBlock, r: int, config: TruncationConfig,
                     with_trace: bool) -> dict:
    record = {
        "schema_version": SCHEMA_VERSION,
        "id": rid,
        "method": config.method.value,
        "selected": block.selected(r),
        "gamma": block.gamma[r],
        "h_p": block.h_p[r],
        "h_q": block.h_q[r],
        "threshold": block.threshold[r],
    }
    if with_trace:
        record["stop_reason"] = block.stop_reason[r]
        record["dropped_mass"] = block.dropped_mass[r]
        record["trace"] = [
            {"index": s.index, "gamma": s.gamma, "entropy": s.entropy}
            for s in (block.trace[r] if block.trace else ())
        ]
    return record


def _read_input(path: str) -> list:
    """The records of an ``--input`` dataset; a file with none is a usage error."""
    records = read_dataset(path)
    if not records:
        raise UsageError(f"dataset {path} is empty")
    return records


def _distributions(args) -> list:
    """The ``--input`` dataset, or ``--trials`` generated distributions."""
    if args.input:
        return [rec.dist for rec in _read_input(args.input)]
    if args.trials < 1:
        raise UsageError(f"--trials must be >= 1, got {args.trials}")
    return _generate(args, args.trials)


def _record_blocks(records: list, config: TruncationConfig, with_trace: bool = False):
    """(index of the chunk's first record, selection block), chunk by chunk."""
    start = 0
    for block in select_chunks([rec.dist for rec in records], config, with_trace):
        yield start, block
        start += len(block)


def cmd_truncate(args) -> CommandResult:
    config = _build_config(args)
    records = _read_input(args.input)
    with open(args.output, "w", encoding="utf-8") as fh:
        for start, block in _record_blocks(records, config, args.trace):
            for r in range(len(block)):
                record = _truncate_record(records[start + r].id, block, r, config, args.trace)
                fh.write(json.dumps(record) + "\n")
    return CommandResult({**_config_dict(config), "trace": args.trace}, input=args.input)


def cmd_sample(args) -> CommandResult:
    config = _build_config(args)
    if args.num_samples < 1:
        raise UsageError(f"--num-samples must be >= 1, got {args.num_samples}")
    records = _read_input(args.input)
    per_record = args.num_samples
    # draw_index = record_index * num_samples + j, so records do not share variates
    u = u01(args.seed, 0, np.arange(len(records) * per_record, dtype=np.uint64))
    u = u.reshape(len(records), per_record)
    with open(args.output, "w", encoding="utf-8") as fh:
        for start, block in _record_blocks(records, config):
            tokens = block.draw(u[start:start + len(block)])
            for r, row in enumerate(tokens.tolist()):
                fh.write(json.dumps({
                    "schema_version": SCHEMA_VERSION,
                    "id": records[start + r].id,
                    "method": config.method.value,
                    "tokens": row,
                }) + "\n")
    return CommandResult({**_config_dict(config), "num_samples": args.num_samples},
                         seed=args.seed, input=args.input)


def cmd_gap(args) -> CommandResult:
    _config(alpha=args.alpha)  # range check only; the oracle builds its own configs
    if not args.input and args.n > ENUMERATION_LIMIT:
        raise UsageError(
            f"--n {args.n} exceeds the exhaustive-enumeration limit of "
            f"{ENUMERATION_LIMIT}; the oracle walks all 2**n subsets"
        )
    dists = _distributions(args)
    too_big = max(d.n for d in dists)
    if too_big > ENUMERATION_LIMIT:
        raise UsageError(
            f"dataset contains n={too_big}, above the exhaustive-enumeration "
            f"limit of {ENUMERATION_LIMIT}; the oracle walks all 2**n subsets"
        )
    instances = [EcmmInstance(p=d, alpha=args.alpha) for d in dists]
    report = optimality_gap(instances)
    Path(args.output).write_text(gap_report_csv(report), encoding="utf-8")
    print(summary_line(report))
    return CommandResult(
        {**_generator_fields(args, "trials"), "alpha": args.alpha,
         "summary": {"mean": report.mean, "variance": report.variance,
                     "min": report.minimum,
                     "count_suboptimal": report.count_suboptimal}},
        seed=None if args.input else args.seed, input=args.input)


def cmd_sweep(args) -> CommandResult:
    try:
        alphas = [float(x) for x in args.alphas.split(",") if x.strip()]
    except ValueError as exc:
        raise UsageError(f"--alphas must be a comma-separated float list: {exc}")
    if not alphas:
        raise UsageError("--alphas is empty")
    configs = [_config(alpha=a, candidate_cap=args.candidate_cap) for a in alphas]
    dists = _distributions(args)
    lines = ["alpha,mean_selected,mean_gamma,mean_entropy_ratio,count"]
    for config in configs:
        sizes, gammas, ratios = [], [], []
        for block in select_chunks(dists, config):
            sizes += block.counts
            gammas += block.gamma
            ratios += [h_q / h_p for h_q, h_p in zip(block.h_q, block.h_p) if h_p > 0.0]
        ratio_mean = float(np.mean(ratios)) if ratios else 0.0
        lines.append(
            f"{config.alpha!r},{float(np.mean(sizes))!r},{float(np.mean(gammas))!r},"
            f"{ratio_mean!r},{len(dists)}"
        )
    Path(args.output).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return CommandResult(
        {**_generator_fields(args, "trials"), "alphas": alphas,
         "candidate_cap": args.candidate_cap},
        seed=None if args.input else args.seed, input=args.input)


def cmd_generate(args) -> CommandResult:
    if args.count < 1:
        raise UsageError(f"--count must be >= 1, got {args.count}")
    write_dataset(args.output, _generate(args, args.count))
    return CommandResult(_generator_fields(args, "count"), seed=args.seed)


def _load_instance(path: str, from_json):
    """Read a hardness JSON file and parse it with ``from_json``."""
    try:
        return from_json(hardness.load_json(path))
    except (OSError, json.JSONDecodeError) as exc:
        raise MalformedRecord(None, f"cannot parse {path}: {exc}") from exc
    except MalformedRecord as exc:
        raise MalformedRecord(None, f"{path}: {exc.reason}") from exc


def cmd_reduce(args) -> CommandResult:
    instance = _load_instance(args.input, hardness.ccss_from_json)
    prepped = hardness.prepare(instance)
    ecme = hardness.reduce_to_ecme(prepped)
    hardness.save_json(hardness.ecme_to_json(ecme), args.output)
    c = ecme.constants
    print(f"k={ecme.k} m={ecme.m} lambda={c.lambda_k} boosters={c.booster_count}")
    return CommandResult({}, input=args.input)


def cmd_verify(args) -> CommandResult:
    instance = _load_instance(args.input, hardness.ecme_from_json)
    checks = hardness.verify_instance(instance)
    all_ok = all(ok for _, ok, _ in checks)
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    if args.output:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
            "all_ok": all_ok,
        }
        hardness.save_json(payload, args.output)
    return CommandResult({}, input=args.input, code=EXIT_OK if all_ok else EXIT_DOMAIN)


def cmd_decide(args) -> CommandResult:
    instance = _load_instance(args.input, hardness.ecme_from_json)
    decision = hardness.decide_ecme_small(instance, mode=args.mode)
    print("YES" if decision.is_yes else "NO")
    if decision.is_yes:
        print(f"witness_heavy={list(decision.witness)}")
        if args.mode == "full":
            print(f"witness_boosters={decision.witness_boosters}")
    if args.output:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "decision": "YES" if decision.is_yes else "NO",
            "witness_heavy": list(decision.witness) if decision.witness else None,
            "witness_boosters": decision.witness_boosters if decision.is_yes else None,
        }
        hardness.save_json(payload, args.output)
    return CommandResult({"mode": args.mode}, input=args.input)


def build_parser() -> _Parser:
    parser = _Parser(prog="toph", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("truncate", help="truncate each input distribution")
    _add_method_flags(p)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--trace", action="store_true",
                   help="add per-step records, the stop reason and the capped-off mass")
    p.set_defaults(func=cmd_truncate)

    p = sub.add_parser("sample", help="truncate then draw tokens")
    _add_method_flags(p)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--num-samples", type=int, default=1)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("gap", help="greedy vs exhaustive-optimum mass ratios")
    _add_family_flags(p)
    p.add_argument("--alpha", type=float, default=_DEFAULTS.alpha)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--input", default=None, help="JSONL dataset (else generate)")
    p.add_argument("--output", required=True, help="per-instance CSV path")
    p.set_defaults(func=cmd_gap)

    p = sub.add_parser("sweep", help="selection statistics over an alpha grid")
    _add_family_flags(p)
    p.add_argument("--alphas", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9")
    p.add_argument("--input", default=None, help="JSONL dataset (else generate)")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--candidate-cap", type=int, default=_DEFAULTS.candidate_cap)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("generate", help="write a synthetic JSONL dataset")
    _add_family_flags(p)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("reduce", help="CCSS JSON -> prepared ECME JSON")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("verify", help="structural checks on an ECME JSON, m == K included")
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("decide", help="decide an ECME JSON (m == K check, or full search)")
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None)
    p.add_argument("--mode", choices=["structural", "full"], default="structural")
    p.set_defaults(func=cmd_decide)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.

    Each ``cmd_*`` does its command's work and returns a ``CommandResult``;
    ``main`` times the run, writes the manifest whenever ``--output`` is
    given, and maps errors onto the exit codes.  Parameter ranges are
    checked by ``TruncationConfig`` itself; ``_config`` turns a bad flag
    value into a usage error.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.monotonic()
    try:
        result = args.func(args)
        if args.output:
            _write_manifest(args.cmd, result, args.output, started)
        return result.code
    except UsageError as exc:
        print(f"toph: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MalformedRecord, MixedSchema) as exc:
        print(f"toph: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except FileNotFoundError as exc:
        print(f"toph: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except TophError as exc:
        print(f"toph: precondition failed: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
