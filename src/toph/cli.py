"""Command-line interface tying the library into reproducible experiments.

Exit codes (stable contract for scripting):
    0  success
    1  usage or flag validation error (any out-of-range flag, whatever
       the method), or an ``--output`` path that cannot be written
    2  malformed or unreadable input data (offending line/file on stderr)
    3  domain precondition failure (e.g. instance too large to decide)

Every command given ``--output`` also writes a sidecar manifest
``<output>.manifest.json`` recording the command, the fully resolved
configuration, the seed, and the input/output paths: enough to reproduce
the output byte-for-byte.  Runs that generate their distributions record
every generator flag; runs that read ``--input`` record none of them.
Outputs themselves contain no timestamps, so rerunning a command with the
same manifest reproduces them exactly.  Each file appears whole or not at
all: a run that fails leaves what was at the path before.

An ``--input`` dataset is read a block at a time (``synthgen.read_dataset``):
``truncate`` and ``sample`` select and write each block before reading the
next, ``sweep`` keeps only each alpha's per-record statistics, and ``gap``
only the blocks it will score.
The first block is read before any output is written, so an empty or bad
first block exits without touching ``--output``; a bad record further on is
found while ``truncate`` and ``sample`` write, after the output path was
opened, so an unwritable ``--output`` is reported first.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
import time
from dataclasses import asdict, dataclass, fields
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator

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
    gap_report_csv,
    optimality_gap,
    summary_line,
)
from .rng import u01
from .synthgen import SCHEMA_VERSION, DatasetBlock, GeneratorSpec, generate_blocks, read_dataset
from .truncation import Method, SelectionBlock, TruncationConfig, select_block

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_DOMAIN = 3

#: Source of every truncation flag default.
_DEFAULTS = TruncationConfig()

#: Source of every generator flag default.
_GENERATOR_DEFAULTS = GeneratorSpec(family="zipf", n=15)

#: The generator flags: every ``GeneratorSpec`` field but the seed, which
#: the manifest records on its own.
_GENERATOR_FLAGS = tuple(f.name for f in fields(GeneratorSpec) if f.name != "seed")

_METHOD_FLAGS = {m.value.replace("_", "-"): m for m in Method}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse, but flag errors exit with code 1 per the CLI contract."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@dataclass(frozen=True)
class CommandResult:
    """What a command hands back to ``main``: manifest fields, exit code and output pieces."""

    config: dict
    seed: int | None = None
    input: str | None = None
    code: int = EXIT_OK
    output: Iterable[str] = ()


def _json_text(obj: dict) -> list[str]:
    """``obj`` as the indented JSON text of a hardness output or a manifest."""
    return [json.dumps(obj, indent=2), "\n"]


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
    d = _GENERATOR_DEFAULTS
    sub.add_argument("--family", choices=synthgen.FAMILIES, default=d.family)
    sub.add_argument("--n", type=int, default=d.n)
    sub.add_argument("--s", type=float, default=d.s, help="zipf exponent")
    sub.add_argument("--a", type=float, default=d.a, help="dirichlet concentration")
    sub.add_argument("--sigma", type=float, default=d.sigma, help="gaussian logit scale")
    sub.add_argument("--temperature", type=float, default=d.temperature)
    sub.add_argument("--peak", type=float, default=d.peak, help="one_hot_mix peak mass")
    sub.add_argument("--shuffle", action="store_true", help="zipf index shuffle")


def _generate(args, count: int) -> Iterator[DatasetBlock]:
    """``count`` generated records' blocks, drawn as read; a bad spec or row is a usage error."""
    flags = {name: getattr(args, name) for name in _GENERATOR_FLAGS}
    try:
        yield from generate_blocks(GeneratorSpec(seed=args.seed, **flags), count)
    except TophError as exc:
        raise UsageError(str(exc)) from exc


def _generator_fields(args, count_key: str) -> dict:
    """Manifest fields of the generator flags, or none when ``--input`` gave the data.

    ``count_key`` names the count flag (``trials`` or ``count``).  With the
    seed, these fields regenerate the run's distributions exactly.
    """
    if getattr(args, "input", None):
        return {}
    return {**{name: getattr(args, name) for name in _GENERATOR_FLAGS},
            count_key: getattr(args, count_key)}


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
        record["h_p_full"] = block.h_p_full[r]
        record["stop_reason"] = block.stop_reason[r]
        record["dropped_mass"] = block.dropped_mass[r]
        record["trace"] = [
            {"index": s.index, "gamma": s.gamma, "entropy": s.entropy}
            for s in (block.trace[r] if block.trace else ())
        ]
    return record


def _sample_lines(method: Method, ids: list[str], tokens: np.ndarray) -> Iterator[str]:
    """``sample``'s lines for a block's ``(B, num_samples)`` token matrix: each
    the bytes of ``json.dumps`` of ``{"schema_version", "id", "method",
    "tokens"}`` and a newline.

    Built without a dict: a fixed head, the id quoted by
    ``encode_basestring_ascii`` (what ``json.dumps`` of a string returns),
    and the row as a list of Python ints, whose text is its JSON.
    """
    head = f'{{"schema_version": {SCHEMA_VERSION}, "id": '
    after_id = f', "method": {json.dumps(method.value)}, "tokens": '
    for rid, row in zip(ids, tokens.tolist()):
        yield head + encode_basestring_ascii(rid) + after_id + str(row) + "}\n"


def _read_input(path: str) -> Iterator[DatasetBlock]:
    """The blocks of an ``--input`` dataset, read as they are consumed.

    The first block is read at once, so a file with none is a usage error,
    and a bad first record an input error, before any output is written.
    """
    blocks = read_dataset(path)
    first = next(blocks, None)
    if first is None:
        raise UsageError(f"dataset {path} is empty")
    # chain keeps its arguments to the end; a spent list iterator lets the block go
    return itertools.chain(iter([first]), blocks)


def _blocks(args) -> Iterator[DatasetBlock]:
    """The records of ``gap`` and ``sweep``: ``--input``, else ``--trials`` generated ones."""
    if args.input:
        return _read_input(args.input)
    if args.trials < 1:
        raise UsageError(f"--trials must be >= 1, got {args.trials}")
    return _generate(args, args.trials)


def _selections(blocks: Iterable[DatasetBlock], config: TruncationConfig,
                with_trace: bool = False):
    """(index of the block's first record, dataset block, its selections), block by block."""
    start = 0
    for block in blocks:
        yield start, block, select_block(block.probs, config, with_trace)
        start += len(block)


def cmd_truncate(args) -> CommandResult:
    config = _build_config(args)
    lines = (
        json.dumps(_truncate_record(block.ids[r], selection, r, config, args.trace)) + "\n"
        for _, block, selection in _selections(_read_input(args.input), config, args.trace)
        for r in range(len(block))
    )
    return CommandResult({**_config_dict(config), "trace": args.trace}, input=args.input,
                         output=lines)


def cmd_sample(args) -> CommandResult:
    """``--num-samples`` tokens per record, one line each, a block at a time."""
    config = _build_config(args)
    if args.num_samples < 1:
        raise UsageError(f"--num-samples must be >= 1, got {args.num_samples}")
    per_record = args.num_samples
    # draw_index = record_index * num_samples + j, so records do not share variates
    lines = (line
             for start, block, selection in _selections(_read_input(args.input), config)
             for line in _sample_lines(config.method, block.ids, selection.draw(u01(
                 args.seed, 0, np.arange(start * per_record, (start + len(block)) * per_record,
                                         dtype=np.uint64).reshape(len(block), per_record)))))
    return CommandResult({**_config_dict(config), "num_samples": args.num_samples},
                         seed=args.seed, input=args.input, output=lines)


def cmd_gap(args) -> CommandResult:
    _config(alpha=args.alpha)  # a bad --alpha exits 1 before any input is read
    if not args.input and args.n > ENUMERATION_LIMIT:
        raise UsageError(
            f"--n {args.n} exceeds the exhaustive-enumeration limit of "
            f"{ENUMERATION_LIMIT}; the exact oracle's search grows as 2**n"
        )
    # the whole input is read, for its largest n, but no block is kept after one too big
    blocks, largest = [], 0
    for block in _blocks(args):
        largest = max(largest, block.probs.shape[1])
        if largest <= ENUMERATION_LIMIT:
            blocks.append(block)
    if largest > ENUMERATION_LIMIT:
        raise UsageError(
            f"dataset contains n={largest}, above the exhaustive-enumeration "
            f"limit of {ENUMERATION_LIMIT}; the exact oracle's search grows as 2**n"
        )
    report = optimality_gap([block.probs for block in blocks], args.alpha)
    print(summary_line(report))
    return CommandResult(
        {**_generator_fields(args, "trials"), "alpha": args.alpha,
         "summary": {"mean": report.mean, "variance": report.variance,
                     "min": report.minimum,
                     "count_suboptimal": report.count_suboptimal}},
        seed=None if args.input else args.seed, input=args.input,
        output=[gap_report_csv(report)])


def cmd_sweep(args) -> CommandResult:
    try:
        alphas = [float(x) for x in args.alphas.split(",") if x.strip()]
    except ValueError as exc:
        raise UsageError(f"--alphas must be a comma-separated float list: {exc}")
    if not alphas:
        raise UsageError("--alphas is empty")
    configs = [_config(alpha=a, candidate_cap=args.candidate_cap) for a in alphas]
    # every alpha's selections of a block are taken before the next block is read
    stats = [([], [], []) for _ in configs]  # (sizes, gammas, ratios) per alpha
    count = 0
    for block in _blocks(args):
        count += len(block)
        for config, (sizes, gammas, ratios) in zip(configs, stats):
            selection = select_block(block.probs, config)
            sizes += selection.counts
            gammas += selection.gamma
            ratios += [h_q / h_p for h_q, h_p in zip(selection.h_q, selection.h_p) if h_p > 0.0]
    lines = ["alpha,mean_selected,mean_gamma,mean_entropy_ratio,count\n"]
    for config, (sizes, gammas, ratios) in zip(configs, stats):
        ratio_mean = float(np.mean(ratios)) if ratios else 0.0
        lines.append(
            f"{config.alpha!r},{float(np.mean(sizes))!r},{float(np.mean(gammas))!r},"
            f"{ratio_mean!r},{count}\n"
        )
    return CommandResult(
        {**_generator_fields(args, "trials"), "alphas": alphas,
         "candidate_cap": args.candidate_cap},
        seed=None if args.input else args.seed, input=args.input, output=lines)


def cmd_generate(args) -> CommandResult:
    if args.count < 1:
        raise UsageError(f"--count must be >= 1, got {args.count}")
    return CommandResult(_generator_fields(args, "count"), seed=args.seed,
                         output=synthgen.dataset_lines(_generate(args, args.count)))


def _load_instance(path: str, from_json):
    """Read a hardness JSON file and parse it with ``from_json``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return from_json(json.load(fh))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedRecord(None, f"cannot parse {path}: {exc}") from exc
    except MalformedRecord as exc:
        raise MalformedRecord(None, f"{path}: {exc.reason}") from exc


def cmd_reduce(args) -> CommandResult:
    instance = _load_instance(args.input, hardness.ccss_from_json)
    prepped = hardness.prepare(instance)
    ecme = hardness.reduce_to_ecme(prepped)
    c = ecme.constants
    print(f"k={ecme.k} m={ecme.m} lambda={c.lambda_k} boosters={c.booster_count}")
    return CommandResult({}, input=args.input, output=_json_text(hardness.ecme_to_json(ecme)))


def cmd_verify(args) -> CommandResult:
    instance = _load_instance(args.input, hardness.ecme_from_json)
    checks = hardness.verify_instance(instance)
    all_ok = all(ok for _, ok, _ in checks)
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    payload = {
        "schema_version": SCHEMA_VERSION,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        "all_ok": all_ok,
    }
    return CommandResult({}, input=args.input, code=EXIT_OK if all_ok else EXIT_DOMAIN,
                         output=_json_text(payload))


def cmd_decide(args) -> CommandResult:
    instance = _load_instance(args.input, hardness.ecme_from_json)
    decision = hardness.decide_ecme_small(instance, mode=args.mode)
    print("YES" if decision.is_yes else "NO")
    if decision.is_yes:
        print(f"witness_heavy={list(decision.witness)}")
        if args.mode == "full":
            print(f"witness_boosters={decision.witness_boosters}")
    payload = {
        "schema_version": SCHEMA_VERSION,
        "decision": "YES" if decision.is_yes else "NO",
        "witness_heavy": list(decision.witness) if decision.witness else None,
        "witness_boosters": decision.witness_boosters if decision.is_yes else None,
    }
    return CommandResult({"mode": args.mode}, input=args.input, output=_json_text(payload))


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


@functools.cache
def _parser() -> _Parser:
    """``build_parser()`` once per process; ``parse_args`` does not change it."""
    return build_parser()


def _write(path: str, pieces: Iterable[str]) -> None:
    """``synthgen.write_text``; a file that cannot be written is a usage error."""
    try:
        synthgen.write_text(path, pieces)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.

    Each ``cmd_*`` does its command's work and returns a ``CommandResult``.
    Given ``--output``, ``main`` writes the output and then the manifest,
    whose ``duration_s`` ends once the output is written, and maps errors
    onto the exit codes: an unwritable output is a usage error, any other
    ``OSError`` an input error.  ``TruncationConfig`` checks the parameter
    ranges; ``_config`` turns a bad flag value into a usage error.
    """
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.monotonic()
    try:
        result = args.func(args)
        if args.output:
            _write(args.output, result.output)
            manifest = {"command": args.cmd, "config": result.config, "seed": result.seed,
                        "input": result.input, "output": args.output,
                        "tool_version": __version__,
                        "duration_s": round(time.monotonic() - started, 6),
                        "schema_version": SCHEMA_VERSION}
            _write(args.output + ".manifest.json", _json_text(manifest))
        return result.code
    except UsageError as exc:
        print(f"toph: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MalformedRecord, MixedSchema, OSError) as exc:
        print(f"toph: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except TophError as exc:
        print(f"toph: precondition failed: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
