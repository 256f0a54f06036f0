"""Entropy-bounded truncation sampling on explicit probability vectors.

The package has five pillars:

- ``distributions``: validated probability vectors, Shannon entropy,
  subset renormalization, and the Jensen-Shannon divergence (both from the
  definition and in the mass-only closed form);
- ``truncation``: the top-H greedy selector, which grows the candidate
  set in descending probability until the renormalized subset's entropy
  would exceed alpha * H(p), plus top-k / top-p / min-p / eta baselines
  and seeded token sampling, picked by ``TruncationConfig.method``:
  ``select_block`` runs one selection pass over a ``(B, n)`` matrix of
  records with equal vocabulary size, and ``truncate`` over one
  distribution;
- ``oracle``: exact solutions of the underlying entropy-constrained mass
  maximization by exhaustive subset enumeration, and the greedy-vs-optimal
  gap harness, which runs greedy through ``select_block`` a block at a time;
- ``hardness``: a constructive reduction from cardinality-constrained
  subset sum to the entropy-constrained mass decision problem, in exact
  rational arithmetic, with one named-check verifier, a direct decider
  for the m == K instances the reduction emits, and a full subset search
  for small instances;
- ``synthgen``: seeded synthetic distribution generators and JSONL
  dataset I/O; a generated run is drawn as the validated ``(B, n)``
  blocks that reading its file gives.

The ``toph`` console script exposes all of it as reproducible commands.
"""

__version__ = "0.1.0"

from .distributions import (
    ProbabilityDistribution,
    SubsetDistribution,
    entropy,
    jsd_closed_form,
    jsd_direct,
    make_distribution,
    renormalize,
    uniform_distribution,
)
from .oracle import EcmmInstance, EcmmSolution, GapReport, exact_ecmm, optimality_gap
from .synthgen import GeneratorSpec, generate, read_dataset, write_dataset
from .truncation import (
    Method,
    TruncationConfig,
    TruncationResult,
    sample_token,
    truncate,
)

__all__ = [
    "__version__",
    "ProbabilityDistribution",
    "SubsetDistribution",
    "entropy",
    "jsd_closed_form",
    "jsd_direct",
    "make_distribution",
    "renormalize",
    "uniform_distribution",
    "EcmmInstance",
    "EcmmSolution",
    "GapReport",
    "exact_ecmm",
    "optimality_gap",
    "GeneratorSpec",
    "generate",
    "read_dataset",
    "write_dataset",
    "Method",
    "TruncationConfig",
    "TruncationResult",
    "truncate",
    "sample_token",
]
