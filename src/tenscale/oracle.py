"""Promise-decision front-ends built on the scaling engine.

Every decision here is a promise answer: IN ships the witness of a SCALED
run, and rests on the engine's single from-scratch check of that witness
(the group applied to the input and every marginal measured again), while
EPS_FAR only records that no run among the seeded repetitions reached the
requested accuracy.  Every decision scales random starts g0 . x.  With
rand_range="theoretical" and the full budget T, a run on a member succeeds
with probability at least 1/2, so R repetitions fail below 2**-R.  Neither
the default range 2**16, far below the theoretical one, nor a max_iters cap
keeps that bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .partitions import as_int, as_partition
from .scaling import (
    SCALED,
    ScalingConfig,
    ScalingReport,
    TargetSpectrum,
    identity_parametrization,
    run_general_scaling,
    run_scaling,
)
from .tensors import GroupTuple, Tensor

DEFAULT_REPEATS = 6

IN = "IN"
EPS_FAR = "EPS_FAR"


@dataclass
class MembershipVerdict:
    answer: str
    epsilon: float
    witness: GroupTuple | None
    evidence: ScalingReport
    sample: Tensor | None = None


@dataclass(frozen=True)
class KroneckerQuery:
    """Three partitions of a common size; n caps the padded length."""

    lam: tuple[int, ...]
    mu: tuple[int, ...]
    nu: tuple[int, ...]
    n: int = 0

    def __post_init__(self):
        parts = tuple(as_partition(getattr(self, name), name)
                      for name in ("lam", "mu", "nu"))
        sizes = {sum(vec) for vec in parts}
        if len(sizes) != 1 or sizes.pop() < 1:
            raise ValueError("partitions must share a positive size")
        count = max(sum(1 for v in vec if v > 0) for vec in parts)
        n = as_int(self.n, "n", low=0) or count
        if n < count:
            raise ValueError("n is smaller than a partition's part count")
        object.__setattr__(self, "lam", parts[0])
        object.__setattr__(self, "mu", parts[1])
        object.__setattr__(self, "nu", parts[2])
        object.__setattr__(self, "n", n)

    @property
    def size(self) -> int:
        return sum(self.lam)

    def normalized_point(self) -> TargetSpectrum:
        """The target spectrum (lam, mu, nu) / size, each padded to length n."""
        k = self.size

        def pad(vec: tuple[int, ...]) -> tuple[Fraction, ...]:
            frac = [Fraction(v, k) for v in vec if v > 0]
            return tuple(frac + [Fraction(0)] * (self.n - len(frac)))

        return TargetSpectrum((pad(self.lam), pad(self.mu), pad(self.nu)))


def _decide(run: Callable[[ScalingConfig], tuple[ScalingReport, Tensor | None]],
            epsilon: float, cfg: ScalingConfig | None,
            repeats: int) -> MembershipVerdict:
    """Call ``run`` on ``repeats`` derived seeds; the first SCALED report
    answers IN with its witness, and otherwise the last report is the
    evidence for EPS_FAR.  A config with another epsilon, or an unrandomized
    one, whose failed runs prove nothing, raises ValueError before any run."""
    repeats = as_int(repeats, "repeats", low=1)
    base = cfg if cfg is not None else ScalingConfig(epsilon=epsilon)
    if base.epsilon != epsilon:
        raise ValueError(f"cfg.epsilon {base.epsilon} differs from {epsilon}")
    if not base.randomize:
        raise ValueError("a decision needs randomized runs")
    for r in range(repeats):
        report, sample = run(replace(base, seed=base.seed + r))
        if report.verdict == SCALED:
            return MembershipVerdict(IN, epsilon, report.group, report,
                                     sample=sample)
    return MembershipVerdict(EPS_FAR, epsilon, None, report, sample=sample)


def membership(x: Tensor, p: TargetSpectrum, epsilon: float,
               cfg: ScalingConfig | None = None,
               repeats: int = DEFAULT_REPEATS) -> MembershipVerdict:
    """Promise membership of the target point in the orbit polytope of x.

    Scales a random point g0 . x of the orbit on each of ``repeats``
    derived seeds; any verified success answers IN with the witness from
    the lowest seed.
    """
    return _decide(lambda c: (run_scaling(x, p, c), None), epsilon, cfg,
                   repeats)


def qmp(p: TargetSpectrum, dims: Sequence[int], epsilon: float,
        cfg: ScalingConfig | None = None,
        repeats: int = DEFAULT_REPEATS) -> MembershipVerdict:
    """Promise solution of the one-body marginal realizability problem:
    does any tensor of the given format have marginal spectra p?

    Uses the identity parametrization of the full tensor space, so each
    repetition scales a fresh random integer tensor.
    """
    if tuple(dims) != p.dims:
        raise ValueError(f"target dims {p.dims} do not match {tuple(dims)}")
    phi = identity_parametrization(dims)
    return _decide(lambda c: run_general_scaling(phi, p, c), epsilon, cfg,
                   repeats)


def kronecker_support(query: KroneckerQuery, epsilon: float,
                      cfg: ScalingConfig | None = None,
                      repeats: int = DEFAULT_REPEATS) -> MembershipVerdict:
    """Promise test for asymptotic support of the Kronecker coefficients:
    membership of the normalized partition triple in the tripartite
    marginal polytope of format (n, n, n)."""
    point = query.normalized_point()
    return qmp(point, (query.n,) * 3, epsilon, cfg=cfg, repeats=repeats)


# --------------------------------------------------------------------------
# Classical matrix scaling cross-check
# --------------------------------------------------------------------------


@dataclass
class SinkhornResult:
    matrix: np.ndarray
    row_scale: np.ndarray
    col_scale: np.ndarray
    converged: bool
    scalable: bool
    iterations: int


def sinkhorn(a: np.ndarray, row_targets: Sequence[float],
             col_targets: Sequence[float], epsilon: float,
             max_iters: int = 10_000) -> SinkhornResult:
    """Alternating row/column normalization of a nonnegative matrix to the
    given target sums, halting when both marginals are within epsilon in l1.

    A zero row or column with a positive target is an immediate
    non-scalable verdict.
    """
    a = np.array(a, dtype=float)
    r = np.asarray(row_targets, dtype=float)
    c = np.asarray(col_targets, dtype=float)
    if a.ndim != 2 or a.shape != (r.size, c.size):
        raise ValueError("matrix shape must match the target lengths")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(r))
            and np.all(np.isfinite(c))):
        raise ValueError("matrix and targets must be finite")
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    max_iters = as_int(max_iters, "max_iters", low=0)
    if np.any(a < 0) or np.any(r < 0) or np.any(c < 0):
        raise ValueError("matrix and targets must be nonnegative")
    if abs(r.sum() - c.sum()) > 1e-9 * max(r.sum(), 1.0):
        raise ValueError("row and column targets must have equal sums")

    row_scale = np.ones(r.size)
    col_scale = np.ones(c.size)
    if np.any((a.sum(axis=1) == 0) & (r > 0)) or \
            np.any((a.sum(axis=0) == 0) & (c > 0)):
        return SinkhornResult(a, row_scale, col_scale, converged=False,
                              scalable=False, iterations=0)

    def errors() -> tuple[float, float]:
        return (float(np.abs(a.sum(axis=1) - r).sum()),
                float(np.abs(a.sum(axis=0) - c).sum()))

    for t in range(max_iters):
        row_err, col_err = errors()
        if row_err <= epsilon and col_err <= epsilon:
            return SinkhornResult(a, row_scale, col_scale, converged=True,
                                  scalable=True, iterations=t)
        rs = a.sum(axis=1)
        factors = np.divide(r, rs, out=np.zeros_like(r), where=rs > 0)
        a *= factors[:, None]
        row_scale *= factors
        cs = a.sum(axis=0)
        factors = np.divide(c, cs, out=np.zeros_like(c), where=cs > 0)
        a *= factors[None, :]
        col_scale *= factors

    row_err, col_err = errors()
    done = row_err <= epsilon and col_err <= epsilon
    return SinkhornResult(a, row_scale, col_scale, converged=done,
                          scalable=True, iterations=max_iters)


def matrix_to_diagonal_tensor(a: np.ndarray) -> Tensor:
    """Embed a nonnegative matrix as a diagonal-support tensor whose one-body
    marginals are the classical row and column sums.

    The tensor lives in format (n*m; n, m) with sqrt(a[j, k]) at position
    ((j, k), j, k); factor 0 decoheres the entries so both marginals come
    out diagonal, and triangular scaling steps then reduce exactly to
    classical row/column reweighing.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or np.any(a < 0):
        raise ValueError("need a nonnegative matrix")
    n, m = a.shape
    data = np.zeros((n * m, n, m))
    for j in range(n):
        for k in range(m):
            data[j * m + k, j, k] = math.sqrt(a[j, k])
    return Tensor(data)
