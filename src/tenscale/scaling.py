"""Alternating scaling of tensors to prescribed one-body marginal spectra.

The engine drives an upper-triangular (Borel) or block-upper-triangular
(parabolic) update loop: after an initial random integer basis change, the
factor whose marginal is farthest from its target is fixed exactly by a
triangular factorization, until every marginal is within the requested trace
distance or the iteration budget runs out.  Rank obstructions detected after
the randomization yield a not-in-polytope verdict.

Targets with zero entries are handled by restricting each factor to its last
r_i coordinates, scaling the restricted tensor to half the tolerance, and
padding the resulting group back with a small diagonal block.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .tensors import (
    GroupTuple,
    NumericBreakdownError,
    SingularMarginalError,
    Tensor,
    apply_group,
    compose_group,
    check_hermitian,
    identity_group,
    marginal,
)

BOREL = "borel"
PARABOLIC = "parabolic"
THEORETICAL = "theoretical"

SCALED = "SCALED"
NOT_IN_POLYTOPE = "NOT_IN_POLYTOPE"
BUDGET_EXHAUSTED = "BUDGET_EXHAUSTED"

DEFAULT_RAND_RANGE = 1 << 16
SINGULARITY_RTOL = 1e-12


# --------------------------------------------------------------------------
# Targets and configuration
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TargetSpectrum:
    """Tuple of nonincreasing rational probability vectors, one per scaled
    factor.  Entries are exact fractions; sums are exactly 1."""

    parts: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        parts = tuple(tuple(Fraction(v) for v in vec) for vec in self.parts)
        if not parts:
            raise ValueError("a target needs at least one factor")
        for vec in parts:
            if not vec:
                raise ValueError("empty spectrum vector")
            if any(v < 0 or v > 1 for v in vec):
                raise ValueError(f"entries must lie in [0, 1]: {vec}")
            if any(vec[j] < vec[j + 1] for j in range(len(vec) - 1)):
                raise ValueError(f"spectrum must be nonincreasing: {vec}")
            if sum(vec) != 1:
                raise ValueError(f"spectrum must sum to exactly 1: {vec}")
        object.__setattr__(self, "parts", parts)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(len(vec) for vec in self.parts)

    @property
    def num_factors(self) -> int:
        return len(self.parts)

    @property
    def denominator_lcm(self) -> int:
        """Least positive integer l making every l * p_j integral."""
        ell = 1
        for vec in self.parts:
            for v in vec:
                ell = ell * v.denominator // math.gcd(ell, v.denominator)
        return ell

    def has_zeros(self) -> bool:
        return any(vec[-1] == 0 for vec in self.parts)

    def ranks(self) -> tuple[int, ...]:
        """Number of nonzero entries per factor."""
        return tuple(sum(1 for v in vec if v > 0) for vec in self.parts)

    def ascending(self, i: int) -> np.ndarray:
        """Float entries of factor i (1-based) in ascending order, the
        diagonal the scaling loop drives marginal i toward."""
        return np.array([float(v) for v in reversed(self.parts[i - 1])])

    def block_sizes(self, i: int) -> tuple[int, ...]:
        """Multiplicities of the distinct values of factor i's ascending
        arrangement, decided by exact rational equality."""
        vec = tuple(reversed(self.parts[i - 1]))
        sizes = []
        for j, v in enumerate(vec):
            if j > 0 and v == vec[j - 1]:
                sizes[-1] += 1
            else:
                sizes.append(1)
        return tuple(sizes)

    def capacity_blocks(self) -> tuple[tuple[tuple[int, int, float], ...], ...]:
        """Per factor, (start, stop, exponent) of each block of equal
        ascending entries; the exponent is the block's common entry."""
        out = []
        for i in range(1, self.num_factors + 1):
            asc = self.ascending(i)
            bounds = np.cumsum((0,) + self.block_sizes(i))
            out.append(tuple((int(lo), int(hi), float(asc[lo]))
                             for lo, hi in zip(bounds[:-1], bounds[1:])))
        return tuple(out)

    @classmethod
    def uniform(cls, dims: Sequence[int]) -> "TargetSpectrum":
        return cls(tuple(tuple(Fraction(1, n) for _ in range(n)) for n in dims))

    @classmethod
    def from_strings(cls, parts: Sequence[Sequence[str]]) -> "TargetSpectrum":
        return cls(tuple(tuple(Fraction(s) for s in vec) for vec in parts))

    @classmethod
    def from_floats(cls, parts: Sequence[Sequence[float]],
                    max_denominator: int = 10**6) -> "TargetSpectrum":
        """Rationalize floating targets by continued fractions with a
        denominator cap, then repair the largest entry so the sum is exact."""
        out = []
        for vec in parts:
            approx = [Fraction(float(v)).limit_denominator(max_denominator)
                      for v in vec]
            approx[0] += 1 - sum(approx)
            out.append(tuple(approx))
        return cls(tuple(out))


@dataclass(frozen=True)
class ScalingConfig:
    """Knobs for a single scaling run.

    rand_range is the sampling range {1, ..., M} for the initial basis
    change; the "theoretical" sentinel computes the worst-case range in
    exact integer arithmetic.  randomize=False starts from the identity,
    which suffices for uniform targets in parabolic mode and is what the
    Borel-orbit cross-checks need.
    """

    epsilon: float
    seed: int = 0
    rand_range: int | str = DEFAULT_RAND_RANGE
    mode: str = BOREL
    max_iters: int | None = None
    randomize: bool = True
    log_capacity: bool = True

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.mode not in (BOREL, PARABOLIC):
            raise ValueError(f"mode must be {BOREL!r} or {PARABOLIC!r}")
        if self.rand_range != THEORETICAL:
            if int(self.rand_range) < 1:
                raise ValueError("rand_range must be >= 1 or 'theoretical'")
            object.__setattr__(self, "rand_range", int(self.rand_range))
        if self.max_iters is not None and self.max_iters < 1:
            raise ValueError("max_iters must be positive when given")


@dataclass
class IterationRecord:
    """One scaling step: chosen factor (1-based), trace distances of all
    marginals before the step, the norm of the updated tensor before
    renormalization, and the logged capacity objective."""

    index: int
    distances: tuple[float, ...]
    norm: float
    capacity: float


@dataclass
class ScalingReport:
    verdict: str
    group: GroupTuple
    iterations: int
    trace: list[IterationRecord]
    budget: int
    epsilon: float
    note: str = ""


# --------------------------------------------------------------------------
# Randomization
# --------------------------------------------------------------------------


def randomization_bounds(ell: int, d: int, dims: Sequence[int]) -> tuple[int, int]:
    """Exact worst-case degree bound K and sampling range M = 2*d*K for a
    run with common denominator ell on factors of the given dimensions."""
    if ell < 1 or d < 1:
        raise ValueError("ell and d must be positive")
    n_max = max(dims)
    k = (ell * d * n_max) ** (d * n_max * n_max)
    return k, 2 * d * k


def random_group(dims: Sequence[int], rand_range: int, seed: int) -> GroupTuple:
    """Tuple of matrices with entries drawn independently and uniformly from
    {1, ..., rand_range}.  Deterministic for a fixed seed; entries are drawn
    factor by factor in row-major order."""
    if rand_range < 1:
        raise ValueError("rand_range must be >= 1")
    rng = random.Random(seed)
    factors = []
    for n in dims:
        entries = [float(rng.randint(1, rand_range)) for _ in range(n * n)]
        factors.append(np.array(entries, dtype=complex).reshape(n, n))
    return tuple(factors)


# --------------------------------------------------------------------------
# Triangular factorizations
# --------------------------------------------------------------------------


def _assert_nonsingular(rho: np.ndarray, *, scale: float | None = None) -> None:
    eigs = np.linalg.eigvalsh(rho)
    ref = scale if scale is not None else float(np.trace(rho).real)
    if eigs[0] <= SINGULARITY_RTOL * ref:
        raise SingularMarginalError(
            f"smallest eigenvalue {eigs[0]:.3e} below threshold "
            f"{SINGULARITY_RTOL * ref:.3e}")


def upper_cholesky(rho: np.ndarray) -> np.ndarray:
    """Upper-triangular R with positive diagonal and R @ R^dagger = rho.

    Obtained from the ordinary lower Cholesky factorization of the
    coordinate-reversed matrix.
    """
    rho = check_hermitian(rho)
    _assert_nonsingular(rho)
    return _upper_cholesky(rho)


def _upper_cholesky(rho: np.ndarray) -> np.ndarray:
    try:
        lower = np.linalg.cholesky(rho[::-1, ::-1])
    except np.linalg.LinAlgError as exc:
        raise SingularMarginalError(str(exc)) from exc
    return lower[::-1, ::-1]


def psd_sqrt(rho: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root."""
    return _psd_sqrt(check_hermitian(rho))


def _psd_sqrt(rho: np.ndarray) -> np.ndarray:
    eigs, vecs = np.linalg.eigh(rho)
    return (vecs * np.sqrt(np.clip(eigs, 0.0, None))) @ vecs.conj().T


def block_cholesky(rho: np.ndarray, block_sizes: Sequence[int]) -> np.ndarray:
    """Block-upper-triangular R with Hermitian PSD diagonal blocks and
    R @ R^dagger = rho.

    A single block gives the Hermitian square root; all blocks of size 1
    reduce to upper_cholesky.  In between, blocks are eliminated bottom-up
    through Schur complements.
    """
    rho = check_hermitian(rho)
    n = rho.shape[0]
    sizes = tuple(int(b) for b in block_sizes)
    if any(b < 1 for b in sizes) or sum(sizes) != n:
        raise ValueError(f"block sizes {block_sizes} do not tile dimension {n}")
    _assert_nonsingular(rho)
    return _block_cholesky(rho, sizes)


def _block_cholesky(rho: np.ndarray, sizes: tuple[int, ...]) -> np.ndarray:
    """block_cholesky on a Hermitian, nonsingular rho with valid sizes; each
    Schur complement block is still checked."""
    if len(sizes) == 1:
        return _psd_sqrt(rho)
    if all(b == 1 for b in sizes):
        return _upper_cholesky(rho)

    bounds = np.concatenate(([0], np.cumsum(sizes)))
    out = np.zeros_like(rho, dtype=complex)
    work = np.array(rho, dtype=complex)
    scale = float(np.trace(rho).real)
    for j in range(len(sizes) - 1, -1, -1):
        lo, hi = bounds[j], bounds[j + 1]
        diag = work[lo:hi, lo:hi]
        _assert_nonsingular(diag, scale=scale)
        r_jj = psd_sqrt(diag)
        out[lo:hi, lo:hi] = r_jj
        if lo > 0:
            coupling = work[:lo, lo:hi] @ np.linalg.inv(r_jj)
            out[:lo, lo:hi] = coupling
            work[:lo, :lo] -= coupling @ coupling.conj().T
    return out


# --------------------------------------------------------------------------
# Iteration budgets
# --------------------------------------------------------------------------

_BUDGET_CONST = 32 * math.log(2)


def iteration_budget(shape: Sequence[int], bits: int, epsilon: float,
                     log2_range: float) -> int:
    """Step budget of the orbit scaling loop.

    ``shape`` is the full format (n0, n1, ..., nd), ``bits`` the input entry
    bit size, ``log2_range`` the log2 of the randomization range in use.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    d = len(shape) - 1
    logs = sum(math.log2(n) for n in shape)
    raw = (_BUDGET_CONST / epsilon**2) * (3 * logs + bits + d * log2_range)
    return max(1, math.ceil(raw))


def general_iteration_budget(shape: Sequence[int], coeff_bits: int,
                             epsilon: float, degree: int, param_dim: int,
                             log2_range: float) -> int:
    """Step budget when the start point is sampled through a homogeneous
    parametrization of the variety instead of a random basis change."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    logs_all = sum(math.log2(n) for n in shape)
    logs_scaled = sum(math.log2(n) for n in shape[1:])
    raw = (_BUDGET_CONST / epsilon**2) * (
        logs_scaled
        + 0.5 * (logs_all + coeff_bits
                 + degree * (math.log2(max(param_dim, 1)) + log2_range))
    )
    return max(1, math.ceil(raw))


# --------------------------------------------------------------------------
# Singular targets: restriction and padding
# --------------------------------------------------------------------------


def restrict_positive(x: Tensor, p: TargetSpectrum
                      ) -> tuple[Tensor, TargetSpectrum, tuple[int, ...]]:
    """Drop the zero part of the target: keep the last r_i coordinates of
    factor i, where r_i counts the nonzero entries of p's factor i."""
    if p.dims != x.dims:
        raise ValueError(f"target dims {p.dims} do not match tensor dims {x.dims}")
    ranks = p.ranks()
    if any(r == 0 for r in ranks):
        raise ValueError("a target factor is identically zero")
    slices = (slice(None),) + tuple(slice(n - r, n) for n, r in zip(x.dims, ranks))
    p_plus = TargetSpectrum(tuple(vec[:r] for vec, r in zip(p.parts, ranks)))
    return Tensor(x.data[slices]), p_plus, ranks


def pad_scaling(b_plus: Sequence[np.ndarray], p: TargetSpectrum,
                epsilon: float, norm_x: float) -> GroupTuple:
    """Extend a group tuple for the restricted problem back to the full
    dimensions with a small leading diagonal block delta * I."""
    d = p.num_factors
    ranks = p.ranks()
    delta = min(epsilon ** (1.0 / d) / (4.0 * norm_x), 1e-3)
    out = []
    for vec_len, r, b in zip(p.dims, ranks, b_plus):
        full = np.zeros((vec_len, vec_len), dtype=complex)
        full[: vec_len - r, : vec_len - r] = delta * np.eye(vec_len - r)
        full[vec_len - r:, vec_len - r:] = b
        out.append(full)
    return tuple(out)


# --------------------------------------------------------------------------
# Scaling steps
# --------------------------------------------------------------------------


def _target_diagonals(p: TargetSpectrum) -> list[np.ndarray]:
    """Complex diagonal matrices the marginals are driven toward."""
    return [np.diag(p.ascending(i)).astype(complex)
            for i in range(1, p.num_factors + 1)]


def _measure(y: np.ndarray, diags: Sequence[np.ndarray]
             ) -> tuple[list[np.ndarray], list[float]]:
    """Every one-body marginal of the raw tensor y, each checked Hermitian
    once, and its trace distance to the matching target diagonal.

    The marginal arithmetic is tensors.marginal's, so results agree bit for
    bit with the Tensor-level functions.
    """
    rhos, dists = [], []
    for i, diag in enumerate(diags, start=1):
        m = np.moveaxis(y, i, 0).reshape(y.shape[i], -1)
        rho = check_hermitian(m @ m.conj().T)
        rhos.append(rho)
        dists.append(float(np.sum(np.abs(np.linalg.eigvalsh(rho - diag)))))
    return rhos, dists


def _max_distance(group: Sequence[np.ndarray], x: Tensor,
                  diags: Sequence[np.ndarray]) -> float:
    return max(_measure(apply_group(group, x).data, diags)[1])


def _step_matrix(rho: np.ndarray, root: np.ndarray,
                 blocks: tuple[int, ...] | None) -> np.ndarray:
    """Factor A with (A rho A^dagger) = root @ root for the diagonal root of
    the target.  rho must already have passed check_hermitian."""
    _assert_nonsingular(rho)
    r = _upper_cholesky(rho) if blocks is None else _block_cholesky(rho, blocks)
    return root @ np.linalg.inv(r)


def scaling_step(g: Sequence[np.ndarray], x: Tensor, p: TargetSpectrum,
                 mode: str = BOREL) -> tuple[GroupTuple, int, tuple[float, ...]]:
    """One alternating-minimization step on the unit-norm tensor g . x.

    Measures every marginal's trace distance to its target diagonal, picks
    the worst factor (smallest label wins ties) and updates that factor of g
    so the chosen marginal becomes exactly the target diagonal.  Returns the
    updated tuple, the 1-based chosen factor, and the measured distances.
    """
    if mode not in (BOREL, PARABOLIC):
        raise ValueError(f"unknown mode {mode!r}")
    if p.dims != x.dims:
        raise ValueError(f"target dims {p.dims} do not match tensor dims {x.dims}")
    y = apply_group(g, x)
    if abs(y.norm() - 1.0) > 1e-6:
        raise ValueError(f"g . x must have unit norm, got {y.norm():.6g}")
    rhos, dists = _measure(y.data, _target_diagonals(p))
    i = int(np.argmax(dists)) + 1
    blocks = p.block_sizes(i) if mode == PARABOLIC else None
    a = _step_matrix(rhos[i - 1], np.diag(np.sqrt(p.ascending(i))), blocks)
    g_new = list(np.asarray(m, dtype=complex) for m in g)
    g_new[i - 1] = a @ g_new[i - 1]
    return tuple(g_new), i, tuple(dists)


def capacity(group: Sequence[np.ndarray],
             blocks: Sequence[Sequence[tuple[int, int, float]]],
             norm_y: float) -> float:
    """Capacity objective norm(R . X) * |chi(R)| for a triangular tuple R.

    ``norm_y`` is norm(R . X) and ``blocks`` is TargetSpectrum.capacity_blocks():
    the character modulus is a product of block determinants on the
    target's multiplicity pattern, read off the diagonal for 1x1 blocks.
    """
    value = norm_y
    for r, factor_blocks in zip(group, blocks):
        for lo, hi, exponent in factor_blocks:
            if hi - lo == 1:
                det = abs(r[lo, lo])
            else:
                det = abs(np.linalg.det(r[lo:hi, lo:hi]))
            if det == 0.0:
                return math.inf
            value *= det ** -exponent
    return value


# --------------------------------------------------------------------------
# Full runs
# --------------------------------------------------------------------------


def _resolve_range(cfg: ScalingConfig, ell: int, d: int, dims: Sequence[int],
                   degree: int = 1) -> int:
    if cfg.rand_range == THEORETICAL:
        k, _ = randomization_bounds(ell, d, dims)
        return 2 * degree * k
    return int(cfg.rand_range)


def _core_loop(x0: Tensor, p: TargetSpectrum, cfg: ScalingConfig,
               epsilon: float, budget: int,
               confirm: Callable[[GroupTuple], bool] | None = None
               ) -> tuple[str, GroupTuple, list[IterationRecord]]:
    """Scale the full-rank-target tensor x0 from the identity.

    Returns (verdict, accumulated triangular tuple, per-step trace).  The
    accumulated tuple carries every step factor plus all normalizations, so
    the maintained iterate always equals (tuple . x0).  ``confirm`` is the
    caller's authoritative acceptance check on the accumulated tuple; a
    candidate halt that fails it keeps iterating.
    """
    d = x0.num_factors
    for i in range(1, d + 1):
        rho = marginal(x0, i)
        eigs = np.linalg.eigvalsh(rho)
        if eigs[0] <= SINGULARITY_RTOL * max(float(np.trace(rho).real), 0.0) \
                or float(np.trace(rho).real) == 0.0:
            return NOT_IN_POLYTOPE, identity_group(x0.dims), []

    scale = x0.norm()
    borel = [np.eye(n, dtype=complex) for n in x0.dims]
    borel[0] /= scale
    # the raw iterate keeps the memory layout each update leaves, as the
    # Tensor copies did: np.linalg.norm sums in memory order
    y = x0.data / scale

    blocks = [p.block_sizes(i) if cfg.mode == PARABOLIC else None
              for i in range(1, d + 1)]
    roots = [np.diag(np.sqrt(p.ascending(i))) for i in range(1, d + 1)]
    diags = _target_diagonals(p)
    cap_blocks = p.capacity_blocks()

    limit = cfg.max_iters if cfg.max_iters is not None else budget
    trace: list[IterationRecord] = []

    def verified_halt() -> bool:
        # resynchronize the iterate with the accumulated tuple and gate the
        # halt on the caller's check: on instances at the boundary of
        # scalability the incrementally maintained iterate drifts off the
        # orbit closure and reports spuriously small distances
        nonlocal y, rhos, dists
        try:
            y_check = apply_group(tuple(borel), x0)
        except ValueError as exc:
            # the shapes fit by construction: only non-finite entries get here
            raise NumericBreakdownError(
                f"accumulated group left the floating-point range after "
                f"{len(trace)} steps") from exc
        nrm = y_check.norm()
        if nrm == 0.0:
            return False
        y = y_check.data / nrm
        borel[0] = borel[0] / nrm
        rhos, dists = _measure(y, diags)
        if max(dists) > epsilon:
            return False
        return confirm is None or confirm(tuple(borel))

    rhos, dists = _measure(y, diags)
    for _ in range(limit):
        if max(dists) <= epsilon and verified_halt():
            return SCALED, tuple(borel), trace
        i = int(np.argmax(dists)) + 1
        try:
            a = _step_matrix(rhos[i - 1], roots[i - 1], blocks[i - 1])
        except SingularMarginalError:
            return NOT_IN_POLYTOPE, tuple(borel), trace
        y = np.moveaxis(np.tensordot(a, y, axes=([1], [i])), 0, i)
        norm_after = float(np.linalg.norm(y))
        if not (norm_after > 0.0 and np.all(np.isfinite(y))):
            raise NumericBreakdownError(
                f"iterate left the floating-point range at step {len(trace) + 1}")
        borel[i - 1] = a @ borel[i - 1]
        y = y / norm_after
        borel[0] = borel[0] / norm_after
        cap = (capacity(borel, cap_blocks, float(np.linalg.norm(y)))
               if cfg.log_capacity else math.nan)
        trace.append(IterationRecord(i, tuple(dists), norm_after, cap))
        rhos, dists = _measure(y, diags)

    if max(dists) <= epsilon and verified_halt():
        return SCALED, tuple(borel), trace
    return BUDGET_EXHAUSTED, tuple(borel), trace


def _verified_group(verdict: str, borel: GroupTuple, pre: GroupTuple,
                    x: Tensor, p: TargetSpectrum, diags: Sequence[np.ndarray],
                    epsilon: float, restricted: bool,
                    norm_x0: float) -> GroupTuple:
    """Compose the triangular part with the initial basis change, padding
    restricted runs, and re-verify the SCALED contract from scratch against
    p's target diagonals ``diags``."""
    if not restricted:
        return compose_group(borel, pre)
    eps = epsilon
    while True:
        padded = pad_scaling(borel, p, eps, norm_x0)
        total = compose_group(padded, pre)
        if verdict != SCALED:
            return total
        if _max_distance(total, x, diags) <= epsilon or eps < 1e-12:
            return total
        eps /= 16.0


def run_scaling(x: Tensor, p: TargetSpectrum, cfg: ScalingConfig) -> ScalingReport:
    """Scale ``x`` toward the target spectra ``p``.

    Randomizes the basis (unless disabled), rejects the instance when a
    marginal of the randomized tensor is singular, then runs the alternating
    loop.  A SCALED verdict is re-verified from scratch before reporting.
    """
    if x.norm() == 0.0:
        raise ValueError("input tensor must be nonzero")
    if p.dims != x.dims:
        raise ValueError(f"target dims {p.dims} do not match tensor dims {x.dims}")

    d = x.num_factors
    rng_range = _resolve_range(cfg, p.denominator_lcm, d, x.dims)
    if cfg.randomize:
        g0 = random_group(x.dims, rng_range, cfg.seed)
        log2_range = math.log2(rng_range)
    else:
        g0 = identity_group(x.dims)
        log2_range = 0.0

    x0_full = apply_group(g0, x)
    restricted = p.has_zeros()
    if restricted:
        x0, p_active, _ = restrict_positive(x0_full, p)
        eps_active = cfg.epsilon / 2.0
    else:
        x0, p_active, eps_active = x0_full, p, cfg.epsilon

    if x0.norm() == 0.0:
        return ScalingReport(NOT_IN_POLYTOPE, g0, 0, [], 0, cfg.epsilon,
                             note="restricted tensor vanished")

    budget = iteration_budget((x0.n0,) + x0.dims, x.entry_bitsize(),
                              eps_active, log2_range)
    diags = _target_diagonals(p)

    def confirm(borel: GroupTuple) -> bool:
        total = _verified_group(SCALED, borel, g0, x, p, diags, cfg.epsilon,
                                restricted, x0_full.norm())
        return _max_distance(total, x, diags) <= cfg.epsilon

    verdict, borel, trace = _core_loop(x0, p_active, cfg, eps_active, budget,
                                       confirm=confirm)
    group = _verified_group(verdict, borel, g0, x, p, diags, cfg.epsilon,
                            restricted, x0_full.norm())
    report = ScalingReport(verdict, group, len(trace), trace, budget, cfg.epsilon)
    if verdict == SCALED:
        final = _max_distance(group, x, diags)
        if final > cfg.epsilon:
            report.verdict = BUDGET_EXHAUSTED
            report.note = f"post-hoc verification failed at {final:.3e}"
    return report


# --------------------------------------------------------------------------
# Parametrized varieties
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Parametrization:
    """Homogeneous polynomial map from a parameter vector to a tensor.

    ``evaluate`` must satisfy evaluate(t * z) == t**degree * evaluate(z);
    ``coeff_bits`` bounds the bit size of the map's coefficients and feeds
    the iteration budget.
    """

    param_dim: int
    degree: int
    evaluate: Callable[[np.ndarray], Tensor]
    description: str = ""
    coeff_bits: int = 1

    def __post_init__(self):
        if self.param_dim < 1 or self.degree < 1:
            raise ValueError("param_dim and degree must be positive")


def identity_parametrization(dims: Sequence[int], n0: int = 1) -> Parametrization:
    """Parameters are the tensor entries themselves."""
    shape = (n0,) + tuple(dims)
    size = int(np.prod(shape))
    return Parametrization(
        param_dim=size,
        degree=1,
        evaluate=lambda z: Tensor(np.asarray(z, dtype=complex).reshape(shape)),
        description=f"identity map on format {shape}",
    )


def fixed_tensor_parametrization(x: Tensor) -> Parametrization:
    """One-parameter ray through a fixed tensor: z maps to z * x.

    For fully uniform targets in parabolic mode this is all that is needed,
    and a sampling range of 1 reproduces the tensor itself.
    """
    return Parametrization(
        param_dim=1,
        degree=1,
        evaluate=lambda z: Tensor(complex(np.asarray(z).ravel()[0]) * x.data),
        description=f"ray through a fixed tensor of format {x.shape}",
        coeff_bits=x.entry_bitsize(),
    )


def orbit_parametrization(x: Tensor) -> Parametrization:
    """Parameters are the entries of d matrices acting on the fixed tensor."""
    dims = x.dims
    sizes = [n * n for n in dims]
    offsets = np.concatenate(([0], np.cumsum(sizes)))

    def evaluate(z: np.ndarray) -> Tensor:
        z = np.asarray(z, dtype=complex).ravel()
        factors = [z[offsets[i]: offsets[i + 1]].reshape(dims[i], dims[i])
                   for i in range(len(dims))]
        return apply_group(factors, x)

    return Parametrization(
        param_dim=int(sum(sizes)),
        degree=len(dims),
        evaluate=evaluate,
        description=f"orbit map of a fixed tensor of format {x.shape}",
        coeff_bits=x.entry_bitsize(),
    )


def mps_tensor(matrices: Sequence[np.ndarray], d: int) -> Tensor:
    """Tensor with entries tr[M_{j1} ... M_{jd}] in format (1; n, ..., n)."""
    if d < 2:
        raise ValueError("need at least two sites")
    mats = [np.asarray(m, dtype=complex) for m in matrices]
    bond = mats[0].shape[0]
    if any(m.shape != (bond, bond) for m in mats):
        raise ValueError("site matrices must be square and of equal size")
    n = len(mats)
    stack = np.stack(mats)  # (n, N, N)
    result = stack
    for _ in range(d - 1):
        result = np.einsum("...ab,jbc->...jac", result, stack)
    data = np.trace(result, axis1=-2, axis2=-1)
    return Tensor(data.reshape((1,) + (n,) * d))


def mps_parametrization(n: int, bond_dim: int, d: int) -> Parametrization:
    """Parameters are the entries of n site matrices of size bond_dim."""
    if n < 1 or bond_dim < 1 or d < 2:
        raise ValueError("need n >= 1, bond_dim >= 1, d >= 2")

    def evaluate(z: np.ndarray) -> Tensor:
        z = np.asarray(z, dtype=complex).reshape(n, bond_dim, bond_dim)
        return mps_tensor(list(z), d)

    return Parametrization(
        param_dim=n * bond_dim * bond_dim,
        degree=d,
        evaluate=evaluate,
        description=f"matrix product states with {n} site matrices of size {bond_dim}",
    )


def check_homogeneity(phi: Parametrization, seed: int = 0,
                      rtol: float = 1e-8) -> bool:
    """Spot-check evaluate(t*z) == t**degree * evaluate(z) on random data."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(phi.param_dim) + 1j * rng.standard_normal(phi.param_dim)
    t = complex(rng.standard_normal() + 1j * rng.standard_normal())
    lhs = phi.evaluate(t * z).data
    rhs = t**phi.degree * phi.evaluate(z).data
    scale = max(float(np.linalg.norm(rhs)), np.finfo(float).tiny)
    return bool(np.linalg.norm(lhs - rhs) <= rtol * scale)


def run_general_scaling(phi: Parametrization, p: TargetSpectrum,
                        cfg: ScalingConfig) -> tuple[ScalingReport, Tensor]:
    """Sample a start tensor through ``phi`` and scale it toward ``p``.

    The sampled parameter vector has integer entries uniform in the
    resolved range; the loop then runs exactly as in run_scaling with no
    further basis change.  A zero sample is redrawn once.
    """
    dims = p.dims
    rng_range = _resolve_range(cfg, p.denominator_lcm, len(dims), dims,
                               degree=phi.degree)

    def draw(seed: int) -> Tensor:
        rng = random.Random(seed)
        z = np.array([float(rng.randint(1, rng_range))
                      for _ in range(phi.param_dim)])
        return phi.evaluate(z)

    note = ""
    x = draw(cfg.seed)
    if x.norm() == 0.0:
        x = draw(cfg.seed + 0x9E3779B9)
        note = "parametrization vanished on the first sample; redrew once"
        if x.norm() == 0.0:
            return (ScalingReport(NOT_IN_POLYTOPE, identity_group(dims), 0, [],
                                  0, cfg.epsilon,
                                  note="parametrization vanished twice"), x)
    if x.dims != dims:
        raise ValueError(f"parametrization produced format {x.shape}, "
                         f"target wants dims {dims}")

    restricted = p.has_zeros()
    if restricted:
        x0, p_active, _ = restrict_positive(x, p)
        eps_active = cfg.epsilon / 2.0
    else:
        x0, p_active, eps_active = x, p, cfg.epsilon
    if x0.norm() == 0.0:
        return (ScalingReport(NOT_IN_POLYTOPE, identity_group(dims), 0, [], 0,
                              cfg.epsilon, note="restricted sample vanished"),
                x)

    budget = general_iteration_budget((x0.n0,) + x0.dims, phi.coeff_bits,
                                      eps_active, phi.degree, phi.param_dim,
                                      math.log2(rng_range))

    diags = _target_diagonals(p)

    def confirm(borel: GroupTuple) -> bool:
        total = _verified_group(SCALED, borel, identity_group(dims), x, p,
                                diags, cfg.epsilon, restricted, x.norm())
        return _max_distance(total, x, diags) <= cfg.epsilon

    verdict, borel, trace = _core_loop(x0, p_active, cfg, eps_active, budget,
                                       confirm=confirm)
    group = _verified_group(verdict, borel, identity_group(dims), x, p, diags,
                            cfg.epsilon, restricted, x.norm())
    report = ScalingReport(verdict, group, len(trace), trace, budget,
                           cfg.epsilon, note=note)
    if verdict == SCALED:
        final = _max_distance(group, x, diags)
        if final > cfg.epsilon:
            report.verdict = BUDGET_EXHAUSTED
            report.note = (note + "; " if note else "") + \
                f"post-hoc verification failed at {final:.3e}"
    return report, x
