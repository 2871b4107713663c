"""Alternating scaling of tensors to prescribed one-body marginal spectra.

The engine drives an upper-triangular (Borel) update loop: after an initial
random integer basis change, a factor more than the tolerance from its
target, in Frobenius distance first and else in trace distance (see
_Iterate.rule), is fixed exactly by a triangular (Cholesky) factorization,
until every marginal is within the requested trace distance or the
iteration budget runs out.  Rank obstructions detected after the
randomization yield a not-in-polytope verdict.  Each failure has one rule:
_check_start decides singularity, once, on the (restricted) start's
marginals, as no step, an invertible triangular map, changes a marginal's
rank; _Iterate breakdown, a norm ||y|| of the start or of a resync whose
reciprocal leaves the float range, a non-finite group factor or a step
whose Cholesky fails; any other overflow, where it is computed (_to_float,
apply_group, compose_group, mps_tensor).
One run function, _core_loop, takes a start from restriction to report.  Its
_Iterate holds the normalized iterate, the upper-triangular group carrying
the start to it and its last measurement.  Steps update them; a halt
measures its witness first and resyncs only after a rejection.  A step
costs one Cholesky factorization (a qubit factor's written out, see
_step_matrix), one contraction and a measurement: the Borel step
a makes a rho_j a^dagger the target's diagonal, of trace 1, so the
contraction leaves the iterate at unit norm.  A gather forms all d Gram
matrices; larger formats take that congruence as factor j's (see _Iterate).

Targets with zero entries are handled by restricting each factor to its last
r_i coordinates, scaling the restricted tensor to half the tolerance, and
padding the resulting group b back with a diagonal block delta * I, where
delta = min(1, eps / (8 ||start|| prod_i max(1, ||b_i||_F))) keeps every
marginal within eps / 4 of the restricted one: a halt makes one witness
measurement.
"""
from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .partitions import as_int
from .tensors import (
    GroupTuple,
    NonFiniteEntriesError,
    NumericBreakdownError,
    SingularMarginalError,
    Tensor,
    apply_group,
    compose_group,
    contract_folded,
    flattening,
    identity_group,
)

BOREL = "borel"
PARABOLIC = "parabolic"
THEORETICAL = "theoretical"

SCALED = "SCALED"
NOT_IN_POLYTOPE = "NOT_IN_POLYTOPE"
BUDGET_EXHAUSTED = "BUDGET_EXHAUSTED"

DEFAULT_RAND_RANGE = 1 << 16
SINGULARITY_RTOL = 1e-12
_FLOAT_MAX = np.finfo(float).max
_BLOCK_C = 2.0**900  # _step_matrix's trailing block c I
# A format whose d flattenings hold at most this many entries in all takes
# each dimension group's marginals from one gather of the raw iterate.  Per
# measurement of a row-major float64 iterate (2-core x86-64, one BLAS
# thread), the gather takes 0.6x the per-factor time on (1;3^5) (1,215
# entries) and 0.8x on (2;8^3), ties within noise on (1;12^3) and (2;12^3)
# (5,184 and 10,368), and takes 1.4x on (2;32^3).
GATHER_MAX_ENTRIES = 8192


# --------------------------------------------------------------------------
# Targets and configuration
# --------------------------------------------------------------------------


def _fraction(v, i: int, rationalize: bool = False) -> Fraction:
    """TargetSpectrum's one input rule: entry v of factor i exactly, or its
    float rationalized to denominators up to 10**6; a bool, a non-finite value,
    and a float that is negative or rationalizes to 0 raise ValueError, unless
    it lies within rounding noise of 0 (1e-12, as eigvalsh's on a rank-deficient
    marginal), where it loads as 0."""
    try:
        exact = Fraction(float(v) if rationalize else v)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        exact = None
    if exact is None or isinstance(v, (bool, np.bool_)):
        raise ValueError(f"factor {i}: entry {v!r} is not a finite number")
    near = exact.limit_denominator(10**6) if rationalize else exact
    if rationalize and abs(exact) > 1e-12 and (exact < 0 or near == 0):
        raise ValueError(f"factor {i}: entry {v!r} is " + (
            "negative" if exact < 0 else "positive but rationalizes to 0"))
    return near


@dataclass(frozen=True)
class TargetSpectrum:
    """Tuple of nonincreasing rational probability vectors, one per scaled
    factor.  Entries are exact fractions; sums are exactly 1."""

    parts: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        parts = tuple(tuple(v if type(v) is Fraction else _fraction(v, i) for v in vec)
                      for i, vec in enumerate(self.parts, start=1))
        if not parts:
            raise ValueError("a target needs at least one factor")
        for vec in parts:
            if not vec:
                raise ValueError("empty spectrum vector")
            # the entries as integers over their common denominator
            den = math.lcm(*(v.denominator for v in vec))
            ints = [v.numerator * (den // v.denominator) for v in vec]
            if any(v < 0 or v > den for v in ints):
                raise ValueError(f"entries must lie in [0, 1]: {vec}")
            if any(ints[j] < ints[j + 1] for j in range(len(vec) - 1)):
                raise ValueError(f"spectrum must be nonincreasing: {vec}")
            if sum(ints) != den:
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
        return math.lcm(*(v.denominator for vec in self.parts for v in vec))

    def has_zeros(self) -> bool:
        return any(vec[-1] == 0 for vec in self.parts)

    def ranks(self) -> tuple[int, ...]:
        """Number of nonzero entries per factor."""
        return tuple(len(vec) - vec.count(0) for vec in self.parts)

    @functools.cached_property
    def _loop_targets(self) -> tuple:
        """The scaling loop's target constants, read-only: per dimension group
        (see _dimension_groups), the float64 target diagonals, stacked, which
        a complex stack subtracts with complex ones' bits; per factor, the
        root vector and the negated ascending entries, capacity's exponents."""
        ascending = [[float(v) for v in reversed(vec)] for vec in self.parts]
        diags, roots = [], {}
        for factors in _dimension_groups(self.dims):
            entries = np.array([ascending[j] for j in factors])
            (k, n), sqrt = entries.shape, np.sqrt(entries)
            diags.append(np.zeros((k, n, n)))
            diags[-1].reshape(k, -1)[:, ::n + 1] = entries
            diags[-1].flags.writeable = sqrt.flags.writeable = False  # and their views
            roots.update(zip(factors, sqrt))
        return (tuple(diags), tuple(roots[j] for j in range(len(ascending))),
                tuple(tuple(-v for v in vec) for vec in ascending))

    @classmethod
    def uniform(cls, dims: Sequence[int]) -> "TargetSpectrum":
        return cls(tuple(tuple(Fraction(1, n) for _ in range(n)) for n in dims))

    @classmethod
    def from_floats(cls, parts: Sequence[Sequence[float]]) -> "TargetSpectrum":
        """Rationalize floating targets (see _fraction) and divide each vector
        by its exact sum, which keeps order and ties and makes the sum 1."""
        out = []
        for i, vec in enumerate(parts, start=1):
            approx = [_fraction(v, i, rationalize=True) for v in vec]
            total = sum(approx)
            if approx and not total > 0:
                raise ValueError(f"factor {i}: entries must have a positive sum: {vec}")
            out.append(tuple(v / total for v in approx))
        return cls(tuple(out))


@dataclass(frozen=True)
class ScalingConfig:
    """Knobs for a single scaling run.

    rand_range is the sampling range {1, ..., M} for the initial basis
    change; the "theoretical" sentinel computes the worst-case range in
    exact integer arithmetic.  randomize=False starts run_scaling from the
    input itself, a start that is not generic: the Borel-orbit cross-checks
    use it, decisions refuse it, and a failed run toward a non-uniform target
    notes it.  run_general_scaling always samples its start and ignores it.

    mode is BOREL or PARABOLIC, and both run the one Borel loop: a parabolic
    step differs from the Borel one by a unitary commuting with the target,
    so every distance, factor choice, capacity and verdict agrees.  PARABOLIC
    is kept only because bench/ still passes it; test_scaling.py pins it in
    test_parabolic_equals_borel_for_distinct_targets and
    test_same_step_rule_as_the_loop.
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
        object.__setattr__(self, "seed", as_int(self.seed, "seed"))
        if self.rand_range != THEORETICAL:
            object.__setattr__(self, "rand_range",
                               as_int(self.rand_range, "rand_range", low=1))
        if self.max_iters is not None:
            object.__setattr__(self, "max_iters",
                               as_int(self.max_iters, "max_iters", low=1))


@dataclass
class IterationRecord:
    """One scaling step: chosen factor (1-based), Frobenius distances of all
    marginals to their targets before the step, which the rule reads first,
    and the capacity the iterate carries after it (nan with log_capacity off)."""

    index: int
    frobenius: tuple[float, ...]
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
    ell, d = as_int(ell, "ell", low=1), as_int(d, "d", low=1)
    n_max = max(as_int(n, "dims", low=1) for n in dims)
    k = (ell * d * n_max) ** (d * n_max * n_max)
    return k, 2 * d * k


def _to_float(v: int) -> float:
    try:
        return float(v)
    except OverflowError as exc:
        raise NumericBreakdownError(
            "a random draw left the floating-point range") from exc


def _uniform_draws(seed: int, count: int, rand_range: int) -> np.ndarray:
    """The floats [rng.randint(1, rand_range) for _ in range(count)] of
    rng = random.Random(seed), drawn in bulk.

    Below 2**32, randint tries the top rand_range.bit_length() bits of one
    32-bit Mersenne Twister output and rejects values >= rand_range; one
    getrandbits(32 * m) returns the next m outputs, the first in the lowest
    word.  Larger ranges take several outputs per try and draw one by one;
    a draw past the float range raises NumericBreakdownError.
    """
    rng = random.Random(seed)
    if rand_range >= 1 << 32:
        return np.array([_to_float(rng.randint(1, rand_range)) for _ in range(count)])
    bits = rand_range.bit_length()
    kept = [np.empty(0, dtype=np.uint32)]
    need = count
    while need > 0:
        # the expected number of tries plus about three standard deviations,
        # so one round almost always suffices; surplus outputs go unused
        tries = (need << bits) // rand_range + 4 * math.isqrt(need) + 4
        words = np.frombuffer(rng.getrandbits(32 * tries).to_bytes(4 * tries, "little"),
                              dtype="<u4") >> (32 - bits)
        kept.append(words[words < rand_range][:need])
        need -= len(kept[-1])
    return np.concatenate(kept) + 1.0


def random_group(dims: Sequence[int], rand_range: int, seed: int) -> GroupTuple:
    """Tuple of matrices with entries drawn independently and uniformly from
    {1, ..., rand_range}.  Deterministic for a fixed seed; entries are drawn
    factor by factor in row-major order, exactly as random.Random(seed)'s
    randint(1, rand_range) would draw them."""
    dims = [as_int(n, "dims", low=1) for n in dims]
    entries = _uniform_draws(as_int(seed, "seed"), sum(n * n for n in dims),
                             as_int(rand_range, "rand_range", low=1)).astype(complex)
    ends = itertools.accumulate(n * n for n in dims)
    return tuple(entries[end - n * n:end].reshape(n, n) for n, end in zip(dims, ends))


def _singular(m: np.ndarray) -> bool:
    """Whether m, a square matrix of integers (a random_group draw or the
    identity), is singular, by exact fraction-free (Bareiss) elimination."""
    a, prev = [[round(v) for v in row] for row in m.real.tolist()], 1
    for k in range(len(a)):
        a[k:] = sorted(a[k:], key=lambda row: row[k] == 0)  # a pivot first
        if a[k][k] == 0:
            return True
        for row in a[k + 1:]:
            row[k + 1:] = [(v * a[k][k] - row[k] * w) // prev
                           for v, w in zip(row[k + 1:], a[k][k + 1:])]
        prev = a[k][k]
    return False


# --------------------------------------------------------------------------
# The singularity rule
# --------------------------------------------------------------------------


def _assert_nonsingular(rho: np.ndarray, low: float) -> None:
    """Raise SingularMarginalError unless low, the smallest eigenvalue of
    rho, lies above SINGULARITY_RTOL times its trace."""
    ref = SINGULARITY_RTOL * np.trace(rho).real
    if low <= ref:
        raise SingularMarginalError(
            f"smallest eigenvalue {low:.3e} below threshold {ref:.3e}")


def _check_start(stacks: Sequence[np.ndarray]) -> None:
    """The loop's one singularity rule: _assert_nonsingular on the marginals
    of a start's stacks, one eigvalsh per stack; no step changes a rank."""
    for stack in stacks:
        for rho, low in zip(stack, np.linalg.eigvalsh(stack)[:, 0].tolist()):
            _assert_nonsingular(rho, low=low)


# --------------------------------------------------------------------------
# Iteration budgets
# --------------------------------------------------------------------------

_BUDGET_CONST = 32 * math.log(2)


def _budget(epsilon: float, weight: float) -> int:
    """max(1, ceil(_BUDGET_CONST / epsilon**2 * weight)), in floats where
    that is finite, else exactly from Fraction(epsilon): below epsilon near
    1e-153 the float quotient overflows, and epsilon**2 underflows to 0."""
    if not epsilon > 0:  # NaN fails too
        raise ValueError("epsilon must be positive")
    raw = _BUDGET_CONST / epsilon**2 * weight if epsilon**2 > 0 else math.inf
    if not math.isfinite(raw):
        raw = Fraction(_BUDGET_CONST) / Fraction(epsilon)**2 * Fraction(weight)
    return max(1, math.ceil(raw))


def iteration_budget(shape: Sequence[int], bits: int, epsilon: float,
                     log2_range: float) -> int:
    """Step budget of the orbit scaling loop.

    ``shape`` is the full format (n0, n1, ..., nd), ``bits`` the input entry
    bit size, ``log2_range`` the log2 of the randomization range in use.
    """
    d = len(shape) - 1
    logs = sum(math.log2(n) for n in shape)
    return _budget(epsilon, 3 * logs + bits + d * log2_range)


def general_iteration_budget(shape: Sequence[int], coeff_bits: int,
                             epsilon: float, degree: int, param_dim: int,
                             log2_range: float) -> int:
    """Step budget when the start point is sampled through a homogeneous
    parametrization of the variety instead of a random basis change."""
    logs_all = sum(math.log2(n) for n in shape)
    logs_scaled = sum(math.log2(n) for n in shape[1:])
    return _budget(epsilon, logs_scaled
                   + 0.5 * (logs_all + coeff_bits
                            + degree * (math.log2(max(param_dim, 1))
                                        + log2_range)))


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
    slices = (slice(None),) + tuple(slice(n - r, n) for n, r in zip(x.dims, ranks))
    p_plus = TargetSpectrum(tuple(vec[:r] for vec, r in zip(p.parts, ranks)))
    return Tensor(x.data[slices]), p_plus, ranks


def pad_scaling(b_plus: Sequence[np.ndarray], p: TargetSpectrum,
                epsilon: float, norm_x: float) -> GroupTuple:
    """Extend a group tuple for the restricted problem back to the full
    dimensions with a leading block delta * I, where delta = min(1, epsilon
    / (8 norm_x prod_i max(1, ||b_i||_F))) and norm_x is the start's norm.

    The tuple is block diagonal, so each entry of (padded . start) outside
    the restricted block is delta**m, m >= 1, times its entry under the
    identity-padded tuple.  That remainder R has norm at most delta * norm_x
    * prod_i max(1, ||b_i||_2) <= epsilon / 8 and no entry in common with
    the unit restricted image, so each marginal moves by at most 2 ||R|| +
    ||R||**2 <= epsilon / 4 + epsilon**2 / 64 in trace norm.  The loop halts
    at epsilon / 2, so for epsilon <= 16 the witness passes whenever the
    resynced restricted iterate did.  A tolerance or start norm that is not
    positive, or a tuple that is not one r_i x r_i factor per rank r_i of p,
    raises ValueError; a factor with a non-finite entry, or a delta that
    underflows to 0, raises NumericBreakdownError.  Each padded factor takes
    its block's dtype, float64 at least.
    """
    if not (epsilon > 0 and norm_x > 0):
        raise ValueError(f"need epsilon, norm_x > 0, got {epsilon}, {norm_x}")
    ranks = p.ranks()
    if [np.shape(b) for b in b_plus] != [(r, r) for r in ranks]:
        raise ValueError(f"group factor shapes do not fit the ranks {ranks}")
    if not all(np.isfinite(b).all() for b in b_plus):
        raise NumericBreakdownError(
            "the scaling group left the floating-point range")
    growth = math.prod(max(1.0, float(np.linalg.norm(b))) for b in b_plus)
    delta = min(1.0, epsilon / (8.0 * norm_x * growth))
    if delta == 0.0 and p.has_zeros():
        raise NumericBreakdownError(
            f"the zero-target pad underflowed: start norm {norm_x:.3e}, "
            f"group growth {growth:.3e}")
    out = []
    for vec_len, r, b in zip(p.dims, ranks, b_plus):
        full = np.zeros((vec_len, vec_len), np.result_type(np.asarray(b), float))
        full[: vec_len - r, : vec_len - r] = delta * np.eye(vec_len - r)
        full[vec_len - r:, vec_len - r:] = b
        out.append(full)
    return tuple(out)


# --------------------------------------------------------------------------
# Scaling steps
# --------------------------------------------------------------------------


def _dimension_groups(dims: Sequence[int]) -> list[list[int]]:
    """The 0-based scaled factors grouped by dimension, in order of first
    appearance."""
    return [[j for j, m in enumerate(dims) if m == n] for n in dict.fromkeys(dims)]


@functools.lru_cache(maxsize=64)
def _loop_constants(shape: tuple[int, ...], dtype: np.dtype) -> tuple:
    """_Iterate's shared constants for a format and dtype, read-only (see
    _Iterate); a format that gathers builds its flattening positions: per
    group, a (k, n, N) array whose t-th matrix, taken from a raw iterate, is
    the group's t-th flattening."""
    d, size = len(shape) - 1, math.prod(shape)
    groups = _dimension_groups(shape[1:])
    slots = {j: (g, t) for g, factors in enumerate(groups) for t, j in enumerate(factors)}
    eyes = tuple(np.eye(n, dtype=dtype) for n in shape[1:])
    axes = tuple((math.prod(shape[:j]), n, math.prod(shape[j + 1:]))
                 for j, n in enumerate(shape) if j)
    index = None
    if d * size <= GATHER_MAX_ENTRIES:  # positions only for a format that gathers
        pos = np.arange(size).reshape(shape)
        index = tuple(np.stack([flattening(pos, j + 1) for j in factors])
                      for factors in groups)
    for a in eyes + (index or ()):
        a.flags.writeable = False
    return tuple(map(tuple, groups)), tuple(slots[j] for j in range(d)), index, eyes, axes


class _Iterate:
    """A scaling loop's state: the raw iterate y = group . x0, normalizations
    folded into group[0], the loop's tolerance epsilon and y's last measurement:
    marginal stacks (see slots), Frobenius distances frob and, on first
    read, trace distances dists, all in x0's dtype.

    A step makes one pass over y, the contraction with the Borel step a,
    which leaves y at unit norm: tr(a rho_j a^dagger) is the target's sum, 1.
    A gather forms each dimension group's Gram matrices in one product, the
    stepped factor's too; the per-factor path forms the other d - 1 and takes
    a rho_j a^dagger as factor j's.  The start and a resync measure all d,
    and renormalize holds the iterate's one norm rule.

    Shared and read-only, by format and dtype from _loop_constants: groups
    lists the 0-based factors of each dimension, slots[j] is factor j's
    place there, index the gather's positions (None past GATHER_MAX_ENTRIES)
    and axes[j] factor j + 1's contraction axes (P, n, Q); from the target's
    _loop_targets: each group's diags and factor j + 1's root vector roots[j]
    and exponents[j].  blocks, the _step_matrix buffers, are the iterate's
    own.  The group stays upper triangular, so capacity, ||y||
    prod |g_kk| ** -(ascending target entry k), is the running product of
    the norms renormalize divides out and each step's prod |a_kk| **
    exponents[j][k], as diag(a g) = diag(a) diag(g).
    """

    def __init__(self, x0: Tensor, p: TargetSpectrum, scale: float = 1.0,
                 epsilon: float = math.inf):
        self.groups, self.slots, self.index, eyes, self.axes = _loop_constants(
            x0.shape, x0.data.dtype)
        self.diags, self.roots, self.exponents = p._loop_targets
        self.epsilon, self.blocks, self.steps, self.capacity = epsilon, {}, 0, 1.0
        self.group = list(eyes)  # each step replaces its factor
        self.renormalize(x0.data, scale)

    def renormalize(self, y: np.ndarray, norm: float) -> None:
        """Take y / norm as the iterate, fold 1 / norm into group[0] and
        measure every factor: the start and each resync.  The iterate's one
        norm rule: a norm ||y|| outside (1 / max float, inf), which would
        carry 1 / norm past the float range, raises NumericBreakdownError."""
        if not 1.0 / _FLOAT_MAX < norm < math.inf:
            raise NumericBreakdownError(
                f"iterate left the floating-point range at step {self.steps}")
        self.y = y if norm == 1.0 else y / norm  # y / 1.0 only copies y
        self.group[0] = self.group[0] / norm
        self.capacity *= norm
        self.measure()

    def step(self, j: int, a: np.ndarray) -> None:
        """Apply the Borel step a to factor j + 1 of the iterate and of the
        group, update capacity and measure.  Off the gather path, factor
        j + 1's marginal becomes the Hermitian part of a rho_j a^dagger.  A
        non-finite entry in the stepped group factor raises
        NumericBreakdownError at once: no later step makes it finite."""
        self.steps += 1
        self.y = contract_folded(a, self.y, self.axes[j]).reshape(self.y.shape)
        self.group[j] = g = a.dot(self.group[j])
        if np.count_nonzero(np.isfinite(g)) < g.size:  # .all() costs more
            raise NumericBreakdownError("the scaling group left the "
                                        f"floating-point range at step {self.steps}")
        self.capacity *= math.prod(map(pow, map(abs, a.diagonal().tolist()),
                                       self.exponents[j]))
        if self.index is not None:  # the gather forms factor j's Gram matrix
            return self.measure()
        # the congruence beats the stepped factor's Gram matrix here: forming
        # that instead cut the large workload's queries_per_s from 117-123 to
        # 100-102 in 3 alternating pairs, with the same fingerprint (2-core
        # x86-64, one BLAS thread)
        g, t = self.slots[j]
        # ndarray.dot: the BLAS product of @, with less overhead on small n
        rho = a.dot(self.stacks[g][t]).dot(a.conj().T)
        rho += rho.conj().T
        rho *= 0.5
        self.measure(j, rho)

    def halts(self) -> bool:
        """Whether every Frobenius, then every trace distance is within epsilon."""
        return max(self.frob) <= self.epsilon and max(self.dists) <= self.epsilon

    def rule(self) -> tuple[int, np.ndarray]:
        """The step rule: the 0-based factor j with the largest Frobenius
        distance if it exceeds epsilon (||A||_F <= ||A||_tr), else the largest
        trace distance, the lowest on ties, and the _step_matrix that fixes its
        marginal, whose failed factorization is a numeric breakdown."""
        dists = self.frob if max(self.frob) > self.epsilon else self.dists
        j = dists.index(max(dists))
        g, t = self.slots[j]
        try:
            return j, _step_matrix(self.stacks[g][t], self.roots[j], self.blocks)
        except np.linalg.LinAlgError as exc:
            raise NumericBreakdownError("the Cholesky factorization failed "
                                        f"at step {self.steps + 1}") from exc

    def measure(self, j: int | None = None, rho: np.ndarray | None = None
                ) -> None:
        """Set stacks and frob from the raw iterate.  A group's stack holds
        the Gram matrices m @ m^dagger of its flattenings m, exactly as
        tensors.marginal computes them: a stacked np.matmul calls the same
        BLAS product for each matrix as a single one does.  A per-factor step
        passes its factor j's marginal rho in place of j's Gram matrix, which
        a gather forms too.  frob takes one reduction per group, the same bits
        as over each matrix alone.  No rho_j, a Gram matrix or a congruence's
        Hermitian part, is checked: eigvalsh reads its lower triangle,
        _step_matrix its upper one."""
        stacks = []
        if self.index is not None:
            for index in self.index:  # take reads y in row-major order
                ms = self.y.take(index)
                stacks.append(np.matmul(ms, ms.conj().swapaxes(1, 2)))
        else:
            for factors, diags in zip(self.groups, self.diags):
                stack = np.empty(diags.shape, dtype=self.y.dtype)
                for k, gram in zip(factors, stack):
                    if k != j:
                        m = flattening(self.y, k + 1)
                        np.matmul(m, m.conj().T, out=gram)
                stacks.append(stack)
        if rho is not None:
            g, t = self.slots[j]
            stacks[g][t] = rho
        frob = [0.0] * len(self.roots)
        for factors, diags, stack in zip(self.groups, self.diags, stacks):
            diff = stack - diags
            diff *= diff.conj()  # a real diff's conj is diff itself
            for k, sq in zip(factors, np.add.reduce(diff.real, axis=(1, 2)).tolist()):
                frob[k] = math.sqrt(sq)
        self.stacks, self.frob, self._dists = stacks, frob, None

    @property
    def dists(self) -> list[float]:
        """The last measurement's trace distances, by one stacked eigvalsh
        per dimension group on first read: LAPACK solves each matrix of a
        stack as it solves it alone, and a row's sum is np.sum's reduction, so
        they equal trace_distance's bits, real or complex."""
        if self._dists is None:
            self._dists = [0.0] * len(self.roots)
            for factors, diags, stack in zip(self.groups, self.diags, self.stacks):
                norms = np.add.reduce(np.abs(np.linalg.eigvalsh(stack - diags)), axis=1)
                for k, dist in zip(factors, norms.tolist()):
                    self._dists[k] = dist
        return self._dists


def _step_matrix(rho: np.ndarray, root: np.ndarray, blocks: dict) -> np.ndarray:
    """The Borel step: upper-triangular A with (A rho A^dagger) =
    diag(root)**2 for the target's root vector and the Hermitian rho, from
    one np.linalg.cholesky call on [[J rho J, I], [I, c I]], J the coordinate
    reversal and c = 2**900.  For J rho J = L L^dagger, the factor's
    lower-left block is inv(L)^dagger, upper triangular with exact zeros,
    and inv(R) = J inv(L) J for the upper factor R = J L J of rho.  The
    block c I - inv(rho) fails only if 1 / lambda_min(rho) > c.  blocks, the
    caller's own, keeps it per dimension and dtype, filled once, then per call.

    A 2 x 2 rho makes no LAPACK call: the branch performs the arithmetic of
    OpenBLAS's unblocked Cholesky (potf2) on the same block, column by
    column, multiplying by each pivot's reciprocal as potf2 does (dividing
    changes the bits).  It returns the call's bits and raises LinAlgError
    where the call fails, on any of the four pivots not positive, and on a
    NaN pivot, where potf2 returns NaN."""
    n, key = len(rho), (len(rho), rho.dtype)
    if n == 2:
        (s00, s01), (_, s11) = rho.tolist()
        pivot = s11.real
        if pivot > 0:
            i0 = 1 / math.sqrt(pivot)
            l = s01 * i0
            pivot = s00.real - (l * l.conjugate()).real
        if pivot > 0:
            i1 = 1 / math.sqrt(pivot)
            x = (0.0 - i0 * l.conjugate()) * i1  # potf2's update: 0 - 0 is +0
            pivot = _BLOCK_C - (i0 * i0 + (x * x.conjugate()).real)
        if pivot > 0:  # the trailing block's pivots
            y = i1 * abs(x) / math.sqrt(pivot)
            pivot = _BLOCK_C - (i1 * i1 + y * y)
        if not pivot > 0:
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        r0, r1 = root.tolist()
        return np.array([[i1 * r0, x.conjugate() * r0], [0.0, i0 * r1]], rho.dtype)
    block = blocks.get(key)
    if block is None:
        blocks[key] = block = np.zeros((2 * n, 2 * n), rho.dtype)
        block[:n, n:] = block[n:, :n] = eye = np.eye(n)
        block[n:, n:] = _BLOCK_C * eye
    block[:n, :n] = rho[::-1, ::-1]
    x = np.linalg.cholesky(block)[:n - 1:-1, n - 1::-1]  # lower left, J . J
    return (x.conj() * root).T  # rows of inv(R), scaled


def scaling_step(g: Sequence[np.ndarray], x: Tensor, p: TargetSpectrum,
                 mode: str = BOREL) -> tuple[GroupTuple, int, tuple[float, ...]]:
    """One alternating-minimization step on the unit-norm tensor g . x.

    Measures every marginal's trace distance to its target diagonal, raises
    SingularMarginalError if a marginal fails _check_start, picks the factor
    farthest in trace distance (the loop's rule at epsilon = inf; smallest
    label wins ties) and updates that factor of g by the Borel step of either
    mode (see ScalingConfig), so the chosen marginal becomes exactly the
    target diagonal.  Returns the updated tuple, the 1-based chosen factor,
    and the measured trace distances.
    """
    if mode not in (BOREL, PARABOLIC):
        raise ValueError(f"unknown mode {mode!r}")
    if p.dims != x.dims:
        raise ValueError(f"target dims {p.dims} do not match tensor dims {x.dims}")
    y = apply_group(g, x)
    if abs(y.norm() - 1.0) > 1e-6:
        raise ValueError(f"g . x must have unit norm, got {y.norm():.6g}")
    it = _Iterate(y, p)
    _check_start(it.stacks)
    j, a = it.rule()
    g_new = [np.asarray(m) for m in g]
    g_new[j] = a @ g_new[j]
    return tuple(g_new), j + 1, tuple(it.dists)


# --------------------------------------------------------------------------
# Full runs
# --------------------------------------------------------------------------


def _resolve_range(cfg: ScalingConfig, p: TargetSpectrum, degree: int) -> int:
    if cfg.rand_range == THEORETICAL:
        k, _ = randomization_bounds(p.denominator_lcm, p.num_factors, p.dims)
        return 2 * degree * k
    return cfg.rand_range


def _core_loop(x: Tensor, start: Tensor, pre: GroupTuple, p: TargetSpectrum,
               cfg: ScalingConfig,
               budget_for: Callable[[tuple[int, ...], float], int],
               randomized: bool = True) -> ScalingReport:
    """Scale ``start`` = pre . x toward p and report a group acting on x.

    Zero targets restrict the start to their positive part and run the loop
    at half the tolerance.  The step budget is budget_for(restricted format,
    loop tolerance).  The loop steps the restricted start x0 from the
    identity.  A halt measures the composed, padded group on x and ships it
    as SCALED if it holds, as almost every first halt does; a rejected one
    resyncs the drifting iterate from x0, not from the witness's image of x,
    which differs by rounding and the pad.  Drift that fails a halt fails the
    next, so a later halt's witness waits for a passing resync.  Other
    verdicts pad the loop's group unmeasured; a failed step, or a non-finite
    group or image (compose_group, apply_group), raises NumericBreakdownError.
    NOT_IN_POLYTOPE comes only at step 0: a restriction that vanishes, or a
    start failing _check_start, is a rank obstruction unless a factor of pre
    is exactly singular or a start not ``randomized`` was restricted: the
    run then ends BUDGET_EXHAUSTED at step 0.  Such a start is not generic,
    so for a non-uniform target that exit and the cap exit note it.
    Its steps run with overflow and invalid-value warnings off, once per
    run, as the breakdown rules report each value past the float range.
    """
    if p.has_zeros():
        x0, p_active, _ = restrict_positive(start, p)
        epsilon = cfg.epsilon / 2.0
    else:
        x0, p_active, epsilon = start, p, cfg.epsilon
    norm_x0 = x0.norm()
    norm_start = norm_x0 if x0 is start else start.norm()
    budget = budget_for((x0.n0,) + x0.dims, epsilon)
    trace: list[IterationRecord] = []
    note = ("an unrandomized start is not generic; randomize it"
            if not randomized and p != TargetSpectrum.uniform(p.dims) else "")

    def full(borel: Sequence[np.ndarray]) -> GroupTuple:
        # the loop's tuple composed with pre, zero-target factors padded back
        if x0 is not start:
            borel = pad_scaling(borel, p, cfg.epsilon, norm_start)
        return compose_group(borel, pre)

    def report(verdict: str, group: GroupTuple, why: str = "") -> ScalingReport:
        return ScalingReport(verdict, group, len(trace), trace, budget,
                             cfg.epsilon, note=why)

    def obstruction(group: Callable[[], GroupTuple], why: str = "") -> ScalingReport:
        # a rank obstruction, unless pre is singular or the slice is not generic
        singular = [i for i, m in enumerate(pre, start=1) if _singular(m)]
        if singular:
            return report(BUDGET_EXHAUSTED, pre, f"basis change factor {singular[0]} is singular")
        if note and x0 is not start:
            return report(BUDGET_EXHAUSTED, pre, note)
        return report(NOT_IN_POLYTOPE, group(), why)

    if norm_x0 == 0.0:
        return obstruction(lambda: pre, "restricted tensor vanished")
    it = _Iterate(x0, p_active, norm_x0, epsilon)
    # scale-free (relative to each trace): the normalized start's marginals serve
    try:
        _check_start(it.stacks)
    except SingularMarginalError:
        return obstruction(lambda: full(identity_group(x0.dims)))

    limit = cfg.max_iters if cfg.max_iters is not None else budget

    def verified_halt(group: GroupTuple, target: Tensor) -> Tensor:
        # a halt's first pass: bench/tracer.py counts its calls, not the second's
        return apply_group(group, target)

    def resynced(y: Tensor) -> bool:
        # take y, the loop's group applied to x0, as the iterate
        it.renormalize(y.data, y.norm())
        return it.halts()

    with np.errstate(over="ignore", invalid="ignore"):
        # the halt order: until a witness fails, a halt measures the witness
        # first; after that, it resyncs first, as drift that failed one
        # witness fails the next.  Witness-first at every halt gives the same
        # verdicts but adds a failing witness pass to each later halt.
        rejected = False
        while True:
            # each pass's tensor is an argument, freed before the next
            if it.halts():
                if not rejected:
                    group = full(it.group)
                    if max(_Iterate(verified_halt(group, x), p).dists) <= cfg.epsilon:
                        return report(SCALED, group)
                    resynced(apply_group(tuple(it.group), x0))
                    rejected = True
                elif resynced(verified_halt(tuple(it.group), x0)):
                    group = full(it.group)
                    if max(_Iterate(apply_group(group, x), p).dists) <= cfg.epsilon:
                        return report(SCALED, group)
            if it.steps == limit:
                return report(BUDGET_EXHAUSTED, full(it.group), note)
            j, a = it.rule()
            frob = tuple(it.frob)
            it.step(j, a)
            trace.append(IterationRecord(j + 1, frob, it.capacity
                                         if cfg.log_capacity else math.nan))


def run_scaling(x: Tensor, p: TargetSpectrum, cfg: ScalingConfig) -> ScalingReport:
    """Scale ``x`` toward the target spectra ``p``.

    Randomizes the basis (unless disabled), rejects the instance when a
    marginal of the randomized tensor is singular, then runs the alternating
    loop.  A SCALED verdict ships a group verified from scratch on x.
    """
    if x.norm() == 0.0:
        raise ValueError("input tensor must be nonzero")
    if p.dims != x.dims:
        raise ValueError(f"target dims {p.dims} do not match tensor dims {x.dims}")

    rng_range = _resolve_range(cfg, p, x.num_factors)
    if cfg.randomize:
        g0 = random_group(x.dims, rng_range, cfg.seed)
        start, log2_range = apply_group(g0, x), math.log2(rng_range)
    else:
        g0, start, log2_range = identity_group(x.dims), x, 0.0
    bits = x.entry_bitsize()
    return _core_loop(x, start, g0, p, cfg,
                      lambda shape, eps: iteration_budget(shape, bits, eps,
                                                          log2_range),
                      randomized=cfg.randomize)


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
    coeff_bits: int = 1

    def __post_init__(self):
        for name, low in (("param_dim", 1), ("degree", 1), ("coeff_bits", 0)):
            object.__setattr__(self, name, as_int(getattr(self, name), name, low=low))


def identity_parametrization(dims: Sequence[int], n0: int = 1) -> Parametrization:
    """Parameters are the tensor entries themselves."""
    shape = (as_int(n0, "n0", low=1),) + tuple(as_int(n, "dims", low=1)
                                               for n in dims)
    return Parametrization(
        param_dim=math.prod(shape),
        degree=1,
        evaluate=lambda z: Tensor(np.reshape(z, shape)),
    )


def mps_tensor(matrices: Sequence[np.ndarray], d: int) -> Tensor:
    """Tensor with entries tr[M_{j1} ... M_{jd}] in format (1; n, ..., n) from
    a nonempty list of n equal square finite matrices, else raises ValueError;
    trace products past the float range raise NumericBreakdownError."""
    d = as_int(d, "d", low=2)
    try:
        stack = np.array(matrices, dtype=complex)  # (n, N, N)
    except TypeError as exc:
        raise ValueError(f"site matrices must hold numbers: {exc}") from exc
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ValueError("need a nonempty list of equal square site matrices")
    if not np.isfinite(stack).all():
        raise NonFiniteEntriesError("site matrix entries must be finite")
    result = stack
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(d - 1):
            result = np.einsum("...ab,jbc->...jac", result, stack)
        data = np.trace(result, axis1=-2, axis2=-1)
    try:
        return Tensor(data.reshape((1,) + (len(stack),) * d))
    except NonFiniteEntriesError as exc:
        raise NumericBreakdownError("the site matrices' trace products left "
                                    "the floating-point range") from exc


def mps_parametrization(n: int, bond_dim: int, d: int) -> Parametrization:
    """Parameters are the entries of n site matrices of size bond_dim."""
    n, bond_dim = as_int(n, "n", low=1), as_int(bond_dim, "bond_dim", low=1)
    d = as_int(d, "d", low=2)

    def evaluate(z: np.ndarray) -> Tensor:
        z = np.asarray(z, dtype=complex).reshape(n, bond_dim, bond_dim)
        return mps_tensor(list(z), d)

    return Parametrization(
        param_dim=n * bond_dim * bond_dim,
        degree=d,
        evaluate=evaluate,
    )


def run_general_scaling(phi: Parametrization, p: TargetSpectrum,
                        cfg: ScalingConfig) -> tuple[ScalingReport, Tensor]:
    """Sample a start tensor through ``phi`` and scale it toward ``p``.

    The sampled parameter vector has integer entries uniform in the
    resolved range; the loop then runs exactly as in run_scaling with no
    further basis change.  A sample of the wrong format raises ValueError; a
    zero one, which only a custom parametrization gives on draws in 1..M,
    proves nothing and ends BUDGET_EXHAUSTED at step 0.
    """
    dims = p.dims
    rng_range = _resolve_range(cfg, p, phi.degree)
    x = phi.evaluate(_uniform_draws(cfg.seed, phi.param_dim, rng_range))
    if x.dims != dims:
        raise ValueError(f"parametrization produced format {x.shape}, "
                         f"target wants dims {dims}")
    if x.norm() == 0.0:
        note = "the parametrization vanished on its sample"
        return ScalingReport(BUDGET_EXHAUSTED, identity_group(dims), 0, [], 0,
                             cfg.epsilon, note=note), x

    def budget_for(shape: tuple[int, ...], eps: float) -> int:
        return general_iteration_budget(shape, phi.coeff_bits, eps, phi.degree,
                                        phi.param_dim, math.log2(rng_range))

    return _core_loop(x, x, identity_group(dims), p, cfg, budget_for), x
