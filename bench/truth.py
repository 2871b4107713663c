"""Ground truth for the benchmark that never runs the engine.

Everything here is recomputed from first principles with plain numpy and
exact fractions: marginals by an explicit einsum, trace distances by
``eigvalsh`` on the symmetrized difference, and membership or
non-membership from closed-form polytope facts:

* the W entanglement polytope sum_i lambda_max^(i) >= 2 (Walter et al.,
  arXiv:1208.0365), which puts uniform three-qubit targets 1/3 away from
  every point of W's orbit closure;
* the rank obstruction rank_i <= n0 * prod_{j != i} rank_j, which exact
  arithmetic sees as well;
* Bravyi's two-qubit mixed-state inequalities (quant-ph/0301014) on a
  restricted (2, 2, m <= 4) support;
* the three-qubit polygon inequalities lambda_min^(i) <= sum_{j != i}
  lambda_min^(j) (Higuchi-Sudbery-Szulc, quant-ph/0209085);
* Cayley's hyperdeterminant, nonzero exactly on the dense GHZ orbit of
  2 x 2 x 2 tensors;
* Kronecker coefficients from S_k characters by the Murnaghan-Nakayama
  rule; g(lam, mu, nu) > 0 puts the normalized triple in the polytope
  (Christandl-Harrow-Mitchison, quant-ph/0511029).
"""
from __future__ import annotations

import itertools
import math
import string
from fractions import Fraction
from typing import Sequence

import numpy as np

LETTERS = string.ascii_letters


# --------------------------------------------------------------------------
# Marginals, group action and witness checks
# --------------------------------------------------------------------------


def act(group: Sequence[np.ndarray], data: np.ndarray) -> np.ndarray:
    """g . X: matrix i of ``group`` contracted with axis i + 1 of ``data``."""
    out = np.asarray(data, dtype=complex)
    nd = out.ndim
    for i, m in enumerate(group):
        axes = LETTERS[:nd]
        new = axes.replace(axes[i + 1], "Z")
        out = np.einsum(f"Z{axes[i + 1]},{axes}->{new}",
                        np.asarray(m, dtype=complex), out, optimize=True)
    return out


def marginals(data: np.ndarray) -> list[np.ndarray]:
    """One-body marginals of factors 1..d, rho_i[a, b] = sum X[..a..] X[..b..]^*."""
    nd = data.ndim
    axes = LETTERS[:nd]
    out = []
    for i in range(1, nd):
        other = axes.replace(axes[i], "Z")
        out.append(np.einsum(f"{axes},{other}->{axes[i]}Z", data, data.conj(),
                             optimize=True))
    return out


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    diff = np.asarray(a) - np.asarray(b)
    return float(np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2)).sum())


def witness_distance(data: np.ndarray, group: Sequence[np.ndarray],
                     parts: Sequence[Sequence[Fraction]]) -> float:
    """Largest trace distance between a marginal of g . X and the target's
    ascending diagonal, the quantity a SCALED or IN answer promises <= eps."""
    rhos = marginals(act(group, data))
    return max(trace_distance(rho, np.diag([float(v) for v in reversed(vec)]))
               for rho, vec in zip(rhos, parts))


def witness_holds(data, group, parts, epsilon: float) -> bool:
    dist = witness_distance(data, group, parts)
    return math.isfinite(dist) and dist <= epsilon * (1 + 1e-9) + 1e-14


def min_eigenvalue_ratio(data: np.ndarray) -> float:
    """Smallest eigenvalue over trace, over every marginal of ``data``."""
    return min(float(ev[0] / ev.sum())
               for ev in map(np.linalg.eigvalsh, marginals(data)))


# --------------------------------------------------------------------------
# Tensors whose marginals are known exactly
# --------------------------------------------------------------------------


def latin_tensor(w: np.ndarray, n: int) -> np.ndarray:
    """Tensor of format (n0; n, ..., n) with entry w[a0, a1..a_{d-1}] at the
    position whose last index is (a0 + ... + a_{d-1}) mod n.

    Every complement of one index determines that index, so all marginals
    are diagonal with entries sums of w**2: the marginal spectra are exact
    rationals, and T realizes them on the nose.
    """
    data = np.zeros(w.shape + (n,), dtype=complex)
    for idx in itertools.product(*(range(s) for s in w.shape)):
        data[idx + (sum(idx) % n,)] = w[idx]
    return data


def latin_spectra(w: np.ndarray, n: int) -> tuple[tuple[Fraction, ...], ...]:
    """Exact marginal spectra of latin_tensor(w, n), nonincreasing."""
    sq = np.asarray(w, dtype=np.int64) ** 2
    total = int(sq.sum())
    parts = []
    d = w.ndim
    for i in range(1, d):
        axes = tuple(a for a in range(d) if a != i)
        row = sq.sum(axis=axes)
        parts.append(tuple(sorted((Fraction(int(v), total) for v in row),
                                  reverse=True)))
    last = [0] * n
    for idx in itertools.product(*(range(s) for s in w.shape)):
        last[sum(idx) % n] += int(sq[idx])
    parts.append(tuple(sorted((Fraction(v, total) for v in last), reverse=True)))
    return tuple(parts)


def w_state() -> np.ndarray:
    data = np.zeros((1, 2, 2, 2), dtype=complex)
    data[0, 1, 0, 0] = data[0, 0, 1, 0] = data[0, 0, 0, 1] = 1
    return data


def w_spectra() -> tuple[tuple[Fraction, ...], ...]:
    """Exact spectra of the W state: each factor sees one excitation in
    one of three equally weighted terms."""
    return ((Fraction(2, 3), Fraction(1, 3)),) * 3


# --------------------------------------------------------------------------
# Non-membership certificates; each returns a separation or None
# --------------------------------------------------------------------------


def w_polytope_separation(parts) -> Fraction | None:
    """Lower bound on the max trace distance from the W orbit closure's
    marginals to a three-qubit target violating sum lambda_max >= 2.

    Every point q of the W polytope has sum_i (q_max^(i) - p_max^(i)) >=
    2 - sum p_max, so some factor moves by a third of that in lambda_max,
    and a qubit's trace distance is twice its lambda_max shift.
    """
    if len(parts) != 3 or any(len(vec) != 2 for vec in parts):
        return None
    deficit = 2 - sum(vec[0] for vec in parts)
    return 2 * deficit / 3 if deficit > 0 else None


def rank_obstruction(parts, n0: int) -> bool:
    """True when some factor's rank exceeds n0 times the product of the
    other ranks, which no tensor, exact or approximate limit, can meet."""
    ranks = [sum(1 for v in vec if v > 0) for vec in parts]
    for i, r in enumerate(ranks):
        if r > n0 * math.prod(ranks[:i] + ranks[i + 1:]):
            return True
    return False


def qubit_rank_separation(parts) -> Fraction | None:
    """Separation of a pure three-qubit target in which two factors are
    pure and the third is not: within trace distance t of pure on two
    factors, the polygon inequality puts the third's lambda_min below t,
    so the distance is at least min over t of max(t, 2 * (p_min - t))."""
    if len(parts) != 3 or any(len(vec) != 2 for vec in parts):
        return None
    mins = sorted(vec[1] for vec in parts)
    if mins[0] != 0 or mins[1] != 0 or mins[2] == 0:
        return None
    return 2 * mins[2] / 3


def bravyi_violation(parts) -> Fraction | None:
    """Violation of Bravyi's two-qubit inequalities on the restricted support.

    The target must have two factors of rank 2 and one of rank <= 4; a
    pure state on that support is a purified two-qubit state whose global
    spectrum is the third factor's.  Returns the largest violation amount,
    or None when every inequality holds.
    """
    vecs = [tuple(v for v in vec if v > 0) for vec in parts]
    if len(vecs) != 3:
        return None
    order = sorted(range(3), key=lambda i: len(vecs[i]))
    qa, qb, env = (vecs[i] for i in order)
    if len(qa) != 2 or len(qb) != 2 or len(env) > 4:
        return None
    a, b = qa[1], qb[1]
    lam = tuple(env) + (Fraction(0),) * (4 - len(env))
    slack = [
        min(a, b) - (lam[2] + lam[3]),
        a + b - (lam[1] + lam[2] + 2 * lam[3]),
        min(lam[0] - lam[2], lam[1] - lam[3]) - abs(a - b),
    ]
    worst = -min(slack)
    return worst if worst > 0 else None


def bravyi_separation(parts) -> Fraction | None:
    """Each inequality's slack moves by at most twice a factor's trace
    distance, so a violation v survives within trace distance v / 2 on
    the restricted support."""
    v = bravyi_violation(parts)
    return v / 2 if v is not None else None


# --------------------------------------------------------------------------
# Membership certificates
# --------------------------------------------------------------------------


def qubit_polygon_holds(parts, margin: Fraction = Fraction(0)) -> bool:
    """Three-qubit pure-state polytope, lambda_min^(i) <= the other two,
    with every inequality (and lambda_min >= 0) holding with ``margin``."""
    mins = [vec[1] for vec in parts]
    total = sum(mins)
    return all(total - 2 * m >= margin and m >= margin for m in mins)


def hyperdeterminant(data: np.ndarray) -> int:
    """Cayley's hyperdeterminant of an integer 2 x 2 x 2 tensor, exactly."""
    a = {}
    for i, j, k in itertools.product(range(2), repeat=3):
        v = complex(data[0, i, j, k])
        if v.imag != 0 or v.real != round(v.real):
            raise ValueError("hyperdeterminant here takes real integer tensors")
        a[i, j, k] = int(round(v.real))
    sq = (a[0, 0, 0] ** 2 * a[1, 1, 1] ** 2 + a[0, 0, 1] ** 2 * a[1, 1, 0] ** 2
          + a[0, 1, 0] ** 2 * a[1, 0, 1] ** 2 + a[1, 0, 0] ** 2 * a[0, 1, 1] ** 2)
    cross = (a[0, 0, 0] * a[0, 0, 1] * a[1, 1, 0] * a[1, 1, 1]
             + a[0, 0, 0] * a[0, 1, 0] * a[1, 0, 1] * a[1, 1, 1]
             + a[0, 0, 0] * a[1, 0, 0] * a[0, 1, 1] * a[1, 1, 1]
             + a[0, 0, 1] * a[0, 1, 0] * a[1, 0, 1] * a[1, 1, 0]
             + a[0, 0, 1] * a[1, 0, 0] * a[0, 1, 1] * a[1, 1, 0]
             + a[0, 1, 0] * a[1, 0, 0] * a[0, 1, 1] * a[1, 0, 1])
    quad = (a[0, 0, 0] * a[0, 1, 1] * a[1, 0, 1] * a[1, 1, 0]
            + a[0, 0, 1] * a[0, 1, 0] * a[1, 0, 0] * a[1, 1, 1])
    return sq - 2 * cross + 4 * quad


def partitions(k: int, max_part: int | None = None):
    """Partitions of k, largest parts first, in lexicographic order."""
    max_part = k if max_part is None else max_part
    if k == 0:
        yield ()
        return
    for first in range(min(k, max_part), 0, -1):
        for rest in partitions(k - first, first):
            yield (first,) + rest


def _char(lam: tuple[int, ...], rho: tuple[int, ...]) -> int:
    """Murnaghan-Nakayama: chi^lam at cycle type rho, by removing border
    strips of length rho[0] from the beta-set of lam."""
    if not rho:
        return 1 if sum(lam) == 0 else 0
    r, rest = rho[0], rho[1:]
    n = len(lam)
    beta = [lam[i] + n - 1 - i for i in range(n)]
    total = 0
    for i, b in enumerate(beta):
        nb = b - r
        if nb < 0 or nb in beta:
            continue
        sign = (-1) ** sum(1 for c in beta if nb < c < b)
        new_beta = sorted([c for c in beta if c != b] + [nb], reverse=True)
        new_lam = tuple(new_beta[j] - (n - 1 - j) for j in range(n))
        total += sign * _char(new_lam, rest)
    return total


def kronecker_coefficient(lam, mu, nu) -> int:
    """g(lam, mu, nu) = sum over cycle types rho of chi chi chi / z_rho."""
    k = sum(lam)
    if sum(mu) != k or sum(nu) != k:
        raise ValueError("partitions must share a size")
    total = Fraction(0)
    for rho in partitions(k):
        z = 1
        for part in set(rho):
            m = rho.count(part)
            z *= part ** m * math.factorial(m)
        total += Fraction(_char(tuple(lam), rho) * _char(tuple(mu), rho)
                          * _char(tuple(nu), rho), z)
    if total.denominator != 1:
        raise ArithmeticError(f"non-integral Kronecker coefficient {total}")
    return int(total)


def kronecker_candidates(max_size: int, max_parts: int):
    """Triples (lam, mu, nu) of size <= max_size, at most max_parts parts,
    with a positive Kronecker coefficient, in a fixed order."""
    out = []
    for k in range(2, max_size + 1):
        parts = [p for p in partitions(k) if len(p) <= max_parts]
        for lam, mu, nu in itertools.combinations_with_replacement(parts, 3):
            if kronecker_coefficient(lam, mu, nu) > 0:
                out.append((lam, mu, nu))
    return out


# --------------------------------------------------------------------------
# Weight vectors, counted and evaluated the slow way
# --------------------------------------------------------------------------


def hwv_spec_count(dims: Sequence[int], n0: int, k: int) -> int:
    """Number of distinct weight-vector functionals of degree k: per factor,
    a partition with at most n parts and a split of the k slots into its
    column blocks, blocks of equal height unordered; then n0**k index
    sequences into factor 0."""
    total = n0 ** k
    for n in dims:
        ways = 0
        for lam in partitions(k):
            if len(lam) > n:
                continue
            heights = _conjugate(lam)
            denom = math.prod(math.factorial(h) for h in heights)
            denom *= math.prod(math.factorial(heights.count(h))
                               for h in set(heights))
            ways += math.factorial(k) // denom
        total *= ways
    return total


def _conjugate(lam: Sequence[int]) -> tuple[int, ...]:
    lam = [v for v in lam if v > 0]
    return tuple(sum(1 for v in lam if v > c) for c in range(lam[0] if lam else 0))


def hwv_bruteforce(weight, index_seq, perms, data: np.ndarray) -> complex:
    """Sum over every tuple of index maps of the entry product times the
    column-block determinants, each built as an explicit 0/1 matrix."""
    k = len(index_seq)
    dims = data.shape[1:]

    def det_factor(lam, perm, assign, n):
        val = 1.0
        offset = 0
        for h in _conjugate(lam):
            mat = np.zeros((h, h))
            for a in range(h):
                basis = assign[perm[offset + a]]
                for b in range(h):
                    mat[a, b] = 1.0 if basis == n - 1 - b else 0.0
            val *= np.linalg.det(mat)
            offset += h
            if val == 0.0:
                return 0.0
        return val

    total = 0j
    per_factor = [list(itertools.product(range(n), repeat=k)) for n in dims]
    for maps in itertools.product(*per_factor):
        amp = 1 + 0j
        for a in range(k):
            amp *= data[(index_seq[a],) + tuple(m[a] for m in maps)]
        if amp == 0:
            continue
        for i, (lam, perm) in enumerate(zip(weight, perms)):
            amp *= det_factor(lam, perm, maps[i], dims[i])
            if amp == 0:
                break
        total += amp
    return total
