"""Shared fixtures and independent oracles used across the test suite.

The oracles here deliberately re-derive quantities from first principles
(explicit loops, closed forms) so they stay independent of the library code
paths they certify.
"""
from __future__ import annotations

import itertools
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import tenscale as ts
from tenscale import TargetSpectrum, Tensor, io

# the benchmark's engine-independent ground truth (bench/truth.py) and its
# instance generators (bench/workloads.py) serve the tests where they stand
sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))


# the loop reference's targets beyond uniform: non-uniform, with zero
# entries (a restricted run), and on factors of mixed dimensions
NONUNIFORM = TargetSpectrum(((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),
                             (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
                             (Fraction(2, 5), Fraction(2, 5), Fraction(1, 5))))
ZERO = TargetSpectrum(((Fraction(1, 2), Fraction(1, 2), Fraction(0)),
                       (Fraction(2, 3), Fraction(1, 3), Fraction(0)),
                       (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))))
MIXED = TargetSpectrum(((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),
                        (Fraction(3, 5), Fraction(2, 5)),
                        (Fraction(2, 5), Fraction(2, 5), Fraction(1, 5))))


def random_integer_tensor(shape, rng, low=-4, high=5) -> Tensor:
    """Nonzero integer tensor with entries in [low, high), stored real."""
    while True:
        data = rng.integers(low, high, size=shape)
        if np.linalg.norm(data) > 0:
            return Tensor(data)


def random_density(n, rng) -> np.ndarray:
    """Random PSD matrix with unit trace."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_hermitian(n, rng) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


def random_upper_triangular(n, rng, *, unit_scale=False) -> np.ndarray:
    """Well-conditioned random complex upper-triangular matrix."""
    m = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1)
    diag = 1.0 + rng.random(n)
    if unit_scale:
        m *= 0.3
    return m + np.diag(diag.astype(complex))


def marginal_bruteforce(x: Tensor, i: int) -> np.ndarray:
    """Direct-summation marginal: rho[a, b] = sum over all other indices of
    X[.. a ..] * conj(X[.. b ..])."""
    n = x.shape[i]
    rho = np.zeros((n, n), dtype=complex)
    for idx in itertools.product(*(range(s) for s in x.shape)):
        for b in range(n):
            jdx = idx[:i] + (b,) + idx[i + 1:]
            rho[idx[i], b] += x.data[idx] * np.conj(x.data[jdx])
    return rho


def hwv_bruteforce(spec, x: Tensor) -> complex:
    """Naive re-implementation of the weight-vector evaluation: loop over
    every tuple of index maps, build each column-block matrix explicitly,
    and take numpy determinants."""
    k = spec.degree
    dims = x.dims

    def det_factor(lam, perm, assign, n):
        from tenscale import conjugate_partition

        heights = conjugate_partition(tuple(v for v in lam if v > 0))
        val = 1.0
        offset = 0
        for h in heights:
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

    total = 0.0 + 0.0j
    per_factor = [list(itertools.product(range(n), repeat=k)) for n in dims]
    for maps in itertools.product(*per_factor):
        amp = 1.0 + 0.0j
        for a in range(k):
            amp *= x.data[(spec.index_seq[a],) + tuple(m[a] for m in maps)]
        if amp == 0:
            continue
        for i, (lam, perm) in enumerate(zip(spec.weight, spec.perms)):
            amp *= det_factor(lam, perm, maps[i], dims[i])
            if amp == 0:
                break
        total += amp
    return total


def upper_cholesky(rho) -> np.ndarray:
    """Upper-triangular R with positive diagonal and R @ R^dagger = rho: the
    lower Cholesky factor of the coordinate-reversed matrix, reversed back."""
    return np.linalg.cholesky(rho[::-1, ::-1])[::-1, ::-1]


def apply_factor(m, i: int, x: Tensor) -> Tensor:
    """The matrix m acting on factor i (1-based) of x."""
    return Tensor(ts.contract(m, x.data, i))


def kraus_operator(rd, j: int) -> np.ndarray:
    """The j-th Kraus operator (1-based) of the reduction's expansion: an
    ell x n matrix whose j-th row block, after mu_1 + ... + mu_{j-1} rows,
    is the projection to the last mu_j coordinates."""
    off, mu = sum(rd.mu[:j - 1]), rd.mu[j - 1]
    out = np.zeros((rd.ell, rd.n), dtype=complex)
    out[off: off + mu, rd.n - mu:] = np.eye(mu)
    return out


def reduction_matrix(rd) -> np.ndarray:
    """The embedding C^n -> C^width (x) C^ell that stacks e_j (x) tau_j v."""
    return np.concatenate([kraus_operator(rd, j)
                           for j in range(1, rd.width + 1)])


def reduce_reference(y: Tensor, lams) -> Tensor:
    """reduce_tensor as the Kraus sum: one np.tensordot with the reduction
    matrix per factor, then the width axes moved into factor 0."""
    rds = [ts.ReductionData(tuple(lam)) for lam in lams]
    ell = rds[0].ell
    data = y.data
    for i, rd in enumerate(rds, start=1):
        data = np.moveaxis(np.tensordot(reduction_matrix(rd), data,
                                        axes=([1], [i])), 0, i)
    d = y.num_factors
    split = (y.n0,) + tuple(v for rd in rds for v in (rd.width, ell))
    perm = [0] + [1 + 2 * i for i in range(d)] + [2 + 2 * i for i in range(d)]
    data = np.transpose(data.reshape(split), perm)
    front = y.n0 * math.prod(rd.width for rd in rds)
    return Tensor(data.reshape((front,) + (ell,) * d))


def borel_homomorphism(rd, b) -> np.ndarray:
    """The reduction's map of upper-triangular n x n matrices to ell x ell
    ones: b to the expansion of Lambda^{-1/2} b Lambda^{1/2}."""
    scale = np.sqrt(rd.lam_ascending())
    b = np.asarray(b, dtype=complex)
    return ts.expand_matrix(rd, (b / scale[:, None]) * scale[None, :])


def save_tensor(x: Tensor, path) -> None:
    """The canonical tensor file the CLI reads."""
    Path(path).write_text(io.dumps_canonical(io.tensor_to_obj(x)))


def spectrum_to_obj(p: TargetSpectrum) -> dict:
    """The spectrum document io.spectrum_from_obj reads, as fraction strings."""
    return {"parts": [[str(v) for v in vec] for vec in p.parts]}


def save_spectrum(p: TargetSpectrum, path) -> None:
    Path(path).write_text(io.dumps_canonical(spectrum_to_obj(p)))


def hwv_spec_to_obj(spec) -> dict:
    """The weight-vector description document io.hwv_spec_from_obj reads."""
    return {"weight": [list(lam) for lam in spec.weight],
            "indexSeq": list(spec.index_seq),
            "perms": [list(pi) for pi in spec.perms]}


def kl_divergence(p, q) -> float:
    """Relative entropy sum p_j log2(p_j / q_j) of a probability vector
    against a nonnegative vector; +inf on a support violation."""
    total = 0.0
    for pj, qj in zip(p, q):
        if pj == 0.0:
            continue
        if qj == 0.0:
            return math.inf
        total += pj * math.log2(pj / qj)
    return total


def pinsker_gap(p, r) -> tuple[float, float]:
    """Both sides of the divergence bound for a unit-trace factorization
    rho = R R^dagger: the divergence of p against the squared moduli of R's
    diagonal, and the squared trace distance between diag(p) and rho over
    16 ln 2, which the divergence dominates."""
    rho = r @ r.conj().T
    assert abs(np.trace(rho).real - 1.0) <= 1e-8
    gap = np.linalg.eigvalsh(np.diag(np.asarray(p, dtype=float)) - rho)
    return (kl_divergence(p, np.abs(np.diag(r)) ** 2),
            float(np.sum(np.abs(gap))) ** 2 / (16.0 * math.log(2)))


def ref_capacity(group, p, norm_y) -> float:
    """Capacity objective norm_y * |chi(R)| of an upper-triangular tuple R
    toward the target p, where norm_y is norm(R . x): the product of
    |R_kk| ** -(p's k-th ascending entry) over every factor, read off the
    diagonal one entry at a time; a zero diagonal entry gives inf."""
    value = norm_y
    for i, r in enumerate(group, start=1):
        for k, exponent in enumerate(p.ascending(i).tolist()):
            det = abs(r[k, k])
            if det == 0.0:
                return math.inf
            value *= det ** -exponent
    return value


def ghz_tensor() -> Tensor:
    data = np.zeros((1, 2, 2, 2), dtype=complex)
    data[0, 0, 0, 0] = data[0, 1, 1, 1] = 1
    return Tensor(data)


def w_tensor(flipped: bool = False) -> Tensor:
    """The three-term one-excitation tensor; flipped=True puts the
    excitation in the last coordinate instead of the first."""
    data = np.zeros((1, 2, 2, 2), dtype=complex)
    hot, cold = (0, 1) if flipped else (1, 0)
    data[0, hot, cold, cold] = 1
    data[0, cold, hot, cold] = 1
    data[0, cold, cold, hot] = 1
    return Tensor(data)


def product_tensor() -> Tensor:
    data = np.zeros((1, 2, 2, 2), dtype=complex)
    data[0, 0, 0, 0] = 1
    return Tensor(data)


def pure_state_spectra_gap(point, samples=1_000_000, seed=99) -> float:
    """Smallest max-factor l1 distance between the marginal spectra of
    random pure three-qubit states and a target point, using closed-form
    2x2 eigenvalues.  Serves as a sampling ground truth for far points."""
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal((samples, 8)) + 1j * rng.standard_normal((samples, 8))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    worst = np.zeros(samples)
    tensors = psi.reshape(samples, 2, 2, 2)
    for axis in (1, 2, 3):
        mat = np.moveaxis(tensors, axis, 1).reshape(samples, 2, 4)
        rho = np.einsum("nij,nkj->nik", mat, mat.conj())
        tr = rho[:, 0, 0].real + rho[:, 1, 1].real
        det = (rho[:, 0, 0] * rho[:, 1, 1] - rho[:, 0, 1] * rho[:, 1, 0]).real
        disc = np.sqrt(np.clip(tr * tr - 4 * det, 0, None))
        hi, lo = (tr + disc) / 2, (tr - disc) / 2
        target = point[axis - 1]
        dist = np.abs(hi - target[0]) + np.abs(lo - target[1])
        worst = np.maximum(worst, dist)
    return float(worst.min())


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
