"""Dense linear-algebra substrate for the solvers.

Sizes are modest throughout (dictionary dimension tens, streamline count up
to a few thousand), so almost everything here is direct dense
factorization, with no sparsity. The one exception is a few eigenpairs at
the low end of a large matrix, which `sym_eig` takes from implicitly
restarted Lanczos (ARPACK; Lehoucq, Sorensen & Yang, *ARPACK Users' Guide*,
1998) at O(n²) per matrix-vector product instead of LAPACK's O(n³)
tridiagonal reduction.

The solvers reuse what they can: `ridge_solver` inverts a fixed m×m system
once, so each ADMM inner step is one matrix product, and `sylvester_solve`
takes a precomputed `SchurForm` of Q, which the Laplacian prior computes
once per fit for each endpoint-graph component (Simoncini, "Computational
methods for linear matrix equations", SIAM Review 2016).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .errors import (
    EigenFailure,
    MaxIterations,
    SingularAfterRidge,
    SingularPencil,
    SylvesterFailure,
)

_SYM_TOL = 1e-10

# Matrix order from which a partial eigensolve runs Lanczos instead of
# LAPACK's subset driver. Measured with one OpenBLAS thread on a 2-CPU Xeon
# on principal submatrices of `preset_separated5` RBF kernels and their
# normalized Laplacians, as the pipeline runs them: the one-pair shift, then
# 5 or 10 embedding pairs. On random streamline subsets Lanczos won the pair
# from n = 700 (53 against 66 ms). On the first n streamlines, mostly one
# bundle, the shift converges more slowly and the pair first won at n = 900
# (119–154 against 139–174 ms); at n = 2000 it took 0.45 s against 1.6 s.
_LANCZOS_MIN_N = 900
# Lanczos basis size. At 40 vectors the 5- and 10-pair embeddings converged
# in 40 to 75 products and the one-pair shift in 105. At 80 every solve ran
# one 81-product factorization: the shift 20–60% faster, the embeddings up to
# 2.5× slower, about even over the pipeline on full kernels. At 60 the shift
# restarted erratically, up to 630 products.
_LANCZOS_NCV = 40
# SciPy's C ARPACK draws each restart vector from eigsh's ``rng`` (from
# operating-system entropy at None), so every solve passes a fixed seed. An
# eigsh without ``rng`` runs the older Fortran ARPACK, whose own restart seed
# is fixed per process but carries over from one call to the next.
_EIGSH_RNG = (
    {"rng": 0} if "rng" in inspect.signature(scipy.sparse.linalg.eigsh).parameters else {}
)


# Elements per block in the blockwise passes over a square matrix (512 KiB
# of float64), so a symmetry check or symmetrization never holds a second
# n×n array.
_BLOCK_ELEMS = 1 << 16


def _row_strips(n: int):
    """(start, stop) of consecutive row blocks covering range(n)."""
    rows = max(1, _BLOCK_ELEMS // max(n, 1))
    return [(i, min(i + rows, n)) for i in range(0, n, rows)]


def _symmetric_within(a: np.ndarray, tol: float) -> bool:
    """Whether max |a − aᵀ| ≤ tol·max(1, max |a|) for a square array.

    Each strip of rows is compared with the matching columns from the
    diagonal on, which covers every pair once. Any NaN passes, since NaN
    compares false.
    """
    if not a.size:
        return True
    scale = max(1.0, a.max(), -a.min())
    worst = []
    for i, j in _row_strips(a.shape[0]):
        diff = a[i:j, i:] - a[i:, i:j].T
        worst.append(np.abs(diff, out=diff).max())
    return not np.max(worst) > tol * scale


def _symmetrize(a: np.ndarray) -> None:
    """Replace a square array by (a + aᵀ)/2 in place, one strip of rows at a time.

    Entry (i, j) and entry (j, i) both get (a_ij + a_ji)/2, the same float
    as the whole-matrix expression, since addition commutes.
    """
    for i, j in _row_strips(a.shape[0]):
        strip = a[i:j, i:] + a[i:, i:j].T
        strip /= 2.0
        a[i:j, i:] = strip
        a[i:, i:j] = strip.T


def _require_symmetric(a: np.ndarray, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got {a.shape}")
    if not _symmetric_within(a, _SYM_TOL):
        raise ValueError(f"{name} must be symmetric within {_SYM_TOL}")
    return a


def _lanczos_applies(n: int, count: int | None) -> bool:
    """Whether `sym_eig` takes the ``count`` smallest pairs of order n from Lanczos."""
    return count is not None and n >= _LANCZOS_MIN_N and count <= _LANCZOS_NCV // 2


def sym_eig(a, count: int | None = None):
    """Eigendecomposition of a symmetric matrix, in full or its low end.

    With ``count`` set, only the ``count`` smallest eigenpairs are computed.
    For n ≥ ``_LANCZOS_MIN_N`` and at most ``_LANCZOS_NCV // 2`` pairs they
    come from ARPACK's implicitly restarted Lanczos, started from a fixed
    vector, with restart vectors from a fixed seed where SciPy takes one
    (``_EIGSH_RNG``), so the same matrix gives the same bits on every call;
    otherwise from LAPACK's subset driver. The full decomposition
    (``count=None``) is always LAPACK. Where Lanczos applies, ``a`` may be
    a symmetric `scipy.sparse.linalg.LinearOperator` instead of an array:
    only its products are taken, so no n×n array is formed.

    Returns
    -------
    (w, v) : eigenvalues ascending, orthonormal eigenvectors as columns.

    Raises EigenFailure when LAPACK or ARPACK does not converge; an ARPACK
    failure is not retried on LAPACK.
    """
    if not isinstance(a, scipy.sparse.linalg.LinearOperator):
        a = _require_symmetric(a, "matrix")
    n = a.shape[0]
    if _lanczos_applies(n, count):
        v0 = np.random.default_rng(0).standard_normal(n)
        try:
            # ARPACK's dseupd returns the values in ascending order.
            return scipy.sparse.linalg.eigsh(
                a, k=count, which="SA", v0=v0, ncv=_LANCZOS_NCV, **_EIGSH_RNG
            )
        except scipy.sparse.linalg.ArpackError as exc:
            raise EigenFailure(f"symmetric eigensolver failed: {exc}") from exc
    subset = None if count is None else [0, count - 1]
    try:
        w, v = scipy.linalg.eigh(a, subset_by_index=subset)
    except scipy.linalg.LinAlgError as exc:
        raise EigenFailure(f"symmetric eigensolver failed: {exc}") from exc
    return w, v


@dataclass(frozen=True)
class SchurForm:
    """Real Schur form A = Q·diag(eigenvalues)·Qᵀ of a symmetric matrix.

    The eigenvalues are ascending; q holds orthonormal eigenvectors as
    columns.
    """

    q: np.ndarray
    eigenvalues: np.ndarray


def schur_form(a: np.ndarray) -> SchurForm:
    """Schur form of a symmetric matrix, i.e. its eigendecomposition.

    Raises ValueError for input that is not square or not symmetric.
    """
    w, v = sym_eig(a)
    return SchurForm(q=v, eigenvalues=w)


def _solve_gram(gram, rhs, ridge_scale):
    """Solve gram·z = rhs, escalating a ridge when the subsystem is singular."""
    for ridge in (0.0, 1e-12 * ridge_scale, 1e-8 * ridge_scale):
        try:
            z = np.linalg.solve(gram + ridge * np.eye(gram.shape[0]), rhs)
        except np.linalg.LinAlgError:
            continue
        if np.isfinite(z).all():
            return z
    raise SingularAfterRidge("Gram subsystem is singular even after ridge")


def nnls(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Minimize wᵀ·Gram·w − 2·rhsᵀ·w subject to w ≥ 0.

    Active-set iteration in the style of Lawson–Hanson, phrased directly on
    the Gram system (the problem sizes here are at most a handful of
    coordinates, so exactness beats speed). The batched pursuit follows
    this path itself while it stays clean and calls this only for systems
    that take the drop path or need the ridge.
    """
    gram = _require_symmetric(gram, "gram")
    rhs = np.asarray(rhs, dtype=np.float64)
    s = rhs.size
    if gram.shape != (s, s):
        raise ValueError("gram and rhs dimensions disagree")
    if s == 0:
        return np.zeros(0)
    max_iter = 3 * s + 30
    ridge_scale = max(1.0, np.abs(np.diagonal(gram)).max())
    tol = 1e-12 * max(1.0, np.abs(rhs).max(initial=0.0))

    w = np.zeros(s)
    passive = np.zeros(s, dtype=bool)
    steps = 0
    while True:
        steps += 1
        if steps > max_iter:
            raise MaxIterations("non-negative least squares did not converge")
        grad = rhs - gram @ w
        grad_masked = np.where(passive, -np.inf, grad)
        j = int(np.argmax(grad_masked))
        if grad_masked[j] <= tol:
            return w
        passive[j] = True
        while passive.any():
            steps += 1
            if steps > max_iter:
                raise MaxIterations("non-negative least squares did not converge")
            idx = np.flatnonzero(passive)
            z = _solve_gram(gram[np.ix_(idx, idx)], rhs[idx], ridge_scale)
            if z.min() > 0.0:
                w[:] = 0.0
                w[idx] = z
                break
            # Step toward z until the first passive coordinate hits zero,
            # then retire every coordinate that landed on the bound.
            wp = w[idx]
            bad = z <= 0.0
            denom = wp - z
            ratios = np.full(idx.size, np.inf)
            safe = bad & (denom > 0.0)
            ratios[safe] = wp[safe] / denom[safe]
            ratios[bad & ~safe] = 0.0
            alpha = ratios.min()
            w_new = wp + alpha * (z - wp)
            w_new[ratios <= alpha] = 0.0
            w[idx] = w_new
            drop = idx[w_new <= tol]
            w[drop] = 0.0
            passive[drop] = False


def _ridge_inverse(shifted: np.ndarray) -> np.ndarray | None:
    """The inverse of a symmetric matrix, or None when it has no finite one.

    Cholesky first; when the matrix is not positive definite or the Cholesky
    inverse is not finite, a symmetric-indefinite (LDLᵀ) solve.
    """
    eye = np.eye(shifted.shape[0])
    try:
        c = scipy.linalg.cho_factor(shifted, check_finite=False)
    except scipy.linalg.LinAlgError:
        pass
    else:
        inv = scipy.linalg.cho_solve(c, eye, check_finite=False)
        if np.isfinite(inv).all():
            return inv
    try:
        inv = scipy.linalg.solve(shifted, eye, assume_a="sym", check_finite=False)
    except (scipy.linalg.LinAlgError, ValueError):
        return None
    return inv if np.isfinite(inv).all() else None


def ridge_solver(a: np.ndarray, ridge: float = 1e-8):
    """Invert A + ridge·I once; return a callable B ↦ (A + ridge·I)⁻¹·B.

    A is symmetric and small (m×m), so the inverse is formed here, once,
    and every call is one matrix product: an ADMM W-step inverts its fixed
    matrix once for all its inner steps, and each inner step costs an
    m×m by m×n product instead of a LAPACK solve. The inverse comes from a
    Cholesky factor, or from a symmetric-indefinite (LDLᵀ) solve when the
    shifted matrix is not positive definite. When both fail every call
    raises SingularAfterRidge, as does a call whose product is not finite.
    """
    a = _require_symmetric(a, "matrix")
    if ridge < 0:
        raise ValueError("ridge must be non-negative")
    inv = _ridge_inverse(a + ridge * np.eye(a.shape[0]))

    def solve(b: np.ndarray) -> np.ndarray:
        if inv is None:
            raise SingularAfterRidge(f"matrix is singular after ridge {ridge}")
        x = inv @ np.asarray(b, dtype=np.float64)
        if not np.isfinite(x).all():
            raise SingularAfterRidge(f"solve produced non-finite values at ridge {ridge}")
        return x

    return solve


def ridge_solve(a: np.ndarray, b: np.ndarray, ridge: float = 1e-8) -> np.ndarray:
    """Solve (A + ridge·I)·X = B for symmetric A; see `ridge_solver`."""
    return ridge_solver(a, ridge)(b)


def sylvester_solve(
    p: np.ndarray,
    q: np.ndarray,
    r: np.ndarray,
    schur_q: SchurForm | None = None,
) -> np.ndarray:
    """Solve P·W + W·Q = R for symmetric P and Q.

    With P = U·diag(λ)·Uᵀ and Q = V·diag(ν)·Vᵀ the equation is diagonal in
    the two eigenbases: W = U·[(UᵀRV)ᵢⱼ / (λᵢ + νⱼ)]·Vᵀ. ``schur_q`` lets
    callers reuse the decomposition of a fixed Q across many solves; only P
    is then decomposed per call. Non-symmetric P or Q raises ValueError.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    m, n = p.shape[0], q.shape[0]
    if p.shape != (m, m) or q.shape != (n, n) or r.shape != (m, n):
        raise ValueError("dimension mismatch between p, q and r")

    sp = schur_form(p)
    sq = schur_q if schur_q is not None else schur_form(q)
    if sq.eigenvalues.shape[0] != n:
        raise ValueError("precomputed Schur form does not match q")

    denom = sp.eigenvalues[:, None] + sq.eigenvalues[None, :]
    gap = np.abs(denom).min()
    scale = max(
        1.0,
        np.abs(sp.eigenvalues).max(initial=0.0),
        np.abs(sq.eigenvalues).max(initial=0.0),
    )
    if gap <= 1e-12 * scale:
        raise SingularPencil(
            f"spectra of P and -Q overlap (minimum |λ_P + λ_Q| = {gap:.3e})"
        )

    wt = (sp.q.T @ r @ sq.q) / denom
    w = sp.q @ wt @ sq.q.T
    if not np.isfinite(w).all():
        raise SylvesterFailure("eigenbasis solve produced non-finite values")
    return w
