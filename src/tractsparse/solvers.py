"""Clustering solvers over a streamline kernel.

Four solvers share one model: streamlines live in kernel feature space, a
dictionary A holds bundle prototypes as combinations of training
streamlines, and an assignment W reconstructs each streamline from a few
prototypes.

* kernel k-means (hard one-hot W, closed-form A)
* sparse coding with a hard per-column non-zero budget (greedy pursuit)
* ADMM with L1 + a row-group prior that retires redundant dictionary rows
* ADMM with L1 + endpoint-graph Laplacian smoothing (Sylvester W-solve)

Under the group prior the atoms are unit-norm means of the streamlines each
row claims, so a row's price and value do not depend on how A and W share
scale. The sparse solver and the other ADMM variants keep selection-matrix
atoms refined multiplicatively.

Everything is deterministic: identical inputs and seeds give bitwise
identical results, and all tie-breaks go to the lowest index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator

from .errors import (
    DegenerateAtom,
    EmptyCluster,
    ZeroDegreeRow,
)
from .kernel import KernelMatrix
from .linalg import (
    _lanczos_applies,
    _row_strips,
    _symmetrize,
    nnls,
    ridge_solve,
    ridge_solver,
    schur_form,
    sylvester_solve,
    sym_eig,
)
from .model import Labeling, SolverConfig, _frozen_array

_KKM_SWEEPS = 100
_KSC_SWEEPS = 20
_ADMM_SWEEPS = 30
_PRUNE_REL = 1e-6
# relative cost change below which the ADMM outer loop counts as converged
_OUTER_COST_TOL = 1e-6
# The group prior keeps a row while it holds at least 2·λ2·√(m/n) of its
# members' explained energy (see gksc_fit); the default weight puts that bar
# at one third for the default mu of 0.01.
_LAMBDA2_COEFF = 50.0 / 3.0
# rows are only judged once at most this share of the labels moved in a sweep
_SETTLED_SHARE = 0.005
# widest spectral embedding the spectral start uses (it is also capped at m)
_SPECTRAL_N_EIG = 10


@dataclass(frozen=True)
class Dictionary:
    """Prototype coefficients over training streamlines (n×m).

    ``empty[j]`` flags columns pruned to nothing; they are skipped during
    assignment.
    """

    a: np.ndarray
    empty: np.ndarray | None = None

    def __post_init__(self):
        a = np.asarray(self.a, dtype=np.float64)
        if a.ndim != 2:
            raise ValueError(f"dictionary must be 2-D, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise ValueError("dictionary contains non-finite entries")
        empty = self.empty
        if empty is None:
            empty = np.zeros(a.shape[1], dtype=bool)
        else:
            empty = np.asarray(empty, dtype=bool)
            if empty.shape != (a.shape[1],):
                raise ValueError("empty flags must have one entry per column")
        object.__setattr__(self, "a", _frozen_array(a))
        object.__setattr__(self, "empty", _frozen_array(empty, dtype=bool))

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def m(self) -> int:
        return self.a.shape[1]


@dataclass(frozen=True)
class Assignment:
    """Soft cluster memberships, one column per streamline (m×n)."""

    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.float64)
        if w.ndim != 2:
            raise ValueError(f"assignment must be 2-D, got shape {w.shape}")
        if not np.isfinite(w).all():
            raise ValueError("assignment contains non-finite entries")
        object.__setattr__(self, "w", _frozen_array(w))

    @property
    def m(self) -> int:
        return self.w.shape[0]

    @property
    def n(self) -> int:
        return self.w.shape[1]


@dataclass(frozen=True)
class FitResult:
    """Everything a solver run produced."""

    dictionary: Dictionary
    assignment: Assignment
    labels: Labeling
    unassigned: np.ndarray
    cost_trace: tuple
    primal_residual_trace: tuple
    iterations: int
    converged: bool

    def __post_init__(self):
        object.__setattr__(
            self, "unassigned", _frozen_array(self.unassigned, dtype=bool)
        )


def _fit_result(dictionary, w, cost_trace, primal_trace, iterations, converged):
    """Package a finished fit; labels and the unassigned mask come from W."""
    labels, unassigned = hard_labels(w, exclude=dictionary.empty)
    return FitResult(
        dictionary=dictionary,
        assignment=Assignment(w),
        labels=labels,
        unassigned=unassigned,
        cost_trace=tuple(cost_trace),
        primal_residual_trace=tuple(primal_trace),
        iterations=iterations,
        converged=converged,
    )


def _settled(prev, cost, tol=_OUTER_COST_TOL) -> bool:
    """Whether cost moved by at most tol relative to prev (never without prev)."""
    return prev is not None and abs(prev - cost) <= tol * max(abs(prev), 1e-30)


def _as_a(a) -> np.ndarray:
    return a.a if isinstance(a, Dictionary) else np.asarray(a, dtype=np.float64)


def _as_w(w) -> np.ndarray:
    return w.w if isinstance(w, Assignment) else np.asarray(w, dtype=np.float64)


def _empty_flags(a, m: int) -> np.ndarray:
    if isinstance(a, Dictionary):
        return np.asarray(a.empty)
    return np.zeros(m, dtype=bool)


class _KernelRows:
    """The rows K[S, :] of a kernel, for the non-zero rows S of a dictionary A.

    Zero rows of A stay zero under every update here, so products with A
    need only K[S, :]: dense rows, or the factor rows G[S] of a factored
    kernel, which stays factored. ``sel`` indexes S. When S holds more than
    half the rows the restriction would save less than half the work and
    copy most of K, so ``sel`` takes every row and K is used as it is, with
    no n×n temporary.
    """

    def __init__(self, k: KernelMatrix, a: np.ndarray):
        rows = np.flatnonzero(np.any(a != 0.0, axis=1))
        self.sel = slice(None) if 2 * rows.size > a.shape[0] else rows
        if k.is_factored:
            self.g = k.factor
            self.gs = k.factor[self.sel]
        else:
            self.g = None
            self.ks = k.dense_values[self.sel]
            self.kss = self.ks[:, self.sel]

    def atk_atka(self, a_s: np.ndarray):
        """AᵀK (m×n) and AᵀKA (m×m, symmetrized) from the rows A[S]."""
        if self.g is not None:
            ag = a_s.T @ self.gs
            atk = ag @ self.g.T
            atka = ag @ ag.T
        else:
            atk = a_s.T @ self.ks
            atka = atk[:, self.sel] @ a_s
        return atk, (atka + atka.T) / 2.0

    def rows_matmul(self, x: np.ndarray) -> np.ndarray:
        """K[S, :] @ x for x with n rows."""
        if self.g is not None:
            return self.gs @ (self.g.T @ x)
        return self.ks @ x

    def block_matmul(self, x: np.ndarray) -> np.ndarray:
        """K[S, S] @ x for x with |S| rows."""
        if self.g is not None:
            return self.gs @ (self.gs.T @ x)
        return self.kss @ x


def _atk_atka(k: KernelMatrix, a: np.ndarray):
    """AᵀK (m×n) and AᵀKA (m×m, symmetrized) for either kernel form.

    Only A's non-zero rows S enter: AᵀK = A[S]ᵀ·K[S, :] and
    AᵀKA = AᵀK[:, S]·A[S], so the cost is O(|S|·n·m) rather than O(n²·m),
    with no n×n temporary (see `_KernelRows`).
    """
    kr = _KernelRows(k, a)
    return kr.atk_atka(a[kr.sel])


def _cost(k_trace: float, atk: np.ndarray, atka: np.ndarray, w: np.ndarray) -> float:
    return float(k_trace - 2.0 * np.sum(atk * w) + np.sum((atka @ w) * w))


def reconstruction_cost(k: KernelMatrix, a, w) -> float:
    """Feature-space fit cost tr(K) − 2·tr(WᵀAᵀK) + tr(WᵀAᵀKAW)."""
    atk, atka = _atk_atka(k, _as_a(a))
    return _cost(k.trace(), atk, atka, _as_w(w))


# --- initialization --------------------------------------------------------

def spectral_embedding(k: KernelMatrix, n_eig: int = 10) -> np.ndarray:
    """Row-normalized eigenvectors of the normalized kernel Laplacian.

    Uses the n_eig smallest eigenvalues of I − D^{−1/2}·K·D^{−1/2}. Only
    those min(n_eig, n) eigenpairs are computed, not the full spectrum
    (`sym_eig`: Lanczos for large n, LAPACK's subset driver below). Lanczos
    runs on the operator x ↦ x − s∘(K·(s∘x)) with s = D^{−1/2}, so no n×n
    Laplacian is formed, and a factored kernel takes K·y as G·(Gᵀy) and its
    degrees as G·(Gᵀ1) without forming K either. LAPACK gets the Laplacian
    as a dense matrix. Each vector is determined up to sign, and a
    near-degenerate group of them only up to a rotation. k-means on the
    normalized rows sees neither, except where rounding decides an exact
    distance tie.
    """
    n = k.n
    count = min(n_eig, n)
    lanczos = _lanczos_applies(n, count)
    if k.is_factored and lanczos:
        g = k.factor

        def product(y):
            return g @ (g.T @ y)

        deg = product(np.ones(n))
    else:
        kd = k.dense()
        product = kd.__matmul__
        deg = kd.sum(axis=1)
    if np.any(deg <= 0.0):
        bad = int(np.argmin(deg))
        raise ZeroDegreeRow(f"kernel row {bad} sums to {deg[bad]}")
    inv_sqrt = 1.0 / np.sqrt(deg)
    if lanczos:
        def laplacian_times(x):
            x = x.reshape(n)
            return x - inv_sqrt * product(inv_sqrt * x)

        lap = LinearOperator((n, n), matvec=laplacian_times, dtype=np.float64)
    else:
        # One n×n buffer; each step is the float operation of the expression
        # (I − (D^{−1/2}·K)·D^{−1/2} + its transpose)/2, as 1 − x = (0 − x) + 1.
        lap = inv_sqrt[:, None] * kd
        lap *= inv_sqrt[None, :]
        np.subtract(0.0, lap, out=lap)
        np.fill_diagonal(lap, lap.diagonal() + 1.0)
        _symmetrize(lap)
    _, emb = sym_eig(lap, count=count)
    norms = np.linalg.norm(emb, axis=1)
    emb /= np.where(norms > 0, norms, 1.0)[:, None]
    return emb


def _kmeans_pp_centers(x: np.ndarray, m: int, rng) -> np.ndarray:
    n = x.shape[0]
    centers = np.empty((m, x.shape[1]))
    centers[0] = x[int(rng.integers(n))]
    d2 = ((x - centers[0]) ** 2).sum(axis=1)
    for c in range(1, m):
        total = d2.sum()
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(np.argmin(d2))
        centers[c] = x[idx]
        d2 = np.minimum(d2, ((x - centers[c]) ** 2).sum(axis=1))
    return centers


def _lloyd(x: np.ndarray, m: int, rng, max_iter: int = 100, tol: float = 1e-9):
    n = x.shape[0]
    centers = _kmeans_pp_centers(x, m, rng)
    labels = np.zeros(n, dtype=np.int64)
    prev_inertia = None
    for _ in range(max_iter):
        d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=-1)
        labels = np.argmin(d2, axis=1)
        inertia = float(d2[np.arange(n), labels].sum())
        assigned_d2 = d2[np.arange(n), labels]
        for j in range(m):
            mask = labels == j
            if mask.any():
                centers[j] = x[mask].mean(axis=0)
            else:
                centers[j] = x[int(np.argmax(assigned_d2))]
        if _settled(prev_inertia, inertia, tol):
            break
        prev_inertia = inertia
    return labels


def spectral_init(k: KernelMatrix, m: int, *, seed: int = 0) -> Labeling:
    """Spectral clustering of the kernel into m groups.

    Normalized-Laplacian embedding followed by seeded k-means. The
    embedding width is capped at m: for small m the higher Laplacian modes
    carry within-cluster detail that, once row-normalized, swamps the
    cluster indicators. Fixed seeds give identical labels.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m == 1:
        return Labeling(np.zeros(k.n, dtype=np.int64), m=1)
    emb = spectral_embedding(k, n_eig=min(_SPECTRAL_N_EIG, m))
    rng = np.random.default_rng(seed)
    labels = _lloyd(emb, min(m, k.n), rng)
    return Labeling(labels, m=m)


def random_selection_init(k: KernelMatrix, m: int, seed: int = 0) -> Dictionary:
    """Random selection-matrix dictionary: m distinct streamlines as atoms."""
    if not 1 <= m <= k.n:
        raise ValueError(f"m must be in [1, {k.n}]")
    rng = np.random.default_rng(seed)
    picks = rng.choice(k.n, size=m, replace=False)
    a = np.zeros((k.n, m))
    a[picks, np.arange(m)] = 1.0
    return Dictionary(a)


def _start_budget(k: KernelMatrix, cfg: SolverConfig, init, sweeps: int) -> int:
    """A fit's sweep budget, once its start is checked against k and cfg.

    ``init``, a Labeling or a Dictionary, must have cfg.m clusters over k.n
    streamlines. The budget is cfg.t_outer, or ``sweeps`` when that is None.
    """
    if init.m != cfg.m:
        raise ValueError(f"init has m={init.m}, config wants m={cfg.m}")
    size = init.n if isinstance(init, Dictionary) else len(init)
    if size != k.n:
        raise ValueError(f"init covers {size} streamlines, the kernel {k.n}")
    return cfg.t_outer if cfg.t_outer is not None else sweeps


def _init_dictionary(init, k: KernelMatrix) -> Dictionary:
    return init if isinstance(init, Dictionary) else init_dictionary_from_labels(init, k)


def init_dictionary_from_labels(labels: Labeling, k: KernelMatrix) -> Dictionary:
    """Selection matrix picking each cluster's kernel-space medoid.

    The medoid of a cluster minimizes the summed squared feature-space
    distance to co-members, which needs only kernel entries. Ties go to the
    lowest streamline index. A dense kernel's K[C, C] row sums are taken one
    strip of rows at a time, each row its own reduction, and a factored
    kernel's are gᵢᵀ·Σⱼgⱼ over the rows G[C], so no |C|×|C| array is held.
    """
    lab = np.asarray(labels.labels)
    if lab.size != k.n:
        raise ValueError(f"{lab.size} labels for {k.n} streamlines")
    a = np.zeros((k.n, labels.m))
    for j in range(labels.m):
        members = np.flatnonzero(lab == j)
        if members.size == 0:
            raise EmptyCluster(f"cluster {j} has no members")
        if k.is_factored:
            g = k.factor[members]
            diag, sums = np.einsum("ij,ij->i", g, g), g @ g.sum(axis=0)
        else:
            kd = k.dense_values
            diag = kd[members, members]
            sums = np.concatenate([
                kd[np.ix_(members[i:e], members)].sum(axis=1)
                for i, e in _row_strips(members.size)
            ])
        score = members.size * diag - 2.0 * sums
        a[members[int(np.argmin(score))], j] = 1.0
    return Dictionary(a)


# --- kernel k-means --------------------------------------------------------

def kkm_assign(k: KernelMatrix, a) -> np.ndarray:
    """Nearest-prototype labels: argmin_j [AᵀKA]_jj − 2·[Aᵀk_i]_j."""
    atk, atka = _atk_atka(k, _as_a(a))
    scores = np.diagonal(atka)[:, None] - 2.0 * atk
    return np.argmin(scores, axis=0)


def kkm_dictionary(w, ridge: float = 1e-8) -> Dictionary:
    """Least-squares prototypes A = Wᵀ·(WWᵀ + ridge·I)^{−1} for fixed W."""
    wmat = _as_w(w)
    sol = ridge_solve(wmat @ wmat.T, wmat, ridge=ridge)
    return Dictionary(sol.T)


def _one_hot(labels: np.ndarray, m: int) -> np.ndarray:
    w = np.zeros((m, labels.size))
    w[labels, np.arange(labels.size)] = 1.0
    return w


def _reseed_empty(labels, scores, kdiag, m):
    """Hand each memberless prototype the worst-reconstructed streamline."""
    counts = np.bincount(labels, minlength=m)
    if counts.min() > 0:
        return labels
    labels = labels.copy()
    err = kdiag + scores[labels, np.arange(labels.size)]
    taken = np.zeros(labels.size, dtype=bool)
    for j in np.flatnonzero(counts == 0):
        masked = np.where(taken, -np.inf, err)
        i_star = int(np.argmax(masked))
        labels[i_star] = j
        taken[i_star] = True
    return labels


def kkm_fit(k: KernelMatrix, cfg: SolverConfig, init: Labeling | Dictionary) -> FitResult:
    """Kernel k-means: alternate nearest-prototype labels and mean prototypes.

    ``init`` may be a labeling or a dictionary, whose nearest-prototype
    labels (`kkm_assign`) start the fit. Stops as soon as a sweep leaves
    the labels unchanged. Prototypes that lose all members are re-seeded
    with the currently worst-reconstructed streamline.
    """
    t_outer = _start_budget(k, cfg, init, _KKM_SWEEPS)
    m = cfg.m
    labels = kkm_assign(k, init) if isinstance(init, Dictionary) else init.labels
    w = _one_hot(labels, m)
    a = kkm_dictionary(w)
    atk, atka = _atk_atka(k, a.a)
    kdiag = k.diagonal()
    k_trace = float(kdiag.sum())
    trace = [_cost(k_trace, atk, atka, w)]
    converged = False
    for iterations in range(1, t_outer + 1):
        scores = np.diagonal(atka)[:, None] - 2.0 * atk
        new_labels = np.argmin(scores, axis=0)
        new_labels = _reseed_empty(new_labels, scores, kdiag, m)
        if np.array_equal(new_labels, labels):
            converged = True
            break
        labels = new_labels
        w = _one_hot(labels, m)
        a = kkm_dictionary(w)
        # the next sweep assigns against this A, so AᵀK and AᵀKA serve both
        atk, atka = _atk_atka(k, a.a)
        trace.append(_cost(k_trace, atk, atka, w))
    return _fit_result(a, w, trace, (), iterations, converged)


# --- sparse coding ---------------------------------------------------------

def _pursuit(atk, atka, s_max, excluded):
    """Greedy non-negative pursuit for every column of atk at once.

    Returns W (atoms × columns) with at most s_max non-zeros per column.
    Each step adds, per column, the remaining usable atom with the largest
    positive residual correlation per unit self-similarity (a column stops
    when none is positive) and refits its selected weights by non-negative
    least squares (`_refit`). Each column gets the products and solves it
    would get on its own, batched, so W is bitwise the same whichever
    columns run together.
    """
    diag = np.diagonal(atka)
    usable = ~np.asarray(excluded, dtype=bool)
    if atk.shape[1] and np.any(diag[usable] <= 0.0):
        bad = int(np.flatnonzero(usable & (diag <= 0.0))[0])
        raise DegenerateAtom(f"atom {bad} has self-similarity {diag[bad]}")
    safe_diag = np.where(diag > 0.0, diag, 1.0)[:, None]
    w = np.zeros(atk.shape)
    cols = np.arange(atk.shape[1])  # columns still adding atoms
    sel = np.zeros((0, cols.size), dtype=np.intp)  # their atoms, in selection order
    for _ in range(s_max):
        resid = atk[:, cols]
        if sel.size:
            # per column the column-major block atka[:, selected], as one
            # column alone would slice it, so BLAS sums the terms the same way
            blocks = atka.T[sel.T].transpose(0, 2, 1)
            weights = np.ascontiguousarray(w[sel, cols].T)[:, :, None]
            resid = resid - np.matmul(blocks, weights)[:, :, 0].T
        tau = np.where(usable[:, None], resid / safe_diag, -np.inf)
        span = np.arange(cols.size)
        tau[sel, span] = -np.inf
        j = np.argmax(tau, axis=0)
        grow = tau[j, span] > 0.0
        cols, sel = cols[grow], np.vstack([sel[:, grow], j[grow]])
        if not cols.size:
            break
        w[:, cols] = 0.0
        w[sel, cols] = _refit(atka, atk[sel, cols], sel)
    return w


def _refit(atka, rhs, sel):
    """Non-negative least squares over each column's selected atoms.

    Column i minimizes xᵀGx − 2·bᵀx over x ≥ 0, with G = atka[sᵢ, sᵢ] for
    the atoms sᵢ = sel[:, i] and b = rhs[:, i]; returns x as sel's shape.
    All columns follow Lawson–Hanson's path together while it stays
    clean: add the coordinate with the largest gradient, stop once that
    gradient is <= tol, otherwise solve over the passive set. Columns that
    share a passive set share its Gram and are solved in one call. A column
    whose solve is singular, non-finite or has an entry <= 0 would take the
    drop path; it is solved again from the start by `nnls`, so every
    column gets exactly what `nnls` gives it.
    """
    atoms = sel.T
    b = np.ascontiguousarray(rhs.T)
    gram = atka[atoms[:, :, None], atoms[:, None, :]]
    tol = 1e-12 * np.maximum(1.0, np.abs(b).max(axis=1))
    x = np.zeros(b.shape)
    passive = np.zeros(b.shape, dtype=bool)
    drop = np.zeros(len(b), dtype=bool)
    todo = np.arange(len(b))
    while todo.size:
        # gram @ x per column, the product nnls forms
        grad = b[todo] - np.matmul(gram[todo], x[todo][:, :, None])[:, :, 0]
        grad[passive[todo]] = -np.inf
        j = np.argmax(grad, axis=1)
        grow = grad[np.arange(todo.size), j] > tol[todo]
        todo = todo[grow]
        passive[todo, j[grow]] = True
        keys, group = np.unique(
            np.where(passive[todo], atoms[todo], -1), axis=0, return_inverse=True
        )
        group = group.ravel()
        for g, key in enumerate(keys):
            rows = todo[group == g]
            on = np.flatnonzero(key >= 0)
            try:
                z = np.linalg.solve(
                    atka[np.ix_(key[on], key[on])], b[rows][:, on, None]
                )[:, :, 0]
            except np.linalg.LinAlgError:
                drop[rows] = True
                continue
            clean = np.isfinite(z).all(axis=1) & (z > 0.0).all(axis=1)
            drop[rows[~clean]] = True
            x[rows[clean][:, None], on] = z[clean]
        todo = todo[~drop[todo]]
    for i in np.flatnonzero(drop):
        x[i] = nnls(gram[i], b[i])
    return x.T


def nnkomp(k: KernelMatrix, a, i: int, s_max: int) -> np.ndarray:
    """Greedy non-negative pursuit of one streamline's soft memberships.

    At most s_max atoms are selected; each step adds the most positively
    correlated remaining atom (stopping early when none is positive) and
    refits all selected weights by non-negative least squares. This is
    `_pursuit` on the one column i.
    """
    if s_max < 1:
        raise ValueError("s_max must be >= 1")
    amat = _as_a(a)
    atk, atka = _atk_atka(k, amat)
    excluded = _empty_flags(a, amat.shape[1])
    return _pursuit(atk[:, i : i + 1], atka, s_max, excluded)[:, 0]


def mult_update_A(
    k: KernelMatrix, w, a, inner_tol: float = 1e-6, max_inner: int = 50
) -> Dictionary:
    """Multiplicative dictionary refinement for fixed non-negative W.

    a_ij ← a_ij·[KWᵀ]_ij/[KAWWᵀ]_ij, iterated until the relative cost
    change drops below inner_tol. Zero entries are fixed points and stay
    zero; the denominator carries a 1e-12 guard. So only A's non-zero rows
    S are updated: K[S, :] is taken once per call, and each step costs
    O(|S|·n·m) through K[S, :]·Wᵀ, K[S, S]·(A[S]·WWᵀ) and the cost's
    restricted AᵀK, with no n×n temporary (see `_atk_atka`).
    """
    wmat = _as_w(w)
    amat = _as_a(a).copy()
    kr = _KernelRows(k, amat)
    a_s = amat[kr.sel]
    kwt = kr.rows_matmul(wmat.T)
    wwt = wmat @ wmat.T
    k_trace = k.trace()
    cost = _cost(k_trace, *kr.atk_atka(a_s), wmat)
    for _ in range(max_inner):
        denom = kr.block_matmul(a_s @ wwt) + 1e-12
        a_s = a_s * kwt / denom
        new_cost = _cost(k_trace, *kr.atk_atka(a_s), wmat)
        done = _settled(cost, new_cost, inner_tol)
        cost = new_cost
        if done:
            break
    amat[kr.sel] = a_s
    return Dictionary(amat, _empty_flags(a, amat.shape[1]))


def prune_dictionary(a, threshold_rel: float = _PRUNE_REL) -> Dictionary:
    """Zero out entries below threshold_rel of their column max.

    Columns left without any entry are flagged empty (and stay flagged).
    """
    amat = _as_a(a).copy()
    colmax = np.abs(amat).max(axis=0) if amat.size else np.zeros(amat.shape[1])
    amat[np.abs(amat) < threshold_rel * colmax[None, :]] = 0.0
    empty = _empty_flags(a, amat.shape[1]) | (colmax == 0.0)
    return Dictionary(amat, empty)


def hard_labels(w, exclude=None):
    """Argmax cluster per column; ties go to the lowest index.

    Columns without a positive score get placeholder label 0 and are marked
    in the returned boolean mask instead.
    """
    mat = _as_w(w)
    m, n = mat.shape
    scores = mat.copy()
    if exclude is not None and np.any(exclude):
        scores[np.asarray(exclude, dtype=bool)] = -np.inf
    labels = np.argmax(scores, axis=0)
    best = scores[labels, np.arange(n)]
    unassigned = ~(best > 0.0)
    labels = np.where(unassigned, 0, labels).astype(np.int64)
    return Labeling(labels, m=m), unassigned


def ksc_fit(k: KernelMatrix, cfg: SolverConfig, init: Labeling | Dictionary) -> FitResult:
    """Sparsity-capped soft clustering: pursuit for W, multiplicative A.

    Each sweep rewrites every column of W with at most s_max non-zero
    memberships, then refines and prunes the dictionary. Stops early once
    hard labels repeat. ``init`` may be a labeling (whose per-cluster
    medoids seed the dictionary) or a ready-made selection dictionary.
    """
    t_outer = _start_budget(k, cfg, init, _KSC_SWEEPS)
    a = _init_dictionary(init, k)
    trace = []
    prev_labels = None
    converged = False
    k_trace = k.trace()
    atk, atka = _atk_atka(k, a.a)
    for iterations in range(1, t_outer + 1):
        w = _pursuit(atk, atka, cfg.s_max, a.empty)
        a = prune_dictionary(mult_update_A(k, w, a))
        atk, atka = _atk_atka(k, a.a)
        trace.append(_cost(k_trace, atk, atka, w))
        labels = hard_labels(w, exclude=a.empty)[0].labels
        if prev_labels is not None and np.array_equal(labels, prev_labels):
            converged = True
            break
        prev_labels = labels
    return _fit_result(a, w, trace, (), iterations, converged)


# --- ADMM variants ---------------------------------------------------------

def shrink_l1(x: np.ndarray, tau: float) -> np.ndarray:
    """Non-negative soft threshold: max(x − τ, 0) elementwise."""
    if tau < 0:
        raise ValueError("tau must be non-negative")
    return np.maximum(x - tau, 0.0)


def default_lambda2(mu: float, n: int, m: int) -> float:
    """Scale-aware group-sparsity weight C·μ·√(n/m), with C = 50/3.

    The group prior keeps a dictionary row while the row holds at least
    2·λ2·√(m/n) of its members' explained energy (see :func:`gksc_fit`).
    The √(n/m) factor makes that bar independent of the data size, and C
    puts it at 2·C·μ, one third at the default μ = 0.01. One third lies in
    the gap measured on the synthetic presets from spectral starts at m and
    2m (README, "Known limitation"): the rows retired there held at most
    0.30 of their members' energy, and the weakest distinct bundle kept
    held 0.36.
    """
    return _LAMBDA2_COEFF * mu * float(np.sqrt(n / m))


# default Laplacian smoothing weight: puts lambda_l times a typical graph
# degree on the same order as the kernel diagonal, enough to flip weakly
# supported assignments without washing out the data term
DEFAULT_LAMBDA_L = 0.01


def _laplacian_blocks(laplacian, lambda_l: float, n: int):
    """Q = λ_L·L split over the endpoint graph's connected components.

    Q is block diagonal over the components, so its Sylvester solve splits
    into one solve per block. Returns (columns, Q block, its Schur form)
    per component. Isolated streamlines (a zero row of L) get no block:
    their columns of Q are zero, so the W-step there is P⁻¹·R.
    """
    # imported here: at module level csgraph adds about 1 MiB to every process
    import scipy.sparse.csgraph

    lap = np.asarray(laplacian, dtype=np.float64)
    if lap.shape != (n, n):
        raise ValueError(f"laplacian must be ({n}, {n}), got {lap.shape}")
    rows, cols = np.nonzero(lap)
    graph = scipy.sparse.coo_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
    count, comp = scipy.sparse.csgraph.connected_components(graph, directed=False)
    linked = np.bincount(rows, minlength=n) > 0
    order = np.argsort(comp, kind="stable")
    bounds = np.cumsum(np.bincount(comp, minlength=count))[:-1]
    blocks = []
    for idx in np.split(order, bounds):
        if linked[idx[0]]:
            q = lambda_l * lap[np.ix_(idx, idx)]
            blocks.append((idx, q, schur_form(q)))
    return blocks


def _w_solver(atka: np.ndarray, mu: float, blocks):
    """R ↦ W with P·W + W·Q = R, P = AᵀKA + μI, Q given by its blocks.

    P⁻¹ (`ridge_solver`) solves every column, then each block's columns are
    overwritten by their Sylvester solve. With no blocks this is P⁻¹ alone.
    """
    inverse = ridge_solver(atka, mu)
    if not blocks:
        return inverse
    p = atka + mu * np.eye(atka.shape[0])

    def solve(r: np.ndarray) -> np.ndarray:
        w = inverse(r)
        for idx, q, sq in blocks:
            w[:, idx] = sylvester_solve(p, q, r[:, idx], schur_q=sq)
        return w

    return solve


def _admm_w_step(solve, atk, mu, lam1_over_mu, cfg: SolverConfig, rms):
    """Inner ADMM for W under the L1 term, started from Z = U = 0.

    ``solve`` maps a right-hand side to the W-update; it is built once per
    W-step, so any factorization it holds serves every inner step. Returns
    the feasible iterate Z (``shrink_l1`` output, so non-negative), the last
    RMS primal residual, and whether it fell below eps_primal in t_inner steps.
    """
    z = np.zeros_like(atk)
    u = np.zeros_like(atk)
    primal = np.inf
    for _ in range(cfg.t_inner):
        w = solve(atk + mu * (z - u))
        z = shrink_l1(w + u, lam1_over_mu)
        u = u + (w - z)
        primal = float(np.linalg.norm(w - z)) / rms
        if primal < cfg.eps_primal:
            return z, primal, True
    return z, primal, False


def _unit_atoms(k: KernelMatrix, a: np.ndarray):
    """A with every column scaled to unit feature norm, plus AᵀK and AᵀKA.

    A column without feature norm comes back as zero.
    """
    atk, atka = _atk_atka(k, a)
    norm = np.sqrt(np.maximum(np.diagonal(atka), 0.0))
    scale = np.divide(1.0, norm, out=np.zeros_like(norm), where=norm > 0.0)
    return a * scale, atk * scale[:, None], atka * np.outer(scale, scale)


def _mean_atoms(k: KernelMatrix, labels: np.ndarray, live: np.ndarray, prev=None):
    """Unit-norm mean of each live row's members (labels of −1 belong to none).

    A live row without members keeps its atom from ``prev``; with no
    previous atom that is an EmptyCluster.
    """
    a = (labels[:, None] == np.arange(live.size)).astype(np.float64)
    a[:, ~live] = 0.0
    idle = live & ~a.any(axis=0)
    if idle.any():
        if prev is None:
            raise EmptyCluster(f"cluster {int(np.argmax(idle))} has no members")
        a[:, idle] = prev[:, idle]
    return _unit_atoms(k, a)


def _row_values(atk: np.ndarray, labels: np.ndarray, live: np.ndarray) -> np.ndarray:
    """Share of its members' explained energy each live row would lose.

    With unit atoms, streamline i holds energy max(aⱼᵀkᵢ, 0)² along atom j.
    A member's loss is how far its own row's energy exceeds that along its
    best other live atom, so a row no other atom explains is worth 1 and an
    exact duplicate 0. Rows without members are worth 0; dead rows +inf.
    """
    m, n = atk.shape
    energy = np.where(live[:, None], np.maximum(atk, 0.0) ** 2, 0.0)
    best = np.argmax(energy, axis=0)
    others = energy.copy()
    others[best, np.arange(n)] = 0.0
    runner_up = others.max(axis=0)
    col = np.flatnonzero(labels >= 0)
    lab = labels[col]
    own = energy[lab, col]
    other = np.where(best[col] == lab, runner_up[col], energy[best[col], col])
    held = np.bincount(lab, weights=own, minlength=m)
    lost = np.bincount(lab, weights=np.maximum(own - other, 0.0), minlength=m)
    value = np.divide(lost, held, out=np.zeros(m), where=held > 0.0)
    return np.where(live, value, np.inf)


def _label_vector(z: np.ndarray, live: np.ndarray) -> np.ndarray:
    labeling, unassigned = hard_labels(z, exclude=~live)
    return np.where(unassigned, -1, labeling.labels)


def _group_fit(k: KernelMatrix, cfg: SolverConfig, init, lam2, t_outer) -> FitResult:
    """gksc_fit under the row-group prior; see its docstring."""
    n, m, mu = k.n, cfg.m, cfg.mu
    bar = 2.0 * lam2 * np.sqrt(m / n)
    lam1_over_mu = cfg.lambda1 / mu
    k_trace = k.trace()
    rms = np.sqrt(m * n)
    live = ~_empty_flags(init, m)
    if isinstance(init, Dictionary):
        a, atk, atka = _unit_atoms(k, init.a)
        labels = None
    else:
        labels = np.asarray(init.labels)
        a, atk, atka = _mean_atoms(k, labels, live)

    def fit_w():
        idx = np.flatnonzero(live)
        solve = ridge_solver(atka[np.ix_(idx, idx)], mu)
        z = np.zeros((m, n))
        z[idx], primal, inner_ok = _admm_w_step(
            solve, atk[idx], mu, lam1_over_mu, cfg, rms
        )
        return z, primal, inner_ok

    cost_trace = []
    primal_trace = []
    prev_cost = None
    converged = False
    for iterations in range(1, t_outer + 1):
        if iterations > 1:
            a, atk, atka = _mean_atoms(k, labels, live, a)
        z, primal, inner_ok = fit_w()
        new_labels = _label_vector(z, live)
        moved = n if labels is None else int(np.count_nonzero(new_labels != labels))
        labels = new_labels
        retired = False
        if moved <= _SETTLED_SHARE * n:
            value = _row_values(atk, labels, live)
            j = int(np.argmin(value))
            if value[j] < bar:
                live[j] = False
                a[:, j] = 0.0
                retired = True
                if live.any():
                    # the freed members find their place before the next means
                    z, primal, inner_ok = fit_w()
                else:
                    z[j] = 0.0
                labels = _label_vector(z, live)
        cost = _cost(k_trace, atk, atka, z)
        cost_trace.append(cost)
        primal_trace.append(primal)
        if not live.any():
            converged = inner_ok
            break
        if not retired and (moved == 0 or (inner_ok and _settled(prev_cost, cost))):
            converged = inner_ok
            break
        prev_cost = cost
    return _fit_result(
        Dictionary(a, ~live), z, cost_trace, primal_trace, iterations, converged
    )


def gksc_fit(
    k: KernelMatrix,
    cfg: SolverConfig,
    init: Labeling | Dictionary,
    laplacian: np.ndarray | None = None,
) -> FitResult:
    """ADMM dictionary learning with L1 + group or Laplacian structure.

    Each outer sweep runs the inner ADMM for W from Z = U = 0 until the RMS
    primal residual ‖W−Z‖_F/√(mn) drops below eps_primal, then updates the
    dictionary. The returned assignment is the final Z. A run that stops on
    the sweep budget is returned with converged=False rather than raising.

    With a Laplacian, λ_L·tr(WLWᵀ) smooths memberships over the endpoint
    graph: the W-solve becomes the Sylvester equation P·W + W·Q = R with
    P = AᵀKA + μI and Q = λ_L·L. Q is block diagonal over the graph's
    connected components, so each component's block gets its Schur form
    once per fit and its columns are solved in the two eigenbases
    (`_laplacian_blocks`). Every other column has Q = 0 and takes P⁻¹·R,
    with P inverted once per W-step (`_w_solver`). With λ2 = 0 and no
    Laplacian the same loop runs with no blocks, the L1 term alone. A is
    refined multiplicatively on Z.

    Otherwise (λ2 > 0, the default) the group prior lets whole clusters
    dissolve. Atoms are the unit-norm means of the streamlines each row
    claims (the hard labels of Z), so they cover a bundle's spread and a
    row's weights have a fixed scale. Row j is priced by a weighted group
    norm λ2·ωⱼ·‖Wⱼ‖ with ωⱼ = √(m·Eⱼ/n), where Eⱼ is the energy its members
    hold along its atom: Yuan and Lin's group-size weight, with size
    measured in energy. Retiring the row saves about λ2·√(m/n)·Eⱼ and costs
    half the energy its members lose when they fall back on their best
    other atom, so a row is retired when it would lose less than
    2·λ2·√(m/n) of Eⱼ. A convex group norm cannot choose between two
    copies of one atom, so rows are retired one at a time, the cheapest
    first (the limit of reweighting the group norm), and only once at most
    1 in 200 labels moved in the sweep. W is then refit without the row,
    and the other rows are re-measured with the freed members in later
    sweeps. The W-step itself carries only the L1 term. The fit
    stops when no row is below the bar and a sweep leaves the labels
    unchanged or the cost stable; ``converged`` then reports whether the
    inner loop met eps_primal.
    """
    t_outer = _start_budget(k, cfg, init, _ADMM_SWEEPS)
    n, m, mu = k.n, cfg.m, cfg.mu
    if laplacian is not None:
        if cfg.lambda_l <= 0:
            raise ValueError("the Laplacian variant requires lambda_l > 0")
        blocks = _laplacian_blocks(laplacian, cfg.lambda_l, n)
    else:
        lam2 = cfg.lambda2 if cfg.lambda2 is not None else default_lambda2(mu, n, m)
        if lam2 > 0.0:
            return _group_fit(k, cfg, init, lam2, t_outer)
        blocks = []
    lam1_over_mu = cfg.lambda1 / mu

    a = _init_dictionary(init, k)
    cost_trace = []
    primal_trace = []
    prev_cost = None
    converged = False
    rms = np.sqrt(m * n)
    k_trace = k.trace()
    atk, atka = _atk_atka(k, a.a)
    for iterations in range(1, t_outer + 1):
        solve = _w_solver(atka, mu, blocks)
        z, primal, inner_ok = _admm_w_step(solve, atk, mu, lam1_over_mu, cfg, rms)
        a = prune_dictionary(mult_update_A(k, z, a))
        atk, atka = _atk_atka(k, a.a)
        cost = _cost(k_trace, atk, atka, z)
        cost_trace.append(cost)
        primal_trace.append(primal)
        if inner_ok and _settled(prev_cost, cost):
            converged = True
            break
        prev_cost = cost
    return _fit_result(a, z, cost_trace, primal_trace, iterations, converged)


def segment_with_dictionary(
    k_train: KernelMatrix, a, cross_kernel: np.ndarray, s_max: int
):
    """Assign held-out streamlines against a trained dictionary.

    cross_kernel holds one column per new streamline: its unshifted kernel
    values against every training streamline. Returns (Assignment, Labeling,
    unassigned mask).
    """
    amat = _as_a(a)
    if cross_kernel.shape[0] != amat.shape[0]:
        raise ValueError(
            f"cross kernel has {cross_kernel.shape[0]} rows for "
            f"{amat.shape[0]} training streamlines"
        )
    _, atka = _atk_atka(k_train, amat)
    atk_new = amat.T @ cross_kernel
    excluded = _empty_flags(a, amat.shape[1])
    w = _pursuit(atk_new, atka, s_max, excluded)
    labeling, unassigned = hard_labels(w, exclude=excluded)
    return Assignment(w), labeling, unassigned
