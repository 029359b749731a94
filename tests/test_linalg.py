from itertools import combinations

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from tractsparse import linalg, synth
from tractsparse.distances import pairwise_distances
from tractsparse.errors import EigenFailure, SingularAfterRidge, SingularPencil
from tractsparse.linalg import (
    nnls,
    ridge_solve,
    ridge_solver,
    schur_form,
    sylvester_solve,
    sym_eig,
)
from tractsparse.kernel import rbf_kernel, select_gamma


@pytest.mark.parametrize("n", [2, 7, 600])
def test_blockwise_symmetry_check_and_symmetrize_match_whole_matrix(n):
    rng = np.random.default_rng(n)
    a = rng.normal(size=(n, n))
    want = (a + a.T) / 2.0
    got = a.copy()
    linalg._symmetrize(got)
    assert np.array_equal(got, want)
    assert linalg._symmetric_within(want, 1e-12)
    scale = max(1.0, np.abs(want).max())
    for delta, ok in ((0.5e-12, True), (2e-12, False)):
        bent = want.copy()
        bent[n - 1, 0] += delta * scale
        assert linalg._symmetric_within(bent, 1e-12) is ok


def brute_force_nnls(gram, rhs):
    """Enumerate every active set, keep feasible stationary points."""
    s = rhs.size
    best_w = np.zeros(s)
    best_f = 0.0
    for k in range(1, s + 1):
        for subset in combinations(range(s), k):
            idx = list(subset)
            sub = gram[np.ix_(idx, idx)]
            try:
                z = np.linalg.solve(sub, rhs[idx])
            except np.linalg.LinAlgError:
                continue
            if z.min() < -1e-12:
                continue
            w = np.zeros(s)
            w[idx] = np.maximum(z, 0.0)
            f = w @ gram @ w - 2.0 * rhs @ w
            if f < best_f - 1e-15:
                best_f = f
                best_w = w
    return best_w, best_f


# --- sym_eig ---------------------------------------------------------------

def test_sym_eig_identity():
    w, v = sym_eig(np.eye(3))
    assert np.allclose(w, [1, 1, 1])
    assert np.allclose(v @ v.T, np.eye(3), atol=1e-12)


def test_sym_eig_diagonal():
    w, v = sym_eig(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(w, [1, 2, 3])
    assert np.allclose(np.abs(v), np.eye(3)[:, [1, 2, 0]], atol=1e-12)


def test_sym_eig_residual_random():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(50, 50))
    a = (a + a.T) / 2
    w, v = sym_eig(a)
    norm = np.linalg.norm(a)
    assert np.linalg.norm(a @ v - v * w) <= 1e-8 * norm
    assert np.all(np.diff(w) >= 0)
    assert np.allclose(v.T @ v, np.eye(50), atol=1e-10)


def test_sym_eig_rejects_asymmetric():
    with pytest.raises(ValueError):
        sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_sym_eig_many_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(2, 65))
        a = rng.normal(size=(n, n))
        a = a + a.T
        w, v = sym_eig(a)
        assert np.linalg.norm(a @ v - v * w) <= 1e-8 * max(1.0, np.linalg.norm(a))


def test_sym_eig_count_matches_full_low_end():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(2, 65))
        a = rng.normal(size=(n, n))
        a = a + a.T
        k = int(rng.integers(1, n + 1))
        w_full, v_full = sym_eig(a)
        w, v = sym_eig(a, count=k)
        assert w.shape == (k,) and v.shape == (n, k)
        np.testing.assert_allclose(w, w_full[:k], rtol=1e-10,
                                   atol=1e-10 * np.abs(w_full).max())
        # eigenvectors agree up to sign
        signs = np.sign(np.sum(v * v_full[:, :k], axis=0))
        np.testing.assert_allclose(v * signs, v_full[:, :k], atol=1e-8)


# --- sym_eig: the Lanczos path ------------------------------------------------

def low_end_separated(n, seed):
    """Symmetric n×n matrix with eigenvalues −10, −9, …, −1 below a bulk in [0, 1]."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    lam = np.concatenate([np.arange(-10.0, 0.0), rng.uniform(0.0, 1.0, n - 10)])
    a = (q * lam) @ q.T
    return (a + a.T) / 2


def refuse(*args, **kwargs):
    raise AssertionError("this eigensolver must not run here")


@pytest.mark.parametrize("count", [1, 5, 10])
def test_sym_eig_lanczos_matches_lapack_subset(monkeypatch, count):
    a = low_end_separated(linalg._LANCZOS_MIN_N, seed=count)
    w_ref, v_ref = scipy.linalg.eigh(a, subset_by_index=[0, count - 1])
    monkeypatch.setattr(scipy.linalg, "eigh", refuse)
    w, v = sym_eig(a, count=count)
    np.testing.assert_allclose(w, w_ref, rtol=1e-10)
    signs = np.sign(np.sum(v * v_ref, axis=0))
    np.testing.assert_allclose(v * signs, v_ref, atol=1e-8)


def test_sym_eig_full_and_small_orders_stay_on_lapack(monkeypatch):
    n = linalg._LANCZOS_MIN_N
    a = low_end_separated(n, seed=0)
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", refuse)
    w, v = sym_eig(a)
    assert w.shape == (n,) and v.shape == (n, n)
    w, _ = sym_eig(a[:n - 1, :n - 1], count=1)
    assert w.shape == (1,)


def test_sym_eig_operator_gives_the_matrix_pairs():
    n = linalg._LANCZOS_MIN_N
    a = low_end_separated(n, seed=1)
    op = scipy.sparse.linalg.LinearOperator((n, n), matvec=lambda x: a @ x, dtype=float)
    w, v = sym_eig(op, count=5)
    w_ref, v_ref = sym_eig(a, count=5)
    np.testing.assert_allclose(w, w_ref, rtol=1e-10)
    signs = np.sign(np.sum(v * v_ref, axis=0))
    np.testing.assert_allclose(v * signs, v_ref, atol=1e-8)


def test_sym_eig_lanczos_failure_is_eigen_failure(monkeypatch):
    def stall(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence(
            "forced non-convergence", np.zeros(0), np.zeros((0, 0)))

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", stall)
    monkeypatch.setattr(scipy.linalg, "eigh", refuse)  # no LAPACK fallback
    with pytest.raises(EigenFailure, match="forced non-convergence"):
        sym_eig(low_end_separated(linalg._LANCZOS_MIN_N, seed=0), count=1)


def test_sym_eig_lanczos_repeats_its_bits_when_arpack_restarts():
    # On this kernel ARPACK asks for a fresh restart vector during the
    # one-pair solve; unseeded, each call drew a different one and λ_min
    # moved in its last bits from call to call.
    tract, _ = synth.preset_separated5(seed=7, total_count=2000)
    d = pairwise_distances(tract, "mcp")
    values = rbf_kernel(d, select_gamma(d)).dense_values
    w0, v0 = sym_eig(values, count=1)
    for _ in range(2):
        w, v = sym_eig(values, count=1)
        assert w.tobytes() == w0.tobytes()
        assert v.tobytes() == v0.tobytes()


# --- nnls ------------------------------------------------------------------

def test_nnls_separable():
    w = nnls(np.eye(2), np.array([1.0, -1.0]))
    assert np.allclose(w, [1.0, 0.0], atol=1e-12)


def test_nnls_all_negative_rhs():
    rng = np.random.default_rng(1)
    g = rng.normal(size=(4, 4))
    g = g @ g.T + np.eye(4)
    assert np.array_equal(nnls(g, -np.abs(rng.normal(size=4)) - 0.1), np.zeros(4))


@pytest.mark.parametrize("s", [1, 2, 3])
def test_nnls_matches_exhaustive_enumeration(s):
    rng = np.random.default_rng(s)
    for _ in range(60):
        b = rng.normal(size=(s + 2, s))
        gram = b.T @ b + 0.05 * np.eye(s)
        rhs = rng.normal(size=s)
        w = nnls(gram, rhs)
        w_ref, f_ref = brute_force_nnls(gram, rhs)
        f = w @ gram @ w - 2 * rhs @ w
        assert f <= f_ref + 1e-9
        assert np.allclose(w, w_ref, atol=1e-6)


def test_nnls_kkt_conditions_larger():
    rng = np.random.default_rng(9)
    for _ in range(100):
        s = int(rng.integers(1, 9))
        b = rng.normal(size=(s + 3, s))
        gram = b.T @ b + 0.01 * np.eye(s)
        rhs = rng.normal(size=s)
        w = nnls(gram, rhs)
        grad = gram @ w - rhs
        assert w.min() >= 0.0
        assert np.abs(grad[w > 0]).max(initial=0.0) <= 1e-8
        assert grad[w == 0].min(initial=0.0) >= -1e-8


def test_nnls_shape_mismatch():
    with pytest.raises(ValueError):
        nnls(np.eye(3), np.ones(2))


# --- ridge_solve -----------------------------------------------------------

def test_ridge_solve_identity():
    b = np.arange(6.0).reshape(3, 2)
    assert np.allclose(ridge_solve(np.eye(3), b, ridge=0.0), b)


def test_ridge_solve_spd_exact():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(5, 5))
    a = a @ a.T + np.eye(5)
    b = rng.normal(size=(5, 3))
    x = ridge_solve(a, b, ridge=0.0)
    assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_ridge_solve_singular_with_ridge():
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    b = np.array([[1.0], [1.0]])
    x = ridge_solve(a, b, ridge=1e-8)
    assert np.isfinite(x).all()
    assert np.linalg.norm((a + 1e-8 * np.eye(2)) @ x - b) <= 1e-6 * np.linalg.norm(b)


def test_ridge_solve_indefinite_falls_back():
    a = np.diag([1.0, -1.0])
    b = np.array([[2.0], [3.0]])
    x = ridge_solve(a, b, ridge=0.0)
    assert np.allclose(x, [[2.0], [-3.0]])


def test_ridge_solve_hopeless_matrix():
    with pytest.raises(SingularAfterRidge):
        ridge_solve(np.zeros((3, 3)), np.ones((3, 1)), ridge=0.0)


def test_ridge_solve_random_instances():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(2, 40))
        a = rng.normal(size=(n, n))
        a = a @ a.T + 0.1 * np.eye(n)
        b = rng.normal(size=(n, 2))
        x = ridge_solve(a, b, ridge=1e-8)
        res = np.linalg.norm((a + 1e-8 * np.eye(n)) @ x - b)
        assert res <= 1e-8 * max(1.0, np.linalg.norm(b))


def test_ridge_solver_equals_ridge_solve_call_for_call():
    rng = np.random.default_rng(5)
    g = rng.normal(size=(6, 6))
    spd = g @ g.T + np.eye(6)
    indefinite = (g + g.T) / 2.0
    assert np.linalg.eigvalsh(indefinite)[0] < -1e-3  # takes the LDLᵀ path
    for a in (spd, indefinite):
        solve = ridge_solver(a, ridge=1e-3)
        for _ in range(3):
            b = rng.normal(size=(6, 4))
            assert np.array_equal(solve(b), ridge_solve(a, b, ridge=1e-3))


def test_ridge_solver_raises_where_ridge_solve_does():
    solve = ridge_solver(np.zeros((3, 3)), ridge=0.0)
    for _ in range(2):
        with pytest.raises(SingularAfterRidge):
            solve(np.ones((3, 1)))
    with pytest.raises(ValueError):
        ridge_solver(np.eye(3), ridge=-1.0)
    with pytest.raises(ValueError):
        ridge_solver(np.triu(np.ones((3, 3))))


def test_ridge_solver_call_runs_no_lapack_solve(monkeypatch):
    rng = np.random.default_rng(6)
    g = rng.normal(size=(5, 5))
    solve = ridge_solver(g @ g.T + np.eye(5), ridge=1e-3)

    def refuse(*args, **kwargs):
        raise AssertionError("a call ran a LAPACK solve")

    for name in ("cho_factor", "cho_solve", "solve", "lu_solve", "solve_triangular"):
        monkeypatch.setattr(scipy.linalg, name, refuse)
    b = rng.normal(size=(5, 30))
    x = solve(b)
    assert np.allclose((g @ g.T + (1.0 + 1e-3) * np.eye(5)) @ x, b, atol=1e-10)


# --- Schur form ------------------------------------------------------------

def test_schur_form_symmetric_is_diagonal():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(8, 8))
    a = a + a.T
    f = schur_form(a)
    recon = f.q @ np.diag(f.eigenvalues) @ f.q.T
    assert np.allclose(recon, a, atol=1e-10 * np.linalg.norm(a))
    assert np.allclose(f.q.T @ f.q, np.eye(8), atol=1e-10)


def test_schur_form_rejects_nonsymmetric():
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError):
        schur_form(rng.normal(size=(10, 10)))


# --- Sylvester -------------------------------------------------------------

def _random_spd(rng, n, shift=1.0):
    a = rng.normal(size=(n, n))
    return a @ a.T / n + shift * np.eye(n)


def test_sylvester_zero_q_reduces_to_linear_solve():
    rng = np.random.default_rng(6)
    p = _random_spd(rng, 6)
    r = rng.normal(size=(6, 4))
    w = sylvester_solve(p, np.zeros((4, 4)), r)
    assert np.allclose(w, np.linalg.solve(p, r), atol=1e-10)


def test_sylvester_scalar_matrices():
    r = np.arange(12.0).reshape(3, 4)
    w = sylvester_solve(2.0 * np.eye(3), 3.0 * np.eye(4), r)
    assert np.allclose(w, r / 5.0, atol=1e-12)


def test_sylvester_spd_psd_residual():
    rng = np.random.default_rng(7)
    p = _random_spd(rng, 8, shift=0.5)
    base = rng.normal(size=(12, 12))
    q = base @ base.T / 12  # PSD, possibly singular
    r = rng.normal(size=(8, 12))
    w = sylvester_solve(p, q, r)
    assert np.linalg.norm(p @ w + w @ q - r) <= 1e-8 * np.linalg.norm(r)


def test_sylvester_precomputed_schur_matches():
    rng = np.random.default_rng(8)
    p = _random_spd(rng, 5)
    q = _random_spd(rng, 9, shift=0.0)
    r = rng.normal(size=(5, 9))
    direct = sylvester_solve(p, q, r)
    cached = sylvester_solve(p, q, r, schur_q=schur_form(q))
    assert np.array_equal(direct, cached)


def test_sylvester_rejects_nonsymmetric_operands():
    rng = np.random.default_rng(9)
    p = _random_spd(rng, 4)
    q = _random_spd(rng, 6)
    r = rng.normal(size=(4, 6))
    p_skew = p + np.triu(np.ones((4, 4)), 1)
    q_skew = q + np.triu(np.ones((6, 6)), 1)
    with pytest.raises(ValueError):
        sylvester_solve(p_skew, q, r)
    with pytest.raises(ValueError):
        sylvester_solve(p, q_skew, r)


def test_sylvester_random_symmetric_instances():
    rng = np.random.default_rng(10)
    for _ in range(100):
        m = int(rng.integers(2, 20))
        n = int(rng.integers(2, 33))
        p = _random_spd(rng, m, shift=0.3)
        q0 = rng.normal(size=(n, n))
        q = q0 @ q0.T / n
        r = rng.normal(size=(m, n))
        w = sylvester_solve(p, q, r)
        assert np.linalg.norm(p @ w + w @ q - r) <= 1e-8 * max(
            1.0, np.linalg.norm(r)
        )


def test_sylvester_singular_pencil_detected():
    with pytest.raises(SingularPencil):
        sylvester_solve(np.eye(3), -np.eye(3), np.ones((3, 3)))
    with pytest.raises(SingularPencil):
        sylvester_solve(np.diag([1.0, 2.0]), np.diag([-2.0, -5.0]), np.ones((2, 2)))


def test_sylvester_dimension_mismatch():
    with pytest.raises(ValueError):
        sylvester_solve(np.eye(3), np.eye(4), np.ones((3, 3)))
