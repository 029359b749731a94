import math
import warnings

import numpy as np
import pytest

from footprint import random_distances, traced_peak
from tractsparse import Streamline, Tractogram, kernel, linalg, pairwise_distances
from tractsparse.distances import DistanceMatrix, cross_distances
from tractsparse.errors import AllZeroDistances, RankDeficientWarning
from tractsparse.kernel import (
    KernelMatrix,
    _kernel_in_distance_buffer,
    kernel_from_distances,
    nystrom_kernel,
    rbf_kernel,
    select_gamma,
    spectrum_shift,
)
from tractsparse.io import read_dm, write_dm
from tractsparse.linalg import _symmetric_within, sym_eig
from tractsparse.model import _adopt
from tractsparse.solvers import spectral_init
from tractsparse.synth import preset_separated5


def distance_matrix_from(values):
    values = np.asarray(values, dtype=np.float64)
    return DistanceMatrix(n=values.shape[0], values=values)


def random_tractogram(rng, n, n_pts=8, scale=30.0):
    return Tractogram(
        tuple(Streamline(rng.normal(scale=scale, size=(n_pts, 3))) for _ in range(n))
    )


# --- gamma selection -------------------------------------------------------

def test_select_gamma_constant_distances():
    d = distance_matrix_from(2.0 * (np.ones((3, 3)) - np.eye(3)))
    assert select_gamma(d) == 0.125


def test_select_gamma_scaling():
    rng = np.random.default_rng(0)
    a = np.abs(rng.normal(size=(6, 6))) + 0.5
    a = (a + a.T) / 2
    np.fill_diagonal(a, 0.0)
    g1 = select_gamma(distance_matrix_from(a))
    g2 = select_gamma(distance_matrix_from(4.0 * a))
    assert g2 == g1 / 16.0


def test_select_gamma_zero_matrix():
    with pytest.raises(AllZeroDistances):
        select_gamma(distance_matrix_from(np.zeros((4, 4))))


def test_select_gamma_needs_two():
    with pytest.raises(ValueError):
        select_gamma(distance_matrix_from(np.zeros((1, 1))))


# --- RBF -------------------------------------------------------------------

def test_rbf_kernel_values():
    d = distance_matrix_from([[0.0, 2.0], [2.0, 0.0]])
    k = rbf_kernel(d, 0.5)
    assert k.dense_values[0, 0] == 1.0
    assert k.dense_values[0, 1] == math.exp(-2.0)
    assert k.dense_values[0, 1] == pytest.approx(0.135335, abs=1e-6)


def test_rbf_kernel_range_and_monotonicity():
    rng = np.random.default_rng(1)
    a = np.abs(rng.normal(size=(8, 8))) + 0.1
    a = (a + a.T) / 2
    np.fill_diagonal(a, 0.0)
    k = rbf_kernel(distance_matrix_from(a), 0.3).dense_values
    assert (k > 0).all() and (k <= 1).all()
    order = np.argsort(a[0])
    assert (np.diff(k[0][order]) <= 1e-15).all()


def test_rbf_kernel_rejects_bad_gamma():
    with pytest.raises(ValueError):
        rbf_kernel(distance_matrix_from(np.zeros((2, 2))), 0.0)


# --- spectrum shift --------------------------------------------------------

def test_spectrum_shift_psd_unchanged():
    k = KernelMatrix(n=3, gamma=1.0, dense_values=np.eye(3))
    shifted = spectrum_shift(k)
    assert shifted.shift == 0.0
    assert np.array_equal(shifted.dense_values, np.eye(3))


def test_spectrum_shift_two_by_two():
    k = KernelMatrix(n=2, gamma=1.0, dense_values=np.array([[1.0, 2.0], [2.0, 1.0]]))
    shifted = spectrum_shift(k)
    assert shifted.shift == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(shifted.dense_values, [[2.0, 2.0], [2.0, 2.0]], atol=1e-12)


def test_spectrum_shift_random_indefinite():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(3, 40))
        a = rng.normal(size=(n, n))
        a = (a + a.T) / 2
        shifted = spectrum_shift(KernelMatrix(n=n, gamma=1.0, dense_values=a))
        w = np.linalg.eigvalsh(np.asarray(shifted.dense_values))
        assert w[0] >= -1e-8 * n
        # only the diagonal moves
        off = ~np.eye(n, dtype=bool)
        assert np.array_equal(shifted.dense_values[off], a[off])


# --- end-to-end dense helper ----------------------------------------------

def test_kernel_from_distances_diag_and_psd():
    rng = np.random.default_rng(5)
    t = random_tractogram(rng, 12)
    d = pairwise_distances(t)
    k = kernel_from_distances(d)
    assert np.allclose(np.diagonal(k.dense_values), 1.0 + k.shift, atol=1e-12)
    assert np.linalg.eigvalsh(np.asarray(k.dense_values)).min() >= -1e-8


def test_kernel_from_distances_zero_fallback():
    with pytest.warns(UserWarning, match="gamma=1"):
        k = kernel_from_distances(distance_matrix_from(np.zeros((3, 3))))
    assert k.gamma == 1.0


def _majority_zero(n):
    values = np.zeros((n, n))
    values[0, 1:] = values[1:, 0] = 3.0
    return values


@pytest.mark.parametrize("values", [
    random_distances(2).values,
    random_distances(7).values,
    random_distances(950, seed=3).values,
    _majority_zero(9),
    np.zeros((4, 4)),
], ids=["n2", "n7", "lanczos-sized", "majority-zero", "all-zero"])
def test_kernel_in_distance_buffer_is_kernel_from_distances(values):
    d = distance_matrix_from(values)
    with warnings.catch_warnings(record=True) as want_warned:
        warnings.simplefilter("always")
        want = kernel_from_distances(d)
    with warnings.catch_warnings(record=True) as got_warned:
        warnings.simplefilter("always")
        got = _kernel_in_distance_buffer(distance_matrix_from(values))
    assert np.array_equal(got.dense_values, want.dense_values)
    assert (got.gamma, got.shift) == (want.gamma, want.shift)
    assert [str(w.message) for w in got_warned] == [str(w.message) for w in want_warned]
    assert np.array_equal(d.values, values)


def test_dense_kernel_build_checks_symmetry_once(tmp_path, monkeypatch):
    # `cluster --dist` reads the .dm and builds the kernel in its buffer: the
    # spectrum shift's eigensolve checks symmetry, and adopting the kernel
    # made from the symmetric distances does not check it again
    write_dm(random_distances(300), tmp_path / "d.dm")
    shapes = []

    def recorder(a, tol):
        shapes.append(a.shape)
        return _symmetric_within(a, tol)

    monkeypatch.setattr(linalg, "_symmetric_within", recorder)
    monkeypatch.setattr(kernel, "_symmetric_within", recorder)
    k = _kernel_in_distance_buffer(read_dm(tmp_path / "d.dm"))
    assert k.shift > 0 and shapes == [(300, 300)]


def test_kernel_matrix_still_rejects_asymmetry():
    values = np.eye(3)
    values[0, 1] = 0.5
    with pytest.raises(ValueError, match="symmetric"):
        KernelMatrix(n=3, gamma=1.0, dense_values=values)
    # an adopted kernel that nobody vouched for, as `read_km` adopts one
    with pytest.raises(ValueError, match="symmetric"):
        _adopt(KernelMatrix, n=3, gamma=1.0, dense_values=values)


def test_kernel_in_distance_buffer_needs_two_streamlines():
    with pytest.raises(ValueError, match="at least 2"):
        _kernel_in_distance_buffer(distance_matrix_from(np.zeros((1, 1))))


def test_kernel_invariant_under_power_of_two_scaling():
    rng = np.random.default_rng(6)
    t = random_tractogram(rng, 10)
    d = pairwise_distances(t).values
    k1 = kernel_from_distances(distance_matrix_from(d))
    k2 = kernel_from_distances(distance_matrix_from(4.0 * d))
    assert np.array_equal(k1.dense_values, k2.dense_values)


def test_kernel_from_distances_is_the_formula_built_in_one_buffer():
    n = 1000
    d = random_distances(n)
    k, peak = traced_peak(kernel_from_distances, d)
    sigma = float(np.median(d.values[~np.eye(n, dtype=bool)]))
    gamma = 1.0 / (2.0 * sigma * sigma)
    unshifted = np.exp(-gamma * np.square(d.values))
    lam_min = float(sym_eig(unshifted, count=1)[0][0])
    assert lam_min < 0.0
    assert k.gamma == gamma and k.shift == -lam_min
    assert np.array_equal(k.dense_values, unshifted + k.shift * np.eye(n))
    assert np.array_equal(k.dense_values, spectrum_shift(rbf_kernel(d, gamma)).dense_values)
    assert peak <= 1.6 * n * n * 8


def test_rbf_kernel_constructor_path_keeps_caller_arrays_writable():
    d = random_distances(6)
    vals = rbf_kernel(d, 0.1).dense_values.copy()
    k = KernelMatrix(n=6, gamma=0.1, dense_values=vals)
    assert vals.flags.writeable and not np.shares_memory(vals, k.dense_values)
    assert not rbf_kernel(d, 0.1).dense_values.flags.writeable


# --- common interface ------------------------------------------------------

def test_kernel_matrix_forms_agree():
    rng = np.random.default_rng(7)
    g = rng.normal(size=(9, 4))
    k_fact = KernelMatrix(n=9, gamma=1.0, factor=g)
    k_dense = KernelMatrix(n=9, gamma=1.0, dense_values=g @ g.T)
    assert k_fact.is_factored and not k_dense.is_factored
    assert np.allclose(k_fact.diagonal(), k_dense.diagonal(), atol=1e-12)
    assert k_fact.trace() == pytest.approx(k_dense.trace(), rel=1e-12)
    assert np.allclose(k_fact.dense(), k_dense.dense(), atol=1e-12)


def test_kernel_matrix_validation():
    with pytest.raises(ValueError):
        KernelMatrix(n=2, gamma=1.0)
    with pytest.raises(ValueError):
        KernelMatrix(
            n=2, gamma=1.0, dense_values=np.eye(2), factor=np.ones((2, 1))
        )
    with pytest.raises(ValueError):
        KernelMatrix(n=2, gamma=1.0, dense_values=np.array([[1.0, 0.5], [0.2, 1.0]]))
    with pytest.raises(ValueError):
        KernelMatrix(n=2, gamma=-1.0, dense_values=np.eye(2))


# --- Nystrom ---------------------------------------------------------------

def test_nystrom_all_landmarks_reproduces_dense():
    rng = np.random.default_rng(8)
    t = random_tractogram(rng, 15)
    d = pairwise_distances(t)
    gamma = select_gamma(d)
    dense = spectrum_shift(rbf_kernel(d, gamma))
    fact = nystrom_kernel(t, "mcp", gamma=gamma, p=15, seed=0)
    err = np.linalg.norm(fact.dense() - dense.dense()) / np.linalg.norm(dense.dense())
    assert err <= 1e-6
    assert fact.shift == pytest.approx(dense.shift, rel=1e-9, abs=1e-12)
    assert np.array_equal(fact.landmarks, np.arange(15))


def three_lines(n):
    """n streamlines, copies of three parallel lines at 0, 10 and 30 mm.

    The distances between the lines are Euclidean, so the RBF kernel is
    positive semi-definite of rank 3.
    """
    base = np.linspace([0.0, 0.0, 0.0], [0.0, 0.0, 30.0], 6)
    lines = [Streamline(base + [x, 0.0, 0.0]) for x in (0.0, 10.0, 30.0)]
    return Tractogram(tuple(lines[i % 3] for i in range(n)))


def test_nystrom_factor_low_rank_exact():
    t = three_lines(40)
    k = rbf_kernel(pairwise_distances(t), 0.01).dense()
    with pytest.warns(RankDeficientWarning, match="7 of 10"):
        g = nystrom_kernel(t, "mcp", gamma=0.01, p=10, seed=0).factor
    assert g.shape == (40, 3)
    assert np.linalg.norm(g @ g.T - k) <= 1e-6 * np.linalg.norm(k)


def two_pass_nystrom(t, measure, p, seed):
    """The factor from two distance passes, the landmarks' square matrix and
    then the landmarks against the rest, each product over its own rows."""
    n = len(t)
    landmarks = np.sort(np.random.default_rng(seed).choice(n, size=p, replace=False))
    rest = np.setdiff1d(np.arange(n), landmarks)
    t_land = Tractogram(tuple(t[i] for i in landmarks))
    k_aa = kernel_from_distances(pairwise_distances(t_land, measure))
    d_ab = cross_distances(t_land, Tractogram(tuple(t[i] for i in rest)), measure)
    w, v = sym_eig(k_aa.dense_values)
    keep = w > 1e-10 * w[-1]
    v, root = v[:, keep], np.sqrt(w[keep])
    g = np.empty((n, root.size))
    g[landmarks] = v * root
    g[rest] = (np.exp(-k_aa.gamma * d_ab**2).T @ v) / root
    return g, landmarks, k_aa.gamma, k_aa.shift


@pytest.fixture(scope="module")
def sep5_700():
    return preset_separated5(seed=0, total_count=700)[0]


@pytest.mark.parametrize("p", [64, 300])
@pytest.mark.parametrize("measure", ["mcp", "ep"])
def test_nystrom_factor_matches_two_pass_construction(sep5_700, measure, p):
    # One rest-then-landmarks block gives the bits of two passes. A single
    # product over all n rows of that block would not: with threaded BLAS
    # it moves the last bit of some rows at p = 300.
    k = nystrom_kernel(sep5_700, measure, p=p, seed=0)
    g, landmarks, gamma, shift = two_pass_nystrom(sep5_700, measure, p, 0)
    assert k.factor.tobytes() == g.tobytes()
    assert np.array_equal(k.landmarks, landmarks)
    assert (k.gamma, k.shift) == (gamma, shift)


@pytest.fixture(scope="module")
def sep5_150_dense():
    t, _ = preset_separated5(seed=1, total_count=150)
    return t, kernel_from_distances(pairwise_distances(t, "mcp"))


@pytest.mark.parametrize("p", [20, 40, 80])
def test_nystrom_coarse_landmarks_stay_near_dense(sep5_150_dense, p):
    # The shifted landmark block has a zero eigenvalue; the factor must drop
    # it, since dividing the cross block by its root amplifies without bound.
    t, dense = sep5_150_dense
    k = nystrom_kernel(t, "mcp", gamma=dense.gamma, p=p, seed=2)
    assert k.factor.shape[1] <= p
    assert np.abs(k.dense() - dense.dense()).max() <= 2.0
    spectral_init(k, 5)


def test_nystrom_warns_on_rank_deficient_landmarks():
    s = Streamline([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
    t = Tractogram(tuple(s for _ in range(12)))
    with pytest.warns(RankDeficientWarning):
        k = nystrom_kernel(t, "mcp", gamma=0.1, p=8, seed=0)
    assert np.allclose(k.dense(), np.ones((12, 12)), atol=1e-6)


def test_nystrom_identical_landmarks_fall_back_to_gamma_one():
    s = Streamline([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
    t = Tractogram(tuple(s for _ in range(12)))
    with pytest.warns(UserWarning, match="gamma=1"):
        k = nystrom_kernel(t, "mcp", p=8, seed=0)
    assert k.gamma == 1.0
    assert np.allclose(k.dense(), np.ones((12, 12)), atol=1e-6)


def test_nystrom_single_landmark_imperfect():
    rng = np.random.default_rng(10)
    t = random_tractogram(rng, 12)
    d = pairwise_distances(t)
    gamma = select_gamma(d)
    dense = spectrum_shift(rbf_kernel(d, gamma)).dense()
    fact = nystrom_kernel(t, "mcp", gamma=gamma, p=1, seed=0).dense()
    assert np.linalg.norm(fact - dense) > 1e-3


def test_nystrom_deterministic_per_seed():
    rng = np.random.default_rng(11)
    t = random_tractogram(rng, 14)
    a = nystrom_kernel(t, "mcp", gamma=0.01, p=6, seed=5)
    b = nystrom_kernel(t, "mcp", gamma=0.01, p=6, seed=5)
    c = nystrom_kernel(t, "mcp", gamma=0.01, p=6, seed=6)
    assert np.array_equal(a.factor, b.factor)
    assert np.array_equal(a.landmarks, b.landmarks)
    assert not np.array_equal(a.landmarks, c.landmarks)


def test_nystrom_rejects_bad_p():
    rng = np.random.default_rng(12)
    t = random_tractogram(rng, 5)
    with pytest.raises(ValueError):
        nystrom_kernel(t, "mcp", gamma=0.1, p=0)
    with pytest.raises(ValueError):
        nystrom_kernel(t, "mcp", gamma=0.1, p=6)
