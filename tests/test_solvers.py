import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from footprint import random_distances, traced_peak
from oracles import column_pursuit, nnls_on_support, reference_lloyd
from tractsparse.errors import (
    DegenerateAtom,
    EmptyCluster,
    ZeroDegreeRow,
)
from tractsparse import linalg, solvers, synth
from tractsparse.distances import (
    EndpointGraph,
    build_endpoint_graph,
    graph_laplacian,
    pairwise_distances,
)
from tractsparse.kernel import KernelMatrix, kernel_from_distances, nystrom_kernel
from tractsparse.metrics import adjusted_rand_index
from tractsparse.model import Labeling, SolverConfig
from tractsparse.solvers import (
    Assignment,
    Dictionary,
    FitResult,
    _pursuit,
    _row_values,
    default_lambda2,
    gksc_fit,
    hard_labels,
    init_dictionary_from_labels,
    kkm_assign,
    kkm_dictionary,
    kkm_fit,
    ksc_fit,
    mult_update_A,
    nnkomp,
    prune_dictionary,
    random_selection_init,
    reconstruction_cost,
    segment_with_dictionary,
    shrink_l1,
    spectral_embedding,
    spectral_init,
)


def axis_blobs(rng, m=3, per=12, d=4, spread=10.0, sigma=0.5):
    """Clusters on coordinate axes; randomness only in the noise."""
    assert m <= d
    centers = spread * np.eye(d)[:m]
    pts = np.vstack(
        [centers[j] + sigma * rng.normal(size=(per, d)) for j in range(m)]
    )
    labels = np.repeat(np.arange(m), per)
    return pts, labels


def rbf_from_points(x, gamma=0.02):
    d2 = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1)
    vals = np.exp(-gamma * d2)
    vals = (vals + vals.T) / 2.0
    return KernelMatrix(x.shape[0], gamma, 0.0, dense_values=vals)


def linear_kernel(x):
    vals = x @ x.T
    vals = (vals + vals.T) / 2.0
    return KernelMatrix(x.shape[0], 1.0, 0.0, dense_values=vals)


# --- container types -------------------------------------------------------

def test_dictionary_defaults_and_validation():
    d = Dictionary(np.ones((4, 2)))
    assert d.n == 4 and d.m == 2
    assert d.empty.dtype == bool and not d.empty.any()
    with pytest.raises(ValueError):
        Dictionary(np.ones(4))
    with pytest.raises(ValueError):
        Dictionary(np.full((3, 2), np.nan))
    with pytest.raises(ValueError):
        Dictionary(np.ones((3, 2)), empty=np.zeros(3, dtype=bool))


def test_assignment_validation():
    a = Assignment(np.zeros((2, 5)))
    assert a.m == 2 and a.n == 5
    with pytest.raises(ValueError):
        Assignment(np.ones(5))
    with pytest.raises(ValueError):
        Assignment(np.array([[np.inf, 0.0]]))


def test_containers_are_frozen():
    d = Dictionary(np.ones((3, 2)))
    with pytest.raises(ValueError):
        d.a[0, 0] = 5.0
    a = Assignment(np.ones((2, 3)))
    with pytest.raises(ValueError):
        a.w[0, 0] = 5.0


# --- reconstruction cost ---------------------------------------------------

def test_cost_matches_explicit_feature_residual():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(10, 4))
    k = linear_kernel(x)
    a = rng.normal(size=(10, 3))
    w = rng.normal(size=(3, 10))
    # cost is the squared residual of reconstructing the feature columns
    resid = x.T - x.T @ a @ w
    expected = float(np.sum(resid * resid))
    got = reconstruction_cost(k, a, w)
    assert got == pytest.approx(expected, rel=1e-10)


def test_cost_agrees_between_dense_and_factored_forms():
    rng = np.random.default_rng(4)
    g = rng.normal(size=(12, 5))
    dense = KernelMatrix(12, 1.0, 0.0, dense_values=(g @ g.T + (g @ g.T).T) / 2)
    fact = KernelMatrix(12, 1.0, 0.0, factor=g, landmarks=np.arange(5))
    a = np.abs(rng.normal(size=(12, 3)))
    w = np.abs(rng.normal(size=(3, 12)))
    assert reconstruction_cost(dense, a, w) == pytest.approx(
        reconstruction_cost(fact, a, w), rel=1e-10
    )


def test_cost_zero_for_perfect_reconstruction():
    k = KernelMatrix(4, 1.0, 0.0, dense_values=np.ones((4, 4)))
    a = np.zeros((4, 1))
    a[0, 0] = 1.0
    w = np.ones((1, 4))
    assert abs(reconstruction_cost(k, a, w)) < 1e-12


# --- spectral initialization -----------------------------------------------

def test_spectral_init_separates_disconnected_blocks():
    vals = np.zeros((8, 8))
    vals[:4, :4] = 1.0
    vals[4:, 4:] = 1.0
    k = KernelMatrix(8, 1.0, 0.0, dense_values=vals)
    lab = spectral_init(k, 2)
    assert len(set(np.asarray(lab.labels[:4]))) == 1
    assert len(set(np.asarray(lab.labels[4:]))) == 1
    assert lab.labels[0] != lab.labels[4]


def test_spectral_init_recovers_blobs():
    rng = np.random.default_rng(0)
    x, truth = axis_blobs(rng)
    lab = spectral_init(rbf_from_points(x), 3)
    assert adjusted_rand_index(truth, np.asarray(lab.labels)) == 1.0


def test_spectral_init_deterministic():
    rng = np.random.default_rng(1)
    x, _ = axis_blobs(rng)
    k = rbf_from_points(x)
    a = spectral_init(k, 3, seed=7)
    b = spectral_init(k, 3, seed=7)
    assert np.array_equal(a.labels, b.labels)


def test_spectral_init_single_cluster():
    k = KernelMatrix(5, 1.0, 0.0, dense_values=np.eye(5))
    lab = spectral_init(k, 1)
    assert np.array_equal(lab.labels, np.zeros(5))


@pytest.fixture(scope="module")
def lanczos_sized_kernel():
    """A sep5 kernel at the smallest order whose partial eigensolves use Lanczos."""
    tract, _ = synth.preset_separated5(seed=0, total_count=linalg._LANCZOS_MIN_N)
    return kernel_from_distances(pairwise_distances(tract, "mcp"))


@pytest.mark.parametrize("m", [5, 10])
def test_spectral_init_lanczos_labels_match_lapack_embedding(lanczos_sized_kernel, m):
    k = lanczos_sized_kernel
    n = k.n
    kd = k.dense()
    inv_sqrt = 1.0 / np.sqrt(kd.sum(axis=1))
    lap = np.eye(n) - inv_sqrt[:, None] * kd * inv_sqrt[None, :]
    _, emb = scipy.linalg.eigh((lap + lap.T) / 2.0, subset_by_index=[0, m - 1])
    emb /= np.linalg.norm(emb, axis=1)[:, None]
    want = solvers._lloyd(emb, m, np.random.default_rng(3))
    got = spectral_init(k, m, seed=3)
    assert np.array_equal(np.asarray(got.labels), want)


def _formula_laplacian(kd):
    inv_sqrt = 1.0 / np.sqrt(kd.sum(axis=1))
    lap = np.eye(kd.shape[0]) - inv_sqrt[:, None] * kd * inv_sqrt[None, :]
    return (lap + lap.T) / 2.0


@pytest.mark.parametrize("form", ["dense", "factored"])
def test_spectral_embedding_operator_is_the_formula_laplacian(monkeypatch, form):
    n = 1000
    if form == "dense":
        k = kernel_from_distances(random_distances(n, seed=2))
    else:
        g = np.random.default_rng(2).uniform(0.0, 1.0, size=(n, 30))
        k = KernelMatrix(n, 1.0, 0.0, factor=g)
    seen = []
    real = solvers.sym_eig

    def capture(a, count=None):
        seen.append(a)
        return real(a, count)

    monkeypatch.setattr(solvers, "sym_eig", capture)
    spectral_embedding(k, 5)
    assert isinstance(seen[0], scipy.sparse.linalg.LinearOperator)
    x = np.random.default_rng(3).standard_normal(n)
    want = _formula_laplacian(k.dense()) @ x
    assert np.linalg.norm(seen[0] @ x - want) <= 1e-14 * np.linalg.norm(want)


def test_spectral_embedding_holds_no_n_by_n_array():
    n = 1000
    k = kernel_from_distances(random_distances(n, seed=2))
    _, peak = traced_peak(spectral_embedding, k, 5)
    assert peak <= 0.1 * n * n * 8


def test_spectral_embedding_below_lanczos_size_solves_the_dense_laplacian(monkeypatch):
    n = linalg._LANCZOS_MIN_N - 1
    k = kernel_from_distances(random_distances(n, seed=4))
    seen = []
    real = solvers.sym_eig

    def capture(a, count=None):
        seen.append(a)
        return real(a, count)

    monkeypatch.setattr(solvers, "sym_eig", capture)
    spectral_embedding(k, 5)
    assert np.array_equal(seen[0], _formula_laplacian(k.dense()))


def test_spectral_embedding_zero_degree_row():
    vals = np.eye(3)
    vals[2, 2] = 0.0
    k = KernelMatrix(3, 1.0, 0.0, dense_values=vals)
    with pytest.raises(ZeroDegreeRow):
        spectral_embedding(k)


def test_spectral_embedding_rows_unit_norm():
    rng = np.random.default_rng(2)
    x, _ = axis_blobs(rng)
    emb = spectral_embedding(rbf_from_points(x))
    assert np.allclose(np.linalg.norm(emb, axis=1), 1.0, atol=1e-12)


# --- dictionary initialization ---------------------------------------------

def test_medoid_init_matches_naive_feature_medoid():
    rng = np.random.default_rng(5)
    x, truth = axis_blobs(rng)
    k = linear_kernel(x)
    d = init_dictionary_from_labels(Labeling(truth, m=3), k)
    for j in range(3):
        members = np.flatnonzero(truth == j)
        sums = [
            sum(float(((x[i] - x[o]) ** 2).sum()) for o in members)
            for i in members
        ]
        expected = members[int(np.argmin(sums))]
        picked = int(np.flatnonzero(d.a[:, j])[0])
        assert picked == expected
        assert d.a[picked, j] == 1.0


def test_dense_medoid_row_sums_by_strips_are_the_whole_block_sums():
    n = 900
    k = kernel_from_distances(random_distances(n, seed=5))
    truth = np.random.default_rng(5).choice(3, size=n, p=[0.8, 0.15, 0.05])
    d = init_dictionary_from_labels(Labeling(truth, m=3), k)
    kd = k.dense()
    for j in range(3):
        members = np.flatnonzero(truth == j)
        sub = kd[np.ix_(members, members)]
        score = members.size * np.diagonal(sub) - 2.0 * sub.sum(axis=1)
        assert d.a[members[int(np.argmin(score))], j] == 1.0


def test_medoid_init_is_selection_matrix():
    rng = np.random.default_rng(6)
    x, truth = axis_blobs(rng)
    d = init_dictionary_from_labels(Labeling(truth, m=3), rbf_from_points(x))
    assert np.all((d.a == 0.0) | (d.a == 1.0))
    assert np.array_equal(d.a.sum(axis=0), np.ones(3))


def test_medoid_init_empty_cluster_raises():
    k = KernelMatrix(4, 1.0, 0.0, dense_values=np.eye(4))
    with pytest.raises(EmptyCluster):
        init_dictionary_from_labels(Labeling(np.zeros(4, dtype=int), m=2), k)


def test_random_selection_init():
    k = KernelMatrix(6, 1.0, 0.0, dense_values=np.eye(6))
    d = random_selection_init(k, 3, seed=0)
    assert np.array_equal(d.a, random_selection_init(k, 3, seed=0).a)
    assert np.array_equal(d.a.sum(axis=0), np.ones(3))
    assert np.all(d.a.sum(axis=1) <= 1.0)
    with pytest.raises(ValueError):
        random_selection_init(k, 7)


# --- kernel k-means --------------------------------------------------------

def _flip_some(labels, m, rng, flips=6):
    out = labels.copy()
    idx = rng.choice(labels.size, size=flips, replace=False)
    out[idx] = rng.integers(0, m, size=flips)
    for j in range(m):  # keep every cluster inhabited
        if not np.any(out == j):
            out[np.flatnonzero(labels == j)[0]] = j
    return out


@pytest.mark.parametrize("seed", range(5))
def test_kkm_matches_reference_lloyd(seed):
    rng = np.random.default_rng(seed)
    x, truth = axis_blobs(rng, m=3, per=10, d=6, spread=8.0)
    init = _flip_some(truth, 3, rng)
    res = kkm_fit(linear_kernel(x), SolverConfig(m=3), Labeling(init, m=3))
    expected = reference_lloyd(x, init, 3)
    assert np.array_equal(res.labels.labels, expected)


def test_kkm_cost_monotone_over_seeds():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x, truth = axis_blobs(rng)
        init = _flip_some(truth, 3, rng)
        res = kkm_fit(rbf_from_points(x), SolverConfig(m=3), Labeling(init, m=3))
        trace = np.asarray(res.cost_trace)
        diffs = np.diff(trace)
        assert np.all(diffs <= 1e-10 * np.abs(trace[:-1]))


def test_kkm_labels_are_fixed_point():
    rng = np.random.default_rng(11)
    x, truth = axis_blobs(rng)
    k = rbf_from_points(x)
    res = kkm_fit(k, SolverConfig(m=3), Labeling(_flip_some(truth, 3, rng), m=3))
    assert res.converged
    assert np.array_equal(kkm_assign(k, res.dictionary), res.labels.labels)
    assert not res.unassigned.any()


def test_kkm_scaling_leaves_labels_unchanged():
    rng = np.random.default_rng(12)
    x, truth = axis_blobs(rng)
    k = rbf_from_points(x)
    init = Labeling(_flip_some(truth, 3, rng), m=3)
    base = kkm_fit(k, SolverConfig(m=3), init)
    for c in (0.5, 2.0, 8.0):
        scaled = KernelMatrix(k.n, k.gamma, 0.0, dense_values=c * k.dense())
        res = kkm_fit(scaled, SolverConfig(m=3), init)
        assert np.array_equal(res.labels.labels, base.labels.labels)


def test_kkm_reseeds_empty_cluster():
    rng = np.random.default_rng(13)
    x, _ = axis_blobs(rng, m=2, per=10)
    x = np.vstack([x, 40.0 * np.ones((1, 4))])  # one far outlier
    init = np.r_[np.zeros(10, dtype=int), np.ones(10, dtype=int), 1]
    res = kkm_fit(
        rbf_from_points(x), SolverConfig(m=3), Labeling(init, m=3)
    )
    counts = np.bincount(np.asarray(res.labels.labels), minlength=3)
    assert counts.min() >= 1
    assert res.labels.labels[20] == 2  # outlier ends up owning the spare slot


def test_kkm_forms_atk_once_per_sweep(monkeypatch):
    rng = np.random.default_rng(5)
    x, truth = axis_blobs(rng)
    k = rbf_from_points(x)
    calls = []
    real = solvers._atk_atka

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(solvers, "_atk_atka", counted)
    init = Labeling(_flip_some(truth, 3, rng), m=3)
    res = kkm_fit(k, SolverConfig(m=3), init)
    monkeypatch.undo()
    assert res.converged and res.iterations >= 2
    # one for the first dictionary and one after each sweep that moved labels
    assert len(calls) == res.iterations
    assert res.cost_trace[-1] == reconstruction_cost(
        k, res.dictionary, res.assignment
    )


def test_kkm_rejects_mismatched_init():
    k = KernelMatrix(4, 1.0, 0.0, dense_values=np.eye(4))
    with pytest.raises(ValueError):
        kkm_fit(k, SolverConfig(m=2), Labeling(np.zeros(3, dtype=int), m=2))
    with pytest.raises(ValueError):
        kkm_fit(k, SolverConfig(m=3), Labeling(np.zeros(4, dtype=int), m=2))


def test_kkm_dictionary_start_is_its_nearest_prototype_labels():
    rng = np.random.default_rng(14)
    x, _ = axis_blobs(rng)
    k = rbf_from_points(x)
    cfg = SolverConfig(m=3)
    d = random_selection_init(k, 3, seed=2)
    got = kkm_fit(k, cfg, d)
    want = kkm_fit(k, cfg, Labeling(kkm_assign(k, d), m=3))
    assert np.array_equal(got.labels.labels, want.labels.labels)
    assert got.dictionary.a.tobytes() == want.dictionary.a.tobytes()
    assert got.assignment.w.tobytes() == want.assignment.w.tobytes()
    assert got.cost_trace == want.cost_trace
    assert got.iterations == want.iterations


def _fit_variants():
    """Each fit as f(k, cfg, init), with the config fields it needs."""
    def manifold(k, cfg, init):
        return gksc_fit(k, cfg, init, laplacian=np.zeros((k.n, k.n)))
    return [
        (kkm_fit, {}),
        (ksc_fit, {}),
        (gksc_fit, {}),
        (gksc_fit, {"lambda2": 0.0}),
        (manifold, {"lambda2": 0.0, "lambda_l": 0.01}),
    ]


@pytest.mark.parametrize("fit, fields", _fit_variants(),
                         ids=["kkm", "ksc", "gksc", "gksc-l1", "gksc-manifold"])
@pytest.mark.parametrize("size", [11, 13])
def test_every_fit_rejects_a_start_of_the_wrong_size(fit, fields, size):
    k = rbf_from_points(axis_blobs(np.random.default_rng(15), per=4)[0])
    cfg = SolverConfig(m=2, **fields)
    starts = [Labeling(np.arange(size) % 2, m=2), Dictionary(np.eye(size)[:, :2])]
    for init in starts:
        with pytest.raises(ValueError, match="init covers"):
            fit(k, cfg, init)


def test_kkm_dictionary_is_normalized_indicator():
    w = np.zeros((2, 5))
    w[0, :3] = 1.0
    w[1, 3:] = 1.0
    d = kkm_dictionary(w, ridge=1e-12)
    expected = np.zeros((5, 2))
    expected[:3, 0] = 1.0 / 3.0
    expected[3:, 1] = 1.0 / 2.0
    assert np.allclose(d.a, expected, atol=1e-9)


# --- greedy pursuit --------------------------------------------------------

def one_column(rhs, gram, s_max, excluded):
    return _pursuit(np.asarray(rhs)[:, None], gram, s_max, excluded)[:, 0]


def test_pursuit_single_atom_matches_nearest_prototype():
    # uniform kernel diagonal makes the ratio rule and the score rule agree
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x, truth = axis_blobs(rng)
        k = rbf_from_points(x)
        d = init_dictionary_from_labels(Labeling(truth, m=3), k)
        expected = kkm_assign(k, d)
        w = np.column_stack([nnkomp(k, d, i, 1) for i in range(k.n)])
        lab, unassigned = hard_labels(w)
        assert not unassigned.any()
        assert np.array_equal(lab.labels, expected)


def test_pursuit_single_atom_weight_formula():
    rng = np.random.default_rng(21)
    x, truth = axis_blobs(rng)
    k = rbf_from_points(x)
    d = init_dictionary_from_labels(Labeling(truth, m=3), k)
    atk = d.a.T @ k.dense()
    atka = atk @ d.a
    for i in (0, 5, 17, 30):
        w = nnkomp(k, d, i, 1)
        j = int(np.argmax(atk[:, i] / np.diagonal(atka)))
        assert np.count_nonzero(w) == 1
        assert w[j] == pytest.approx(
            max(0.0, atk[j, i] / atka[j, j]), rel=1e-12
        )


def test_pursuit_identity_gram_selects_top_entries():
    rng = np.random.default_rng(22)
    q, _ = np.linalg.qr(rng.normal(size=(8, 5)))
    k = KernelMatrix(8, 1.0, 0.0, dense_values=np.eye(8))
    b = q.T @ rng.normal(size=8)
    w = one_column(b, q.T @ q, 3, np.zeros(5, dtype=bool))
    pos = np.flatnonzero(b > 0)
    expect_support = set(pos[np.argsort(b[pos])][-3:])
    assert set(np.flatnonzero(w)) == expect_support
    for j in expect_support:
        assert w[j] == pytest.approx(b[j], rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_pursuit_refit_matches_scipy_nnls(seed):
    rng = np.random.default_rng(seed)
    b_mat = rng.normal(size=(6, 3))
    gram = b_mat.T @ b_mat + 0.1 * np.eye(3)
    rhs = rng.normal(size=3)
    w = one_column(rhs, gram, 2, np.zeros(3, dtype=bool))
    support = np.flatnonzero(w)
    assert support.size <= 2
    assert np.all(w >= 0.0)
    if support.size:
        expected = nnls_on_support(gram, rhs, support)
        assert np.allclose(w, expected, atol=1e-9)


def test_pursuit_widening_budget_never_hurts():
    rng = np.random.default_rng(23)
    for _ in range(10):
        b_mat = rng.normal(size=(8, 5))
        gram = b_mat.T @ b_mat + 0.1 * np.eye(5)
        rhs = np.abs(rng.normal(size=5))
        none = np.zeros(5, dtype=bool)
        objs = []
        for s in (1, 2, 3):
            w = one_column(rhs, gram, s, none)
            objs.append(float(w @ gram @ w - 2.0 * rhs @ w))
        assert objs[1] <= objs[0] + 1e-12
        assert objs[2] <= objs[1] + 1e-12


def test_pursuit_no_positive_correlation_gives_zero():
    gram = np.eye(3)
    w = one_column(np.array([-1.0, -0.5, 0.0]), gram, 2, np.zeros(3, bool))
    assert np.array_equal(w, np.zeros(3))


def test_pursuit_skips_excluded_atoms():
    gram = np.eye(3)
    rhs = np.array([5.0, 1.0, 0.5])
    excluded = np.array([True, False, False])
    w = one_column(rhs, gram, 1, excluded)
    assert np.flatnonzero(w).tolist() == [1]


def test_pursuit_degenerate_atom_raises():
    gram = np.zeros((2, 2))
    with pytest.raises(DegenerateAtom):
        one_column(np.array([1.0, 1.0]), gram, 1, np.zeros(2, bool))


def test_pursuit_rejects_bad_budget():
    k = KernelMatrix(2, 1.0, 0.0, dense_values=np.eye(2))
    with pytest.raises(ValueError):
        nnkomp(k, np.eye(2), 0, 0)


def count_nnls(monkeypatch):
    calls = []
    real = solvers.nnls

    def counted(gram, rhs):
        calls.append(rhs.size)
        return real(gram, rhs)

    monkeypatch.setattr(solvers, "nnls", counted)
    return calls


PRESETS = {
    "sep5": lambda: synth.preset_separated5(seed=1, total_count=150),
    "crossing2": lambda: synth.preset_crossing2(seed=1, count_per_bundle=60),
    "overlap3": lambda: synth.preset_overlap3(seed=1, count_per_bundle=50),
}


def preset_dictionaries(k, m):
    """Spectral, multiplicatively refined and random sparse dictionaries."""
    spectral = init_dictionary_from_labels(spectral_init(k, m=m, seed=1), k)
    atk, atka = solvers._atk_atka(k, spectral.a)
    refined = mult_update_A(k, _pursuit(atk, atka, 3, spectral.empty), spectral)
    rng = np.random.default_rng(m)
    a = np.zeros((k.n, m))
    for j in range(m):
        a[rng.choice(k.n, size=3, replace=False), j] = rng.random(3)
    return {"spectral": spectral, "refined": refined, "random": Dictionary(a)}


@pytest.mark.parametrize("preset,m", [("sep5", 5), ("crossing2", 8), ("overlap3", 6)])
def test_pursuit_matches_column_oracle(preset, m):
    tg, _ = PRESETS[preset]()
    k = kernel_from_distances(pairwise_distances(tg, "mcp"))
    for name, d in preset_dictionaries(k, m).items():
        atk, atka = solvers._atk_atka(k, d.a)
        for s_max in range(1, 7):
            excluded = np.zeros(m, dtype=bool)
            if s_max % 2 == 0:
                excluded[[0, m - 1]] = True
            w = _pursuit(atk, atka, s_max, excluded)
            expected = column_pursuit(atk, atka, s_max, excluded)
            assert np.array_equal(w, expected), (name, s_max)
            assert np.all(np.count_nonzero(w, axis=0) <= s_max)


def test_pursuit_zero_columns():
    gram = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 1.5]])
    none = np.zeros(3, dtype=bool)
    assert _pursuit(np.zeros((3, 0)), gram, 3, none).shape == (3, 0)
    atk = np.zeros((3, 4))
    atk[:, 1] = [1.0, 0.4, 0.1]
    atk[:, 3] = [-1.0, -0.5, 0.0]
    w = _pursuit(atk, gram, 3, none)
    assert np.array_equal(w, column_pursuit(atk, gram, 3, none))
    assert np.array_equal(np.flatnonzero(w.any(axis=0)), [1])


def test_pursuit_drop_path_falls_back_to_nnls(monkeypatch):
    # near-collinear atoms make Lawson–Hanson retire a coordinate now and then
    calls = count_nnls(monkeypatch)
    for seed in range(300):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=6)[:, None] + 0.5 * rng.normal(size=(6, 4))
        gram = v.T @ v
        gram = (gram + gram.T) / 2.0
        atk = gram @ rng.normal(size=(4, 3))
        none = np.zeros(4, dtype=bool)
        before = len(calls)
        w = _pursuit(atk, gram, 4, none)
        assert len(calls) - before <= atk.shape[1] * 4
        assert np.array_equal(w, column_pursuit(atk, gram, 4, none)), seed
    assert len(calls) >= 2


def test_pursuit_singular_passive_set_falls_back_to_nnls(monkeypatch):
    # two opposite atoms: their 2×2 Gram is singular, so nnls adds its ridge
    calls = count_nnls(monkeypatch)
    gram = np.array([[1.0, -1.0], [-1.0, 1.0]])
    atk = np.array([[1.0, 2.0], [1.0, -3.0]])
    none = np.zeros(2, dtype=bool)
    w = _pursuit(atk, gram, 2, none)
    assert len(calls) == 1
    expected = column_pursuit(atk, gram, 2, none)
    assert np.array_equal(w, expected)
    assert np.count_nonzero(w[:, 0]) == 2 and np.array_equal(w[:, 1], [2.0, 0.0])


def test_pursuit_clean_path_skips_nnls(monkeypatch):
    calls = count_nnls(monkeypatch)
    tg, _ = PRESETS["sep5"]()
    k = kernel_from_distances(pairwise_distances(tg, "mcp"))
    d = preset_dictionaries(k, 5)["spectral"]
    atk, atka = solvers._atk_atka(k, d.a)
    _pursuit(atk, atka, 3, d.empty)
    assert calls == []


def test_pursuit_degenerate_atom_raises_for_any_column_count():
    gram = np.diag([1.0, 0.0, 2.0])
    atk = np.ones((3, 5))
    with pytest.raises(DegenerateAtom, match="atom 1"):
        _pursuit(atk, gram, 2, np.zeros(3, bool))
    excluded = np.array([False, True, False])
    w = _pursuit(atk, gram, 2, excluded)
    assert np.array_equal(w, column_pursuit(atk, gram, 2, excluded))


# --- multiplicative dictionary refinement ----------------------------------

def test_mult_update_stationary_at_least_squares_optimum():
    rng = np.random.default_rng(30)
    x, truth = axis_blobs(rng)
    k = rbf_from_points(x)
    w = np.zeros((3, k.n))
    w[truth, np.arange(k.n)] = 1.0
    a = kkm_dictionary(w, ridge=1e-12)
    before = reconstruction_cost(k, a.a, w)
    out = mult_update_A(k, w, a)
    after = reconstruction_cost(k, out.a, w)
    assert np.allclose(out.a, a.a, rtol=1e-6, atol=1e-12)
    assert after <= before + 1e-10 * abs(before)


def test_mult_update_cost_monotone_per_step():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x, _ = axis_blobs(rng, m=3, per=8)
        k = rbf_from_points(x)
        w = np.abs(rng.normal(size=(4, k.n)))
        a = Dictionary(np.abs(rng.normal(size=(k.n, 4))))
        costs = [reconstruction_cost(k, a.a, w)]
        for _ in range(12):
            a = mult_update_A(k, w, a, inner_tol=0.0, max_inner=1)
            costs.append(reconstruction_cost(k, a.a, w))
        diffs = np.diff(costs)
        assert np.all(diffs <= 1e-10 * np.maximum(np.abs(costs[:-1]), 1.0))


def test_mult_update_zeros_stay_zero():
    rng = np.random.default_rng(31)
    x, _ = axis_blobs(rng, m=2, per=6)
    k = rbf_from_points(x)
    a0 = np.abs(rng.normal(size=(k.n, 2)))
    a0[::2, 0] = 0.0
    w = np.abs(rng.normal(size=(2, k.n)))
    out = mult_update_A(k, w, Dictionary(a0), max_inner=10)
    assert np.all(out.a[::2, 0] == 0.0)


def test_mult_update_keeps_empty_flags():
    k = KernelMatrix(4, 1.0, 0.0, dense_values=np.eye(4))
    a = Dictionary(np.ones((4, 2)), empty=np.array([False, True]))
    out = mult_update_A(k, np.ones((2, 4)), a, max_inner=2)
    assert out.empty.tolist() == [False, True]


# --- support-restricted algebra --------------------------------------------

def dense_atk_atka(k, a):
    """AᵀK and AᵀKA over all n rows of the kernel, zero rows of A included."""
    if k.is_factored:
        ag = a.T @ k.factor
        atk, atka = ag @ k.factor.T, ag @ ag.T
    else:
        atk = a.T @ k.dense()
        atka = atk @ a
    return atk, (atka + atka.T) / 2.0


def dense_mult_update(k, w, a, steps):
    """`steps` multiplicative updates with full n×n products."""
    kd = k.dense()
    kwt = kd @ w.T
    wwt = w @ w.T
    for _ in range(steps):
        a = a * kwt / (kd @ (a @ wwt) + 1e-12)
    return a


@pytest.fixture(scope="module")
def sep5_kernels():
    """The sep5 tractogram, its dense and Nyström kernels, spectral labels."""
    tg, _ = PRESETS["sep5"]()
    dense = kernel_from_distances(pairwise_distances(tg, "mcp"))
    kernels = {"dense": dense, "nystrom": nystrom_kernel(tg, "mcp", p=40, seed=2)}
    return tg, kernels, spectral_init(dense, m=5, seed=1)


@pytest.mark.parametrize("form", ["dense", "nystrom"])
def test_restricted_atk_atka_exact_for_one_nonzero_per_column(sep5_kernels, form):
    _, kernels, labels = sep5_kernels
    k = kernels[form]
    spectral = init_dictionary_from_labels(labels, k)
    atk, atka = solvers._atk_atka(k, spectral.a)
    refined = mult_update_A(k, _pursuit(atk, atka, 3, spectral.empty), spectral)
    for d in (spectral, random_selection_init(k, 7, seed=3), refined):
        assert np.all(np.count_nonzero(d.a, axis=0) <= 1)
        got = solvers._atk_atka(k, d.a)
        want = dense_atk_atka(k, d.a)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("form", ["dense", "nystrom"])
def test_restricted_algebra_matches_dense_for_random_dictionaries(sep5_kernels, form):
    k = sep5_kernels[1][form]
    rng = np.random.default_rng(8)
    a = np.zeros((k.n, 4))
    for j in range(4):
        a[rng.choice(k.n, size=6, replace=False), j] = rng.random(6) + 0.1
    zero_rows = ~np.any(a != 0.0, axis=1)
    w = np.abs(rng.normal(size=(4, k.n)))
    for got, want in zip(solvers._atk_atka(k, a), dense_atk_atka(k, a)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    out = mult_update_A(k, w, Dictionary(a), inner_tol=0.0, max_inner=5)
    np.testing.assert_allclose(
        out.a, dense_mult_update(k, w, a, 5), rtol=1e-12, atol=0.0
    )
    assert np.all(out.a[zero_rows] == 0.0)


def test_factored_fits_never_densify_the_kernel(sep5_kernels, monkeypatch):
    tg, kernels, _ = sep5_kernels
    k = kernels["nystrom"]
    lap = graph_laplacian(build_endpoint_graph(tg))
    init = random_selection_init(k, m=5, seed=4)

    def refuse(self):
        raise AssertionError("the n×n kernel was materialized")

    monkeypatch.setattr(KernelMatrix, "dense", refuse)
    res = ksc_fit(k, SolverConfig(m=5, t_outer=3), init)
    assert res.iterations >= 1
    cfg = SolverConfig(m=5, lambda2=0.0, lambda_l=0.01, t_outer=3, t_inner=3)
    res = gksc_fit(k, cfg, init, laplacian=lap)
    assert res.iterations >= 1


@pytest.mark.parametrize(
    "fit", ["kkm", "ksc", "gksc", "gksc_l1", "gksc_laplacian", "gksc_dissolved"]
)
def test_fit_labels_come_from_final_w(sep5_kernels, fit):
    tg, kernels, _ = sep5_kernels
    k = kernels["dense"]
    init = spectral_init(k, m=8, seed=1)
    cfg = SolverConfig(m=8, t_outer=8, lambda2=0.0)
    lap = graph_laplacian(build_endpoint_graph(tg))
    res = {
        "kkm": lambda: kkm_fit(k, cfg, init),
        "ksc": lambda: ksc_fit(k, cfg, init),
        "gksc": lambda: gksc_fit(k, SolverConfig(m=8), init),
        "gksc_l1": lambda: gksc_fit(k, cfg, init),
        "gksc_laplacian": lambda: gksc_fit(
            k, SolverConfig(m=8, t_outer=8, lambda2=0.0, lambda_l=0.01), init, lap
        ),
        "gksc_dissolved": lambda: gksc_fit(k, SolverConfig(m=8, lambda2=1e6), init),
    }[fit]()
    labels, unassigned = hard_labels(res.assignment.w, exclude=res.dictionary.empty)
    assert np.array_equal(res.labels.labels, labels.labels)
    assert res.labels.m == labels.m == 8
    assert np.array_equal(res.unassigned, unassigned)


def test_full_support_algebra_allocates_no_kernel_sized_array():
    rng = np.random.default_rng(9)
    x, truth = axis_blobs(rng, m=3, per=200)
    k = rbf_from_points(x)
    w = solvers._one_hot(truth, 3)
    a = kkm_dictionary(w).a
    assert np.all(np.any(a != 0.0, axis=1))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        solvers._atk_atka(k, a)
        mult_update_A(k, w, a, inner_tol=0.0, max_inner=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < k.n * k.n * 8


def test_group_fit_factors_once_per_w_step(monkeypatch):
    rng = np.random.default_rng(10)
    x, truth = axis_blobs(rng, m=3, per=10)
    k = rbf_from_points(x)
    counts = {"w_steps": 0, "factor": 0, "solve": 0}
    real_step, real_factor, real_solve = (
        solvers._admm_w_step, scipy.linalg.cho_factor, scipy.linalg.cho_solve
    )

    def step(*args, **kwargs):
        counts["w_steps"] += 1
        return real_step(*args, **kwargs)

    def factor(*args, **kwargs):
        counts["factor"] += 1
        return real_factor(*args, **kwargs)

    def solve(*args, **kwargs):
        counts["solve"] += 1
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(solvers, "_admm_w_step", step)
    monkeypatch.setattr(scipy.linalg, "cho_factor", factor)
    monkeypatch.setattr(scipy.linalg, "cho_solve", solve)
    cfg = SolverConfig(m=4, t_outer=3, t_inner=7, eps_primal=1e-300)
    res = gksc_fit(k, cfg, Labeling(np.r_[truth[:-1], 3], m=4))
    assert res.iterations >= 1
    assert counts["w_steps"] >= res.iterations
    assert counts["factor"] == counts["w_steps"]
    assert counts["solve"] == counts["w_steps"]


# --- pruning and hard labels -----------------------------------------------

def test_prune_zeroes_small_entries_only():
    a = np.array([[1.0, 0.3], [1e-9, 0.3], [5e-6, 0.0]])
    out = prune_dictionary(a, threshold_rel=1e-6)
    assert out.a[0, 0] == 1.0
    assert out.a[1, 0] == 0.0  # below 1e-6 of the column max
    assert out.a[2, 0] == 5e-6
    assert not out.empty.any()


def test_prune_flags_empty_columns_and_keeps_old_flags():
    a = Dictionary(
        np.array([[0.0, 1.0, 2.0], [0.0, 1.0, 0.5]]),
        empty=np.array([False, True, False]),
    )
    out = prune_dictionary(a)
    assert out.empty.tolist() == [True, True, False]


def test_hard_labels_one_hot_and_ties():
    w = np.array([[1.0, 0.2, 0.0], [0.0, 0.2, 0.0]])
    lab, unassigned = hard_labels(w)
    assert lab.labels.tolist() == [0, 0, 0]
    assert unassigned.tolist() == [False, False, True]


def test_hard_labels_respects_exclusions():
    w = np.array([[5.0, 5.0], [1.0, 1.0]])
    lab, unassigned = hard_labels(w, exclude=np.array([True, False]))
    assert lab.labels.tolist() == [1, 1]
    assert not unassigned.any()


# --- shrinkage operators ---------------------------------------------------

def test_shrink_l1_examples():
    assert shrink_l1(np.array([-3.0]), 1.0)[0] == 0.0
    assert shrink_l1(np.array([5.0]), 2.0)[0] == 3.0
    x = np.abs(np.random.default_rng(0).normal(size=(3, 4)))
    assert np.array_equal(shrink_l1(x, 0.0), x)
    with pytest.raises(ValueError):
        shrink_l1(x, -1.0)


# --- sparse solver ---------------------------------------------------------

def test_ksc_recovers_separated_blobs():
    rng = np.random.default_rng(40)
    x, truth = axis_blobs(rng)
    k = rbf_from_points(x)
    cfg = SolverConfig(m=3, s_max=2)
    res = ksc_fit(k, cfg, spectral_init(k, 3))
    assert res.converged
    assert adjusted_rand_index(truth, np.asarray(res.labels.labels)) == 1.0
    w = res.assignment.w
    assert np.all(w >= 0.0)
    assert np.all((w != 0).sum(axis=0) <= cfg.s_max)
    assert not res.unassigned.any()


def test_ksc_identical_streamlines_reconstruct_exactly():
    n = 8
    k = KernelMatrix(n, 1.0, 0.0, dense_values=np.ones((n, n)))
    init = Labeling(np.arange(n) % 2, m=2)
    res = ksc_fit(k, SolverConfig(m=2, s_max=2), init)
    assert abs(res.cost_trace[-1]) < 1e-9
    assert len(set(np.asarray(res.labels.labels))) == 1
    assert not res.unassigned.any()


def test_ksc_bitwise_deterministic():
    rng = np.random.default_rng(41)
    x, _ = axis_blobs(rng)
    k = rbf_from_points(x)
    init = spectral_init(k, 3)
    r1 = ksc_fit(k, SolverConfig(m=3), init)
    r2 = ksc_fit(k, SolverConfig(m=3), init)
    assert np.array_equal(r1.assignment.w, r2.assignment.w)
    assert np.array_equal(r1.dictionary.a, r2.dictionary.a)
    assert r1.cost_trace == r2.cost_trace


# --- ADMM solver -----------------------------------------------------------

def _floor_kernel(x, gamma=0.02, floor=0.5):
    """RBF similarity mixed with a constant floor; entries stay >= floor."""
    base = rbf_from_points(x, gamma).dense()
    vals = floor + (1.0 - floor) * base
    return KernelMatrix(x.shape[0], gamma, 0.0, dense_values=(vals + vals.T) / 2)


def test_gksc_large_mu_matches_ridge_solution():
    rng = np.random.default_rng(50)
    x, truth = axis_blobs(rng, m=3, per=8)
    k = _floor_kernel(x)
    init = Labeling(truth, m=3)
    d = init_dictionary_from_labels(init, k)
    atk = d.a.T @ k.dense()
    atka = (atk @ d.a + (atk @ d.a).T) / 2
    mu = 50.0
    from tractsparse.linalg import ridge_solve

    w_ridge = ridge_solve(atka, atk, ridge=mu)
    assert np.all(w_ridge >= 0.0)  # precondition for the exact-match claim
    cfg = SolverConfig(m=3, lambda1=0.0, lambda2=0.0, mu=mu, t_outer=1)
    res = gksc_fit(k, cfg, init)
    assert res.primal_residual_trace[0] < cfg.eps_primal
    assert np.array_equal(res.assignment.w, w_ridge)


def test_gksc_final_assignment_nonnegative_and_traced():
    rng = np.random.default_rng(51)
    x, truth = axis_blobs(rng)
    k = rbf_from_points(x)
    res = gksc_fit(k, SolverConfig(m=3, t_outer=5), Labeling(truth, m=3))
    assert np.all(res.assignment.w >= 0.0)
    assert len(res.primal_residual_trace) == len(res.cost_trace)
    assert len(res.cost_trace) == res.iterations


def test_gksc_recovers_blobs_with_default_weights():
    rng = np.random.default_rng(52)
    x, truth = axis_blobs(rng)
    k = rbf_from_points(x)
    res = gksc_fit(k, SolverConfig(m=3), spectral_init(k, 3))
    got = np.asarray(res.labels.labels)[~res.unassigned]
    want = truth[~res.unassigned]
    assert res.unassigned.mean() < 0.1
    assert adjusted_rand_index(want, got) == 1.0


def test_gksc_huge_group_weight_dissolves_everything():
    rng = np.random.default_rng(53)
    x, truth = axis_blobs(rng, m=2, per=8)
    k = rbf_from_points(x)
    cfg = SolverConfig(m=2, lambda2=1e6, t_outer=3)
    res = gksc_fit(k, cfg, Labeling(truth, m=2))
    assert res.unassigned.all()
    assert np.all(res.assignment.w == 0.0)
    assert res.dictionary.empty.all()


def test_gksc_sparsity_increases_with_l1_weight():
    rng = np.random.default_rng(54)
    x, truth = axis_blobs(rng, m=3, per=10)
    k = rbf_from_points(x)
    init = Labeling(truth, m=3)
    mean_nnz = []
    for lam1 in (0.0, 0.001, 0.01, 0.1, 0.5):
        cfg = SolverConfig(m=3, lambda1=lam1, lambda2=0.0, t_outer=3)
        res = gksc_fit(k, cfg, init)
        mean_nnz.append((res.assignment.w != 0).sum(axis=0).mean())
    assert all(b <= a + 1e-12 for a, b in zip(mean_nnz, mean_nnz[1:]))


def test_gksc_bitwise_deterministic():
    rng = np.random.default_rng(55)
    x, truth = axis_blobs(rng)
    k = rbf_from_points(x)
    init = Labeling(truth, m=3)
    r1 = gksc_fit(k, SolverConfig(m=3, t_outer=4), init)
    r2 = gksc_fit(k, SolverConfig(m=3, t_outer=4), init)
    assert np.array_equal(r1.assignment.w, r2.assignment.w)
    assert np.array_equal(r1.dictionary.a, r2.dictionary.a)
    assert r1.cost_trace == r2.cost_trace
    assert r1.primal_residual_trace == r2.primal_residual_trace


def test_gksc_budget_exhaustion_is_not_fatal():
    rng = np.random.default_rng(56)
    x, truth = axis_blobs(rng, m=2, per=6)
    k = rbf_from_points(x)
    cfg = SolverConfig(m=2, t_outer=1, t_inner=1)
    res = gksc_fit(k, cfg, Labeling(truth, m=2))
    assert isinstance(res, FitResult)
    assert not res.converged


def test_row_values_price_copies_low_and_lone_rows_at_one():
    # unit-atom projections: rows 0 and 1 overlap, row 2 is on its own
    atk = np.array([[0.9, 0.6, 0.0], [0.6, 0.9, -0.2], [0.0, 0.0, 0.7]])
    labels = np.array([0, 1, 2])
    value = _row_values(atk, labels, np.ones(3, dtype=bool))
    assert value == pytest.approx([(0.81 - 0.36) / 0.81, (0.81 - 0.36) / 0.81, 1.0])
    copy = np.vstack([atk[0], atk[0], atk[2]])
    assert _row_values(copy, np.array([0, 0, 2]), np.ones(3, dtype=bool))[0] == 0.0
    # once row 1 is dead its members count on row 0 alone
    live = np.array([True, False, True])
    value = _row_values(atk, np.array([0, 0, 2]), live)
    assert value.tolist() == [1.0, np.inf, 1.0]


def test_gksc_inner_budget_keeps_rows_the_converged_fit_keeps():
    rng = np.random.default_rng(57)
    x, truth = axis_blobs(rng)
    k = rbf_from_points(x)
    init = spectral_init(k, 6)
    converged = gksc_fit(k, SolverConfig(m=6), init)
    kept = int(np.sum(~converged.dictionary.empty))
    assert kept == 3  # the converged fit retires the three spare rows
    # an unreachable tolerance makes every inner loop stop on t_inner
    budget = gksc_fit(k, SolverConfig(m=6, t_inner=2, eps_primal=1e-300), init)
    assert not budget.converged
    # which of two copies of a blob survives is arbitrary, so compare the
    # clusters the rows stand for rather than row indices
    assert int(np.sum(~budget.dictionary.empty)) == kept
    assert int(np.sum(np.linalg.norm(budget.assignment.w, axis=1) > 0.0)) == kept
    assert not budget.unassigned.any()
    assert adjusted_rand_index(budget.labels, converged.labels) == 1.0


def test_default_group_weight_scales_with_row_length():
    assert default_lambda2(0.01, 400, 4) == pytest.approx(
        2.0 * default_lambda2(0.01, 100, 4)
    )
    assert default_lambda2(0.02, 100, 4) == pytest.approx(
        2.0 * default_lambda2(0.01, 100, 4)
    )


# --- ADMM solver, graph-smoothed variant -----------------------------------

def _chain_laplacian(n, groups):
    """Path-graph Laplacian within each index group."""
    adj = np.zeros((n, n))
    for g in groups:
        for a, b in zip(g, g[1:]):
            adj[a, b] = adj[b, a] = 1.0
    return np.diag(adj.sum(axis=1)) - adj


def test_gksc_manifold_recovers_blobs():
    rng = np.random.default_rng(60)
    x, truth = axis_blobs(rng, m=2, per=10)
    k = rbf_from_points(x)
    lap = _chain_laplacian(k.n, [range(10), range(10, 20)])
    cfg = SolverConfig(m=2, lambda_l=0.05)
    res = gksc_fit(k, cfg, Labeling(truth, m=2), laplacian=lap)
    got = np.asarray(res.labels.labels)[~res.unassigned]
    assert adjusted_rand_index(truth[~res.unassigned], got) == 1.0


def test_gksc_manifold_ignores_group_weight():
    rng = np.random.default_rng(61)
    x, truth = axis_blobs(rng, m=2, per=8)
    k = rbf_from_points(x)
    lap = _chain_laplacian(k.n, [range(8), range(8, 16)])
    cfg = SolverConfig(m=2, lambda_l=0.05, lambda2=1e9, t_outer=3)
    res = gksc_fit(k, cfg, Labeling(truth, m=2), laplacian=lap)
    assert not res.dictionary.empty.any()  # nothing dissolved
    assert not res.unassigned.all()


def test_gksc_manifold_requires_positive_weight():
    k = KernelMatrix(4, 1.0, 0.0, dense_values=np.eye(4) + 0.1)
    lap = _chain_laplacian(4, [range(4)])
    with pytest.raises(ValueError):
        gksc_fit(k, SolverConfig(m=2), Labeling(np.r_[0, 0, 1, 1], m=2), laplacian=lap)
    with pytest.raises(ValueError):
        gksc_fit(
            k,
            SolverConfig(m=2, lambda_l=0.1),
            Labeling(np.r_[0, 0, 1, 1], m=2),
            laplacian=np.eye(3),
        )


def _interleaved_laplacian(rng, n, sizes):
    """Laplacian of random connected components on interleaved indices.

    The streamlines left over after ``sizes`` are isolated (degree 0).
    """
    order = rng.permutation(n)
    adj = np.zeros((n, n))
    start = 0
    for size in sizes:
        idx = order[start:start + size]
        start += size
        for a, b in zip(idx, idx[1:]):  # a path keeps the component connected
            adj[a, b] = adj[b, a] = rng.uniform(0.5, 2.0)
        extra = rng.choice(idx, size=(size, 2))
        adj[extra[:, 0], extra[:, 1]] = adj[extra[:, 1], extra[:, 0]] = 1.0
    np.fill_diagonal(adj, 0.0)
    return np.diag(adj.sum(axis=1)) - adj, order[start:]


def test_blockwise_w_solve_matches_full_q_solve():
    rng = np.random.default_rng(63)
    n, m, lam = 60, 4, 0.05
    lap, isolated = _interleaved_laplacian(rng, n, [25, 14, 9])
    assert isolated.size == 12
    blocks = solvers._laplacian_blocks(lap, lam, n)
    sizes = sorted(idx.size for idx, _, _ in blocks)
    assert sizes == [9, 14, 25]  # the isolated streamlines get no block
    g = rng.normal(size=(m, m))
    atka, mu = g @ g.T, 0.01
    r = rng.normal(size=(m, n))
    got = solvers._w_solver(atka, mu, blocks)(r)
    want = linalg.sylvester_solve(atka + mu * np.eye(m), lam * lap, r)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
    assert np.linalg.norm(got[:, isolated] - want[:, isolated]) <= 1e-10 * np.linalg.norm(
        want[:, isolated]
    )


@pytest.mark.parametrize("seed", range(5))
def test_laplacian_blocks_are_the_graph_components(seed):
    import scipy.sparse.csgraph  # the oracle, in this test only

    rng = np.random.default_rng(70 + seed)
    n, lam = 120, 0.05
    adj = np.triu(rng.random((n, n)) < rng.uniform(0.005, 0.02), 1)
    adj = (adj | adj.T).astype(np.float64)
    lap = np.diag(adj.sum(axis=1)) - adj
    assert (adj.sum(axis=1) == 0).any()  # some streamlines are isolated
    count, comp = scipy.sparse.csgraph.connected_components(adj, directed=False)
    want = [idx for idx in np.split(np.argsort(comp, kind="stable"),
                                    np.cumsum(np.bincount(comp))[:-1]) if idx.size > 1]
    blocks = solvers._laplacian_blocks(lap, lam, n)
    assert [idx.tolist() for idx, _, _ in blocks] == [idx.tolist() for idx in want]
    for idx, q, _ in blocks:
        assert q.tobytes() == (lam * lap[np.ix_(idx, idx)]).tobytes()


@pytest.mark.parametrize("row, col", [(3, 0), (0, 3)], ids=["later-row", "earlier-row"])
def test_laplacian_blocks_reject_an_asymmetric_laplacian(row, col):
    lap = np.array([[1.0, -1.0, 0.0, 0.0], [-1.0, 1.0, 0.0, 0.0],
                    [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    lap[row, col] = -1.0
    with pytest.raises(ValueError, match="symmetric"):
        solvers._laplacian_blocks(lap, 0.1, 4)


def test_laplacian_blocks_hold_no_sparse_copy_of_the_laplacian():
    # the blocks and their Schur forms hold about 1.1·n²·8 bytes on sep5; a
    # sparse copy of L's 490k non-zeros pushed the peak to 3.6·n²·8
    tg, _ = synth.preset_separated5(seed=0, total_count=1000)
    lap = graph_laplacian(build_endpoint_graph(tg))
    n = len(tg)
    blocks, peak = traced_peak(solvers._laplacian_blocks, lap, solvers.DEFAULT_LAMBDA_L, n)
    assert len(blocks) > 1
    assert peak <= 2.0 * n * n * 8


def test_laplacian_fit_never_decomposes_an_n_by_n_matrix(sep5_kernels, monkeypatch):
    tg, kernels, labels = sep5_kernels
    k = kernels["dense"]
    lap = graph_laplacian(build_endpoint_graph(tg))
    sizes = []
    real_eig = linalg.sym_eig

    def recording_eig(a, count=None):
        sizes.append(np.shape(a)[0])
        return real_eig(a, count)

    monkeypatch.setattr(linalg, "sym_eig", recording_eig)
    monkeypatch.setattr(solvers, "sym_eig", recording_eig)
    cfg = SolverConfig(m=5, lambda2=0.0, lambda_l=0.01, t_outer=3)
    res = gksc_fit(k, cfg, labels, laplacian=lap)
    assert res.iterations >= 1
    assert sizes and max(sizes) < k.n


def test_zero_laplacian_fit_is_the_l1_fit_with_no_sylvester_call(monkeypatch):
    rng = np.random.default_rng(64)
    x, truth = axis_blobs(rng, m=2, per=8)
    k = rbf_from_points(x)
    counts = {"inner": 0, "sylvester": 0}
    real_shrink, real_sylvester = solvers.shrink_l1, solvers.sylvester_solve

    def shrink(*args, **kwargs):
        counts["inner"] += 1
        return real_shrink(*args, **kwargs)

    def sylvester(*args, **kwargs):
        counts["sylvester"] += 1
        return real_sylvester(*args, **kwargs)

    monkeypatch.setattr(solvers, "shrink_l1", shrink)
    monkeypatch.setattr(solvers, "sylvester_solve", sylvester)
    cfg = SolverConfig(m=2, lambda2=0.0, lambda_l=0.01, t_outer=3, t_inner=5,
                       eps_primal=1e-300)
    zero = gksc_fit(k, cfg, Labeling(truth, m=2), laplacian=np.zeros((k.n, k.n)))
    assert counts["inner"] >= 5
    assert counts["sylvester"] == 0
    plain = gksc_fit(k, cfg, Labeling(truth, m=2))
    assert zero.assignment.w.tobytes() == plain.assignment.w.tobytes()
    assert zero.dictionary.a.tobytes() == plain.dictionary.a.tobytes()
    assert zero.cost_trace == plain.cost_trace
    assert zero.primal_residual_trace == plain.primal_residual_trace


def test_edgeless_graph_fit_allocates_less_than_an_n_by_n_array():
    n, m = 800, 4
    k = kernel_from_distances(random_distances(n, seed=3))
    lap = graph_laplacian(EndpointGraph(np.zeros((n, n), dtype=np.uint8), 7.0))
    init = Labeling(np.arange(n) % m, m=m)
    cfg = SolverConfig(m=m, lambda2=0.0, lambda_l=0.01, t_outer=2, t_inner=5)
    res, peak = traced_peak(gksc_fit, k, cfg, init, laplacian=lap)
    assert res.iterations >= 1
    assert peak < n * n * 8


def test_gksc_manifold_bitwise_deterministic():
    rng = np.random.default_rng(62)
    x, truth = axis_blobs(rng, m=2, per=8)
    k = rbf_from_points(x)
    lap = _chain_laplacian(k.n, [range(8), range(8, 16)])
    cfg = SolverConfig(m=2, lambda_l=0.05, t_outer=3)
    r1 = gksc_fit(k, cfg, Labeling(truth, m=2), laplacian=lap)
    r2 = gksc_fit(k, cfg, Labeling(truth, m=2), laplacian=lap)
    assert np.array_equal(r1.assignment.w, r2.assignment.w)
    assert r1.cost_trace == r2.cost_trace


# --- segmentation against a fitted dictionary ------------------------------

def test_segment_training_columns_reproduces_training_labels():
    rng = np.random.default_rng(70)
    x, truth = axis_blobs(rng)
    k = rbf_from_points(x)
    res = ksc_fit(k, SolverConfig(m=3, s_max=2), spectral_init(k, 3))
    # unshifted cross-kernel of the training set against itself is just K
    _, lab, unassigned = segment_with_dictionary(
        k, res.dictionary, k.dense(), s_max=2
    )
    assert np.array_equal(lab.labels, res.labels.labels)
    assert np.array_equal(unassigned, res.unassigned)


def test_segment_medoid_column_gets_dominant_weight():
    rng = np.random.default_rng(71)
    x, truth = axis_blobs(rng)
    k = rbf_from_points(x)
    d = init_dictionary_from_labels(Labeling(truth, m=3), k)
    medoid = int(np.flatnonzero(d.a[:, 1])[0])
    w, lab, unassigned = segment_with_dictionary(
        k, d, k.dense()[:, [medoid]], s_max=3
    )
    assert lab.labels[0] == 1
    assert not unassigned[0]
    assert int(np.argmax(w.w[:, 0])) == 1


def test_segment_rejects_wrong_row_count():
    k = KernelMatrix(4, 1.0, 0.0, dense_values=np.eye(4) + 0.1)
    with pytest.raises(ValueError):
        segment_with_dictionary(k, np.ones((3, 2)), np.ones((4, 1)), 1)
