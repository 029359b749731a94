"""Acceptance suite: one test per shipped guarantee.

Each test is self-contained and prints a single pass/fail line under
``pytest -v``. Wall-clock budgets are asserted after the substantive
checks so a real regression is reported before a slow machine is.

Heavy shared inputs (the five-bundle benchmark kernels) are built once
on first use and cached at module scope; the first test that needs them
pays for them inside its own budget.
"""

import hashlib
import json
import time
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from oracles import (
    NAIVE_DISTANCES,
    naive_ari,
    naive_rand_index,
    nnls_on_support,
    reference_lloyd,
)

from tractsparse.cli import main as cli_main
from tractsparse.distances import (
    build_endpoint_graph,
    dist_ep,
    dist_hausdorff,
    dist_mcp,
    graph_laplacian,
    pairwise_distances,
)
from tractsparse.errors import RankDeficientWarning
from tractsparse.kernel import (
    KernelMatrix,
    kernel_from_distances,
    nystrom_kernel,
)
from tractsparse.metrics import adjusted_rand_index, rand_index
from tractsparse.model import Labeling, SolverConfig, Streamline, Tractogram
from tractsparse.solvers import (
    DEFAULT_LAMBDA_L,
    Dictionary,
    default_lambda2,
    gksc_fit,
    hard_labels,
    kkm_assign,
    kkm_fit,
    ksc_fit,
    mult_update_A,
    nnkomp,
    reconstruction_cost,
    spectral_init,
)
from tractsparse.atlas import build_atlas, segment_with_atlas
from tractsparse.synth import preset_crossing2, preset_overlap3, preset_separated5

MEASURE_FNS = {"mcp": dist_mcp, "haus": dist_hausdorff, "ep": dist_ep}

SEEDS = range(10)

# lazily built (kernel, truth) per data seed, plus spectral labelings per
# (seed, m); shared across the five-bundle tests
_SEP5 = {}
_SEP5_INIT = {}


def sep5(seed):
    if seed not in _SEP5:
        tract, truth = preset_separated5(seed=seed)
        d = pairwise_distances(tract, "mcp")
        _SEP5[seed] = (kernel_from_distances(d), truth)
    return _SEP5[seed]


def sep5_init(seed, m):
    if (seed, m) not in _SEP5_INIT:
        k, _ = sep5(seed)
        _SEP5_INIT[(seed, m)] = spectral_init(k, m=m, seed=seed)
    return _SEP5_INIT[(seed, m)]


def random_streamline(rng, n_min=5, n_max=30):
    n = int(rng.integers(n_min, n_max + 1))
    return Streamline(points=rng.normal(0.0, 10.0, size=(n, 3)))


def blob_points(rng, n, d, m, spread=20.0, sigma=1.5):
    centers = rng.normal(0.0, spread, size=(m, d))
    labels = np.repeat(np.arange(m), n // m + 1)[:n]
    return centers[labels] + rng.normal(0.0, sigma, size=(n, d)), labels


def rbf_from_points(x, gamma=None):
    d = cdist(x, x)
    if gamma is None:
        gamma = 1.0 / (2.0 * np.median(d[d > 0]) ** 2)
    return KernelMatrix(n=len(x), gamma=gamma, dense_values=np.exp(-gamma * d * d))


def non_empty_rows(w):
    return int(np.sum(np.linalg.norm(w, axis=1) > 0.0))


def sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_distance_functions_match_naive_reference():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    shift = np.array([53.0, -21.0, 8.0])
    for _ in range(100):
        a = random_streamline(rng)
        b = random_streamline(rng)
        a_moved = Streamline(points=a.points + shift)
        b_moved = Streamline(points=b.points + shift)
        for name, fast in MEASURE_FNS.items():
            got = fast(a, b)
            want = NAIVE_DISTANCES[name](a.points, b.points)
            assert got == want, f"{name}: {got!r} != naive {want!r}"
            assert abs(fast(b, a) - got) <= 1e-12
            assert abs(fast(a_moved, b_moved) - got) <= 1e-12
    assert time.perf_counter() - t0 < 5.0


def test_rand_scores_match_pair_enumeration():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(5, 201))
        a = rng.integers(0, int(rng.integers(2, 8)), size=n)
        b = rng.integers(0, int(rng.integers(2, 8)), size=n)
        assert abs(rand_index(a, b) - naive_rand_index(a, b)) <= 1e-12
        assert abs(adjusted_rand_index(a, b) - naive_ari(a, b)) <= 1e-12
    # chance-level agreement scores near zero on average
    scores = []
    for _ in range(100):
        a = rng.integers(0, 5, size=200)
        b = rng.integers(0, 5, size=200)
        scores.append(adjusted_rand_index(a, b))
    assert abs(np.mean(scores)) <= 0.02
    assert time.perf_counter() - t0 < 10.0


def test_kernel_kmeans_equals_lloyd_on_linear_kernel():
    t0 = time.perf_counter()
    m = 4
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x, blob = blob_points(rng, n=50, d=6, m=m)
        k = KernelMatrix(n=50, gamma=1.0, dense_values=x @ x.T)
        # one seed point per blob keeps every cluster alive, which the
        # Euclidean oracle requires; the two solvers still get the same start
        seeds = np.array([rng.choice(np.nonzero(blob == j)[0]) for j in range(m)])
        init = np.argmin(cdist(x, x[seeds]), axis=1)
        got = kkm_fit(k, SolverConfig(m=m, seed=seed), Labeling(init, m=m))
        want = reference_lloyd(x, init, m)
        np.testing.assert_array_equal(np.asarray(got.labels.labels), want)
    assert time.perf_counter() - t0 < 5.0


def test_pursuit_matches_nearest_prototype_and_nnls():
    t0 = time.perf_counter()
    # single-atom budget reduces to the nearest-prototype rule
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x, _ = blob_points(rng, n=40, d=3, m=4)
        k = rbf_from_points(x)
        sel = np.zeros((40, 5))
        sel[rng.choice(40, size=5, replace=False), np.arange(5)] = 1.0
        a = Dictionary(sel)
        w = np.column_stack([nnkomp(k, a, i, s_max=1) for i in range(40)])
        labeling, unassigned = hard_labels(w)
        assert not unassigned.any()
        np.testing.assert_array_equal(
            np.asarray(labeling.labels), kkm_assign(k, a)
        )
    # two-atom weights equal non-negative least squares on the chosen support
    checked = 0
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        x = rng.normal(size=(30, 6))
        k = KernelMatrix(n=30, gamma=1.0, dense_values=x @ x.T)
        a = rng.random((30, 3))
        gram = a.T @ (x @ x.T) @ a
        corr = a.T @ (x @ x.T)
        for i in range(30):
            w = nnkomp(k, Dictionary(a), i, s_max=2)
            assert np.all(w >= 0.0)
            support = np.nonzero(w)[0]
            assert len(support) <= 2
            if len(support) == 0:
                continue
            ref = nnls_on_support(gram, corr[:, i], support)
            assert np.max(np.abs(w - ref)) <= 1e-9
            checked += 1
    assert checked > 100
    assert time.perf_counter() - t0 < 5.0


def test_costs_never_increase():
    t0 = time.perf_counter()
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x, _ = blob_points(rng, n=80, d=3, m=4)
        k = rbf_from_points(x)
        init = Labeling(rng.integers(0, 4, size=80), m=4)
        trace = kkm_fit(k, SolverConfig(m=4, seed=seed), init).cost_trace
        for prev, cur in zip(trace, trace[1:]):
            assert cur <= prev + 1e-10 * max(abs(prev), 1.0)
    for seed in range(20):
        rng = np.random.default_rng(200 + seed)
        x, _ = blob_points(rng, n=60, d=3, m=3)
        k = rbf_from_points(x)
        a = rng.random((60, 4))
        w = rng.random((4, 60))
        prev = reconstruction_cost(k, a, w)
        for _ in range(25):
            a = mult_update_A(k, w, a, max_inner=1).a
            cur = reconstruction_cost(k, a, w)
            assert cur <= prev + 1e-10 * max(abs(prev), 1.0)
            prev = cur
    assert time.perf_counter() - t0 < 30.0


def test_separated_bundles_recovered_with_sparse_coding():
    t0 = time.perf_counter()
    ksc_scores, kkm_scores = [], []
    for seed in SEEDS:
        k, truth = sep5(seed)
        init = sep5_init(seed, 5)
        cfg = SolverConfig(m=5, s_max=3, seed=seed)
        ksc_scores.append(
            adjusted_rand_index(ksc_fit(k, cfg, init).labels, truth)
        )
        kkm_scores.append(
            adjusted_rand_index(kkm_fit(k, cfg, init).labels, truth)
        )
    assert np.median(ksc_scores) >= 0.95
    for soft, hard in zip(ksc_scores, kkm_scores):
        assert soft >= hard - 0.02
    assert time.perf_counter() - t0 < 120.0


def test_group_prior_collapses_excess_clusters():
    t0 = time.perf_counter()
    counts = []
    for seed in SEEDS:
        k, _ = sep5(seed)
        init = sep5_init(seed, 10)
        res = gksc_fit(k, SolverConfig(m=10, seed=seed), init)
        counts.append(non_empty_rows(res.assignment.w))
    assert all(4 <= c <= 6 for c in counts), f"cluster counts {counts}"
    assert np.median(counts) == 5, f"cluster counts {counts}"
    assert time.perf_counter() - t0 < 180.0


def test_group_prior_keeps_crossing_bundles_apart():
    # the two bundles share their middle, so their atoms are far from
    # orthogonal; the default prior must still keep a row for each
    t0 = time.perf_counter()
    for seed in range(3):
        tract, truth = preset_crossing2(seed=seed)
        k = kernel_from_distances(pairwise_distances(tract, "mcp"))
        init = spectral_init(k, m=2, seed=seed)
        res = gksc_fit(k, SolverConfig(m=2, seed=seed), init)
        assert non_empty_rows(res.assignment.w) == 2, f"seed {seed}"
        assert adjusted_rand_index(res.labels, truth) == 1.0, f"seed {seed}"
    assert time.perf_counter() - t0 < 10.0


def test_sparsity_knobs_are_monotone():
    t0 = time.perf_counter()
    k, _ = sep5(0)
    init = sep5_init(0, 10)
    mu = 0.01
    lam2_default = default_lambda2(mu, k.n, 10)

    col_l0 = []
    for ratio in (0.02, 0.1, 0.5, 2.5, 12.5):
        cfg = SolverConfig(m=10, lambda1=ratio * mu, lambda2=lam2_default, mu=mu)
        w = gksc_fit(k, cfg, init).assignment.w
        col_l0.append(np.mean(np.count_nonzero(w, axis=0)))
    assert all(b <= a + 1e-12 for a, b in zip(col_l0, col_l0[1:])), col_l0

    rows = []
    for ratio in (10.0, 20.0, 40.0, 80.0, 160.0):
        cfg = SolverConfig(m=10, lambda2=ratio * mu, mu=mu)
        rows.append(non_empty_rows(gksc_fit(k, cfg, init).assignment.w))
    assert all(b <= a for a, b in zip(rows, rows[1:])), rows
    assert time.perf_counter() - t0 < 180.0


def test_admm_inner_convergence_and_outer_stabilization():
    t0 = time.perf_counter()
    for seed in SEEDS:
        k, _ = sep5(seed)
        init = sep5_init(seed, 5)
        res = gksc_fit(k, SolverConfig(m=5, seed=seed), init)
        # the recorded residual is the inner loop's exit value, so staying
        # under the threshold means every sweep converged within budget
        assert max(res.primal_residual_trace) < 1e-4
        trace = res.cost_trace
        assert len(trace) <= 30
        tail = trace[-5:]
        for prev, cur in zip(tail, tail[1:]):
            assert abs(cur - prev) <= 1e-3 * max(abs(prev), 1.0)
        assert trace[-1] <= trace[0] + 1e-3 * max(abs(trace[0]), 1.0)
    assert time.perf_counter() - t0 < 120.0


def test_endpoint_prior_preserves_graph_overlap(monkeypatch):
    t0 = time.perf_counter()
    import tractsparse.solvers as solvers_mod

    real_solve = solvers_mod.sylvester_solve
    residuals = []

    def recording_solve(p, q, r, schur_q=None):
        w = real_solve(p, q, r, schur_q=schur_q)
        residuals.append(
            np.linalg.norm(p @ w + w @ q - r) / np.linalg.norm(r)
        )
        return w

    monkeypatch.setattr(solvers_mod, "sylvester_solve", recording_solve)

    def edge_overlap(graph, labeling, unassigned):
        ii, jj = np.nonzero(np.triu(np.asarray(graph.adjacency), 1))
        lab = np.asarray(labeling.labels)
        assigned = ~np.asarray(unassigned)
        good = (lab[ii] == lab[jj]) & assigned[ii] & assigned[jj]
        return float(np.sum(good)) / len(ii)

    plain, smoothed = [], []
    for seed in SEEDS:
        tract, _ = preset_overlap3(seed=seed)
        d = pairwise_distances(tract, "mcp")
        k = kernel_from_distances(d)
        graph = build_endpoint_graph(tract, 7.0)
        init = spectral_init(k, m=3, seed=seed)

        off = gksc_fit(k, SolverConfig(m=3, lambda2=0.0, seed=seed), init)
        plain.append(edge_overlap(graph, off.labels, off.unassigned))

        on = gksc_fit(
            k,
            SolverConfig(m=3, lambda2=0.0, lambda_l=DEFAULT_LAMBDA_L, seed=seed),
            init,
            laplacian=graph_laplacian(graph),
        )
        smoothed.append(edge_overlap(graph, on.labels, on.unassigned))

    assert residuals, "the smoothed variant never hit the coupled solver"
    assert max(residuals) <= 1e-8
    assert np.median(smoothed) >= np.median(plain), (plain, smoothed)
    assert time.perf_counter() - t0 < 180.0


def test_landmark_factorization_reconstructs_kernel():
    t0 = time.perf_counter()
    tract, _ = preset_crossing2(seed=2, count_per_bundle=30)
    d = pairwise_distances(tract, "mcp")
    dense = kernel_from_distances(d)
    approx = nystrom_kernel(tract, "mcp", gamma=dense.gamma, p=len(tract), seed=0)
    rel = np.linalg.norm(approx.dense() - dense.dense()) / np.linalg.norm(
        dense.dense()
    )
    assert rel <= 1e-6

    # Copies of three parallel lines at Euclidean offsets have a rank-3
    # kernel, which ten landmarks that hold all three lines reproduce.
    base = np.linspace([0.0, 0.0, 0.0], [0.0, 0.0, 30.0], 6)
    lines = [Streamline(base + [x, 0.0, 0.0]) for x in (0.0, 10.0, 30.0)]
    low = Tractogram(tuple(lines[i % 3] for i in range(60)))
    k_low = kernel_from_distances(pairwise_distances(low, "mcp"), 0.01).dense()
    with pytest.warns(RankDeficientWarning):
        g = nystrom_kernel(low, "mcp", gamma=0.01, p=10, seed=3).factor
    rel = np.linalg.norm(g @ g.T - k_low) / np.linalg.norm(k_low)
    assert rel <= 1e-6
    assert time.perf_counter() - t0 < 5.0


def test_atlas_segments_resamples_of_population():
    t0 = time.perf_counter()
    train, train_truth = preset_separated5(seed=30, total_count=600)
    test, test_truth = preset_separated5(seed=31, total_count=400)
    atlas, fit = build_atlas([train], SolverConfig(m=5, seed=0), measure="mcp")

    fresh = segment_with_atlas(atlas, test)
    assert adjusted_rand_index(fresh.labels, test_truth) >= 0.9

    again = segment_with_atlas(atlas, train)
    agree = np.mean(
        np.asarray(again.labels.labels) == np.asarray(fit.labels.labels)
    )
    assert agree >= 0.95
    assert time.perf_counter() - t0 < 120.0


def test_repeated_runs_produce_identical_files(tmp_path):
    t0 = time.perf_counter()

    def pipeline(root):
        root.mkdir()
        data = root / "data"
        assert cli_main(["synth", "crossing2", "--seed", "4",
                         "--out", str(data)]) == 0
        assert cli_main(["distances", "--in", str(data / "tract.slb"),
                         "--out", str(root / "d.dm"),
                         "--csv", str(root / "d.csv")]) == 0
        assert cli_main(["cluster", "--in", str(data / "tract.slb"),
                         "--dist", str(root / "d.dm"), "--method", "gksc",
                         "--m", "3", "--seed", "4",
                         "--out", str(root / "fit")]) == 0
        assert cli_main(["metrics", "--pred", str(root / "fit" / "labels.txt"),
                         "--truth", str(data / "labels.txt"),
                         "--dist", str(root / "d.dm"),
                         "--out", str(root / "report.json")]) == 0
        assert cli_main(["atlas-build", "--in", str(data / "tract.slb"),
                         "--m", "2", "--seed", "4",
                         "--out", str(root / "ref.atlas")]) == 0
        assert cli_main(["segment", "--atlas", str(root / "ref.atlas"),
                         "--in", str(data / "tract.slb"),
                         "--out", str(root / "seg")]) == 0
        # manifests carry wall-clock timings and are exempt from the
        # byte-identical contract; the artifacts they hash are not
        return {
            str(p.relative_to(root)): sha(p)
            for p in sorted(root.rglob("*"))
            if p.is_file() and not p.name.endswith("manifest.json")
        }

    first = pipeline(tmp_path / "run1")
    second = pipeline(tmp_path / "run2")
    assert first.keys() == second.keys()
    diff = [name for name in first if first[name] != second[name]]
    assert not diff, f"non-deterministic artifacts: {diff}"
    assert time.perf_counter() - t0 < 120.0
