import math

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from oracles import NAIVE_DISTANCES, naive_ep, naive_hausdorff, naive_mcp

from tractsparse import (
    DistanceMatrix,
    EndpointGraph,
    Streamline,
    Tractogram,
    build_endpoint_graph,
    dist_ep,
    dist_hausdorff,
    dist_mcp,
    graph_laplacian,
    pairwise_distances,
)
from tractsparse import distances, synth
from tractsparse.errors import (
    DegenerateStreamline,
    EmptyTractogram,
    NonFiniteCoordinate,
)

DISTS = {"mcp": dist_mcp, "haus": dist_hausdorff, "ep": dist_ep}


def random_streamline(rng, n_min=4, n_max=30, scale=40.0):
    n = int(rng.integers(n_min, n_max + 1))
    return Streamline(rng.normal(scale=scale, size=(n, 3)))


def random_tractogram(rng, n, **kw):
    return Tractogram(tuple(random_streamline(rng, **kw) for _ in range(n)))


# --- scalar measures -------------------------------------------------------

@pytest.mark.parametrize("name", ["mcp", "haus", "ep"])
def test_identical_streamlines_distance_zero(name):
    rng = np.random.default_rng(0)
    s = random_streamline(rng)
    assert DISTS[name](s, s) == 0.0


@pytest.mark.parametrize("name", ["mcp", "haus", "ep"])
def test_parallel_unit_offset_segments(name):
    a = Streamline([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    b = Streamline([[0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    assert DISTS[name](a, b) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("name", ["mcp", "haus", "ep"])
def test_matches_naive_oracle_bitwise(name):
    rng = np.random.default_rng(7)
    for _ in range(25):
        a = random_streamline(rng)
        b = random_streamline(rng)
        got = DISTS[name](a, b)
        want = NAIVE_DISTANCES[name](a.points, b.points)
        assert got == want


@pytest.mark.parametrize("name", ["mcp", "haus", "ep"])
def test_symmetry_of_arguments(name):
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = random_streamline(rng)
        b = random_streamline(rng)
        assert DISTS[name](a, b) == DISTS[name](b, a)


def test_hausdorff_upper_bounds_mcp():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = random_streamline(rng)
        b = random_streamline(rng)
        assert dist_hausdorff(a, b) >= dist_mcp(a, b)


def test_ep_ignores_interior_geometry():
    a = Streamline([[0, 0, 0], [5, 20, 0], [10, 0, 0]])
    b = Streamline([[0, 0, 0], [5, -60, 3], [8, 1, 1], [10, 0, 0]])
    assert dist_ep(a, b) == 0.0
    assert dist_mcp(a, b) > 0.0


@pytest.mark.parametrize("name", ["mcp", "haus", "ep"])
def test_reversal_invariance(name):
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = random_streamline(rng)
        b = random_streamline(rng)
        ref = DISTS[name](a, b)
        ar = Streamline(a.points[::-1])
        br = Streamline(b.points[::-1])
        assert DISTS[name](ar, b) == pytest.approx(ref, rel=1e-12, abs=1e-12)
        assert DISTS[name](a, br) == pytest.approx(ref, rel=1e-12, abs=1e-12)
        assert DISTS[name](ar, br) == pytest.approx(ref, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("name", ["mcp", "haus", "ep"])
def test_translation_equivariance(name):
    rng = np.random.default_rng(13)
    shift = np.array([12.5, -3.0, 40.0])
    for _ in range(10):
        a = random_streamline(rng)
        b = random_streamline(rng)
        ref = DISTS[name](a, b)
        moved = DISTS[name](Streamline(a.points + shift), Streamline(b.points + shift))
        assert moved == pytest.approx(ref, abs=1e-12)


@pytest.mark.parametrize("name", ["mcp", "haus", "ep"])
def test_distance_rejects_bad_streamlines(name):
    good = Streamline([[0, 0, 0], [1, 0, 0]])
    single = Streamline([[0.0, 0.0, 0.0]])
    with pytest.raises(DegenerateStreamline):
        DISTS[name](single, good)
    with pytest.raises(NonFiniteCoordinate):
        DISTS[name](good, Streamline([[0, 0, 0], [np.nan, 0, 0]]))


# --- matrix assembly -------------------------------------------------------

def test_pairwise_single_streamline():
    t = Tractogram((Streamline([[0, 0, 0], [1, 1, 1]]),))
    d = pairwise_distances(t)
    assert d.n == 1
    assert np.array_equal(d.values, np.zeros((1, 1)))


def test_pairwise_identical_streamlines_zero_matrix():
    s = Streamline([[0, 0, 0], [3, 1, 0], [6, 0, 0]])
    t = Tractogram((s, s, s))
    for name in ("mcp", "haus", "ep"):
        d = pairwise_distances(t, name)
        assert np.array_equal(d.values, np.zeros((3, 3)))


@pytest.mark.parametrize("name", ["mcp", "haus", "ep"])
def test_pairwise_matches_scalar_calls_bitwise(name):
    rng = np.random.default_rng(21)
    t = random_tractogram(rng, 20)
    d = pairwise_distances(t, name).values
    for i in range(20):
        for j in range(20):
            assert d[i, j] == DISTS[name](t[i], t[j])


@pytest.mark.parametrize("name", ["mcp", "haus", "ep"])
def test_pairwise_matches_naive_oracle_bitwise(name):
    rng = np.random.default_rng(22)
    t = random_tractogram(rng, 12)
    d = pairwise_distances(t, name).values
    for i in range(12):
        for j in range(i + 1, 12):
            assert d[i, j] == NAIVE_DISTANCES[name](t[i].points, t[j].points)


@pytest.mark.parametrize("name", ["mcp", "haus", "ep"])
def test_pairwise_threads_bitwise_identical(name):
    rng = np.random.default_rng(33)
    t = random_tractogram(rng, 23)
    ref = pairwise_distances(t, name, threads=1).values
    for workers in (2, 4, 7):
        assert np.array_equal(pairwise_distances(t, name, threads=workers).values, ref)


def test_pairwise_threads_env_var(monkeypatch):
    rng = np.random.default_rng(34)
    t = random_tractogram(rng, 17)
    ref = pairwise_distances(t, "mcp", threads=1).values
    monkeypatch.setenv("TRACTSPARSE_THREADS", "3")
    assert np.array_equal(pairwise_distances(t, "mcp", threads=None).values, ref)


def test_pairwise_threads_env_var_garbage_names_variable(monkeypatch):
    rng = np.random.default_rng(34)
    t = random_tractogram(rng, 5)
    monkeypatch.setenv("TRACTSPARSE_THREADS", "many")
    with pytest.raises(ValueError, match="TRACTSPARSE_THREADS"):
        pairwise_distances(t, "mcp", threads=None)


def test_pairwise_rejects_empty_and_bad_measure():
    with pytest.raises(EmptyTractogram):
        pairwise_distances(Tractogram(()))
    t = Tractogram((Streamline([[0, 0, 0], [1, 0, 0]]),))
    with pytest.raises(ValueError):
        pairwise_distances(t, "frechet")


def test_distance_matrix_validation():
    with pytest.raises(ValueError):
        DistanceMatrix(2, np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(ValueError):
        DistanceMatrix(2, np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        DistanceMatrix(2, np.array([[0.5, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        DistanceMatrix(3, np.zeros((2, 2)))


@pytest.mark.parametrize("name", ["mcp", "haus", "ep"])
def test_cross_distances_matches_pairwise(name):
    from tractsparse.distances import cross_distances

    rng = np.random.default_rng(40)
    t = random_tractogram(rng, 11)
    assert np.array_equal(
        cross_distances(t, t, name), pairwise_distances(t, name).values
    )


@pytest.mark.parametrize("name", ["mcp", "haus", "ep"])
def test_cross_distances_matches_scalar_calls(name):
    from tractsparse.distances import cross_distances

    rng = np.random.default_rng(41)
    ta = random_tractogram(rng, 5)
    tb = random_tractogram(rng, 8)
    block = cross_distances(ta, tb, name, threads=3)
    assert block.shape == (5, 8)
    for i in range(5):
        for j in range(8):
            assert block[i, j] == DISTS[name](ta[i], tb[j])


# Streamlines long enough that NumPy would sum their point minima pairwise
# (8+ values) and that a tile holds only one to three of them.
LONG = dict(n_min=130, n_max=300)


@pytest.mark.parametrize("name", ["mcp", "haus", "ep"])
def test_long_streamlines_match_scalar_calls_bitwise(name):
    from tractsparse.distances import cross_distances

    rng = np.random.default_rng(42)
    t = random_tractogram(rng, 7, **LONG)
    tb = random_tractogram(rng, 5, **LONG)
    d = pairwise_distances(t, name).values
    block = cross_distances(t, tb, name)
    for i in range(7):
        for j in range(7):
            assert d[i, j] == DISTS[name](t[i], t[j])
        for j in range(5):
            assert block[i, j] == DISTS[name](t[i], tb[j])


@pytest.mark.parametrize("name", ["mcp", "haus", "ep"])
def test_cross_distances_transpose_symmetry(name):
    from tractsparse.distances import cross_distances

    rng = np.random.default_rng(43)
    ta = Tractogram(
        random_tractogram(rng, 6).streamlines
        + random_tractogram(rng, 3, **LONG).streamlines
    )
    tb = random_tractogram(rng, 4, **LONG)
    assert np.array_equal(
        cross_distances(ta, tb, name), cross_distances(tb, ta, name).T
    )


@pytest.mark.parametrize("name", ["mcp", "haus", "ep"])
def test_cross_distances_single_streamline_matches_scalar(name):
    from tractsparse.distances import cross_distances

    rng = np.random.default_rng(44)
    for _ in range(5):
        a = random_streamline(rng, **LONG)
        b = random_streamline(rng, **LONG)
        block = cross_distances(Tractogram((a,)), Tractogram((b,)), name)
        assert block[0, 0] == DISTS[name](a, b)


@pytest.mark.parametrize("name", ["mcp", "haus", "ep"])
def test_threads_over_many_tiles_bitwise_identical(name):
    from tractsparse.distances import _tiles, cross_distances

    rng = np.random.default_rng(45)
    if name == "ep":  # two points per streamline: a tile holds hundreds
        ta, tb = random_tractogram(rng, 800), random_tractogram(rng, 300)
    else:
        ta, tb = random_tractogram(rng, 9, **LONG), random_tractogram(rng, 7, **LONG)
    # enough tile pairs that every worker count below uses the pool
    n_a, n_b = len(_tiles(ta, name)), len(_tiles(tb, name))
    assert n_a * (n_a + 1) // 2 >= 8 and n_a * n_b >= 8
    square = pairwise_distances(ta, name, threads=1).values
    block = cross_distances(ta, tb, name, threads=1)
    for workers in (2, 3, 4):
        got = pairwise_distances(ta, name, threads=workers).values
        assert np.array_equal(got, square)
        got = cross_distances(ta, tb, name, threads=workers)
        assert np.array_equal(got, block)


class BlockRecorder:
    """Stands in for ``distances.cdist`` and keeps each block's shape."""

    def __init__(self):
        self.shapes = []

    def __call__(self, xa, xb):
        self.shapes.append((len(xa), len(xb)))
        return cdist(xa, xb)


def small_and_large(rng, name):
    """A set that fits one tile and one that fills at least 3 widened tiles."""
    if name == "ep":  # two points per streamline: 260 of them, tiles of 504
        return random_tractogram(rng, 130), random_tractogram(rng, 1200)
    return random_tractogram(rng, 6), random_tractogram(rng, 600)


@pytest.mark.parametrize("name", ["mcp", "haus", "ep"])
def test_cross_against_small_set_widens_tiles_bitwise(name, monkeypatch):
    from tractsparse.distances import cross_distances

    small, large = small_and_large(np.random.default_rng(46), name)
    # every pair for mcp and haus; for ep's 156,000 pairs, every 11th column
    cols = range(0, len(large), 11 if name == "ep" else 1)
    ref = np.array([[DISTS[name](a, large[j]) for j in cols] for a in small])
    union = pairwise_distances(Tractogram(small.streamlines + large.streamlines), name)
    square = union.values[: len(small), len(small):]
    for workers in (1, 3):
        rec = BlockRecorder()
        monkeypatch.setattr(distances, "cdist", rec)
        ab = cross_distances(small, large, name, threads=workers)
        ba = cross_distances(large, small, name, threads=workers)
        monkeypatch.undo()
        assert np.array_equal(ab[:, cols], ref)
        assert np.array_equal(ba[cols, :], ref.T)
        assert np.array_equal(ab, square) and np.array_equal(ba, square.T)
        # one block per widened tile of the large side, in each orientation
        assert len(rec.shapes) >= 6
        assert max(max(shape) for shape in rec.shapes) > distances._TILE_POINTS
        assert max(r * c for r, c in rec.shapes) <= distances._TILE_POINTS**2


@pytest.mark.parametrize("name", ["mcp", "haus", "ep"])
def test_no_cdist_block_exceeds_budget(name, monkeypatch):
    from tractsparse.distances import cross_distances

    rng = np.random.default_rng(47)
    small, large = small_and_large(rng, name)
    ta, tb = random_tractogram(rng, 9, **LONG), random_tractogram(rng, 7, **LONG)
    rec = BlockRecorder()
    monkeypatch.setattr(distances, "cdist", rec)
    pairwise_distances(large, name)
    cross_distances(small, large, name)
    cross_distances(large, small, name)
    pairwise_distances(ta, name)
    cross_distances(ta, tb, name)
    cross_distances(tb, small, name)
    monkeypatch.undo()
    assert max(r * c for r, c in rec.shapes) <= distances._TILE_POINTS**2


# --- endpoint graph --------------------------------------------------------

def test_endpoint_graph_coincident_connected():
    s = Streamline([[0, 0, 0], [10, 0, 0]])
    t = Tractogram((s, Streamline(s.points + 1e-9)))
    g = build_endpoint_graph(t)
    assert g.adjacency[0, 1] == 1 and g.adjacency[1, 0] == 1
    assert g.adjacency[0, 0] == 0


def test_endpoint_graph_far_apart_empty():
    t = Tractogram(
        tuple(
            Streamline([[200.0 * k, 0, 0], [200.0 * k + 10, 0, 0]])
            for k in range(4)
        )
    )
    g = build_endpoint_graph(t, 7.0)
    assert g.adjacency.sum() == 0
    assert np.array_equal(g.degree, np.zeros(4, dtype=np.int64))


def test_endpoint_graph_threshold_is_strict():
    a = Streamline([[0, 0, 0], [10, 0, 0]])
    b = Streamline([[0, 7, 0], [10, 7, 0]])
    t = Tractogram((a, b))
    assert build_endpoint_graph(t, 7.0).adjacency[0, 1] == 0
    assert build_endpoint_graph(t, 7.0 + 1e-6).adjacency[0, 1] == 1


def test_endpoint_graph_two_bundles_density():
    rng = np.random.default_rng(8)
    lines = []
    for base in (0.0, 100.0):
        for _ in range(6):
            jitter = rng.normal(scale=1.0, size=(2, 3))
            pts = np.array([[0.0, base, 0.0], [50.0, base, 0.0]]) + jitter
            lines.append(Streamline(np.linspace(pts[0], pts[1], 12)))
    g = build_endpoint_graph(Tractogram(tuple(lines)), 7.0)
    within = g.adjacency[:6, :6].sum() + g.adjacency[6:, 6:].sum()
    across = g.adjacency[:6, 6:].sum()
    assert within > 0
    assert across == 0


@pytest.mark.parametrize("threshold", [3.0, 7.0, 15.0])
def test_endpoint_graph_multi_tile_matches_brute_force(threshold):
    t, _ = synth.preset_separated5(seed=0, total_count=600)
    assert 2 * len(t) > distances._TILE_POINTS  # several endpoint tiles
    ends = np.stack([s.endpoints for s in t])
    pairings = cdist(ends.reshape(-1, 3), ends.reshape(-1, 3))
    nearest = pairings.reshape(len(t), 2, len(t), 2).min(axis=(1, 3))
    want = (nearest < threshold).astype(np.uint8)
    np.fill_diagonal(want, 0)
    g = build_endpoint_graph(t, threshold)
    assert g.adjacency.tobytes() == want.tobytes()
    lap = graph_laplacian(g)
    expected = np.diag(g.degree) - want
    assert lap.dtype == np.float64
    assert lap.tobytes() == expected.astype(np.float64).tobytes()


def test_endpoint_graph_rejects_bad_threshold():
    t = Tractogram((Streamline([[0, 0, 0], [1, 0, 0]]),))
    with pytest.raises(ValueError):
        build_endpoint_graph(t, 0.0)


def test_endpoint_graph_validation():
    with pytest.raises(ValueError):
        EndpointGraph(np.array([[0, 2], [2, 0]]), 7.0)
    with pytest.raises(ValueError):
        EndpointGraph(np.array([[1, 0], [0, 0]]), 7.0)
    with pytest.raises(ValueError):
        EndpointGraph(np.array([[0, 1], [0, 0]]), 7.0)


# --- Laplacian -------------------------------------------------------------

def test_laplacian_empty_graph_zero():
    g = EndpointGraph(np.zeros((3, 3), dtype=int), 7.0)
    assert np.array_equal(graph_laplacian(g), np.zeros((3, 3)))


def test_laplacian_complete_graph():
    g = EndpointGraph(np.ones((3, 3), dtype=int) - np.eye(3, dtype=int), 7.0)
    want = np.array([[2.0, -1, -1], [-1, 2, -1], [-1, -1, 2]])
    assert np.array_equal(graph_laplacian(g), want)


def test_laplacian_quadratic_form_identity():
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(2, 12))
        raw = (rng.random((n, n)) < 0.4).astype(int)
        adj = np.triu(raw, 1)
        adj = adj + adj.T
        lap = graph_laplacian(EndpointGraph(adj, 7.0))
        x = rng.normal(size=n)
        quad = x @ lap @ x
        direct = sum(
            adj[i, j] * (x[i] - x[j]) ** 2 for i in range(n) for j in range(i + 1, n)
        )
        assert quad == pytest.approx(direct, rel=1e-10, abs=1e-10)
        assert quad >= -1e-10


def test_laplacian_row_sums_and_psd():
    rng = np.random.default_rng(19)
    t = random_tractogram(rng, 15, scale=8.0)
    lap = graph_laplacian(build_endpoint_graph(t, 12.0))
    assert np.abs(lap.sum(axis=1)).max() <= 1e-12
    assert np.linalg.eigvalsh(lap).min() >= -1e-10
