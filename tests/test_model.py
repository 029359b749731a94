import os
import sys

import numpy as np
import pytest

from footprint import mapped, random_distances
from tractsparse import (
    Labeling,
    SolverConfig,
    Streamline,
    Tractogram,
    model,
    solvers,
    synth,
    validate_tractogram,
)
from tractsparse.distances import (
    DistanceMatrix,
    build_endpoint_graph,
    cross_distances,
    graph_laplacian,
    pairwise_distances,
)
from tractsparse.errors import (
    DegenerateStreamline,
    EmptyTractogram,
    NonFiniteCoordinate,
)
from tractsparse.io import read_dm, read_km, write_dm, write_km
from tractsparse.kernel import (
    _kernel_in_distance_buffer,
    kernel_from_distances,
    nystrom_kernel,
    rbf_kernel,
    spectrum_shift,
)


def test_streamline_is_immutable_float64():
    s = Streamline([[0, 0, 0], [1, 2, 3]])
    assert s.points.dtype == np.float64
    with pytest.raises(ValueError):
        s.points[0, 0] = 5.0
    assert len(s) == 2


def test_streamline_endpoints():
    s = Streamline([[0, 0, 0], [1, 0, 0], [2, 5, 0]])
    assert np.array_equal(s.endpoints, [[0, 0, 0], [2, 5, 0]])


def test_streamline_shape_checked():
    with pytest.raises(ValueError):
        Streamline([[0, 0], [1, 1]])


def test_tractogram_iteration_and_indexing():
    a = Streamline([[0, 0, 0], [1, 0, 0]])
    b = Streamline([[0, 1, 0], [1, 1, 0]])
    t = Tractogram((a, b), subject_id="s01")
    assert len(t) == 2
    assert t[1] is b
    assert [s is x for s, x in zip(t, (a, b))] == [True, True]
    assert t.subject_id == "s01"


def test_validate_tractogram_errors():
    with pytest.raises(EmptyTractogram):
        validate_tractogram(Tractogram(()))
    with pytest.raises(DegenerateStreamline):
        validate_tractogram(Tractogram((Streamline([[0.0, 0.0, 0.0]]),)))
    bad = Streamline([[0, 0, 0], [np.inf, 0, 0]])
    with pytest.raises(NonFiniteCoordinate):
        validate_tractogram(Tractogram((Streamline([[0, 0, 0], [1, 0, 0]]), bad)))


def test_labeling_bounds():
    lab = Labeling(np.array([0, 2, 1]), m=3)
    assert len(lab) == 3
    with pytest.raises(ValueError):
        Labeling(np.array([0, 3]), m=3)
    with pytest.raises(ValueError):
        Labeling(np.array([-1, 0]), m=2)


def test_solver_config_validation():
    cfg = SolverConfig(m=5)
    assert cfg.s_max == 3 and cfg.mu == 0.01
    with pytest.raises(ValueError):
        SolverConfig(m=0)
    with pytest.raises(ValueError):
        SolverConfig(m=2, s_max=0)
    with pytest.raises(ValueError):
        SolverConfig(m=2, mu=0.0)
    with pytest.raises(ValueError):
        SolverConfig(m=2, lambda1=-0.1)


@pytest.mark.parametrize("field", ["mu", "lambda1", "lambda2", "lambda_l", "eps_primal"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_solver_config_rejects_non_finite_weights(field, value):
    # NaN passes every < and <= check, so it needs its own
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        SolverConfig(m=2, **{field: value})


@pytest.mark.parametrize("budget", [
    {"t_outer": 0}, {"t_outer": -3}, {"t_inner": 0}, {"t_inner": -1},
], ids=["t_outer-0", "t_outer-negative", "t_inner-0", "t_inner-negative"])
def test_solver_config_rejects_budgets_without_a_sweep(budget):
    # a fit with no sweep leaves every streamline unassigned
    with pytest.raises(ValueError, match="sweep budgets"):
        SolverConfig(m=2, **budget)


def test_solver_config_accepts_default_and_one_sweep_budgets():
    assert SolverConfig(m=2).t_outer is None
    cfg = SolverConfig(m=2, t_outer=1, t_inner=1)
    assert (cfg.t_outer, cfg.t_inner) == (1, 1)


def _line(n, x=0.0):
    return Streamline(np.column_stack([np.arange(n, dtype=float), np.full(n, x), np.zeros(n)]))


def _nan_at(n, q):
    pts = _line(n).points.copy()
    pts[q, 1] = np.nan
    return Streamline(pts)


def test_validate_tractogram_names_first_offender():
    good, short = _line(4), _line(1)
    t = Tractogram((good, _nan_at(4, 3), good, short, _nan_at(3, 0)))
    with pytest.raises(NonFiniteCoordinate, match=r"streamline 1\b"):
        validate_tractogram(t)
    t = Tractogram((good, short, good, _nan_at(4, 0), good))
    with pytest.raises(DegenerateStreamline, match=r"streamline 1\b"):
        validate_tractogram(t)
    # a streamline with both faults is degenerate, as a per-streamline check finds
    with pytest.raises(DegenerateStreamline, match=r"streamline 2\b"):
        validate_tractogram(Tractogram((good, good, _nan_at(1, 0), _nan_at(4, 0))))
    # a bad last point belongs to its own streamline, not the next one
    with pytest.raises(NonFiniteCoordinate, match=r"streamline 0\b"):
        validate_tractogram(Tractogram((_nan_at(5, 4), good)))
    with pytest.raises(NonFiniteCoordinate, match=r"streamline 1\b"):
        validate_tractogram(Tractogram((good, _nan_at(2, 0))))


def test_validate_tractogram_rejects_coordinates_that_could_overflow():
    good = _line(4)
    for big in (1e200, -1e151, np.finfo(float).max):
        pts = _line(4).points.copy()
        pts[2, 0] = big
        with pytest.raises(NonFiniteCoordinate, match=r"streamline 1\b"):
            validate_tractogram(Tractogram((good, Streamline(pts), good)))
    pts = _line(4).points.copy()
    pts[2, 0] = -1e150
    validate_tractogram(Tractogram((good, Streamline(pts))))


# --- matrices in their own memory map ---------------------------------------

@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (1, 1), (4, 5)])
def test_matrix_is_a_writable_c_ordered_float64_map(shape):
    a = model._matrix(shape)
    assert a.shape == shape and a.dtype == np.float64
    assert a.flags.c_contiguous and a.flags.writeable
    a[...] = 2.5
    assert np.all(a == 2.5)
    assert mapped(a)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_writes_its_own_copy_of_a_matrix():
    a = model._matrix((4, 4))
    a[...] = 1.0
    pid = os.fork()
    if pid == 0:
        try:
            a[...] = 2.0
        finally:
            os._exit(0)
    os.waitpid(pid, 0)
    assert np.all(a == 1.0)


def _vm_flags(address: int) -> list:
    """The kernel's VmFlags of the mapping in this process that holds ``address``."""
    with open("/proc/self/smaps") as f:
        inside = False
        for line in f:
            head = line.split()[0]
            if "-" in head and not head.endswith(":"):
                start, end = (int(x, 16) for x in head.split("-"))
                inside = start <= address < end
            elif inside and head == "VmFlags:":
                return line.split()[1:]
    raise LookupError(hex(address))


@pytest.mark.skipif(
    not sys.platform.startswith("linux")
    or not os.path.exists("/sys/kernel/mm/transparent_hugepage/enabled"),
    reason="needs Linux with transparent huge pages",
)
def test_matrix_map_asks_for_huge_pages():
    a = model._matrix((1024, 1024))
    assert "hg" in _vm_flags(a.__array_interface__["data"][0])


def test_adopted_matrix_freezes_in_place_and_unfreezes_into_a_kernel():
    want = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
    values = model._matrix((3, 3))
    values[...] = want
    d = model._adopt(DistanceMatrix, known_symmetric=True, n=3, values=values)
    assert np.shares_memory(d.values, values) and not values.flags.writeable
    with pytest.raises(ValueError):
        values[0, 1] = 5.0
    k = _kernel_in_distance_buffer(d, gamma=0.5, shift=0.0)
    assert np.shares_memory(k.dense_values, values) and not k.dense_values.flags.writeable
    assert k.dense_values.tobytes() == rbf_kernel(DistanceMatrix(3, want), 0.5).dense_values.tobytes()


def test_every_package_matrix_is_mapped(tmp_path, monkeypatch):
    t, _ = synth.preset_separated5(seed=0, total_count=60)
    d = pairwise_distances(t)
    k = kernel_from_distances(d)
    write_dm(d, tmp_path / "d.dm")
    write_km(k, tmp_path / "k.km")
    indefinite = rbf_kernel(random_distances(30), 0.1)
    shifted = spectrum_shift(indefinite)
    assert shifted.shift > 0.0  # so spectrum_shift made its copy
    matrices = {
        "pairwise_distances": d.values,
        "cross_distances": cross_distances(Tractogram(t.streamlines[:20]), t),
        "read_dm": read_dm(tmp_path / "d.dm").values,
        "read_km": read_km(tmp_path / "k.km").dense_values,
        "kernel_from_distances": k.dense_values,
        "rbf_kernel": indefinite.dense_values,
        "spectrum_shift": shifted.dense_values,
        "graph_laplacian": graph_laplacian(build_endpoint_graph(t)),
        "KernelMatrix.dense (factored)": nystrom_kernel(t, "mcp", p=10, seed=0).dense(),
    }
    assert [name for name, arr in matrices.items() if not mapped(arr)] == []
    # the spectral start's dense normalized Laplacian
    seen, eig = [], solvers.sym_eig
    monkeypatch.setattr(
        solvers, "sym_eig", lambda lap, count: seen.append(lap) or eig(lap, count=count)
    )
    solvers.spectral_embedding(k, 5)
    assert len(seen) == 1 and mapped(seen[0])
    # the endpoint graph's distances are compared once and dropped
    sizes, pages = [], model._pages
    monkeypatch.setattr(model, "_pages", lambda nbytes: sizes.append(nbytes) or pages(nbytes))
    build_endpoint_graph(t)
    assert sizes == [len(t) * len(t) * 8]
