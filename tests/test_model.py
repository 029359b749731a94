import numpy as np
import pytest

from tractsparse import (
    Labeling,
    SolverConfig,
    Streamline,
    Tractogram,
    validate_tractogram,
)
from tractsparse.errors import (
    DegenerateStreamline,
    EmptyTractogram,
    NonFiniteCoordinate,
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
