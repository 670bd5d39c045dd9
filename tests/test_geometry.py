import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nhimlab import (
    ChartPoint,
    ChartTopology,
    ContractError,
    Dimensions,
    TangentVector,
    mat_row_sup_norm,
    tensor_row_sup_norm,
    vec_sup_norm,
)
from nhimlab.geometry import _max_keep_nan, _wrap_angles

TWO_PI = 2.0 * np.pi


def test_vec_sup_norm_values():
    assert vec_sup_norm([1.0, -3.0, 2.0]) == 3.0
    assert vec_sup_norm([0.0, 0.0]) == 0.0
    assert vec_sup_norm([-0.5, 0.5]) == 0.5


def test_vec_sup_norm_empty_rejected():
    with pytest.raises(ContractError):
        vec_sup_norm([])


def test_mat_row_sup_norm_values():
    assert mat_row_sup_norm([[1.0, -2.0], [0.5, 0.5]]) == 3.0
    assert mat_row_sup_norm(np.eye(3)) == 1.0
    assert mat_row_sup_norm(np.zeros((2, 4))) == 0.0


def test_mat_row_sup_norm_rejects_bad_shapes():
    with pytest.raises(ContractError):
        mat_row_sup_norm([1.0, 2.0])
    with pytest.raises(ContractError):
        mat_row_sup_norm(np.zeros((0, 3)))


def test_tensor_row_sup_norm_reduces_to_lower_orders():
    assert tensor_row_sup_norm([1.0, -3.0]) == 3.0
    assert tensor_row_sup_norm([[1.0, -2.0], [0.5, 0.5]]) == 3.0
    t = np.zeros((2, 2, 2))
    t[0] = [[1.0, -1.0], [2.0, 0.0]]
    t[1] = [[0.5, 0.5], [0.5, 0.5]]
    assert tensor_row_sup_norm(t) == 4.0


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6),
       st.floats(-100.0, 100.0))
def test_sup_norm_homogeneous(coords, c):
    v = np.array(coords)
    assert np.isclose(vec_sup_norm(c * v), abs(c) * vec_sup_norm(v), rtol=1e-12, atol=0)


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6),
       st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6))
def test_sup_norm_triangle(a, b):
    n = min(len(a), len(b))
    va, vb = np.array(a[:n]), np.array(b[:n])
    assert vec_sup_norm(va + vb) <= vec_sup_norm(va) + vec_sup_norm(vb) + 1e-9


def test_operator_norm_bounds_action():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = rng.normal(size=(4, 5))
        v = rng.normal(size=5)
        assert vec_sup_norm(a @ v) <= mat_row_sup_norm(a) * vec_sup_norm(v) + 1e-12
    # equality is attained by the sign pattern of a maximal row
    a = rng.normal(size=(4, 5))
    row = int(np.argmax(np.sum(np.abs(a), axis=1)))
    v = np.sign(a[row])
    assert np.isclose(vec_sup_norm(a @ v), mat_row_sup_norm(a), rtol=1e-12)


def test_dimensions_split_join_round_trip():
    dims = Dimensions(2, 1, 3)
    z = np.arange(6.0)
    s, u, x = dims.split(z)
    assert s.tolist() == [0.0, 1.0] and u.tolist() == [2.0] and x.tolist() == [3.0, 4.0, 5.0]
    assert np.array_equal(dims.join(s, u, x), z)
    with pytest.raises(ContractError):
        dims.split(np.zeros(5))
    with pytest.raises(ContractError):
        Dimensions(0, 1, 1)


def test_topology_canonicalize():
    topo = ChartTopology.of(["angle", "linear"])
    out = topo.canonicalize([TWO_PI + 0.3, -5.0])
    assert np.isclose(out[0], 0.3) and out[1] == -5.0
    # a tiny negative angle must not round up to the full period
    out = topo.canonicalize([-1e-17, 0.0])
    assert 0.0 <= out[0] < TWO_PI
    twice = topo.canonicalize(out)
    assert np.array_equal(twice, out)


def test_topology_validation():
    with pytest.raises(ContractError):
        ChartTopology(())
    with pytest.raises(ContractError):
        ChartTopology(("spiral",))
    assert ChartTopology.angles(2).is_angle.all()
    assert not ChartTopology.lines(2).is_angle.any()


def test_topology_angle_mask_is_built_once_and_read_only():
    topo = ChartTopology.of(("angle", "linear"))
    mask = topo.is_angle
    assert mask is topo.is_angle
    assert mask.tolist() == [True, False]
    with pytest.raises(ValueError):
        mask[1] = True
    assert topo.canonicalize([7.0, 7.0]).tolist() == [7.0 - TWO_PI, 7.0]


def test_chart_point_norm_and_ball():
    p = ChartPoint([0.1, -0.3], [0.2], [1.0], ChartTopology.lines(1))
    assert p.normal_norm == 0.3
    assert p.in_ball(0.5)
    assert not p.in_ball(0.3)  # membership is strict
    q = ChartPoint([0.0], [0.0], [TWO_PI + 1.0], ChartTopology.angles(1))
    assert np.isclose(q.x[0], 1.0)
    with pytest.raises(ValueError):
        q.x[0] = 2.0


def test_tangent_vector_blocks():
    v = TangentVector([1.0, -2.0], [0.5], [0.0, 3.0])
    assert v.block_norms() == (2.0, 0.5, 3.0)


@given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=6), st.integers(0, 6))
def test_max_keep_nan(values, at):
    assert _max_keep_nan(*values) is max(values)  # the same object, so the same bits
    values.insert(min(at, len(values)), math.nan)
    assert math.isnan(_max_keep_nan(*values))


def test_wrapping_rows_is_canonicalize_per_row():
    topo = ChartTopology.of(("angle", "linear", "angle"))
    rng = np.random.default_rng(3)
    X = rng.uniform(-20.0, 20.0, size=(50, 3))
    X[:3] = [[-1e-17, -1e-17, TWO_PI], [-0.0, 7.0, -TWO_PI], [TWO_PI - 1e-16, 0.0, 4 * TWO_PI]]
    wrapped = _wrap_angles(X.copy(), topo.is_angle)
    expected = np.array([topo.canonicalize(x) for x in X])
    assert np.array_equal(wrapped.view(np.int64), expected.view(np.int64))
    assert wrapped[0, 0] == 0.0 and wrapped[0, 1] == -1e-17
