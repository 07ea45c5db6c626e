import numpy as np
import pytest

from posikit.grid import build_grid, write_snapshot


def test_periodic_uniform_partition():
    g = build_grid((0.0, 2 * np.pi), 4, "periodic")
    assert np.allclose(g.axes[0], [0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
    assert np.allclose(g.weights, np.pi / 2)
    assert g.active.all()


def test_dirichlet_interior_lumping():
    g = build_grid((-5.0, 5.0), 10, "dirichlet")
    assert g.shape == (11,)
    assert g.active.sum() == 9
    assert not g.active[0] and not g.active[-1]
    assert np.allclose(g.weights[1:-1], 1.0)
    assert g.weights[0] == 0.0 and g.weights[-1] == 0.0


def test_neumann_trapezoidal_lumping():
    g = build_grid((-1.0, 1.0), 4, "neumann")
    assert g.shape == (5,)
    assert np.allclose(g.weights, [0.25, 0.5, 0.5, 0.5, 0.25])
    assert g.active.all()


@pytest.mark.parametrize("bc", ["periodic", "neumann"])
def test_weight_sum_equals_measure(bc):
    g = build_grid(((0.0, 3.0), (-2.0, 5.0)), (12, 9), bc)
    assert abs(g.weights.sum() - g.measure) <= 1e-12 * g.measure


def test_inner_direct_sum():
    # three active nodes with weight 1/2 each
    g = build_grid((0.0, 2.0), 4, "dirichlet")
    u = np.array([0.0, 2.0, 4.0, 0.0, 0.0])
    v = np.array([0.0, 1.0, 1.0, 0.0, 0.0])
    assert g.inner(u, v) == pytest.approx(3.0, abs=0.0)


def test_inner_zero_annihilator():
    g = build_grid((0.0, 1.0), 8, "periodic")
    u = np.random.default_rng(0).random(8)
    assert g.inner(u, np.zeros(8)) == 0.0


def test_inner_sin_periodic():
    g = build_grid((0.0, 2 * np.pi), 4, "periodic")
    u = np.sin(g.axes[0])
    assert g.inner(u, u) == pytest.approx(np.pi, rel=1e-15)


def test_norm_zero_and_mass_of_ones():
    g = build_grid((0.0, 4.0), 4, "dirichlet")  # 3 interior nodes, weight 1
    assert g.norm(np.zeros(5)) == 0.0
    assert g.mass(np.ones(5)) == pytest.approx(3.0, abs=0.0)


def test_pythagoras_for_orthogonal_fields():
    g = build_grid((0.0, 1.0), 16, "periodic")
    rng = np.random.default_rng(1)
    u = rng.standard_normal(16)
    v = rng.standard_normal(16)
    v -= g.inner(u, v) / g.inner(u, u) * u
    assert g.inner(u, v) == pytest.approx(0.0, abs=1e-12)
    assert g.norm(u) ** 2 + g.norm(v) ** 2 == pytest.approx(
        g.norm(u + v) ** 2, rel=1e-12)


def test_inner_symmetric_and_bilinear():
    g = build_grid(((0.0, 1.0), (0.0, 2.0)), (6, 5), ("dirichlet", "neumann"))
    rng = np.random.default_rng(2)
    u, v, w = (rng.standard_normal(g.shape) for _ in range(3))
    a, b = 1.7, -0.3
    assert g.inner(u, v) == pytest.approx(g.inner(v, u), rel=1e-14)
    assert g.inner(a * u + b * w, v) == pytest.approx(
        a * g.inner(u, v) + b * g.inner(w, v), rel=1e-12)


def test_inner_positive_iff_nonzero_on_active():
    g = build_grid((0.0, 1.0), 5, "dirichlet")
    u = np.zeros(6)
    u[0] = 3.0  # excluded node only
    assert g.inner(u, u) == 0.0
    u[2] = 1e-8
    assert g.inner(u, u) > 0.0


def test_field_shape_mismatch_rejected():
    g = build_grid((0.0, 1.0), 8, "periodic")
    with pytest.raises(ValueError, match="shape"):
        g.inner(np.zeros(9), np.zeros(8))


def test_build_grid_validation():
    with pytest.raises(ValueError, match="at least 4"):
        build_grid((0.0, 1.0), 3, "periodic")
    with pytest.raises(ValueError, match="extent"):
        build_grid((1.0, 1.0), 8, "periodic")
    with pytest.raises(ValueError, match="boundary"):
        build_grid((0.0, 1.0), 8, "robin")


@pytest.mark.parametrize("bcs", [("periodic", "neumann"),
                                 ("dirichlet", "periodic")],
                         ids=["periodic-x-neumann", "dirichlet-x-periodic"])
def test_build_grid_rejects_a_periodic_axis_beside_a_bounded_one(bcs):
    with pytest.raises(ValueError, match="periodic on every axis or on none"):
        build_grid(((0.0, 1.0), (0.0, 2.0)), (6, 5), bcs)


def test_build_grid_mixes_bounded_axes():
    g = build_grid(((0.0, 1.0), (0.0, 2.0)), (6, 5), ("dirichlet", "neumann"))
    assert g.shape == (7, 6) and not g.fully_periodic
    assert g.active.sum() == 5 * 6


@pytest.mark.parametrize("counts", [8.5, (8, 6.5), (np.float64(8.25), 8)],
                         ids=["scalar", "second-axis", "numpy-float"])
def test_build_grid_rejects_non_integral_counts(counts):
    extents = (0.0, 1.0) if np.isscalar(counts) else ((0.0, 1.0), (0.0, 1.0))
    with pytest.raises(ValueError, match="integers"):
        build_grid(extents, counts, "periodic")
    # an integral float is the count it names
    assert build_grid((0.0, 1.0), 8.0, "periodic").counts == (8,)


def read_snapshot(path) -> tuple[np.ndarray, float]:
    """Read a snapshot written by :func:`posikit.grid.write_snapshot`."""
    with open(path) as fh:
        header = fh.readline().split()
        shape = tuple(int(s) for s in header[:-1])
        t = float(header[-1])
        values = np.array([float(line) for line in fh])
    if values.size != int(np.prod(shape)):
        raise ValueError(f"snapshot {path}: expected {np.prod(shape)} values, "
                         f"got {values.size}")
    return values.reshape(shape, order="C"), t


def test_snapshot_roundtrip(tmp_path):
    g = build_grid(((0.0, 1.0), (0.0, 1.0)), (4, 6), "periodic")
    u = np.random.default_rng(3).standard_normal(g.shape)
    path = tmp_path / "snap.txt"
    write_snapshot(path, u, g, 0.125)
    v, t = read_snapshot(path)
    assert t == 0.125
    assert np.array_equal(u, v)


def test_snapshot_header_1d(tmp_path):
    g = build_grid((0.0, 1.0), 4, "periodic")
    path = tmp_path / "snap.txt"
    write_snapshot(path, np.arange(4.0), g, 0.5)
    header = path.read_text().splitlines()[0].split()
    assert header == ["4", "0.5"]
