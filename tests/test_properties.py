"""Property tests of the correction kernel, of the flat edge form, of the
thin film's band elimination and of the grid reductions.

Correction instances range over 1D and 2D grids, the three boundary
conditions, orders k = 1 and 2, the three corrected variants and a zero or
positive lower bound; the history levels and the prediction are drawn from a
seeded generator, with nodes planted on the bound, on -0.0 and +0.0 and
one ulp to either side of the bound (a subnormal gap at the bounds 0 and
1e-300, which alpha/dt < 1 can scale to 0), where the kernels are checked
against their select forms.  Edge-form instances range over bounded grids
down to two nodes per axis, every boundary combination and coefficients with zero
patches or support on one edge column only; on 1D grids the elimination
solves sigma I + L for sigma from 1e-2 to 1e4.  Reduction instances range
over 1D and 2D grids of every boundary kind and fields whose magnitudes
span twelve decades.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from posikit import operators as ops
from posikit.diagnostics import kkt_audit
from posikit.grid import Grid, _axis_nodes, build_grid
from posikit.models import _STAR_FLOOR, _star
from posikit.stepper import (History, StepOptions, bdf_tableau,
                             correct_positivity, residual_F, solve_xi_exact)

from test_operators import edge_form_dense

CORRECTED = ("multiplier", "cutoff", "mass")

# derandomized, so every run checks the same examples
PROPERTY = settings(max_examples=120, deadline=None, derandomize=True,
                    database=None)


@st.composite
def instances(draw, variants=CORRECTED, orders=(1, 2),
              eps_lbs=(0.0, 1e-2), dts=(0.05, 1.0)):
    dim = draw(st.sampled_from((1, 2)))
    bc = draw(st.sampled_from(("periodic", "dirichlet", "neumann")))
    n = draw(st.integers(4, 10 if dim == 2 else 40))
    k = draw(st.sampled_from(orders))
    variant = draw(st.sampled_from(variants))
    eps_lb = draw(st.sampled_from(eps_lbs))
    dt = draw(st.floats(*dts))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    g = build_grid(((0.0, 2.0),) * dim, (n,) * dim, bc)
    act = g.active
    hist = History.start(g, (eps_lb + rng.random(g.shape)) * act)
    for _ in range(k - 1):
        hist.push((eps_lb + rng.random(g.shape)) * act,
                  rng.random(g.shape) * rng.integers(0, 2, g.shape) * act,
                  -0.1 * rng.random(), dt)
    u_tilde = rng.standard_normal(g.shape) * rng.uniform(0.2, 3.0) * act
    if variant == "mass":
        floor = eps_lb * float(g.weights.sum())
        hist.target_mass = floor + rng.uniform(0.05, 3.0)
    opts = StepOptions(k=k, dt=dt, variant=variant, eps_lb=eps_lb,
                       secant_tol=1e-13)
    return hist, bdf_tableau(k), u_tilde, opts


@PROPERTY
@given(instances())
def test_correction_is_exactly_complementary(inst):
    hist, tab, u_tilde, opts = inst
    g = hist.grid
    out = correct_positivity(u_tilde, hist, tab, opts)
    report = kkt_audit(out.u_next, out.lambda_next, opts.eps_lb, g)
    assert report.ok, report
    assert report.worst_complementarity == 0.0
    assert out.active_count == int(np.count_nonzero(
        (out.lambda_next > 0.0) & g.active))


@PROPERTY
@given(instances(variants=("mass",)))
def test_mass_correction_keeps_mass_and_matches_oracle(inst):
    hist, tab, u_tilde, opts = inst
    g = hist.grid
    out = correct_positivity(u_tilde, hist, tab, opts)
    target = hist.target_mass
    assert abs(g.mass(out.u_next) - target) <= 1e-10 * target
    lam, xi = hist.multiplier_load(tab, "mass")
    shift_base = lam + xi
    xi_exact = solve_xi_exact(u_tilde, shift_base, opts.dt, tab, target, g,
                              opts.eps_lb)
    assert abs(out.xi_next - xi_exact) <= 1e-12 * max(1.0, abs(xi_exact))


@PROPERTY
@given(instances(variants=("multiplier",), orders=(1,)))
def test_first_order_cutoff_is_multiplier_bit_for_bit(inst):
    hist, tab, u_tilde, opts = inst
    mult = correct_positivity(u_tilde, hist, tab, opts)
    cut = correct_positivity(u_tilde, hist, tab,
                             StepOptions(k=1, dt=opts.dt, variant="cutoff",
                                         eps_lb=opts.eps_lb))
    assert mult.u_next.tobytes() == cut.u_next.tobytes()
    assert mult.lambda_next.tobytes() == cut.lambda_next.tobytes()
    assert mult.active_count == cut.active_count


@PROPERTY
@given(n=st.integers(8, 256), contrast=st.floats(1.0, 1e4),
       smooth=st.booleans(), patch=st.booleans(),
       shift=st.floats(-12.0, 3.0), seed=st.integers(0, 2**32 - 1))
def test_band_elimination_pivots_are_at_least_sigma(n, contrast, smooth,
                                                   patch, shift, seed):
    # no pivoting is needed and no pivot can be 0 (no ZeroDivisionError)
    # over the shifts for which solve_operator factors
    rng = np.random.default_rng(seed)
    t = (0.5 + 0.5 * np.sin(2 * np.pi * (np.arange(n) / n + rng.random()))
         if smooth else rng.random(n))
    c = contrast ** t
    if patch:
        start, width = rng.integers(0, n), rng.integers(1, n)
        c[(start + np.arange(width)) % n] = 0.0
    h = 2.0 / n
    # sigma h^4 from 1e-12 to 1e3 of the largest coefficient
    sigma = 10.0 ** shift * contrast / h**4
    pivots = ops._band_factor(c, sigma, h)[2]
    assert min(pivots) >= sigma


def bounded_grid(counts, bcs):
    """A bounded grid with ``counts`` intervals per axis, from 1 (two
    nodes) up: :func:`build_grid` takes at least 4."""
    parts = [_axis_nodes(0.0, 1.0 + ax, n, bc)
             for ax, (n, bc) in enumerate(zip(counts, bcs))]
    axes, ws, acts, hs = zip(*parts)
    weights, active = ws[0], acts[0]
    if len(parts) == 2:
        weights = np.multiply.outer(*ws)
        active = np.logical_and.outer(*acts)
    return Grid(extents=tuple((0.0, 1.0 + ax) for ax in range(len(counts))),
                counts=tuple(counts), bcs=tuple(bcs), axes=axes, spacings=hs,
                weights=weights, active=active)


@st.composite
def edge_forms(draw):
    if draw(st.booleans()):
        counts = (draw(st.integers(1, 12)),)
    else:  # n0 != n1: a transposed stride shows
        counts = draw(st.tuples(st.integers(1, 6), st.integers(1, 7))
                      .filter(lambda n: n[0] != n[1]))
    bcs = tuple(draw(st.sampled_from(("dirichlet", "neumann")))
                for _ in counts)
    g = bounded_grid(counts, bcs)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = 10.0 ** rng.uniform(-2.0, 1.0, g.shape)
    support = draw(st.sampled_from(("all", "patches", "first", "last")))
    if support == "patches":
        c *= rng.integers(0, 2, g.shape)
    elif support != "all":  # one column of the last axis: its row wraps
        keep = np.zeros(g.shape[-1])
        keep[0 if support == "first" else -1] = 1.0
        c *= keep
    return g, c, rng.standard_normal(g.shape), rng.standard_normal(g.shape)


@PROPERTY
@given(edge_forms(), st.floats(-2.0, 4.0))
def test_flat_edge_form_is_the_edge_by_edge_form(inst, shift):
    g, c, u, v = inst
    op = ops.Operator.div_coeff_grad(g, c)
    M = edge_form_dense(c, g)
    scale = np.abs(M).max()
    Lu = op.apply(u)
    ref = (M @ np.ravel(u)).reshape(g.shape)
    assert np.abs(Lu - ref).max() <= 1e-12 * scale * np.abs(u).max()
    diag = ops._edge_diagonal(op.edge_coeffs, g)
    assert np.abs(np.ravel(diag) - np.diag(M)).max() <= 1e-12 * scale
    # symmetric in the grid inner product on fields held at 0 where inactive
    u, v = u * g.active, v * g.active
    tol = 1e-12 * scale * g.norm(u)
    assert abs(g.inner(op.apply(u), v) - g.inner(u, op.apply(v))) \
        <= tol * g.norm(v)
    if all(bc == "neumann" for bc in g.bcs):  # [L u, 1] = 0
        assert abs(g.mass(op.apply(u))) <= tol * np.sqrt(g.measure)
    if g.dim == 1:  # sigma I + L by the elimination, sigma 1e-2 to 1e4
        _, rep = ops._tridiagonal_solve(10.0 ** shift, op, v, 1e-13, None)
        assert rep.residual <= 1e-13


@st.composite
def reduction_fields(draw):
    dim = draw(st.sampled_from((1, 2)))
    if draw(st.booleans()):
        bcs = ("periodic",) * dim
    else:
        bcs = tuple(draw(st.sampled_from(("dirichlet", "neumann")))
                    for _ in range(dim))
    counts = tuple(draw(st.integers(4, 40 if dim == 1 else 12))
                   for _ in range(dim))
    g = build_grid(tuple((0.0, 1.0 + ax) for ax in range(dim)), counts, bcs)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def field():
        return (rng.standard_normal(g.shape)
                * 10.0 ** rng.uniform(-6.0, 6.0, g.shape))
    return g, field(), field()


@PROPERTY
@given(reduction_fields())
def test_grid_reductions_are_the_plain_sums_bit_for_bit(inst):
    g, u, v = inst
    w = g.weights
    assert g.inner(u, v).hex() == float(np.sum(w * u * v)).hex()
    assert g.norm(u).hex() == float(np.sqrt(np.sum(w * u * u))).hex()
    assert g.mass(u).hex() == float(np.sum(w * u)).hex()


@st.composite
def tie_instances(draw):
    """Correction instances with nodes of the prediction planted on the
    bound: exact ties wherever the shift is 0 (cut-off, a zero multiplier
    level), and signed zeros at eps_lb = 0."""
    hist, tab, u_tilde, opts = draw(instances(eps_lbs=(0.0, 1e-4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    plant = rng.integers(0, 3, u_tilde.shape)
    u_tilde = np.where(plant == 1, opts.eps_lb, u_tilde)
    if opts.eps_lb == 0.0:
        u_tilde = np.where(plant == 2, -0.0, u_tilde)
    return hist, tab, u_tilde, opts


def _select_correction(base, eps_lb, r, g):
    """The correction as the selects its docstring states."""
    inactive = base >= eps_lb
    u = np.where(inactive, base, eps_lb)
    lam = np.where(inactive, 0.0, r * (eps_lb - base))
    u = np.where(g.active, u, 0.0)
    lam = np.where(g.active, lam, 0.0)
    return u, lam, int(np.count_nonzero(~inactive & g.active))


def _corrected_base(out, hist, tab, u_tilde, opts):
    """The shifted prediction that the correction ``out`` clamped."""
    dt = opts.dt
    lam_load, xi_load = hist.multiplier_load(tab, opts.variant)
    if opts.variant == "cutoff":
        return u_tilde
    if opts.variant == "mass":
        return u_tilde + (dt / tab.alpha) * (out.xi_next
                                             - (lam_load + xi_load))
    return u_tilde - (dt / tab.alpha) * lam_load


@st.composite
def gap_instances(draw):
    """Correction instances with nodes of the prediction planted on the
    bound, on -0.0 and +0.0 and one ulp to either side of the bound, whose
    gap is subnormal at the bounds 0 and 1e-300, and steps up to 4, where
    alpha/dt < 1 scales such a gap down to 0."""
    hist, tab, u_tilde, opts = draw(instances(eps_lbs=(0.0, 1e-4, 1e-300),
                                              dts=(0.05, 4.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    eps_lb = opts.eps_lb
    pool = np.array([eps_lb, -0.0, 0.0, np.nextafter(eps_lb, -1.0),
                     np.nextafter(eps_lb, 1.0)])
    plant = rng.integers(0, 2 * pool.size, u_tilde.shape)
    u_tilde = np.where(plant < pool.size,
                       pool[np.minimum(plant, pool.size - 1)], u_tilde)
    return hist, tab, u_tilde, opts


def _clamp_correction(base, eps_lb, r, g):
    """The correction in its clamp form: u = max(eps_lb, base), lam =
    max(r (eps_lb - base), 0) and the count of base < eps_lb, the excluded
    nodes zeroed."""
    u = np.maximum(eps_lb, base)
    lam = np.subtract(eps_lb, base)
    lam *= r
    np.maximum(lam, 0.0, out=lam)
    clamped = base < eps_lb
    for a in (u, lam, clamped):
        g.zero_excluded(a)
    return u, lam, int(np.count_nonzero(clamped))


@PROPERTY
@given(gap_instances())
def test_correction_kernel_is_the_select_form_bit_for_bit(inst):
    # and the clamp form, which the kernel replaced
    hist, tab, u_tilde, opts = inst
    out = correct_positivity(u_tilde, hist, tab, opts)
    base = _corrected_base(out, hist, tab, u_tilde, opts)
    for form in (_select_correction, _clamp_correction):
        u, lam, count = form(base, opts.eps_lb, tab.alpha / opts.dt,
                             hist.grid)
        assert out.u_next.tobytes() == u.tobytes()
        assert out.lambda_next.tobytes() == lam.tobytes()
        assert out.active_count == count


@PROPERTY
@given(tie_instances(), st.sampled_from((0.0, -1.0, 0.5)))
def test_mass_residual_is_the_select_sum_bit_for_bit(inst, xi_scale):
    hist, tab, u_tilde, opts = inst
    g, dt, eps_lb = hist.grid, opts.dt, opts.eps_lb
    lam_load, xi_load = hist.multiplier_load(tab, "mass")
    shift_base = lam_load + xi_load
    xi, target = xi_scale * dt, 1.5
    v = u_tilde + (dt / tab.alpha) * (xi - shift_base)
    expect = float(np.sum(g.weights * np.where(v > eps_lb, v, eps_lb))
                   - target)
    got = residual_F(xi, u_tilde, shift_base, dt, tab, target, g, eps_lb)
    assert got.hex() == expect.hex()


@st.composite
def star_levels(draw):
    """Two floored history levels mixing zeros, values at and below the
    extrapolation floor, equal and halved pairs and values of order one."""
    shape = draw(st.sampled_from(((37,), (9, 11))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = np.array([0.0, 1e-16, 0.5 * _STAR_FLOOR, _STAR_FLOOR,
                     2.0 * _STAR_FLOOR, 1e-3, 0.25, 1.0])
    un = np.where(rng.random(shape) < 0.5, rng.choice(pool, shape),
                  rng.random(shape))
    kind = rng.integers(0, 4, shape)
    unm1 = np.where(kind == 0, un,
                    np.where(kind == 1, 0.5 * un,
                             np.where(kind == 2, rng.choice(pool, shape),
                                      2.0 * rng.random(shape))))
    return np.maximum(un, 0.0), np.maximum(unm1, 0.0)


@PROPERTY
@given(star_levels())
def test_star_kernel_is_the_select_form_bit_for_bit(levels):
    un, unm1 = levels
    with np.errstate(divide="ignore"):
        linear = 2.0 * un - unm1
        harmonic = 1.0 / (2.0 / np.maximum(un, _STAR_FLOOR)
                          - 1.0 / np.maximum(unm1, _STAR_FLOOR))
        expect = np.where(un <= _STAR_FLOOR, 0.0,
                          np.where(un >= unm1, linear, harmonic))
        got = _star(un, unm1)
    assert got.tobytes() == expect.tobytes()
