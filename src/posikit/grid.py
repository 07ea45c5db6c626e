"""Tensor-product collocation grids with lumped quadrature weights.

The grid is the measurement layer: every norm, mass and bilinear form in the
package is defined through the diagonal quadrature

    [u, v] = sum_z  w_z * u(z) * v(z),

taken over the active node set (nodes carrying an essential boundary value
are excluded and get weight zero).  Diagonal weights are chosen deliberately:
pointwise clamping and the discrete inner product then commute exactly, so
the energy identities checked in :mod:`posikit.diagnostics` hold to rounding.

A grid is periodic on every axis or on none; bounded axes may mix
Dirichlet and Neumann.  Boundary handling per axis:

* ``periodic``   -- nodes a + i*h on [a, b), h = (b-a)/N, weight h each;
* ``dirichlet``  -- homogeneous essential condition; nodes a + i*h on [a, b],
  the two end nodes are excluded from the active set (weight 0), interior
  weight h;
* ``neumann``    -- natural condition; all N+1 nodes active, trapezoidal
  weights (h/2 at the ends, h inside).

Grids are immutable but for ``memo``, and safe to share between threads.
Field values are plain ``numpy`` arrays shaped like ``grid.shape``; values
stored at excluded nodes must equal the prescribed boundary value (0 for
every model in this package).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

PERIODIC = "periodic"
DIRICHLET = "dirichlet"
NEUMANN = "neumann"

_VALID_BCS = (PERIODIC, DIRICHLET, NEUMANN)


@dataclass(frozen=True, eq=False)
class Grid:
    """Immutable tensor-product grid; build with :func:`build_grid`.

    Equality and hashing are by identity: two grids are "the same grid" only
    if they are the same object, which is what operator/field ownership
    checks need.

    ``memo`` is the one mutable part: the operators' read-only arrays of the
    grid, freed with it.  It is filled idempotently, so concurrent misses
    only build the same array twice.
    """

    extents: tuple[tuple[float, float], ...]
    counts: tuple[int, ...]
    bcs: tuple[str, ...]
    axes: tuple[np.ndarray, ...]
    spacings: tuple[float, ...]
    weights: np.ndarray = field(repr=False)   # zero at excluded nodes
    active: np.ndarray = field(repr=False)    # boolean mask of the active set
    # derived in __post_init__; stored because the solvers read them per call
    dim: int = field(init=False)
    shape: tuple[int, ...] = field(init=False)
    fully_periodic: bool = field(init=False)
    all_active: bool = field(init=False)
    active_block: tuple = field(init=False, repr=False)
    memo: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        derived = dict(dim=len(self.axes),
                       shape=tuple(len(ax) for ax in self.axes),
                       fully_periodic=all(bc == PERIODIC for bc in self.bcs),
                       all_active=bool(self.active.all()),
                       active_block=tuple(slice(1, -1) if bc == DIRICHLET
                                          else slice(None) for bc in self.bcs))
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @property
    def measure(self) -> float:
        """Product of axis lengths (the volume of the domain)."""
        out = 1.0
        for a, b in self.extents:
            out *= b - a
        return out

    def coords(self) -> tuple[np.ndarray, ...]:
        """Coordinate arrays broadcast to ``shape`` (meshgrid, ij indexing)."""
        return tuple(np.meshgrid(*self.axes, indexing="ij"))

    def check_field(self, u: np.ndarray) -> np.ndarray:
        u = np.asanyarray(u)
        if u.shape != self.shape:
            raise ValueError(
                f"field shape {u.shape} does not match grid shape {self.shape}"
            )
        return u

    # -- quadrature ---------------------------------------------------------

    def inner(self, u: np.ndarray, v: np.ndarray) -> float:
        """Weighted discrete inner product over the active node set."""
        return _wdot(self.weights, self.check_field(u), self.check_field(v))

    def norm(self, u: np.ndarray) -> float:
        """Norm induced by :meth:`inner`."""
        u = self.check_field(u)
        return math.sqrt(_wdot(self.weights, u, u))

    def mass(self, u: np.ndarray) -> float:
        """Inner product of ``u`` against the constant-one field."""
        return float(np.add.reduce(self.weights * self.check_field(u), None))

    def zero_excluded(self, a: np.ndarray) -> np.ndarray:
        """Set the excluded nodes (the Dirichlet end rows) of ``a`` to 0 in
        place, by slice assignment, and return ``a``."""
        for ax, bc in enumerate(self.bcs):
            if bc == DIRICHLET:
                ends = a.swapaxes(0, ax)
                ends[0] = ends[-1] = 0
        return a


def _wdot(w: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """sum(w * a * b), the bits of np.sum(w * a * b): the product formed in
    place and reduced by np.add.reduce, as ndarray.sum does, without its
    wrapper; not a BLAS dot, which goes multithreaded on 2D grids."""
    p = w * a
    p *= b
    return float(np.add.reduce(p, None))


def _axis_nodes(a: float, b: float, n: int, bc: str):
    h = (b - a) / n
    if bc == PERIODIC:
        nodes = a + h * np.arange(n)
        w = np.full(n, h)
        act = np.ones(n, dtype=bool)
    else:
        nodes = a + h * np.arange(n + 1)
        w = np.full(n + 1, h)
        if bc == DIRICHLET:
            w[0] = w[-1] = 0.0
            act = np.ones(n + 1, dtype=bool)
            act[0] = act[-1] = False
        else:  # neumann: trapezoidal lumping keeps every node
            w[0] = w[-1] = 0.5 * h
            act = np.ones(n + 1, dtype=bool)
    return nodes, w, act, h


def build_grid(extents, counts, bcs) -> Grid:
    """Build a 1D or 2D grid.

    Parameters
    ----------
    extents : (a, b) or sequence of (a, b)
        Interval per axis.
    counts : int or sequence of int
        Number of subintervals per axis (collocation count for periodic
        axes).  Integral, at least 4 per axis.
    bcs : str or sequence of str
        One of ``periodic``, ``dirichlet``, ``neumann`` per axis; a periodic
        axis needs every other axis periodic too.
    """
    if np.isscalar(extents[0]):
        extents = (tuple(extents),)
    else:
        extents = tuple(tuple(e) for e in extents)
    if np.isscalar(counts):
        counts = (counts,) * len(extents)
    if any(int(c) != c for c in counts):
        raise ValueError(f"interval counts must be integers, got {counts}")
    counts = tuple(int(c) for c in counts)
    if isinstance(bcs, str):
        bcs = (bcs,) * len(extents)
    else:
        bcs = tuple(bcs)

    if not 1 <= len(extents) <= 2:
        raise ValueError("only 1D and 2D grids are supported")
    if not (len(extents) == len(counts) == len(bcs)):
        raise ValueError("extents, counts and bcs must have matching lengths")

    axes, axw, axact, spacings = [], [], [], []
    for (a, b), n, bc in zip(extents, counts, bcs):
        if bc not in _VALID_BCS:
            raise ValueError(f"unknown boundary condition {bc!r}")
        if not b > a:
            raise ValueError(f"axis extent ({a}, {b}) is not positive")
        if n < 4:
            raise ValueError(f"need at least 4 points per axis, got {n}")
        nodes, w, act, h = _axis_nodes(float(a), float(b), n, bc)
        axes.append(nodes)
        axw.append(w)
        axact.append(act)
        spacings.append(h)
    if PERIODIC in bcs and len(set(bcs)) > 1:
        raise ValueError(f"boundary conditions {bcs}: a grid is periodic on "
                         "every axis or on none")

    if len(axes) == 1:
        weights = axw[0].copy()
        active = axact[0].copy()
    else:
        weights = np.multiply.outer(axw[0], axw[1])
        active = np.logical_and.outer(axact[0], axact[1])
    weights.setflags(write=False)
    active.setflags(write=False)

    return Grid(
        extents=extents,
        counts=counts,
        bcs=bcs,
        axes=tuple(ax for ax in axes),
        spacings=tuple(spacings),
        weights=weights,
        active=active,
    )


# -- field snapshots ---------------------------------------------------------


def write_snapshot(path, u: np.ndarray, g: Grid, t: float) -> None:
    """Write a field as text: header ``nx [ny] t``, then row-major values."""
    u = g.check_field(u)
    dims = " ".join(str(s) for s in g.shape)
    with open(path, "w") as fh:
        fh.write(f"{dims} {t!r}\n")
        for x in np.ravel(u, order="C"):
            fh.write(f"{float(x)!r}\n")
