"""Shared fixtures and independent oracle implementations.

The oracles here deliberately avoid the package's vectorized code paths:
convolution and energy are brute-force double sums over sites, the linear
propagator is a dense eigendecomposition, and the linear flow of the
nearest-neighbour Laplacian is a closed-form Bessel image sum in mpmath.
Tests freeze expected values computed from these, never from the code under
test.
"""

from __future__ import annotations

import operator
import os
import sys
import warnings
from functools import reduce

# One BLAS/OpenMP thread, as bench/run.py pins it: the dense Strang
# propagator's zgemv runs on two threads otherwise, which costs more than one
# on a busy host.  The libraries read these once, when numpy first loads.
if "numpy" in sys.modules:
    warnings.warn("numpy was loaded before tests/conftest.py; its BLAS threads are not pinned")
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import mpmath  # noqa: E402
import numpy as np  # noqa: E402
import pytest  # noqa: E402

from dnls.hopping import HoppingPotential, clipped_offsets, nearest_neighbor_laplacian  # noqa: E402
from dnls.lattice import FieldL, LatticeShape, Site  # noqa: E402


def wrap_coord(c: int, side: int) -> int:
    """Representative of c modulo side in [-(side-1)/2, (side-1)/2]."""
    half = (side - 1) // 2
    return (c + half) % side - half


def wrapped_difference(shape: LatticeShape, x: Site, y: Site) -> Site:
    """Representative of x - y in the box; the argument the kernel sees."""
    return tuple(wrap_coord(int(a) - int(b), shape.side) for a, b in zip(x, y))


def torus_dist_inf(shape: LatticeShape, x: Site, y: Site) -> int:
    """Minimum-image sup-norm distance on the torus, one site pair at a time."""
    dist = 0
    for a, b in zip(shape.require_site(x), shape.require_site(y)):
        delta = abs(a - b)
        dist = max(dist, min(delta, shape.side - delta))
    return dist


def naive_convolve(pot: HoppingPotential, field: FieldL) -> np.ndarray:
    """out(x) = sum_y alpha(rep(x - y)) psi(y), explicit double loop."""
    shape = field.shape
    out = np.zeros(shape.dims, dtype=np.complex128)
    for x in shape.sites():
        acc = 0.0j
        for y in shape.sites():
            acc += pot.at(wrapped_difference(shape, x, y)) * field.at(y)
        out[shape.index(x)] = acc
    return out


def naive_hamiltonian(pot: HoppingPotential, field: FieldL, lam: float) -> float:
    shape = field.shape
    quad = 0.0j
    for x in shape.sites():
        for y in shape.sites():
            quad += pot.at(wrapped_difference(shape, x, y)) * field.at(x) * np.conj(field.at(y))
    quart = 0.5 * lam * sum(abs(field.at(x)) ** 4 for x in shape.sites())
    return float(quad.real + quart)


def per_site_table(shape: LatticeShape, offsets) -> np.ndarray:
    """Flat index of x - offset per site x and offset, by a per-site loop:
    the reference for lattice.neighbor_table."""
    table = np.empty((shape.volume, len(offsets)), dtype=np.int64)
    for flat, coord in enumerate(np.ndindex(shape.dims)):
        for j, off in enumerate(offsets):
            target = tuple((c - o) % shape.side for c, o in zip(coord, off))
            table[flat, j] = np.ravel_multi_index(target, shape.dims)
    return table


def roll_convolve(pot: HoppingPotential, shape: LatticeShape, values: np.ndarray) -> np.ndarray:
    """The box-restricted stencil written with np.roll, one shifted copy per
    offset in clipped_offsets order, summed from zero in complex128 or, for
    clongdouble values, in clongdouble; a bit-level oracle for the stencil
    and for the neighbour table sums of Strang's taps."""
    axes = tuple(range(shape.d))
    out = np.zeros(shape.dims, dtype=np.promote_types(values.dtype, np.complex128))
    for offset, coeff in clipped_offsets(pot, shape):
        out += coeff * np.roll(values, shift=offset, axis=axes)
    return out


def hopping_matrix(pot: HoppingPotential, shape: LatticeShape) -> np.ndarray:
    """Dense symmetric matrix of the wrapped kernel in storage order."""
    sites = list(shape.sites())
    n = len(sites)
    mat = np.zeros((n, n))
    for i, x in enumerate(sites):
        for j, y in enumerate(sites):
            mat[i, j] = pot.at(wrapped_difference(shape, x, y))
    return mat


def dense_propagator(pot: HoppingPotential, shape: LatticeShape, t: float) -> np.ndarray:
    """exp(-i t A) through the eigendecomposition of the dense kernel matrix."""
    mat = hopping_matrix(pot, shape)
    w, v = np.linalg.eigh(mat)
    return (v * np.exp(-1j * t * w)) @ v.conj().T


def bessel_flow(shape: LatticeShape, kernel: HoppingPotential, t: float) -> np.ndarray:
    """exp(-i t alpha*) of a unit point source at the origin, on the periodic
    box, each component rounded once from 40 digits.

    On Z^d the flow of nearest_neighbor_laplacian(d) (standard_laplacian(1)
    in d = 1), 1 at the origin and c = -1/(2d), as stored, at the 2d unit
    vectors, is e^{-it} times the product over axes of i^|n| J_|n|(-2ct):
    the Bessel generating function e^{(z/2)(w + 1/w)} = sum_n I_n(z) w^n at
    z = -2ict, with I_n(i s) = i^n J_n(s).  The box's solution is the sum of
    that over the images n + m(2L+1), taken per axis past |n| = 80, where
    J_|n|(-2ct) is far below rounding for t of order one.  The sums, the
    product and the phase run in mpmath: scipy's jv was off by up to 83 units
    in the last place at orders 3 to 11 for arguments 5e-4 to 0.3.
    """
    d = shape.d
    if kernel.range != 1 or not np.array_equal(kernel.coeffs,
                                               nearest_neighbor_laplacian(d).coeffs):
        raise ValueError("bessel_flow needs nearest_neighbor_laplacian(d)")
    reach = 80 // shape.side + 1
    powers_of_i = [mpmath.mpc(1), mpmath.mpc(0, 1), mpmath.mpc(-1), mpmath.mpc(0, -1)]
    out = np.empty(shape.dims, dtype=np.complex128)
    with mpmath.workdps(40):
        s = -2 * mpmath.mpf(kernel.coeffs[(1,) * (d - 1) + (0,)]) * mpmath.mpf(t)
        axis = [mpmath.fsum(powers_of_i[n % 4] * mpmath.besselj(n, s)
                            for n in (abs(x + shape.side * m) for m in range(-reach, reach + 1)))
                for x in range(-shape.L, shape.L + 1)]
        phase = mpmath.expj(-mpmath.mpf(t))
        for idx in np.ndindex(*shape.dims):
            out[idx] = complex(reduce(operator.mul, (axis[i] for i in idx), phase))
    return out


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes and equal bits, so -0.0 differs from +0.0."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def random_field(shape: LatticeShape, seed: int, scale: float = 1.0) -> FieldL:
    rng = np.random.default_rng(seed)
    values = scale * (rng.standard_normal(shape.dims) + 1j * rng.standard_normal(shape.dims))
    return FieldL(shape, values)


def random_kernel(d: int, ell: int, seed: int, scale: float = 1.0) -> HoppingPotential:
    """A random symmetric kernel of range ell: c + flip(c) for Gaussian c."""
    coeffs = scale * np.random.default_rng(seed).standard_normal((2 * ell + 1,) * d)
    return HoppingPotential(d=d, range=ell, coeffs=coeffs + np.flip(coeffs))


@pytest.fixture
def shape_1d() -> LatticeShape:
    return LatticeShape(d=1, L=8)


@pytest.fixture
def shape_2d() -> LatticeShape:
    return LatticeShape(d=2, L=3)
