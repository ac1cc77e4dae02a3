"""Shared fixtures and independent oracle implementations.

The oracles here deliberately avoid the package's vectorized code paths:
convolution and energy are brute-force double sums over sites, the linear
propagator is a dense eigendecomposition, and the linear flow of the
nearest-neighbour Laplacian is a closed-form Bessel image sum.  Tests freeze expected
values computed from these, never from the code under test.
"""

from __future__ import annotations

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

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from scipy.special import jv  # noqa: E402

from dnls.hopping import HoppingPotential, nearest_neighbor_laplacian  # noqa: E402
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
    """exp(-i t alpha*) of a unit point source at the origin, on the periodic box.

    On Z^d the flow of nearest_neighbor_laplacian(d) (standard_laplacian(1)
    in d = 1) is e^{-it} times the product over axes of i^|n| J_|n|(t/d): the
    Bessel generating function e^{(z/2)(w + 1/w)} = sum_n I_n(z) w^n at
    z = i t/d, with I_n(i s) = i^n J_n(s).  The box's solution is the sum of
    that over the images n + m(2L+1), taken per axis past |n| = 80, where
    J_|n|(t/d) is far below rounding for t/d of order one.
    """
    d = shape.d
    if kernel.range != 1 or not np.array_equal(kernel.coeffs,
                                               nearest_neighbor_laplacian(d).coeffs):
        raise ValueError("bessel_flow needs nearest_neighbor_laplacian(d)")
    images = np.arange(-(80 // shape.side + 1), 80 // shape.side + 2)
    n = np.abs(np.arange(-shape.L, shape.L + 1)[:, None] + shape.side * images[None, :])
    powers_of_i = np.array([1, 1j, -1, -1j])[n % 4]
    axis = np.sum(powers_of_i * jv(n, t / d), axis=1)
    return np.exp(-1j * t) * reduce(np.multiply.outer, [axis] * d)


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
