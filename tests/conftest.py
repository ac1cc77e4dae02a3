"""Shared fixtures and independent oracle implementations.

The oracles here deliberately avoid the package's vectorized code paths:
convolution and energy are brute-force double sums over sites, and the
linear propagator is a dense eigendecomposition.  Tests freeze expected
values computed from these, never from the code under test.
"""

from __future__ import annotations

import numpy as np
import pytest

from dnls.hopping import HoppingPotential, wrapped_difference
from dnls.lattice import FieldL, LatticeShape


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
