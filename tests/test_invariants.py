"""The invariants beyond d=1: N conservation, the flux identities and the
energy-drift order, in d = 1, 2, 3 and for random symmetric kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_field
from dnls.dynamics import SchemeConfig, integrate
from dnls.hopping import (
    HoppingPotential,
    nearest_neighbor_laplacian,
    standard_laplacian,
)
from dnls.lattice import LatticeShape
from dnls.observables import hamiltonian, particle_flux_field, particle_number, weighted_flux


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 3), ell=st.integers(1, 2), extra=st.integers(0, 2),
       zero=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_n_conservation_and_flux_identities(d, ell, extra, zero, seed):
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((2 * ell + 1,) * d)
    coeffs = np.zeros_like(coeffs) if zero else coeffs + np.flip(coeffs)
    pot = HoppingPotential(d=d, range=ell, coeffs=coeffs)
    shape = LatticeShape(d, ell + extra)
    field0 = random_field(shape, seed)
    cfg = SchemeConfig(scheme="strang", dt=0.01, t_end=0.3, snapshot_stride=30, lam=1.0)
    traj = integrate(field0, pot, cfg)
    n0 = particle_number(field0)
    assert abs(particle_number(traj.final) - n0) <= 1e-12 * n0

    flux = particle_flux_field(traj.final, pot)
    scale = 1e-12 * float(np.sum(np.abs(flux)))
    assert abs(float(np.sum(flux))) <= scale
    x = tuple(int(c) for c in rng.integers(-shape.L, shape.L + 1, size=d))
    for form in ("direct", "antisymmetrized"):
        assert abs(weighted_flux(traj.final, pot, 0.0, x, form=form)) <= scale


def _energy_drift(field0, pot, dt):
    cfg = SchemeConfig(scheme="strang", dt=dt, t_end=1.0, snapshot_stride=int(round(0.1 / dt)),
                       lam=1.0)
    h = np.array([hamiltonian(s, pot, 1.0) for s in integrate(field0, pot, cfg).snapshots])
    return float(np.max(np.abs(h - h[0])))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kernel", [standard_laplacian, nearest_neighbor_laplacian])
@pytest.mark.parametrize("L", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1])
def test_strang_energy_drift_is_second_order(d, kernel, L, seed):
    pot = kernel(d)
    field0 = random_field(LatticeShape(d, L), seed, scale=0.5)
    ratio = _energy_drift(field0, pot, 0.02) / _energy_drift(field0, pot, 0.01)
    assert 2.5 <= ratio <= 6.0
