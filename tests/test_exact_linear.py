"""Both schemes at lam = 0 against the closed-form flow of the infinite
lattice, folded onto the periodic box (conftest.bessel_flow).

Strang at lam = 0 is the exact linear flow at any dt, so it matches the
closed form to rounding.  RK4's error is its own dt^4 truncation: at t = 1
it measured 0.064 dt^4 in d = 1 (6.4e-10 at dt = 1e-2, 1.0e-12 at 2e-3 and
6.4e-14 at 1e-3), 0.034 dt^4 in d = 2 and 0.024 dt^4 in d = 3.
"""

import numpy as np
import pytest

from conftest import bessel_flow, dense_propagator
from dnls.dynamics import SchemeConfig, integrate
from dnls.hopping import nearest_neighbor_laplacian
from dnls.lattice import LatticeShape, point_source, truncate

T = 1.0
RK4_CONSTANT = 0.1  # err <= RK4_CONSTANT * dt^4 at t = 1


def flow_error(scheme: str, d: int, L: int, dt: float) -> float:
    """max over the box of |psi_T - closed form|, from a unit point source."""
    shape = LatticeShape(d, L)
    pot = nearest_neighbor_laplacian(d)
    steps = round(T / dt)
    cfg = SchemeConfig(scheme=scheme, dt=dt, t_end=T, snapshot_stride=steps, lam=0.0)
    final = integrate(truncate(point_source(1.0), shape), pot, cfg).final.values
    return float(np.max(np.abs(final - bessel_flow(shape, pot, T))))


@pytest.mark.parametrize("d, L", [(1, 3), (1, 8), (2, 3), (3, 1)])
def test_oracle_matches_dense_propagator(d, L):
    # the image sum against the box's own eigendecomposition
    shape = LatticeShape(d, L)
    pot = nearest_neighbor_laplacian(d)
    source = truncate(point_source(1.0), shape).values.ravel()
    exact = (dense_propagator(pot, shape, T) @ source).reshape(shape.dims)
    assert np.max(np.abs(bessel_flow(shape, pot, T) - exact)) <= 1e-12


@pytest.mark.parametrize("dt", [1e-2, 1e-3])
@pytest.mark.parametrize("d, L", [(1, 8), (1, 16), (1, 64), (2, 8), (3, 4)])
def test_strang_matches_closed_form(d, L, dt):
    assert flow_error("strang", d, L, dt) <= 1e-12


@pytest.mark.parametrize("dt", [1e-2, 2e-3])
@pytest.mark.parametrize("d, L", [(1, 8), (1, 16), (1, 64), (2, 4), (3, 2)])
def test_rk4_matches_closed_form_to_order_four(d, L, dt):
    assert flow_error("rk4", d, L, dt) <= RK4_CONSTANT * dt**4
