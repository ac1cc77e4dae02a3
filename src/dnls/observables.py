"""Conserved quantities, local particle-number machinery, and weighted norms.

Besides the two global invariants (particle number and energy) this module
implements the locally weighted l2 mass around a site, its normalization,
the particle-number flux and its exponentially weighted sum, and the
exponential growth bound on the local density: the density around any site
can grow at most like exp(eps_tilde * t) with

    eps_tilde = eps * c * ell * exp(eps*ell/2) * ||alpha||_inf * (2*ell+1)^d,

valid for localization rates eps in (0, 1/(2*ell)).  The generic constant c
is exposed as a parameter (default 2); reports also record the empirically
fitted minimal rate.

Distance conventions: locality weights on the box use the minimum-image
torus distance (matching the periodic dynamics); weighted norms use true
coordinates (matching the infinite-lattice sequence spaces).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import Trajectory
from .hopping import HoppingPotential, clipped_table, require_fits, stencil
from .lattice import FieldL, LatticeShape, Site, power_weight, torus_distance_grid

PASS_SLACK = 1e-9


class UndefinedRatioError(ValueError):
    """Growth ratio against a zero initial density is undefined."""


@dataclass(frozen=True)
class LocalizationParams:
    """Localization rate and center for local particle-number quantities."""

    eps: float
    center: Site


@dataclass(frozen=True)
class WeightSpec:
    """Weight profile for sequence-space norms.

    kind 'exponential' uses exp(-q |x|_inf); kind 'power' uses <x>^(-p)
    with the Euclidean regularized absolute value.
    """

    kind: str
    parameter: float

    def __post_init__(self) -> None:
        if self.kind not in ("exponential", "power"):
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if not (self.parameter > 0):
            raise ValueError(f"weight parameter must be > 0, got {self.parameter}")


def particle_number(field: FieldL) -> float:
    """Squared l2 norm; conserved by the time evolution."""
    return float(np.sum(np.abs(field.values) ** 2))


def hamiltonian(field: FieldL, pot: HoppingPotential, lam: float) -> float:
    """Hopping quadratic form plus (lam/2) * quartic onsite term.

    On boxes smaller than the kernel range the quadratic form uses the
    kernel restricted to box representatives (the periodic kernel is the
    plain kernel precomposed with the embedding, never folded).
    """
    psi = field.values
    return _energy(psi, stencil(pot, field.shape)(psi), lam)


def _energy(psi: np.ndarray, conv: np.ndarray, lam: float) -> float:
    """hamiltonian of psi, given conv = (alpha * psi)."""
    quad = np.sum(psi * np.conj(conv))
    quart = 0.5 * lam * np.sum(np.abs(psi) ** 4)
    scale = max(abs(quad), 1.0)
    if abs(quad.imag) > 1e-12 * scale:
        raise ValueError(f"hamiltonian acquired imaginary part {quad.imag}")
    return float(quad.real + quart)


def weight_normalization(shape: LatticeShape, eps: float) -> float:
    """S_eps: sum over the box of exp(-eps |x|_inf)."""
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    return float(np.sum(_local_weight(shape, eps, (0,) * shape.d)))


def local_particle_number(field: FieldL, eps: float, x: Sequence[int]) -> float:
    """Exponentially weighted l2 mass around x (torus distance)."""
    return float(np.sum(_local_weight(field.shape, eps, x) * np.abs(field.values) ** 2))


def _local_weight(shape: LatticeShape, eps: float, x: Sequence[int]) -> np.ndarray:
    """exp(-eps dist(x, y)) over the box sites y, torus distance."""
    return np.exp(-eps * torus_distance_grid(shape, x))


def _local_numbers(traj: Trajectory, weight: np.ndarray) -> np.ndarray:
    """local_particle_number of every snapshot, against one _local_weight grid."""
    axes = traj.shape.site_axes
    return np.concatenate([np.sum(weight * np.abs(block) ** 2, axis=axes)
                           for _, block in traj.blocks()])


def local_density(field: FieldL, eps: float, x: Sequence[int]) -> float:
    return local_particle_number(field, eps, x) / weight_normalization(field.shape, eps)


def particle_flux_field(field: FieldL, pot: HoppingPotential) -> np.ndarray:
    """F(y): instantaneous rate of change of |psi(y)|^2 under the hopping.

    Computed as 2 Im(conj(psi) * (alpha * psi)); exactly real by
    construction, and it sums to zero over the box.
    """
    require_fits(pot, field.shape)
    return _flux(field.values, stencil(pot, field.shape)(field.values))


def _flux(psi: np.ndarray, conv: np.ndarray) -> np.ndarray:
    """particle_flux_field of psi, given conv = (alpha * psi)."""
    return 2.0 * np.imag(np.conj(psi) * conv)


def weighted_flux(
    field: FieldL,
    pot: HoppingPotential,
    eps: float,
    x: Sequence[int],
    form: str = "direct",
) -> float:
    """Exponentially weighted flux sum around x.

    'direct' sums exp(-eps dist(x,y)) F(y); 'antisymmetrized' uses the
    pair form with the half prefactor, which makes the eps=0 cancellation
    explicit.  The two agree to rounding.
    """
    if form not in ("direct", "antisymmetrized"):
        raise ValueError(f"unknown form {form!r}")
    shape = field.shape
    weight = _local_weight(shape, eps, x)
    if form == "direct":
        return float(np.sum(weight * particle_flux_field(field, pot)))
    require_fits(pot, shape)
    psi, weight = field.values.ravel(), weight.ravel()
    coeffs, table = clipped_table(pot, shape)
    total = 0.0
    for coeff, near in zip(coeffs, table.T):
        bracket = -2.0 * np.imag(psi * np.conj(psi[near]))
        total += 0.5 * coeff * float(np.sum((weight - weight[near]) * bracket))
    return total


def growth_rate_bound(pot: HoppingPotential, eps: float, c_const: float = 2.0) -> float:
    """eps_tilde = eps * C with the explicit constant for (d, alpha, ell)."""
    ell = pot.range
    if not (0.0 < eps < 1.0 / (2.0 * ell)):
        raise ValueError(f"eps must lie in (0, {1.0 / (2.0 * ell)}), got {eps}")
    big_c = c_const * ell * math.exp(eps * ell / 2.0) * pot.norm_inf() * (2 * ell + 1) ** pot.d
    return eps * big_c


def _bound_ratios(
    values: np.ndarray, times: np.ndarray, rate: float, prefactor: float, what: str
) -> tuple[np.ndarray, bool]:
    """values(t) / (exp(rate t) * prefactor * values(0)), and whether all pass."""
    if values[0] == 0.0:
        if np.all(values == 0.0):
            return np.zeros_like(values), True
        raise UndefinedRatioError(f"initial {what} is zero but the trajectory is not")
    ratios = values / (np.exp(rate * times) * prefactor * values[0])
    return ratios, bool(np.all(ratios <= 1.0 + PASS_SLACK))


@dataclass(frozen=True)
class GrowthBoundReport:
    """Per-snapshot local-density growth ratios against the exponential bound."""

    eps_tilde: float
    ratios: np.ndarray
    passed: bool
    fitted_rate: float


def growth_bound_report(
    traj: Trajectory,
    pot: HoppingPotential,
    eps: float,
    x: Sequence[int],
    c_const: float = 2.0,
) -> GrowthBoundReport:
    """Check Q(t) <= exp(eps_tilde t) Q(0) at every snapshot.

    A trajectory that starts (and stays) identically zero passes trivially;
    a zero start with a nonzero continuation is an undefined ratio.
    """
    eps_tilde = growth_rate_bound(pot, eps, c_const)
    weight = _local_weight(traj.shape, eps, traj.shape.require_site(x))
    q = _local_numbers(traj, weight) / weight_normalization(traj.shape, eps)
    return _growth_report(traj, eps_tilde, q)


def _growth_report(traj: Trajectory, eps_tilde: float, q: np.ndarray) -> GrowthBoundReport:
    """growth_bound_report from the local densities q of the snapshots."""
    ratios, passed = _bound_ratios(q, traj.times, eps_tilde, 1.0, "local density")
    positive = (traj.times > 0) & (q > 0)
    if np.any(positive):
        fitted_rate = float(np.max(np.log(q[positive] / q[0]) / traj.times[positive]))
    else:
        fitted_rate = 0.0
    return GrowthBoundReport(eps_tilde=eps_tilde, ratios=ratios, passed=passed,
                             fitted_rate=fitted_rate)


def _weight_grid(shape: LatticeShape, spec: WeightSpec) -> np.ndarray:
    """Phi(x) at the true coordinates of the box sites."""
    if spec.kind == "exponential":
        return _local_weight(shape, spec.parameter, (0,) * shape.d)
    return power_weight(shape, spec.parameter)


def weighted_norm(field: FieldL, spec: WeightSpec) -> float:
    """max over box sites of Phi(x) |psi(x)|, true coordinates."""
    return float(np.max(_weight_grid(field.shape, spec) * np.abs(field.values)))


def weighted_bound_prefactor(shape: LatticeShape, eps: float, spec: WeightSpec) -> float:
    """sup_x sum_y k_dist(x,y) Phi(x)/Phi(y) over the box, with k_r = exp(-(eps/2) r).

    By parts over r: sum_y k_dist(x,y)/Phi(y) = sum_{r<L} (k_r - k_{r+1}) B_r(x) + k_L B_L,
    B_r(x) the sum of 1/Phi over the sup-ball of radius r around x, (2r+1)^d sites, from
    window sums of a wrap-padded 1/Phi.  As k_r - k_{r+1} = -expm1(-eps/2) k_r > 0, every
    term is positive, so the rounding error stays relative whatever the weight's range.
    """
    if not (eps > 0):
        raise ValueError(f"eps must be > 0, got {eps}")
    L, n, phi = shape.L, shape.side, _weight_grid(shape, spec)
    reciprocal = 1.0 / phi
    sums = np.full(shape.dims, math.exp(-0.5 * eps * L) * float(np.sum(reciprocal)))
    padded = np.pad(reciprocal, L, mode="wrap")
    del reciprocal  # freed before the loop, whose temporaries set the peak
    inner = padded[..., L:L + n].copy()
    for r in range(L):
        ball = inner
        for axis in range(shape.d - 1):
            ball = np.lib.stride_tricks.sliding_window_view(ball, 2 * r + 1, axis)[
                (slice(None),) * axis + (slice(L - r, L - r + n),)].sum(axis=-1)
        sums += -math.expm1(-0.5 * eps) * math.exp(-0.5 * eps * r) * ball
        inner += padded[..., L + r + 1:L + r + 1 + n] + padded[..., L - r - 1:L - r - 1 + n]
    return float(np.max(sums * phi))


@dataclass(frozen=True)
class WeightedBoundReport:
    eps_tilde: float
    prefactor: float
    ratios: np.ndarray
    passed: bool


def weighted_bound_check(
    traj: Trajectory,
    pot: HoppingPotential,
    eps: float,
    spec: WeightSpec,
    c_const: float = 2.0,
) -> WeightedBoundReport:
    """Check ||psi_t||_Phi <= exp(eps_tilde t) * prefactor * ||psi_0||_Phi.

    The hopping potential enters through eps_tilde's explicit constant.
    """
    eps_tilde = growth_rate_bound(pot, eps, c_const)
    prefactor = weighted_bound_prefactor(traj.shape, eps, spec)
    phi = _weight_grid(traj.shape, spec)
    axes = traj.shape.site_axes
    norms = np.concatenate([np.max(phi * np.abs(block), axis=axes) for _, block in traj.blocks()])
    ratios, passed = _bound_ratios(norms, traj.times, eps_tilde, prefactor, "weighted norm")
    return WeightedBoundReport(eps_tilde=eps_tilde, prefactor=prefactor, ratios=ratios,
                               passed=passed)


def observable_series(
    traj: Trajectory,
    pot: HoppingPotential,
    lam: float,
    localizations: Sequence[LocalizationParams] = (),
    c_const: float = 2.0,
) -> tuple[list[str], list[list[float]]]:
    """Rows (t, N, H, then per localization: N_eps, Q_eps, M_eps, bound_ratio)."""
    shape = traj.shape
    if localizations:
        require_fits(pot, shape)
    apply = stencil(pot, shape)
    header = ["t", "N_L", "H_L"]
    weights, local = [], []
    for loc in localizations:
        suffix = f"eps{loc.eps:g}_x{'_'.join(str(c) for c in loc.center)}"
        header += [f"N_{suffix}", f"Q_{suffix}", f"M_{suffix}", f"ratio_{suffix}"]
        eps_tilde = growth_rate_bound(pot, loc.eps, c_const)
        weight = _local_weight(shape, loc.eps, shape.require_site(loc.center))
        n_eps = _local_numbers(traj, weight)
        q = n_eps / weight_normalization(shape, loc.eps)
        rep = _growth_report(traj, eps_tilde, q)
        weights.append(weight)
        local.append((n_eps, q, rep.ratios))
    # columns N, H, then the flux sum M per localization; N and M are stacked
    # reductions, H sums each snapshot on its own, since a complex sum over
    # stacked axes may round differently
    axes = shape.site_axes
    sums = np.empty((len(traj), 2 + len(weights)))
    for j, block in traj.blocks():
        at = slice(j, j + len(block))
        conv = apply(block)
        sums[at, 0] = np.sum(np.abs(block) ** 2, axis=axes)
        sums[at, 1] = [_energy(psi, c, lam) for psi, c in zip(block, conv)]
        if weights:
            flux = _flux(block, conv)
            for i, weight in enumerate(weights, 2):
                sums[at, i] = np.sum(weight * flux, axis=axes)
    columns = [traj.times, sums[:, 0], sums[:, 1]]
    for i, (n_eps, q, ratios) in enumerate(local, 2):
        columns += [n_eps, q, sums[:, i], ratios]
    return header, np.column_stack(columns).tolist()
