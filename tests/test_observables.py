import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_hamiltonian, random_field, torus_dist_inf
import dnls.lattice
from dnls.convergence import drift, window_disagreement
from dnls.dynamics import SchemeConfig, Trajectory, integrate
from dnls.hopping import HoppingPotential, standard_laplacian, zero_potential
from dnls.lattice import (
    FieldL,
    LatticeShape,
    bracket_grid,
    hashed_noise_generator,
    point_source,
    torus_distance_grid,
    truncate,
)
from dnls.observables import (
    LocalizationParams,
    UndefinedRatioError,
    WeightSpec,
    growth_bound_report,
    growth_rate_bound,
    hamiltonian,
    local_density,
    local_particle_number,
    observable_series,
    particle_flux_field,
    particle_number,
    weight_normalization,
    weighted_bound_check,
    weighted_bound_prefactor,
    weighted_flux,
    weighted_norm,
)
from dnls.sampling import GaussianSpec, sample_gaussian


class TestParticleNumber:
    def test_zero(self):
        assert particle_number(FieldL.zero(LatticeShape(1, 3))) == 0.0

    def test_delta_peak(self):
        f = truncate(point_source(2 - 1j), LatticeShape(1, 3))
        assert particle_number(f) == pytest.approx(5.0)

    def test_constant_field(self):
        shape = LatticeShape(1, 2)
        c = 0.5 + 0.5j
        f = FieldL(shape, np.full(shape.dims, c))
        assert particle_number(f) == pytest.approx(5 * abs(c) ** 2)


class TestHamiltonian:
    def test_zero(self):
        assert hamiltonian(FieldL.zero(LatticeShape(1, 3)), standard_laplacian(1), 1.0) == 0.0

    def test_delta_peak(self):
        a = 1.5 - 0.5j
        f = truncate(point_source(a), LatticeShape(1, 4))
        lam = 0.8
        expected = abs(a) ** 2 + 0.5 * lam * abs(a) ** 4
        assert hamiltonian(f, standard_laplacian(1), lam) == pytest.approx(expected)

    @pytest.mark.parametrize("d,L,seed", [(1, 4, 0), (2, 2, 1)])
    def test_matches_naive_double_sum(self, d, L, seed):
        pot = standard_laplacian(d)
        f = random_field(LatticeShape(d, L), seed)
        assert hamiltonian(f, pot, 1.3) == pytest.approx(naive_hamiltonian(pot, f, 1.3), rel=1e-12)

    def test_single_site_box_uses_unfolded_kernel(self):
        # on the 1-site box only the origin offset of the kernel survives
        f = FieldL(LatticeShape(1, 0), np.array([2.0 + 0j]))
        got = hamiltonian(f, standard_laplacian(1), 1.0)
        assert got == pytest.approx(4.0 + 0.5 * 16.0)


class TestWeightNormalization:
    def test_eps_zero_counts_sites(self):
        assert weight_normalization(LatticeShape(2, 3), 0.0) == 49.0

    def test_geometric_closed_form_1d(self):
        L, eps = 6, 0.3
        expected = 1.0 + 2.0 * sum(math.exp(-eps * r) for r in range(1, L + 1))
        assert weight_normalization(LatticeShape(1, L), eps) == pytest.approx(expected)

    def test_decreasing_in_eps(self):
        shape = LatticeShape(1, 5)
        values = [weight_normalization(shape, e) for e in (0.0, 0.1, 0.2, 0.5)]
        assert all(b < a for a, b in zip(values, values[1:]))


class TestLocalParticleNumber:
    def test_delta_peak_single_term(self):
        shape = LatticeShape(1, 5)
        f = truncate(point_source(1.0), shape)
        for x in [(0,), (2,), (-5,)]:
            expected = math.exp(-0.2 * torus_dist_inf(shape, x, (0,)))
            assert local_particle_number(f, 0.2, x) == pytest.approx(expected)

    def test_eps_zero_is_total(self):
        f = random_field(LatticeShape(1, 4), 2)
        assert local_particle_number(f, 0.0, (1,)) == pytest.approx(particle_number(f))

    def test_dominates_onsite_mass(self):
        f = random_field(LatticeShape(1, 4), 3)
        for x in f.shape.sites():
            assert local_particle_number(f, 0.3, x) >= abs(f.at(x)) ** 2

    def test_density_constant_modulus(self):
        shape = LatticeShape(1, 6)
        rng = np.random.default_rng(4)
        m = 1.3
        f = FieldL(shape, m * np.exp(1j * rng.uniform(0, 2 * np.pi, shape.dims)))
        assert local_density(f, 0.25, (2,)) == pytest.approx(m * m)

    def test_density_zero_field(self):
        assert local_density(FieldL.zero(LatticeShape(1, 4)), 0.1, (0,)) == 0.0


class TestParticleFlux:
    def test_real_field_vanishes(self):
        shape = LatticeShape(1, 5)
        f = FieldL(shape, np.random.default_rng(5).standard_normal(shape.dims) + 0j)
        assert np.max(np.abs(particle_flux_field(f, standard_laplacian(1)))) == 0.0

    def test_delta_peak_vanishes(self):
        f = truncate(point_source(1 + 1j), LatticeShape(1, 4))
        flux = particle_flux_field(f, standard_laplacian(1))
        assert np.max(np.abs(flux)) == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_global_balance(self, seed):
        f = random_field(LatticeShape(1, 8), seed)
        flux = particle_flux_field(f, standard_laplacian(1))
        scale = np.sum(np.abs(flux)) + 1e-300
        assert abs(np.sum(flux)) <= 1e-12 * scale


class TestWeightedFlux:
    @pytest.mark.parametrize("form", ["direct", "antisymmetrized"])
    def test_eps_zero_vanishes(self, form):
        f = random_field(LatticeShape(1, 6), 7)
        value = weighted_flux(f, standard_laplacian(1), 0.0, (0,), form)
        flux = particle_flux_field(f, standard_laplacian(1))
        assert abs(value) <= 1e-12 * (np.sum(np.abs(flux)) + 1e-300)

    @pytest.mark.parametrize("d,L,seed", [(1, 6, 0), (1, 8, 1), (2, 3, 2)])
    def test_forms_agree(self, d, L, seed):
        f = random_field(LatticeShape(d, L), seed)
        pot = standard_laplacian(d)
        x = (1,) * d
        direct = weighted_flux(f, pot, 0.2, x, "direct")
        anti = weighted_flux(f, pot, 0.2, x, "antisymmetrized")
        flux = particle_flux_field(f, pot)
        scale = float(np.sum(np.abs(flux))) + 1e-300
        assert abs(direct - anti) <= 1e-12 * scale

    def test_real_field_vanishes(self):
        shape = LatticeShape(1, 5)
        f = FieldL(shape, np.random.default_rng(8).standard_normal(shape.dims) + 0j)
        assert weighted_flux(f, standard_laplacian(1), 0.3, (0,)) == 0.0

    def test_unknown_form(self):
        with pytest.raises(ValueError):
            weighted_flux(random_field(LatticeShape(1, 4), 0), standard_laplacian(1), 0.1, (0,), "x")

    def test_flux_identity_along_trajectory(self):
        # centered dQ/dt matches M/S at second order in dt
        shape = LatticeShape(1, 8)
        pot = standard_laplacian(1)
        f = random_field(shape, 9, scale=0.8)
        eps, x = 0.25, (0,)
        s_eps = weight_normalization(shape, eps)
        errors = []
        for dt in (2e-2, 1e-2):
            cfg = SchemeConfig(scheme="strang", dt=dt, t_end=6 * dt, snapshot_stride=1, lam=1.0)
            traj = integrate(f, pot, cfg)
            j = 3
            q_plus = local_density(traj.snapshots[j + 1], eps, x)
            q_minus = local_density(traj.snapshots[j - 1], eps, x)
            fd = (q_plus - q_minus) / (2 * dt)
            m = weighted_flux(traj.snapshots[j], pot, eps, x) / s_eps
            errors.append(abs(fd - m))
        assert 2.5 <= errors[0] / errors[1] <= 6.0


class TestGrowthBound:
    def test_rate_formula(self):
        pot = standard_laplacian(1)
        eps, c = 0.1, 2.0
        expected = eps * c * 1 * math.exp(eps / 2) * 1.0 * 3
        assert growth_rate_bound(pot, eps, c) == pytest.approx(expected)

    def test_eps_out_of_range(self):
        with pytest.raises(ValueError):
            growth_rate_bound(standard_laplacian(1), 0.6)
        with pytest.raises(ValueError):
            growth_rate_bound(standard_laplacian(1), 0.0)

    def _trajectory(self, field, pot, T=2.0, lam=1.0):
        cfg = SchemeConfig(scheme="strang", dt=1e-2, t_end=T, snapshot_stride=10, lam=lam)
        return integrate(field, pot, cfg)

    def test_zero_trajectory_passes(self):
        traj = self._trajectory(FieldL.zero(LatticeShape(1, 8)), standard_laplacian(1))
        rep = growth_bound_report(traj, standard_laplacian(1), 0.1, (0,))
        assert rep.passed

    def test_onsite_run_density_constant(self):
        pot = zero_potential(1)
        f = random_field(LatticeShape(1, 8), 10)
        traj = self._trajectory(f, pot)
        rep = growth_bound_report(traj, pot, 0.1, (0,))
        assert rep.passed
        # onsite rotation preserves every modulus, so the raw density is flat
        q = [local_density(s, 0.1, (0,)) for s in traj.snapshots]
        assert max(q) - min(q) <= 1e-12 * q[0]

    def test_random_defocusing_run_passes(self):
        pot = standard_laplacian(1)
        f = random_field(LatticeShape(1, 16), 11)
        traj = self._trajectory(f, pot, T=4.0)
        rep = growth_bound_report(traj, pot, 0.1, (3,), c_const=2.0)
        assert rep.passed
        assert rep.fitted_rate <= rep.eps_tilde

    def test_undefined_ratio(self):
        shape = LatticeShape(1, 4)
        zero = FieldL.zero(shape)
        bump = truncate(point_source(1.0), shape)
        traj = Trajectory(shape=shape, values=np.stack([zero.values, bump.values]), dt=1.0,
                          stride=1)
        with pytest.raises(UndefinedRatioError):
            growth_bound_report(traj, standard_laplacian(1), 0.1, (0,))


class TestWeightedNorms:
    def test_zero_field(self):
        spec = WeightSpec(kind="power", parameter=0.5)
        assert weighted_norm(FieldL.zero(LatticeShape(1, 5)), spec) == 0.0

    @pytest.mark.parametrize("spec", [WeightSpec("power", 0.5), WeightSpec("exponential", 0.2)])
    def test_delta_peak(self, spec):
        f = truncate(point_source(2j), LatticeShape(1, 5))
        assert weighted_norm(f, spec) == pytest.approx(2.0)

    def test_constant_field_power_weight(self):
        shape = LatticeShape(1, 6)
        f = FieldL(shape, np.full(shape.dims, 0.7))
        assert weighted_norm(f, WeightSpec("power", 0.5)) == pytest.approx(0.7)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            WeightSpec(kind="gaussian", parameter=1.0)
        with pytest.raises(ValueError):
            WeightSpec(kind="power", parameter=0.0)

    def test_generator_envelope_uniform_in_L(self):
        p, amp = 0.45, 0.9
        gen = hashed_noise_generator(seed=12, envelope_exponent=p, amplitude=amp)
        spec = WeightSpec(kind="power", parameter=p)
        for L in (4, 8, 16, 32):
            f = truncate(gen, LatticeShape(1, L))
            assert weighted_norm(f, spec) <= amp + 1e-12


class TestWeightedPrefactor:
    def test_flat_weight_limit(self):
        shape = LatticeShape(1, 8)
        eps = 0.3
        pref = weighted_bound_prefactor(shape, eps, WeightSpec("power", 1e-12))
        assert pref == pytest.approx(weight_normalization(shape, eps / 2), rel=1e-9)

    def test_at_least_one(self):
        pref = weighted_bound_prefactor(LatticeShape(1, 5), 0.4, WeightSpec("power", 0.5))
        assert pref >= 1.0

    def test_saturates_in_L(self):
        eps = 0.4
        spec = WeightSpec("power", 0.5)
        values = [weighted_bound_prefactor(LatticeShape(1, L), eps, spec) for L in (8, 16, 32, 64)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        increments = [b - a for a, b in zip(values, values[1:])]
        assert increments[-1] <= 0.01 * values[-1]


class TestWeightedBoundCheck:
    def test_zero_trajectory(self):
        shape = LatticeShape(1, 6)
        cfg = SchemeConfig(dt=1e-2, t_end=0.1, snapshot_stride=10)
        traj = integrate(FieldL.zero(shape), standard_laplacian(1), cfg)
        rep = weighted_bound_check(traj, standard_laplacian(1), 0.1, WeightSpec("power", 0.5))
        assert rep.passed

    def test_linear_delta_peak_run(self):
        shape = LatticeShape(1, 10)
        pot = standard_laplacian(1)
        f = truncate(point_source(1.0), shape)
        cfg = SchemeConfig(scheme="strang", dt=1e-2, t_end=3.0, snapshot_stride=30, lam=0.0)
        traj = integrate(f, pot, cfg)
        rep = weighted_bound_check(traj, pot, 0.1, WeightSpec("power", 0.5))
        assert rep.passed

    def test_defocusing_gaussian_run(self):
        shape = LatticeShape(1, 32)
        pot = standard_laplacian(1)
        f = sample_gaussian(GaussianSpec(density=1.0), shape, 2024)
        cfg = SchemeConfig(scheme="strang", dt=1e-2, t_end=5.0, snapshot_stride=50, lam=1.0)
        traj = integrate(f, pot, cfg)
        rep = weighted_bound_check(traj, pot, 0.1, WeightSpec("power", 0.5), c_const=2.0)
        assert rep.passed


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def _strang_run(d, L, seed, t_end=0.5):
    shape = LatticeShape(d, L)
    pot = standard_laplacian(d)
    cfg = SchemeConfig(scheme="strang", dt=1e-2, t_end=t_end, snapshot_stride=1, lam=1.0)
    return pot, integrate(random_field(shape, seed), pot, cfg)


class TestPerSnapshotReference:
    """Report-level loops agree bit for bit with the per-snapshot observables."""

    @pytest.mark.parametrize("d, L, x", [(1, 16, (3,)), (2, 6, (0, 0)), (2, 6, (-2, 5))])
    def test_growth_report_bits(self, d, L, x):
        pot, traj = _strang_run(d, L, 21)
        rep = growth_bound_report(traj, pot, 0.1, x, c_const=2.0)
        q = np.array([local_density(s, 0.1, x) for s in traj.snapshots])
        ratios = q / (np.exp(growth_rate_bound(pot, 0.1, 2.0) * traj.times) * q[0])
        positive = traj.times > 0
        fitted = float(np.max(np.log(q[positive] / q[0]) / traj.times[positive]))
        assert _bits(rep.ratios) == _bits(ratios)
        assert _bits(rep.fitted_rate) == _bits(fitted)

    @pytest.mark.parametrize("d, L", [(1, 16), (2, 6)])
    def test_series_rows_bits(self, d, L):
        pot, traj = _strang_run(d, L, 22)
        locs = [LocalizationParams(eps=0.1, center=(0,) * d),
                LocalizationParams(eps=0.2, center=(L,) + (-1,) * (d - 1))]
        header, rows = observable_series(traj, pot, 1.0, locs, 2.0)
        reports = [growth_bound_report(traj, pot, loc.eps, loc.center, 2.0) for loc in locs]
        expected = []
        for j, s in enumerate(traj.snapshots):
            row = [float(traj.times[j]), particle_number(s), hamiltonian(s, pot, 1.0)]
            for loc, rep in zip(locs, reports):
                row += [local_particle_number(s, loc.eps, loc.center),
                        local_density(s, loc.eps, loc.center),
                        weighted_flux(s, pot, loc.eps, loc.center), float(rep.ratios[j])]
            expected.append(row)
        assert len(header) == len(rows[0]) == 3 + 4 * len(locs)
        assert _bits(rows) == _bits(expected)

    @pytest.mark.parametrize("d, L", [(1, 16), (2, 6)])
    @pytest.mark.parametrize("spec", [WeightSpec("power", 0.5), WeightSpec("exponential", 0.2)])
    def test_weighted_bound_bits(self, d, L, spec):
        pot, traj = _strang_run(d, L, 23)
        rep = weighted_bound_check(traj, pot, 0.1, spec, c_const=2.0)
        norms = np.array([weighted_norm(s, spec) for s in traj.snapshots])
        rate = growth_rate_bound(pot, 0.1, 2.0)
        ratios = norms / (np.exp(rate * traj.times) * rep.prefactor * norms[0])
        assert _bits(rep.ratios) == _bits(ratios)


def _reference_prefactor(shape, eps, spec):
    """weighted_bound_prefactor as a per-site loop, each site's sum by math.fsum."""
    if spec.kind == "exponential":
        phi = np.exp(-spec.parameter * torus_distance_grid(shape, (0,) * shape.d))
    else:
        phi = bracket_grid(shape) ** (-spec.parameter / 2.0)
    best = 0.0
    for site in shape.sites():
        kernel = np.exp(-0.5 * eps * torus_distance_grid(shape, site))
        total = math.fsum((kernel / phi).ravel())
        best = max(best, total * float(phi[shape.index(site)]))
    return best


# the loop this replaced read 3 ulp at most from the reference, and so does
# the sum by parts, over d = 1-3, L = 0-40, power weights to p = 3 and
# exponential weights to q = 5 at eps 0.1-2
PREFACTOR_ULPS = 4


class TestPrefactorReference:
    """Within PREFACTOR_ULPS of the per-site fsum, also where 1/Phi spans
    more than e^24 (exponential weights, q >= 2, L up to 12 in d = 2)."""

    @pytest.mark.parametrize("d, L", [(1, 0), (1, 1), (1, 7), (2, 0), (2, 1), (2, 5), (3, 2),
                                      (2, 8), (2, 12)])
    @pytest.mark.parametrize("spec", [WeightSpec("power", 1.0), WeightSpec("exponential", 0.3),
                                      WeightSpec("exponential", 2.0),
                                      WeightSpec("exponential", 5.0)])
    @pytest.mark.parametrize("eps", [0.1, 0.45])
    def test_bits(self, d, L, spec, eps):
        shape = LatticeShape(d, L)
        got = weighted_bound_prefactor(shape, eps, spec)
        expected = _reference_prefactor(shape, eps, spec)
        assert abs(got - expected) <= PREFACTOR_ULPS * math.ulp(expected)


class TestSeries:
    def test_header_and_rows(self):
        shape = LatticeShape(1, 6)
        pot = standard_laplacian(1)
        f = random_field(shape, 13)
        cfg = SchemeConfig(dt=1e-2, t_end=0.2, snapshot_stride=10, lam=1.0)
        traj = integrate(f, pot, cfg)
        locs = [LocalizationParams(eps=0.1, center=(0,))]
        header, rows = observable_series(traj, pot, 1.0, locs)
        assert header[:3] == ["t", "N_L", "H_L"]
        assert len(header) == 7
        assert len(rows) == 3
        assert rows[0][0] == 0.0
        assert rows[0][3] == pytest.approx(local_particle_number(f, 0.1, (0,)))


def _random_trajectory(rng, shape, n):
    values = rng.standard_normal((n, *shape.dims)) + 1j * rng.standard_normal((n, *shape.dims))
    return Trajectory(shape=shape, values=values, dt=0.1, stride=1)


class TestStackedReductions:
    """Every reduction over a trajectory's blocks equals its per-snapshot
    public formula bit for bit, in d = 1, 2, 3 and at any block size."""

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 3), ell=st.integers(1, 2), extra=st.integers(0, 2),
           n=st.integers(1, 12), block_sites=st.integers(1, 300),
           power=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_blocked_equals_per_snapshot(self, d, ell, extra, n, block_sites, power, seed):
        rng = np.random.default_rng(seed)
        coeffs = rng.standard_normal((2 * ell + 1,) * d)
        pot = HoppingPotential(d=d, range=ell, coeffs=coeffs + np.flip(coeffs))
        shape = LatticeShape(d, ell + extra)
        lam = float(rng.uniform(-2.0, 2.0))
        eps = float(rng.uniform(0.01, 0.24))
        center = tuple(int(c) for c in rng.integers(-shape.L, shape.L + 1, size=d))
        spec = WeightSpec("power" if power else "exponential", float(rng.uniform(0.1, 3.0)))
        k = int(rng.integers(0, shape.L + 1))
        m = int(rng.integers(0, n))
        traj = _random_trajectory(rng, shape, n)
        big = _random_trajectory(rng, LatticeShape(d, shape.L + 1), n)
        t = float(traj.times[m])
        with mock.patch.object(dnls.lattice, "_STACK_SITES", block_sites):
            _, rows = observable_series(traj, pot, lam, [LocalizationParams(eps, center)])
            report = weighted_bound_check(traj, pot, eps, spec)
            got_drift = drift(traj, t)
            got_window = window_disagreement(big, traj, k, t)

        table = np.array(rows)
        snaps = traj.snapshots
        assert np.array_equal(table[:, 1], [particle_number(s) for s in snaps])
        assert np.array_equal(table[:, 2], [hamiltonian(s, pot, lam) for s in snaps])
        assert np.array_equal(table[:, 3], [local_particle_number(s, eps, center) for s in snaps])
        assert np.array_equal(table[:, 5], [weighted_flux(s, pot, eps, center) for s in snaps])
        norms = np.array([weighted_norm(s, spec) for s in snaps])
        ratios = norms / (np.exp(report.eps_tilde * traj.times) * report.prefactor * norms[0])
        assert np.array_equal(report.ratios, ratios)

        assert got_drift == max(float(np.max(np.abs(traj.values[j] - traj.values[0])))
                                for j in range(m + 1))
        small_sl = (slice(shape.L - k, shape.L + k + 1),) * d
        big_sl = (slice(shape.L + 1 - k, shape.L + k + 2),) * d
        assert got_window == max(float(np.max(np.abs(big.values[j][big_sl]
                                                     - traj.values[j][small_sl])))
                                 for j in range(m + 1))
