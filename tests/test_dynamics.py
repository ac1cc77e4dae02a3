import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_propagator, hopping_matrix, naive_convolve, random_field
import dnls.dynamics
from dnls.dynamics import (
    SCHEMES,
    BlowUpError,
    SchemeConfig,
    Trajectory,
    duhamel_defect_first,
    duhamel_defect_second,
    duhamel_residual_first,
    duhamel_residual_second,
    energy_gradient,
    g_site,
    integrate,
    p_site,
    rhs,
    second_time_derivative,
    step_rk4,
    step_strang,
    subsample,
)
from dnls.hopping import (
    HoppingPotential,
    standard_laplacian,
    wrapped_difference,
    zero_potential,
)
from dnls.lattice import DataError, FieldL, LatticeShape, point_source, truncate
from dnls.observables import hamiltonian, particle_number


def _simpson_weights(m, spacing):
    """Composite Simpson weights over m (even) intervals."""
    weights = np.ones(m + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return weights * (spacing / 3.0)


def naive_second_derivative(field, pot, lam, x):
    """Brute-force five-term polynomial with explicit double sums."""
    shape = field.shape
    a = lambda u: pot.at(wrapped_difference(shape, *u))
    psi = field.at
    term1 = -sum(
        a((x, y)) * a((y, z)) * psi(z)
        for y in shape.sites()
        for z in shape.sites()
    )
    term2 = -lam * sum(a((x, y)) * abs(psi(y)) ** 2 * psi(y) for y in shape.sites())
    term3 = -2 * lam * abs(psi(x)) ** 2 * sum(a((x, y)) * psi(y) for y in shape.sites())
    term4 = -lam * lam * abs(psi(x)) ** 4 * psi(x)
    term5 = lam * psi(x) ** 2 * sum(a((x, y)) * np.conj(psi(y)) for y in shape.sites())
    return term1 + term2 + term3 + term4 + term5


class TestSchemeConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SchemeConfig(scheme="euler")
        with pytest.raises(ValueError):
            SchemeConfig(dt=0)
        with pytest.raises(ValueError):
            SchemeConfig(t_end=-1)
        with pytest.raises(ValueError):
            SchemeConfig(snapshot_stride=0)

    def test_grid_consistency(self):
        with pytest.raises(ValueError):
            SchemeConfig(dt=1e-3, t_end=0.0105).n_steps()
        with pytest.raises(ValueError):
            SchemeConfig(dt=1e-3, t_end=0.015, snapshot_stride=10).n_steps()
        assert SchemeConfig(dt=1e-3, t_end=0.02, snapshot_stride=10).n_steps() == 20


class TestTrajectory:
    SHAPE = LatticeShape(2, 1)

    def _build(self, values, times=(0.0, 0.5, 1.0)):
        return Trajectory(shape=self.SHAPE, times=np.array(times), values=values,
                          dt=0.5, stride=1)

    def _stack(self, n=3):
        return np.stack([random_field(self.SHAPE, seed).values for seed in range(n)])

    def test_wrong_shape_rejected(self):
        with pytest.raises(DataError):
            self._build(self._stack(4))
        with pytest.raises(DataError):
            self._build(self._stack().reshape(3, 9))

    def test_empty_times_rejected(self):
        with pytest.raises(DataError):
            self._build(np.empty((0, 3, 3), dtype=np.complex128), times=())

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_rejected_in_any_block(self, bad, monkeypatch):
        # one snapshot per block, and the bad entry in the last one
        monkeypatch.setattr(dnls.dynamics, "_STACK_SITES", self.SHAPE.volume)
        values = self._stack()
        values[2, 1, 0] = bad
        with pytest.raises(DataError):
            self._build(values)

    def test_writeable_input_copied_and_frozen(self):
        values = self._stack()
        traj = self._build(values)
        assert not traj.values.flags.writeable
        assert not np.shares_memory(traj.values, values)
        assert np.array_equal(traj.values, values)
        frozen = values.copy()
        frozen.setflags(write=False)
        assert self._build(frozen).values is frozen

    def test_views_share_the_stack_but_final_does_not(self):
        f = random_field(LatticeShape(1, 4), 5)
        traj = integrate(f, standard_laplacian(1), SchemeConfig(dt=0.01, t_end=0.04,
                                                                 snapshot_stride=1))
        sub = subsample(traj, 2)
        assert np.shares_memory(sub.values, traj.values)
        assert np.array_equal(sub.values, traj.values[::2])
        assert np.array_equal(sub.times, traj.times[::2])
        assert all(np.shares_memory(s.values, traj.values) for s in traj.snapshots)
        # a view would keep the whole stack alive for as long as the final field
        assert not np.shares_memory(traj.final.values, traj.values)
        assert np.array_equal(traj.final.values, traj.values[-1])

    def test_times_are_the_step_grid(self):
        cfg = SchemeConfig(dt=0.003, t_end=0.3, snapshot_stride=4)
        traj = integrate(random_field(LatticeShape(1, 3), 2), standard_laplacian(1), cfg)
        assert traj.times.tolist() == [step * 0.003 for step in range(0, 101, 4)]


class TestEvolutionPolynomials:
    def test_g_zero_field(self):
        shape = LatticeShape(1, 4)
        assert g_site(FieldL.zero(shape), standard_laplacian(1), 1.0, (0,)) == 0

    def test_g_delta_peak(self):
        f = truncate(point_source(1.0), LatticeShape(1, 4))
        pot = standard_laplacian(1)
        assert g_site(f, pot, 1.0, (0,)) == pytest.approx(2.0)
        assert g_site(f, pot, 1.0, (1,)) == pytest.approx(-0.5)
        assert g_site(f, pot, 1.0, (-1,)) == pytest.approx(-0.5)

    def test_g_linear_case_is_convolution(self):
        f = random_field(LatticeShape(1, 5), 0)
        pot = standard_laplacian(1)
        for x in [(-3,), (0,), (4,)]:
            expected = naive_convolve(pot, f)[f.shape.index(x)]
            assert g_site(f, pot, 0.0, x) == pytest.approx(expected, abs=1e-13)

    def test_rhs_zero(self):
        shape = LatticeShape(1, 3)
        out = rhs(FieldL.zero(shape), standard_laplacian(1), 1.0)
        assert np.all(out.values == 0)

    def test_rhs_constant_field(self):
        # linear part annihilates constants in d=1, leaving -i lam c^3
        shape = LatticeShape(1, 5)
        c = 1.7
        out = rhs(FieldL(shape, np.full(shape.dims, c)), standard_laplacian(1), 2.0)
        assert np.allclose(out.values, -1j * 2.0 * c**3, atol=1e-13)

    def test_rhs_linear_delta_peak(self):
        f = truncate(point_source(1.0), LatticeShape(1, 4))
        out = rhs(f, standard_laplacian(1), 0.0)
        assert out.at((0,)) == pytest.approx(-1j)
        assert out.at((1,)) == pytest.approx(0.5j)

    def test_p_zero_field(self):
        shape = LatticeShape(1, 4)
        assert p_site(FieldL.zero(shape), standard_laplacian(1), 1.0, (0,)) == 0

    def test_p_linear_case(self):
        f = random_field(LatticeShape(1, 5), 1)
        pot = standard_laplacian(1)
        mat = hopping_matrix(pot, f.shape)
        expected = -(mat @ (mat @ f.values))
        got = np.array([p_site(f, pot, 0.0, x) for x in f.shape.sites()])
        assert np.allclose(got, expected, atol=1e-12)

    def test_p_delta_peak_frozen_value(self):
        # five paper terms at the origin: -3/2 - 1 - 2 - 1 + 1 = -9/2
        f = truncate(point_source(1.0), LatticeShape(1, 4))
        pot = standard_laplacian(1)
        value = p_site(f, pot, 1.0, (0,))
        assert value == pytest.approx(-4.5, abs=1e-14)
        assert naive_second_derivative(f, pot, 1.0, (0,)) == pytest.approx(-4.5, abs=1e-14)

    @pytest.mark.parametrize("d,L,lam,seed", [(1, 4, 1.0, 2), (1, 3, -0.7, 3), (2, 2, 0.5, 4)])
    def test_p_matches_naive(self, d, L, lam, seed):
        f = random_field(LatticeShape(d, L), seed)
        pot = standard_laplacian(d)
        for x in [(0,) * d, (1,) * d]:
            assert p_site(f, pot, lam, x) == pytest.approx(
                naive_second_derivative(f, pot, lam, x), rel=1e-12
            )

    def test_locality_bit_identical(self):
        shape = LatticeShape(1, 8)
        pot = standard_laplacian(1)
        f = random_field(shape, 5)
        bumped = f.values.copy()
        bumped[shape.index((4,))] += 3.0  # outside ball(0, 2*ell)
        g = FieldL(shape, bumped)
        assert g_site(f, pot, 1.0, (0,)) == g_site(g, pot, 1.0, (0,))
        assert p_site(f, pot, 1.0, (0,)) == p_site(g, pot, 1.0, (0,))
        bumped2 = f.values.copy()
        bumped2[shape.index((2,))] += 3.0  # inside ball(0, 2*ell), outside ball(0, ell)
        h = FieldL(shape, bumped2)
        assert g_site(f, pot, 1.0, (0,)) == g_site(h, pot, 1.0, (0,))
        assert p_site(f, pot, 1.0, (0,)) != p_site(h, pot, 1.0, (0,))


class TestSteps:
    def test_strang_linear_is_exact_propagator(self):
        shape = LatticeShape(1, 6)
        pot = standard_laplacian(1)
        f = random_field(shape, 0)
        dt = 0.3
        stepped = step_strang(f, pot, 0.0, dt)
        exact = dense_propagator(pot, shape, dt) @ f.values
        assert np.max(np.abs(stepped.values - exact)) < 1e-13

    def test_strang_onsite_exact_any_dt(self):
        shape = LatticeShape(1, 5)
        pot = zero_potential(1)
        f = random_field(shape, 1)
        dt = 0.7
        out = f
        for _ in range(3):
            out = step_strang(out, pot, 1.5, dt)
        exact = np.exp(-1j * 1.5 * np.abs(f.values) ** 2 * (3 * dt)) * f.values
        assert np.max(np.abs(out.values - exact)) < 1e-13

    def test_strang_preserves_particle_number(self):
        f = random_field(LatticeShape(1, 16), 2)
        out = step_strang(f, standard_laplacian(1), 1.0, 1e-2)
        n0, n1 = particle_number(f), particle_number(out)
        assert abs(n1 - n0) <= 1e-12 * n0

    def test_rk4_zero_field(self):
        shape = LatticeShape(1, 4)
        out = step_rk4(FieldL.zero(shape), standard_laplacian(1), 1.0, 0.1)
        assert np.all(out.values == 0)

    def test_rk4_linear_matches_taylor4(self):
        # for a linear system RK4 reproduces the degree-4 Taylor polynomial
        shape = LatticeShape(1, 3)
        pot = standard_laplacian(1)
        f = random_field(shape, 3)
        dt = 0.05
        m = -1j * dt * hopping_matrix(pot, shape)
        taylor = f.values.copy()
        acc = f.values.copy()
        for k in range(1, 5):
            acc = m @ acc / k
            taylor = taylor + acc
        out = step_rk4(f, pot, 0.0, dt)
        assert np.max(np.abs(out.values - taylor)) < 1e-14

    def test_rk4_fourth_order_convergence(self):
        shape = LatticeShape(1, 6)
        pot = standard_laplacian(1)
        f = random_field(shape, 4)
        T = 0.5
        errors = []
        for dt in (0.05, 0.025):
            cfg = SchemeConfig(scheme="rk4", dt=dt, t_end=T, snapshot_stride=int(T / dt), lam=0.0)
            traj = integrate(f, pot, cfg)
            exact = dense_propagator(pot, shape, T) @ f.values
            errors.append(np.max(np.abs(traj.final.values - exact)))
        ratio = errors[0] / errors[1]
        assert 12 <= ratio <= 20


class TestIntegrate:
    def test_zero_time(self):
        f = random_field(LatticeShape(1, 4), 0)
        traj = integrate(f, standard_laplacian(1), SchemeConfig(t_end=0.0))
        assert len(traj) == 1
        assert traj.times[0] == 0.0
        assert np.array_equal(traj.snapshots[0].values, f.values)

    def test_onsite_closed_form(self):
        shape = LatticeShape(1, 8)
        f = random_field(shape, 5)
        cfg = SchemeConfig(scheme="strang", dt=1e-2, t_end=2.0, snapshot_stride=20, lam=1.0)
        traj = integrate(f, zero_potential(1), cfg)
        for t, snap in zip(traj.times, traj.snapshots):
            exact = np.exp(-1j * np.abs(f.values) ** 2 * t) * f.values
            assert np.max(np.abs(snap.values - exact)) <= 1e-12

    def test_linear_matches_dense_oracle(self):
        shape = LatticeShape(1, 8)
        pot = standard_laplacian(1)
        f = random_field(shape, 6)
        cfg = SchemeConfig(scheme="strang", dt=1e-3, t_end=1.0, snapshot_stride=1000, lam=0.0)
        traj = integrate(f, pot, cfg)
        exact = dense_propagator(pot, shape, 1.0) @ f.values
        assert np.max(np.abs(traj.final.values - exact)) <= 1e-8

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blow_up_raises_with_time(self):
        shape = LatticeShape(1, 4)
        f = FieldL(shape, np.full(shape.dims, 50.0 + 0j))
        cfg = SchemeConfig(scheme="rk4", dt=10.0, t_end=100.0, snapshot_stride=1, lam=1.0)
        with pytest.raises(BlowUpError) as err:
            integrate(f, standard_laplacian(1), cfg)
        assert err.value.time > 0

    def test_deterministic(self):
        f = random_field(LatticeShape(1, 8), 8)
        cfg = SchemeConfig(dt=1e-2, t_end=0.5, snapshot_stride=10)
        a = integrate(f, standard_laplacian(1), cfg)
        b = integrate(f, standard_laplacian(1), cfg)
        assert np.array_equal(a.final.values, b.final.values)

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.integers(1, 3),
        ell=st.integers(1, 2),
        extra=st.integers(0, 2),
        scheme=st.sampled_from(SCHEMES),
        zero_kernel=st.booleans(),
        lam=st.floats(-2.0, 2.0),
        stride=st.integers(1, 3),
        n_snap=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_snapshots_equal_iterated_steps(
        self, d, ell, extra, scheme, zero_kernel, lam, stride, n_snap, seed
    ):
        rng = np.random.default_rng(seed)
        coeffs = rng.standard_normal((2 * ell + 1,) * d)
        coeffs = np.zeros_like(coeffs) if zero_kernel else coeffs + np.flip(coeffs)
        pot = HoppingPotential(d=d, range=ell, coeffs=coeffs)
        f = random_field(LatticeShape(d, ell + extra), seed)
        dt = 0.01
        cfg = SchemeConfig(scheme=scheme, dt=dt, t_end=dt * stride * n_snap,
                           snapshot_stride=stride, lam=lam)
        traj = integrate(f, pot, cfg)
        step = step_strang if scheme == "strang" else step_rk4
        current = f
        expected = [f]
        for k in range(1, stride * n_snap + 1):
            current = step(current, pot, lam, dt)
            if k % stride == 0:
                expected.append(current)
        assert len(traj.snapshots) == len(expected)
        for got, want in zip(traj.snapshots, expected):
            assert np.array_equal(got.values, want.values)


class TestTrajectoryGradients:
    def test_first_derivative_matches_rhs(self):
        shape = LatticeShape(1, 8)
        pot = standard_laplacian(1)
        f = random_field(shape, 9, scale=0.7)
        errors = []
        for dt in (2e-3, 1e-3):
            cfg = SchemeConfig(scheme="strang", dt=dt, t_end=8 * dt, snapshot_stride=1, lam=1.0)
            traj = integrate(f, pot, cfg)
            j = 4
            mid = traj.snapshots[j]
            fd = (traj.snapshots[j + 1].values - traj.snapshots[j - 1].values) / (2 * dt)
            expected = rhs(mid, pot, 1.0).values
            errors.append(np.max(np.abs(fd - expected)))
        assert 2.5 <= errors[0] / errors[1] <= 6.0

    def test_second_derivative_matches_p(self):
        shape = LatticeShape(1, 8)
        pot = standard_laplacian(1)
        f = random_field(shape, 10, scale=0.7)
        errors = []
        for dt in (2e-3, 1e-3):
            cfg = SchemeConfig(scheme="strang", dt=dt, t_end=8 * dt, snapshot_stride=1, lam=1.0)
            traj = integrate(f, pot, cfg)
            j = 4
            mid = traj.snapshots[j]
            fd = (
                traj.snapshots[j + 1].values
                - 2 * mid.values
                + traj.snapshots[j - 1].values
            ) / dt**2
            expected = second_time_derivative(mid, pot, 1.0)
            errors.append(np.max(np.abs(fd - expected)))
        assert 2.5 <= errors[0] / errors[1] <= 6.0


class TestConservation:
    def test_particle_number_drift(self):
        f = random_field(LatticeShape(1, 16), 11)
        cfg = SchemeConfig(scheme="strang", dt=1e-3, t_end=2.0, snapshot_stride=2000, lam=1.0)
        traj = integrate(f, standard_laplacian(1), cfg)
        n0 = particle_number(traj.snapshots[0])
        assert abs(particle_number(traj.final) - n0) <= 1e-10 * n0

    def test_energy_drift_second_order(self):
        pot = standard_laplacian(1)
        f = random_field(LatticeShape(1, 16), 12)
        drifts = []
        for dt in (2e-3, 1e-3):
            cfg = SchemeConfig(scheme="strang", dt=dt, t_end=2.0, snapshot_stride=int(0.1 / dt), lam=1.0)
            traj = integrate(f, pot, cfg)
            h = np.array([hamiltonian(s, pot, 1.0) for s in traj.snapshots])
            drifts.append(np.max(np.abs(h - h[0])))
        assert 2.5 <= drifts[0] / drifts[1] <= 6.0


class TestDuhamel:
    def test_zero_time(self):
        f = random_field(LatticeShape(1, 6), 13)
        cfg = SchemeConfig(dt=1e-2, t_end=0.1, snapshot_stride=1)
        traj = integrate(f, standard_laplacian(1), cfg)
        assert duhamel_residual_first(traj, standard_laplacian(1), 1.0, (0,), 0.0) == 0.0
        assert duhamel_residual_second(traj, standard_laplacian(1), 1.0, (0,), 0.0) == 0.0

    def test_zero_field(self):
        f = FieldL.zero(LatticeShape(1, 6))
        cfg = SchemeConfig(dt=1e-2, t_end=0.1, snapshot_stride=1)
        traj = integrate(f, standard_laplacian(1), cfg)
        for t in traj.times:
            assert duhamel_residual_first(traj, standard_laplacian(1), 1.0, (0,), float(t)) == 0.0

    def test_off_grid_time_rejected(self):
        f = random_field(LatticeShape(1, 6), 14)
        cfg = SchemeConfig(dt=1e-2, t_end=0.1, snapshot_stride=2)
        traj = integrate(f, standard_laplacian(1), cfg)
        with pytest.raises(ValueError):
            duhamel_residual_first(traj, standard_laplacian(1), 1.0, (0,), 0.03)

    def _oracle_trajectory(self, shape, pot, f, T, n_snap):
        times = np.linspace(0.0, T, n_snap + 1)
        values = np.stack([dense_propagator(pot, shape, t) @ f.values for t in times])
        return Trajectory(
            shape=shape, times=times, values=values,
            dt=times[1] - times[0], stride=1,
        )

    def test_second_residual_on_exact_linear_trajectory(self):
        shape = LatticeShape(1, 8)
        pot = standard_laplacian(1)
        f = random_field(shape, 15)
        traj = self._oracle_trajectory(shape, pot, f, 1.0, 100)
        for x in [(0,), (3,)]:
            assert duhamel_residual_second(traj, pot, 0.0, x, 1.0) <= 1e-8

    def test_residual_refinement_at_quadrature_order(self):
        # on an exact trajectory the residual is pure quadrature error
        shape = LatticeShape(1, 8)
        pot = standard_laplacian(1)
        f = random_field(shape, 16)
        coarse = self._oracle_trajectory(shape, pot, f, 1.0, 10)
        fine = self._oracle_trajectory(shape, pot, f, 1.0, 20)
        r_coarse = duhamel_residual_second(coarse, pot, 0.0, (1,), 1.0)
        r_fine = duhamel_residual_second(fine, pot, 0.0, (1,), 1.0)
        assert r_coarse / r_fine >= 4.0

    @pytest.mark.parametrize("d, L, t_end", [(1, 64, 0.3), (2, 10, 0.1)])
    def test_first_defect_bit_identical_to_per_snapshot_sum(self, d, L, t_end):
        # 301 snapshots of 129 sites, or 101 of 441, span several stacked blocks
        shape = LatticeShape(d, L)
        pot = standard_laplacian(d)
        cfg = SchemeConfig(scheme="strang", dt=1e-3, t_end=t_end, snapshot_stride=1, lam=1.0)
        traj = integrate(random_field(shape, 18, scale=0.7), pot, cfg)
        for x in [(0,) * d, (L,) + (-3,) * (d - 1)]:
            idx = shape.index(x)
            m = len(traj) - 1
            weights = _simpson_weights(m, traj.spacing)
            samples = np.array([energy_gradient(s, pot, 1.0)[idx] for s in traj.snapshots])
            increment = traj.final.values[idx] - traj.snapshots[0].values[idx]
            expected = complex(increment + 1j * np.sum(weights * samples))
            got = duhamel_defect_first(traj, pot, 1.0, x, float(traj.times[-1]))
            assert np.array([got]).view(np.uint64).tolist() == \
                np.array([expected]).view(np.uint64).tolist()

    @pytest.mark.parametrize("d, L, t_end", [(1, 64, 0.3), (2, 10, 0.1)])
    def test_second_defect_bit_identical_to_per_snapshot_sum(self, d, L, t_end):
        # the per-snapshot loop over second_time_derivative as a reference;
        # both times give an even interval count (Simpson) and three blocks
        shape = LatticeShape(d, L)
        pot = standard_laplacian(d)
        cfg = SchemeConfig(scheme="rk4", dt=1e-3, t_end=t_end, snapshot_stride=1, lam=1.0)
        traj = integrate(random_field(shape, 19, scale=0.7), pot, cfg)
        for x, m in [((0,) * d, len(traj) - 1), ((L,) + (-3,) * (d - 1), len(traj) - 3)]:
            t = float(traj.times[m])
            idx = shape.index(x)
            weights = _simpson_weights(m, traj.spacing)
            samples = np.array([(t - traj.times[j]) * second_time_derivative(s, pot, 1.0)[idx]
                                for j, s in enumerate(traj.snapshots[:m + 1])])
            increment = traj.snapshots[m].values[idx] - traj.snapshots[0].values[idx]
            g0 = energy_gradient(traj.snapshots[0], pot, 1.0)[idx]
            expected = complex(increment + 1j * t * g0 - np.sum(weights * samples))
            got = duhamel_defect_second(traj, pot, 1.0, x, t)
            assert np.array([got]).view(np.uint64).tolist() == \
                np.array([expected]).view(np.uint64).tolist()

    def test_first_residual_strang_run(self):
        shape = LatticeShape(1, 32)
        pot = standard_laplacian(1)
        f = random_field(shape, 17, scale=0.7)
        cfg = SchemeConfig(scheme="strang", dt=1e-3, t_end=1.0, snapshot_stride=10, lam=1.0)
        traj = integrate(f, pot, cfg)
        for x in [(0,), (5,), (-12,)]:
            assert duhamel_residual_first(traj, pot, 1.0, x, 1.0) <= 1e-6
