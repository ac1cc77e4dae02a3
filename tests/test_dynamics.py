import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (dense_propagator, hopping_matrix, naive_convolve, random_field, random_kernel,
                      same_bits, wrapped_difference)
import dnls.dynamics
from dnls.dynamics import (
    _fourier_passes,
    SCHEMES,
    BlowUpError,
    SchemeConfig,
    Trajectory,
    duhamel_defect_first,
    duhamel_defect_second,
    energy_gradient,
    g_site,
    integrate,
    integrate_packed,
    p_site,
    second_time_derivative,
    subsample,
)
from dnls.hopping import (
    HoppingPotential,
    KernelError,
    dispersion,
    standard_laplacian,
    stencil,
    zero_potential,
)
from dnls.lattice import DataError, FieldL, LatticeShape, box_starts, point_source, truncate
from dnls.observables import hamiltonian, particle_number


def one_step(scheme, field, pot, lam, dt):
    """One step of scheme from field, run through integrate."""
    return integrate(field, pot, SchemeConfig(scheme=scheme, dt=dt, t_end=dt, lam=lam)).final


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


def reference_propagator(shape, linear_phase):
    """The linear flow as a dense matrix on row-major flat fields, column j
    the flow of the j-th unit field, from plain np.fft expressions."""
    volume, axes = shape.volume, tuple(range(1, shape.d + 1))
    units = np.eye(volume, dtype=np.complex128).reshape((volume, *shape.dims))
    flows = np.fft.ifftn(linear_phase * np.fft.fftn(units, axes=axes), axes=axes)
    return flows.reshape(volume, volume).T.copy()


def _reference_strang(pot, shape, lam, dt):
    """(rotate, linear, half_rate): the onsite rotation at a rate and the
    linear flow as plain numpy expressions, with fresh arrays.  The linear
    flow routes as the stepper's does: a box of at most _DENSE_SITES sites
    applies the propagator above with @, a larger one runs np.fft."""
    disp = dispersion(pot, shape)
    linear_phase = None if np.all(disp == 0.0) else np.exp(-1j * dt * disp)
    fft, ifft = (np.fft.fft, np.fft.ifft) if shape.d == 1 else (np.fft.fftn, np.fft.ifftn)
    dense = linear_phase is not None and shape.volume <= dnls.dynamics._DENSE_SITES
    prop = reference_propagator(shape, linear_phase) if dense else None

    def rotate(values, rate):
        return values * np.exp(rate * np.abs(values) ** 2)

    def linear(values):
        if linear_phase is None:
            return values
        if dense:
            return (prop @ values.ravel()).reshape(shape.dims)
        return ifft(linear_phase * fft(values))

    return rotate, linear, -0.5j * lam * dt


def reference_stepper(scheme, pot, shape, lam, dt):
    """One step as plain numpy expressions, with np.fft and fresh arrays per
    step; a bit-level oracle for the buffered steppers below 2^14 sites."""
    if scheme == "strang":
        rotate, linear, half_rate = _reference_strang(pot, shape, lam, dt)
        return lambda values: rotate(linear(rotate(values, half_rate)), half_rate)
    apply = stencil(pot, shape)

    def f(y):
        return -1j * (apply(y) + lam * (np.abs(y) ** 2) * y)

    def rk4(y):
        k1 = f(y)
        k2 = f(y + 0.5 * dt * k1)
        k3 = f(y + 0.5 * dt * k2)
        k4 = f(y + dt * k3)
        return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    return rk4


def reference_snapshots(scheme, field, pot, lam, dt, stride, n_snap):
    """Snapshots every stride steps.  Strang merges the closing half rotation
    of each step with the opening one of the next, within a snapshot block:
    half rotation, then per step the linear flow and a full rotation, the
    last one a half rotation."""
    if scheme == "strang":
        rotate, linear, half_rate = _reference_strang(pot, field.shape, lam, dt)

        def advance_block(psi):
            psi = rotate(psi, half_rate)
            for k in range(1, stride + 1):
                psi = rotate(linear(psi), half_rate if k == stride else 2 * half_rate)
            return psi
    else:
        step = reference_stepper(scheme, pot, field.shape, lam, dt)

        def advance_block(psi):
            for _ in range(stride):
                psi = step(psi)
            return psi
    expected = [field.values]
    for _ in range(n_snap):
        expected.append(advance_block(expected[-1]))
    return np.stack(expected)


def reference_single_steps(scheme, field, pot, lam, dt, steps):
    """(rows, first_bad): field.values and the reference's single steps from
    it, up to the given count or the first non-finite step, whose number is
    first_bad (None when every step is finite) and which rows leave out."""
    advance = reference_stepper(scheme, pot, field.shape, lam, dt)
    rows = [field.values]
    for k in range(1, steps + 1):
        psi = advance(rows[-1])
        if not np.isfinite(psi).all():
            return rows, k
        rows.append(psi)
    return rows, None


def first_field_with(shape, scale, premise, seeds=range(1, 1000)):
    """(field, result): the first random field of the given scale, over the
    seeds, for which premise(field) returns a result other than None."""
    for seed in seeds:
        field = random_field(shape, seed, scale)
        result = premise(field)
        if result is not None:
            return field, result
    raise AssertionError(f"no field of scale {scale} over seeds {seeds} gives the premise")


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

    def test_integrate_and_subsample_do_not_rescan(self, monkeypatch):
        # integrate checks each row as it stores it, and a subsample views a
        # checked stack, so neither runs the constructor's whole-stack check
        def rescan(traj):
            raise AssertionError("checked stack scanned again")

        monkeypatch.setattr(Trajectory, "__post_init__", rescan)
        f = random_field(LatticeShape(1, 4), 5)
        traj = integrate(f, standard_laplacian(1), SchemeConfig(dt=0.01, t_end=0.04))
        sub = subsample(traj, 2)
        assert not traj.values.flags.writeable and not traj.times.flags.writeable
        assert np.array_equal(sub.values, traj.values[::2])
        assert sub.stride == 2 and sub.dt == traj.dt

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
        out = -1j * energy_gradient(FieldL.zero(shape), standard_laplacian(1), 1.0)
        assert np.all(out == 0)

    def test_rhs_constant_field(self):
        # linear part annihilates constants in d=1, leaving -i lam c^3
        shape = LatticeShape(1, 5)
        c = 1.7
        out = -1j * energy_gradient(FieldL(shape, np.full(shape.dims, c)), standard_laplacian(1),
                                    2.0)
        assert np.allclose(out, -1j * 2.0 * c**3, atol=1e-13)

    def test_rhs_linear_delta_peak(self):
        f = truncate(point_source(1.0), LatticeShape(1, 4))
        out = -1j * energy_gradient(f, standard_laplacian(1), 0.0)
        assert out[f.shape.index((0,))] == pytest.approx(-1j)
        assert out[f.shape.index((1,))] == pytest.approx(0.5j)

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
        stepped = one_step("strang", f, pot, 0.0, dt)
        exact = dense_propagator(pot, shape, dt) @ f.values
        assert np.max(np.abs(stepped.values - exact)) < 1e-13

    def test_strang_onsite_exact_any_dt(self):
        shape = LatticeShape(1, 5)
        pot = zero_potential(1)
        f = random_field(shape, 1)
        dt = 0.7
        out = f
        for _ in range(3):
            out = one_step("strang", out, pot, 1.5, dt)
        exact = np.exp(-1j * 1.5 * np.abs(f.values) ** 2 * (3 * dt)) * f.values
        assert np.max(np.abs(out.values - exact)) < 1e-13

    def test_strang_preserves_particle_number(self):
        f = random_field(LatticeShape(1, 16), 2)
        out = one_step("strang", f, standard_laplacian(1), 1.0, 1e-2)
        n0, n1 = particle_number(f), particle_number(out)
        assert abs(n1 - n0) <= 1e-12 * n0

    def test_rk4_zero_field(self):
        shape = LatticeShape(1, 4)
        out = one_step("rk4", FieldL.zero(shape), standard_laplacian(1), 1.0, 0.1)
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
        out = one_step("rk4", f, pot, 0.0, dt)
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

    # RK4 overshoots at a large dt; Strang keeps |psi| bounded, but its phase
    # lam * dt * |psi(x)|^2 / 2 overflows once the flow gathers enough weight
    # at one site.  The premise: the reference's first bad single step lies
    # inside a later snapshot block, so the run stores a finite row before
    # it and replays the block that holds it.  Which field gives it depends
    # on the last bits of the flow, so the field is the first random one of
    # the given scale, from seed 1 on, that gives it
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("scheme, lam, dt, scale, stride, steps", [
        ("rk4", 1.0, 0.5, 1.0, 2, 10),
        ("strang", 1e308, 1.0, 1.2, 3, 12),
    ])
    def test_blow_up_names_the_first_bad_step(self, scheme, lam, dt, scale, stride, steps):
        pot = standard_laplacian(1)

        def premise(f):
            _, first_bad = reference_single_steps(scheme, f, pot, lam, dt, steps)
            inside = first_bad is not None and first_bad > stride and first_bad % stride != 0
            return first_bad if inside else None

        f, first_bad = first_field_with(LatticeShape(1, 4), scale, premise)
        cfg = SchemeConfig(scheme=scheme, dt=dt, t_end=dt * steps, snapshot_stride=stride,
                           lam=lam)
        with pytest.raises(BlowUpError) as err:
            integrate(f, pot, cfg)
        assert err.value.step == first_bad
        assert err.value.time == first_bad * dt

    # the premise: every single step of the run is finite, while each of its
    # three merged blocks overflows, its merged phase lam * dt * |psi|^2
    # overflowing where two half phases do not.  So each block replays one
    # single step at a time, ends finite, keeps its row, and the run goes
    # on.  The field is chosen by the premise, as the reference computes it
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_finite_replay_keeps_its_row(self):
        shape, pot = LatticeShape(1, 4), standard_laplacian(1)
        lam, dt, stride, steps = 1e308, 1.0, 3, 9

        def premise(f):
            rows, first_bad = reference_single_steps("strang", f, pot, lam, dt, steps)
            blocks_overflow = first_bad is None and all(
                not np.isfinite(reference_snapshots("strang", FieldL(shape, rows[j]), pot, lam,
                                                    dt, stride, 1)[-1]).all()
                for j in range(0, steps, stride))
            return rows if blocks_overflow else None

        f, rows = first_field_with(shape, 1.2, premise)
        cfg = SchemeConfig(scheme="strang", dt=dt, t_end=dt * steps, snapshot_stride=stride,
                           lam=lam)
        traj = integrate(f, pot, cfg)
        assert np.array_equal(traj.values, np.stack(rows[::stride]))

    @settings(max_examples=30, deadline=None)
    @given(d=st.integers(1, 3), ell=st.integers(1, 2), extra=st.integers(0, 2),
           zero=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @pytest.mark.parametrize("stride", [2, 10, 100])
    def test_merged_strang_stays_near_single_steps(self, stride, d, ell, extra, zero, seed):
        rng = np.random.default_rng(seed)
        coeffs = rng.standard_normal((2 * ell + 1,) * d)
        coeffs = np.zeros_like(coeffs) if zero else coeffs + np.flip(coeffs)
        pot = HoppingPotential(d=d, range=ell, coeffs=coeffs)
        f = random_field(LatticeShape(d, ell + extra), seed)
        cfg = SchemeConfig(scheme="strang", dt=0.01, t_end=1.0, snapshot_stride=stride, lam=1.0)
        merged = integrate(f, pot, cfg)
        single = subsample(integrate(f, pot, replace(cfg, snapshot_stride=1)), stride)
        assert np.max(np.abs(merged.values - single.values)) <= 1e-11

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
        kernel=st.sampled_from(("random", "zero", "negative")),
        zero_field=st.booleans(),
        lam=st.floats(-2.0, 2.0),
        stride=st.integers(1, 3),
        n_snap=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    # a zero field; an all-negative kernel; lam 0 and lam < 0, where every
    # phase is +-0 or positive; RK4 blocks of several steps, which run in
    # the stepper's own arrays and write their inner steps into out
    @example(d=1, ell=1, extra=2, scheme="strang", kernel="zero", zero_field=True, lam=1.0,
             stride=2, n_snap=2, seed=1).via("zero field")
    @example(d=1, ell=1, extra=2, scheme="rk4", kernel="random", zero_field=True, lam=1.0,
             stride=2, n_snap=2, seed=1).via("zero field")
    @example(d=2, ell=1, extra=1, scheme="strang", kernel="negative", zero_field=False, lam=1.0,
             stride=3, n_snap=2, seed=2).via("all-negative kernel")
    @example(d=2, ell=1, extra=1, scheme="rk4", kernel="negative", zero_field=False, lam=1.0,
             stride=3, n_snap=2, seed=2).via("all-negative kernel")
    @example(d=1, ell=2, extra=1, scheme="strang", kernel="random", zero_field=False, lam=0.0,
             stride=3, n_snap=2, seed=3).via("lam 0")
    @example(d=3, ell=1, extra=0, scheme="strang", kernel="zero", zero_field=False, lam=-1.5,
             stride=2, n_snap=3, seed=4).via("lam < 0")
    @example(d=1, ell=1, extra=2, scheme="rk4", kernel="random", zero_field=False, lam=-1.5,
             stride=3, n_snap=3, seed=5).via("lam < 0, RK4 blocks")
    @example(d=3, ell=1, extra=1, scheme="rk4", kernel="random", zero_field=False, lam=1.0,
             stride=3, n_snap=2, seed=6).via("RK4 blocks")
    @example(d=3, ell=1, extra=0, scheme="strang", kernel="random", zero_field=False, lam=1.0,
             stride=2, n_snap=2, seed=7).via("dense linear flow, d = 3")
    @example(d=3, ell=1, extra=2, scheme="strang", kernel="random", zero_field=False, lam=1.0,
             stride=2, n_snap=2, seed=7).via("Fourier linear flow, d = 3")
    def test_snapshots_equal_iterated_steps(
        self, d, ell, extra, scheme, kernel, zero_field, lam, stride, n_snap, seed
    ):
        rng = np.random.default_rng(seed)
        coeffs = rng.standard_normal((2 * ell + 1,) * d)
        coeffs = coeffs + np.flip(coeffs)
        if kernel == "zero":
            coeffs = np.zeros_like(coeffs)
        elif kernel == "negative":
            coeffs = -np.abs(coeffs)
        pot = HoppingPotential(d=d, range=ell, coeffs=coeffs)
        f = random_field(LatticeShape(d, ell + extra), seed, 0.0 if zero_field else 1.0)
        dt = 0.01
        cfg = SchemeConfig(scheme=scheme, dt=dt, t_end=dt * stride * n_snap,
                           snapshot_stride=stride, lam=lam)
        traj = integrate(f, pot, cfg)
        expected = reference_snapshots(scheme, f, pot, lam, dt, stride, n_snap)
        # bit for bit, signed zeros included
        assert same_bits(traj.values, expected)
        assert same_bits(one_step(scheme, f, pot, lam, dt).values,
                         reference_stepper(scheme, pot, f.shape, lam, dt)(f.values))

    # boxes below 2^14 sites are bit-equal to the reference; at 16,385 sites
    # numpy elides the reference's temporaries and swaps the operands of its
    # complex products, so Strang's last bits move (6.9e-15 here).  Each d
    # has boxes on both sides of _DENSE_SITES: 199 and 201, 169 and 225, 125
    # and 343 sites
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("d, L, tol", [
        (1, 32, 0.0), (1, 64, 0.0), (1, 99, 0.0), (1, 100, 0.0), (1, 1000, 0.0),
        (2, 6, 0.0), (2, 7, 0.0), (2, 32, 0.0), (3, 2, 0.0), (3, 3, 0.0), (3, 8, 0.0),
        (1, 8192, 1e-12)])
    def test_larger_boxes_against_reference(self, scheme, d, L, tol):
        shape = LatticeShape(d, L)
        f = random_field(shape, 3)
        pot = standard_laplacian(d)
        cfg = SchemeConfig(scheme=scheme, dt=0.01, t_end=0.04, snapshot_stride=2, lam=1.0)
        expected = reference_snapshots(scheme, f, pot, 1.0, 0.01, 2, 2)
        assert np.max(np.abs(integrate(f, pot, cfg).values - expected)) <= tol


class TestIntegratePacked:
    @pytest.mark.parametrize("d, sizes, ell, stride", [
        (1, (3, 8, 5, 8), 1, 1), (2, (2, 4, 3), 2, 3), (3, (2, 3), 1, 2),
    ])
    def test_rows_equal_separate_runs(self, d, sizes, ell, stride):
        # every box of every row, in any order of sizes, repeats included
        pot = random_kernel(d, ell, 5, scale=0.2)
        fields = [random_field(LatticeShape(d, L), seed) for seed, L in enumerate(sizes)]
        cfg = SchemeConfig(scheme="rk4", dt=1e-2, t_end=0.06, snapshot_stride=stride, lam=1.0)
        rows = []
        errors = integrate_packed(fields, pot, cfg, lambda row: rows.append(row.copy()))
        assert errors == [None] * len(fields)
        starts = box_starts([field.shape for field in fields])
        for field, lo, hi in zip(fields, starts, starts[1:]):
            traj = integrate(field, pot, cfg)
            got = np.stack([row[lo:hi] for row in rows]).reshape(traj.values.shape)
            assert same_bits(got, traj.values)

    def test_strang_rejected(self):
        cfg = SchemeConfig(scheme="strang", dt=1e-2, t_end=0.1)
        with pytest.raises(ValueError, match="rk4"):
            integrate_packed([random_field(LatticeShape(1, 3), 0)], standard_laplacian(1), cfg,
                             lambda row: None)

    def test_boxes_must_fit(self):
        # two boxes of side 1 clip the kernel alike, so the stencil takes
        # them; a packed run must still refuse a kernel wider than its boxes
        cfg = SchemeConfig(scheme="rk4", dt=1e-2, t_end=0.1)
        fields = [random_field(LatticeShape(1, 0), seed) for seed in range(2)]
        with pytest.raises(KernelError, match="does not fit"):
            integrate_packed(fields, standard_laplacian(1), cfg, lambda row: None)


class TestStrangRotation:
    """The stepper's rotation, cos and sin of a real phase theta, against the
    plain values * np.exp(rate * np.abs(values) ** 2) bit for bit.  With the
    zero kernel a Strang block is rotations only: a half rotation, full ones
    between steps, and a closing half one."""

    SHAPE = LatticeShape(1, 16)

    def rotations(self, lam, dt, values, steps):
        pot = zero_potential(1)
        rotate, _, half_rate = _reference_strang(pot, self.SHAPE, lam, dt)
        expected = rotate(values, half_rate)
        for k in range(1, steps + 1):
            expected = rotate(expected, half_rate if k == steps else 2 * half_rate)
        out = np.empty_like(values)
        dnls.dynamics._STEPPERS["strang"](pot, self.SHAPE, lam, dt)(values, out, steps)
        return out, expected

    def field(self, scale, zeros):
        values = random_field(self.SHAPE, 7, scale).values.copy()
        if zeros:
            # exact zeros of either sign, and a |psi|^2 that underflows to 0
            values[::4] = complex(-0.0, 0.0)
            values[1::4] = complex(0.0, -0.0)
            values[2::8] = 1e-170 - 1e-170j
        return values

    # theta = -0 at zero sites (lam > 0), theta = +-0 everywhere (lam 0, and
    # a zero field of signed zeros), theta >= 0 (lam < 0), |theta| >= 1e6
    @pytest.mark.parametrize("lam, dt, scale, zeros", [
        (1.0, 0.01, 1.0, True),
        (1.0, 0.01, 0.0, False),
        (0.0, 0.01, 1.0, True),
        (-0.0, 0.01, 1.0, False),
        (-1.3, 0.01, 1.0, True),
        (1.0, 1.0, 3e3, False),
        (-2.0, 0.5, 3e3, True),
    ])
    @pytest.mark.parametrize("steps", [1, 3])
    def test_bits_equal_complex_exp(self, lam, dt, scale, zeros, steps):
        values = self.field(scale, zeros)
        if scale > 1.0:
            assert np.max(np.abs(0.5 * lam * dt) * np.abs(values) ** 2) >= 1e6
        out, expected = self.rotations(lam, dt, values, steps)
        assert same_bits(out, expected)

    # lam dt |psi|^2 / 2 overflows to -inf at the large sites: exp of an
    # infinite imaginary part and cos and sin of an infinite phase are NaN,
    # so both forms give non-finite rows, non-finite at the same sites
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("steps", [1, 3])
    def test_overflowing_phase_gives_non_finite_rows(self, steps):
        values = self.field(1.0, True)
        values[5] = 4.0
        out, expected = self.rotations(1e308, 1.0, values, steps)
        finite = np.isfinite(out)
        assert not finite.all()
        assert np.array_equal(finite, np.isfinite(expected))
        assert same_bits(out[finite], expected[finite])


class TestStepperAllocation:
    # tracemalloc traces numpy's array buffers, its ufuncs' cast buffers
    # included, so an array allocated per step would lift the peak of a block
    # by about one field each; Python's small objects stay far below a
    # quarter of one
    @staticmethod
    def _block_peak(advance, values):
        out = np.empty_like(values)
        advance(values, out, 2)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            advance(values, out, 50)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("d, L", [(1, 64), (1, 1000), (2, 16), (3, 8)])
    def test_advance_allocates_no_array_per_step(self, scheme, d, L):
        shape = LatticeShape(d, L)
        values = random_field(shape, 11).values
        advance = dnls.dynamics._STEPPERS[scheme](standard_laplacian(d), shape, 1.0, 1e-3)
        assert self._block_peak(advance, values) < values.nbytes // 4

    @pytest.mark.parametrize("d, sizes", [(1, (8, 9, 12, 13, 16, 17, 20, 21, 24, 25, 28, 29, 32,
                                                 33, 36, 37, 40, 41)),
                                          (2, (2, 3, 5)), (3, (2, 3))])
    def test_packed_advance_allocates_no_array_per_step(self, d, sizes):
        # criterion 7's 18 boxes in d = 1, as its sweep packs them
        shapes = [LatticeShape(d, L) for L in sizes]
        values = np.concatenate([random_field(shape, L).values.ravel()
                                 for shape, L in zip(shapes, sizes)])
        advance = dnls.dynamics._rk4(
            dnls.dynamics._checked_stencil(standard_laplacian(d), *shapes), 1.0, 1e-3)
        assert self._block_peak(advance, values) < values.nbytes // 4


class TestFourierPasses:
    @pytest.mark.parametrize("d, L", [(1, 4), (1, 64), (2, 3), (2, 16), (3, 2), (3, 4), (3, 5)])
    def test_gufunc_passes_equal_np_fft(self, d, L):
        shape = LatticeShape(d, L)
        values = random_field(shape, d * 100 + L).values
        field = values.copy()
        forward, spec, inverse = _fourier_passes(shape, field, np.empty_like(values))
        for call in forward:
            call()
        assert np.array_equal(spec, np.fft.fftn(values))
        if d == 1:
            assert np.array_equal(spec, np.fft.fft(values))
        spec[...] = values
        for call in inverse:
            call()
        assert np.array_equal(field, np.fft.ifftn(values))
        if d == 1:
            assert np.array_equal(field, np.fft.ifft(values))


def unitarity_defect(prop):
    """max |U^dagger U - I| over the entries."""
    return np.max(np.abs(prop.conj().T @ prop - np.eye(len(prop))))


class TestDenseLinearFlow:
    # boxes of at most _DENSE_SITES sites run Strang's linear flow as a dense
    # propagator product, larger ones as Fourier passes.  Measured on 30
    # random kernels per range (1 and 2) and d at the largest dense box,
    # fields of scale 1, dt 0.01: the two single steps differ by at most 4.1e-15
    # and max |U^dagger U - I| is at most 2.2e-15, with one BLAS thread or
    # two; a propagator scaled by 1 + 1e-12 reads about 2e-12
    STEP_TOL = 1e-14
    UNITARITY_TOL = 1e-14

    @staticmethod
    def largest_dense_box(d):
        L = max(L for L in range(200) if (2 * L + 1) ** d <= dnls.dynamics._DENSE_SITES)
        return LatticeShape(d, L)

    @pytest.mark.parametrize("ell", [1, 2])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_dense_step_agrees_with_fourier_step(self, d, ell, monkeypatch):
        shape = self.largest_dense_box(d)
        assert (2 * shape.L + 3) ** d > dnls.dynamics._DENSE_SITES
        for seed in range(5):
            pot, f = random_kernel(d, ell, seed), random_field(shape, seed)
            dense = one_step("strang", f, pot, 1.0, 0.01).values
            with monkeypatch.context() as patch:
                patch.setattr(dnls.dynamics, "_DENSE_SITES", 0)
                fourier = one_step("strang", f, pot, 1.0, 0.01).values
            assert 0.0 < np.max(np.abs(dense - fourier)) <= self.STEP_TOL

    @pytest.mark.parametrize("ell", [1, 2])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_propagator_is_unitary(self, d, ell):
        shape = self.largest_dense_box(d)
        for seed in range(5):
            disp = dispersion(random_kernel(d, ell, seed), shape)
            prop = dnls.dynamics._linear_propagator(shape, np.exp(-0.01j * disp))
            assert unitarity_defect(prop) <= self.UNITARITY_TOL
            # the check sees a norm off by 1e-12
            assert unitarity_defect(prop * (1 + 1e-12)) > self.UNITARITY_TOL


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
            expected = -1j * energy_gradient(mid, pot, 1.0)
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


def duhamel_kernel(d, kernel):
    """The standard Laplacian for None, the zero kernel for "zero", else a
    random symmetric kernel of that range."""
    if kernel is None:
        return standard_laplacian(d)
    if kernel == "zero":
        return zero_potential(d)
    return random_kernel(d, kernel, d, scale=0.2)


class TestDuhamel:
    def test_zero_time(self):
        f = random_field(LatticeShape(1, 6), 13)
        cfg = SchemeConfig(dt=1e-2, t_end=0.1, snapshot_stride=1)
        traj = integrate(f, standard_laplacian(1), cfg)
        assert abs(duhamel_defect_first(traj, standard_laplacian(1), 1.0, (0,), 0.0)) == 0.0
        assert abs(duhamel_defect_second(traj, standard_laplacian(1), 1.0, (0,), 0.0)) == 0.0

    def test_zero_field(self):
        f = FieldL.zero(LatticeShape(1, 6))
        cfg = SchemeConfig(dt=1e-2, t_end=0.1, snapshot_stride=1)
        traj = integrate(f, standard_laplacian(1), cfg)
        for t in traj.times:
            assert abs(duhamel_defect_first(traj, standard_laplacian(1), 1.0, (0,), float(t))) == 0.0

    def test_off_grid_time_rejected(self):
        f = random_field(LatticeShape(1, 6), 14)
        cfg = SchemeConfig(dt=1e-2, t_end=0.1, snapshot_stride=2)
        traj = integrate(f, standard_laplacian(1), cfg)
        with pytest.raises(ValueError):
            duhamel_defect_first(traj, standard_laplacian(1), 1.0, (0,), 0.03)

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
            assert abs(duhamel_defect_second(traj, pot, 0.0, x, 1.0)) <= 1e-8

    def test_residual_refinement_at_quadrature_order(self):
        # on an exact trajectory the residual is pure quadrature error
        shape = LatticeShape(1, 8)
        pot = standard_laplacian(1)
        f = random_field(shape, 16)
        coarse = self._oracle_trajectory(shape, pot, f, 1.0, 10)
        fine = self._oracle_trajectory(shape, pot, f, 1.0, 20)
        r_coarse = abs(duhamel_defect_second(coarse, pot, 0.0, (1,), 1.0))
        r_fine = abs(duhamel_defect_second(fine, pot, 0.0, (1,), 1.0))
        assert r_coarse / r_fine >= 4.0

    @pytest.mark.parametrize("d, L, t_end, kernel", [
        (1, 64, 0.3, None), (2, 10, 0.1, None),
        (1, 5, 0.3, 2), (2, 4, 0.1, 2), (3, 3, 0.05, 1), (3, 2, 0.05, 2), (2, 4, 0.1, "zero"),
    ], ids=["1-64-0.3", "2-10-0.1", "1-5-0.3-range2", "2-4-0.1-range2", "3-3-0.05-range1",
            "3-2-0.05-range2", "2-4-0.1-zero"])
    def test_first_defect_bit_identical_to_per_snapshot_sum(self, d, L, t_end, kernel):
        # the full-box gradient per snapshot as a reference for the one
        # evaluated at x alone; 301 snapshots of 129 sites, or 101 of 441,
        # span several stacked blocks; kernel is the range of a random
        # symmetric one, None for the standard Laplacian or "zero"
        shape = LatticeShape(d, L)
        pot = duhamel_kernel(d, kernel)
        cfg = SchemeConfig(scheme="strang", dt=1e-3, t_end=t_end, snapshot_stride=1, lam=1.0)
        traj = integrate(random_field(shape, 18, scale=0.7), pot, cfg)
        for x in [(0,) * d, (L,) + (-min(3, L),) * (d - 1)]:
            idx = shape.index(x)
            m = len(traj) - 1
            weights = _simpson_weights(m, traj.spacing)
            samples = np.array([energy_gradient(s, pot, 1.0)[idx] for s in traj.snapshots])
            increment = traj.final.values[idx] - traj.snapshots[0].values[idx]
            expected = complex(increment + 1j * np.sum(weights * samples))
            got = duhamel_defect_first(traj, pot, 1.0, x, float(traj.times[-1]))
            assert np.array([got]).view(np.uint64).tolist() == \
                np.array([expected]).view(np.uint64).tolist()

    @pytest.mark.parametrize("d, L, t_end, kernel", [
        (1, 64, 0.3, None), (2, 10, 0.1, None),
        (1, 5, 0.3, 2), (2, 4, 0.1, 2), (3, 3, 0.05, 1), (3, 2, 0.05, 2), (2, 4, 0.1, "zero"),
    ], ids=["1-64-0.3", "2-10-0.1", "1-5-0.3-range2", "2-4-0.1-range2", "3-3-0.05-range1",
            "3-2-0.05-range2", "2-4-0.1-zero"])
    def test_second_defect_bit_identical_to_per_snapshot_sum(self, d, L, t_end, kernel):
        # the per-snapshot loop over second_time_derivative as a reference;
        # every time gives an even interval count (Simpson); kernel is the
        # range of a random symmetric one, None for the standard Laplacian or
        # "zero".  The defect is also read at lam 0.7, where the terms of P_x
        # are not interchangeable as they are at lam 1
        shape = LatticeShape(d, L)
        pot = duhamel_kernel(d, kernel)
        cfg = SchemeConfig(scheme="rk4", dt=1e-3, t_end=t_end, snapshot_stride=1, lam=1.0)
        traj = integrate(random_field(shape, 19, scale=0.7), pot, cfg)
        for (x, m), lam in itertools.product(
                [((0,) * d, len(traj) - 1), ((L,) + (-min(3, L),) * (d - 1), len(traj) - 3)],
                [1.0, 0.7]):
            t = float(traj.times[m])
            idx = shape.index(x)
            weights = _simpson_weights(m, traj.spacing)
            samples = np.array([(t - traj.times[j]) * second_time_derivative(s, pot, lam)[idx]
                                for j, s in enumerate(traj.snapshots[:m + 1])])
            increment = traj.snapshots[m].values[idx] - traj.snapshots[0].values[idx]
            g0 = energy_gradient(traj.snapshots[0], pot, lam)[idx]
            expected = complex(increment + 1j * t * g0 - np.sum(weights * samples))
            got = duhamel_defect_second(traj, pot, lam, x, t)
            assert np.array([got]).view(np.uint64).tolist() == \
                np.array([expected]).view(np.uint64).tolist()

    def test_first_residual_strang_run(self):
        shape = LatticeShape(1, 32)
        pot = standard_laplacian(1)
        f = random_field(shape, 17, scale=0.7)
        cfg = SchemeConfig(scheme="strang", dt=1e-3, t_end=1.0, snapshot_stride=10, lam=1.0)
        traj = integrate(f, pot, cfg)
        for x in [(0,), (5,), (-12,)]:
            assert abs(duhamel_defect_first(traj, pot, 1.0, x, 1.0)) <= 1e-6
