import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import per_site_table, same_bits
from dnls import sampling
from dnls.hopping import (
    HoppingPotential,
    clipped_offsets,
    clipped_table,
    nearest_neighbor_laplacian,
    standard_laplacian,
    zero_potential,
)
from dnls.lattice import FieldL, LatticeShape, power_weight
from dnls.sampling import (
    GaussianSpec,
    GibbsSpec,
    MeasureError,
    acceptance_fraction,
    median_with_se,
    power_law_violations,
    run_gibbs_chain,
    sample_gaussian,
    site_moments,
    site_uniformity_z,
    tune_proposal_sigma,
    weighted_sup,
    _colour_classes,
)

POT = standard_laplacian(1)


def zero_kernel(d):
    return zero_potential(d, 1)


def gibbs_radial_oracle(spec: GibbsSpec, alpha0: float):
    """Normalized density of u = |psi|^2 for the single-site measure."""
    rate = spec.beta * (alpha0 - spec.mu)
    curve = 0.5 * spec.beta * spec.lam

    def unnorm(u):
        return math.exp(-rate * u - curve * u * u)

    z = quad(unnorm, 0, np.inf)[0]
    return lambda u: unnorm(u) / z, z


class TestGaussianSpec:
    def test_negative_density_rejected(self):
        with pytest.raises(MeasureError):
            GaussianSpec(density=-1.0).density_grid(LatticeShape(1, 2))

    def test_asymmetric_density_rejected(self):
        spec = GaussianSpec(density=lambda k: 1.0 + 0.1 * k[0])
        with pytest.raises(MeasureError):
            spec.density_grid(LatticeShape(1, 3))

    def test_tabulated_density_shape_checked(self):
        with pytest.raises(MeasureError):
            GaussianSpec(density=np.ones(4)).density_grid(LatticeShape(1, 2))

    def test_callable_density(self):
        spec = GaussianSpec(density=lambda k: 1.0 / (2.0 - np.cos(2 * np.pi * k[0] / 7)))
        grid = spec.density_grid(LatticeShape(1, 3))
        assert grid.shape == (7,)
        assert np.all(grid > 0)

    @pytest.mark.parametrize("density", [-1e-300, -np.inf, np.inf, np.nan])
    def test_bad_flat_density_rejected(self, density):
        with pytest.raises(MeasureError, match="finite and nonnegative"):
            GaussianSpec(density=density).density_grid(LatticeShape(2, 1))

    @pytest.mark.parametrize("d, L", [(1, 0), (1, 64), (2, 3), (3, 2)])
    @pytest.mark.parametrize("value", [0.0, 2.5, 1 / 3])
    def test_flat_density_skips_the_scan(self, d, L, value):
        # a flat density gives a constant grid, symmetric under mode negation,
        # so only a callable's grid is scanned; the samples are the same bits
        shape = LatticeShape(d, L)
        flat, constant = GaussianSpec(density=value), GaussianSpec(
            density=lambda k: np.full(k.shape[1:], value))
        with mock.patch.object(sampling.np, "allclose", wraps=np.allclose) as scan:
            a = sample_gaussian(flat, shape, 99)
            assert scan.call_count == 0
            b = sample_gaussian(constant, shape, 99)
            assert scan.call_count == 1
        assert np.array_equal(a.values.view(np.uint64), b.values.view(np.uint64))


class TestSampleGaussian:
    def test_zero_density_zero_field(self):
        f = sample_gaussian(GaussianSpec(density=0.0), LatticeShape(1, 4), 0)
        assert np.all(f.values == 0)

    def test_deterministic(self):
        spec = GaussianSpec(density=1.0)
        a = sample_gaussian(spec, LatticeShape(1, 8), 42)
        b = sample_gaussian(spec, LatticeShape(1, 8), 42)
        assert np.array_equal(a.values, b.values)
        c = sample_gaussian(spec, LatticeShape(1, 8), 43)
        assert not np.array_equal(a.values, c.values)

    def test_flat_density_variance(self):
        # 1e4 samples: pooled per-site variance within 5 percent of sigma2
        shape = LatticeShape(1, 8)
        sigma2 = 0.7
        spec = GaussianSpec(density=sigma2)
        acc = 0.0
        n = 10_000
        for seed in range(n):
            acc += float(np.mean(np.abs(sample_gaussian(spec, shape, seed).values) ** 2))
        assert acc / n == pytest.approx(sigma2, rel=0.05)

    def test_covariance_matches_density_transform(self):
        shape = LatticeShape(1, 6)
        side = shape.side
        spec = GaussianSpec(density=lambda k: 1.0 / (1.5 - np.cos(2 * np.pi * k[0] / side)))
        rho = spec.density_grid(shape)
        expected = np.fft.ifft(rho)  # C(r), FFT offset order
        n = 4000
        per_sample = np.empty((n, side), dtype=np.complex128)
        for seed in range(n):
            v = sample_gaussian(spec, shape, seed).values
            f = np.fft.fft(v)
            per_sample[seed] = np.fft.ifft(f * np.conj(f)) / side
        mean = per_sample.mean(axis=0)
        se = per_sample.std(axis=0, ddof=1) / math.sqrt(n)
        assert np.all(np.abs(mean - expected) <= 3.0 * np.abs(se) + 1e-12)

    def test_complex_gaussian_moment_ratio(self):
        # E|psi|^4 / (E|psi|^2)^2 = 2 for a circular complex normal
        shape = LatticeShape(1, 16)
        spec = GaussianSpec(density=1.0)
        m2 = []
        m4 = []
        for seed in range(3000):
            v = np.abs(sample_gaussian(spec, shape, seed).values)
            m2.append(np.mean(v**2))
            m4.append(np.mean(v**4))
        ratio = np.mean(m4) / np.mean(m2) ** 2
        se = np.std(m4, ddof=1) / math.sqrt(len(m4)) / np.mean(m2) ** 2
        assert abs(ratio - 2.0) <= 3.0 * se + 0.02

    def test_translation_invariance_in_law(self):
        # rolled samples have the same per-site second moment within noise
        shape = LatticeShape(1, 6)
        side = shape.side
        spec = GaussianSpec(density=lambda k: 1.0 / (2.0 - np.cos(2 * np.pi * k[0] / side)))
        samples = [sample_gaussian(spec, shape, s) for s in range(2000)]
        stats = site_moments(samples, 2.0)
        assert site_uniformity_z(stats) <= 4.0


class TestGibbsSpec:
    def test_focusing_rejected(self):
        with pytest.raises(MeasureError):
            GibbsSpec(beta=1.0, mu=0.0, lam=-1.0, proposal_sigma=0.5)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            GibbsSpec(beta=0.0, mu=0.0, lam=1.0, proposal_sigma=0.5)
        with pytest.raises(ValueError):
            GibbsSpec(beta=1.0, mu=0.0, lam=1.0, proposal_sigma=0.0)
        with pytest.raises(ValueError):
            GibbsSpec(beta=1.0, mu=0.0, lam=1.0, proposal_sigma=0.5, thinning=0)


class TestGibbsChain:
    def test_deterministic(self):
        spec = GibbsSpec(beta=1.0, mu=-1.0, lam=1.0, proposal_sigma=0.7, burn_in=10, thinning=2)
        a = run_gibbs_chain(spec, POT, LatticeShape(1, 4), 7, 5)
        b = run_gibbs_chain(spec, POT, LatticeShape(1, 4), 7, 5)
        for fa, fb in zip(a.samples, b.samples):
            assert np.array_equal(fa.values, fb.values)
        assert a.n_accepted == b.n_accepted

    def test_sample_count_and_shape(self):
        spec = GibbsSpec(beta=1.0, mu=-1.0, lam=1.0, proposal_sigma=0.7, burn_in=5, thinning=3)
        samples = run_gibbs_chain(spec, POT, LatticeShape(1, 3), 0, 4).samples
        assert len(samples) == 4
        assert all(s.shape == LatticeShape(1, 3) for s in samples)

    def test_live_chain_holds_its_sample_buffer_alone(self):
        # 10,000 one-site samples are a 160 kB buffer, and a live chain held
        # 165 kB in all; holding them as one FieldL and one array view each
        # took 2.2 MB.  The bound is twice the buffer.  The first chain in a
        # process also holds about 0.64 MB of one-time allocations, so an
        # untraced warm-up chain runs first
        spec = GibbsSpec(beta=1.0, mu=-1.0, lam=1.0, proposal_sigma=0.7, burn_in=0, thinning=1)
        run_gibbs_chain(spec, POT, LatticeShape(1, 0), 5, 2)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            chain = run_gibbs_chain(spec, POT, LatticeShape(1, 0), 5, 10_000)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(chain.samples) == 10_000
        assert held < 2 * 10_000 * 16

    def test_single_site_matches_quadrature_oracle(self):
        shape = LatticeShape(1, 0)
        spec = GibbsSpec(beta=1.0, mu=-1.0, lam=1.0, proposal_sigma=0.7, burn_in=300, thinning=10)
        chain = run_gibbs_chain(spec, POT, shape, 2718, 20_000)
        u = np.array([abs(s.values.ravel()[0]) ** 2 for s in chain.samples])
        pdf, _ = gibbs_radial_oracle(spec, alpha0=1.0)
        mean_oracle = quad(lambda x: x * pdf(x), 0, np.inf)[0]
        se = u.std(ddof=1) / math.sqrt(len(u))
        assert abs(u.mean() - mean_oracle) <= 4.0 * se

    def test_three_site_matches_importance_sampling_oracle(self):
        # independent ground truth for the interacting case: exact Gaussian
        # reference for the quadratic part, bounded weights e^{-lam/2 sum|psi|^4}
        shape = LatticeShape(1, 1)
        beta, mu, lam = 1.0, -1.0, 1.0
        from conftest import hopping_matrix

        m = beta * (hopping_matrix(POT, shape) - mu * np.eye(3))
        w_eig, v_eig = np.linalg.eigh(m)
        rng = np.random.default_rng(424242)
        n = 200_000
        z = (rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))) / np.sqrt(2.0)
        psi = (z / np.sqrt(w_eig)) @ v_eig.T.conj()
        weights = np.exp(-0.5 * beta * lam * np.sum(np.abs(psi) ** 4, axis=1))
        observable = np.sum(np.abs(psi) ** 2, axis=1)
        oracle = np.sum(weights * observable) / np.sum(weights)
        # delta-method standard error of the ratio estimator
        resid = weights * (observable - oracle)
        oracle_se = np.std(resid, ddof=1) / (weights.mean() * np.sqrt(n))

        spec = GibbsSpec(beta=beta, mu=mu, lam=lam, proposal_sigma=0.7, burn_in=300, thinning=10)
        samples = run_gibbs_chain(spec, POT, shape, 987, 20_000).samples
        chain_vals = np.array([np.sum(np.abs(s.values) ** 2) for s in samples])
        chain_se = chain_vals.std(ddof=1) / np.sqrt(len(chain_vals))
        gap = abs(chain_vals.mean() - oracle)
        assert gap <= 4.0 * math.hypot(chain_se, oracle_se)

    def test_moments_decrease_in_beta(self):
        shape = LatticeShape(1, 4)
        means = []
        for beta in (1.0, 4.0):
            spec = GibbsSpec(beta=beta, mu=-1.0, lam=1.0, proposal_sigma=0.6, burn_in=100, thinning=3)
            samples = run_gibbs_chain(spec, POT, shape, 11, 400).samples
            means.append(np.mean([np.mean(np.abs(s.values) ** 2) for s in samples]))
        assert means[1] < means[0]

    def test_two_point_depends_on_offset_only(self):
        shape = LatticeShape(1, 8)
        spec = GibbsSpec(beta=1.0, mu=-1.0, lam=1.0, proposal_sigma=0.7, burn_in=200, thinning=5)
        samples = run_gibbs_chain(spec, POT, shape, 12, 600).samples
        # compare the per-pair estimate at offset 1 across positions
        stack = np.stack([s.values.ravel() for s in samples])
        prods = stack * np.conj(np.roll(stack, 1, axis=1))
        means = prods.mean(axis=0)
        ses = prods.std(axis=0, ddof=1) / math.sqrt(len(samples))
        center = means.mean()
        z = np.abs(means - center) / np.abs(ses)
        assert (z <= 3.0).mean() >= 0.9

    def test_split_half_stationarity(self):
        shape = LatticeShape(1, 8)
        spec = GibbsSpec(beta=1.0, mu=-1.0, lam=1.0, proposal_sigma=0.7, burn_in=200, thinning=5)
        samples = run_gibbs_chain(spec, POT, shape, 13, 600).samples
        half = len(samples) // 2
        a = site_moments(samples[:half], 2.0)
        b = site_moments(samples[half:], 2.0)
        z = np.abs(a.per_site_moments - b.per_site_moments) / np.sqrt(
            a.per_site_se**2 + b.per_site_se**2
        )
        assert (z <= 3.0).mean() >= 0.95


def _reference_chain(spec, pot, shape, seed, n_samples):
    """The Metropolis sweep one proposal at a time over an int64 neighbour
    table: sites visited colour class by colour class (greedy colouring in
    site order), draws taken in blocks of whole sweeps, accepted when
    dE < -log(u) / beta; (samples, n_proposed, n_accepted)."""
    offsets = clipped_offsets(pot, shape)
    nbr = per_site_table(shape, [off for off, _ in offsets])
    n_off = len(offsets)
    coeff_list = [float(c) for _, c in offsets]
    nbr_list = [list(map(int, row)) for row in nbr]
    alpha0 = pot.at((0,) * pot.d)
    volume = shape.volume
    links = [j for j, (off, _) in enumerate(offsets) if any(off)]
    colour = []
    for x in range(volume):
        taken = {colour[nbr_list[x][j]] for j in links if nbr_list[x][j] < x}
        c = 0
        while c in taken:
            c += 1
        colour.append(c)
    order = sorted(range(volume), key=lambda x: (colour[x], x))

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    beta = spec.beta
    mu = spec.mu
    half_lam = 0.5 * spec.lam
    sigma = spec.proposal_sigma
    block = max(1, 2**14 // volume)

    # random-phase start of unit modulus, as flat python complex list
    phases = rng.uniform(0.0, 2.0 * math.pi, size=volume)
    state = [complex(math.cos(p), math.sin(p)) for p in phases]

    samples: list[FieldL] = []
    n_proposed = 0
    n_accepted = 0
    total_sweeps = spec.burn_in + n_samples * spec.thinning

    for sweep in range(total_sweeps):
        s = sweep % block
        if s == 0:
            re = rng.standard_normal(block * volume)
            im = rng.standard_normal(block * volume)
            us = rng.random(block * volume)
            with np.errstate(divide="ignore"):
                thresholds = -np.log(us) / beta
        for p, i in enumerate(order):
            j = s * volume + p
            delta = complex(sigma * re[j], sigma * im[j])
            h = 0.0j
            row = nbr_list[i]
            for k in range(n_off):
                h += coeff_list[k] * state[row[k]]
            old = state[i]
            old2 = old.real * old.real + old.imag * old.imag
            new = old + delta
            new2 = new.real * new.real + new.imag * new.imag
            d2 = delta.real * delta.real + delta.imag * delta.imag
            cross = delta.real * h.real + delta.imag * h.imag
            d_quad = 2.0 * cross + alpha0 * d2
            d_energy = d_quad + half_lam * (new2 * new2 - old2 * old2) - mu * (new2 - old2)
            n_proposed += 1
            if d_energy < thresholds[j]:
                state[i] = new
                n_accepted += 1
        if sweep >= spec.burn_in and (sweep - spec.burn_in + 1) % spec.thinning == 0:
            samples.append(FieldL(shape, np.array(state).reshape(shape.dims)))

    return samples[:n_samples], n_proposed, n_accepted


class TestNeighborTables:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("L", [0, 1, 2, 4])
    @pytest.mark.parametrize("kernel", [standard_laplacian, nearest_neighbor_laplacian,
                                        zero_kernel])
    def test_matches_per_site_loop(self, d, L, kernel):
        # the sweep's table: the clipped kernel's coefficients and the
        # neighbour table of its offsets
        pot, shape = kernel(d), LatticeShape(d, L)
        offsets = clipped_offsets(pot, shape)
        got_coeffs, table = clipped_table(pot, shape)
        assert got_coeffs == tuple(c for _, c in offsets)
        assert all(type(c) is float for c in got_coeffs)
        nbr = per_site_table(shape, [off for off, _ in offsets])
        assert table.shape == nbr.shape and np.array_equal(table, nbr)

    def test_memoised_table_is_read_only(self):
        # every caller shares one table per (clipped offsets, box)
        shape = LatticeShape(2, 3)
        coeffs, table = clipped_table(standard_laplacian(2), shape)
        assert clipped_table(standard_laplacian(2), shape)[1] is table
        with pytest.raises(ValueError):
            table[0, 0] = 0


def _random_kernel(d, ell, zero, rng):
    """A random symmetric kernel of range ell (c + flip(c)), or the zero one."""
    coeffs = rng.standard_normal((2 * ell + 1,) * d)
    coeffs = np.zeros_like(coeffs) if zero else coeffs + np.flip(coeffs)
    return HoppingPotential(d=d, range=ell, coeffs=coeffs)


class TestColourClasses:
    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 3), L=st.integers(0, 5), ell=st.integers(1, 2),
           zero=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_classes_partition_independent_sets(self, d, L, ell, zero, seed):
        pot, shape = _random_kernel(d, ell, zero, np.random.default_rng(seed)), LatticeShape(d, L)
        classes = _colour_classes(clipped_table(pot, shape)[1])
        assert np.array_equal(np.sort(np.concatenate(classes)), np.arange(shape.volume))
        assert all(np.all(np.diff(c) > 0) for c in classes)
        offsets = clipped_offsets(pot, shape)
        nbr = per_site_table(shape, [off for off, _ in offsets])
        links = [j for j, (off, _) in enumerate(offsets) if any(off)]
        colour = np.empty(shape.volume, dtype=np.int64)
        for c, members in enumerate(classes):
            colour[members] = c
        for j in links:
            assert np.all(colour != colour[nbr[:, j]])
        if zero or L == 0:
            assert len(classes) == 1


class TestSweepBits:
    """The Gibbs chain equals the one-proposal-at-a-time reference sweep bit
    for bit, for random symmetric kernels (zero included) in d = 1, 2, 3, with
    colour classes on both sides of the numpy kernel's size threshold."""

    @settings(max_examples=60, deadline=None)
    # criterion 10's one-site box: every class in the loop, on float lists
    @example(dim=(1, 0), ell=1, zero=False, burn_in=2, thinning=2, n_samples=3,
             all_numpy=False, seed=31337)
    # two 40-site numpy classes and a one-site loop class on lists gathered
    # from the numpy kernel's state
    @example(dim=(1, 40), ell=1, zero=False, burn_in=2, thinning=2, n_samples=3,
             all_numpy=False, seed=1040)
    # an all-loop box runs up to each retained sample or draw block end at
    # once: samples on both sides of the first block boundary, 2^14 sweeps
    # into the one-site box and 399 into the 41-site ring (classes of 20, 20
    # and 1), and a chain that keeps none
    @example(dim=(1, 0), ell=1, zero=False, burn_in=2**14 - 1, thinning=1, n_samples=3,
             all_numpy=False, seed=16383)
    @example(dim=(1, 20), ell=1, zero=False, burn_in=16384 // 41 - 1, thinning=1,
             n_samples=3, all_numpy=False, seed=398)
    @example(dim=(1, 0), ell=1, zero=False, burn_in=3, thinning=2, n_samples=0,
             all_numpy=False, seed=7)
    # thinning of 3 and 2 with retained samples straddling the first block
    # boundary: 16383, 16386 and 16389 sweeps into the one-site box, 398, 400
    # and 402 into the 41-site ring, so the run to the second is cut there
    @example(dim=(1, 0), ell=1, zero=False, burn_in=2**14 - 4, thinning=3, n_samples=3,
             all_numpy=False, seed=16380)
    @example(dim=(1, 20), ell=1, zero=False, burn_in=16384 // 41 - 3, thinning=2,
             n_samples=3, all_numpy=False, seed=396)
    @given(dim=st.integers(1, 3).flatmap(
               lambda d: st.tuples(st.just(d), st.integers(0, 40 if d == 1 else 3))),
           ell=st.integers(1, 2), zero=st.booleans(), burn_in=st.integers(0, 3),
           thinning=st.integers(1, 3), n_samples=st.integers(0, 3),
           all_numpy=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_chain_equals_reference_sweep(self, dim, ell, zero, burn_in, thinning,
                                          n_samples, all_numpy, seed):
        # the pinned examples reach both loop states only while this holds
        assert 1 < sampling._NUMPY_CLASS_MIN <= 40
        d, L = dim
        rng = np.random.default_rng(seed)
        pot = _random_kernel(d, ell, zero, rng)
        spec = GibbsSpec(beta=float(rng.uniform(0.2, 3.0)), mu=float(rng.uniform(-2.0, 2.0)),
                         lam=float(rng.uniform(0.1, 2.0)),
                         proposal_sigma=float(rng.uniform(0.05, 3.0)),
                         burn_in=burn_in, thinning=thinning)
        shape = LatticeShape(d, L)
        # all_numpy sends every class, the one-site ones too, to the numpy kernel
        threshold = 1 if all_numpy else sampling._NUMPY_CLASS_MIN
        with mock.patch.object(sampling, "_NUMPY_CLASS_MIN", threshold):
            chain = run_gibbs_chain(spec, pot, shape, seed, n_samples)
            longer = run_gibbs_chain(spec, pot, shape, seed, n_samples + 3)
        samples, n_proposed, n_accepted = _reference_chain(spec, pot, shape, seed, n_samples)
        assert len(chain.samples) == len(samples) == n_samples
        for got, want in zip(chain.samples, samples):
            assert np.array_equal(got.values.view(np.uint64), want.values.view(np.uint64))
        assert (chain.n_proposed, chain.n_accepted) == (n_proposed, n_accepted)
        # draws come in whole blocks, so a chain is a prefix of any longer one
        for got, want in zip(longer.samples, chain.samples):
            assert np.array_equal(got.values.view(np.uint64), want.values.view(np.uint64))


class TestAcceptance:
    def test_tiny_steps_accepted(self):
        spec = GibbsSpec(beta=1.0, mu=-1.0, lam=1.0, proposal_sigma=1e-5, burn_in=0, thinning=1)
        chain = run_gibbs_chain(spec, POT, LatticeShape(1, 4), 5, 20)
        assert acceptance_fraction(chain) > 0.95

    def test_huge_steps_rejected(self):
        spec = GibbsSpec(beta=1.0, mu=-1.0, lam=1.0, proposal_sigma=200.0, burn_in=0, thinning=1)
        chain = run_gibbs_chain(spec, POT, LatticeShape(1, 4), 5, 20)
        assert acceptance_fraction(chain) < 0.05

    def test_tuning_lands_in_band(self):
        spec = GibbsSpec(beta=1.0, mu=-1.0, lam=1.0, proposal_sigma=5.0, burn_in=50, thinning=2)
        shape = LatticeShape(1, 8)
        sigma = tune_proposal_sigma(spec, POT, shape, seed=21)
        tuned = GibbsSpec(
            beta=1.0, mu=-1.0, lam=1.0, proposal_sigma=sigma, burn_in=100, thinning=2
        )
        chain = run_gibbs_chain(tuned, POT, shape, 22, 100)
        assert 0.2 <= acceptance_fraction(chain) <= 0.5

    def test_tuned_sigma_pinned(self):
        # the value the reference sweep (_reference_chain) gives at this seed
        spec = GibbsSpec(beta=1.0, mu=-1.0, lam=1.0, proposal_sigma=5.0, burn_in=50, thinning=2)
        assert tune_proposal_sigma(spec, POT, LatticeShape(1, 8), seed=21) == 0.9351646435835531


class TestSiteMoments:
    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            site_moments([FieldL.zero(LatticeShape(1, 2))], 2.0)

    def test_zero_samples(self):
        samples = [FieldL.zero(LatticeShape(1, 3)) for _ in range(4)]
        stats = site_moments(samples, 2.0)
        assert stats.max_moment == 0.0
        assert np.all(stats.per_site_moments == 0.0)

    @pytest.mark.parametrize("source", ["list", "chain"])
    def test_equals_the_row_by_row_stack(self, source):
        if source == "list":
            shape = LatticeShape(2, 4)
            samples = [sample_gaussian(GaussianSpec(density=1.0), shape, s) for s in range(30)]
        else:
            spec = GibbsSpec(beta=1.0, mu=-1.0, lam=1.0, proposal_sigma=0.5, burn_in=10,
                             thinning=2)
            samples = run_gibbs_chain(spec, POT, LatticeShape(1, 16), 3, 30).samples
        for xi in (0.7, 2.0, 3.5):
            stats = site_moments(samples, xi)
            stack = np.stack([np.abs(s.values) ** xi for s in samples])
            assert same_bits(stats.per_site_moments, stack.mean(axis=0))
            assert same_bits(stats.per_site_se,
                             stack.std(axis=0, ddof=1) / math.sqrt(len(samples)))
            assert stats.max_moment == float(stack.mean(axis=0).max())

    def test_flat_gaussian_second_moment(self):
        shape = LatticeShape(1, 8)
        sigma2 = 0.5
        samples = [sample_gaussian(GaussianSpec(density=sigma2), shape, s) for s in range(3000)]
        stats = site_moments(samples, 2.0)
        z = np.abs(stats.per_site_moments - sigma2) / stats.per_site_se
        assert (z <= 3.0).mean() >= 0.95
        assert stats.max_moment == pytest.approx(sigma2, rel=0.15)


class TestPowerLawViolations:
    def test_zero_field(self):
        stats = power_law_violations([FieldL.zero(LatticeShape(1, 8))], 2.0)
        assert sum(stats.violations_by_radius.values()) == 0

    def test_constructed_field_all_violate(self):
        shape = LatticeShape(1, 6)
        a = 2.0
        coords = np.arange(-6, 7).astype(float)
        values = 1.01 * (1.0 + coords**2) ** (1.0 / (2 * a))
        stats = power_law_violations([FieldL(shape, values.astype(complex))], a)
        assert sum(stats.violations_by_radius.values()) == shape.volume
        assert stats.violations_by_radius == stats.sites_by_radius

    def test_radius_bookkeeping(self):
        shape = LatticeShape(1, 3)
        values = np.zeros(7, dtype=complex)
        values[shape.index((3,))] = 100.0
        stats = power_law_violations([FieldL(shape, values)], 2.0)
        assert sum(stats.violations_by_radius.values()) == 1
        assert stats.violations_by_radius[3] == 1
        assert stats.sites_by_radius == {0: 1, 1: 2, 2: 2, 3: 2}

    @pytest.mark.parametrize("kind", ["gaussian", "gibbs"])
    @pytest.mark.parametrize("d, L", [(1, 16), (2, 4), (3, 2)])
    def test_set_equals_the_sum_of_one_sample_calls(self, kind, d, L):
        shape = LatticeShape(d, L)
        if kind == "gaussian":
            samples = [sample_gaussian(GaussianSpec(density=1.0), shape, s) for s in range(25)]
        else:
            spec = GibbsSpec(beta=1.0, mu=-1.0, lam=1.0, proposal_sigma=0.5, burn_in=20,
                             thinning=2)
            samples = run_gibbs_chain(spec, standard_laplacian(d), shape, 5, 20).samples
        a = 8.0
        stats = power_law_violations(samples, a)
        expected = dict.fromkeys(range(L + 1), 0)
        for s in samples:
            one = power_law_violations([s], a)
            assert one.sites_by_radius == stats.sites_by_radius
            for r, cnt in one.violations_by_radius.items():
                expected[r] += cnt
        assert stats.violations_by_radius == expected
        assert sum(expected.values()) > 0

    def test_planted_sites_at_and_just_above_the_threshold(self):
        shape, a = LatticeShape(1, 8), 2.0
        threshold = power_weight(shape, -1.0 / a)
        above, at = shape.index((3,)), shape.index((-5,))
        planted = np.zeros(shape.dims, dtype=complex)
        planted[above] = np.nextafter(threshold[above], np.inf)
        planted[at] = threshold[at]
        samples = [FieldL(shape, planted), FieldL.zero(shape), FieldL(shape, planted)]
        stats = power_law_violations(samples, a)
        expected = dict.fromkeys(range(shape.L + 1), 0)
        for s in samples:
            for r, cnt in power_law_violations([s], a).violations_by_radius.items():
                expected[r] += cnt
        assert stats.violations_by_radius == expected
        assert {r: cnt for r, cnt in expected.items() if cnt} == {3: 2}

    def test_empty_or_mixed_set_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            power_law_violations([], 2.0)
        with pytest.raises(ValueError, match="different lattices"):
            power_law_violations([FieldL.zero(LatticeShape(1, 2)),
                                  FieldL.zero(LatticeShape(1, 3))], 2.0)

    def test_chebyshev_consistency(self):
        # empirical violation rate at each radius should not beat the
        # moment bound E|psi|^xi / <r>^(xi/a) by more than 3 SE
        shape = LatticeShape(1, 32)
        xi, c = 3.5, 0.05
        a = 2.0 / (1.0 - 2.0 * c)
        spec = GaussianSpec(density=1.0)
        samples = [sample_gaussian(spec, shape, s) for s in range(400)]
        stats = site_moments(samples, xi)
        moment_max = float(np.max(stats.per_site_moments))
        counts = power_law_violations(samples, a).violations_by_radius
        n = len(samples)
        for r in range(shape.L + 1):
            sites = 2 if r > 0 else 1
            trials = n * sites
            freq = counts[r] / trials
            bound = moment_max / (1.0 + r * r) ** (xi / (2 * a))
            se = math.sqrt(max(freq * (1 - freq), 1.0 / trials) / trials)
            assert freq <= bound + 3.0 * se


class TestHelpers:
    def test_weighted_sup(self):
        shape = LatticeShape(1, 4)
        values = np.zeros(9, dtype=complex)
        values[shape.index((4,))] = 2.0
        f = FieldL(shape, values)
        expected = 2.0 * (1.0 + 16.0) ** (-0.45 / 2)
        assert weighted_sup(f, 0.45) == pytest.approx(expected)

    def test_median_with_se(self):
        med, se = median_with_se([1.0, 2.0, 3.0, 4.0, 5.0])
        assert med == 3.0
        assert se > 0
