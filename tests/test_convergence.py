import tracemalloc

import numpy as np
import pytest

from conftest import random_field, random_kernel, same_bits
from dnls.convergence import (
    SweepConfig,
    drift,
    run_box_sweep,
    scheme_disagreement,
    window_disagreement,
)
from dnls.dynamics import BlowUpError, SchemeConfig, integrate
from dnls.hopping import standard_laplacian, zero_potential
from dnls.lattice import (
    LatticeShape,
    hashed_noise_generator,
    point_source,
    truncate,
)

POT = standard_laplacian(1)


def run_pair(gen, L, scheme):
    small = integrate(truncate(gen, LatticeShape(1, L)), POT, scheme)
    big = integrate(truncate(gen, LatticeShape(1, L + 1)), POT, scheme)
    return big, small


class TestDisagreement:
    def setup_method(self):
        self.gen = hashed_noise_generator(seed=5, envelope_exponent=0.45)
        self.scheme = SchemeConfig(scheme="rk4", dt=1e-2, t_end=0.5, snapshot_stride=1, lam=1.0)
        self.big, self.small = run_pair(self.gen, 8, self.scheme)

    def test_zero_at_time_zero(self):
        assert window_disagreement(self.big, self.small, 4, 0.0) == 0.0

    def test_rerun_is_bit_identical(self):
        # determinism: a second run of the small box reproduces it exactly
        other = integrate(truncate(self.gen, LatticeShape(1, 8)), POT, self.scheme)
        for a, b in zip(other.snapshots, self.small.snapshots):
            assert np.array_equal(a.values, b.values)

    def test_monotone_in_time(self):
        # k = 0: the pointwise disagreement at the origin
        values = [window_disagreement(self.big, self.small, 0, float(t)) for t in self.small.times]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_window_monotone_in_k(self):
        values = [window_disagreement(self.big, self.small, k, 0.5) for k in (1, 3, 5, 8)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_site_outside_small_box_rejected(self):
        with pytest.raises(ValueError):
            window_disagreement(self.big, self.small, 9, 0.5)

    def test_grid_mismatch_rejected(self):
        other_scheme = SchemeConfig(scheme="rk4", dt=5e-3, t_end=0.5, snapshot_stride=1, lam=1.0)
        other = integrate(truncate(self.gen, LatticeShape(1, 8)), POT, other_scheme)
        with pytest.raises(ValueError):
            window_disagreement(self.big, other, 0, 0.5)

    def test_requires_larger_first(self):
        with pytest.raises(ValueError):
            window_disagreement(self.small, self.big, 4, 0.5)


class TestDrift:
    def test_zero_at_time_zero(self):
        f = random_field(LatticeShape(1, 6), 0)
        traj = integrate(f, POT, SchemeConfig(dt=1e-2, t_end=0.1, snapshot_stride=1))
        assert drift(traj, 0.0) == 0.0

    def test_onsite_closed_form(self):
        # onsite-only evolution of a unit peak: max deviation is 2|sin(t/2)|
        shape = LatticeShape(1, 6)
        f = truncate(point_source(1.0), shape)
        cfg = SchemeConfig(scheme="strang", dt=1e-2, t_end=2.0, snapshot_stride=20, lam=1.0)
        traj = integrate(f, zero_potential(1), cfg)
        for t in traj.times:
            expected = max(2.0 * abs(np.sin(s / 2.0)) for s in traj.times[: traj.time_index(t) + 1])
            assert drift(traj, float(t)) == pytest.approx(expected, abs=1e-10)

    def test_bounded_by_twice_max(self):
        f = random_field(LatticeShape(1, 8), 1)
        cfg = SchemeConfig(dt=1e-2, t_end=1.0, snapshot_stride=10, lam=1.0)
        traj = integrate(f, POT, cfg)
        max_abs = max(float(np.max(np.abs(s.values))) for s in traj.snapshots)
        assert drift(traj, 1.0) <= 2.0 * max_abs + 1e-12


class TestSweep:
    def test_config_validation(self):
        gen = hashed_noise_generator(seed=0)
        scheme = SchemeConfig(scheme="rk4", t_end=0.0)
        with pytest.raises(ValueError):
            SweepConfig(generator=gen, L_list=(8, 8), k=2, scheme=scheme)
        with pytest.raises(ValueError):
            SweepConfig(generator=gen, L_list=(8, 12), k=9, scheme=scheme)
        with pytest.raises(ValueError):
            SweepConfig(generator=gen, L_list=(), k=0, scheme=scheme)

    @pytest.mark.parametrize("d, L_list, kernel, stride, k", [
        (1, (6, 7, 8, 9, 10), None, 1, 2),
        (1, (6, 9, 12), None, 1, 2),
        (2, (3, 4, 6), None, 1, 2),
        (3, (2, 3), 2, 3, 0),
    ], ids=["1-L_list0", "1-L_list1", "2-L_list2", "3-L_list3-range2-stride3-k0"])
    def test_entries_match_separate_truncations(self, d, L_list, kernel, stride, k):
        # one truncation sliced per box, all sizes run as one packed state,
        # gives the bits of a truncation and a run per box; kernel is the
        # range of a random symmetric one, or None for the standard Laplacian
        gen = hashed_noise_generator(seed=8, envelope_exponent=0.45)
        pot = standard_laplacian(d) if kernel is None else random_kernel(d, kernel, 3, scale=0.1)
        scheme = SchemeConfig(scheme="rk4", dt=1e-2, t_end=0.3, snapshot_stride=stride, lam=1.0)
        report = run_box_sweep(SweepConfig(generator=gen, L_list=L_list, k=k, scheme=scheme), pot)
        assert [e.L for e in report.entries] == list(L_list)
        for e in report.entries:
            small, big = (integrate(truncate(gen, LatticeShape(d, L)), pot, scheme)
                          for L in (e.L, e.L + 1))
            got = np.array([e.delta_bar, e.drift])
            want = np.array([window_disagreement(big, small, k, 0.3), drift(small, 0.3)])
            assert same_bits(got, want)
            assert e.error is None and e.delta_bar > 0.0
        assert len({e.runtime for e in report.entries}) == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_partial_blow_up(self):
        # the generator is large only at |z| = 6 and 7, so box 6 blows up at
        # step 3, in its second snapshot block, and box 7 at step 2; the
        # others run on as if alone, and an errored entry carries the error
        # of its small box if that fails, else of its big one
        def far(z):
            return {6: 4.0 + 0.0j, 7: 6.0 + 0.0j}.get(abs(z[0]), 0.1 + 0.05j * z[0])

        scheme = SchemeConfig(scheme="rk4", dt=0.1, t_end=3.0, snapshot_stride=2, lam=1.0)
        L_list = (3, 4, 5, 6)
        report = run_box_sweep(SweepConfig(generator=far, L_list=L_list, k=2, scheme=scheme), POT)
        assert report.flagged
        runs = {}
        for L in range(3, 8):
            try:
                runs[L] = integrate(truncate(far, LatticeShape(1, L)), POT, scheme)
            except BlowUpError as err:
                runs[L] = str(err)
        assert [runs[6][-8:], runs[7][-8:]] == ["(step 3)", "(step 2)"]
        for e in report.entries:
            small, big = runs[e.L], runs[e.L + 1]
            if isinstance(small, str) or isinstance(big, str):
                assert e.error == (small if isinstance(small, str) else big)
                assert np.isnan(e.delta_bar) and np.isnan(e.drift)
            else:
                want = np.array([window_disagreement(big, small, 2, 3.0), drift(small, 3.0)])
                assert e.error is None and same_bits(np.array([e.delta_bar, e.drift]), want)
        assert [e.error is None for e in report.entries] == [True, True, False, False]

    def test_stores_no_trajectory(self):
        # criterion 7's sweep: its traced peak stays below one stored
        # trajectory of its largest box, 1001 snapshots of 83 sites
        gen = hashed_noise_generator(seed=2024, envelope_exponent=0.45, amplitude=1.0)
        scheme = SchemeConfig(scheme="rk4", dt=1e-3, t_end=1.0, snapshot_stride=1, lam=1.0)
        cfg = SweepConfig(generator=gen, L_list=tuple(range(8, 41, 4)), k=4, scheme=scheme)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run_box_sweep(cfg, POT)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1001 * 83 * 16

    def test_zero_time_sweep_vanishes(self):
        # generator supported inside the window, t_end = 0
        gen = point_source(1.0)
        scheme = SchemeConfig(scheme="rk4", dt=1e-2, t_end=0.0, snapshot_stride=1, lam=0.0)
        cfg = SweepConfig(generator=gen, L_list=(4, 6, 8), k=3, scheme=scheme)
        report = run_box_sweep(cfg, POT)
        assert all(e.delta_bar == 0.0 for e in report.entries)

    def test_decay_and_fit(self):
        gen = hashed_noise_generator(seed=2024, envelope_exponent=0.45)
        scheme = SchemeConfig(scheme="rk4", dt=2e-3, t_end=0.5, snapshot_stride=1, lam=1.0)
        cfg = SweepConfig(
            generator=gen, L_list=tuple(range(6, 15)), k=4, scheme=scheme
        )
        report = run_box_sweep(cfg, POT)
        deltas = [e.delta_bar for e in report.entries]
        positive = [d for d in deltas if d > 0]
        assert all(b < a for a, b in zip(positive, positive[1:]))
        assert report.fit_A is not None and report.fit_A >= 2.0
        assert report.fit_L0 is not None

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blow_up_flags_partial_report(self):
        def blow(z):
            return 60.0 + 0.0j

        scheme = SchemeConfig(scheme="rk4", dt=5.0, t_end=50.0, snapshot_stride=1, lam=1.0)
        cfg = SweepConfig(generator=blow, L_list=(4, 6), k=2, scheme=scheme)
        report = run_box_sweep(cfg, POT)
        assert report.flagged
        assert all(e.error is not None for e in report.entries)

    def test_report_dict_shape(self):
        gen = point_source(1.0)
        scheme = SchemeConfig(scheme="rk4", dt=1e-2, t_end=0.0, snapshot_stride=1, lam=0.0)
        report = run_box_sweep(SweepConfig(generator=gen, L_list=(4, 5), k=2, scheme=scheme), POT)
        d = report.as_dict()
        assert set(d) == {"entries", "fit", "flagged"}
        assert set(d["entries"][0]) == {"L", "delta_bar", "drift", "runtime"}
        assert set(d["fit"]) == {"A", "L0"}


class TestLocalizedPerturbation:
    def test_far_perturbations_decay(self):
        # generators differing only outside the m-box produce window
        # differences that fall off rapidly in m
        base = hashed_noise_generator(seed=3, envelope_exponent=0.0)
        scheme = SchemeConfig(scheme="rk4", dt=2e-3, t_end=1.0, snapshot_stride=10, lam=1.0)
        L, k = 20, 3
        shape = LatticeShape(1, L)
        base_traj = integrate(truncate(base, shape), POT, scheme)
        diffs = []
        for m in (6, 10, 14):
            def bumped(z, m=m):
                return base(z) + (2.0 if abs(z[0]) > m else 0.0)

            traj = integrate(truncate(bumped, shape), POT, scheme)
            sl = (slice(L - k, L + k + 1),)
            diff = max(
                float(np.abs(a.values[sl] - b.values[sl]).max())
                for a, b in zip(traj.snapshots, base_traj.snapshots)
            )
            diffs.append(diff)
        assert diffs[0] > diffs[1] > diffs[2]
        assert diffs[2] < 1e-6 * diffs[0]


class TestSchemeDisagreement:
    def setup_method(self):
        self.shape = LatticeShape(1, 10)
        self.f = random_field(self.shape, 4, scale=0.8)
        kw = dict(dt=2e-3, t_end=0.5, snapshot_stride=10, lam=1.0)
        self.a = integrate(self.f, POT, SchemeConfig(scheme="strang", **kw))
        self.b = integrate(self.f, POT, SchemeConfig(scheme="rk4", **kw))

    def test_identical_trajectories(self):
        assert scheme_disagreement(self.a, self.a, 2, 1) == 0.0

    def test_monotone_in_n_and_t(self):
        by_n = [scheme_disagreement(self.a, self.b, n, 1) for n in (0, 1, 2, 5)]
        assert all(b >= a for a, b in zip(by_n, by_n[1:]))
        by_t = [scheme_disagreement(self.a, self.b, 2, 1, float(t)) for t in self.a.times]
        assert all(b >= a for a, b in zip(by_t, by_t[1:]))

    def test_second_order_decay_under_refinement(self):
        deltas = []
        dts = (5e-3, 2.5e-3, 1.25e-3)
        for dt in dts:
            kw = dict(dt=dt, t_end=0.5, snapshot_stride=int(round(0.05 / dt)), lam=1.0)
            ta = integrate(self.f, POT, SchemeConfig(scheme="strang", **kw))
            tb = integrate(self.f, POT, SchemeConfig(scheme="rk4", **kw))
            deltas.append(scheme_disagreement(ta, tb, 2, 1))
        order = np.polyfit(np.log(dts), np.log(deltas), 1)[0]
        assert order >= 1.8

    def test_mismatch_rejected(self):
        other = integrate(
            random_field(self.shape, 5), POT,
            SchemeConfig(scheme="rk4", dt=2e-3, t_end=0.5, snapshot_stride=10, lam=1.0),
        )
        with pytest.raises(ValueError):
            scheme_disagreement(self.a, other, 2, 1)
        small = integrate(
            random_field(LatticeShape(1, 4), 4), POT,
            SchemeConfig(scheme="rk4", dt=2e-3, t_end=0.5, snapshot_stride=10, lam=1.0),
        )
        with pytest.raises(ValueError):
            scheme_disagreement(self.a, small, 2, 1)
