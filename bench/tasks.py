"""The benchmark's workloads: task lists that call `dnls` through its public API.

Each task is one acceptance criterion, one experiment or one large-box run.
`run(t, ctx)` makes every call into `dnls` through the tracer `t` (so the
traced run can span it) and returns `(checks, digest)`: a dict of named
correctness predicates and a sha256 of the task's output.  `ctx` carries
results between the tasks of one pass (the criterion-1 reference run is
shared with criteria 2 and 9, as in the acceptance suite).

The workload seed is an offset: seed 0 gives the acceptance suite's own
seeds, any other seed adds itself to every task seed (Gaussian, Gibbs and
hashed generator seeds).  Criteria 1, 2 and 9 (which share the reference
run) and criterion 11 keep their own seeds, because the bounds of criteria
9 and 11 hold only at those seeds (see README.md, Known defects).
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.integrate import quad

from dnls import cli, convergence, dynamics, hopping, lattice, observables, sampling
from dnls.dynamics import SchemeConfig
from dnls.lattice import LatticeShape

WORKLOADS = ("verify-d1", "large-box", "equilibrium")

LAM = 1.0
SIGMA2 = 1.0
COMPLEX_BYTES = 16


@dataclass(frozen=True)
class Task:
    name: str
    run: Callable
    # bytes of the largest array set the task holds at once (trajectory
    # snapshots or sample ensemble), computed from its config
    working_set_bytes: int


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def snapshots_bytes(shape: LatticeShape, cfg: SchemeConfig) -> int:
    return (cfg.n_steps() // cfg.snapshot_stride + 1) * shape.volume * COMPLEX_BYTES


# ---------------------------------------------------------------------------
# traced entry points shared by the tasks


def gaussian(t, shape, seed):
    spec = sampling.GaussianSpec(density=SIGMA2)
    return t.call("sampling.gaussian", sampling.sample_gaussian, spec, shape, seed,
                  work=shape.volume)


def integrate(t, field0, pot, cfg):
    """One trajectory; the traced run also probes `convolve` on its final field."""
    traj = t.call(f"dynamics.{cfg.scheme}", dynamics.integrate, field0, pot, cfg,
                  work=cfg.n_steps() * field0.shape.volume)
    if t.traced:
        t.call("hopping.convolve", hopping.convolve, pot, traj.final, work=traj.shape.volume)
    return traj


def n_drift(t, traj):
    n = np.array([t.call("observables.particle_number", observables.particle_number, s, work=1)
                  for s in traj.snapshots])
    return float(np.max(np.abs(n - n[0])) / n[0])


def h_series(t, traj, pot):
    return np.array([t.call("observables.hamiltonian", observables.hamiltonian, s, pot, LAM,
                            work=1) for s in traj.snapshots])


# ---------------------------------------------------------------------------
# verify-d1: criteria 1, 2, 5, 7, 8, 9 at their own configs, plus the
# observable series of a `conserve` run


def verify_d1(off: int) -> list[Task]:
    pot = hopping.standard_laplacian(1)
    shape64 = LatticeShape(d=1, L=64)
    shape32 = LatticeShape(d=1, L=32)
    ref_cfg = SchemeConfig(scheme="strang", dt=1e-3, t_end=10.0, snapshot_stride=5, lam=LAM)
    c2_cfgs = [SchemeConfig(scheme="strang", dt=dt, t_end=10.0,
                            snapshot_stride=int(round(0.1 / dt)), lam=LAM) for dt in (1e-3, 5e-4)]
    c5_cfg = SchemeConfig(scheme="strang", dt=1e-3, t_end=10.0, snapshot_stride=10, lam=LAM)
    sweep_cfg = convergence.SweepConfig(
        generator=lattice.hashed_noise_generator(seed=2024 + off, envelope_exponent=0.45,
                                                 amplitude=1.0),
        L_list=tuple(range(8, 41, 4)), k=4,
        scheme=SchemeConfig(scheme="rk4", dt=1e-3, t_end=1.0, snapshot_stride=1, lam=LAM),
    )
    c8_dts = (4e-3, 2e-3, 1e-3)
    c8_cfgs = [(dt, {s: SchemeConfig(scheme=s, dt=dt, t_end=1.0,
                                     snapshot_stride=int(round(0.02 / dt)), lam=LAM)
                     for s in ("strang", "rk4")}) for dt in c8_dts]
    series_cfg = SchemeConfig(scheme="strang", dt=1e-3, t_end=10.0, snapshot_stride=10, lam=LAM)
    series_locs = (observables.LocalizationParams(eps=0.1, center=(0,)),)

    def crit01(t, ctx):
        field0 = gaussian(t, shape64, 12345)
        traj = integrate(t, field0, pot, ref_cfg)
        ctx["reference_run"] = traj
        return {"l2_drift<=1e-10": n_drift(t, traj) <= 1e-10}, digest(traj.final.values)

    def crit02(t, ctx):
        field0 = ctx["reference_run"].snapshots[0]
        drifts, finals = [], []
        for cfg in c2_cfgs:
            traj = integrate(t, field0, pot, cfg)
            h = h_series(t, traj, pot)
            drifts.append(float(np.max(np.abs(h - h[0]))))
            finals.append(traj.final.values)
        ratio = drifts[0] / drifts[1]
        return {"drift_ratio_in[2.5,6]": 2.5 <= ratio <= 6.0}, digest(*finals)

    def crit05(t, ctx):
        worst, ok, finals = 0.0, True, []
        for seed in range(off, off + 10):
            traj = integrate(t, gaussian(t, shape64, seed), pot, c5_cfg)
            rep = t.call("observables.growth_bound", observables.growth_bound_report,
                         traj, pot, 0.1, (0,), 2.0, work=len(traj))
            worst = max(worst, float(np.max(rep.ratios)))
            ok = ok and rep.passed
            finals.append(traj.final.values)
        return {"growth_bound_passed": ok, "max_ratio<=1+1e-9": worst <= 1.0 + 1e-9}, \
            digest(*finals)

    def crit07(t, ctx):
        report = t.call("convergence.sweep", convergence.run_box_sweep, sweep_cfg, pot,
                        work=len(sweep_cfg.L_list))
        deltas = [e.delta_bar for e in report.entries]
        t.count("convergence.sweep.nonzero", sum(d > 0.0 for d in deltas))
        # criterion 7 accepts ties at exactly zero; the CLI sweep-L check does not
        decreasing = all((b < a) or (a == 0.0 and b == 0.0) for a, b in zip(deltas, deltas[1:]))
        return {
            "decreasing_with_zero_ties": decreasing,
            "L0<=32": report.fit_L0 is not None and report.fit_L0 <= 32,
            "not_flagged": not report.flagged,
        }, digest(np.array(deltas))

    def crit08(t, ctx):
        field0 = gaussian(t, shape32, 99 + off)
        deltas, finals = [], []
        for dt, cfgs in c8_cfgs:
            ta = integrate(t, field0, pot, cfgs["strang"])
            tb = integrate(t, field0, pot, cfgs["rk4"])
            deltas.append(t.call("convergence.scheme_disagreement",
                                 convergence.scheme_disagreement, ta, tb, 2, pot.range))
            finals += [ta.final.values, tb.final.values]
        order = float(np.polyfit(np.log(c8_dts), np.log(deltas), 1)[0])
        return {
            "order>=1.8": order >= 1.8,
            "deltas_decreasing": all(b < a for a, b in zip(deltas, deltas[1:])),
        }, digest(*finals)

    def crit09(t, ctx):
        ref = ctx["reference_run"]
        rng = np.random.default_rng(7)
        sites = [(int(v),) for v in rng.integers(-64, 65, size=5)]
        view10 = t.call("dynamics.subsample", dynamics.subsample, ref, 2)
        view20 = t.call("dynamics.subsample", dynamics.subsample, ref, 4)
        worst, worst_ratio, defects = 0.0, math.inf, []
        for x in sites:
            r20, r10, r5 = (t.call("dynamics.duhamel", dynamics.duhamel_defect_first,
                                   view, pot, LAM, x, 10.0, work=len(view))
                            for view in (view20, view10, ref))
            worst = max(worst, abs(r10))
            worst_ratio = min(worst_ratio, abs(r20 - r10) / abs(r10 - r5))
            defects += [r20, r10, r5]
        return {"residual<=1e-6": worst <= 1e-6, "quadrature_ratio>=4": worst_ratio >= 4.0}, \
            digest(np.array(defects))

    def conserve_series(t, ctx):
        traj = integrate(t, gaussian(t, shape64, off), pot, series_cfg)
        header, rows = t.call("observables.series", observables.observable_series,
                              traj, pot, LAM, series_locs, 2.0, work=len(traj))
        table = np.array(rows)
        n = table[:, header.index("N_L")]
        ratios = table[:, header.index("ratio_eps0.1_x0")]
        return {
            "particle_number_conserved": float(np.max(np.abs(n - n[0])) / n[0]) <= 1e-10,
            "growth_ratio<=1+1e-9": float(ratios.max()) <= 1.0 + 1e-9,
        }, digest(table)

    sweep_bytes = max(snapshots_bytes(LatticeShape(1, L + 1), sweep_cfg.scheme)
                      for L in sweep_cfg.L_list)
    return [
        Task("criterion-01", crit01, snapshots_bytes(shape64, ref_cfg)),
        Task("criterion-02", crit02, snapshots_bytes(shape64, c2_cfgs[1])),
        Task("criterion-05", crit05, snapshots_bytes(shape64, c5_cfg)),
        Task("criterion-07", crit07, sweep_bytes),
        Task("criterion-08", crit08, snapshots_bytes(shape32, c8_cfgs[-1][1]["rk4"])),
        Task("criterion-09", crit09, snapshots_bytes(shape64, ref_cfg)),
        Task("conserve-series", conserve_series, snapshots_bytes(shape64, series_cfg)),
    ]


# ---------------------------------------------------------------------------
# large-box: the same dynamics/observables/hopping layers at compute-bound sizes


def large_box(off: int) -> list[Task]:
    pot2, pot3 = hopping.standard_laplacian(2), hopping.standard_laplacian(3)
    shape_d2 = LatticeShape(d=2, L=64)
    shape_d3 = LatticeShape(d=3, L=16)
    d2_cfg = SchemeConfig(scheme="strang", dt=1e-3, t_end=0.5, snapshot_stride=10, lam=LAM)
    d3_cfgs = [SchemeConfig(scheme=s, dt=1e-3, t_end=0.05, snapshot_stride=10, lam=LAM)
               for s in ("strang", "rk4")]
    gen = lattice.hashed_noise_generator(seed=2024 + off, envelope_exponent=0.0, amplitude=1.0)
    bound_cfg = SchemeConfig(scheme="strang", dt=1e-3, t_end=1.0, snapshot_stride=10, lam=LAM)
    weight = observables.WeightSpec(kind="power", parameter=1.0)
    bound_boxes = ((LatticeShape(d=2, L=32), pot2, 32), (LatticeShape(d=3, L=8), pot3, 8))

    def strang_d2(t, ctx):
        traj = integrate(t, gaussian(t, shape_d2, 64 + off), pot2, d2_cfg)
        h = h_series(t, traj, pot2)
        return {"particle_number_conserved": n_drift(t, traj) <= 1e-10}, \
            digest(traj.final.values, h)

    def hashed_d3(t, ctx):
        field0 = t.call("lattice.truncate", lattice.truncate, gen, shape_d3,
                        work=shape_d3.volume)
        checks, finals = {}, []
        for cfg in d3_cfgs:
            traj = integrate(t, field0, pot3, cfg)
            h = h_series(t, traj, pot3)
            checks[f"{cfg.scheme}_particle_number_conserved"] = n_drift(t, traj) <= 1e-10
            finals += [traj.final.values, h]
        return checks, digest(field0.values, *finals)

    def bounds(shape, pot, seed):
        def run(t, ctx):
            traj = integrate(t, gaussian(t, shape, seed + off), pot, bound_cfg)
            growth = t.call("observables.growth_bound", observables.growth_bound_report,
                            traj, pot, 0.1, (0,) * shape.d, 2.0, work=len(traj))
            weighted = t.call("observables.weighted_bound", observables.weighted_bound_check,
                              traj, pot, 0.1, weight, 2.0, work=1)
            return {"growth_bound_passed": growth.passed,
                    "weighted_bound_passed": weighted.passed}, \
                digest(traj.final.values, growth.ratios, weighted.ratios)
        return run

    return [
        Task("strang-d2-L64", strang_d2, snapshots_bytes(shape_d2, d2_cfg)),
        Task("hashed-d3-L16", hashed_d3, snapshots_bytes(shape_d3, d3_cfgs[0])),
        *(Task(f"bounds-d{shape.d}-L{shape.L}", bounds(shape, pot, seed),
               snapshots_bytes(shape, bound_cfg)) for shape, pot, seed in bound_boxes),
    ]


# ---------------------------------------------------------------------------
# equilibrium: criterion 10, criterion 11's two ensembles, CLI sampling + stats


def equilibrium(off: int, workdir: Path) -> list[Task]:
    pot = hopping.standard_laplacian(1)
    c10_spec = sampling.GibbsSpec(beta=1.0, mu=-1.0, lam=1.0, proposal_sigma=0.7,
                                  burn_in=500, thinning=10)
    c10_samples = 100_000
    c11_spec = sampling.GibbsSpec(beta=1.0, mu=-1.0, lam=1.0, proposal_sigma=0.7,
                                  burn_in=300, thinning=15)
    c11_shapes = [LatticeShape(d=1, L=L) for L in (64, 128, 256)]
    c11_samples = 200
    exponent, xi = 0.45, 3.5
    cli_L, cli_samples = 128, 200

    def crit10(t, ctx):
        shape = LatticeShape(d=1, L=0)
        chain = t.call("sampling.gibbs_single_site", sampling.run_gibbs_chain, c10_spec, pot,
                       shape, 31337 + off, c10_samples,
                       work=c10_spec.burn_in + c10_samples * c10_spec.thinning)
        u = np.array([abs(s.values.ravel()[0]) ** 2 for s in chain.samples])
        rate = c10_spec.beta * (1.0 - c10_spec.mu)
        curve = 0.5 * c10_spec.beta * c10_spec.lam
        unnorm = lambda x: math.exp(-rate * x - curve * x * x)  # noqa: E731
        z = quad(unnorm, 0, np.inf)[0]
        grid = np.linspace(0.0, 10.0, 200_001)
        pdf = np.array([unnorm(x) for x in grid]) / z
        cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2 * np.diff(grid))])
        cdf /= cdf[-1]
        inner = np.interp(np.linspace(0, 1, 51)[1:-1], cdf, grid)
        counts, _ = np.histogram(u, bins=np.concatenate([[0.0], inner, [np.inf]]))
        n, p = len(u), 1.0 / 50
        z_scores = np.abs(counts - n * p) / math.sqrt(n * p * (1 - p))
        return {"bins_within_3se>=95%": float((z_scores <= 3.0).mean()) >= 0.95}, digest(u)

    def crit11(label):
        def run(t, ctx):
            medians, ses, worst_frac, worst_z, sups_all = [], [], 1.0, 0.0, []
            for shape in c11_shapes:
                if label == "gaussian":
                    seeds = np.random.SeedSequence(500 + shape.L).spawn(c11_samples)
                    samples = [gaussian(t, shape, int(s.generate_state(1)[0])) for s in seeds]
                else:
                    chain = t.call("sampling.gibbs", sampling.run_gibbs_chain, c11_spec, pot,
                                   shape, 1000 + shape.L, c11_samples,
                                   work=(c11_spec.burn_in + c11_samples * c11_spec.thinning)
                                   * shape.volume)
                    t.count("sampling.gibbs.accepted", chain.n_accepted)
                    samples = list(chain.samples)
                sups = [t.call("sampling.statistics", sampling.weighted_sup, s, exponent,
                               work=1) for s in samples]
                med, se = t.call("sampling.statistics", sampling.median_with_se, sups, work=1)
                medians.append(med)
                ses.append(se)
                stats = t.call("sampling.statistics", sampling.site_moments, samples, xi,
                               work=1)
                z = np.abs(stats.per_site_moments - stats.per_site_moments.mean()) \
                    / stats.per_site_se
                worst_frac = min(worst_frac, float((z <= 3.0).mean()))
                worst_z = max(worst_z, float(z.max()))
                sups_all += sups
            flat = all(m2 - m1 <= 3.0 * math.hypot(s1, s2)
                       for (m1, s1), (m2, s2) in zip(zip(medians, ses),
                                                     zip(medians[1:], ses[1:])))
            return {"medians_flat": flat, "site_uniform": worst_frac >= 0.97 and worst_z <= 6.0}, \
                digest(np.array(sups_all))
        return run

    def cli_sample_stats(t, ctx):
        shutil.rmtree(workdir, ignore_errors=True)
        gauss_out, stats_out = workdir / "sample-gaussian", workdir / "stats"
        runs = [
            ("sample-gaussian", gauss_out,
             ["--lattice.d", "1", "--lattice.L", str(cli_L),
              "--sampling.n_samples", str(cli_samples), "--dump_fields", "true"]),
            ("stats", stats_out, ["--stats.fields_dir", str(gauss_out / "fields")]),
        ]
        checks, artifacts = {}, []
        for experiment, out, extra in runs:
            argv = ["--experiment", experiment, "--out", str(out), "--seed", str(off), *extra]
            code = t.call(f"cli.{experiment}", cli.main, argv)
            checks[f"{experiment}_exit_0"] = code == 0
            manifest = json.loads((out / "manifest.json").read_text()) if code == 0 else {}
            checks[f"{experiment}_manifest_checks"] = all(manifest.get("checks", {}).values())
            artifacts.append(manifest.get("artifacts", {}))
            if t.traced:
                t.count("cli.bytes_written",
                        sum(p.stat().st_size for p in out.rglob("*") if p.is_file()))
        # the dumps round-trip exactly, so the reloaded statistics are identical
        checks["stats_roundtrip_identical"] = (
            artifacts[0].get("stats.json") is not None
            and artifacts[0].get("stats.json") == artifacts[1].get("stats.json"))
        shutil.rmtree(workdir, ignore_errors=True)
        return checks, hashlib.sha256(json.dumps(artifacts, sort_keys=True).encode()).hexdigest()

    ensemble_bytes = c11_samples * c11_shapes[-1].volume * COMPLEX_BYTES
    return [
        Task("criterion-10", crit10, c10_samples * COMPLEX_BYTES),
        Task("criterion-11-gaussian", crit11("gaussian"), ensemble_bytes),
        Task("criterion-11-gibbs", crit11("gibbs"), ensemble_bytes),
        Task("cli-sample-gaussian-stats", cli_sample_stats,
             cli_samples * (2 * cli_L + 1) * COMPLEX_BYTES),
    ]


def build(workload: str, seed: int, workdir: Path) -> list[Task]:
    if workload == "verify-d1":
        return verify_d1(seed)
    if workload == "large-box":
        return large_box(seed)
    if workload == "equilibrium":
        return equilibrium(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}; choose one of {WORKLOADS}")
