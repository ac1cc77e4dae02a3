"""Command-line front end: configuration, experiment orchestration, artifacts.

One run produces one output directory containing a manifest.json (config
echo, code version, wall clock, result summary, pass/fail flags, and a
content hash for every emitted file) plus experiment-specific CSV/JSON
artifacts and optional field dumps.  Runs with identical config and seed
produce byte-identical artifacts apart from wall-clock fields.

Exit codes: 0 all enabled checks pass, 1 check failure, 2 configuration
error, 3 numerical blow-up.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import convergence, dynamics, hopping, lattice, observables, sampling

EXPERIMENTS = (
    "simulate",
    "conserve",
    "bound-check",
    "sweep-L",
    "uniqueness",
    "sample-gaussian",
    "sample-gibbs",
    "stats",
)


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config assembly


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _coerce_flag_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def parse_overrides(pairs: list[str]) -> dict:
    """Dotted flag paths to nested dict: --dynamics.dt 1e-3 -> {dynamics: {dt: ...}}."""
    out: dict = {}
    i = 0
    while i < len(pairs):
        flag = pairs[i]
        if not flag.startswith("--"):
            raise ConfigError(f"unexpected argument {flag!r}")
        if i + 1 >= len(pairs):
            raise ConfigError(f"flag {flag!r} is missing a value")
        path = flag[2:].split(".")
        node = out
        for part in path[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"conflicting override path {flag!r}")
        node[path[-1]] = _coerce_flag_value(pairs[i + 1])
        i += 2
    return out


def load_config(path: str | None, overrides: dict) -> dict:
    cfg: dict = {}
    if path is not None:
        try:
            with open(path) as fh:
                cfg = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as err:
            raise ConfigError(f"config file is not valid JSON: {err}")
        if not isinstance(cfg, dict):
            raise ConfigError("config root must be a JSON object")
    return _deep_merge(cfg, overrides)


# ---------------------------------------------------------------------------
# builders


def build_shape(cfg: dict) -> lattice.LatticeShape:
    sect = cfg.get("lattice", {})
    try:
        return lattice.LatticeShape(d=int(sect.get("d", 1)), L=int(sect.get("L", 16)))
    except ValueError as err:
        raise ConfigError(str(err))


def _load_file(loader, path, key: str):
    try:
        return loader(path)
    except OSError as err:
        raise ConfigError(f"cannot read {key} {path!r}: {err.strerror or err}")


def build_potential(cfg: dict, d: int) -> hopping.HoppingPotential:
    sect = cfg.get("kernel", {"type": "standard"})
    kind = sect.get("type", "standard")
    if "file" in sect:
        return _load_file(hopping.load_potential, sect["file"], "kernel.file")
    if kind == "standard":
        return hopping.standard_laplacian(d)
    if kind == "nearest-neighbor":
        return hopping.nearest_neighbor_laplacian(d)
    if kind == "zero":
        return hopping.zero_potential(d, int(sect.get("range", 1)))
    raise ConfigError(f"unknown kernel type {kind!r}")


def build_generator(cfg: dict, seed: int) -> lattice.InitialDataGenerator:
    sect = cfg.get("initial", {})
    kind = sect.get("type", "hashed")
    if kind == "hashed":
        return lattice.hashed_noise_generator(
            seed=int(sect.get("seed", seed)),
            envelope_exponent=float(sect.get("p", 0.0)),
            amplitude=float(sect.get("amplitude", 1.0)),
        )
    if kind == "constant":
        return lattice.constant_generator(complex(sect.get("re", 1.0), sect.get("im", 0.0)))
    if kind == "peak":
        return lattice.point_source(complex(sect.get("amplitude", 1.0)))
    raise ConfigError(f"initial data type {kind!r} is not a Z^d generator")


def build_initial_field(cfg: dict, shape: lattice.LatticeShape, seed: int) -> lattice.FieldL:
    sect = cfg.get("initial", {})
    kind = sect.get("type", "gaussian")
    if kind == "gaussian":
        spec = sampling.GaussianSpec(density=float(sect.get("sigma2", 1.0)))
        return sampling.sample_gaussian(spec, shape, int(sect.get("seed", seed)))
    if kind == "file":
        if "path" not in sect:
            raise ConfigError("initial.type file needs initial.path")
        field = _load_file(lattice.load_field, sect["path"], "initial.path")
        if field.shape != shape:
            raise ConfigError("field file does not match the configured lattice")
        return field
    return lattice.truncate(build_generator(cfg, seed), shape)


def build_scheme(cfg: dict) -> dynamics.SchemeConfig:
    sect = cfg.get("dynamics", {})
    try:
        return dynamics.SchemeConfig(
            scheme=sect.get("scheme", "strang"),
            dt=float(sect.get("dt", 1e-3)),
            t_end=float(sect.get("t_end", 1.0)),
            snapshot_stride=int(sect.get("stride", 10)),
            lam=float(sect.get("lambda", 1.0)),
        )
    except ValueError as err:
        raise ConfigError(str(err))


# ---------------------------------------------------------------------------
# artifact writing


class RunWriter:
    """Single writer for one run directory; tracks content hashes."""

    def __init__(self, outdir: Path):
        self.outdir = outdir
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.artifacts: dict[str, str] = {}

    def _register(self, relpath: str) -> None:
        data = (self.outdir / relpath).read_bytes()
        self.artifacts[relpath] = hashlib.sha256(data).hexdigest()

    def write_text(self, relpath: str, text: str) -> None:
        path = self.outdir / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
        self._register(relpath)

    def write_json(self, relpath: str, payload) -> None:
        self.write_text(relpath, json.dumps(payload, indent=2, sort_keys=True) + "\n")

    def write_csv(self, relpath: str, header: list[str], rows) -> None:
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_csv_cell(v) for v in row))
        self.write_text(relpath, "\n".join(lines) + "\n")

    def write_field(self, relpath: str, field: lattice.FieldL) -> None:
        path = self.outdir / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        lattice.dump_field(field, path)
        self._register(relpath)

    def write_manifest(self, manifest: dict) -> None:
        manifest = dict(manifest)
        manifest["artifacts"] = dict(sorted(self.artifacts.items()))
        path = self.outdir / "manifest.json"
        with open(path, "w", newline="\n") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _jsonable(value):
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


# ---------------------------------------------------------------------------
# experiments


def _configured_run(cfg: dict, seed: int):
    """Build the configured kernel, scheme and initial field, and integrate."""
    shape = build_shape(cfg)
    pot = build_potential(cfg, shape.d)
    scheme = build_scheme(cfg)
    field0 = build_initial_field(cfg, shape, seed)
    return pot, scheme, field0, dynamics.integrate(field0, pot, scheme)


def _series_artifact(writer, traj, pot, lam, cfg):
    obs_cfg = cfg.get("observables", {})
    locs = []
    eps = obs_cfg.get("eps")
    if eps is not None:
        for center in obs_cfg.get("centers", [[0] * traj.shape.d]):
            locs.append(observables.LocalizationParams(eps=float(eps), center=tuple(center)))
    header, rows = observables.observable_series(
        traj, pot, lam, locs, float(obs_cfg.get("c_const", 2.0))
    )
    writer.write_csv("series.csv", header, rows)
    return header, rows


def _maybe_dump_fields(writer, traj, cfg):
    if not cfg.get("dump_fields", False):
        return
    for j, snap in enumerate(traj.snapshots):
        writer.write_field(f"fields/snapshot_{j:06d}.txt", snap)


def run_simulate(cfg: dict, writer: RunWriter, seed: int) -> tuple[dict, dict]:
    pot, scheme, field0, traj = _configured_run(cfg, seed)
    _series_artifact(writer, traj, pot, scheme.lam, cfg)
    _maybe_dump_fields(writer, traj, cfg)
    summary = {
        "snapshots": len(traj),
        "t_end": float(traj.times[-1]),
        "kernel": pot.fingerprint(),
        "final_particle_number": observables.particle_number(traj.final),
    }
    return summary, {}


def run_conserve(cfg: dict, writer: RunWriter, seed: int) -> tuple[dict, dict]:
    pot, scheme, field0, traj = _configured_run(cfg, seed)
    header, rows = _series_artifact(writer, traj, pot, scheme.lam, cfg)

    table = np.array(rows)
    n_series = table[:, header.index("N_L")]
    h_series = table[:, header.index("H_L")]
    n0 = n_series[0]
    n_drift = float(np.max(np.abs(n_series - n0)) / n0) if n0 > 0 else 0.0
    h_drift = float(np.max(np.abs(h_series - h_series[0])))

    cons = cfg.get("conserve", {})
    n_tol = float(cons.get("n_tol", 1e-10))
    checks = {"particle_number_conserved": n_drift <= n_tol}
    h_tol = cons.get("h_tol")
    if h_tol is not None:
        checks["energy_drift_bounded"] = h_drift <= float(h_tol)

    summary = {"n_drift": n_drift, "h_drift": h_drift, "n_tol": n_tol,
               "kernel": pot.fingerprint()}
    if np.all(pot.coeffs == 0.0):
        onsite_tol = float(cons.get("onsite_tol", 1e-12))
        err = 0.0
        base = np.abs(field0.values) ** 2
        for t, snap in zip(traj.times, traj.snapshots):
            exact = np.exp(-1j * scheme.lam * base * t) * field0.values
            err = max(err, float(np.max(np.abs(snap.values - exact))))
        checks["onsite_exact_solution"] = err <= onsite_tol
        summary["onsite_error"] = err
    return summary, checks


def run_bound_check(cfg: dict, writer: RunWriter, seed: int) -> tuple[dict, dict]:
    pot, scheme, field0, traj = _configured_run(cfg, seed)

    obs_cfg = cfg.get("observables", {})
    eps = float(obs_cfg.get("eps", 0.1))
    c_const = float(obs_cfg.get("c_const", 2.0))
    centers = [tuple(c) for c in obs_cfg.get("centers", [[0] * traj.shape.d])]

    _series_artifact(writer, traj, pot, scheme.lam, cfg)
    checks = {}
    summary = {"eps": eps, "c_const": c_const, "kernel": pot.fingerprint()}
    worst = 0.0
    for center in centers:
        rep = observables.growth_bound_report(traj, pot, eps, center, c_const)
        checks[f"growth_bound_x{'_'.join(map(str, center))}"] = rep.passed
        worst = max(worst, float(np.max(rep.ratios)))
    summary["max_growth_ratio"] = worst

    w_cfg = obs_cfg.get("weight")
    if w_cfg is not None:
        spec = observables.WeightSpec(kind=w_cfg["kind"], parameter=float(w_cfg["parameter"]))
        rep = observables.weighted_bound_check(traj, pot, eps, spec, c_const)
        checks["weighted_bound"] = rep.passed
        summary["weighted_prefactor"] = rep.prefactor
        summary["max_weighted_ratio"] = float(np.max(rep.ratios))
    return summary, checks


def run_sweep(cfg: dict, writer: RunWriter, seed: int) -> tuple[dict, dict]:
    sweep_cfg = cfg.get("sweep", {})
    if "L_list" not in sweep_cfg:
        raise ConfigError("sweep-L needs sweep.L_list")
    gen = build_generator(cfg, seed)
    scheme = build_scheme(cfg)
    shape_d = int(cfg.get("lattice", {}).get("d", 1))
    pot = build_potential(cfg, shape_d)
    try:
        config = convergence.SweepConfig(
            generator=gen,
            L_list=tuple(int(v) for v in sweep_cfg["L_list"]),
            k=int(sweep_cfg.get("k", 1)),
            scheme=scheme,
        )
    except ValueError as err:
        raise ConfigError(str(err))
    report = convergence.run_box_sweep(config, pot)
    payload = _jsonable(report.as_dict())
    writer.write_json("sweep.json", payload)
    writer.write_csv(
        "sweep.csv",
        ["L", "delta_bar"],
        [[e.L, e.delta_bar] for e in report.entries],
    )

    checks = {}
    clean = [e for e in report.entries if e.error is None]
    if sweep_cfg.get("check_decreasing", True):
        deltas = [e.delta_bar for e in clean]
        checks["delta_bar_strictly_decreasing"] = all(
            b < a for a, b in zip(deltas, deltas[1:])
        ) and not report.flagged
    l0_max = sweep_cfg.get("L0_max")
    if l0_max is not None:
        checks["threshold_within_bound"] = (
            report.fit_L0 is not None and report.fit_L0 <= int(l0_max)
        )
    summary = {
        "fit": {"A": report.fit_A, "L0": report.fit_L0},
        "flagged": report.flagged,
        "kernel": pot.fingerprint(),
    }
    return _jsonable(summary), checks


def run_uniqueness(cfg: dict, writer: RunWriter, seed: int) -> tuple[dict, dict]:
    shape = build_shape(cfg)
    pot = build_potential(cfg, shape.d)
    uniq = cfg.get("uniqueness", {})
    dt_list = [float(v) for v in uniq.get("dt_list", [4e-3, 2e-3, 1e-3])]
    if len(dt_list) < 2:
        raise ConfigError("uniqueness needs at least two dt values")
    if len(set(dt_list)) != len(dt_list):
        raise ConfigError(f"uniqueness.dt_list has repeated entries: {dt_list}")
    n = int(uniq.get("n", 2))
    base = build_scheme(cfg)
    field0 = build_initial_field(cfg, shape, seed)

    rows = []
    for dt in dt_list:
        stride = max(1, int(round(base.snapshot_stride * base.dt / dt)))
        steps = int(round(base.t_end / dt))
        if steps % stride != 0:
            stride = 1
        kw = dict(dt=dt, t_end=base.t_end, snapshot_stride=stride, lam=base.lam)
        ta = dynamics.integrate(field0, pot, dynamics.SchemeConfig(scheme="strang", **kw))
        tb = dynamics.integrate(field0, pot, dynamics.SchemeConfig(scheme="rk4", **kw))
        rows.append([dt, convergence.scheme_disagreement(ta, tb, n, pot.range)])
    writer.write_csv("uniqueness.csv", ["dt", "delta"], rows)

    logs = np.log([r[1] for r in rows])
    order = float(np.polyfit(np.log([r[0] for r in rows]), logs, 1)[0])
    min_order = float(uniq.get("min_order", 1.8))
    checks = {"refinement_order": order >= min_order}
    summary = {
        "fitted_order": order,
        "deltas": {repr(r[0]): r[1] for r in rows},
        "kernel": pot.fingerprint(),
    }
    return summary, checks


def run_sample_gaussian(cfg: dict, writer: RunWriter, seed: int) -> tuple[dict, dict]:
    shape = build_shape(cfg)
    samp = cfg.get("sampling", {})
    n_samples = int(samp.get("n_samples", 100))
    spec = sampling.GaussianSpec(density=float(samp.get("sigma2", 1.0)))
    seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(n_samples)]
    samples = [sampling.sample_gaussian(spec, shape, s) for s in seeds]
    summary = _stats_payload(samples, samp, writer, cfg)
    summary["n_samples"] = n_samples
    return summary, {}


def run_sample_gibbs(cfg: dict, writer: RunWriter, seed: int) -> tuple[dict, dict]:
    shape = build_shape(cfg)
    pot = build_potential(cfg, shape.d)
    samp = cfg.get("sampling", {})
    try:
        spec = sampling.GibbsSpec(
            beta=float(samp.get("beta", 1.0)),
            mu=float(samp.get("mu", -1.0)),
            lam=float(samp.get("lambda", 1.0)),
            proposal_sigma=float(samp.get("proposal_sigma", 1.0)),
            burn_in=int(samp.get("burn_in", 200)),
            thinning=int(samp.get("thinning", 5)),
        )
    except (ValueError, sampling.MeasureError) as err:
        raise ConfigError(str(err))
    n_samples = int(samp.get("n_samples", 100))
    summary = {}
    if samp.get("tune_sigma", False):
        tuned = sampling.tune_proposal_sigma(spec, pot, shape, seed)
        spec = dataclasses.replace(spec, proposal_sigma=tuned)
        summary["tuned_sigma"] = tuned
    chain = sampling.run_gibbs_chain(spec, pot, shape, seed, n_samples)
    summary.update(_stats_payload(list(chain.samples), samp, writer, cfg))
    summary["n_samples"] = n_samples
    summary["acceptance"] = sampling.acceptance_fraction(chain)
    summary["kernel"] = pot.fingerprint()
    return summary, {}


def _stats_payload(samples, samp_cfg, writer, cfg) -> dict:
    xi = float(samp_cfg.get("xi", 3.5))
    a = float(samp_cfg.get("a", 2.0 / 0.9))
    stats = sampling.site_moments(samples, xi)
    by_radius: dict[int, int] = {}
    sites_by_radius: dict[int, int] = {}
    for s in samples:
        v = sampling.power_law_violations(s, a)
        for r, c in v.violations_by_radius.items():
            by_radius[r] = by_radius.get(r, 0) + c
        sites_by_radius = v.sites_by_radius
    payload = {
        "moment_order": xi,
        "per_site_moments": stats.per_site_moments,
        "max_moment": stats.max_moment,
        "violations_by_radius": {str(k): v for k, v in sorted(by_radius.items())},
        "sites_by_radius": {str(k): v for k, v in sorted(sites_by_radius.items())},
    }
    writer.write_json("stats.json", _jsonable(payload))
    if cfg.get("dump_fields", False):
        for j, s in enumerate(samples):
            writer.write_field(f"fields/sample_{j:06d}.txt", s)
    return {"max_moment": stats.max_moment}


def run_stats(cfg: dict, writer: RunWriter, seed: int) -> tuple[dict, dict]:
    sect = cfg.get("stats", {})
    fields_dir = sect.get("fields_dir")
    if not fields_dir:
        raise ConfigError("stats needs stats.fields_dir")
    paths = sorted(Path(fields_dir).glob("*.txt"))
    if len(paths) < 2:
        raise ConfigError(f"need at least 2 field dumps in {fields_dir}")
    samples = [lattice.load_field(p) for p in paths]
    summary = _stats_payload(samples, cfg.get("sampling", {}), writer, cfg)
    summary["n_samples"] = len(samples)
    return summary, {}


RUNNERS = {
    "simulate": run_simulate,
    "conserve": run_conserve,
    "bound-check": run_bound_check,
    "sweep-L": run_sweep,
    "uniqueness": run_uniqueness,
    "sample-gaussian": run_sample_gaussian,
    "sample-gibbs": run_sample_gibbs,
    "stats": run_stats,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dnls",
        description="Lattice nonlinear Schrodinger simulator and verification harness",
    )
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--experiment", default=None, choices=EXPERIMENTS)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None, help="output directory")
    args, extra = parser.parse_known_args(argv)

    start = time.perf_counter()
    try:
        cfg = load_config(args.config, parse_overrides(extra))
        if args.experiment is not None:
            cfg["experiment"] = args.experiment
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.out is not None:
            cfg["out"] = args.out

        experiment = cfg.get("experiment")
        if experiment not in RUNNERS:
            raise ConfigError(
                f"experiment must be one of {', '.join(EXPERIMENTS)}; got {experiment!r}"
            )
        outdir = cfg.get("out")
        if not outdir:
            raise ConfigError("an output directory is required (--out or config 'out')")
        seed = int(cfg.get("seed", 0))
        cfg["seed"] = seed

        writer = RunWriter(Path(outdir))
        summary, checks = RUNNERS[experiment](cfg, writer, seed)
    except dynamics.BlowUpError as err:
        print(f"blow-up: {err}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as err:
        # invalid sites, malformed data/kernels, measure and grid problems
        # are all configuration-level failures
        print(f"configuration error: {err}", file=sys.stderr)
        return 2

    manifest = {
        "experiment": experiment,
        "config": _jsonable(cfg),
        "version": __version__,
        "seed": seed,
        "wall_clock_s": time.perf_counter() - start,
        "results": _jsonable(summary),
        "checks": {k: bool(v) for k, v in checks.items()},
    }
    writer.write_manifest(manifest)

    failed = [name for name, ok in checks.items() if not ok]
    for name, ok in sorted(checks.items()):
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    if failed:
        return 1
    return 0


def entry() -> None:
    raise SystemExit(main())
