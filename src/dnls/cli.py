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
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import convergence, dynamics, hopping, lattice, observables, sampling


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
        try:
            node[path[-1]] = json.loads(pairs[i + 1])
        except json.JSONDecodeError:
            node[path[-1]] = pairs[i + 1]
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
# config schema

# The config format: section -> key -> default, where a type object marks a
# key that is unset by default.  A key's type is its default's type (an int
# also passes for a float, an integral float for an int, a bool only for a
# bool, and a float must be finite), a list's first element types its items,
# and a dict inside a section is a sub-object that needs all of its keys.
# README.md's table lists them.
SCHEMA = {
    "experiment": str,
    "out": str,
    "seed": 0,
    "dump_fields": False,
    "lattice": {"d": 1, "L": 16},
    "kernel": {"type": "standard", "file": str, "range": 1},
    "initial": {"type": str, "seed": int, "sigma2": 1.0, "p": 0.0, "amplitude": 1.0,
                "re": 1.0, "im": 0.0, "path": str},
    "dynamics": {"scheme": str, "dt": 1e-3, "t_end": 1.0, "stride": 10, "lambda": 1.0},
    "observables": {"eps": float, "centers": [[int]], "c_const": 2.0,
                    "weight": {"kind": str, "parameter": float}},
    "conserve": {"n_tol": 1e-10, "h_tol": float, "onsite_tol": 1e-12},
    "sweep": {"L_list": [int], "k": 1, "check_decreasing": True, "L0_max": int},
    "uniqueness": {"dt_list": [4e-3, 2e-3, 1e-3], "n": 2, "min_order": 1.8},
    "sampling": {"n_samples": 100, "sigma2": 1.0, "beta": 1.0, "mu": -1.0, "lambda": 1.0,
                 "proposal_sigma": 1.0, "burn_in": 200, "thinning": 5, "tune_sigma": False,
                 "xi": 3.5, "a": 2.0 / 0.9},
    "stats": {"fields_dir": str},
}


def _unset(spec) -> bool:
    return isinstance(spec, (type, dict)) or (isinstance(spec, list) and _unset(spec[0]))


def _value(spec, value, key: str, fill: bool = False):
    """`value` of the dotted `key` checked against `spec`; `fill` marks the
    root and its sections, whose missing keys take their defaults."""
    if isinstance(spec, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{key} must be an object, got {value!r}")
        prefix = f"{key}." if key else ""
        unknown = sorted(value.keys() - spec.keys())
        if unknown:
            raise ConfigError(f"unknown config key {prefix}{unknown[0]}")
        if not fill and value.keys() != spec.keys():
            raise ConfigError(f"{key} needs the keys {', '.join(spec)}")
        return {sub: _value(s, value[sub], prefix + sub, fill=not key) if sub in value
                else None if _unset(s) else copy.deepcopy(s) for sub, s in spec.items()}
    if isinstance(spec, list) and isinstance(value, list):
        return [_value(spec[0], v, f"{key}[{i}]") for i, v in enumerate(value)]
    kind = spec if isinstance(spec, type) else type(spec)
    if kind is float and type(value) is int:
        return float(value)
    if kind is int and type(value) is float and value.is_integer():
        return int(value)
    if type(value) is kind:
        if kind is float and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value!r}")
        return value
    raise ConfigError(f"{key} must be {kind.__name__}, got {value!r}")


def resolve(cfg: dict) -> dict:
    """The config checked against SCHEMA, with every default filled in."""
    sections = {name: {} for name, spec in SCHEMA.items() if isinstance(spec, dict)}
    c = _value(SCHEMA, {**sections, **cfg}, "", fill=True)
    # defaults that depend on the experiment or on other keys
    init, obs, dyn = c["initial"], c["observables"], c["dynamics"]
    sweep = c["experiment"] == "sweep-L"
    if init["type"] is None:
        init["type"] = "hashed" if sweep else "gaussian"
    if dyn["scheme"] is None:
        dyn["scheme"] = "rk4" if sweep else "strang"
    if init["seed"] is None:
        init["seed"] = c["seed"]
    if obs["centers"] is None:
        obs["centers"] = [[0] * c["lattice"]["d"]]
    n_samples = c["sampling"]["n_samples"]
    if c["experiment"] in ("sample-gaussian", "sample-gibbs") and n_samples < 2:
        raise ConfigError(f"sampling.n_samples must be at least 2, got {n_samples}")
    return c


# ---------------------------------------------------------------------------
# builders


def _load_file(loader, path, key: str):
    try:
        return loader(path)
    except OSError as err:
        raise ConfigError(f"cannot read {key} {path!r}: {err.strerror or err}")


def build_shape(c: dict) -> lattice.LatticeShape:
    """The configured box, with every observables.centers site checked
    against it, whether or not the experiment reads the centers."""
    shape = lattice.LatticeShape(**c["lattice"])
    for center in c["observables"]["centers"]:
        try:
            shape.require_site(center)
        except lattice.InvalidSiteError as err:
            raise ConfigError(f"observables.centers: {err}")
    return shape


def build_potential(c: dict) -> hopping.HoppingPotential:
    kernel, d = c["kernel"], c["lattice"]["d"]
    if kernel["file"] is not None:
        return _load_file(hopping.load_potential, kernel["file"], "kernel.file")
    if kernel["type"] == "standard":
        return hopping.standard_laplacian(d)
    if kernel["type"] == "nearest-neighbor":
        return hopping.nearest_neighbor_laplacian(d)
    if kernel["type"] == "zero":
        return hopping.zero_potential(d, kernel["range"])
    raise ConfigError(f"unknown kernel type {kernel['type']!r}")


def build_generator(c: dict) -> lattice.Generator:
    init = c["initial"]
    if init["type"] == "hashed":
        return lattice.hashed_noise_generator(
            seed=init["seed"], envelope_exponent=init["p"], amplitude=init["amplitude"]
        )
    if init["type"] == "constant":
        return lattice.constant_generator(complex(init["re"], init["im"]))
    if init["type"] == "peak":
        return lattice.point_source(complex(init["amplitude"]))
    raise ConfigError(f"initial data type {init['type']!r} is not a Z^d generator")


def build_initial_field(c: dict, shape: lattice.LatticeShape) -> lattice.FieldL:
    init = c["initial"]
    if init["type"] == "gaussian":
        spec = sampling.GaussianSpec(density=init["sigma2"])
        return sampling.sample_gaussian(spec, shape, init["seed"])
    if init["type"] == "file":
        if init["path"] is None:
            raise ConfigError("initial.type file needs initial.path")
        field = _load_file(lattice.load_field, init["path"], "initial.path")
        if field.shape != shape:
            raise ConfigError("field file does not match the configured lattice")
        return field
    return lattice.truncate(build_generator(c), shape)


def build_scheme(c: dict) -> dynamics.SchemeConfig:
    dyn = c["dynamics"]
    return dynamics.SchemeConfig(scheme=dyn["scheme"], dt=dyn["dt"], t_end=dyn["t_end"],
                                 snapshot_stride=dyn["stride"], lam=dyn["lambda"])


# ---------------------------------------------------------------------------
# artifact writing


class RunWriter:
    """Single writer for one run directory; hashes the bytes it writes.

    The directory is created by the first write, so a run that fails before
    writing anything leaves no directory behind.
    """

    def __init__(self, outdir: Path):
        self.outdir = outdir
        self.artifacts: dict[str, str] = {}

    def _path(self, relpath: str) -> Path:
        path = self.outdir / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        return path

    def write_text(self, relpath: str, text: str) -> None:
        data = text.encode()
        self._path(relpath).write_bytes(data)
        self.artifacts[relpath] = hashlib.sha256(data).hexdigest()

    def write_json(self, relpath: str, payload) -> None:
        self.write_text(relpath, json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n")

    def write_csv(self, relpath: str, header: list[str], rows) -> None:
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
        self.write_text(relpath, "\n".join(lines) + "\n")

    def write_field(self, relpath: str, field: lattice.FieldL) -> None:
        data = lattice.dump_field(field, self._path(relpath))
        self.artifacts[relpath] = hashlib.sha256(data).hexdigest()

    def write_manifest(self, manifest: dict) -> None:
        artifacts = dict(sorted(self.artifacts.items()))
        self.write_json("manifest.json", {**manifest, "artifacts": artifacts})


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


def _configured_run(c: dict):
    """Build the configured kernel, scheme and initial field, and integrate."""
    shape = build_shape(c)
    pot = build_potential(c)
    scheme = build_scheme(c)
    field0 = build_initial_field(c, shape)
    return pot, scheme, field0, dynamics.integrate(field0, pot, scheme)


def _series_artifact(writer, traj, pot, lam, c):
    obs = c["observables"]
    locs = []
    if obs["eps"] is not None:
        locs = [observables.LocalizationParams(eps=obs["eps"], center=tuple(x))
                for x in obs["centers"]]
    header, rows = observables.observable_series(traj, pot, lam, locs, obs["c_const"])
    writer.write_csv("series.csv", header, rows)
    return header, rows


def _dump_fields(writer, c, stem, fields):
    if c["dump_fields"]:
        for j, field in enumerate(fields):
            writer.write_field(f"fields/{stem}_{j:06d}.txt", field)


def run_simulate(c: dict, writer: RunWriter) -> tuple[dict, dict]:
    pot, scheme, field0, traj = _configured_run(c)
    _series_artifact(writer, traj, pot, scheme.lam, c)
    _dump_fields(writer, c, "snapshot", traj.snapshots)
    summary = {
        "snapshots": len(traj),
        "t_end": float(traj.times[-1]),
        "kernel": pot.fingerprint(),
        "final_particle_number": observables.particle_number(traj.final),
    }
    return summary, {}


def run_conserve(c: dict, writer: RunWriter) -> tuple[dict, dict]:
    pot, scheme, field0, traj = _configured_run(c)
    header, rows = _series_artifact(writer, traj, pot, scheme.lam, c)

    table = np.array(rows)
    n_series = table[:, header.index("N_L")]
    h_series = table[:, header.index("H_L")]
    n0 = n_series[0]
    n_drift = float(np.max(np.abs(n_series - n0)) / n0) if n0 > 0 else 0.0
    h_drift = float(np.max(np.abs(h_series - h_series[0])))

    cons = c["conserve"]
    n_tol = cons["n_tol"]
    checks = {"particle_number_conserved": n_drift <= n_tol}
    if cons["h_tol"] is not None:
        checks["energy_drift_bounded"] = h_drift <= cons["h_tol"]

    summary = {"n_drift": n_drift, "h_drift": h_drift, "n_tol": n_tol,
               "kernel": pot.fingerprint()}
    if np.all(pot.coeffs == 0.0):
        err = 0.0
        rate = -1j * scheme.lam * np.abs(field0.values) ** 2
        for j, block in traj.blocks():
            t = np.expand_dims(traj.times[j:j + len(block)], traj.shape.site_axes)
            exact = np.exp(rate * t) * field0.values
            err = max(err, float(np.max(np.abs(block - exact))))
        checks["onsite_exact_solution"] = err <= cons["onsite_tol"]
        summary["onsite_error"] = err
    return summary, checks


def run_bound_check(c: dict, writer: RunWriter) -> tuple[dict, dict]:
    pot, scheme, field0, traj = _configured_run(c)

    obs = c["observables"]
    eps = 0.1 if obs["eps"] is None else obs["eps"]  # bound-check's own default
    c_const = obs["c_const"]

    _series_artifact(writer, traj, pot, scheme.lam, c)
    checks = {}
    summary = {"eps": eps, "c_const": c_const, "kernel": pot.fingerprint()}
    worst = 0.0
    for center in map(tuple, obs["centers"]):
        rep = observables.growth_bound_report(traj, pot, eps, center, c_const)
        checks[f"growth_bound_x{'_'.join(map(str, center))}"] = rep.passed
        worst = max(worst, float(np.max(rep.ratios)))
    summary["max_growth_ratio"] = worst

    if obs["weight"] is not None:
        spec = observables.WeightSpec(**obs["weight"])
        rep = observables.weighted_bound_check(traj, pot, eps, spec, c_const)
        checks["weighted_bound"] = rep.passed
        summary["weighted_prefactor"] = rep.prefactor
        summary["max_weighted_ratio"] = float(np.max(rep.ratios))
    return summary, checks


def run_sweep(c: dict, writer: RunWriter) -> tuple[dict, dict]:
    sweep = c["sweep"]
    if sweep["L_list"] is None:
        raise ConfigError("sweep-L needs sweep.L_list")
    config = convergence.SweepConfig(
        generator=build_generator(c),
        L_list=tuple(sweep["L_list"]),
        k=sweep["k"],
        scheme=build_scheme(c),
    )
    pot = build_potential(c)
    report = convergence.run_box_sweep(config, pot)
    writer.write_json("sweep.json", report.as_dict())
    writer.write_csv("sweep.csv", ["L", "delta_bar"], [[e.L, e.delta_bar] for e in report.entries])

    checks = {}
    if sweep["check_decreasing"]:
        deltas = [e.delta_bar for e in report.entries if e.error is None]
        checks["delta_bar_strictly_decreasing"] = all(
            b < a for a, b in zip(deltas, deltas[1:])
        ) and not report.flagged
    if sweep["L0_max"] is not None:
        checks["threshold_within_bound"] = (
            report.fit_L0 is not None and report.fit_L0 <= sweep["L0_max"]
        )
    summary = {
        "fit": {"A": report.fit_A, "L0": report.fit_L0},
        "flagged": report.flagged,
        "kernel": pot.fingerprint(),
    }
    return summary, checks


def run_uniqueness(c: dict, writer: RunWriter) -> tuple[dict, dict]:
    shape = build_shape(c)
    pot = build_potential(c)
    uniq = c["uniqueness"]
    dt_list = uniq["dt_list"]
    if len(dt_list) < 2:
        raise ConfigError("uniqueness needs at least two dt values")
    if len(set(dt_list)) != len(dt_list):
        raise ConfigError(f"uniqueness.dt_list has repeated entries: {dt_list}")
    if any(dt <= 0 for dt in dt_list):
        raise ConfigError(f"uniqueness.dt_list entries must be positive, got {dt_list}")
    base = build_scheme(c)
    if base.t_end <= 0:
        raise ConfigError("uniqueness needs dynamics.t_end > 0")
    field0 = build_initial_field(c, shape)

    rows = []
    for dt in dt_list:
        stride = max(1, int(round(base.snapshot_stride * base.dt / dt)))
        steps = int(round(base.t_end / dt))
        if steps % stride != 0:
            stride = 1
        kw = dict(dt=dt, t_end=base.t_end, snapshot_stride=stride, lam=base.lam)
        ta = dynamics.integrate(field0, pot, dynamics.SchemeConfig(scheme="strang", **kw))
        tb = dynamics.integrate(field0, pot, dynamics.SchemeConfig(scheme="rk4", **kw))
        rows.append([dt, convergence.scheme_disagreement(ta, tb, uniq["n"], pot.range)])
    writer.write_csv("uniqueness.csv", ["dt", "delta"], rows)

    logs = np.log([r[1] for r in rows])
    order = float(np.polyfit(np.log([r[0] for r in rows]), logs, 1)[0])
    checks = {"refinement_order": order >= uniq["min_order"]}
    summary = {
        "fitted_order": order,
        "deltas": {repr(r[0]): r[1] for r in rows},
        "kernel": pot.fingerprint(),
    }
    return summary, checks


def run_sample_gaussian(c: dict, writer: RunWriter) -> tuple[dict, dict]:
    shape = build_shape(c)
    samp = c["sampling"]
    spec = sampling.GaussianSpec(density=samp["sigma2"])
    seeds = [int(s.generate_state(1)[0])
             for s in np.random.SeedSequence(c["seed"]).spawn(samp["n_samples"])]
    samples = [sampling.sample_gaussian(spec, shape, s) for s in seeds]
    return _stats_payload(samples, writer, c), {}


def run_sample_gibbs(c: dict, writer: RunWriter) -> tuple[dict, dict]:
    shape = build_shape(c)
    pot = build_potential(c)
    samp = c["sampling"]
    spec = sampling.GibbsSpec(
        beta=samp["beta"], mu=samp["mu"], lam=samp["lambda"],
        proposal_sigma=samp["proposal_sigma"], burn_in=samp["burn_in"], thinning=samp["thinning"],
    )
    summary = {}
    if samp["tune_sigma"]:
        tuned = sampling.tune_proposal_sigma(spec, pot, shape, c["seed"])
        spec = dataclasses.replace(spec, proposal_sigma=tuned)
        summary["tuned_sigma"] = tuned
    chain = sampling.run_gibbs_chain(spec, pot, shape, c["seed"], samp["n_samples"])
    summary.update(_stats_payload(chain.samples, writer, c))
    summary["acceptance"] = sampling.acceptance_fraction(chain)
    summary["kernel"] = pot.fingerprint()
    return summary, {}


def _stats_payload(samples, writer, c) -> dict:
    xi, a = c["sampling"]["xi"], c["sampling"]["a"]
    stats = sampling.site_moments(samples, xi)
    if not (a > 0):
        raise ConfigError(f"sampling.a must be > 0, got {a}")
    violations = sampling.power_law_violations(samples, a)
    payload = {
        "moment_order": xi,
        "per_site_moments": stats.per_site_moments,
        "max_moment": stats.max_moment,
        "violations_by_radius": violations.violations_by_radius,
        "sites_by_radius": violations.sites_by_radius,
    }
    writer.write_json("stats.json", payload)
    _dump_fields(writer, c, "sample", samples)
    return {"max_moment": stats.max_moment, "n_samples": len(samples)}


def run_stats(c: dict, writer: RunWriter) -> tuple[dict, dict]:
    fields_dir = c["stats"]["fields_dir"]
    if not fields_dir:
        raise ConfigError("stats needs stats.fields_dir")
    paths = sorted(Path(fields_dir).glob("*.txt"))
    if len(paths) < 2:
        raise ConfigError(f"need at least 2 field dumps in {fields_dir}")
    samples = [lattice.load_field(p) for p in paths]
    return _stats_payload(samples, writer, c), {}


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
    parser.add_argument("--experiment", default=None, help=f"one of {', '.join(RUNNERS)}")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None, help="output directory")
    args, extra = parser.parse_known_args(argv)

    start = time.perf_counter()
    try:
        cfg = load_config(args.config, parse_overrides(extra))
        for key in ("experiment", "seed", "out"):
            if getattr(args, key) is not None:
                cfg[key] = getattr(args, key)

        c = resolve(cfg)
        if c["experiment"] not in RUNNERS:
            raise ConfigError(
                f"experiment must be one of {', '.join(RUNNERS)}; got {c['experiment']!r}"
            )
        if not c["out"]:
            raise ConfigError("an output directory is required (--out or config 'out')")
        cfg["seed"] = c["seed"]

        writer = RunWriter(Path(c["out"]))
        summary, checks = RUNNERS[c["experiment"]](c, writer)
    except dynamics.BlowUpError as err:
        print(f"blow-up: {err}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as err:
        # invalid sites, malformed data/kernels, measure and grid problems
        # are all configuration-level failures
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except MemoryError as err:
        # a lattice, kernel or field header too large to allocate
        print(f"configuration error: not enough memory: {err}", file=sys.stderr)
        return 2

    manifest = {
        "experiment": c["experiment"],
        "config": cfg,
        "version": __version__,
        "seed": c["seed"],
        "wall_clock_s": time.perf_counter() - start,
        "results": summary,
        "checks": {k: bool(v) for k, v in checks.items()},
    }
    writer.write_manifest(manifest)

    for name, ok in sorted(checks.items()):
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    return 0 if all(checks.values()) else 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
