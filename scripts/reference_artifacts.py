#!/usr/bin/env python3
"""Content hashes of the CLI artefacts of a fixed set of reference configs.

Runs every reference config below through `dnls.cli.main` inside a fresh
temporary directory and prints one `run relpath sha256` line per artefact,
manifests included.  Wall-clock fields are left out of the hash (the
manifest's `wall_clock_s` and each sweep entry's `runtime`); so is the
manifest's `artifacts` map, because it records the raw hash of `sweep.json`
and every artefact is hashed on its own line anyway.  Everything else is
deterministic, so two checkouts that print the same lines produce
byte-identical artefacts.

Usage, comparing a refactor against its parent:

    PYTHONPATH=src python3 scripts/reference_artifacts.py > after.txt
    PYTHONPATH=<parent>/src python3 scripts/reference_artifacts.py > before.txt
    diff before.txt after.txt
"""

import os

# one BLAS/OpenMP thread, as in bench/run.py; set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from dnls import cli  # noqa: E402

# (run label, experiment, flags); the label is also the relative output
# directory, and runs may read artefacts of earlier runs
REFERENCE_RUNS = (
    ("simulate-d2", "simulate", {
        "lattice.d": 2, "lattice.L": 6, "dynamics.dt": 0.01, "dynamics.t_end": 0.2,
        "dynamics.stride": 5, "observables.eps": 0.2,
        "observables.centers": [[0, 0], [2, -1]], "dump_fields": True,
    }),
    ("simulate-d3", "simulate", {
        "lattice.d": 3, "lattice.L": 2, "kernel.type": "nearest-neighbor",
        "initial.type": "hashed", "initial.p": 0.3, "dynamics.scheme": "rk4",
        "dynamics.dt": 0.01, "dynamics.t_end": 0.1, "dynamics.stride": 5,
    }),
    ("conserve-zero", "conserve", {
        "lattice.L": 8, "kernel.type": "zero", "dynamics.dt": 0.01, "dynamics.t_end": 0.5,
        "dynamics.stride": 5,
    }),
    ("conserve-rk4", "conserve", {
        "lattice.L": 8, "dynamics.scheme": "rk4", "dynamics.dt": 0.01, "dynamics.t_end": 0.5,
        "dynamics.stride": 5, "conserve.n_tol": 1e-6, "conserve.h_tol": 1e-4,
        "observables.eps": 0.1,
    }),
    ("bound-check-power", "bound-check", {
        "lattice.d": 2, "lattice.L": 4, "dynamics.dt": 0.01, "dynamics.t_end": 0.2,
        "dynamics.stride": 10, "observables.eps": 0.1,
        "observables.weight": {"kind": "power", "parameter": 1.0},
    }),
    ("bound-check-exponential", "bound-check", {
        "lattice.L": 10, "dynamics.dt": 0.01, "dynamics.t_end": 0.2, "dynamics.stride": 10,
        "observables.eps": 0.1, "observables.centers": [[0], [3]],
        "observables.weight": {"kind": "exponential", "parameter": 0.2},
    }),
    ("sweep-L", "sweep-L", {
        "initial.type": "hashed", "initial.p": 0.3, "dynamics.scheme": "rk4",
        "dynamics.dt": 0.01, "dynamics.t_end": 0.2, "dynamics.stride": 1,
        "sweep.L_list": [4, 5, 6, 7, 8], "sweep.k": 2,
    }),
    ("uniqueness", "uniqueness", {
        "lattice.L": 8, "dynamics.t_end": 0.2, "dynamics.stride": 10,
        "uniqueness.dt_list": [0.004, 0.002, 0.001],
    }),
    ("sample-gaussian", "sample-gaussian", {
        "lattice.L": 8, "sampling.n_samples": 20, "dump_fields": True,
    }),
    ("sample-gibbs", "sample-gibbs", {
        "lattice.L": 3, "sampling.n_samples": 10, "sampling.burn_in": 20,
        "sampling.thinning": 2, "sampling.proposal_sigma": 0.7, "sampling.tune_sigma": True,
    }),
    ("stats", "stats", {"stats.fields_dir": "sample-gaussian/fields"}),
    # 35,937 sites (562 KiB per complex array): above numpy's 256 KiB
    # temporary-elision threshold, where a reordered complex product changes
    # the last bit; the series reads N, H and the local quantities per step
    *((f"simulate-d3-L16-{scheme}", "simulate", {
        "lattice.d": 3, "lattice.L": 16, "dynamics.scheme": scheme, "dynamics.dt": 0.01,
        "dynamics.t_end": 0.03, "dynamics.stride": 1, "observables.eps": 0.2,
        "observables.centers": [[0, 0, 0], [5, -3, 16]],
    }) for scheme in ("strang", "rk4")),
    # the bound prefactor in d=3, and the Metropolis neighbour table in d=2
    ("bound-check-d3", "bound-check", {
        "lattice.d": 3, "lattice.L": 3, "dynamics.dt": 0.01, "dynamics.t_end": 0.1,
        "dynamics.stride": 5, "observables.eps": 0.1,
        "observables.weight": {"kind": "power", "parameter": 1.5},
    }),
    ("sample-gibbs-d2", "sample-gibbs", {
        "lattice.d": 2, "lattice.L": 2, "kernel.type": "nearest-neighbor",
        "sampling.n_samples": 6, "sampling.burn_in": 10, "sampling.thinning": 2,
        "sampling.proposal_sigma": 0.7,
    }),
    # trajectories that span two blocks of stacked snapshots: 1001 of 17
    # sites (963 per block), and 201 of 121 sites (135 per block) for the
    # zero kernel's exact-solution check in d=2
    ("bound-check-blocks", "bound-check", {
        "lattice.L": 8, "dynamics.dt": 1e-3, "dynamics.t_end": 1.0, "dynamics.stride": 1,
        "observables.eps": 0.1, "observables.centers": [[0], [-5]],
        "observables.weight": {"kind": "exponential", "parameter": 0.2},
    }),
    ("conserve-zero-d2", "conserve", {
        "lattice.d": 2, "lattice.L": 5, "kernel.type": "zero", "dynamics.dt": 0.01,
        "dynamics.t_end": 2.0, "dynamics.stride": 1,
    }),
    # the single-site chain of criterion 10, whose samples are dumped and
    # read back by `stats`
    ("sample-gibbs-L0", "sample-gibbs", {
        "lattice.L": 0, "sampling.n_samples": 50, "sampling.proposal_sigma": 0.7,
        "dump_fields": True,
    }),
    ("stats-gibbs-L0", "stats", {"stats.fields_dir": "sample-gibbs-L0/fields"}),
    # a ring of 129 sites, whose two 64-site colour classes run the numpy
    # kernel of the sweep and whose one-site class runs the Python loop
    ("sample-gibbs-L64", "sample-gibbs", {
        "lattice.L": 64, "sampling.n_samples": 5, "sampling.proposal_sigma": 0.7,
        "dump_fields": True,
    }),
    # the two other Z^d generators: a point source at the origin in d=2, and
    # a constant field, whose zero-kernel evolution is checked exactly
    ("simulate-peak-d2", "simulate", {
        "lattice.d": 2, "lattice.L": 4, "initial.type": "peak", "initial.amplitude": 1.5,
        "dynamics.dt": 0.01, "dynamics.t_end": 0.2, "dynamics.stride": 5,
        "observables.eps": 0.2, "observables.centers": [[0, 0], [1, -2]],
        "dump_fields": True,
    }),
    ("conserve-constant", "conserve", {
        "lattice.L": 6, "kernel.type": "zero", "initial.type": "constant",
        "initial.re": 0.6, "initial.im": -0.8, "dynamics.dt": 0.01, "dynamics.t_end": 0.5,
        "dynamics.stride": 5,
    }),
)

SEED = 7


def _argv(label: str, experiment: str, flags: dict) -> list[str]:
    argv = ["--experiment", experiment, "--out", label, "--seed", str(SEED)]
    for key, value in flags.items():
        argv += [f"--{key}", json.dumps(value)]
    return argv


def _normalized(path: Path) -> bytes:
    """File bytes, with wall-clock fields dropped from manifests and sweeps."""
    if path.name == "manifest.json":
        payload = json.loads(path.read_text())
        del payload["wall_clock_s"]
        payload["artifacts"] = sorted(payload["artifacts"])
    elif path.name == "sweep.json":
        payload = json.loads(path.read_text())
        for entry in payload["entries"]:
            del entry["runtime"]
    else:
        return path.read_bytes()
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for label, experiment, flags in REFERENCE_RUNS:
                log = io.StringIO()
                with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                    code = cli.main(_argv(label, experiment, flags))
                if code not in (0, 1):
                    print(f"{label}: exit {code}\n{log.getvalue()}", file=sys.stderr)
                    return code
                outdir = Path(label)
                for path in sorted(p for p in outdir.rglob("*") if p.is_file()):
                    digest = hashlib.sha256(_normalized(path)).hexdigest()
                    print(f"{label} {path.relative_to(outdir).as_posix()} {digest}")
        finally:
            os.chdir(cwd)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
