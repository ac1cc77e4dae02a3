#!/usr/bin/env python3
"""Step-size refinement table for the two conserved quantities.

Runs the same Gaussian initial data at several dt and prints the maximal
particle-number and energy drifts; the energy column should shrink by ~4x
per halving, the particle-number column should stay at rounding level.
"""

import os

# one BLAS/OpenMP thread, as in bench/run.py; set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402

import numpy as np  # noqa: E402

from dnls.dynamics import SchemeConfig, integrate  # noqa: E402
from dnls.hopping import standard_laplacian  # noqa: E402
from dnls.lattice import LatticeShape  # noqa: E402
from dnls.observables import observable_series  # noqa: E402
from dnls.sampling import GaussianSpec, sample_gaussian  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--L", type=int, default=32)
    ap.add_argument("--t-end", type=float, default=5.0)
    ap.add_argument("--lam", type=float, default=1.0)
    ap.add_argument("--sigma2", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    shape = LatticeShape(d=1, L=args.L)
    pot = standard_laplacian(1)
    field0 = sample_gaussian(GaussianSpec(density=args.sigma2), shape, args.seed)

    print(f"# L={args.L} T={args.t_end} lam={args.lam} sigma2={args.sigma2} seed={args.seed}")
    print(f"{'dt':>10}  {'N drift (rel)':>14}  {'H drift (abs)':>14}")
    for dt in (4e-3, 2e-3, 1e-3, 5e-4):
        stride = int(round(0.1 / dt))
        cfg = SchemeConfig(scheme="strang", dt=dt, t_end=args.t_end,
                           snapshot_stride=stride, lam=args.lam)
        traj = integrate(field0, pot, cfg)
        _, rows = observable_series(traj, pot, args.lam)
        n, h = np.array(rows)[:, 1:3].T
        n_drift = np.max(np.abs(n - n[0])) / n[0]
        h_drift = np.max(np.abs(h - h[0]))
        print(f"{dt:>10.1e}  {n_drift:>14.3e}  {h_drift:>14.3e}")


if __name__ == "__main__":
    main()
