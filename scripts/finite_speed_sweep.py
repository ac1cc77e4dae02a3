#!/usr/bin/env python3
"""Box-size sweep: window disagreement between consecutive periodizations.

Prints the per-size disagreement against the 2^-L reference line, the
fitted decay parameters and the runtime of the one packed integration that
runs every size.
"""

import os

# one BLAS/OpenMP thread, as in bench/run.py; set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402

from dnls.convergence import SweepConfig, run_box_sweep  # noqa: E402
from dnls.dynamics import SchemeConfig  # noqa: E402
from dnls.hopping import standard_laplacian  # noqa: E402
from dnls.lattice import hashed_noise_generator  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--L-min", type=int, default=8)
    ap.add_argument("--L-max", type=int, default=40)
    ap.add_argument("--L-step", type=int, default=4)
    ap.add_argument("--k", type=int, default=4)
    ap.add_argument("--t-end", type=float, default=1.0)
    ap.add_argument("--dt", type=float, default=1e-3)
    ap.add_argument("--p", type=float, default=0.45)
    ap.add_argument("--seed", type=int, default=2024)
    args = ap.parse_args()

    gen = hashed_noise_generator(seed=args.seed, envelope_exponent=args.p)
    scheme = SchemeConfig(scheme="rk4", dt=args.dt, t_end=args.t_end,
                          snapshot_stride=1, lam=1.0)
    config = SweepConfig(
        generator=gen,
        L_list=tuple(range(args.L_min, args.L_max + 1, args.L_step)),
        k=args.k,
        scheme=scheme,
    )
    report = run_box_sweep(config, standard_laplacian(1))

    print(f"{'L':>4}  {'delta_bar':>12}  {'2^-L':>10}  {'drift':>8}")
    for e in report.entries:
        print(f"{e.L:>4}  {e.delta_bar:>12.3e}  {2.0 ** -e.L:>10.3e}  {e.drift:>8.3f}")
    print(f"fit: A={report.fit_A}  L0={report.fit_L0}  flagged={report.flagged}")
    print(f"runtime: {report.entries[0].runtime:.2f}s")


if __name__ == "__main__":
    main()
