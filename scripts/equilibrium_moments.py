#!/usr/bin/env python3
"""Equilibrium-sample statistics across box sizes.

Draws grand-canonical samples at several L, in dimension --d with the
standard Laplacian, and prints the median of the power-law weighted
supremum plus the site-uniformity diagnostic of the per-site moments.  Stability of the first column in L is the sampling-side
face of the almost-sure power-law growth class.
"""

import os

# one BLAS/OpenMP thread, as in bench/run.py; set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402

from dnls.hopping import standard_laplacian  # noqa: E402
from dnls.lattice import LatticeShape  # noqa: E402
from dnls.sampling import (  # noqa: E402
    GibbsSpec,
    acceptance_fraction,
    median_with_se,
    run_gibbs_chain,
    site_moments,
    site_uniformity_z,
    weighted_sup,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--d", type=int, default=1)
    ap.add_argument("--sizes", type=int, nargs="+", default=[64, 128, 256])
    ap.add_argument("--n-samples", type=int, default=200)
    ap.add_argument("--beta", type=float, default=1.0)
    ap.add_argument("--mu", type=float, default=-1.0)
    ap.add_argument("--lam", type=float, default=1.0)
    ap.add_argument("--exponent", type=float, default=0.45)
    ap.add_argument("--xi", type=float, default=3.5)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    pot = standard_laplacian(args.d)
    spec = GibbsSpec(beta=args.beta, mu=args.mu, lam=args.lam,
                     proposal_sigma=0.7, burn_in=300, thinning=15)

    print(f"{'L':>5}  {'median sup':>11}  {'se':>8}  {'max moment':>11}  "
          f"{'max z':>6}  {'accept':>7}")
    for L in args.sizes:
        chain = run_gibbs_chain(spec, pot, LatticeShape(d=args.d, L=L),
                                args.seed + L, args.n_samples)
        sups = [weighted_sup(s, args.exponent) for s in chain.samples]
        med, se = median_with_se(sups)
        stats = site_moments(list(chain.samples), args.xi)
        print(f"{L:>5}  {med:>11.4f}  {se:>8.4f}  {stats.max_moment:>11.4f}  "
              f"{site_uniformity_z(stats):>6.2f}  {acceptance_fraction(chain):>7.3f}")


if __name__ == "__main__":
    main()
