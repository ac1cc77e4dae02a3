#!/usr/bin/env python3
"""Cost of one Metropolis proposal of the Gibbs sampler, on a fixed grid.

For every (d, L) below, times `run_gibbs_chain` with the standard
Laplacian at the acceptance criteria's equilibrium parameters (beta = 1,
mu = -1, lam = 1, proposal sigma 0.7, no burn-in, a sample kept every 10
sweeps) and prints the best of 5 runs as microseconds per proposal, the
cost of keeping the samples included, and, from one more run traced by
tracemalloc, the bytes per retained sample that the returned chain holds
(B/sample).  Each run makes about the same number of proposals.  The rows
are criterion 10's one-site chain (d = 1, L = 0), criterion 11's rings
(d = 1, L = 64, 128, 256), and a square and a cube.  Below them, the best
of 5 calls of `tune_proposal_sigma` in milliseconds, at L = 0 and L = 8 in
d = 1.  The whole table takes about 35 s on a shared 2-core Xeon host, the
traced runs most of it.  To compare two checkouts, run it in each:

    PYTHONPATH=src python3 scripts/gibbs_cost.py
"""

import os

# one BLAS/OpenMP thread, as in bench/run.py; set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402
import tracemalloc  # noqa: E402

from dnls.hopping import standard_laplacian  # noqa: E402
from dnls.lattice import LatticeShape  # noqa: E402
from dnls.sampling import GibbsSpec, run_gibbs_chain, tune_proposal_sigma  # noqa: E402

GRID = ((1, 0), (1, 64), (1, 128), (1, 256), (2, 8), (3, 4))
TUNE_GRID = ((1, 0), (1, 8))
# proposals per timed run; the sample count is this over volume * THINNING,
# rounded up
PROPOSALS = 200_000
THINNING = 10
REPEATS = 5
SPEC = GibbsSpec(beta=1.0, mu=-1.0, lam=1.0, proposal_sigma=0.7, burn_in=0, thinning=THINNING)
SEED = 7


def best_seconds(run) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def held_bytes(run) -> int:
    """Traced bytes held by the result of run(), measured while it lives."""
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    result = run()
    held = tracemalloc.get_traced_memory()[0] - before
    tracemalloc.stop()
    del result
    return held


def main() -> None:
    print(f"{'d':>2} {'L':>4} {'sites':>6} {'samples':>7} {'proposals':>9}  {'us/proposal':>11}"
          f"  {'B/sample':>8}")
    for d, L in GRID:
        shape = LatticeShape(d=d, L=L)
        pot = standard_laplacian(d)
        n_samples = -(-PROPOSALS // (shape.volume * THINNING))
        proposals = n_samples * THINNING * shape.volume
        def run():
            return run_gibbs_chain(SPEC, pot, shape, SEED, n_samples)

        seconds = best_seconds(run)
        held = held_bytes(run) / n_samples
        print(f"{d:>2} {L:>4} {shape.volume:>6} {n_samples:>7} {proposals:>9}  "
              f"{seconds / proposals * 1e6:>11.3f}  {held:>8.0f}")
    print(f"{'d':>2} {'L':>4} {'sites':>6}  {'tune_proposal_sigma ms':>22}")
    for d, L in TUNE_GRID:
        shape = LatticeShape(d=d, L=L)
        pot = standard_laplacian(d)
        seconds = best_seconds(lambda: tune_proposal_sigma(SPEC, pot, shape, SEED))
        print(f"{d:>2} {L:>4} {shape.volume:>6}  {seconds * 1e3:>22.2f}")


if __name__ == "__main__":
    main()
