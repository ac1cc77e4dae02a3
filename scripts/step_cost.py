#!/usr/bin/env python3
"""Cost of one Strang and one RK4 step per lattice site, on a fixed grid,
and of one stencil apply.

For every (d, L) below, times `integrate` on Gaussian data with the
standard Laplacian (lam = 1, dt = 1e-3) and prints the best of 5 runs as
microseconds per site-step, with the per-step time beside it.  Each d has
boxes on both sides of `dynamics._DENSE_SITES`, and the `flow` column names
the linear flow Strang runs there, with the `taps` it keeps: at most that
many sites, from its taps in real space, as `windows` (a gather and one
product with the kept taps) or `circulant` (one product with their
circulant); above it `fourier`, the Fourier passes.  Strang runs
at snapshot strides 1 and 10: inside a snapshot block it merges each step's
closing half rotation with the next step's opening one, so at stride 1
every step pays both half rotations and the stride-10 column shows what
merging saves.  RK4 runs at strides 1 and 10 too: at stride 1 each step is
one stepper call, as in the box sweep of acceptance criterion 7 (which
steps all its boxes as one packed state), and stride 10 advances whole
blocks through the stepper's own arrays.  The step
count per run shrinks with the volume, so that each run does about the same
work; the whole table takes 30-45 s on a shared 2-core Xeon host.

A second table times the hopping stencil alone, with the standard
Laplacian, at the sizes where the RK4 step and the energies spend most of
their time: microseconds per apply of a buffered stencil (`Stencil.buffered`,
bound once, as the RK4 stepper applies it) and per one-shot
`convolve_values` call, which looks its layout up in the memo of
`hopping.stencil` and binds its work arrays on every call, as `hamiltonian`
and the flux do; it takes about 5 s more.

A host whose speed swings in phases moves the raw columns with the phase,
not with the code, so each row also prints its host speed factor, the
mean of bench/speed.py's `probe_factor()` just before and just after the
row (1.0 at the benchmark's reference speed), and each per-step time
divided by it, which is comparable across runs and checkouts.  To compare
two checkouts, run it in each:

    PYTHONPATH=src python3 scripts/step_cost.py
"""

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from speed import probe_factor  # noqa: E402

from dnls.dynamics import (_DENSE_SITES, SchemeConfig, _linear_taps, _windowed,  # noqa: E402
                           integrate)
from dnls.hopping import convolve_values, standard_laplacian, stencil  # noqa: E402
from dnls.lattice import LatticeShape  # noqa: E402
from dnls.sampling import GaussianSpec, sample_gaussian  # noqa: E402

GRID = ((1, 32), (1, 64), (1, 99), (1, 100), (1, 1000), (2, 6), (2, 7), (2, 8), (2, 32),
        (2, 64), (3, 2), (3, 3), (3, 4), (3, 8), (3, 16))
# site-steps per timed run; the step count is this over the volume, rounded
# up to whole snapshot strides
SITE_STEPS = 400_000
STRIDE = 10
# (scheme, snapshot stride) per column pair
RUNS = (("strang", 1), ("strang", STRIDE), ("rk4", 1), ("rk4", STRIDE))
DT = 1e-3
REPEATS = 5
STENCIL_GRID = ((1, 64), (2, 64), (3, 16))
# sites applied per timed stencil run; the call count is this over the volume
STENCIL_SITES = 2_000_000


def best_seconds(run) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def repeated(call, values, calls):
    def run():
        for _ in range(calls):
            call(values)
    return run


def strang_flow(pot, shape) -> tuple[str, str]:
    """The form of Strang's linear flow on the box and its kept tap count."""
    if shape.volume > _DENSE_SITES:
        return "fourier", "-"
    taps = int(np.count_nonzero(_linear_taps(pot, shape, DT)))
    return ("windows" if _windowed(taps, shape.volume) else "circulant"), str(taps)


def main() -> None:
    print(f"{'d':>2} {'L':>5} {'sites':>6} {'flow':>9} {'taps':>4} {'steps':>6} {'factor':>6}"
          + "".join(f"  {f'{scheme}/{stride} us/site-step':>22} {'us/step':>9} {'scaled':>9}"
                    for scheme, stride in RUNS))
    for d, L in GRID:
        shape = LatticeShape(d=d, L=L)
        pot = standard_laplacian(d)
        field0 = sample_gaussian(GaussianSpec(density=1.0), shape, 0)
        strides = max(1, -(-SITE_STEPS // (shape.volume * STRIDE)))
        steps = strides * STRIDE
        before = probe_factor()
        per_steps = []
        for scheme, stride in RUNS:
            cfg = SchemeConfig(scheme=scheme, dt=DT, t_end=steps * DT,
                               snapshot_stride=stride, lam=1.0)
            per_steps.append(best_seconds(lambda: integrate(field0, pot, cfg)) / steps * 1e6)
        factor = (before + probe_factor()) / 2
        flow, taps = strang_flow(pot, shape)
        print(f"{d:>2} {L:>5} {shape.volume:>6} {flow:>9} {taps:>4} {steps:>6} {factor:>6.2f}"
              + "".join(f"  {t / shape.volume:>22.4f} {t:>9.1f} {t / factor:>9.1f}"
                        for t in per_steps))

    print()
    print(f"{'d':>2} {'L':>5} {'sites':>6} {'calls':>6} {'factor':>6}"
          + "".join(f"  {f'{name} us/call':>26} {'scaled':>9}"
                    for name in ("buffered stencil", "convolve_values")))
    for d, L in STENCIL_GRID:
        shape = LatticeShape(d=d, L=L)
        pot = standard_laplacian(d)
        values = sample_gaussian(GaussianSpec(density=1.0), shape, 0).values
        calls = max(1, STENCIL_SITES // shape.volume)
        before = probe_factor()
        per_call = [best_seconds(repeated(call, values, calls)) / calls * 1e6
                    for call in (stencil(pot, shape).buffered(),
                                 lambda v: convolve_values(pot, shape, v))]
        factor = (before + probe_factor()) / 2
        print(f"{d:>2} {L:>5} {shape.volume:>6} {calls:>6} {factor:>6.2f}"
              + "".join(f"  {t:>26.1f} {t / factor:>9.1f}" for t in per_call))


if __name__ == "__main__":
    main()
