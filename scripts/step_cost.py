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
circulant); above it the Fourier passes, `fourier` at the box side or, with
the FFT length, `fourier/144` where the step pads to a smooth length
(`dynamics._fourier_length`).  Strang runs
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

A third table times `observables.weighted_bound_prefactor`, the bound
check's weighted-norm constant, in microseconds per call at the bench's
bound-check boxes (d = 2 L = 32, d = 3 L = 8) and at d = 1 L = 64, for a
power and an exponential weight at eps = 0.1; it takes a few seconds.

A fourth table times acceptance criterion 7's box sweep: its 18 boxes in
d = 1 (L = 8, 9, 12, 13, ..., 40, 41), standard Laplacian, dt = 1e-3,
stepped as one packed RK4 state by `integrate_packed` at snapshot stride 1
with a no-op callback, in microseconds per step of all 18 boxes.

A host whose speed swings in phases moves the raw columns with the phase,
not with the code, so each row also prints its host speed factor and each
per-step time divided by it, which is comparable across runs and checkouts.
The factor is bench/speed.py's `Speedometer`, sampling the probe every 20 ms
throughout, over the span of the row's timed calls (1.0 at the benchmark's
reference speed), as bench/run.py takes it for each task.  BLAS and OpenMP
are pinned to one thread, as in bench/run.py.  To compare two checkouts,
run it in each:

    PYTHONPATH=src python3 scripts/step_cost.py
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import sys  # noqa: E402
import time  # noqa: E402
from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from speed import Speedometer  # noqa: E402

from dnls.dynamics import (_DENSE_SITES, _WINDOW_RATIO, SchemeConfig,  # noqa: E402
                           _fourier_length, _linear_taps, integrate, integrate_packed)
from dnls.hopping import convolve_values, standard_laplacian, stencil  # noqa: E402
from dnls.lattice import LatticeShape  # noqa: E402
from dnls.observables import WeightSpec, weighted_bound_prefactor  # noqa: E402
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
PREFACTOR_GRID = ((2, 32), (3, 8), (1, 64))
PREFACTOR_WEIGHTS = (WeightSpec("power", 1.0), WeightSpec("exponential", 0.5))
PREFACTOR_EPS = 0.1
PREFACTOR_CALLS = 10
# acceptance criterion 7's box sizes: each L of range(8, 41, 4) and L + 1
SWEEP_SIZES = tuple(L + e for L in range(8, 41, 4) for e in (0, 1))


def timed_row(meter: Speedometer, runs) -> tuple[list[float], float]:
    """The best-of-REPEATS seconds of each run, and the host speed factor
    over the span of all of them."""
    start = time.perf_counter()
    seconds = [best_seconds(run) for run in runs]
    return seconds, meter.factor(start, time.perf_counter())


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
        m, taps = _fourier_length(pot, shape, DT)
        if taps is None:
            return "fourier", "-"
        return f"fourier/{m}", str(np.count_nonzero(taps))
    taps = int(np.count_nonzero(_linear_taps(pot, shape, DT)))
    return ("windows" if _WINDOW_RATIO * taps <= shape.volume else "circulant"), str(taps)


def step_table(meter: Speedometer) -> None:
    print(f"{'d':>2} {'L':>5} {'sites':>6} {'flow':>12} {'taps':>4} {'steps':>6} {'factor':>6}"
          + "".join(f"  {f'{scheme}/{stride} us/site-step':>22} {'us/step':>9} {'scaled':>9}"
                    for scheme, stride in RUNS))
    for d, L in GRID:
        shape = LatticeShape(d=d, L=L)
        pot = standard_laplacian(d)
        field0 = sample_gaussian(GaussianSpec(density=1.0), shape, 0)
        strides = max(1, -(-SITE_STEPS // (shape.volume * STRIDE)))
        steps = strides * STRIDE
        seconds, factor = timed_row(meter, [
            partial(integrate, field0, pot, SchemeConfig(scheme=scheme, dt=DT, t_end=steps * DT,
                                                         snapshot_stride=stride, lam=1.0))
            for scheme, stride in RUNS])
        per_steps = [t / steps * 1e6 for t in seconds]
        flow, taps = strang_flow(pot, shape)
        print(f"{d:>2} {L:>5} {shape.volume:>6} {flow:>12} {taps:>4} {steps:>6} {factor:>6.2f}"
              + "".join(f"  {t / shape.volume:>22.4f} {t:>9.1f} {t / factor:>9.1f}"
                        for t in per_steps))


def stencil_table(meter: Speedometer) -> None:
    print(f"{'d':>2} {'L':>5} {'sites':>6} {'calls':>6} {'factor':>6}"
          + "".join(f"  {f'{name} us/call':>26} {'scaled':>9}"
                    for name in ("buffered stencil", "convolve_values")))
    for d, L in STENCIL_GRID:
        shape = LatticeShape(d=d, L=L)
        pot = standard_laplacian(d)
        values = sample_gaussian(GaussianSpec(density=1.0), shape, 0).values
        calls = max(1, STENCIL_SITES // shape.volume)
        seconds, factor = timed_row(meter, [
            repeated(call, values, calls) for call in (
                stencil(pot, shape).buffered(), lambda v: convolve_values(pot, shape, v))])
        per_call = [t / calls * 1e6 for t in seconds]
        print(f"{d:>2} {L:>5} {shape.volume:>6} {calls:>6} {factor:>6.2f}"
              + "".join(f"  {t:>26.1f} {t / factor:>9.1f}" for t in per_call))


def prefactor_table(meter: Speedometer) -> None:
    print(f"{'d':>2} {'L':>5} {'sites':>6} {'calls':>6} {'factor':>6}"
          + "".join(f"  {f'prefactor/{spec.kind} us/call':>32} {'scaled':>9}"
                    for spec in PREFACTOR_WEIGHTS))
    for d, L in PREFACTOR_GRID:
        shape = LatticeShape(d=d, L=L)
        seconds, factor = timed_row(meter, [
            repeated(partial(weighted_bound_prefactor, shape, PREFACTOR_EPS), spec,
                     PREFACTOR_CALLS) for spec in PREFACTOR_WEIGHTS])
        per_call = [t / PREFACTOR_CALLS * 1e6 for t in seconds]
        print(f"{d:>2} {L:>5} {shape.volume:>6} {PREFACTOR_CALLS:>6} {factor:>6.2f}"
              + "".join(f"  {t:>32.1f} {t / factor:>9.1f}" for t in per_call))


def sweep_table(meter: Speedometer) -> None:
    shapes = [LatticeShape(d=1, L=L) for L in SWEEP_SIZES]
    sites = sum(shape.volume for shape in shapes)
    fields = [sample_gaussian(GaussianSpec(density=1.0), shape, 0) for shape in shapes]
    steps = -(-SITE_STEPS // sites)
    cfg = SchemeConfig(scheme="rk4", dt=DT, t_end=steps * DT, snapshot_stride=1, lam=1.0)
    (seconds,), factor = timed_row(meter, [
        partial(integrate_packed, fields, standard_laplacian(1), cfg, lambda row: None)])
    t = seconds / steps * 1e6
    print(f"{'d':>2} {'boxes':>5} {'sites':>6} {'steps':>6} {'factor':>6}"
          f"  {'packed rk4/1 us/step':>22} {'scaled':>9}")
    print(f"{1:>2} {len(shapes):>5} {sites:>6} {steps:>6} {factor:>6.2f}"
          f"  {t:>22.1f} {t / factor:>9.1f}")


def main() -> None:
    with Speedometer() as meter:
        step_table(meter)
        print()
        stencil_table(meter)
        print()
        prefactor_table(meter)
        print()
        sweep_table(meter)


if __name__ == "__main__":
    main()
