"""Cross-box-size approximation experiments and uniqueness diagnostics.

Two trajectories started from truncations of one Z^d sample to nested
boxes agree on the overlap at t=0 and start to disagree as differences
propagate inward from where the periodic wraps differ.  The sweep runs
pairs of consecutive box sizes, measures the supremum-in-time disagreement
on a fixed observation window, and fits the exponential decay base: beyond
a threshold the disagreement drops below 2^-L.

Sites are identified across lattices by their literal coordinates; the
observation window is contained in both boxes as-is.  A sweep truncates
its generator once, to the largest box it needs, and takes every smaller
box as the centred slice of that field; the generator is pure, so the
values are those of a truncation per box.  It then steps every distinct
box size at once, as one packed RK4 state, where a box per call would pay
a step's numpy call overhead once per box, and streams its reductions:
each pair's window sup and each size's drift are updated at every
snapshot, with the subtraction, abs and max of the reductions over stored
trajectories below, so no trajectory is stored and every entry has the
bits of two separate runs.

A sweep runs the RK4/stencil scheme only: its arithmetic at a window site
is a pure function of values in the site's dependency cone, so the only
source of disagreement is the genuine boundary signal.  An FFT-based step
mixes rounding noise from the whole box into every site, which floors the
measurable decay near 1e-13.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import SchemeConfig, Trajectory, integrate_packed
from .hopping import HoppingPotential
from .lattice import FieldL, Generator, LatticeShape, box_starts, truncate


def _require_common_grid(a: Trajectory, b: Trajectory) -> None:
    if not np.array_equal(a.times, b.times):
        raise ValueError("trajectories do not share a time grid")


def _require_nested(big: Trajectory, small: Trajectory) -> None:
    _require_common_grid(big, small)
    if big.shape.L <= small.shape.L:
        raise ValueError("first trajectory must live on the larger box")


def _window_slices(shape: LatticeShape, k: int) -> tuple[slice, ...]:
    if k > shape.L:
        raise ValueError(f"window half-width {k} exceeds box half-width {shape.L}")
    return (slice(shape.L - k, shape.L + k + 1),) * shape.d


def _sup_difference(a: Trajectory, a_at: tuple, b: np.ndarray, b_at: tuple, m: int) -> float:
    """max over snapshots j <= m, and over entries, of |a_j[a_at] - b[j][b_at]|,
    for a snapshot stack b on a's time grid; one reduction per block of a."""
    best = 0.0
    for j, block in a.blocks(m + 1):
        diff = block[(slice(None), *a_at)] - b[(slice(j, j + len(block)), *b_at)]
        best = max(best, float(np.max(np.abs(diff))))
    return best


def window_disagreement(
    traj_big: Trajectory,
    traj_small: Trajectory,
    k: int,
    t: float,
) -> float:
    """Supremum of pointwise disagreement over the centered window of half-width k."""
    _require_nested(traj_big, traj_small)
    big_sl = _window_slices(traj_big.shape, k)
    small_sl = _window_slices(traj_small.shape, k)
    m = traj_small.time_index(t)
    return _sup_difference(traj_big, big_sl, traj_small.values, small_sl, m)


def drift(traj: Trajectory, t: float) -> float:
    """max over grid s <= t and sites of |psi_s(x) - psi_0(x)|."""
    m = traj.time_index(t)
    base = np.broadcast_to(traj.values[0], traj.values.shape)
    return _sup_difference(traj, (), base, (), m)


def scheme_disagreement(
    traj_a: Trajectory,
    traj_b: Trajectory,
    n: int,
    ell: int,
    t: float | None = None,
) -> float:
    """Two-scheme discrepancy sup over |x|_inf <= 2*n*ell and grid s <= t.

    Both trajectories must share the lattice, the grid, and the initial
    snapshot; the window radius is capped at the box half-width.
    """
    if traj_a.shape != traj_b.shape:
        raise ValueError("trajectories live on different lattices")
    _require_common_grid(traj_a, traj_b)
    if not np.array_equal(traj_a.values[0], traj_b.values[0]):
        raise ValueError("trajectories start from different fields")
    if n < 0 or ell < 1:
        raise ValueError("need n >= 0 and ell >= 1")
    if t is None:
        t = float(traj_a.times[-1])
    sl = _window_slices(traj_a.shape, min(2 * n * ell, traj_a.shape.L))
    m = traj_a.time_index(t)
    return _sup_difference(traj_a, sl, traj_b.values, sl, m)


@dataclass(frozen=True)
class SweepConfig:
    """One Z^d sample run at a list of box sizes with a shared scheme."""

    generator: Generator
    L_list: tuple[int, ...]
    k: int
    scheme: SchemeConfig

    def __post_init__(self) -> None:
        if self.scheme.scheme != "rk4":
            raise ValueError(f"sweep-L needs dynamics.scheme rk4, got {self.scheme.scheme!r}")
        ls = tuple(int(v) for v in self.L_list)
        if not ls or any(b <= a for a, b in zip(ls, ls[1:])):
            raise ValueError("L_list must be nonempty and strictly increasing")
        if not (0 <= self.k <= min(ls)):
            raise ValueError(f"window half-width {self.k} must be <= min(L_list)")
        object.__setattr__(self, "L_list", ls)


@dataclass(frozen=True)
class SweepEntry:
    """One pair (L, L+1): the window disagreement and the small box's drift
    over the run, or NaN and the error of the first of its boxes to blow up.
    runtime is the wall time of the sweep's one packed integration, which
    all its entries share."""

    L: int
    delta_bar: float
    drift: float
    runtime: float
    error: str | None = None


@dataclass(frozen=True)
class DisagreementReport:
    entries: tuple[SweepEntry, ...]
    fit_A: float | None
    fit_L0: int | None
    flagged: bool

    def as_dict(self) -> dict:
        return {
            "entries": [
                {
                    "L": e.L,
                    "delta_bar": e.delta_bar,
                    "drift": e.drift,
                    "runtime": e.runtime,
                    **({"error": e.error} if e.error else {}),
                }
                for e in self.entries
            ],
            "fit": {"A": self.fit_A, "L0": self.fit_L0},
            "flagged": self.flagged,
        }


def _fit_decay_base(entries: Sequence[SweepEntry]) -> float | None:
    """Least-squares slope of log(delta_bar) on the tail half of the sweep."""
    clean = [e for e in entries if e.error is None and e.delta_bar > 0.0]
    tail = clean[len(clean) // 2 :]
    if len(tail) < 4:
        return None
    ls = np.array([e.L for e in tail], dtype=float)
    logs = np.log([e.delta_bar for e in tail])
    slope = np.polyfit(ls, logs, 1)[0]
    return float(np.exp(-slope))


def _fit_threshold(entries: Sequence[SweepEntry]) -> int | None:
    """Smallest listed L0 with delta_bar <= 2^-L for every listed L >= L0."""
    clean = [e for e in entries if e.error is None]
    for i, entry in enumerate(clean):
        if all(e.delta_bar <= 2.0 ** (-e.L) for e in clean[i:]):
            return entry.L
    return None


def run_box_sweep(config: SweepConfig, pot: HoppingPotential) -> DisagreementReport:
    """Run consecutive-size pairs (L, L+1) for each listed L and report decay.

    Every distinct size runs once, all of them together as one packed RK4
    state (dynamics.integrate_packed), and each pair's window sup and each
    listed size's drift are updated at every snapshot, so no trajectory is
    stored.  An entry is that of two separate runs, bit for bit, with the
    error of the first of its two boxes to blow up; its runtime is the wall
    time of the one packed run, the same in every entry.
    """
    d, k = pot.d, config.k
    sizes = sorted({L + e for L in config.L_list for e in (0, 1)})
    top = truncate(config.generator, LatticeShape(d=d, L=sizes[-1]))
    shapes = [LatticeShape(d=d, L=L) for L in sizes]
    fields = [FieldL(shape, top.values[_window_slices(top.shape, shape.L)]) for shape in shapes]
    box = {L: i for i, L in enumerate(sizes)}
    starts = box_starts(shapes)

    def sites(L: int, k: int | None = None) -> np.ndarray:
        # flat indices, in the packed state, of box L's sites, or of those in
        # its window of half-width k
        shape = shapes[box[L]]
        window = () if k is None else _window_slices(shape, k)
        return starts[box[L]] + np.arange(shape.volume).reshape(shape.dims)[window].ravel()

    # segments of a - b: per pair, big minus small over the window; per
    # listed size, the state minus the initial one over the whole box
    bigs = [sites(L + 1, k) for L in config.L_list]
    smalls = [sites(L, k) for L in config.L_list]
    boxes = [sites(L) for L in config.L_list]
    lengths = [len(s) for s in bigs + boxes]
    a_index = np.concatenate(bigs + boxes)
    b_index = np.concatenate(smalls)
    a = np.empty(len(a_index), dtype=np.complex128)
    b = np.empty_like(a)
    b_rows = b[:len(b_index)]
    b[len(b_index):] = np.concatenate([fields[box[L]].values.ravel() for L in config.L_list])
    mod = np.empty(len(a))
    segments = np.cumsum([0] + lengths[:-1])
    row_sup = np.empty(len(lengths))
    sup = np.zeros(len(lengths))

    def on_row(row: np.ndarray) -> None:
        # _sup_difference's subtraction, abs and max, one row at a time
        np.take(row, a_index, out=a, mode="clip")
        np.take(row, b_index, out=b_rows, mode="clip")
        np.subtract(a, b, out=a)
        np.abs(a, out=mod)
        np.maximum.reduceat(mod, segments, out=row_sup)
        np.maximum(sup, row_sup, out=sup)

    start = time.perf_counter()
    errors = integrate_packed(fields, pot, config.scheme, on_row)
    runtime = time.perf_counter() - start
    entries = []
    n = len(config.L_list)
    for i, L in enumerate(config.L_list):
        err = errors[box[L]] if errors[box[L]] is not None else errors[box[L + 1]]
        if err is not None:
            entries.append(SweepEntry(L=L, delta_bar=float("nan"), drift=float("nan"),
                                      runtime=runtime, error=str(err)))
        else:
            entries.append(SweepEntry(L=L, delta_bar=float(sup[i]), drift=float(sup[n + i]),
                                      runtime=runtime))
    return DisagreementReport(
        entries=tuple(entries),
        fit_A=_fit_decay_base(entries),
        fit_L0=_fit_threshold(entries),
        flagged=any(e.error is not None for e in entries),
    )
