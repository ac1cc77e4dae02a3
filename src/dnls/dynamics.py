"""Time evolution of the finite lattice equation and solution-quality checks.

The equation of motion is i dpsi/dt = (alpha * psi)(x) + lam |psi(x)|^2 psi(x)
on the periodic box.  Two one-step methods are provided:

* Strang splitting composes the exactly solvable onsite phase rotation with
  the Fourier-diagonalized linear flow.  Both substeps preserve the squared
  l2 norm, so particle number is conserved to rounding and energy drifts at
  second order in dt.
* Classical RK4 on the raw right-hand side, kept as a structurally
  independent scheme for cross-validation of uniqueness.

`integrate` writes the snapshots into one read-only array (n, *dims) of a
Trajectory; every computation over them runs on `Trajectory.blocks` of
about 2^14 sites, so its temporaries stay small whatever n is.

Duhamel residuals quantify how well a computed trajectory satisfies the
first and second order integral reformulations of the equation; they mix
quadrature error (order 4 in the snapshot spacing, composite Simpson) with
the scheme's own defect, and refinement studies separate the two.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

from .hopping import HoppingPotential, Stencil, dispersion, require_fits, stencil
from .lattice import DataError, FieldL, LatticeShape, read_only

Stepper = Callable[[np.ndarray], np.ndarray]

SCHEMES = ("strang", "rk4")

# sites per block of Trajectory.blocks (256 KiB of complex values); bounds
# the temporaries of a computation over all snapshots, whatever their count
_STACK_SITES = 1 << 14


class BlowUpError(RuntimeError):
    """Non-finite value produced during integration."""

    def __init__(self, time: float, step: int):
        super().__init__(f"non-finite field value at t={time!r} (step {step})")
        self.time = time
        self.step = step


@dataclass(frozen=True)
class SchemeConfig:
    scheme: str = "strang"
    dt: float = 1e-3
    t_end: float = 1.0
    snapshot_stride: int = 1
    lam: float = 1.0

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if not np.isfinite([self.dt, self.t_end, self.lam]).all():
            raise ValueError("dt, t_end and lam must be finite")
        if not (self.dt > 0):
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.t_end < 0:
            raise ValueError(f"t_end must be >= 0, got {self.t_end}")
        if self.snapshot_stride < 1:
            raise ValueError(f"snapshot stride must be >= 1, got {self.snapshot_stride}")

    def n_steps(self) -> int:
        steps = int(round(self.t_end / self.dt))
        if abs(steps * self.dt - self.t_end) > 1e-9 * max(self.dt, self.t_end):
            raise ValueError(f"t_end={self.t_end} is not a multiple of dt={self.dt}")
        if steps % self.snapshot_stride != 0:
            raise ValueError(
                f"{steps} steps not divisible by snapshot stride {self.snapshot_stride}"
            )
        return steps


@dataclass(frozen=True)
class Trajectory:
    """Snapshots of one run on the uniform grid t_j = j * dt * stride; snapshot
    j is values[j], one read-only array (len(times), *dims) checked here once."""

    shape: LatticeShape
    times: np.ndarray
    values: np.ndarray
    dt: float
    stride: int

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.complex128)
        if times.ndim != 1 or len(times) == 0:
            raise DataError("snapshot times must be a nonempty 1-d array")
        if np.any(np.diff(times) <= 0):
            raise DataError("snapshot times must be strictly increasing")
        expected = (len(times), *self.shape.dims)
        if values.shape != expected:
            raise DataError(f"expected snapshots of shape {expected}, got {values.shape}")
        object.__setattr__(self, "times", read_only(times))
        object.__setattr__(self, "values", read_only(values))
        if not all(np.isfinite(block).all() for _, block in self.blocks()):
            raise DataError("snapshots contain non-finite values")

    def __len__(self) -> int:
        return len(self.times)

    @property
    def spacing(self) -> float:
        return self.dt * self.stride

    def time_index(self, t: float) -> int:
        """Index of a grid time; rejects off-grid times."""
        idx = int(round(t / self.spacing)) if self.spacing > 0 else 0
        if idx < 0 or idx >= len(self.times) or abs(self.times[idx] - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"t={t} is not on the snapshot grid")
        return idx

    def blocks(self, count: int | None = None) -> Iterator[tuple[int, np.ndarray]]:
        """(j, values[j:j+b]) over the first count snapshots (default all),
        b snapshots of about _STACK_SITES sites in all."""
        count = len(self) if count is None else count
        b = max(1, _STACK_SITES // self.shape.volume)
        for j in range(0, count, b):
            yield j, self.values[j:min(j + b, count)]

    @cached_property
    def snapshots(self) -> tuple[FieldL, ...]:
        """Every snapshot as a FieldL over its row of values."""
        return tuple(FieldL(self.shape, row) for row in self.values)

    @property
    def final(self) -> FieldL:
        # a copy: a view of the last row would keep the whole stack alive
        row = self.values[-1].copy()
        row.setflags(write=False)
        return FieldL(self.shape, row)


def _gradient_values(apply: Stencil, lam: float, psi: np.ndarray) -> np.ndarray:
    """energy_gradient on a raw array or a stack of them; also the RK4
    right-hand side up to -i."""
    return apply(psi) + lam * (np.abs(psi) ** 2) * psi


def _second_values(apply: Stencil, lam: float, psi: np.ndarray) -> np.ndarray:
    """second_time_derivative on a raw array."""
    conv = apply(psi)
    mod2 = np.abs(psi) ** 2
    out = -apply(conv)
    out -= lam * apply(mod2 * psi)
    out -= 2.0 * lam * mod2 * conv
    out -= lam * lam * mod2 * mod2 * psi
    out += lam * psi * psi * np.conj(conv)
    return out


def _checked_stencil(pot: HoppingPotential, shape: LatticeShape) -> Stencil:
    require_fits(pot, shape)
    return stencil(pot, shape)


def energy_gradient(field: FieldL, pot: HoppingPotential, lam: float) -> np.ndarray:
    """(alpha * psi)(x) + lam |psi(x)|^2 psi(x) over the box."""
    return _gradient_values(_checked_stencil(pot, field.shape), lam, field.values)


def g_site(field: FieldL, pot: HoppingPotential, lam: float, x: Sequence[int]) -> complex:
    """Single-site evolution polynomial; depends on values within the kernel range."""
    return complex(energy_gradient(field, pot, lam)[field.shape.index(x)])


def rhs(field: FieldL, pot: HoppingPotential, lam: float) -> FieldL:
    """dpsi/dt = -i * (hopping + cubic) as a field."""
    return FieldL(field.shape, -1j * energy_gradient(field, pot, lam))


def second_time_derivative(field: FieldL, pot: HoppingPotential, lam: float) -> np.ndarray:
    """The five-term polynomial giving d^2 psi/dt^2 pointwise.

    Depends on values within twice the kernel range of each site.
    """
    return _second_values(_checked_stencil(pot, field.shape), lam, field.values)


def p_site(field: FieldL, pot: HoppingPotential, lam: float, x: Sequence[int]) -> complex:
    return complex(second_time_derivative(field, pot, lam)[field.shape.index(x)])


def _strang_stepper(pot: HoppingPotential, shape: LatticeShape, lam: float, dt: float) -> Stepper:
    """Strang step on raw values: half onsite rotation, full linear flow, half rotation.

    A vanishing dispersion makes the linear flow the identity; the Fourier
    round trip is skipped then, so purely onsite runs carry no FFT rounding.
    In d = 1 the one-axis fft/ifft pair is used: fftn computes the same bits
    through it, with more per-call overhead.
    """
    disp = dispersion(pot, shape).values
    linear_phase = None if np.all(disp == 0.0) else np.exp(-1j * dt * disp)
    half_rate = -0.5j * lam * dt
    fft, ifft = (np.fft.fft, np.fft.ifft) if shape.d == 1 else (np.fft.fftn, np.fft.ifftn)

    def advance(values: np.ndarray) -> np.ndarray:
        psi = values * np.exp(half_rate * np.abs(values) ** 2)
        if linear_phase is not None:
            psi = ifft(linear_phase * fft(psi))
        return psi * np.exp(half_rate * np.abs(psi) ** 2)

    return advance


def _rk4_stepper(pot: HoppingPotential, shape: LatticeShape, lam: float, dt: float) -> Stepper:
    """Classical fourth-order step on the raw right-hand side."""
    apply = _checked_stencil(pot, shape)

    def f(values: np.ndarray) -> np.ndarray:
        return -1j * _gradient_values(apply, lam, values)

    def advance(y: np.ndarray) -> np.ndarray:
        k1 = f(y)
        k2 = f(y + 0.5 * dt * k1)
        k3 = f(y + 0.5 * dt * k2)
        k4 = f(y + dt * k3)
        return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    return advance


_STEPPERS = {"strang": _strang_stepper, "rk4": _rk4_stepper}


def step_strang(field: FieldL, pot: HoppingPotential, lam: float, dt: float) -> FieldL:
    """One Strang step: half onsite rotation, full linear flow, half rotation."""
    return FieldL(field.shape, _strang_stepper(pot, field.shape, lam, dt)(field.values))


def step_rk4(field: FieldL, pot: HoppingPotential, lam: float, dt: float) -> FieldL:
    """One classical fourth-order step on the raw right-hand side."""
    return FieldL(field.shape, _rk4_stepper(pot, field.shape, lam, dt)(field.values))


def integrate(field0: FieldL, pot: HoppingPotential, config: SchemeConfig) -> Trajectory:
    """Advance field0 to t_end, writing every stride-th step into one buffer.

    A non-finite value aborts the run with the offending time stamp.
    """
    shape, dt, stride = field0.shape, config.dt, config.snapshot_stride
    advance = _STEPPERS[config.scheme](pot, shape, config.lam, dt)
    steps = config.n_steps()
    times = np.arange(0, steps + 1, stride) * dt
    values = np.empty((len(times), *shape.dims), dtype=np.complex128)
    values[0] = psi = field0.values
    for step in range(1, steps + 1):
        psi = advance(psi)
        if not np.isfinite(psi).all():
            raise BlowUpError(time=step * dt, step=step)
        if step % stride == 0:
            # the next step reads the stored row, so the step's own array is
            # freed and no snapshot is held twice
            values[step // stride] = psi
            psi = values[step // stride]
    # frozen, the buffer is stored uncopied
    values.setflags(write=False)
    return Trajectory(shape=shape, times=times, values=values, dt=dt, stride=stride)


def _quadrature_weights(n_intervals: int, spacing: float) -> np.ndarray:
    """Composite Simpson for an even interval count, trapezoid fallback."""
    if n_intervals == 0:
        return np.zeros(1)
    if n_intervals >= 2 and n_intervals % 2 == 0:
        w = np.ones(n_intervals + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        return w * (spacing / 3.0)
    w = np.ones(n_intervals + 1)
    w[0] = w[-1] = 0.5
    return w * spacing


def _duhamel_terms(traj: Trajectory, apply: Stencil, lam: float, x: Sequence[int], t: float,
                   values_of):
    """psi_t(x) - psi_0(x), the quadrature weights over snapshots j <= m, where
    t = t_m, and values_of(apply, lam, .) of those snapshots at x, one call per
    block; values_of is _gradient_values or _second_values.  None at t = 0."""
    m = traj.time_index(t)
    idx = traj.shape.index(x)
    if m == 0:
        return None
    samples = np.empty(m + 1, dtype=np.complex128)
    for j, block in traj.blocks(m + 1):
        # copied out: a view would keep the whole evaluated block alive
        samples[j:j + len(block)] = values_of(apply, lam, block)[(slice(None), *idx)]
    increment = traj.values[(m, *idx)] - traj.values[(0, *idx)]
    return increment, _quadrature_weights(m, traj.spacing), samples


def duhamel_defect_first(traj: Trajectory, pot: HoppingPotential, lam: float,
                         x: Sequence[int], t: float) -> complex:
    """psi_t(x) - psi_0(x) + i * integral_0^t G_x(psi_s) ds, signed."""
    terms = _duhamel_terms(traj, _checked_stencil(pot, traj.shape), lam, x, t, _gradient_values)
    if terms is None:
        return 0.0j
    increment, weights, g = terms
    return complex(increment + 1j * np.sum(weights * g))


def duhamel_residual_first(traj: Trajectory, pot: HoppingPotential, lam: float,
                           x: Sequence[int], t: float) -> float:
    """| psi_t(x) - psi_0(x) + i * integral_0^t G_x(psi_s) ds |."""
    return abs(duhamel_defect_first(traj, pot, lam, x, t))


def duhamel_defect_second(traj: Trajectory, pot: HoppingPotential, lam: float,
                          x: Sequence[int], t: float) -> complex:
    """psi_t(x) - psi_0(x) + i t G_x(psi_0) - integral_0^t (t-s) P_x(psi_s) ds."""
    apply = _checked_stencil(pot, traj.shape)
    terms = _duhamel_terms(traj, apply, lam, x, t, _second_values)
    if terms is None:
        return 0.0j
    increment, weights, p = terms
    g0 = _gradient_values(apply, lam, traj.values[0])[traj.shape.index(x)]
    return complex(increment + 1j * t * g0 - np.sum(weights * ((t - traj.times[:len(p)]) * p)))


def duhamel_residual_second(traj: Trajectory, pot: HoppingPotential, lam: float,
                            x: Sequence[int], t: float) -> float:
    """| psi_t(x) - psi_0(x) + i t G_x(psi_0) - integral_0^t (t-s) P_x(psi_s) ds |."""
    return abs(duhamel_defect_second(traj, pot, lam, x, t))


def subsample(traj: Trajectory, factor: int) -> Trajectory:
    """Coarser snapshot view of the same run (every factor-th snapshot);
    its times and values are views of traj's.

    Requires the snapshot count to cover t_end at the coarser spacing.
    """
    if factor < 1 or (len(traj) - 1) % factor != 0:
        raise ValueError(f"cannot subsample {len(traj)} snapshots by {factor}")
    return replace(traj, times=traj.times[::factor], values=traj.values[::factor],
                   stride=traj.stride * factor)
