"""Time evolution of the finite lattice equation and solution-quality checks.

The equation of motion is i dpsi/dt = (alpha * psi)(x) + lam |psi(x)|^2 psi(x)
on the periodic box.  Two one-step methods are provided:

* Strang splitting composes the exactly solvable onsite phase rotation with
  the Fourier-diagonalized linear flow.  Both substeps preserve the squared
  l2 norm, so particle number is conserved to rounding and energy drifts at
  second order in dt.
* Classical RK4 on the raw right-hand side, kept as a structurally
  independent scheme for cross-validation of uniqueness.

Duhamel residuals quantify how well a computed trajectory satisfies the
first and second order integral reformulations of the equation; they mix
quadrature error (order 4 in the snapshot spacing, composite Simpson) with
the scheme's own defect, and refinement studies separate the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .hopping import HoppingPotential, Stencil, dispersion, require_fits, stencil
from .lattice import FieldL, LatticeShape

Stepper = Callable[[np.ndarray], np.ndarray]

SCHEMES = ("strang", "rk4")

# sites per block of stacked snapshots (256 KiB of complex values) when a
# Duhamel integrand is evaluated over a trajectory; bounds the extra memory
# whatever the trajectory length
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
    """Snapshots of one run on the uniform grid t_j = j * dt * stride."""

    shape: LatticeShape
    times: np.ndarray
    snapshots: tuple[FieldL, ...]
    dt: float
    stride: int
    scheme: str
    lam: float

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=np.float64)
        if len(times) != len(self.snapshots) or len(times) == 0:
            raise ValueError("times and snapshots must align and be nonempty")
        if np.any(np.diff(times) <= 0):
            raise ValueError("snapshot times must be strictly increasing")
        if any(s.shape != self.shape for s in self.snapshots):
            raise ValueError("all snapshots must share the trajectory's shape")
        times.setflags(write=False)
        object.__setattr__(self, "times", times)

    def __len__(self) -> int:
        return len(self.snapshots)

    @property
    def spacing(self) -> float:
        return self.dt * self.stride

    def time_index(self, t: float) -> int:
        """Index of a grid time; rejects off-grid times."""
        idx = int(round(t / self.spacing)) if self.spacing > 0 else 0
        if idx < 0 or idx >= len(self.times) or abs(self.times[idx] - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"t={t} is not on the snapshot grid")
        return idx

    @property
    def final(self) -> FieldL:
        return self.snapshots[-1]


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
    """Advance field0 to t_end, snapshotting every stride steps.

    A non-finite value aborts the run with the offending time stamp.
    """
    shape = field0.shape
    lam = config.lam
    dt = config.dt
    advance = _STEPPERS[config.scheme](pot, shape, lam, dt)
    steps = config.n_steps()

    snapshots = [field0]
    times = [0.0]
    values = field0.values
    for step in range(1, steps + 1):
        values = advance(values)
        t = step * dt
        if not np.isfinite(values).all():
            raise BlowUpError(time=t, step=step)
        if step % config.snapshot_stride == 0:
            # every step returns a fresh array; frozen, FieldL stores it uncopied
            values.setflags(write=False)
            snapshots.append(FieldL(shape, values))
            times.append(t)

    return Trajectory(
        shape=shape,
        times=np.asarray(times),
        snapshots=tuple(snapshots),
        dt=dt,
        stride=config.snapshot_stride,
        scheme=config.scheme,
        lam=lam,
    )


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


def _duhamel_terms(traj: Trajectory, x: Sequence[int], t: float, integrand):
    """psi_t(x) - psi_0(x) and the Simpson integral over snapshots j <= m of
    integrand(m, idx)[j], where t = t_m and idx is the array index of x;
    None at t = 0."""
    m = traj.time_index(t)
    idx = traj.shape.index(x)
    if m == 0:
        return None
    weights = _quadrature_weights(m, traj.spacing)
    increment = traj.snapshots[m].values[idx] - traj.snapshots[0].values[idx]
    return increment, np.sum(weights * integrand(m, idx))


def _stacked_at(traj: Trajectory, apply: Stencil, lam: float, values_of, m: int,
                idx) -> np.ndarray:
    """values_of(apply, lam, .) of snapshots 0..m at the array index idx;
    values_of is _gradient_values or _second_values.

    Snapshots are stacked in blocks of about _STACK_SITES sites, each block
    evaluated by one call.
    """
    block = max(1, _STACK_SITES // traj.shape.volume)
    at = (slice(None), *idx)
    out = np.empty(m + 1, dtype=np.complex128)
    for j in range(0, m + 1, block):
        stack = np.stack([s.values for s in traj.snapshots[j:min(j + block, m + 1)]])
        out[j:j + len(stack)] = values_of(apply, lam, stack)[at]
    return out


def duhamel_defect_first(
    traj: Trajectory,
    pot: HoppingPotential,
    lam: float,
    x: Sequence[int],
    t: float,
) -> complex:
    """psi_t(x) - psi_0(x) + i * integral_0^t G_x(psi_s) ds, signed."""
    apply = _checked_stencil(pot, traj.shape)
    terms = _duhamel_terms(
        traj, x, t, lambda m, idx: _stacked_at(traj, apply, lam, _gradient_values, m, idx)
    )
    if terms is None:
        return 0.0j
    increment, integral = terms
    return complex(increment + 1j * integral)


def duhamel_residual_first(
    traj: Trajectory,
    pot: HoppingPotential,
    lam: float,
    x: Sequence[int],
    t: float,
) -> float:
    """| psi_t(x) - psi_0(x) + i * integral_0^t G_x(psi_s) ds |."""
    return abs(duhamel_defect_first(traj, pot, lam, x, t))


def duhamel_defect_second(
    traj: Trajectory,
    pot: HoppingPotential,
    lam: float,
    x: Sequence[int],
    t: float,
) -> complex:
    """psi_t(x) - psi_0(x) + i t G_x(psi_0) - integral_0^t (t-s) P_x(psi_s) ds."""
    apply = _checked_stencil(pot, traj.shape)

    def integrand(m: int, idx) -> np.ndarray:
        return (t - traj.times[:m + 1]) * _stacked_at(traj, apply, lam, _second_values, m, idx)

    terms = _duhamel_terms(traj, x, t, integrand)
    if terms is None:
        return 0.0j
    increment, integral = terms
    g0 = _gradient_values(apply, lam, traj.snapshots[0].values)[traj.shape.index(x)]
    return complex(increment + 1j * t * g0 - integral)


def duhamel_residual_second(
    traj: Trajectory,
    pot: HoppingPotential,
    lam: float,
    x: Sequence[int],
    t: float,
) -> float:
    """| psi_t(x) - psi_0(x) + i t G_x(psi_0) - integral_0^t (t-s) P_x(psi_s) ds |."""
    return abs(duhamel_defect_second(traj, pot, lam, x, t))


def subsample(traj: Trajectory, factor: int) -> Trajectory:
    """Coarser snapshot view of the same run (every factor-th snapshot).

    Requires the snapshot count to cover t_end at the coarser spacing.
    """
    if factor < 1 or (len(traj) - 1) % factor != 0:
        raise ValueError(f"cannot subsample {len(traj)} snapshots by {factor}")
    return Trajectory(
        shape=traj.shape,
        times=traj.times[::factor].copy(),
        snapshots=traj.snapshots[::factor],
        dt=traj.dt,
        stride=traj.stride * factor,
        scheme=traj.scheme,
        lam=traj.lam,
    )
