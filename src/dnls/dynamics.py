"""Time evolution of the finite lattice equation and solution-quality checks.

The equation of motion is i dpsi/dt = (alpha * psi)(x) + lam |psi(x)|^2 psi(x)
on the periodic box.  Two one-step methods are provided:

* Strang splitting composes the exactly solvable onsite phase rotation with
  the Fourier-diagonalized linear flow.  Both substeps preserve the squared
  l2 norm, so particle number is conserved to rounding and energy drifts at
  second order in dt.
* Classical RK4 on the raw right-hand side, kept as a structurally
  independent scheme for cross-validation of uniqueness.

A stepper is built once per run and advances a whole snapshot block into
an array its caller passes.  Strang merges each step's closing half rotation
with the next step's opening one into one full rotation, exact in exact
arithmetic (the rotation keeps |psi|), so only blocks of more than one step
differ from single steps, in rounding.  Neither stepper allocates an array
per step: each works in arrays it allocates once, Strang calling numpy's
pocketfft gufuncs directly, with the bits of np.fft, and RK4 applying the
stencil through its buffered form, with the bits of the plain expressions.
Finiteness is checked once per stored snapshot; a non-finite one replays
its block one single step at a time and raises at the first non-finite
step, or, ending finite, keeps the replayed row: a merged phase
lam |psi|^2 dt can overflow where two half phases do not.  The snapshots
form one read-only array (n, *dims) of a Trajectory; every computation over
them runs on `Trajectory.blocks` of about 2^14 sites, so its temporaries
stay small whatever n is.

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
from numpy.fft import _pocketfft_umath as _pocketfft

from .hopping import HoppingPotential, Stencil, dispersion, require_fits, stencil
from .lattice import DataError, FieldL, LatticeShape, frozen, read_only

# a stepper advances `steps` steps from `values`, writing the result into
# `out` (an array of the same shape that does not overlap `values`)
Stepper = Callable[[np.ndarray, np.ndarray, int], None]

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
        return FieldL(self.shape, frozen(self.values[-1].copy()))


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
    return FieldL(field.shape, frozen(-1j * energy_gradient(field, pot, lam)))


def second_time_derivative(field: FieldL, pot: HoppingPotential, lam: float) -> np.ndarray:
    """The five-term polynomial giving d^2 psi/dt^2 pointwise.

    Depends on values within twice the kernel range of each site.
    """
    return _second_values(_checked_stencil(pot, field.shape), lam, field.values)


def p_site(field: FieldL, pot: HoppingPotential, lam: float, x: Sequence[int]) -> complex:
    return complex(second_time_derivative(field, pot, lam)[field.shape.index(x)])


def _fourier_passes(shape: LatticeShape) -> tuple[Callable, Callable]:
    """fftn and ifftn over the box as numpy's pocketfft gufunc calls.

    Like np.fft.fftn and ifftn they make one call per axis, last axis first,
    the inverse scaled by 1/side on each, and give the same bits without the
    per-call wrapper.  A pass (src, spare) ping-pongs between its two
    arrays, overwriting both, and returns the one holding the result.
    """
    axes = [[(axis,), (), (axis,)] for axis in reversed(range(shape.d))]

    def passes(ufunc, scale) -> Callable:
        def run(src: np.ndarray, spare: np.ndarray) -> np.ndarray:
            for ax in axes:
                ufunc(src, scale, axes=ax, out=spare)
                src, spare = spare, src
            return src
        return run

    return (passes(_pocketfft.fft, 1),
            passes(_pocketfft.ifft, np.reciprocal(shape.side, dtype=np.float64)))


def _strang_stepper(pot: HoppingPotential, shape: LatticeShape, lam: float, dt: float) -> Stepper:
    """Strang steps on raw values: half onsite rotation, then per step the full
    linear flow and a full rotation, the last one a half rotation.

    A vanishing dispersion makes the linear flow the identity; the Fourier
    round trip is skipped then, so purely onsite runs carry no FFT rounding.
    Every substep writes into arrays allocated here once.  A rotation by
    exp(rate |psi|^2) at an imaginary rate is computed from its real phase
    theta: cos theta and sin theta go into the real and imaginary parts of
    one array, the bits numpy's complex exp gives for a zero real part, with
    no complex cast and no complex exp.  The products keep the operand order
    of values * rotation and linear_phase * spectrum: the last bit of a
    complex product depends on it.
    """
    disp = dispersion(pot, shape).values
    linear_phase = None if np.all(disp == 0.0) else np.exp(-1j * dt * disp)
    half_rate = -0.5j * lam * dt
    # per rate: rate.imag and the signed zero rate.real * 0, which the phase
    # below adds; 0-d arrays, which numpy takes faster than Python floats
    half, full = ((np.array(rate.imag), np.array(rate.real * 0.0))
                  for rate in (half_rate, 2 * half_rate))
    forward, inverse = _fourier_passes(shape)
    mod = np.empty(shape.dims)
    rot = np.empty(shape.dims, dtype=np.complex128)
    cos, sin = rot.real, rot.imag
    field = np.empty(shape.dims, dtype=np.complex128)
    spare = np.empty(shape.dims, dtype=np.complex128)

    def rotate(src: np.ndarray, out: np.ndarray, rate: tuple[np.ndarray, np.ndarray]) -> None:
        # out = src * exp(rate * |src|^2); out may be src.  The phase is the
        # imaginary part of that complex product, rate.imag |src|^2 plus
        # rate.real * 0: a signed zero that can turn a -0 phase into +0
        scale, zero = rate
        np.abs(src, out=mod)
        np.square(mod, out=mod)
        np.multiply(scale, mod, out=mod)
        np.add(mod, zero, out=mod)
        np.cos(mod, out=cos)
        np.sin(mod, out=sin)
        np.multiply(src, rot, out=out)

    def advance(values: np.ndarray, out: np.ndarray, steps: int) -> None:
        rotate(values, field, half)
        for k in range(1, steps + 1):
            psi = field
            if linear_phase is not None:
                spec = forward(field, spare)
                np.multiply(linear_phase, spec, out=spec)
                psi = inverse(spec, spare if spec is field else field)
            last = k == steps
            rotate(psi, out if last else field, half if last else full)

    return advance


def _rk4_stepper(pot: HoppingPotential, shape: LatticeShape, lam: float, dt: float) -> Stepper:
    """Classical fourth-order steps on the raw right-hand side, in arrays
    allocated here once.

    The stencil runs through its buffered form.  The stages are gradients g
    with the -i of the right-hand side folded into the step scalars -i dt/2,
    -i dt and -i dt/6; multiplying by -i only swaps and negates components,
    so that is exact but for the sign of a zero, which y + increment absorbs.
    The increment ((g1 + 2 g2) + 2 g3) + g4 accumulates in one array, and a
    block's intermediate steps are written into out.  Every product runs
    with out= in the operand order of the plain expressions, so the bits
    equal theirs whatever temporaries numpy would elide.
    """
    apply = _checked_stencil(pot, shape).buffered()
    grad, stage, increment = np.empty((3, *shape.dims), dtype=np.complex128)
    # lam |psi|^2 in the real parts of a complex array whose imaginary parts
    # stay +0: the value a product with psi would cast it to, without the
    # cast buffer numpy allocates on every such call
    weight = np.zeros(shape.dims, dtype=np.complex128)
    mod = weight.real
    # the scalars as 0-d arrays, which numpy takes faster than Python
    # numbers, with the same bits
    half, full, sixth = np.array(-0.5j * dt), np.array(-1j * dt), np.array(-1j * dt / 6.0)
    two, lam = np.array(2.0 + 0j), np.array(lam)

    def gradient(psi: np.ndarray, out: np.ndarray) -> None:
        # out = apply(psi) + lam |psi|^2 psi, as _gradient_values
        np.abs(psi, out=mod)
        np.square(mod, out=mod)
        np.multiply(lam, mod, out=mod)
        np.multiply(weight, psi, out=out)
        np.add(apply(psi), out, out=out)

    def advance(values: np.ndarray, out: np.ndarray, steps: int) -> None:
        y = values
        for _ in range(steps):
            gradient(y, increment)
            np.multiply(half, increment, out=stage)
            np.add(y, stage, out=stage)
            gradient(stage, grad)
            np.multiply(two, grad, out=stage)
            np.add(increment, stage, out=increment)
            np.multiply(half, grad, out=stage)
            np.add(y, stage, out=stage)
            gradient(stage, grad)
            np.multiply(two, grad, out=stage)
            np.add(increment, stage, out=increment)
            np.multiply(full, grad, out=stage)
            np.add(y, stage, out=stage)
            gradient(stage, grad)
            np.add(increment, grad, out=increment)
            np.multiply(sixth, increment, out=increment)
            np.add(y, increment, out=out)
            y = out

    return advance


_STEPPERS = {"strang": _strang_stepper, "rk4": _rk4_stepper}


def _one_step(make: Callable[..., Stepper], field: FieldL, pot: HoppingPotential, lam: float,
              dt: float) -> FieldL:
    out = np.empty(field.shape.dims, dtype=np.complex128)
    make(pot, field.shape, lam, dt)(field.values, out, 1)
    return FieldL(field.shape, frozen(out))


def step_strang(field: FieldL, pot: HoppingPotential, lam: float, dt: float) -> FieldL:
    """One Strang step: half onsite rotation, full linear flow, half rotation."""
    return _one_step(_strang_stepper, field, pot, lam, dt)


def step_rk4(field: FieldL, pot: HoppingPotential, lam: float, dt: float) -> FieldL:
    """One classical fourth-order step on the raw right-hand side."""
    return _one_step(_rk4_stepper, field, pot, lam, dt)


def integrate(field0: FieldL, pot: HoppingPotential, config: SchemeConfig) -> Trajectory:
    """Advance field0 to t_end, one stepper call per snapshot row of one buffer.

    Finiteness is checked once per stored row: a non-finite row replays its
    block from the row before, one checked single step at a time, and the
    run aborts at the first offending step; a replay ending finite keeps its
    row (the merged block overflowed) and the run goes on.
    """
    shape, dt, stride = field0.shape, config.dt, config.snapshot_stride
    advance = _STEPPERS[config.scheme](pot, shape, config.lam, dt)
    steps = config.n_steps()
    times = np.arange(0, steps + 1, stride) * dt
    values = np.empty((len(times), *shape.dims), dtype=np.complex128)
    values[0] = field0.values

    def replay(j: int) -> None:
        # steps (j-1)*stride+1 ... j*stride, from row j-1 into row j
        src = values[j - 1]
        spares = np.empty((2, *shape.dims), dtype=np.complex128)
        for k in range(1, stride + 1):
            dst = values[j] if k == stride else spares[k % 2]
            advance(src, dst, 1)
            if not np.isfinite(dst).all():
                step = (j - 1) * stride + k
                raise BlowUpError(time=step * dt, step=step)
            src = dst

    for j in range(1, len(times)):
        advance(values[j - 1], values[j], stride)
        if not np.isfinite(values[j]).all():
            replay(j)
    # frozen, the buffer is stored uncopied
    return Trajectory(shape=shape, times=times, values=frozen(values), dt=dt, stride=stride)


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
