"""Time evolution of the finite lattice equation and solution-quality checks.

The equation of motion is i dpsi/dt = (alpha * psi)(x) + lam |psi(x)|^2 psi(x)
on the periodic box.  integrate runs either of two schemes:

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
per step: each works in arrays it allocates once, and RK4 applies the
stencil through its buffered form, with the bits of the plain expressions.
At the 65- and 129-site boxes of the d = 1 checks an FFT call costs more in
per-call setup than in arithmetic, so on a box of at most _DENSE_SITES
sites Strang builds its linear flow once as a dense propagator and runs it
as one matrix-vector product, with the bits of the BLAS zgemv kernel.  On a
larger box it calls numpy's pocketfft gufuncs directly, with the bits of
np.fft, bound once to their arrays and to 0-d float64 scales, which need no
conversion per call, each over the last axis, the gufunc's default core
axis, of views that move its axis there, with no axes argument.
Finiteness is checked once per stored snapshot; a non-finite one replays
its block one single step at a time and raises at the first non-finite
step, or, ending finite, keeps the replayed row: a merged phase
lam |psi|^2 dt can overflow where two half phases do not.  The snapshots
form one read-only array (n, *dims) of a Trajectory; every computation over
them runs on `Trajectory.blocks` of about 2^14 sites, so its temporaries
stay small whatever n is.  The stack is checked once: row by row in
integrate, or whole by the constructor for outside data.

Several boxes of one dimension can step together with RK4 as one packed
state (integrate_packed): one step body, built on the one stencil resolved
for one box or for all of them, serves one box or many, and each box gets
the bits integrate gives it, while a step costs about as many numpy calls
as one box's.  Nothing is stored; a callback reads each
snapshot.

Duhamel residuals quantify how well a computed trajectory satisfies the
first and second order integral reformulations of the equation; they mix
quadrature error (order 4 in the snapshot spacing, composite Simpson) with
the scheme's own defect, and refinement studies separate the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Iterator, Sequence

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

from .hopping import HoppingPotential, Stencil, dispersion, require_fits, stencil
from .lattice import DataError, FieldL, FieldRows, LatticeShape, box_starts, frozen, read_only

# a stepper advances `steps` steps from `values`, writing the result into
# `out` (an array of the same shape that does not overlap `values`)
Stepper = Callable[[np.ndarray, np.ndarray, int], None]

SCHEMES = ("strang", "rk4")

# sites per block of Trajectory.blocks (256 KiB of complex values); bounds
# the temporaries of a computation over all snapshots, whatever their count
_STACK_SITES = 1 << 14
# a Strang box of at most this many sites runs its linear flow as one dense
# propagator product, a larger one as Fourier passes (_strang_stepper).
# Median over 31 interleaved rounds of the dense to Fourier step time ratio,
# standard Laplacian, one BLAS thread, shared 2-core host: in d = 1 0.71 at
# 65 sites and 0.77 at 129; in d = 2 0.75 at 121 and 0.85 at 169, but 1.27
# at 225 and 1.48 at 289; in d = 3 0.53 at 125 and 1.84 at 343.  In d = 1
# the Fourier cost follows the length's prime factors: from 125 to 199 sites
# dense costs 1.02-1.16x at lengths of small factors (125, 135, 147, 165,
# 171) and 0.5-0.6x at primes (151, 181, 191, 197); above 200 it loses at
# 205-221 and 289-351 (1.1-2.9x).  With two BLAS threads the d = 1 ratios
# were 0.90 at 65 and 129 sites.
_DENSE_SITES = 200


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
    j is values[j], one read-only array (len(times), *dims) checked once: here,
    or row by row by the integrate call that made it."""

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

    @classmethod
    def _checked(cls, shape: LatticeShape, times: np.ndarray, values: np.ndarray, dt: float,
                 stride: int) -> Trajectory:
        """A Trajectory over read-only times and values that already hold what
        the constructor checks, built without scanning them again."""
        traj = object.__new__(cls)
        traj.__dict__.update(shape=shape, times=times, values=values, dt=dt, stride=stride)
        return traj

    @cached_property
    def snapshots(self) -> Sequence[FieldL]:
        """Every snapshot as a FieldL over its row of the checked values (a FieldRows view)."""
        return FieldRows(self.shape, self.values)

    @property
    def final(self) -> FieldL:
        # a copy: a view of the last row would keep the whole stack alive
        return FieldL(self.shape, frozen(self.values[-1].copy()))


def _gradient_values(apply: Stencil, lam: float, psi: np.ndarray) -> np.ndarray:
    """energy_gradient on a raw array or a stack of them; also the RK4
    right-hand side up to -i."""
    return apply(psi) + lam * (np.abs(psi) ** 2) * psi


def _second_terms(lam: float, psi: np.ndarray, conv: np.ndarray, twice: np.ndarray,
                  cubic: np.ndarray) -> np.ndarray:
    """The five-term polynomial from psi, its hopping action conv, and the
    hopping actions on conv (twice) and on |psi|^2 psi (cubic)."""
    mod2 = np.abs(psi) ** 2
    out = -twice
    out -= lam * cubic
    out -= 2.0 * lam * mod2 * conv
    out -= lam * lam * mod2 * mod2 * psi
    out += lam * psi * psi * np.conj(conv)
    return out


def _second_values(apply: Stencil, lam: float, psi: np.ndarray) -> np.ndarray:
    """second_time_derivative on a raw array."""
    conv = apply(psi)
    return _second_terms(lam, psi, conv, apply(conv), apply(np.abs(psi) ** 2 * psi))


def _second_at(apply: Stencil, lam: float, stack: np.ndarray, idx: tuple[int, ...]) -> np.ndarray:
    """_second_values at one site, given by its array index, over a stack of
    fields, with its bits, read from the sites within twice the kernel range
    of it: the actions at idx read the action and |psi|^2 psi at idx's
    sources alone."""
    dims, lead = stack.shape[1:], stack.shape[:1]
    flat = stack.reshape(len(stack), -1)

    def conv(source: int) -> np.ndarray:
        return apply.at(stack, np.unravel_index(source, dims))

    def cubic(source: int) -> np.ndarray:
        psi = flat[:, source]
        return np.abs(psi) ** 2 * psi

    return _second_terms(lam, stack[(slice(None), *idx)], apply.at(stack, idx),
                         apply.gather(idx, conv, lead), apply.gather(idx, cubic, lead))


def _checked_stencil(pot: HoppingPotential, *shapes: LatticeShape) -> Stencil:
    for shape in shapes:
        require_fits(pot, shape)
    return stencil(pot, *shapes)


def energy_gradient(field: FieldL, pot: HoppingPotential, lam: float) -> np.ndarray:
    """(alpha * psi)(x) + lam |psi(x)|^2 psi(x) over the box."""
    return _gradient_values(_checked_stencil(pot, field.shape), lam, field.values)


def g_site(field: FieldL, pot: HoppingPotential, lam: float, x: Sequence[int]) -> complex:
    """Single-site evolution polynomial; depends on values within the kernel range."""
    return complex(energy_gradient(field, pot, lam)[field.shape.index(x)])


def second_time_derivative(field: FieldL, pot: HoppingPotential, lam: float) -> np.ndarray:
    """The five-term polynomial giving d^2 psi/dt^2 pointwise.

    Depends on values within twice the kernel range of each site.
    """
    return _second_values(_checked_stencil(pot, field.shape), lam, field.values)


def p_site(field: FieldL, pot: HoppingPotential, lam: float, x: Sequence[int]) -> complex:
    return complex(second_time_derivative(field, pot, lam)[field.shape.index(x)])


def _fourier_passes(shape: LatticeShape, src: np.ndarray, spare: np.ndarray
                    ) -> tuple[list[Callable[[], None]], np.ndarray, list[Callable[[], None]]]:
    """fftn and ifftn over the box as numpy's pocketfft gufunc calls on two
    arrays, bound once: (forward, spec, inverse).

    Running the forward calls in order transforms src into spec, which is src
    or spare; the inverse calls then transform spec back into src; each pass
    overwrites the other array.  Like np.fft.fftn and ifftn they make one
    call per axis, last axis first, the inverse scaled by 1/side on each, and
    give the same bits, without the np.fft wrapper: the scales are 0-d
    float64 arrays built here, and each pass runs on views of the two arrays
    that move its axis last, the gufunc's default core axis, so that no call
    takes an axes argument, whose keyword costs a slower call and an
    allocation per call.
    """
    def calls(ufunc, scale: np.ndarray, src: np.ndarray, dst: np.ndarray):
        bound = []
        for axis in reversed(range(shape.d)):
            bound.append(partial(ufunc, np.moveaxis(src, axis, -1), scale,
                                 np.moveaxis(dst, axis, -1)))
            src, dst = dst, src
        return bound, src, dst

    forward, spec, other = calls(_pocketfft.fft, np.array(1.0), src, spare)
    inverse, _, _ = calls(_pocketfft.ifft, np.array(1.0 / shape.side), spec, other)
    return forward, spec, inverse


def _linear_propagator(shape: LatticeShape, linear_phase: np.ndarray) -> np.ndarray:
    """The linear flow ifftn(linear_phase * fftn(values)) as a dense V x V
    matrix acting on row-major flat fields: column j is the flow of the j-th
    unit field, from np.fft over a stack of all V of them.  The circulant of
    one column, ifftn(linear_phase) translated to every site, builds 5-8x
    faster, but every column then shares its rounding, and the particle
    number drifts 4-10x faster: 4.2e-12 against 5.0e-13 over criterion 1's
    10,000 steps at 129 sites."""
    volume, axes = shape.volume, tuple(range(1, shape.d + 1))
    units = np.eye(volume, dtype=np.complex128).reshape((volume, *shape.dims))
    flows = np.fft.ifftn(linear_phase * np.fft.fftn(units, axes=axes), axes=axes)
    return np.ascontiguousarray(flows.reshape(volume, volume).T)


def _strang_stepper(pot: HoppingPotential, shape: LatticeShape, lam: float, dt: float) -> Stepper:
    """Strang steps on raw values: half onsite rotation, then per step the full
    linear flow and a full rotation, the last one a half rotation.

    The linear flow is a fixed list of calls bound to two arrays allocated
    here once.  A box of at most _DENSE_SITES sites builds the flow once as
    a dense propagator (_linear_propagator) and runs it as one matrix-vector
    product, np.dot into the spare array, whose bits come from the BLAS
    zgemv kernel; the next rotation reads the spare array and writes back
    into the field array.  A larger box runs the Fourier passes around the
    product linear_phase * spectrum, with the bits of np.fft: the passes run
    with no Python frame of their own, their scales are 0-d float64 arrays
    built once, each runs over the gufunc's default core axis, the last, of
    views that move its axis there, and out is passed positionally.  A
    vanishing dispersion makes the list empty, so purely onsite runs carry
    no rounding from the linear flow.

    A rotation by exp(rate |psi|^2) at an imaginary rate is computed from
    its real phase theta: cos theta and sin theta go into the real and
    imaginary parts of one array, the bits numpy's complex exp gives for a
    zero real part, with no complex cast and no complex exp.  The products
    keep the operand order of values * rotation and linear_phase * spectrum:
    the last bit of a complex product depends on it.
    """
    disp = dispersion(pot, shape)
    # before the work arrays, which then reuse its temporary's freed memory
    # instead of leaving it as a hole in the heap for the stepper's lifetime
    linear_phase = None if np.all(disp == 0.0) else np.exp(-1j * dt * disp)
    dense = linear_phase is not None and shape.volume <= _DENSE_SITES
    prop = _linear_propagator(shape, linear_phase) if dense else None
    half_rate = -0.5j * lam * dt
    # per rate: rate.imag and the signed zero rate.real * 0, which the phase
    # below adds; 0-d arrays, which numpy takes faster than Python floats
    half, full = ((np.array(rate.imag), np.array(rate.real * 0.0))
                  for rate in (half_rate, 2 * half_rate))
    mod = np.empty(shape.dims)
    rot = np.empty(shape.dims, dtype=np.complex128)
    cos, sin = rot.real, rot.imag
    field = np.empty(shape.dims, dtype=np.complex128)
    spare = np.empty_like(field)
    # the calls of the linear flow, and the array they leave its result in
    linear: list[Callable[[], None]] = []
    flowed = field
    if dense:
        linear, flowed = [partial(np.dot, prop, field.reshape(-1), spare.reshape(-1))], spare
    elif linear_phase is not None:
        forward, spec, inverse = _fourier_passes(shape, field, spare)
        linear = [*forward, partial(np.multiply, linear_phase, spec, spec), *inverse]

    def rotate(src: np.ndarray, out: np.ndarray, rate: tuple[np.ndarray, np.ndarray]) -> None:
        # out = src * exp(rate * |src|^2); out may be src.  The phase is the
        # imaginary part of that complex product, rate.imag |src|^2 plus
        # rate.real * 0: a signed zero that can turn a -0 phase into +0
        scale, zero = rate
        np.abs(src, mod)
        np.square(mod, mod)
        np.multiply(scale, mod, mod)
        np.add(mod, zero, mod)
        np.cos(mod, cos)
        np.sin(mod, sin)
        np.multiply(src, rot, out)

    def advance(values: np.ndarray, out: np.ndarray, steps: int) -> None:
        rotate(values, field, half)
        for _ in range(steps - 1):
            for call in linear:
                call()
            rotate(flowed, field, full)
        for call in linear:
            call()
        rotate(flowed, out, half)

    return advance


def _rk4(hopping: Stencil, lam: float, dt: float) -> Stepper:
    """Classical fourth-order steps on the raw right-hand side of states of
    the stencil's dims (one box, or several packed end to end), in arrays
    allocated here once, the hopping action running through the stencil's
    buffered form.

    The stages are gradients g with the -i of the right-hand side folded
    into the step scalars -i dt/2, -i dt and -i dt/6; multiplying by -i only
    swaps and negates components, so that is exact but for the sign of a
    zero, which y + increment absorbs.
    The increment ((g1 + 2 g2) + 2 g3) + g4 accumulates in one array, and a
    block's intermediate steps are written into out.  Every product runs
    with out= in the operand order of the plain expressions, so the bits
    equal theirs whatever temporaries numpy would elide.
    """
    apply, dims = hopping.buffered(), hopping.dims
    grad, stage, increment = np.empty((3, *dims), dtype=np.complex128)
    # lam |psi|^2 in the real parts of a complex array whose imaginary parts
    # stay +0: the value a product with psi would cast it to, without the
    # cast buffer numpy allocates on every such call
    weight = np.zeros(dims, dtype=np.complex128)
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


def _rk4_stepper(pot: HoppingPotential, shape: LatticeShape, lam: float, dt: float) -> Stepper:
    """RK4 steps on one box."""
    return _rk4(_checked_stencil(pot, shape), lam, dt)


_STEPPERS = {"strang": _strang_stepper, "rk4": _rk4_stepper}


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

    for j in range(1, len(times)):
        advance(values[j - 1], values[j], stride)
        if not np.isfinite(values[j]).all():
            _replay(advance, values[j - 1], values[j], stride, (j - 1) * stride, dt)
    # every row is checked above, and the frozen buffer is stored uncopied
    return Trajectory._checked(shape, frozen(times), frozen(values), dt, stride)


def _replay(advance: Stepper, src: np.ndarray, dst: np.ndarray, steps: int, done: int,
            dt: float) -> None:
    """Advance src by steps single steps into dst, steps done + 1 ... done +
    steps of a run, checking each: raises BlowUpError at the first
    non-finite one."""
    spares = np.empty((2, *src.shape), dtype=np.complex128)
    for k in range(1, steps + 1):
        out = dst if k == steps else spares[k % 2]
        advance(src, out, 1)
        if not np.isfinite(out).all():
            step = done + k
            raise BlowUpError(time=step * dt, step=step)
        src = out


def integrate_packed(fields: Sequence[FieldL], pot: HoppingPotential, config: SchemeConfig,
                     on_row: Callable[[np.ndarray], None]) -> list[BlowUpError | None]:
    """Advance several fields of one dimension to t_end with RK4, as one
    packed state, and return per field the BlowUpError integrate would raise
    on it, or None.

    The state is the fields' values laid end to end, each row-major at its
    offset of lattice.box_starts; every box gets the bits integrate gives it.
    Nothing is stored: on_row is called on the state at t = 0 and at every
    snapshot time, in an array that the run then overwrites.  Finiteness is
    checked per box at each snapshot: a box gone non-finite is replayed alone
    from the snapshot before, with integrate's stepper and checks, and, when
    the replay raises, zeroed for the rest of the run, where it stays zero
    and raises no warning.
    """
    if config.scheme != "rk4":
        raise ValueError(f"a packed run needs scheme rk4, got {config.scheme!r}")
    shapes = [field.shape for field in fields]
    starts = box_starts(shapes)
    dt, stride = config.dt, config.snapshot_stride
    hopping = _checked_stencil(pot, *shapes)
    advance = _rk4(hopping, config.lam, dt)
    steps = config.n_steps()
    rows = np.empty((2, starts[-1]), dtype=np.complex128)
    # the rows in the stencil's dims: a lone box's own
    states = rows.reshape(2, *hopping.dims)
    np.concatenate([field.values.ravel() for field in fields], out=rows[0])
    errors: list[BlowUpError | None] = [None] * len(fields)
    on_row(rows[0])
    for j in range(1, steps // stride + 1):
        prev, row = rows[(j - 1) % 2], rows[j % 2]
        advance(states[(j - 1) % 2], states[j % 2], stride)
        if not np.isfinite(row).all():
            finite = np.logical_and.reduceat(np.isfinite(row), starts[:-1])
            for b in np.flatnonzero(~finite):
                shape, box = shapes[b], slice(starts[b], starts[b + 1])
                try:
                    _replay(_rk4_stepper(pot, shape, config.lam, dt), prev[box].reshape(shape.dims),
                            row[box].reshape(shape.dims), stride, (j - 1) * stride, dt)
                except BlowUpError as err:
                    errors[b] = err
                    row[box] = 0.0
        on_row(row)
    return errors


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


def _duhamel_terms(traj: Trajectory, x: Sequence[int], t: float):
    """(m, idx, increment, weights): t = t_m, x's array index, psi_t(x) -
    psi_0(x) and the quadrature weights over snapshots j <= m.  None at t = 0."""
    m = traj.time_index(t)
    idx = traj.shape.index(x)
    if m == 0:
        return None
    increment = traj.values[(m, *idx)] - traj.values[(0, *idx)]
    return m, idx, increment, _quadrature_weights(m, traj.spacing)


def duhamel_defect_first(traj: Trajectory, pot: HoppingPotential, lam: float,
                         x: Sequence[int], t: float) -> complex:
    """psi_t(x) - psi_0(x) + i * integral_0^t G_x(psi_s) ds, signed.

    G_x is evaluated on the kernel's neighbourhood of x alone, over all
    snapshots j <= m at once, with the bits of _gradient_values at x.
    """
    terms = _duhamel_terms(traj, x, t)
    if terms is None:
        return 0.0j
    m, idx, increment, weights = terms
    stack = traj.values[:m + 1]
    psi = stack[(slice(None), *idx)]
    g = _checked_stencil(pot, traj.shape).at(stack, idx) + lam * (np.abs(psi) ** 2) * psi
    return complex(increment + 1j * np.sum(weights * g))


def duhamel_defect_second(traj: Trajectory, pot: HoppingPotential, lam: float,
                          x: Sequence[int], t: float) -> complex:
    """psi_t(x) - psi_0(x) + i t G_x(psi_0) - integral_0^t (t-s) P_x(psi_s) ds.

    P_x is evaluated on the sites within twice the kernel range of x alone,
    over all snapshots j <= m at once, with the bits of _second_values at x.
    """
    terms = _duhamel_terms(traj, x, t)
    if terms is None:
        return 0.0j
    m, idx, increment, weights = terms
    apply = _checked_stencil(pot, traj.shape)
    p = _second_at(apply, lam, traj.values[:m + 1], idx)
    g0 = _gradient_values(apply, lam, traj.values[0])[idx]
    return complex(increment + 1j * t * g0 - np.sum(weights * ((t - traj.times[:len(p)]) * p)))


def subsample(traj: Trajectory, factor: int) -> Trajectory:
    """Coarser snapshot view of the same run (every factor-th snapshot);
    its times and values are views of traj's, not checked again.

    Requires the snapshot count to cover t_end at the coarser spacing.
    """
    if factor < 1 or (len(traj) - 1) % factor != 0:
        raise ValueError(f"cannot subsample {len(traj)} snapshots by {factor}")
    return Trajectory._checked(traj.shape, traj.times[::factor], traj.values[::factor], traj.dt,
                               traj.stride * factor)
