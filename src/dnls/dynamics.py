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
sites Strang runs its linear flow in real space, from its taps u =
exp(-i dt A) e_0, summed once in extended precision and rounded once, those
below 2^-60 of the largest dropped: a gather of each site's windows and one
product with the kept taps, or, where the taps are many for the box, one
product with their circulant, both read through lattice.neighbor_table,
with the bits of the BLAS zgemv kernel.
So a step moves nothing past the kept taps' reach (4 sites in d = 1 at dt
= 1e-3), as the exact flow moves almost nothing faster than a finite speed.
On a larger box it calls numpy's pocketfft gufuncs directly, with the bits of
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
first and second order integral reformulations of the equation, summed at
one site from its neighbour table row; they mix quadrature error (order 4
in the snapshot spacing, composite Simpson) with the scheme's own defect,
and refinement studies separate the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Iterator, Sequence

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

from .hopping import HoppingPotential, Stencil, clipped_table, dispersion, require_fits, stencil
from .lattice import (DataError, FieldL, FieldRows, LatticeShape, box_starts, frozen,
                      neighbor_table, read_only)

# a stepper advances `steps` steps from `values`, writing the result into
# `out` (an array of the same shape that does not overlap `values`)
Stepper = Callable[[np.ndarray, np.ndarray, int], None]

SCHEMES = ("strang", "rk4")

# sites per block of Trajectory.blocks (256 KiB of complex values); bounds
# the temporaries of a computation over all snapshots, whatever their count
_STACK_SITES = 1 << 14
# a Strang box of at most this many sites runs its linear flow from its taps
# in real space (_linear_taps, _tap_flow), a larger one as Fourier passes.
# Step time against the Fourier passes on the same box, standard Laplacian,
# dt = 1e-3, one BLAS thread, shared 2-core host, best of 7: in d = 1 the
# 9-tap windows cost 0.47x at 199 sites, 0.65x at 201, 0.71x at 301 and
# 0.35x at 601; in d = 2 the circulant of 81 taps 0.96x at 169, 1.40x at 225
# and 1.47x at 289; in d = 3 the circulant of all taps 0.69x at 125 and
# 1.83x at 343.  scripts/step_cost.py agrees per route: 17.4 us a step at
# d = 1 L = 99 (windows) against 28.1 at L = 100 (Fourier).  So the value
# holds for the circulants of d >= 2; d = 1 windows would win beyond it.
_DENSE_SITES = 200
# the taps kept: those of at least this fraction of the largest.  At dt =
# 1e-3 the standard Laplacian's taps at distance 5 and beyond are below
# 2.6e-19, the Bessel tail J_5(1e-3)
_KEEP = 2.0 ** -60
# the tap flow gathers windows when the box has at least this many sites
# per kept tap, and runs the circulant otherwise.  Per step, one BLAS
# thread, shared 2-core host, best of 7: windows cost about 1.5 us + 1.1 ns
# per site and tap, the circulant about 0.3 ns per site squared; they meet
# near 13 taps at 65 sites, 25-30 at 129, 38 at 169 and 40 at 199, and at
# 169 sites 81 taps take 9.4 us as the circulant and 17 us as windows
_WINDOW_RATIO = 5


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


def _linear_taps(pot: HoppingPotential, shape: LatticeShape, dt: float) -> np.ndarray:
    """The taps u = exp(-i dt A) e_0 of the linear flow on the box, at the
    sites (the origin at the centre), rounded once to complex128 from a sum
    in clongdouble, those below _KEEP max |u| set to zero.

    The sum is Horner's Taylor sum at dt / 2^s, the least s with theta = dt
    |alpha|_1 / 2^s <= 1/2, to the degree whose l1 remainder bound 2
    theta^(K+1) / (K+1)! is below 2^-126, each hopping action a sum over the
    kernel's neighbour table, then s squarings by the circulant, its table
    built only then.  With x86's 64-bit significands every tap measured
    within one unit in the last place of the exact box flow, most of them
    its correct rounding.  An overflowing dt |alpha|_1 gives NaN taps, all
    kept, so the first step is non-finite."""
    norm = dt * float(np.abs(pot.coeffs).sum())
    if not math.isfinite(norm):
        return np.full(shape.dims, np.nan, dtype=np.complex128)
    squarings = 0
    while math.ldexp(norm, -squarings) > 0.5:
        squarings += 1
    theta = math.ldexp(norm, -squarings)
    degree, rest = 0, 2.0 * theta
    while rest > 2.0 ** -126:
        degree += 1
        rest *= theta / (degree + 1)
    coeffs, table = clipped_table(pot, shape)
    coeffs = np.array(coeffs, dtype=np.clongdouble)
    step = np.clongdouble(-1j) * np.longdouble(math.ldexp(dt, -squarings))
    unit = np.zeros(shape.dims, dtype=np.clongdouble)
    unit[(shape.L,) * shape.d] = 1
    taps = unit
    for k in range(degree, 0, -1):
        taps = unit + (step / k) * (taps.ravel()[table] @ coeffs).reshape(shape.dims)
    circulant = neighbor_table(shape, list(shape.sites())) if squarings else None
    for _ in range(squarings):
        flat = taps.ravel()
        taps = (flat[circulant] @ flat).reshape(shape.dims)
    taps = taps.astype(np.complex128)
    size = np.abs(taps)
    taps[size < _KEEP * size.max()] = 0.0
    return taps


def _tap_flow(taps: np.ndarray, shape: LatticeShape, src: np.ndarray, dst: np.ndarray
              ) -> list[Callable[[], None]]:
    """The calls that write the flow of src by the taps into dst (two arrays
    of the box's dims): with few taps, a gather of src into its windows, a
    (V, n_taps) array allocated here, and their product with the kept taps;
    with many, the product of the taps' circulant with src.  Both read
    through the neighbour table of the taps' sites."""
    taps, src, dst = taps.ravel(), src.reshape(-1), dst.reshape(-1)
    kept, sites = np.flatnonzero(taps), np.array(list(shape.sites()))
    if not _windowed(len(kept), len(taps)):
        return [partial(np.dot, taps[neighbor_table(shape, sites)], src, dst)]
    windows = np.empty((len(taps), len(kept)), dtype=np.complex128)
    # the take method, positionally, mode "clip", as in hopping.Stencil, with
    # the table, C-ordered, which it reads uncopied
    return [partial(src.take, neighbor_table(shape, sites[kept]), None, windows, "clip"),
            partial(np.dot, windows, taps[kept], dst)]


def _windowed(n_taps: int, volume: int) -> bool:
    """Whether the tap flow of a box runs as windows rather than the circulant."""
    return _WINDOW_RATIO * n_taps <= volume


def _strang_stepper(pot: HoppingPotential, shape: LatticeShape, lam: float, dt: float) -> Stepper:
    """Strang steps on raw values: half onsite rotation, then per step the full
    linear flow and a full rotation, the last one a half rotation.

    The linear flow is a fixed list of calls bound to two arrays allocated
    here once.  A box of at most _DENSE_SITES sites runs it from its taps,
    built once (_linear_taps, _tap_flow), np.dot into the spare array, whose
    bits come from the BLAS zgemv kernel; the next rotation reads the spare
    array and writes back into the field array.  A larger box runs the
    Fourier passes around the product linear_phase * spectrum, with the bits
    of np.fft: the passes run with no Python frame of their own, their
    scales are 0-d float64 arrays built once, each runs over the gufunc's
    default core axis, the last, of views that move its axis there, and out
    is passed positionally.  A vanishing dispersion makes the list empty, so
    purely onsite runs carry no rounding from the linear flow.

    A rotation by exp(rate |psi|^2) at an imaginary rate is computed from
    its real phase theta: cos theta and sin theta go into the real and
    imaginary parts of one array, the bits numpy's complex exp gives for a
    zero real part, with no complex cast and no complex exp.  The products
    keep the operand order of values * rotation and linear_phase * spectrum:
    the last bit of a complex product depends on it.
    """
    disp = dispersion(pot, shape)
    flows = not np.all(disp == 0.0)
    real_space = flows and shape.volume <= _DENSE_SITES
    # before the work arrays, which then reuse their temporaries' freed memory
    # instead of leaving it as holes in the heap for the stepper's lifetime
    taps = _linear_taps(pot, shape, dt) if real_space else None
    linear_phase = np.exp(-1j * dt * disp) if flows and not real_space else None
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
    if taps is not None:
        linear, flowed = _tap_flow(taps, shape, field, spare), spare
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


def _row_sum(coeffs: Sequence[float], values: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] values[..., k], from zero in order: over the leading
    axes, the hopping action at a site from the values read through its
    neighbour table row, with the bits of a stencil call there."""
    acc = np.zeros(values.shape[:-1], dtype=np.complex128)
    for k, coeff in enumerate(coeffs):
        acc += coeff * values[..., k]
    return acc


def _duhamel_terms(traj: Trajectory, pot: HoppingPotential, x: Sequence[int], t: float):
    """(increment, weights, coeffs, table, flat, i): for t = t_m, psi_t(x) -
    psi_0(x), the quadrature weights and rows of flat values of snapshots j <=
    m, the kernel's clipped_table and x's flat index.  None at t = 0."""
    m = traj.time_index(t)
    i = np.ravel_multi_index(traj.shape.index(x), traj.shape.dims)
    if m == 0:
        return None
    require_fits(pot, traj.shape)
    flat = traj.values[:m + 1].reshape(m + 1, -1)
    return (flat[m, i] - flat[0, i], _quadrature_weights(m, traj.spacing),
            *clipped_table(pot, traj.shape), flat, i)


def duhamel_defect_first(traj: Trajectory, pot: HoppingPotential, lam: float,
                         x: Sequence[int], t: float) -> complex:
    """psi_t(x) - psi_0(x) + i * integral_0^t G_x(psi_s) ds, signed.

    G_x is evaluated on x's neighbour table row alone, over all snapshots
    j <= m at once, with the bits of _gradient_values at x.
    """
    terms = _duhamel_terms(traj, pot, x, t)
    if terms is None:
        return 0.0j
    increment, weights, coeffs, table, flat, i = terms
    psi = flat[:, i]
    g = _row_sum(coeffs, flat[:, table[i]]) + lam * (np.abs(psi) ** 2) * psi
    return complex(increment + 1j * np.sum(weights * g))


def duhamel_defect_second(traj: Trajectory, pot: HoppingPotential, lam: float,
                          x: Sequence[int], t: float) -> complex:
    """psi_t(x) - psi_0(x) + i t G_x(psi_0) - integral_0^t (t-s) P_x(psi_s) ds.

    P_x is evaluated on x's neighbour table row and the rows of its sites
    alone, the sites within twice the kernel range of x, over all snapshots
    j <= m at once, with the bits of _second_values at x.
    """
    terms = _duhamel_terms(traj, pot, x, t)
    if terms is None:
        return 0.0j
    increment, weights, coeffs, table, flat, i = terms
    psi, near = flat[:, i], flat[:, table[i]]
    conv = _row_sum(coeffs, near)
    twice = _row_sum(coeffs, _row_sum(coeffs, flat[:, table[table[i]]]))
    p = _second_terms(lam, psi, conv, twice, _row_sum(coeffs, np.abs(near) ** 2 * near))
    g0 = (conv + lam * (np.abs(psi) ** 2) * psi)[0]
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
