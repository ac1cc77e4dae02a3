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
Strang's linear flow runs on one of three routes.  A box of at most
_DENSE_SITES sites applies the taps u = exp(-i dt A) e_0, summed in extended
precision and rounded once, those below 2^-60 of the largest dropped, in
real space, with the bits of the BLAS zgemv kernel: so a step moves nothing
past their reach r (4 sites in d = 1 at dt = 1e-3), as the exact flow moves
almost nothing faster than a finite speed.  A larger box calls numpy's
pocketfft gufuncs, with the bits of np.fft, around exp(-i dt disp) at the
box side n, or, where n's prime factors make that slow, around the kept
taps' transform at a smooth length m >= n + 2 r, on the field wrap-padded
and cropped back (_fourier_length).

One loop (_run) drives both entry points: integrate steps one box into a
buffer of all its snapshots, integrate_packed several boxes of one dimension
with RK4 as one packed state, through the one stencil resolved for all of
them, into a ring of two rows that a callback reads at each snapshot, nothing
stored.  Each box gets the bits integrate gives it, and a packed step costs
about one box's numpy calls.  Finiteness is checked once per row; a box gone
non-finite replays its block alone, one single step at a time, and fails at
the first non-finite step, or, ending finite, keeps the replayed row: a
merged phase lam |psi|^2 dt can overflow where two half phases do not.
integrate raises the failure; integrate_packed returns it per box and zeroes
the box, and the loop stops once every box has failed.  The snapshots form
one read-only array (n, *dims) of a Trajectory; computations over them run
on `Trajectory.blocks` of about 2^14 sites, so their temporaries stay small.
Its times are not stored but derived from the step grid, t_j = j * stride *
dt, so every snapshot time is on the grid that time_index reads.  The stack
is checked once: row by row in integrate, or whole by lattice.field_rows in
the constructor for outside data.

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

from .hopping import (HoppingPotential, Stencil, _row_sum, clipped_table, dispersion,
                      require_fits, stencil)
from .lattice import (DataError, FieldL, FieldRows, LatticeShape, box_starts, field_rows,
                      frozen, neighbor_table, read_only)

# a stepper advances `steps` steps from `values`, writing the result into
# `out` (an array of the same shape that does not overlap `values`)
Stepper = Callable[[np.ndarray, np.ndarray, int], None]

SCHEMES = ("strang", "rk4")

# sites per block of Trajectory.blocks (256 KiB of complex values); bounds
# the temporaries of a computation over all snapshots, whatever their count
_STACK_SITES = 1 << 14
# a Strang box of at most this many sites runs its linear flow from its taps
# in real space (_linear_taps, _tap_flow), a larger one as Fourier passes.
# Step time against the passes at the box side, standard Laplacian, dt =
# 1e-3, one BLAS thread, shared 2-core host, best of 7: d = 1 windows of 9
# taps 0.47x at 199 sites, 0.65x at 201, 0.35x at 601; d = 2, the circulant
# of 81 taps, 0.96x at 169, 1.40x at 225; d = 3, the circulant of all taps,
# 0.69x at 125, 1.83x at 343.  So the value holds for the circulants of d >=
# 2; d = 1 windows would win beyond it.  The passes pad to the length m of
# _fft_length where its cost says that pays.  us a step at side n -> at m,
# same host, best of 4 processes each: d = 1 257 -> 270 39.3 -> 15.2, 2001 ->
# 2025 103 -> 80; d = 2 43 -> 54 149 -> 86, 129 -> 144 1105 -> 664.  The rule
# keeps sides 65 (d = 2), 17 and 33 (d = 3) of the large-box workload
_DENSE_SITES = 200
# the taps kept: those of at least this fraction of the largest; at dt = 1e-3
# the standard Laplacian's beyond distance 4 are below J_5(1e-3) = 2.6e-19
_KEEP = 2.0 ** -60
# the tap flow gathers windows when the box has at least this many sites
# per kept tap, else runs the circulant.  Per step, as above: windows about
# 1.5 us + 1.1 ns per site and tap, the circulant 0.3 ns per site squared;
# they meet near 13 taps at 65 sites, 25-30 at 129, 38 at 169, 40 at 199
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
    """Snapshots of one run on the uniform grid t_j = j * stride * dt; snapshot
    j is values[j], one read-only array (n, *dims) checked once: here, by
    lattice.field_rows, or row by row by the integrate call that made it."""

    shape: LatticeShape
    values: np.ndarray
    dt: float
    stride: int

    def __post_init__(self) -> None:
        values = read_only(np.asarray(self.values, dtype=np.complex128))
        field_rows(self.shape, values)
        if len(values) == 0:
            raise DataError("a trajectory needs at least one snapshot")
        if not 0 < self.dt < math.inf:
            raise DataError(f"dt must be finite and > 0, got {self.dt}")
        if self.stride < 1:
            raise DataError(f"stride must be >= 1, got {self.stride}")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)

    @cached_property
    def times(self) -> np.ndarray:
        """t_j = j * stride * dt, read-only; the bits of integrate's step times."""
        return frozen(np.arange(len(self)) * self.stride * self.dt)

    @property
    def spacing(self) -> float:
        return self.dt * self.stride

    def time_index(self, t: float) -> int:
        """Index of a grid time; rejects off-grid times."""
        idx = int(round(t / self.spacing))
        if idx < 0 or idx >= len(self) or abs(self.times[idx] - t) > 1e-9 * max(1.0, abs(t)):
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
    def _checked(cls, shape: LatticeShape, values: np.ndarray, dt: float, stride: int
                 ) -> Trajectory:
        """A Trajectory over read-only values that already hold what the
        constructor checks, built without scanning them again."""
        traj = object.__new__(cls)
        traj.__dict__.update(shape=shape, values=values, dt=dt, stride=stride)
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


def second_time_derivative(field: FieldL, pot: HoppingPotential, lam: float) -> np.ndarray:
    """The five-term polynomial giving d^2 psi/dt^2 pointwise.

    Depends on values within twice the kernel range of each site.
    """
    return _second_values(_checked_stencil(pot, field.shape), lam, field.values)


def _fourier_passes(values: np.ndarray
                    ) -> tuple[list[Callable[[], None]], list[Callable[[], None]]]:
    """fftn and ifftn of an array of one side on every axis, in place, as
    numpy's pocketfft gufunc calls bound once: (forward, inverse).

    Like np.fft.fftn and ifftn, with their bits, they make one call per axis,
    last first, the inverse scaled by 1/side on each, without their wrapper:
    0-d float64 scales, and views that move each pass's axis last, the
    gufunc's default core axis, as an axes keyword costs a slower call and an
    allocation.  The gufunc reads each row whole before it writes it, so its
    out may be its input.
    """
    views = [np.moveaxis(values, axis, -1) for axis in reversed(range(values.ndim))]
    one, scale = np.array(1.0), np.array(1.0 / values.shape[-1])
    return ([partial(_pocketfft.fft, view, one, view) for view in views],
            [partial(_pocketfft.ifft, view, scale, view) for view in views])


def _horner_plan(pot: HoppingPotential, dt: float, bound: float = 2.0 ** -126
                 ) -> tuple[int, int] | None:
    """(s, K) of _linear_taps' sum: the least s with theta = |dt| |alpha|_1 /
    2^s <= 1/2, the least K with l1 remainder 2 theta^(K+1) / (K+1)! <= bound;
    None where dt |alpha|_1 overflows."""
    norm = abs(dt) * float(np.abs(pot.coeffs).sum())
    if not math.isfinite(norm):
        return None
    squarings = 0
    while math.ldexp(norm, -squarings) > 0.5:
        squarings += 1
    theta = math.ldexp(norm, -squarings)
    degree, rest = 0, 2.0 * theta
    while rest > bound:
        degree += 1
        rest *= theta / (degree + 1)
    return squarings, degree


def _linear_taps(pot: HoppingPotential, shape: LatticeShape, dt: float) -> np.ndarray:
    """The taps u = exp(-i dt A) e_0 of the linear flow on the box, at the
    sites (the origin at the centre), rounded once to complex128 from a sum
    in clongdouble, those below _KEEP max |u| set to zero.

    The sum is Horner's Taylor sum at dt / 2^s to degree K (_horner_plan),
    each hopping action a sum over the kernel's neighbour table, then s
    squarings by the circulant, its table built only then.  With x86's
    64-bit significands every tap measured within one unit in the last place
    of the exact box flow, most of them its correct rounding.  A negative dt
    gives the conjugate taps.  An overflowing dt |alpha|_1 gives NaN taps,
    all kept, so the first step is non-finite."""
    plan = _horner_plan(pot, dt)
    if plan is None:
        return np.full(shape.dims, np.nan, dtype=np.complex128)
    squarings, degree = plan
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
    if _WINDOW_RATIO * len(kept) > len(taps):
        return [partial(np.dot, taps[neighbor_table(shape, sites)], src, dst)]
    windows = np.empty((len(taps), len(kept)), dtype=np.complex128)
    # the take method, positionally, mode "clip", as in hopping.Stencil, with
    # the table, C-ordered, which it reads uncopied
    return [partial(src.take, neighbor_table(shape, sites[kept]), None, windows, "clip"),
            partial(np.dot, windows, taps[kept], dst)]


def _fft_length(n: int, d: int, low: int) -> int:
    """The 7-smooth length m >= low of least cost m^d times the sum of m's
    prime factors, smallest on ties, where that cost is below n's; else n."""
    def cost(m: int) -> int:
        total, rest = 0, m
        for p in range(2, math.isqrt(m) + 1):
            while rest % p == 0:
                total, rest = total + p, rest // p
        return m ** d * (total + (rest > 1) * rest)
    smooth = {1}
    for p in (2, 3, 5, 7):
        smooth = {s * p**k for s in smooth for k in range(low.bit_length() + 1)
                  if s * p**k < 2 * low}
    return min([k for k in smooth if k >= low] + [n], key=lambda k: (cost(k), k != n, k))


def _fourier_length(pot: HoppingPotential, shape: LatticeShape, dt: float
                    ) -> tuple[int, np.ndarray | None]:
    """(m, taps): the FFT length _fft_length(n, d, n + 2 r) of Strang's
    Fourier route on a box of side n and, where m > n, the kept taps of reach
    r, built on the least box holding their Horner support.  Where the taps
    need squarings, that box does not fit inside n, or padding does not pay
    at the reach of a tail below _KEEP / 3 (the largest tap is above 1/3), m
    is n and no taps are built."""
    n, d, plan = shape.side, shape.d, _horner_plan(pot, dt)
    if plan is None or plan[0]:
        return n, None
    support, bound = plan[1] * pot.range, _horner_plan(pot, dt, _KEEP / 3)[1] * pot.range
    if 2 * support >= n or _fft_length(n, d, n + 2 * bound) == n:
        return n, None
    taps = _linear_taps(pot, LatticeShape(d, support), dt)
    reach = int(np.abs(np.argwhere(taps) - support).max())
    cut = (slice(support - reach, support + reach + 1),) * d
    return _fft_length(n, d, n + 2 * reach), taps[cut]


def _strang_stepper(pot: HoppingPotential, shape: LatticeShape, lam: float, dt: float) -> Stepper:
    """Strang steps on raw values: half onsite rotation, then per step the full
    linear flow and a full rotation, the last one a half rotation.

    The linear flow is a fixed list of calls bound once to arrays allocated
    here: np.dot by the taps (_tap_flow) into a second array, or the Fourier
    passes in place around phase * spectrum, on the field array or on the
    padded one, gathered by one take and copied back cropped.  A vanishing
    dispersion makes the list empty: onsite runs carry no rounding from a
    linear flow.

    A rotation by exp(rate |psi|^2) at an imaginary rate is computed from
    its real phase theta: cos theta and sin theta go into the real and
    imaginary parts of one array, the bits numpy's complex exp gives for a
    zero real part, with no complex cast and no complex exp.  The products
    keep the operand order of values * rotation and phase * spectrum: the
    last bit of a complex product depends on it.
    """
    disp = dispersion(pot, shape)
    flows = not np.all(disp == 0.0)
    real_space = flows and shape.volume <= _DENSE_SITES
    n, d, m, taps, phase = shape.side, shape.d, shape.side, None, None
    # before the work arrays, which then reuse their temporaries' freed memory
    # instead of leaving it as holes in the heap for the stepper's lifetime;
    # the Fourier multiplier: exp(-i dt disp), or the taps' transform at m
    if real_space:
        taps = _linear_taps(pot, shape, dt)
    elif flows:
        m, taps = _fourier_length(pot, shape, dt)
        phase = np.exp(-1j * dt * disp) if m == n else None
    if m > n:
        reach = len(taps) // 2
        phase = np.fft.fftn(np.roll(np.pad(taps, (0, m - len(taps))), -reach, tuple(range(d))))
        # padded position p holds site p - reach, wrapped (unread past n + 2 reach)
        index = np.ravel_multi_index(np.ix_(*((np.arange(m) - reach) % n,) * d), shape.dims)
    half_rate = -0.5j * lam * dt
    # per rate: rate.imag and the signed zero rate.real * 0, which the phase
    # below adds; 0-d arrays, which numpy takes faster than Python floats
    half, full = ((np.array(rate.imag), np.array(rate.real * 0.0))
                  for rate in (half_rate, 2 * half_rate))
    mod = np.empty(shape.dims)
    field = np.empty(shape.dims, dtype=np.complex128)
    padded = field if m == n else np.empty((m,) * d, dtype=np.complex128)
    # the rotation's factor, in the padded array where there is one: idle then
    rot = np.empty_like(field) if m == n else padded.reshape(-1)[:shape.volume].reshape(shape.dims)
    cos, sin = rot.real, rot.imag
    # the calls of the linear flow, and the array they leave its result in
    linear: list[Callable[[], None]] = []
    flowed = field
    if real_space:
        flowed = np.empty_like(field)
        linear = _tap_flow(taps, shape, field, flowed)
    elif phase is not None:
        forward, inverse = _fourier_passes(padded)
        linear = [*forward, partial(np.multiply, phase, padded, padded), *inverse]
        if m > n:
            # copied back cropped: a ufunc on a strided view buffers per call
            linear = [partial(field.reshape(-1).take, index, None, padded, "clip"), *linear,
                      partial(np.copyto, field, padded[(slice(reach, reach + n),) * d])]

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


def _stepper(pot: HoppingPotential, shapes: Sequence[LatticeShape], config: SchemeConfig
             ) -> Stepper:
    """The config's stepper on states of the given boxes: RK4 over one box or
    several packed end to end (the stencil's dims), or Strang on one box."""
    if config.scheme == "strang":
        (shape,) = shapes
        return _strang_stepper(pot, shape, config.lam, config.dt)
    return _rk4(_checked_stencil(pot, *shapes), config.lam, config.dt)


def _run(fields: Sequence[FieldL], pot: HoppingPotential, config: SchemeConfig, n: int,
         on_row: Callable[[np.ndarray], None] | None = None
         ) -> tuple[list[BlowUpError | None], np.ndarray]:
    """Advance the fields to t_end as one state, their values end to end at
    their lattice.box_starts offsets, snapshot j in rows[j % n] and read by
    on_row, if given; return per field the BlowUpError of its own run, or
    None, and the rows.  A box that fails is zeroed and stays zero, raising
    no warning; the checks and the replay are the module docstring's."""
    shapes = [field.shape for field in fields]
    starts = box_starts(shapes)
    dt, stride = config.dt, config.snapshot_stride
    advance = _stepper(pot, shapes, config)
    # after the stepper and its temporaries: allocated before them, the rows
    # raised large-box's peak RSS by 2.8 MB
    rows = np.empty((n, starts[-1]), dtype=np.complex128)
    # the rows in the stepper's dims: a lone box's own
    states = rows.reshape(n, *(shapes[0].dims if len(shapes) == 1 else (starts[-1],)))
    np.concatenate([field.values.ravel() for field in fields], out=rows[0])
    errors: list[BlowUpError | None] = [None] * len(fields)
    if on_row is not None:
        on_row(rows[0])
    for j in range(1, config.n_steps() // stride + 1):
        row = rows[j % n]
        advance(states[(j - 1) % n], states[j % n], stride)
        if not np.isfinite(row).all():
            prev = rows[(j - 1) % n]
            for b in np.flatnonzero(~np.logical_and.reduceat(np.isfinite(row), starts[:-1])):
                shape, box = shapes[b], slice(starts[b], starts[b + 1])
                replay = advance if len(shapes) == 1 else _stepper(pot, [shape], config)
                src, dst = prev[box].reshape(shape.dims), row[box].reshape(shape.dims)
                spares = np.empty((2, *shape.dims), dtype=np.complex128)
                for k in range(1, stride + 1):
                    out = dst if k == stride else spares[k % 2]
                    replay(src, out, 1)
                    if not np.isfinite(out).all():
                        bad = (j - 1) * stride + k
                        errors[b] = BlowUpError(time=bad * dt, step=bad)
                        row[box] = 0.0
                        break
                    src = out
        if on_row is not None:
            on_row(row)
        if None not in errors:
            break
    return errors, rows


def integrate(field0: FieldL, pot: HoppingPotential, config: SchemeConfig) -> Trajectory:
    """Advance field0 to t_end, one stepper call per snapshot row of one
    buffer, and raise the BlowUpError of its first non-finite step."""
    shape, stride = field0.shape, config.snapshot_stride
    n = config.n_steps() // stride + 1
    (error,), values = _run([field0], pot, config, n)
    if error is not None:
        raise error
    # every row is checked by _run, and the frozen buffer is stored uncopied
    return Trajectory._checked(shape, frozen(values.reshape(n, *shape.dims)), config.dt, stride)


def integrate_packed(fields: Sequence[FieldL], pot: HoppingPotential, config: SchemeConfig,
                     on_row: Callable[[np.ndarray], None]) -> list[BlowUpError | None]:
    """Advance several fields of one dimension to t_end with RK4, as one
    packed state, and return per field the BlowUpError integrate would raise
    on it, or None.

    Every box gets the bits integrate gives it (_run), and a box that blows
    up is zeroed for the rest of the run.  Nothing is stored: on_row reads
    the state at t = 0 and at every snapshot time, until every box has
    failed, in an array the run then overwrites.
    """
    if config.scheme != "rk4":
        raise ValueError(f"a packed run needs scheme rk4, got {config.scheme!r}")
    return _run(fields, pot, config, 2, on_row)[0]


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
    its values are a view of traj's, not checked again.

    Requires the snapshot count to cover t_end at the coarser spacing.
    """
    if factor < 1 or (len(traj) - 1) % factor != 0:
        raise ValueError(f"cannot subsample {len(traj)} snapshots by {factor}")
    return Trajectory._checked(traj.shape, traj.values[::factor], traj.dt, traj.stride * factor)
