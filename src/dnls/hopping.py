"""Finite-range symmetric hopping kernels and their periodic action.

A hopping potential couples each site to sites within sup-norm distance
`range` of it and plays the role of the Laplacian.  On a periodic box it
acts by wrapped convolution; because the kernel is real and even, the
action diagonalizes over Fourier modes with a real dispersion relation,
which the split-step integrator uses.  A HoppingPotential is finite and
even by construction: the constructor raises KernelError otherwise, and
fixes the row-major nonzero offsets once, so no caller checks it again.

In position space the kernel acts through one stencil, resolved by
`stencil` once per (kernel, boxes) and memoised: on one box, or on several
boxes of one dimension laid end to end in one flat array, so that one call
serves them all.  The layout is fixed then: the box-restricted offsets,
grouped by coefficient value, a padded frame per box and the two gather
indices that fill the frames and read the box sites back.  A call applies
it over leading axes, so a stack of fields of shape (n, *dims) is
convolved in one call; a time stepper applies it through
`Stencil.buffered`, in arrays it allocates once, with the same bits.  The
frames are scaled once per distinct coefficient, not once per offset, and
each offset's term is a shifted slice of its coefficient's scaled frames.
So the work arrays hold one frames-size array per distinct coefficient,
the frames themselves scaled in place for the last one: two for the
Laplacians, about half the offset count for a kernel whose values repeat
only as y and -y.  Single-site sums read clipped_table and add its rows up
in _row_sum, with the same bits.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Sequence

import numpy as np

from .lattice import FieldL, LatticeShape, Site, box_starts, frozen, neighbor_table, read_only


class KernelError(ValueError):
    """Kernel violates symmetry/finiteness or does not fit the box."""


@dataclass(frozen=True)
class HoppingPotential:
    """Real, finite, even kernel on offsets [-range, range]^d, zero outside.

    coeffs is indexed by offset + range along each axis.  Construction
    raises KernelError for a non-finite or asymmetric kernel.
    """

    d: int
    range: int
    coeffs: np.ndarray
    _offsets: tuple[tuple[Site, float], ...] = dataclass_field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        if self.range < 1:
            raise ValueError(f"range must be >= 1, got {self.range}")
        arr = np.asarray(self.coeffs, dtype=np.float64)
        expected = (2 * self.range + 1,) * self.d
        if arr.shape != expected:
            raise ValueError(f"coeffs must have shape {expected}, got {arr.shape}")
        arr = read_only(arr)
        if not np.isfinite(arr).all():
            raise KernelError("kernel has non-finite coefficients")
        if not np.array_equal(arr, arr[(slice(None, None, -1),) * self.d]):
            raise KernelError("kernel is not symmetric under offset negation")
        idx = np.argwhere(arr != 0.0)
        offsets = zip((idx - self.range).tolist(), arr[tuple(idx.T)].tolist())
        object.__setattr__(self, "coeffs", arr)
        object.__setattr__(self, "_offsets", tuple((tuple(o), c) for o, c in offsets))

    def at(self, offset: Site) -> float:
        """Kernel value at an offset, zero outside the declared range."""
        if len(offset) != self.d:
            raise ValueError(f"expected {self.d} coordinates, got {len(offset)}")
        if any(abs(int(c)) > self.range for c in offset):
            return 0.0
        return float(self.coeffs[tuple(int(c) + self.range for c in offset)])

    def norm_inf(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    def nonzero_offsets(self) -> list[tuple[Site, float]]:
        """(offset, coefficient) pairs in a fixed row-major order."""
        return list(self._offsets)

    def fingerprint(self) -> str:
        """Stable content hash, used in run manifests."""
        h = hashlib.sha256()
        h.update(f"{self.d} {self.range}".encode())
        h.update(np.ascontiguousarray(self.coeffs).tobytes())
        return h.hexdigest()[:16]


def standard_laplacian(d: int) -> HoppingPotential:
    """Kernel 1 at the origin and -1/(2d) on the sup-norm unit shell.

    Read literally, the unit shell in d >= 2 includes diagonal offsets
    (8 neighbors in d=2) and the kernel does not annihilate constants
    there; see nearest_neighbor_laplacian for the axis-only variant.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    coeffs = np.full((3,) * d, -1.0 / (2 * d))
    coeffs[(1,) * d] = 1.0
    return HoppingPotential(d=d, range=1, coeffs=coeffs)


def nearest_neighbor_laplacian(d: int) -> HoppingPotential:
    """Axis-neighbor variant: -1/(2d) at the 2d unit vectors only."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    coeffs = np.zeros((3,) * d)
    coeffs[(1,) * d] = 1.0
    center = [1] * d
    for axis in range(d):
        for step in (-1, 1):
            idx = list(center)
            idx[axis] += step
            coeffs[tuple(idx)] = -1.0 / (2 * d)
    return HoppingPotential(d=d, range=1, coeffs=coeffs)


def zero_potential(d: int, range: int = 1) -> HoppingPotential:
    """Identically zero kernel; turns the dynamics purely onsite."""
    return HoppingPotential(d=d, range=range, coeffs=np.zeros((2 * range + 1,) * d))


def require_fits(pot: HoppingPotential, shape: LatticeShape) -> None:
    if pot.d != shape.d:
        raise KernelError(f"kernel dimension {pot.d} != lattice dimension {shape.d}")
    if 2 * pot.range + 1 > shape.side:
        raise KernelError(
            f"kernel of range {pot.range} does not fit in a box of side {shape.side}"
        )


def convolve(pot: HoppingPotential, field: FieldL) -> FieldL:
    """Wrapped convolution: out(x) = sum_y alpha(x - y) field(y)."""
    require_fits(pot, field.shape)
    return FieldL(field.shape, frozen(stencil(pot, field.shape)(field.values)))


@dataclass(frozen=True, eq=False)
class Stencil:
    """A kernel's action, out(x) = sum_y alpha(y) values(x - y), on one box
    or on several boxes laid end to end, in the layout `stencil` resolved.

    It takes arrays of shape lead + dims and acts over the trailing axes:
    dims is the box's for one box and (total site count,) for several, each
    box row-major at its offset of `box_starts`; a call raises ValueError on
    any other trailing shape.  A call computes in complex128.  Each box sits
    in a padded frame whose every point holds the box site it wraps to, and
    the frames lie end to end in one flat array, so each offset is one shift
    of it: the hot action's layout, for which a gather of neighbor_table
    rows and one BLAS product took 2.2x the time at d = 2 L = 64 and 2.5x at
    d = 3 L = 16.  A call gathers the frames from the values through `fill`,
    multiplies them once by each distinct coefficient of `coeffs`, into a
    frames-size array of its own for each but the last and in place for the
    last, zeroes an accumulator, adds every term, a shifted slice of its
    coefficient's array, to it in `terms` order, and gathers the box sites
    back through `read`, shaped as dims.  So each box site sums the terms of
    its box's clipped_offsets in that order from zero, with the bits of the
    plain sum, whatever the layout.
    """

    dims: tuple[int, ...]
    fill: np.ndarray
    read: np.ndarray
    used: int
    coeffs: tuple[np.ndarray, ...]
    terms: tuple[tuple[int, int], ...]

    def _bind(self, lead: tuple[int, ...]) -> Callable[[np.ndarray], np.ndarray]:
        """The action on arrays of shape lead + dims, through work arrays and
        views of them fixed here; it returns one of them, which the next call
        overwrites."""
        # writeable copies: take copies a read-only index on every call
        fill, read, used, flat = self.fill.copy(), self.read.copy(), self.used, lead + (-1,)
        # per coefficient, the frames scaled by it; the last array (there is
        # one even with no coefficient) holds the frames themselves, scaled in
        # place after the others have read them
        scaled = np.empty((max(len(self.coeffs), 1),) + lead + fill.shape, dtype=np.complex128)
        padded = scaled[-1]
        scales = list(zip(self.coeffs, scaled))
        views = [scaled[group][..., start:start + used] for group, start in self.terms]
        acc = np.empty(lead + (used,), dtype=np.complex128)
        # read takes every accumulated point, in order, for one d = 1 box or a
        # kernel of reach 0: the result is then acc itself, in read's shape
        back = read.size != used
        result = (np.empty(lead + read.shape, dtype=np.complex128) if back
                  else acc.reshape(lead + read.shape))

        def apply(values: np.ndarray) -> np.ndarray:
            # the take method, positionally: np.take and keywords cost more
            # per call; mode "clip": the indices are in range, and the
            # default mode would buffer out on every call
            values.reshape(flat).take(fill, -1, padded, "clip")
            for coeff, out in scales:
                np.multiply(coeff, padded, out=out)
            acc.fill(0.0)
            for view in views:
                np.add(acc, view, out=acc)
            if back:
                acc.take(read, -1, result, "clip")
            return result

        return apply

    def __call__(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.complex128)
        lead = values.shape[: values.ndim - len(self.dims)]
        # the gather clips its indices, so it cannot catch a wrong size itself
        if values.shape[len(lead):] != self.dims:
            raise ValueError(f"values of shape {values.shape} do not end in the stencil's "
                             f"dims {self.dims}")
        return self._bind(lead)(values)

    def buffered(self) -> Callable[[np.ndarray], np.ndarray]:
        """The action on one state of shape dims, in work arrays allocated
        here once; it returns one of them, which the next call overwrites."""
        return self._bind(())


# resolved layouts kept by `stencil`, the least recently used dropped first.
# A run reuses few: a bench workload resolves at most 3 distinct layouts and
# scripts/reference_artifacts.py 11, with at most 6 others used between two
# uses of one, so none is dropped at this size
_LAYOUTS = 16


def stencil(pot: HoppingPotential, *shapes: LatticeShape) -> Stencil:
    """The box-restricted kernel's action on one box, or on several of one
    dimension laid end to end, resolved once per (kernel, boxes).

    Every box must clip the kernel to the same offsets, so that all share
    one term list; KernelError otherwise.  Resolved layouts are memoised,
    keyed by the clipped offsets and the boxes, and share their read-only
    index arrays; each bound form of one has work arrays of its own.
    """
    clipped = [tuple(clipped_offsets(pot, shape)) for shape in shapes]
    if any(offsets != clipped[0] for offsets in clipped):
        raise KernelError("the boxes clip the kernel to different offsets")
    return _layout(clipped[0], shapes)


@functools.lru_cache(maxsize=_LAYOUTS)
def _layout(offsets: tuple[tuple[Site, float], ...], shapes: tuple[LatticeShape, ...]
            ) -> Stencil:
    """The layout of `stencil`: per box a frame of side + 2 reach points
    along its first axis and the widest box's padded width along the others,
    reach being the largest offset coordinate, so every term of every box
    site reads inside its frame; the distinct coefficients, in order of
    first use; and per offset, in order, its coefficient's index and the
    start of its shifted slice of the flat frames."""
    d = shapes[0].d
    reach = max((abs(c) for offset, _ in offsets for c in offset), default=0)
    width = max(shape.side for shape in shapes) + 2 * reach
    strides = [width ** (d - 1 - a) for a in range(d)]
    fill, read, size = [], [], 0
    for shape, start in zip(shapes, box_starts(shapes)):
        frame = (shape.side + 2 * reach,) + (width,) * (d - 1)
        wrapped = np.ix_(*((np.arange(n) - reach) % shape.side for n in frame))
        fill.append(start + np.ravel_multi_index(wrapped, shape.dims).ravel())
        # box site i is frame point i + reach, whose sum lands at i . strides
        read.append(size + np.ravel_multi_index(tuple(np.indices(shape.dims)), frame))
        size += math.prod(frame)
    first = reach * sum(strides)
    index: dict[float, int] = {}
    terms = tuple((index.setdefault(coeff, len(index)),
                   first - sum(c * s for c, s in zip(offset, strides)))
                  for offset, coeff in offsets)
    # each coefficient as a 0-d complex array: the value numpy casts a Python
    # float to, which numpy takes with less overhead
    coeffs = tuple(frozen(np.array(coeff, dtype=np.complex128)) for coeff in index)
    one = len(shapes) == 1
    return Stencil(dims=shapes[0].dims if one else (int(box_starts(shapes)[-1]),),
                   fill=_index(np.concatenate(fill)),
                   read=_index(read[0] if one else np.concatenate([r.ravel() for r in read])),
                   used=size - 2 * first, coeffs=coeffs, terms=terms)


def _index(values) -> np.ndarray:
    """A read-only index array, in the dtype np.take takes without a cast."""
    return frozen(np.array(values, dtype=np.intp))


def dispersion(pot: HoppingPotential, shape: LatticeShape) -> np.ndarray:
    """omega(k) = sum_y alpha(y) cos(2 pi k.y / side), real by symmetry, in
    FFT index order: mode k lives at array index k mod side per axis."""
    require_fits(pot, shape)
    side = shape.side
    mode_grids = np.meshgrid(*(np.arange(side),) * shape.d, indexing="ij", sparse=True)
    omega = np.zeros(shape.dims)
    for offset, coeff in pot.nonzero_offsets():
        phase = sum(o * g for o, g in zip(offset, mode_grids))
        omega += coeff * np.cos((2.0 * np.pi / side) * phase)
    return omega


def convolve_fourier(pot: HoppingPotential, field: FieldL) -> FieldL:
    """Convolution through the Fourier diagonalization; validation route."""
    omega = dispersion(pot, field.shape)
    out = np.fft.ifftn(omega * np.fft.fftn(field.values))
    return FieldL(field.shape, frozen(out))


def clipped_offsets(pot: HoppingPotential, shape: LatticeShape) -> list[tuple[Site, float]]:
    """Kernel offsets restricted to box representatives.

    The periodic kernel is the plain kernel precomposed with the embedding,
    so offsets outside {-L, ..., L}^d simply never occur; no folding.  When
    the kernel fits the box this is nonzero_offsets, in the same order.
    Every stencil and every neighbour table go through here, so a kernel of
    another dimension than the box is rejected here.
    """
    if pot.d != shape.d:
        raise KernelError(f"kernel dimension {pot.d} != lattice dimension {shape.d}")
    reach = min(pot.range, shape.L)
    return [
        (offset, coeff)
        for offset, coeff in pot.nonzero_offsets()
        if all(abs(c) <= reach for c in offset)
    ]


def clipped_table(pot: HoppingPotential, shape: LatticeShape
                  ) -> tuple[tuple[float, ...], np.ndarray]:
    """The clipped_offsets coefficients and the lattice.neighbor_table of
    their offsets, in that order: coefficient times value summed over row x
    from zero has the bits of a stencil call at x.  The zero kernel gives
    none and empty rows.  Memoised as the layouts of `stencil` are, the
    table read-only: a Duhamel defect reads a row or two of it."""
    return _table(tuple(clipped_offsets(pot, shape)), shape)


@functools.lru_cache(maxsize=_LAYOUTS)
def _table(offsets: tuple, shape: LatticeShape) -> tuple[tuple[float, ...], np.ndarray]:
    return tuple(c for _, c in offsets), frozen(neighbor_table(shape, [o for o, _ in offsets]))


def _row_sum(coeffs: Sequence[float], values: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] values[..., k], from zero in order: with coeffs and
    the values read through rows of a clipped_table, the hopping action at
    those rows' sites, over any leading axes, with the bits of a stencil
    call there."""
    acc = np.zeros(values.shape[:-1], dtype=np.complex128)
    for k, coeff in enumerate(coeffs):
        acc += coeff * values[..., k]
    return acc


def load_potential(path) -> HoppingPotential:
    """Load a kernel file; omitted offsets are zero; the constructor enforces
    finiteness and symmetry."""
    with open(path, "r") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise KernelError(f"bad kernel header in {path}")
        d, rng = int(header[0]), int(header[1])
        coeffs = np.zeros((2 * rng + 1,) * d)
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if len(parts) != d + 1:
                raise KernelError(f"bad kernel line: {line!r}")
            offset = tuple(int(c) for c in parts[:d])
            if any(abs(c) > rng for c in offset):
                raise KernelError(f"offset {offset} outside declared range {rng}")
            coeffs[tuple(c + rng for c in offset)] = float(parts[d])
    return HoppingPotential(d=d, range=rng, coeffs=coeffs)
