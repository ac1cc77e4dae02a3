"""Finite-range symmetric hopping kernels and their periodic action.

A hopping potential couples each site to sites within sup-norm distance
`range` of it and plays the role of the Laplacian.  On a periodic box it
acts by wrapped convolution; because the kernel is real and even, the
action diagonalizes over Fourier modes with a real dispersion relation,
which the split-step integrator uses.  A HoppingPotential is finite and
even by construction: the constructor raises KernelError otherwise, and
fixes the row-major nonzero offsets once, so no caller checks it again.

In position space the kernel acts through one stencil, resolved once per
(kernel, box) by `stencil`: the box-restricted offsets and coefficients are
fixed then.  A call applies them over the trailing d axes of its argument,
so a stack of fields of shape (n, *dims) is convolved in one call; a time
stepper applies them through `Stencil.buffered`, in arrays it allocates once,
with the same bits.  `packed_stencil` applies the same terms, with each
box's bits, to several boxes of one dimension laid end to end in one flat
array, so that one call serves them all.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Sequence

import numpy as np

from .lattice import FieldL, LatticeShape, Site, box_starts, frozen, read_only, wrap_coord


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
    return FieldL(field.shape, frozen(convolve_values(pot, field.shape, field.values)))


def convolve_values(pot: HoppingPotential, shape: LatticeShape, values: np.ndarray) -> np.ndarray:
    """Stencil of the box-restricted kernel on a raw array; fixed offset order."""
    return stencil(pot, shape)(values)


@dataclass(frozen=True, eq=False)
class Stencil:
    """A kernel's action on one box, out(x) = sum_y alpha(y) values(x - y),
    in the layout `stencil` resolved.

    Called on an array, it acts on the trailing d axes and returns a new
    array, so a stack of fields of shape (n, *dims) is convolved slice by
    slice.  `buffered` gives the same action, with the same bits, on one
    field of the box through work arrays allocated once.  Either way the
    values are copied into a wrap-padded array, an accumulator is zeroed,
    and every term coeff * slice is written into one term array and added
    to it.
    """

    d: int
    side: int
    width: int
    span: int
    used: int
    blocks: tuple[tuple[tuple, tuple], ...]
    terms: tuple[tuple[np.ndarray, int], ...]

    def _bind(self, lead: tuple[int, ...]) -> Callable[[np.ndarray], np.ndarray]:
        """The action on arrays of shape lead + dims, through work arrays and
        views of them fixed here; it returns a contiguous one of them, which
        the next call overwrites."""
        d, used = self.d, self.used
        padded = np.empty(lead + (self.width,) * d, dtype=np.complex128)
        out = np.empty(lead + (self.span,), dtype=np.complex128)
        term = np.empty(lead + (used,), dtype=np.complex128)
        blocks = [(padded[target], source) for target, source in self.blocks]
        flat = padded.reshape(lead + (-1,))
        products = [(coeff, flat[..., start:start + used]) for coeff, start in self.terms]
        acc = out[..., :used]
        if d == 1:
            box = result = out
        else:
            # the box sites are strided in out; copied into a contiguous
            # result, they cost callers' ufuncs no buffer
            box = out.reshape(lead + (self.side,) + (self.width,) * (d - 1))[
                (Ellipsis, slice(None), *(slice(0, self.side),) * (d - 1))]
            result = np.empty(lead + (self.side,) * d, dtype=np.complex128)

        def apply(values: np.ndarray) -> np.ndarray:
            # copied from values, never from padded itself: a copy between
            # interleaved views of one array would go through a temporary
            for target, source in blocks:
                np.copyto(target, values[source])
            _accumulate(acc, term, products)
            if result is not out:
                np.copyto(result, box)
            return result

        return apply

    def __call__(self, values: np.ndarray) -> np.ndarray:
        return self._bind(values.shape[: values.ndim - self.d])(values)

    def at(self, values: np.ndarray, site: tuple[int, ...]) -> np.ndarray:
        """The action at one box site, given by its array index, over the
        leading axes of values: a call's terms, in its order and with its
        bits, read from the site's neighbourhood alone."""
        reach = (self.width - self.side) // 2
        padded = (self.width,) * self.d
        flat = values.reshape(values.shape[:values.ndim - self.d] + (-1,))
        # a call sums term (coeff, start) at the site from padded point
        # start + k, k the site's entry of out, which holds box site
        # (point - reach) mod side per axis
        k = np.ravel_multi_index(site, padded)
        acc = np.zeros(flat.shape[:-1], dtype=np.complex128)
        for coeff, start in self.terms:
            point = np.unravel_index(start + k, padded)
            source = np.ravel_multi_index([(c - reach) % self.side for c in point],
                                          (self.side,) * self.d)
            acc += coeff * flat[..., source]
        return acc

    def buffered(self) -> Callable[[np.ndarray], np.ndarray]:
        """The action on one field of the box, in work arrays allocated here
        once; it returns one of them, which the next call overwrites."""
        return self._bind(())


def stencil(pot: HoppingPotential, shape: LatticeShape) -> Stencil:
    """The box-restricted kernel's action, resolved once for (pot, shape).

    The layout is fixed here: the wrap-padding of the trailing d axes by
    reach = min(range, L), and per offset of clipped_offsets, in that order,
    the start of its shifted slice of the flattened padded array, so each
    term is one contiguous slice.  The returned Stencil applies it.
    """
    d, side = shape.d, shape.side
    reach = min(pot.range, shape.L)
    width = side + 2 * reach
    strides = [width ** (d - 1 - a) for a in range(d)]
    # out[k] holds the point at flat padded index first + k, first being box
    # site 0; as (side, width, ..., width) it has box site i at out[i], and
    # its first `used` entries run up to the last box site
    first = reach * sum(strides)
    span = side * strides[0]
    used = span - (width - side) * sum(strides[1:])
    # per axis the (padded, values) ranges of the box, the low pad and the
    # high pad: the low pad holds the box's last `reach` rows and the high
    # pad its first; their products, 3^d blocks, fill the whole padded
    # array, corners included
    ranges = [(slice(reach, reach + side), slice(0, side)),
              (slice(0, reach), slice(side - reach, side)),
              (slice(side + reach, width), slice(0, reach))]
    blocks = tuple(tuple((Ellipsis, *part) for part in zip(*combo))
                   for combo in itertools.product(ranges, repeat=d))
    return Stencil(d=d, side=side, width=width, span=span, used=used, blocks=blocks,
                   terms=_terms(pot, shape, strides, first))


def _terms(pot: HoppingPotential, shape: LatticeShape, strides: list[int], first: int
           ) -> tuple[tuple[np.ndarray, int], ...]:
    """Per offset of clipped_offsets, in that order: its coefficient and the
    start of its shifted slice of a flat padded array with the given strides
    whose point `first` is box site 0."""
    # each coefficient as a 0-d complex array: the value numpy casts a Python
    # float to, which numpy takes with less overhead
    return tuple(
        (np.array(coeff, dtype=np.complex128), first - sum(c * s for c, s in zip(offset, strides)))
        for offset, coeff in clipped_offsets(pot, shape)
    )


def _accumulate(acc: np.ndarray, term: np.ndarray,
                products: list[tuple[np.ndarray, np.ndarray]]) -> None:
    """acc = sum of coeff * view over products, in order, from zero."""
    acc.fill(0.0)
    for coeff, view in products:
        np.multiply(coeff, view, out=term)
        np.add(acc, term, out=acc)


def packed_stencil(pot: HoppingPotential, shapes: Sequence[LatticeShape]
                   ) -> Callable[[np.ndarray], np.ndarray]:
    """The kernel's action on several boxes of dimension pot.d at once, in
    work arrays allocated here once; it takes and returns their values laid
    end to end in one flat array, each box row-major at its offset of
    `box_starts(shapes)`, and the array it returns is overwritten by the next
    call.

    Each box sits in a padded frame, side + 2 range points along its first
    axis and the widest box's padded width along the others, every point
    holding the box site it wraps to.  The frames lie end to end in one flat
    array, so all boxes share strides and each offset is one shift of that
    array.  One precomputed gather fills the frames, the terms of `stencil`
    accumulate over all of them at once, and one more gather reads the box
    sites back.  Every box must fit the kernel, so all boxes share one term
    list, and each box site sums the terms `stencil` of its box sums, in the
    same order, with the same bits.
    """
    for shape in shapes:
        require_fits(pot, shape)
    d, reach = pot.d, pot.range
    width = max(shape.side for shape in shapes) + 2 * reach
    strides = [width ** (d - 1 - a) for a in range(d)]
    fill, read, size = [], [], 0
    for shape, start in zip(shapes, box_starts(shapes)):
        frame = (shape.side + 2 * reach,) + (width,) * (d - 1)
        wrapped = np.ix_(*((np.arange(n) - reach) % shape.side for n in frame))
        fill.append(start + np.ravel_multi_index(wrapped, shape.dims).ravel())
        # box site i is frame point i + reach, whose sum lands at i . strides
        sites = np.indices(shape.dims).reshape(d, -1)
        read.append(size + np.ravel_multi_index(tuple(sites), frame))
        size += math.prod(frame)
    fill, read = np.concatenate(fill), np.concatenate(read)
    first = reach * sum(strides)
    used = size - 2 * first
    padded = np.empty(size, dtype=np.complex128)
    acc, term = np.empty((2, used), dtype=np.complex128)
    result = np.empty(len(read), dtype=np.complex128)
    products = [(coeff, padded[start:start + used])
                for coeff, start in _terms(pot, shapes[0], strides, first)]

    def apply(values: np.ndarray) -> np.ndarray:
        # mode "clip": the indices are in range, and the default mode would
        # buffer out on every call
        np.take(values, fill, out=padded, mode="clip")
        _accumulate(acc, term, products)
        np.take(acc, read, out=result, mode="clip")
        return result

    return apply


@dataclass(frozen=True)
class Dispersion:
    """Real frequency per Fourier mode, stored in FFT index order.

    Mode k (integer coordinates, any representatives modulo the side) lives
    at array index k mod side per axis.
    """

    shape: LatticeShape
    values: np.ndarray

    def omega(self, k: Site) -> float:
        if len(k) != self.shape.d:
            raise ValueError(f"expected {self.shape.d} mode coordinates, got {len(k)}")
        idx = tuple(int(c) % self.shape.side for c in k)
        return float(self.values[idx])


def dispersion(pot: HoppingPotential, shape: LatticeShape) -> Dispersion:
    """omega(k) = sum_y alpha(y) cos(2 pi k.y / side); real by symmetry."""
    require_fits(pot, shape)
    side = shape.side
    mode_grids = np.meshgrid(*(np.arange(side),) * shape.d, indexing="ij", sparse=True)
    omega = np.zeros(shape.dims)
    for offset, coeff in pot.nonzero_offsets():
        phase = sum(o * g for o, g in zip(offset, mode_grids))
        omega += coeff * np.cos((2.0 * np.pi / side) * phase)
    return Dispersion(shape=shape, values=omega)


def convolve_fourier(pot: HoppingPotential, field: FieldL) -> FieldL:
    """Convolution through the Fourier diagonalization; validation route."""
    disp = dispersion(pot, field.shape)
    out = np.fft.ifftn(disp.values * np.fft.fftn(field.values))
    return FieldL(field.shape, frozen(out))


def clipped_offsets(pot: HoppingPotential, shape: LatticeShape) -> list[tuple[Site, float]]:
    """Kernel offsets restricted to box representatives.

    The periodic kernel is the plain kernel precomposed with the embedding,
    so offsets outside {-L, ..., L}^d simply never occur; no folding.  When
    the kernel fits the box this is nonzero_offsets, in the same order.
    Every stencil and the Metropolis neighbour table go through here, so a
    kernel of another dimension than the box is rejected here.
    """
    if pot.d != shape.d:
        raise KernelError(f"kernel dimension {pot.d} != lattice dimension {shape.d}")
    reach = min(pot.range, shape.L)
    return [
        (offset, coeff)
        for offset, coeff in pot.nonzero_offsets()
        if all(abs(c) <= reach for c in offset)
    ]


def save_potential(pot: HoppingPotential, path) -> None:
    """Kernel file: 'd ell' header, one 'y1 .. yd alpha' line per nonzero offset."""
    with open(path, "w", newline="\n") as fh:
        fh.write(f"{pot.d} {pot.range}\n")
        for offset, coeff in pot.nonzero_offsets():
            coords = " ".join(str(c) for c in offset)
            fh.write(f"{coords} {coeff!r}\n")


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


def wrapped_difference(shape: LatticeShape, x: Site, y: Site) -> Site:
    """Representative of x - y in the box; the argument the kernel sees."""
    return tuple(wrap_coord(int(a) - int(b), shape.side) for a, b in zip(x, y))
