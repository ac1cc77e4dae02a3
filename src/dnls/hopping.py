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
fixed then, the offsets grouped by coefficient value.  A call applies them
over the trailing d axes of its argument, so a stack of fields of shape
(n, *dims) is convolved in one call; a time stepper applies them through
`Stencil.buffered`, in arrays it allocates once, with the same bits.
`packed_stencil` applies the same terms, with each box's bits, to several
boxes of one dimension laid end to end in one flat array, so that one call
serves them all.  Either way the padded field is scaled once per distinct
coefficient, not once per offset, and each offset's term is a shifted slice
of its coefficient's scaled field.  So the work arrays hold one padded-size
array per distinct coefficient, the padded field itself scaled in place for
the last one: two for the Laplacians, about half the offset count for a
kernel whose values repeat only as y and -y.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Sequence

import numpy as np

from .lattice import FieldL, LatticeShape, Site, box_starts, frozen, read_only


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
    values are copied into a wrap-padded array, which is multiplied once by
    each distinct coefficient of `coeffs`, into a padded-size array of its
    own for each but the last and in place for the last, so the work arrays
    hold one padded-size array per coefficient; an accumulator is zeroed,
    and every term, a shifted slice of its coefficient's array, is added to
    it in `terms` order.
    """

    d: int
    side: int
    width: int
    span: int
    used: int
    blocks: tuple[tuple[tuple, tuple], ...]
    coeffs: tuple[np.ndarray, ...]
    terms: tuple[tuple[int, int], ...]

    def _bind(self, lead: tuple[int, ...]) -> Callable[[np.ndarray], np.ndarray]:
        """The action on arrays of shape lead + dims, through work arrays and
        views of them fixed here; it returns a contiguous one of them, which
        the next call overwrites."""
        d, used = self.d, self.used
        scaled = _scaled(self.coeffs, lead + (self.width ** d,))
        flat = scaled[-1]
        padded = flat.reshape(lead + (self.width,) * d)
        out = np.empty(lead + (self.span,), dtype=np.complex128)
        blocks = [(padded[target], source) for target, source in self.blocks]
        scales = list(zip(self.coeffs, scaled))
        views = [scaled[group][..., start:start + used] for group, start in self.terms]
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
            _accumulate(acc, flat, scales, views)
            if result is not out:
                np.copyto(result, box)
            return result

        return apply

    def __call__(self, values: np.ndarray) -> np.ndarray:
        return self._bind(values.shape[: values.ndim - self.d])(values)

    def gather(self, site: tuple[int, ...], read: Callable[[int], np.ndarray],
               lead: tuple[int, ...]) -> np.ndarray:
        """The action at one box site, given by its array index, on values
        of shape lead + dims that read(source) gives at each flat box index
        source: a call's terms, in its order and with its bits, each reading
        the value at its source alone."""
        reach = (self.width - self.side) // 2
        padded = (self.width,) * self.d
        # a call sums term (coeff, start) at the site from padded point
        # start + k, k the site's entry of out, which holds box site
        # (point - reach) mod side per axis
        k = np.ravel_multi_index(site, padded)
        starts = np.array([start for _, start in self.terms], dtype=np.intp)
        points = np.unravel_index(starts + k, padded)
        sources = np.ravel_multi_index([(c - reach) % self.side for c in points],
                                       (self.side,) * self.d)
        acc = np.zeros(lead, dtype=np.complex128)
        for (group, _), source in zip(self.terms, sources.tolist()):
            acc += self.coeffs[group] * read(source)
        return acc

    def at(self, values: np.ndarray, site: tuple[int, ...]) -> np.ndarray:
        """The action at one box site, given by its array index, over the
        leading axes of values, read from the site's neighbourhood alone."""
        flat = values.reshape(values.shape[:values.ndim - self.d] + (-1,))
        return self.gather(site, lambda source: flat[..., source], flat.shape[:-1])

    def buffered(self) -> Callable[[np.ndarray], np.ndarray]:
        """The action on one field of the box, in work arrays allocated here
        once; it returns one of them, which the next call overwrites."""
        return self._bind(())


def stencil(pot: HoppingPotential, shape: LatticeShape) -> Stencil:
    """The box-restricted kernel's action, resolved once for (pot, shape).

    The layout is fixed here: the wrap-padding of the trailing d axes by
    reach = min(range, L), the distinct coefficients, and per offset of
    clipped_offsets, in that order, its coefficient's index and the start of
    its shifted slice of the flattened padded array, so each term is one
    contiguous slice of its coefficient's scaled copy of that array.  The
    returned Stencil applies it.
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
    coeffs, terms = _terms(pot, shape, strides, first)
    return Stencil(d=d, side=side, width=width, span=span, used=used, blocks=blocks,
                   coeffs=coeffs, terms=terms)


def _terms(pot: HoppingPotential, shape: LatticeShape, strides: list[int], first: int
           ) -> tuple[tuple[np.ndarray, ...], tuple[tuple[int, int], ...]]:
    """The distinct coefficients, in order of first use, and per offset of
    clipped_offsets, in that order: its coefficient's index and the start of
    its shifted slice of a flat padded array with the given strides whose
    point `first` is box site 0."""
    index: dict[float, int] = {}
    terms = tuple(
        (index.setdefault(coeff, len(index)),
         first - sum(c * s for c, s in zip(offset, strides)))
        for offset, coeff in clipped_offsets(pot, shape)
    )
    # each coefficient as a 0-d complex array: the value numpy casts a Python
    # float to, which numpy takes with less overhead
    return tuple(np.array(coeff, dtype=np.complex128) for coeff in index), terms


def _scaled(coeffs: tuple[np.ndarray, ...], shape: tuple[int, ...]) -> list[np.ndarray]:
    """Per coefficient, in order, the array of the given shape that takes
    its multiple of the padded values, from one allocation; the last array
    (there is one even with no coefficient) is the padded array itself,
    scaled in place after the others have read it, so an apply must refill
    it first."""
    return list(np.empty((max(len(coeffs), 1),) + shape, dtype=np.complex128))


def _accumulate(acc: np.ndarray, padded: np.ndarray,
                scales: list[tuple[np.ndarray, np.ndarray]], views: list[np.ndarray]) -> None:
    """scaled = coeff * padded over scales, in order, then acc = sum of
    views, in order, from zero; each view is a shifted slice of its
    coefficient's scaled array, so it holds the bits of that coefficient
    times the same slice of padded."""
    for coeff, scaled in scales:
        np.multiply(coeff, padded, out=scaled)
    acc.fill(0.0)
    for view in views:
        np.add(acc, view, out=acc)


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
    same order, with the same bits.  As in `Stencil`, the frames are scaled
    once per distinct coefficient, so the work arrays hold one array of the
    frames' size per coefficient.
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
    coeffs, terms = _terms(pot, shapes[0], strides, first)
    scaled = _scaled(coeffs, (size,))
    padded = scaled[-1]
    acc = np.empty(used, dtype=np.complex128)
    result = np.empty(len(read), dtype=np.complex128)
    scales = list(zip(coeffs, scaled))
    views = [scaled[group][start:start + used] for group, start in terms]

    def apply(values: np.ndarray) -> np.ndarray:
        # mode "clip": the indices are in range, and the default mode would
        # buffer out on every call
        np.take(values, fill, out=padded, mode="clip")
        _accumulate(acc, padded, scales, views)
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
