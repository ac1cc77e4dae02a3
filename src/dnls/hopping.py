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
fixed then, and every call applies them over the trailing d axes of its
argument, so a stack of fields of shape (n, *dims) is convolved in one call.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field as dataclass_field
from typing import Callable

import numpy as np

from .lattice import FieldL, LatticeShape, Site, frozen, read_only, wrap_coord


Stencil = Callable[[np.ndarray], np.ndarray]


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


def stencil(pot: HoppingPotential, shape: LatticeShape) -> Stencil:
    """The box-restricted kernel's action, resolved once for (pot, shape).

    The returned function acts on the trailing d axes of its argument, so a
    stack of fields of shape (n, *dims) is convolved slice by slice.  It
    wrap-pads those axes by reach = min(range, L), and then every offset of
    clipped_offsets, in that order, adds coeff times the shifted padded
    array into a zeroed output: out(x) = sum_y alpha(y) values(x - y).
    Shifts are taken on the flattened padded array, so each term is one
    contiguous slice; the output keeps the rows that hold box sites.
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
    full = (slice(None),) * d

    def along(axis: int, sl: slice) -> tuple:
        return (Ellipsis, *full[:axis], sl, *full[axis + 1:])

    # the box, then per axis two wrap slabs (target, source): the low pad
    # copies the box's last `reach` rows and the high pad its first; each
    # slab spans the axes padded before it, which fills the corners
    center = (Ellipsis, *(slice(reach, reach + side),) * d)
    low = (slice(0, reach), slice(side, side + reach))
    high = (slice(side + reach, width), slice(reach, 2 * reach))
    wraps = [(along(axis, target), along(axis, source))
             for axis in range(d) for target, source in (low, high)]
    terms = [
        (coeff, first - sum(c * s for c, s in zip(offset, strides)))
        for offset, coeff in clipped_offsets(pot, shape)
    ]
    crop = (Ellipsis, slice(None), *(slice(0, side),) * (d - 1))

    def apply(values: np.ndarray) -> np.ndarray:
        lead = values.shape[: values.ndim - d]
        padded = np.empty(lead + (width,) * d, dtype=values.dtype)
        padded[center] = values
        for target, source in wraps:
            padded[target] = padded[source]
        flat = padded.reshape(lead + (-1,))
        out = np.zeros(lead + (span,), dtype=np.complex128)
        acc = out[..., :used]
        for coeff, start in terms:
            acc += coeff * flat[..., start:start + used]
        if d == 1:
            return out
        return out.reshape(lead + (side,) + (width,) * (d - 1))[crop].copy()

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
