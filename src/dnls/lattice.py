"""Periodic lattice geometry, fields, and deterministic initial data.

The simulation box is the d-dimensional cube {-L, ..., L}^d with site
addition taken modulo the odd side length 2L+1.  Field values are stored
row-major over coordinates shifted to [0, 2L+1); the text dump format and
all FFT-based code rely on this order.

Initial data lives on the infinite lattice: a generator is a plain
function from Z^d sites to amplitudes, pure in the site (and its seed), so
that truncations to different box sizes agree on their overlap, which is
what every cross-L experiment requires.

A FieldL checks its values' size and finiteness and holds them read-only;
it copies a writeable array, so the builders freeze theirs first.  The one
other way to make FieldLs is wrap_rows, which wraps the rows of a whole stack
of fields checked once: by field_rows, or by the Trajectory holding it.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

Site = tuple[int, ...]
Generator = Callable[[Site], complex]


class InvalidSiteError(ValueError):
    """Site coordinates do not fit the lattice box."""


class DataError(ValueError):
    """Field data is malformed (wrong size, NaN or Inf values)."""


@dataclass(frozen=True)
class LatticeShape:
    """Geometry of the periodic box {-L, ..., L}^d.

    L = 0 (a single site) is allowed; it is needed by the single-site
    equilibrium sampler oracle.
    """

    d: int
    L: int

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        if self.L < 0:
            raise ValueError(f"half-width must be >= 0, got {self.L}")

    @property
    def side(self) -> int:
        return 2 * self.L + 1

    @property
    def volume(self) -> int:
        return self.side**self.d

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.side,) * self.d

    @property
    def site_axes(self) -> tuple[int, ...]:
        """The trailing d axes: the sites of a field, or of each field of a stack."""
        return tuple(range(-self.d, 0))

    def require_site(self, x: Sequence[int]) -> Site:
        """Validate and normalize a site to a tuple of ints."""
        site = tuple(int(c) for c in x)
        if len(site) != self.d or not all(-self.L <= c <= self.L for c in site):
            raise InvalidSiteError(f"site {x!r} outside {{-{self.L},...,{self.L}}}^{self.d}")
        return site

    def index(self, x: Sequence[int]) -> tuple[int, ...]:
        """ndarray index (coordinates shifted to [0, side)) of a valid site."""
        site = self.require_site(x)
        return tuple(c + self.L for c in site)

    def sites(self) -> Iterator[Site]:
        """All sites in storage order (row-major over shifted coordinates)."""
        return itertools.product(range(-self.L, self.L + 1), repeat=self.d)


def box_starts(shapes: Sequence[LatticeShape]) -> np.ndarray:
    """Where each box's sites start when the values of several boxes lie end
    to end in one flat array, each row-major, in the order given; the total
    site count last."""
    return np.cumsum([0] + [shape.volume for shape in shapes])


def frozen(arr: np.ndarray) -> np.ndarray:
    """arr, made read-only in place; a function returning a new field
    freezes the fresh array it wraps, so that FieldL stores it uncopied."""
    arr.setflags(write=False)
    return arr


def read_only(arr: np.ndarray) -> np.ndarray:
    """arr itself if it is read-only, else a read-only copy of it."""
    return frozen(arr.copy()) if arr.flags.writeable else arr


def wrap_coord(c: int, side: int) -> int:
    """Representative of c modulo side in [-(side-1)/2, (side-1)/2]."""
    half = (side - 1) // 2
    return (c + half) % side - half


def wrap_add(shape: LatticeShape, x: Sequence[int], y: Sequence[int]) -> Site:
    """Coordinatewise sum reduced modulo 2L+1 back into the box."""
    xs = shape.require_site(x)
    ys = shape.require_site(y)
    return tuple(wrap_coord(a + b, shape.side) for a, b in zip(xs, ys))


def torus_dist_inf(shape: LatticeShape, x: Sequence[int], y: Sequence[int]) -> int:
    """Minimum-image sup-norm distance on the torus; value in [0, L]."""
    xs = shape.require_site(x)
    ys = shape.require_site(y)
    dist = 0
    for a, b in zip(xs, ys):
        delta = abs(a - b)
        dist = max(dist, min(delta, shape.side - delta))
    return dist


def torus_distance_grid(shape: LatticeShape, center: Sequence[int]) -> np.ndarray:
    """Minimum-image sup-distance from center, over the whole box.

    At the origin this is the true-coordinate |x|_inf, since |x_i| <= L.
    """
    coords = np.arange(-shape.L, shape.L + 1)
    axes = []
    for c in shape.require_site(center):
        delta = np.abs(coords - c)
        axes.append(np.minimum(delta, shape.side - delta))
    return np.maximum.reduce(np.meshgrid(*axes, indexing="ij"))


def bracket_grid(shape: LatticeShape) -> np.ndarray:
    """<x>^2 = 1 + |x|_2^2 at the true coordinates of the box sites."""
    coords = np.arange(-shape.L, shape.L + 1).astype(np.float64)
    return 1.0 + sum(np.meshgrid(*(coords**2,) * shape.d, indexing="ij"))


def power_weight(shape: LatticeShape, p: float) -> np.ndarray:
    """<x>^(-p) at the true coordinates of the box sites, for any real p."""
    return bracket_grid(shape) ** (-p / 2.0)


def ball(shape: LatticeShape, x: Sequence[int], r: int) -> list[Site]:
    """All sites within torus sup-distance r of x, without duplicates."""
    if r < 0:
        raise ValueError(f"radius must be >= 0, got {r}")
    xs = shape.require_site(x)
    reach = min(r, shape.L)
    offsets = range(-reach, reach + 1)
    out: list[Site] = []
    for idx in np.ndindex((2 * reach + 1,) * shape.d):
        delta = tuple(offsets[i] for i in idx)
        out.append(tuple(wrap_coord(a + o, shape.side) for a, o in zip(xs, delta)))
    return out


@dataclass(frozen=True)
class FieldL:
    """Complex amplitude per lattice site; the state of the finite system.

    The value array is frozen after construction so snapshots can be shared
    across threads and trajectories without defensive copies.
    """

    shape: LatticeShape
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.complex128)
        if arr.shape != self.shape.dims:
            if arr.size == self.shape.volume:
                arr = arr.reshape(self.shape.dims)
            else:
                raise DataError(
                    f"expected {self.shape.volume} values for {self.shape}, got {arr.size}"
                )
        if not np.isfinite(arr).all():
            raise DataError("field contains non-finite values")
        object.__setattr__(self, "values", read_only(arr))

    def at(self, x: Sequence[int]) -> complex:
        return complex(self.values[self.shape.index(x)])

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0

    @classmethod
    def zero(cls, shape: LatticeShape) -> "FieldL":
        return cls(shape, np.zeros(shape.dims, dtype=np.complex128))


def field_rows(shape: LatticeShape, stack: np.ndarray) -> tuple[FieldL, ...]:
    """The rows of an (n, *shape.dims) stack as n FieldLs over its memory.

    The stack's shape and finiteness are checked once, as FieldL checks one
    field, and a writeable stack is copied first; no row is checked again.
    """
    stack = read_only(np.asarray(stack, dtype=np.complex128))
    if stack.shape[1:] != shape.dims:
        raise DataError(f"expected a stack of fields of shape {shape.dims}, got {stack.shape}")
    if not np.isfinite(stack).all():
        raise DataError("field contains non-finite values")
    return wrap_rows(shape, stack)


def wrap_rows(shape: LatticeShape, stack: np.ndarray) -> tuple[FieldL, ...]:
    """The rows of a read-only complex (n, *shape.dims) stack, already checked
    as field_rows checks one, as n FieldLs over its memory, checked no more."""
    fields = []
    for row in stack:
        field = object.__new__(FieldL)
        object.__setattr__(field, "shape", shape)
        object.__setattr__(field, "values", row)
        fields.append(field)
    return tuple(fields)


def regularized_abs(z: Sequence[int]) -> float:
    """<z> = (1 + |z|^2)^(1/2) with the Euclidean norm."""
    return math.sqrt(1.0 + sum(float(c) * float(c) for c in z))


def constant_generator(value: complex) -> Generator:
    value = complex(value)
    return lambda z: value


def point_source(amplitude: complex) -> Generator:
    """Amplitude at the origin of Z^d, zero elsewhere."""
    amplitude = complex(amplitude)
    return lambda z: 0.0j if any(z) else amplitude


def _site_uniforms(seed: int, z: Site) -> tuple[float, float]:
    """Two uniforms in [0, 1) derived from a keyed hash of the coordinates."""
    key = (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    payload = b",".join(str(c).encode("ascii") for c in z)
    digest = hashlib.blake2b(payload, digest_size=16, key=key).digest()
    a = int.from_bytes(digest[:8], "little")
    b = int.from_bytes(digest[8:], "little")
    return a / 2.0**64, b / 2.0**64


def hashed_noise_generator(
    seed: int,
    envelope_exponent: float = 0.0,
    amplitude: float = 1.0,
) -> Generator:
    """Seeded site-hash noise with magnitude <= amplitude * <z>^p.

    The modulus is amplitude * <z>^p * sqrt(u) with u uniform, the phase is
    uniform, both drawn from a counter-based hash of (seed, coordinates), so
    every box size sees the same underlying Z^d sample.
    """
    if amplitude < 0:
        raise ValueError("amplitude must be >= 0")
    p = float(envelope_exponent)
    if p < 0:
        raise ValueError(f"envelope exponent must be >= 0, got {p}")

    def gen(z: Site) -> complex:
        u_phase, u_radial = _site_uniforms(seed, z)
        modulus = amplitude * regularized_abs(z) ** p * math.sqrt(u_radial)
        return modulus * complex(math.cos(2 * math.pi * u_phase), math.sin(2 * math.pi * u_phase))

    return gen


def truncate(gen: Generator, shape: LatticeShape) -> FieldL:
    """Restrict a Z^d generator to the box: field(x) = gen(x) for x in the box."""
    values = np.fromiter((complex(gen(site)) for site in shape.sites()),
                         dtype=np.complex128, count=shape.volume)
    return FieldL(shape, frozen(values))


def embed_lookup(field: FieldL, z: Sequence[int]) -> complex:
    """Periodic extension: value at the representative of z modulo 2L+1."""
    shape = field.shape
    if len(z) != shape.d:
        raise InvalidSiteError(f"expected {shape.d} coordinates, got {len(z)}")
    rep = tuple(wrap_coord(int(c), shape.side) for c in z)
    return field.at(rep)


def dump_field(field: FieldL, path) -> None:
    """Write the text dump: 'd L' header, then 'x1 .. xd re im' per site.

    Floats are written with shortest round-trip precision; load_field
    restores the exact doubles.
    """
    shape = field.shape
    with open(path, "w", newline="\n") as fh:
        fh.write(f"{shape.d} {shape.L}\n")
        for site, v in zip(shape.sites(), field.values.flat):
            coords = " ".join(str(c) for c in site)
            fh.write(f"{coords} {float(v.real)!r} {float(v.imag)!r}\n")


def load_field(path) -> FieldL:
    with open(path, "r") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise DataError(f"bad field dump header in {path}")
        shape = LatticeShape(d=int(header[0]), L=int(header[1]))
        lines = fh.readlines()
        # checked before the allocation, which a header alone can make huge
        if len(lines) < shape.volume:
            raise DataError(f"expected {shape.volume} sites, found {len(lines)}")
        values = np.empty(shape.volume, dtype=np.complex128)
        for i, (line, site) in enumerate(zip(lines, shape.sites())):
            parts = line.split()
            if len(parts) != shape.d + 2:
                raise DataError(f"bad field dump line: {line!r}")
            coords = tuple(int(c) for c in parts[: shape.d])
            if coords != site:
                raise DataError(f"dump out of storage order: saw {coords}, expected {site}")
            values[i] = complex(
                float(parts[shape.d]), float(parts[shape.d + 1])
            )
    return FieldL(shape, frozen(values))
