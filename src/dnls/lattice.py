"""Periodic lattice geometry, fields, and deterministic initial data.

The simulation box is the d-dimensional cube {-L, ..., L}^d with site
addition taken modulo the odd side length 2L+1.  Field values are stored
row-major over coordinates shifted to [0, 2L+1); the text dump format and
all FFT-based code rely on this order.  neighbor_table is the one periodic
x - y on it, for every sum outside the stencil's padded frames.

Initial data lives on the infinite lattice: a generator is a plain
function from Z^d sites to amplitudes, pure in the site (and its seed), so
that truncations to different box sizes agree on their overlap, which is
what every cross-L experiment requires.

A FieldL checks its values' size and finiteness and holds them read-only;
it copies a writeable array, so the builders freeze theirs first.  The one
other way to make FieldLs is FieldRows, a view of a stack of fields checked
once (by field_rows, or by the Trajectory holding it) that wraps rows as read.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

Site = tuple[int, ...]
Generator = Callable[[Site], complex]

# sites per block of _row_blocks (256 KiB of complex values); bounds the
# temporaries of a computation over a whole stack, whatever its row count
_STACK_SITES = 1 << 14


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


def neighbor_table(shape: LatticeShape, offsets: Sequence[Sequence[int]]) -> np.ndarray:
    """The periodic x - y of the box, one encoding for every caller: a
    C-ordered intp array of shape (volume, len(offsets)) whose row x holds
    the flat index of x - offset, wrapped into the box, per offset in order.
    Offsets are any integer d-tuples (or an (n, d) array), the box's sites
    among them."""
    shifts = np.reshape(np.array(offsets, dtype=np.intp), (-1, shape.d)).T
    coords = np.ix_(*(np.arange(shape.side),) * shape.d)
    wrapped = tuple((c[..., None] - s) % shape.side for c, s in zip(coords, shifts))
    return np.ravel_multi_index(wrapped, shape.dims).reshape(shape.volume, -1)


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

    @classmethod
    def zero(cls, shape: LatticeShape) -> "FieldL":
        return cls(shape, np.zeros(shape.dims, dtype=np.complex128))


def field_rows(shape: LatticeShape, stack: np.ndarray) -> FieldRows:
    """The rows of an (n, *shape.dims) stack as n FieldLs over its memory.

    The stack's shape and finiteness are checked once, as FieldL checks one
    field, and a writeable stack is copied first; no row is checked again.
    """
    stack = read_only(np.asarray(stack, dtype=np.complex128))
    if stack.shape[1:] != shape.dims:
        raise DataError(f"expected a stack of fields of shape {shape.dims}, got {stack.shape}")
    if not all(np.isfinite(block).all() for _, block in _row_blocks(shape, stack)):
        raise DataError("field contains non-finite values")
    return FieldRows(shape, stack)


def _row_blocks(shape: LatticeShape, stack: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """(j, stack[j:j+b]) over an (n, *shape.dims) stack, b rows of about _STACK_SITES sites."""
    b = max(1, _STACK_SITES // shape.volume)
    for j in range(0, len(stack), b):
        yield j, stack[j:j + b]


class FieldRows(Sequence[FieldL]):
    """The rows of a read-only complex (n, *shape.dims) stack, already checked
    as field_rows checks one, as FieldLs over its memory.  Nothing is stored
    per row: each read wraps its row anew, checked no more, and a slice is the
    view of the stack's slice."""

    def __init__(self, shape: LatticeShape, stack: np.ndarray) -> None:
        self._shape, self._stack = shape, stack

    def __len__(self) -> int:
        return len(self._stack)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return FieldRows(self._shape, self._stack[i])
        return self._wrap(self._stack[operator.index(i)])

    def __iter__(self) -> Iterator[FieldL]:
        return map(self._wrap, self._stack)

    def _wrap(self, row: np.ndarray) -> FieldL:
        field = object.__new__(FieldL)
        field.__dict__.update(shape=self._shape, values=row)
        return field


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


_LOW64 = 2**64 - 1


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
    # the seed-keyed hash state, built once; each site hashes a copy of it
    keyed = hashlib.blake2b(digest_size=16, key=(seed & _LOW64).to_bytes(8, "little"))
    two_pi = 2 * math.pi

    def gen(z: Site) -> complex:
        # the keyed hash of the coordinates, read as two uniforms in [0, 1):
        # its low 8 bytes (little-endian) the phase, its high 8 the radius
        h = keyed.copy()
        h.update(",".join(map(str, z)).encode("ascii"))
        bits = int.from_bytes(h.digest(), "little")
        modulus = (amplitude * regularized_abs(z) ** p if p else amplitude) * math.sqrt((bits >> 64) / 2.0**64)
        angle = two_pi * ((bits & _LOW64) / 2.0**64)
        return modulus * complex(math.cos(angle), math.sin(angle))

    return gen


def truncate(gen: Generator, shape: LatticeShape) -> FieldL:
    """Restrict a Z^d generator to the box: field(x) = gen(x) for x in the box."""
    values = np.fromiter((complex(gen(site)) for site in shape.sites()),
                         dtype=np.complex128, count=shape.volume)
    return FieldL(shape, frozen(values))


def dump_field(field: FieldL, path) -> bytes:
    """Write the text dump whole, in one call: 'd L' header, then 'x1 .. xd re
    im' per site, the floats with shortest round-trip precision, which
    load_field restores exactly.  Returns the bytes written."""
    shape, values = field.shape, field.values.ravel()
    sites = map(" ".join, itertools.product(map(str, range(-shape.L, shape.L + 1)), repeat=shape.d))
    lines = zip(sites, map(repr, values.real.tolist()), map(repr, values.imag.tolist()))
    data = (f"{shape.d} {shape.L}\n" + "\n".join(map(" ".join, lines)) + "\n").encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return data


def load_field(path) -> FieldL:
    """Read a dump_field file, whole when its coordinate text is the box's; else line by
    line, any int spelling of a coordinate passing and the first bad line raising DataError."""
    with open(path, "r") as fh:
        header = fh.readline().split()
        try:
            if len(header) != 2:
                raise ValueError(f"expected 2 fields, got {len(header)}")
            shape = LatticeShape(d=int(header[0]), L=int(header[1]))
        except ValueError as err:
            raise DataError(f"bad field dump header in {path}: {err}") from None
        lines = fh.readlines()
    # checked before the allocation, which a header alone can make huge
    if len(lines) != shape.volume:
        raise DataError(f"expected {shape.volume} sites, found {len(lines)}")
    d, rows = shape.d, [line.split() for line in lines]
    columns = list(zip(*rows))
    box = list(zip(*itertools.product(map(str, range(-shape.L, shape.L + 1)), repeat=d)))
    values = np.empty(shape.volume, dtype=np.complex128)
    try:
        if set(map(len, rows)) != {d + 2} or columns[:d] != box:
            raise ValueError  # read line by line below
        values.real, values.imag = list(map(float, columns[d])), list(map(float, columns[d + 1]))
    except ValueError:
        for i, (line, parts, site) in enumerate(zip(lines, rows, shape.sites())):
            if len(parts) != d + 2:
                raise DataError(f"bad field dump line: {line!r}")
            try:
                coords = tuple(map(int, parts[:d]))
                values[i] = complex(float(parts[d]), float(parts[d + 1]))
            except ValueError:
                raise DataError(f"field dump line {i + 2} does not parse: {line!r}") from None
            if coords != site:
                raise DataError(f"dump out of storage order: saw {coords}, expected {site}")
    return FieldL(shape, frozen(values))
