import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dnls.lattice
from conftest import same_bits
from dnls.lattice import (
    DataError,
    FieldL,
    InvalidSiteError,
    LatticeShape,
    constant_generator,
    dump_field,
    field_rows,
    hashed_noise_generator,
    load_field,
    neighbor_table,
    point_source,
    regularized_abs,
    torus_distance_grid,
    truncate,
)
from conftest import per_site_table, same_bits, torus_dist_inf


def reference_hashed_noise(seed, envelope_exponent=0.0, amplitude=1.0):
    """hashed_noise_generator written plainly, one fresh keyed hash per site;
    a bit-level oracle for the generator's hoisted hash state."""
    p = float(envelope_exponent)

    def gen(z):
        key = (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
        payload = b",".join(str(c).encode("ascii") for c in z)
        digest = hashlib.blake2b(payload, digest_size=16, key=key).digest()
        u_phase = int.from_bytes(digest[:8], "little") / 2.0**64
        u_radial = int.from_bytes(digest[8:], "little") / 2.0**64
        modulus = amplitude * regularized_abs(z) ** p * math.sqrt(u_radial)
        return modulus * complex(math.cos(2 * math.pi * u_phase), math.sin(2 * math.pi * u_phase))

    return gen


class TestLatticeShape:
    def test_derived_quantities(self):
        shape = LatticeShape(d=2, L=3)
        assert shape.side == 7
        assert shape.volume == 49
        assert shape.side % 2 == 1

    def test_single_site_box_allowed(self):
        shape = LatticeShape(d=1, L=0)
        assert shape.volume == 1
        assert list(shape.sites()) == [(0,)]

    @pytest.mark.parametrize("d,L", [(0, 3), (1, -1), (-2, 2)])
    def test_invalid_parameters(self, d, L):
        with pytest.raises(ValueError):
            LatticeShape(d=d, L=L)

    def test_sites_storage_order(self):
        shape = LatticeShape(d=2, L=1)
        sites = list(shape.sites())
        assert sites[0] == (-1, -1)
        assert sites[1] == (-1, 0)
        assert sites[-1] == (1, 1)
        assert len(sites) == 9

    # the row-major walk over the storage indices, shifted by L: the order of
    # the field values, the text dump and truncate
    @pytest.mark.parametrize("d, L", [(1, 128), (3, 16), (2, 5), (1, 0), (3, 0)])
    def test_sites_equal_shifted_ndindex(self, d, L):
        shape = LatticeShape(d=d, L=L)
        sites = list(shape.sites())
        expected = [tuple(int(i) - L for i in idx) for idx in np.ndindex(shape.dims)]
        assert sites == expected
        assert all(type(c) is int for site in sites for c in site)
        assert all(type(site) is tuple for site in sites)

    def test_require_site(self):
        shape = LatticeShape(d=1, L=2)
        assert shape.require_site([2]) == (2,)
        with pytest.raises(InvalidSiteError):
            shape.require_site((3,))
        with pytest.raises(InvalidSiteError):
            shape.require_site((0, 0))


class TestTorusDist:
    """torus_distance_grid(shape, x)[shape.index(y)] is the minimum-image
    sup-norm distance from x to y."""

    def test_self_distance_zero(self):
        shape = LatticeShape(2, 3)
        assert torus_distance_grid(shape, (1, -2))[shape.index((1, -2))] == 0

    def test_wrap_around_shorter(self):
        shape = LatticeShape(1, 2)
        assert torus_distance_grid(shape, (-2,))[shape.index((2,))] == 1

    def test_2d_example(self):
        shape = LatticeShape(2, 3)
        assert torus_distance_grid(shape, (3, 0))[shape.index((-3, 1))] == 1

    @pytest.mark.parametrize("d,L", [(1, 3), (2, 2), (3, 2)])
    def test_metric_axioms_exhaustive(self, d, L):
        shape = LatticeShape(d, L)
        sites = list(shape.sites())
        dist = np.array([[grid[shape.index(y)] for y in sites]
                         for grid in (torus_distance_grid(shape, x) for x in sites)])
        assert np.array_equal(dist, dist.T)
        assert np.array_equal(dist == 0, np.eye(len(sites), dtype=bool))
        assert dist.min() >= 0 and dist.max() == L
        # dist[x, z] <= dist[x, y] + dist[y, z] for every triple (x, y, z)
        assert np.all(dist[:, None, :] <= dist[:, :, None] + dist[None, :, :])

    def test_matches_pairwise_distance(self):
        shape = LatticeShape(2, 3)
        for x in shape.sites():
            grid = torus_distance_grid(shape, x)
            assert all(grid[shape.index(y)] == torus_dist_inf(shape, x, y) for y in shape.sites())


class TestNeighborTable:
    """neighbor_table(shape, offsets)[x, j] is the flat index of x - offsets[j],
    wrapped into the box, as the per-site loop of conftest finds it."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("L", [0, 1, 2, 4])
    def test_matches_per_site_loop(self, d, L):
        shape = LatticeShape(d, L)
        rng = np.random.default_rng(10 * d + L)
        # the box's sites, the zero offset, and offsets past the side, both signs
        offsets = ([(0,) * d] + list(shape.sites())
                   + [tuple(row) for row in rng.integers(-3 * shape.side, 3 * shape.side, (5, d))])
        for given in (offsets, [], np.array(offsets)):
            table = neighbor_table(shape, given)
            assert table.dtype == np.intp and table.flags.c_contiguous
            assert table.shape == (shape.volume, len(given))
            assert np.array_equal(table, per_site_table(shape, [tuple(o) for o in given]))


class TestFieldL:
    def test_wrong_size_rejected(self):
        with pytest.raises(DataError):
            FieldL(LatticeShape(1, 2), np.zeros(4, dtype=complex))

    def test_nonfinite_rejected(self):
        values = np.zeros(5, dtype=complex)
        values[2] = np.nan
        with pytest.raises(DataError):
            FieldL(LatticeShape(1, 2), values)

    def test_values_frozen(self):
        f = FieldL.zero(LatticeShape(1, 2))
        with pytest.raises(ValueError):
            f.values[0] = 1.0

    def test_does_not_freeze_caller_array(self):
        arr = np.ones(5, dtype=complex)
        FieldL(LatticeShape(1, 2), arr)
        arr[0] = 2.0  # still writable

    def test_at_uses_true_coordinates(self):
        shape = LatticeShape(1, 2)
        f = FieldL(shape, np.arange(5, dtype=complex))
        assert f.at((-2,)) == 0
        assert f.at((2,)) == 4


class TestFieldRows:
    @staticmethod
    def frozen_stack(shape, n, seed=0):
        rng = np.random.default_rng(seed)
        values = (rng.standard_normal((n, *shape.dims))
                  + 1j * rng.standard_normal((n, *shape.dims)))
        values.setflags(write=False)
        return values

    @pytest.mark.parametrize("d, L", [(1, 0), (1, 3), (2, 2), (3, 1)])
    def test_rows_equal_checked_fields(self, d, L):
        shape = LatticeShape(d, L)
        stack = self.frozen_stack(shape, 4)
        rows = field_rows(shape, stack)
        assert len(rows) == 4
        for row, values in zip(rows, stack):
            want = FieldL(shape, values)
            assert row.shape == want.shape
            assert row.values.shape == shape.dims
            assert np.array_equal(row.values.view(np.uint64), want.values.view(np.uint64))

    def test_rows_frozen_views_of_the_stack(self):
        shape = LatticeShape(2, 1)
        stack = self.frozen_stack(shape, 3)
        for row in field_rows(shape, stack):
            assert np.shares_memory(row.values, stack)
            with pytest.raises(ValueError):
                row.values[0, 0] = 1.0

    def test_writeable_stack_copied(self):
        shape = LatticeShape(1, 2)
        stack = np.ones((2, 5), dtype=complex)
        rows = field_rows(shape, stack)
        stack[0, 0] = 2.0
        assert rows[0].values[0] == 1.0
        assert not any(np.shares_memory(row.values, stack) for row in rows)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan),
                                     complex(0, np.inf)])
    @pytest.mark.parametrize("row, site", [(0, 0), (2, 4)])
    def test_nonfinite_anywhere_rejected(self, bad, row, site):
        shape = LatticeShape(1, 2)
        stack = np.zeros((3, 5), dtype=complex)
        stack[row, site] = bad
        with pytest.raises(DataError):
            field_rows(shape, stack)

    @pytest.mark.parametrize("dims", [(3, 4), (3, 5, 1), (5,), (15,), (3, 1, 5)])
    def test_wrong_trailing_shape_rejected(self, dims):
        with pytest.raises(DataError):
            field_rows(LatticeShape(1, 2), np.zeros(dims, dtype=complex))

    @pytest.mark.parametrize("d, L", [(1, 0), (2, 3)])
    def test_empty_stack(self, d, L):
        shape = LatticeShape(d, L)
        assert tuple(field_rows(shape, np.empty((0, *shape.dims), dtype=complex))) == ()

    def test_view_indexing(self):
        shape = LatticeShape(2, 1)
        stack = self.frozen_stack(shape, 5)
        rows = field_rows(shape, stack)
        assert len(rows) == 5
        for i in range(-5, 5):
            assert rows[i].shape == shape
            assert same_bits(rows[i].values, stack[i])
        assert same_bits(rows[np.int64(-2)].values, stack[3])
        for i in (5, -6):
            with pytest.raises(IndexError):
                rows[i]
        with pytest.raises(TypeError):
            rows[1.0]

    @pytest.mark.parametrize("part", [slice(1, 4), slice(None, None, -2), slice(3, 1),
                                      slice(-2, None)])
    def test_view_slices(self, part):
        shape = LatticeShape(1, 2)
        stack = self.frozen_stack(shape, 5)
        rows = field_rows(shape, stack)[part]
        assert len(rows) == len(stack[part])
        for row, want in zip(rows, stack[part]):
            assert np.shares_memory(row.values, stack)
            assert same_bits(row.values, want)
        assert len(rows[1:]) == max(0, len(rows) - 1)

    def test_view_rows_read_only(self):
        shape = LatticeShape(1, 3)
        rows = field_rows(shape, np.ones((3, 7), dtype=complex))
        for row in [*rows, rows[-1], *rows[::2]]:
            assert not row.values.flags.writeable
            with pytest.raises(ValueError):
                row.values[0] = 2.0


class TestGenerators:
    def test_constant_truncation(self):
        f = truncate(constant_generator(2 - 1j), LatticeShape(2, 2))
        assert np.all(f.values == 2 - 1j)

    def test_truncations_agree_on_overlap(self):
        gen = hashed_noise_generator(seed=7, envelope_exponent=0.45)
        small = truncate(gen, LatticeShape(1, 4))
        big = truncate(gen, LatticeShape(1, 8))
        for x in small.shape.sites():
            assert small.at(x) == big.at(x)

    def test_generator_purity(self):
        gen_a = hashed_noise_generator(seed=42, envelope_exponent=0.3)
        gen_b = hashed_noise_generator(seed=42, envelope_exponent=0.3)
        for z in [(0,), (5,), (-17,), (123456,)]:
            assert gen_a(z) == gen_b(z)
        assert gen_a((1,)) != hashed_noise_generator(seed=43, envelope_exponent=0.3)((1,))

    @pytest.mark.parametrize("d, L", [(1, 40), (2, 6), (3, 3)])
    @pytest.mark.parametrize("p", [0.0, 0.45])
    @pytest.mark.parametrize("seed", [0, 7, 2**63 + 5, -3])
    def test_hashed_noise_bit_identical_to_reference(self, d, L, p, seed):
        shape = LatticeShape(d, L)
        field = truncate(hashed_noise_generator(seed, envelope_exponent=p, amplitude=0.8), shape)
        expected = truncate(reference_hashed_noise(seed, envelope_exponent=p, amplitude=0.8),
                            shape)
        assert same_bits(field.values, expected.values)

    def test_envelope_bound(self):
        gen = hashed_noise_generator(seed=11, envelope_exponent=0.45, amplitude=0.8)
        for z in [(0,), (3,), (-40,), (250,)]:
            assert abs(gen(z)) <= 0.8 * regularized_abs(z) ** 0.45 + 1e-15

    def test_point_source(self):
        gen = point_source(3j)
        assert gen((0,)) == 3j
        assert gen((1,)) == 0
        f = truncate(gen, LatticeShape(1, 4))
        assert f.at((0,)) == 3j
        assert abs(f.values).sum() == 3.0

    def test_nonfinite_generator_rejected(self):
        bad = constant_generator(1.0)
        with pytest.raises(DataError):
            truncate(lambda z: math.inf, LatticeShape(1, 1))
        truncate(bad, LatticeShape(1, 1))


class TestDump:
    def test_roundtrip_exact(self, tmp_path):
        shape = LatticeShape(2, 2)
        rng = np.random.default_rng(0)
        f = FieldL(shape, rng.standard_normal(shape.dims) + 1j * rng.standard_normal(shape.dims))
        path = tmp_path / "field.txt"
        dump_field(f, path)
        g = load_field(path)
        assert g.shape == shape
        assert np.array_equal(f.values, g.values)

    def test_header_and_order(self, tmp_path):
        shape = LatticeShape(1, 1)
        f = FieldL(shape, np.array([1 + 2j, 0j, -1j]))
        path = tmp_path / "field.txt"
        dump_field(f, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "1 1"
        assert lines[1].startswith("-1 ")
        assert lines[3].startswith("1 ")

    def test_lines_past_the_box_rejected(self, tmp_path):
        path = tmp_path / "field.txt"
        dump_field(FieldL(LatticeShape(1, 2), np.arange(5) + 1j), path)
        with open(path, "a") as fh:
            fh.write("3 9.0 9.0\n-7 1.0 1.0\n")
        with pytest.raises(DataError, match="^expected 5 sites, found 7$"):
            load_field(path)

    def test_corrupt_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 1\n-1 0.0 0.0\n0 0.0 0.0\n")
        with pytest.raises(DataError, match="^expected 3 sites, found 2$"):
            load_field(path)
        path.write_text("1 1\n0 0.0 0.0\n-1 0.0 0.0\n1 0.0 0.0\n")
        with pytest.raises(DataError, match=re.escape(
                "dump out of storage order: saw (0,), expected (-1,)")):
            load_field(path)

    @pytest.mark.parametrize("d, L", [(1, 4), (2, 2), (3, 1)])
    def test_bytes_equal_the_per_line_writer(self, tmp_path, d, L):
        shape = LatticeShape(d, L)
        rng = np.random.default_rng(d)
        values = np.empty(shape.volume, dtype=np.complex128)
        values.real = rng.standard_normal(shape.volume) * 10.0 ** rng.integers(-8, 8, shape.volume)
        values.imag = rng.standard_normal(shape.volume)
        special = [-0.0, 5e-324, 1e300, 1 / 3, -1e-300, 0.0, 123456789.0]
        values.real[:7] = special
        values.imag[-7:] = special[::-1]
        field = FieldL(shape, values.reshape(shape.dims))
        written = dump_field(field, tmp_path / "field.txt")
        _per_line_dump(field, tmp_path / "reference.txt")
        assert written == (tmp_path / "field.txt").read_bytes()
        assert written == (tmp_path / "reference.txt").read_bytes()
        loaded = load_field(tmp_path / "field.txt")
        assert loaded.shape == shape and same_bits(loaded.values, field.values)

    def test_what_the_per_line_reader_accepted_still_loads(self, tmp_path):
        # any int spelling of a coordinate, any float() spelling of a number,
        # any whitespace around the fields and CRLF line ends
        path = tmp_path / "field.txt"
        path.write_bytes(b"1 1\r\n  -1\t1_0  0.5 \r\n+0 -0.0 2\r\n01 1e3 -1E-2\r\n")
        want = np.empty(3, dtype=np.complex128)
        want.real, want.imag = [10.0, -0.0, 1000.0], [0.5, 2.0, -0.01]
        assert same_bits(load_field(path).values, want)
        sides = (-1, 0, 1)
        path.write_text("2 1\n" + "".join(f"{x:+d} {y:+d} {x}.5 {-y}\n"
                                           for x in sides for y in sides))
        assert load_field(path).values.tolist() == [
            [complex(float(f"{x}.5"), -y) for y in sides] for x in sides]

    @pytest.mark.parametrize("body, message", [
        # a wrong field count and an out-of-order site: the per-line reader's messages
        ("-1 0.0 0.0\n0 0.0\n1 0.0 0.0\n", "bad field dump line: '0 0.0\\n'"),
        ("-1 0.0 0.0\n0 0.0 0.0 0.0\n1 0.0 0.0\n", "bad field dump line: '0 0.0 0.0 0.0\\n'"),
        ("-1 0.0 0.0\n\n1 0.0 0.0\n", "bad field dump line: '\\n'"),
        ("-1 0.0 0.0\n1 0.0 0.0\n0 0.0 0.0\n",
         "dump out of storage order: saw (1,), expected (0,)"),
        # the first bad line is the one named
        ("-1 0.0 0.0\n1 0.0 0.0\n0 0.0\n",
         "dump out of storage order: saw (1,), expected (0,)"),
        ("-1 0.0 0.0\n0 0.0\n2 0.0 0.0\n", "bad field dump line: '0 0.0\\n'"),
        # a non-finite value parses, and the field rejects it
        ("-1 0.0 0.0\n0 nan 0.0\n1 0.0 0.0\n", "field contains non-finite values"),
        ("-1 0.0 0.0\n0 0.0 -inf\n1 0.0 0.0\n", "field contains non-finite values"),
        # a number or a coordinate that does not parse names its line
        ("-1 0.0 0.0\n0 abc 0.0\n1 0.0 0.0\n",
         "field dump line 3 does not parse: '0 abc 0.0\\n'"),
        ("-1 0.0 0.0\n0 0.0 0.0\n1 0.0 1.0.0\n",
         "field dump line 4 does not parse: '1 0.0 1.0.0\\n'"),
        ("-1 0.0 0.0\nx 0.0 0.0\n1 0.0 0.0\n",
         "field dump line 3 does not parse: 'x 0.0 0.0\\n'"),
        ("-1 0.0 0.0\n0.5 0.0 0.0\n1 0.0 0.0\n",
         "field dump line 3 does not parse: '0.5 0.0 0.0\\n'"),
    ], ids=["short", "long", "blank", "order", "order-first", "short-first", "nan", "inf",
            "word", "two-points", "word-site", "float-site"])
    def test_malformed_lines_rejected(self, tmp_path, body, message):
        path = tmp_path / "bad.txt"
        path.write_text("1 1\n" + body)
        with pytest.raises(DataError) as err:
            load_field(path)
        assert str(err.value) == message

    @pytest.mark.parametrize("header, reason", [
        ("1 a", "invalid literal for int() with base 10: 'a'"),
        ("0 1", "dimension must be >= 1, got 0"),
        ("1 -2", "half-width must be >= 0, got -2"),
        ("1.5 2", "invalid literal for int() with base 10: '1.5'"),
        ("1", "expected 2 fields, got 1"),
    ], ids=["word", "zero-d", "negative-L", "float-d", "one-field"])
    def test_malformed_header_rejected_naming_the_path(self, tmp_path, header, reason):
        path = tmp_path / "bad.txt"
        path.write_text(header + "\n0 0.0 0.0\n")
        with pytest.raises(DataError) as err:
            load_field(path)
        assert str(err.value) == f"bad field dump header in {path}: {reason}"


def _per_line_dump(field: FieldL, path) -> None:
    """The writer dump_field replaced, one write per site; its byte reference."""
    shape = field.shape
    with open(path, "w", newline="\n") as fh:
        fh.write(f"{shape.d} {shape.L}\n")
        for site, v in zip(shape.sites(), field.values.flat):
            coords = " ".join(str(c) for c in site)
            fh.write(f"{coords} {float(v.real)!r} {float(v.imag)!r}\n")


def test_import_loads_no_other_dnls_module():
    env = dict(os.environ)
    src = str(Path(dnls.lattice.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import json, sys, dnls.lattice; "
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'dnls')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["dnls", "dnls.lattice"]
