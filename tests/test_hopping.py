import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_convolve, random_field, roll_convolve, same_bits
from dnls.hopping import (
    HoppingPotential,
    KernelError,
    clipped_offsets,
    convolve,
    convolve_fourier,
    dispersion,
    load_potential,
    nearest_neighbor_laplacian,
    standard_laplacian,
    stencil,
    zero_potential,
)
from dnls.lattice import FieldL, LatticeShape, box_starts, point_source, truncate
from dnls.observables import hamiltonian
from dnls.sampling import GibbsSpec, run_gibbs_chain

# every entry point that resolves a kernel on a box through clipped_offsets
DIMENSION_ENTRY_POINTS = {
    "hamiltonian": lambda pot, f: hamiltonian(f, pot, 1.0),
    "convolve": convolve,
    "stencil": lambda pot, f: stencil(pot, f.shape),
    "run_gibbs_chain": lambda pot, f: run_gibbs_chain(
        GibbsSpec(beta=1.0, mu=-1.0, lam=1.0, proposal_sigma=0.5, burn_in=1, thinning=1),
        pot, f.shape, 0, 1),
}


class TestConstructors:
    def test_standard_1d(self):
        pot = standard_laplacian(1)
        assert pot.at((0,)) == 1.0
        assert pot.at((1,)) == pot.at((-1,)) == -0.5
        assert pot.at((2,)) == 0.0
        assert pot.range == 1

    def test_standard_2d_supnorm_shell(self):
        pot = standard_laplacian(2)
        assert pot.at((0, 0)) == 1.0
        shell = [off for off, _ in pot.nonzero_offsets() if off != (0, 0)]
        assert len(shell) == 8
        assert all(pot.at(off) == -0.25 for off in shell)

    def test_standard_annihilates_constants_1d(self):
        shape = LatticeShape(1, 4)
        const = FieldL(shape, np.full(shape.dims, 2.5 + 1j))
        out = convolve(standard_laplacian(1), const)
        assert np.max(np.abs(out.values)) < 1e-15

    def test_standard_2d_does_not_annihilate_constants(self):
        # row sum is 1 - 8/4 = -1, the literal sup-norm reading
        shape = LatticeShape(2, 3)
        const = FieldL(shape, np.ones(shape.dims))
        out = convolve(standard_laplacian(2), const)
        assert np.allclose(out.values, -1.0)

    def test_nearest_neighbor_annihilates_constants_2d(self):
        shape = LatticeShape(2, 3)
        const = FieldL(shape, np.ones(shape.dims))
        out = convolve(nearest_neighbor_laplacian(2), const)
        assert np.max(np.abs(out.values)) < 1e-15

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            standard_laplacian(0)


class TestValidate:
    """A kernel is checked once, when it is built."""

    def test_standard_ok(self):
        pot = standard_laplacian(1)
        assert pot.nonzero_offsets() == [((-1,), -0.5), ((0,), 1.0), ((1,), -0.5)]

    def test_asymmetric_rejected(self):
        with pytest.raises(KernelError, match="not symmetric"):
            HoppingPotential(d=1, range=1, coeffs=np.array([0.0, 0.5, 1.0]))

    def test_nan_rejected(self):
        with pytest.raises(KernelError, match="non-finite"):
            HoppingPotential(d=1, range=1, coeffs=np.array([np.nan, 1.0, np.nan]))

    def test_convolve_requires_valid_kernel(self):
        # an asymmetric kernel cannot be built, so it never reaches convolve
        with pytest.raises(KernelError):
            HoppingPotential(d=2, range=1, coeffs=np.arange(9.0).reshape(3, 3))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 2), st.integers(0, 2**32 - 1))
    def test_offsets_row_major(self, d, kernel_range, seed):
        rng = np.random.default_rng(seed)
        raw = rng.integers(-2, 3, size=(2 * kernel_range + 1,) * d).astype(np.float64)
        coeffs = raw + raw[(slice(None, None, -1),) * d]
        pot = HoppingPotential(d=d, range=kernel_range, coeffs=coeffs)
        expected = [
            (tuple(i - kernel_range for i in idx), float(coeffs[idx]))
            for idx in np.ndindex(coeffs.shape) if coeffs[idx] != 0.0
        ]
        assert pot.nonzero_offsets() == expected
        pot.nonzero_offsets().clear()
        assert pot.nonzero_offsets() == expected
        assert "_offsets" not in repr(pot)

    def test_fingerprint_unchanged(self):
        # manifests record this hash; it depends on d, range and coeffs only
        assert standard_laplacian(1).fingerprint() == "3e6c9ebbcb9cd315"


class TestConvolve:
    def test_zero_field(self):
        out = convolve(standard_laplacian(1), FieldL.zero(LatticeShape(1, 5)))
        assert np.all(out.values == 0)

    def test_delta_peak_copies_kernel(self):
        shape = LatticeShape(1, 4)
        out = convolve(standard_laplacian(1), truncate(point_source(1.0), shape))
        assert out.at((0,)) == 1.0
        assert out.at((1,)) == out.at((-1,)) == -0.5
        assert all(out.at((x,)) == 0 for x in [-4, -3, -2, 2, 3, 4])

    def test_kernel_larger_than_box(self):
        with pytest.raises(KernelError):
            convolve(standard_laplacian(1), FieldL.zero(LatticeShape(1, 0)))

    @pytest.mark.parametrize("d,L,seed", [(1, 4, 0), (1, 3, 1), (2, 2, 2), (2, 3, 3)])
    def test_matches_naive_double_sum(self, d, L, seed):
        pot = standard_laplacian(d)
        field = random_field(LatticeShape(d, L), seed)
        fast = convolve(pot, field).values
        slow = naive_convolve(pot, field)
        assert np.allclose(fast, slow, rtol=0, atol=1e-13)

    def test_matches_naive_wider_kernel(self):
        rng = np.random.default_rng(9)
        raw = rng.standard_normal(5)
        coeffs = raw + raw[::-1]
        pot = HoppingPotential(d=1, range=2, coeffs=coeffs)
        field = random_field(LatticeShape(1, 5), 4)
        assert np.allclose(convolve(pot, field).values, naive_convolve(pot, field), atol=1e-13)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 1000))
    def test_linearity(self, seed):
        shape = LatticeShape(1, 5)
        pot = standard_laplacian(1)
        f = random_field(shape, seed)
        g = random_field(shape, seed + 5000)
        lhs = convolve(pot, FieldL(shape, 2.0 * f.values + 1j * g.values)).values
        rhs = 2.0 * convolve(pot, f).values + 1j * convolve(pot, g).values
        assert np.allclose(lhs, rhs, atol=1e-13)

    def test_self_adjoint(self):
        shape = LatticeShape(1, 6)
        pot = standard_laplacian(1)
        for seed in range(5):
            f = random_field(shape, seed)
            g = random_field(shape, seed + 100)
            lhs = np.vdot(f.values, convolve(pot, g).values)
            rhs = np.vdot(convolve(pot, f).values, g.values)
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))

    def test_locality_bit_identical(self):
        shape = LatticeShape(1, 6)
        pot = standard_laplacian(1)
        f = random_field(shape, 3)
        perturbed = f.values.copy()
        perturbed[shape.index((5,))] += 7.0  # farther than range 1 from the origin
        out_a = convolve(pot, f).values
        out_b = convolve(pot, FieldL(shape, perturbed)).values
        assert out_a[shape.index((0,))] == out_b[shape.index((0,))]
        assert out_a[shape.index((4,))] != out_b[shape.index((4,))]


class TestDispersion:
    def test_closed_form_1d(self):
        shape = LatticeShape(1, 6)
        disp = dispersion(standard_laplacian(1), shape)
        for k in range(-6, 7):
            expected = 1.0 - np.cos(2 * np.pi * k / shape.side)
            assert disp[k % shape.side] == pytest.approx(expected, abs=1e-14)

    def test_zero_mode(self):
        disp = dispersion(standard_laplacian(1), LatticeShape(1, 5))
        assert disp[0] == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("d,L", [(1, 5), (2, 3)])
    def test_even_in_k(self, d, L):
        shape = LatticeShape(d, L)
        disp = dispersion(standard_laplacian(d), shape)
        for k in shape.sites():
            pos = tuple(c % shape.side for c in k)
            neg = tuple(-c % shape.side for c in k)
            assert disp[pos] == pytest.approx(disp[neg], abs=1e-14)

    @pytest.mark.parametrize("L", [4, 17, 64])
    def test_diagonalization_identity_1d(self, L):
        shape = LatticeShape(1, L)
        pot = standard_laplacian(1)
        f = random_field(shape, L)
        direct = convolve(pot, f).values
        fourier = convolve_fourier(pot, f).values
        assert np.max(np.abs(direct - fourier)) <= 1e-12 * float(np.max(np.abs(f.values)))

    def test_diagonalization_identity_2d(self):
        shape = LatticeShape(2, 5)
        pot = standard_laplacian(2)
        f = random_field(shape, 7)
        direct = convolve(pot, f).values
        fourier = convolve_fourier(pot, f).values
        assert np.max(np.abs(direct - fourier)) <= 1e-12 * float(np.max(np.abs(f.values)))

    def test_kernel_must_fit(self):
        with pytest.raises(KernelError):
            dispersion(standard_laplacian(1), LatticeShape(1, 0))


class TestKernelFile:
    def test_roundtrip(self, tmp_path):
        pot = standard_laplacian(2)
        path = tmp_path / "kernel.txt"
        path.write_text(
            "2 1\n"
            "-1 -1 -0.25\n-1 0 -0.25\n-1 1 -0.25\n"
            "0 -1 -0.25\n0 0 1.0\n0 1 -0.25\n"
            "1 -1 -0.25\n1 0 -0.25\n1 1 -0.25\n"
        )
        loaded = load_potential(path)
        assert loaded.d == 2 and loaded.range == 1
        assert np.array_equal(loaded.coeffs, pot.coeffs)

    def test_omitted_offsets_are_zero(self, tmp_path):
        path = tmp_path / "kernel.txt"
        path.write_text("1 2\n0 1.0\n2 0.25\n-2 0.25\n")
        pot = load_potential(path)
        assert pot.at((1,)) == 0.0
        assert pot.at((2,)) == 0.25

    def test_loader_enforces_symmetry(self, tmp_path):
        path = tmp_path / "kernel.txt"
        path.write_text("1 1\n0 1.0\n1 -0.5\n")
        with pytest.raises(KernelError):
            load_potential(path)

    def test_offset_outside_range(self, tmp_path):
        path = tmp_path / "kernel.txt"
        path.write_text("1 1\n2 1.0\n")
        with pytest.raises(KernelError):
            load_potential(path)


class TestClippedOffsets:
    def test_full_kernel_when_box_large(self):
        pot = standard_laplacian(1)
        offs = clipped_offsets(pot, LatticeShape(1, 4))
        assert sorted(o for o, _ in offs) == [(-1,), (0,), (1,)]

    def test_single_site_box_keeps_origin_only(self):
        pot = standard_laplacian(1)
        offs = clipped_offsets(pot, LatticeShape(1, 0))
        assert offs == [((0,), 1.0)]

    def test_zero_potential(self):
        assert clipped_offsets(zero_potential(1), LatticeShape(1, 3)) == []

    @pytest.mark.parametrize("entry", sorted(DIMENSION_ENTRY_POINTS))
    @pytest.mark.parametrize("box_d, kernel_d", [(1, 2), (2, 1)])
    def test_kernel_of_another_dimension_rejected(self, entry, box_d, kernel_d):
        f = random_field(LatticeShape(box_d, 4), 3)
        with pytest.raises(KernelError, match="dimension"):
            DIMENSION_ENTRY_POINTS[entry](standard_laplacian(kernel_d), f)


class TestStencil:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 2), st.integers(0, 4),
           st.sampled_from(("zero", "random", "repeated")), st.integers(0, 2**32 - 1))
    def test_bit_identical_to_roll_and_slicewise_on_stacks(self, d, kernel_range, L, kind, seed):
        rng = np.random.default_rng(seed)
        coeffs = np.zeros((2 * kernel_range + 1,) * d)
        if kind == "random":
            coeffs = rng.standard_normal(coeffs.shape) * (rng.random(coeffs.shape) < 0.7)
            coeffs = 0.5 * (coeffs + coeffs[(slice(None, None, -1),) * d])
        elif kind == "repeated":
            # two or three values, each at many offsets, as in the Laplacians;
            # offset -y takes the value drawn for y
            drawn = rng.choice(rng.standard_normal(rng.integers(2, 4)), coeffs.size)
            drawn[rng.random(coeffs.size) < 0.2] = 0.0
            mirrored = np.arange(coeffs.size) > (coeffs.size - 1) // 2
            drawn[mirrored] = drawn[::-1][mirrored]
            coeffs = drawn.reshape(coeffs.shape)
        pot = HoppingPotential(d=d, range=kernel_range, coeffs=coeffs)
        shape = LatticeShape(d, L)
        values = rng.standard_normal(shape.dims) + 1j * rng.standard_normal(shape.dims)
        values[rng.random(shape.dims) < 0.2] = 0.0
        # signed zeros: 0.0 + -0.0 is +0.0, so a site's sign shows whether its
        # sum started from a zeroed accumulator, as the oracle's does
        values.real[rng.random(shape.dims) < 0.15] = -0.0
        values.imag[rng.random(shape.dims) < 0.15] = -0.0
        assert same_bits(stencil(pot, shape)(values), roll_convolve(pot, shape, values))

        apply = stencil(pot, shape)
        stack = np.stack([values, 2.0 * values - 1j, np.conj(values)])
        out = apply(stack)
        assert out.shape == stack.shape
        # the buffered form, which a time stepper applies to one field a call
        buffered = apply.buffered()
        for layer, row in zip(stack, out):
            assert same_bits(row, apply(layer))
            assert same_bits(buffered(layer), row)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 2),
           st.lists(st.integers(0, 3), min_size=1, max_size=4), st.integers(0, 2**32 - 1))
    def test_packed_boxes_equal_their_stencils(self, d, kernel_range, extras, seed):
        # boxes of any sizes, in any order, repeats included, each get the
        # bits of their own stencil and of the np.roll oracle; a stack of
        # packed states gets the bits of each state's apply
        rng = np.random.default_rng(seed)
        coeffs = rng.standard_normal((2 * kernel_range + 1,) * d)
        pot = HoppingPotential(d=d, range=kernel_range, coeffs=coeffs + np.flip(coeffs))
        shapes = [LatticeShape(d, kernel_range + extra) for extra in extras]
        boxes = []
        for shape in shapes:
            values = rng.standard_normal(shape.dims) + 1j * rng.standard_normal(shape.dims)
            values[rng.random(shape.dims) < 0.2] = 0.0
            boxes.append(values)
        # one box takes and gives its values in its own shape
        apply = stencil(pot, *shapes)
        packed = np.concatenate([v.ravel() for v in boxes]).reshape(apply.dims)
        out = apply.buffered()(packed).ravel()
        starts = box_starts(shapes)
        for shape, values, lo, hi in zip(shapes, boxes, starts, starts[1:]):
            box = out[lo:hi].reshape(shape.dims)
            assert same_bits(box, stencil(pot, shape)(values))
            assert same_bits(box, roll_convolve(pot, shape, values))
        stack = np.stack([packed, 1j * packed - 0.5, np.conj(packed)])
        for row, state in zip(apply(stack), stack):
            assert same_bits(row, apply(state))

    @pytest.mark.parametrize("d, L", [(1, 0), (1, 1), (2, 1), (3, 1)])
    def test_box_smaller_than_kernel(self, d, L):
        # L < range: the kernel is clipped to the box's offsets, alone and
        # packed with a box that clips it the same way
        rng = np.random.default_rng(d * 10 + L)
        coeffs = rng.standard_normal((5,) * d)
        pot = HoppingPotential(d=d, range=2, coeffs=coeffs + np.flip(coeffs))
        shape = LatticeShape(d, L)
        values = rng.standard_normal(shape.dims) + 1j * rng.standard_normal(shape.dims)
        out = stencil(pot, shape)(values)
        assert same_bits(out, roll_convolve(pot, shape, values))
        packed = stencil(pot, shape, shape)(np.concatenate([values.ravel()] * 2))
        assert same_bits(packed, np.concatenate([out.ravel()] * 2))

    def test_memoised_layout_binds_separate_work_arrays(self):
        pot, shape = standard_laplacian(2), LatticeShape(2, 3)
        assert stencil(pot, shape) is stencil(standard_laplacian(2), shape)
        a = random_field(shape, 1).values
        b = random_field(shape, 2).values
        first, second = stencil(pot, shape).buffered(), stencil(pot, shape).buffered()
        for _ in range(2):
            out_a = first(a)
            out_b = second(b)
            assert same_bits(out_a, roll_convolve(pot, shape, a))
            assert same_bits(out_b, roll_convolve(pot, shape, b))

    def test_layout_is_read_only(self):
        apply = stencil(standard_laplacian(2), LatticeShape(2, 2), LatticeShape(2, 3))
        for arr in (apply.fill, apply.read, *apply.coeffs):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr.flat[0] = 0

    def test_packed_boxes_must_fit(self):
        with pytest.raises(KernelError):
            stencil(standard_laplacian(1), LatticeShape(1, 2), LatticeShape(1, 0))

    @pytest.mark.parametrize("dims", [(4,), (2, 3, 4), (3, 5), (5, 5, 1)])
    def test_values_of_the_wrong_size_are_rejected(self, dims):
        # the gather clips its indices, so a short array would read wrapped
        # sites silently
        pot, shape = standard_laplacian(2), LatticeShape(2, 2)
        with pytest.raises(ValueError, match="dims"):
            stencil(pot, shape)(np.zeros(dims, dtype=np.complex128))
        with pytest.raises(ValueError, match="dims"):
            stencil(pot, shape)(np.zeros(dims))
        with pytest.raises(ValueError, match="dims"):
            stencil(pot, shape, shape)(np.zeros(dims[-1], dtype=np.complex128))
