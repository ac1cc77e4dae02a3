"""Random initial data: translation-invariant Gaussian fields and Gibbs chains.

The Gaussian sampler draws independent complex normal Fourier modes with a
prescribed spectral density and transforms back, so samples are exactly
translation invariant in law and the covariance is the inverse transform of
the density.

The equilibrium sampler targets the grand-canonical density
exp(-beta * (H - mu * N)) on the box with a defocusing quartic term
(lam > 0, otherwise the density is not normalizable).  It is a single-site
Metropolis random walk on the real and imaginary parts with a globally tuned
proposal width.  A sweep visits the sites colour class by colour class: the
graph joining x to x - offset for each nonzero clipped offset is coloured
greedily in site order, and each class is visited in site order.  No two
sites of a class interact, so a whole class can update at once.  The draws
come in blocks of max(1, 2^14 // volume) whole sweeps, three numpy calls a
block (real-part normals, imaginary-part normals, uniforms), and sweep s
reads position p of the order from element s * volume + p.  So the stream
depends only on the seed and the volume, and a chain is a prefix of any
longer chain at its seed.  Each uniform u becomes a threshold -log(u) / beta
and a proposal is accepted when its energy change is below it: the rule
u < exp(-beta dE), with no exp to overflow.  One neighbour table, the
lattice.neighbor_table of the clipped offsets, drives the colouring
and two kernels that give the same bits: a large class updates as numpy
operations on its rows of the table, its neighbour sums those of the
Duhamel defects (hopping._row_sum), a small one (a one-site box, the one-site
tail class of an odd ring) as a Python loop over its sites' (coefficient,
neighbour index) rows.  The loop works in real arithmetic on Python float
lists of the state's real and imaginary parts: the whole state when every
class runs in the loop, else per class the sites it reads, gathered from the
numpy kernel's complex state array, its own written back after it.  Its real
neighbour sums differ from complex ones only in the sign of a zero, which
neither the acceptance test nor the state update can see.  It keeps |psi|^2
of its sites cached, updated on accept, and both kernels read the term
alpha0 |delta|^2 of each proposal from one numpy product per draw block.
There is one copy of the loop's update.  When every class runs in the loop,
it runs the sweeps up to the next retained sample or the end of the draw
block as one pass over the sweep's rows, repeated; otherwise it takes one
loop class of a sweep at a time.  Each retained sample is a row of one
(n_samples, volume) buffer, frozen once when the chain ends and checked once
by lattice.field_rows; the samples read its rows through one lazy view.

Two results back the checks on a sample set, each reduced from the set's
values stacked once as one (n, *dims) array: SampleStats (per-site moments,
their standard errors and the largest) and PowerLawViolations (the sites above
<x>^(1/a) of all the samples, counted per radius).  That threshold and the
weight of weighted_sup are lattice.power_weight, the one power weight <x>^(-p)
that the observables' power-weighted norms use too.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .hopping import HoppingPotential, _row_sum, clipped_table
from .lattice import FieldL, LatticeShape, field_rows, power_weight, torus_distance_grid


# tune_proposal_sigma: target acceptance, rounds and sweeps per round
_TUNE_TARGET = 0.3
_TUNE_ROUNDS = 12
_TUNE_SWEEPS = 20
# a colour class of at least this many sites updates as numpy operations on
# index arrays, a smaller one site by site in the Python loop; both give the
# same bits.  Best of 5 per proposal, both kernels alternating, d=1 rings with
# the standard Laplacian: against the loop, numpy costs 1.3-1.8x at classes of
# 16-24 sites, about the same at 32-36, 0.84-0.87x at 40 and 0.5-0.76x at
# 48-64.
_NUMPY_CLASS_MIN = 36
# the sweeps' draws come in blocks of max(1, _DRAW_BLOCK // volume) sweeps
_DRAW_BLOCK = 2**14


class MeasureError(ValueError):
    """Initial-data distribution is invalid (negative/asymmetric density, ...)."""


@dataclass(frozen=True)
class GaussianSpec:
    """Mean-zero translation-invariant Gaussian law given by a spectral density.

    density is a nonnegative number (flat) or a callable taking a stacked
    integer mode-coordinate array of shape (d, side, ..., side) in centered
    representation.
    """

    density: float | Callable[[np.ndarray], np.ndarray]

    def density_grid(self, shape: LatticeShape) -> np.ndarray:
        if isinstance(self.density, (int, float)):
            grid = np.full(shape.dims, float(self.density))
        elif callable(self.density):
            side = shape.side
            js = np.arange(side)
            centered = ((js + shape.L) % side) - shape.L
            mesh = np.meshgrid(*(centered,) * shape.d, indexing="ij")
            grid = np.asarray(self.density(np.stack(mesh)), dtype=np.float64)
            if grid.shape != shape.dims:
                raise MeasureError(f"density callable returned shape {grid.shape}")
        else:
            raise MeasureError("density must be a number or a callable")
        if not np.isfinite(grid).all() or np.any(grid < 0):
            raise MeasureError("spectral density must be finite and nonnegative")
        if not callable(self.density):
            return grid  # constant, so symmetric under mode negation
        # mode -k, at array index -k mod side per axis
        reflected = grid[np.ix_(*((-np.arange(shape.side)) % shape.side,) * shape.d)]
        if not np.allclose(grid, reflected, rtol=0, atol=1e-12 * max(1.0, float(grid.max()))):
            raise MeasureError("spectral density must be symmetric under mode negation")
        return grid


def sample_gaussian(spec: GaussianSpec, shape: LatticeShape, seed: int) -> FieldL:
    """One sample; deterministic given the seed.

    Per-site variance equals the mean of the density over modes; a flat
    density sigma2 gives i.i.d. complex normals with E|psi|^2 = sigma2.
    """
    rho = spec.density_grid(shape)
    rng = np.random.default_rng(seed)
    noise = (rng.standard_normal(shape.dims) + 1j * rng.standard_normal(shape.dims)) / math.sqrt(2.0)
    modes = np.sqrt(rho) * noise
    values = math.sqrt(shape.volume) * np.fft.ifftn(modes)
    values.setflags(write=False)
    return FieldL(shape, values)


@dataclass(frozen=True)
class GibbsSpec:
    """Grand-canonical equilibrium parameters plus chain settings.

    burn_in and thinning are measured in full sweeps over the box.
    """

    beta: float
    mu: float
    lam: float
    proposal_sigma: float
    burn_in: int = 200
    thinning: int = 5

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.beta, self.mu, self.lam, self.proposal_sigma)):
            raise ValueError("beta, mu, lam and proposal sigma must be finite")
        if not (self.beta > 0):
            raise ValueError(f"beta must be > 0, got {self.beta}")
        if not (self.lam > 0):
            raise MeasureError(
                "lam must be > 0: the focusing equilibrium density is not normalizable"
            )
        if not (self.proposal_sigma > 0):
            raise ValueError(f"proposal sigma must be > 0, got {self.proposal_sigma}")
        if self.burn_in < 0 or self.thinning < 1:
            raise ValueError("need burn_in >= 0 and thinning >= 1")


@dataclass(frozen=True)
class GibbsChain:
    """Record of one Metropolis run: retained samples plus acceptance counts."""

    samples: Sequence[FieldL]
    n_proposed: int
    n_accepted: int


def _colour_classes(table: np.ndarray) -> list[np.ndarray]:
    """Greedy colouring, in site order, of the graph joining each site x to
    the x - offset of its table row; the zero offset is x itself and no edge.
    Returns the classes in colour order, each in site order."""
    colours: list[int] = []
    for x, row in enumerate(table.tolist()):
        taken = {colours[k] for k in row if k < x}
        colours.append(min(set(range(len(taken) + 1)) - taken))
    colour = np.array(colours)
    return [np.flatnonzero(colour == c) for c in range(colour.max() + 1)]


def run_gibbs_chain(
    spec: GibbsSpec,
    pot: HoppingPotential,
    shape: LatticeShape,
    seed: int,
    n_samples: int,
) -> GibbsChain:
    """Metropolis chain for exp(-beta (H - mu N)); deterministic given seed."""
    if n_samples < 0:
        raise ValueError("n_samples must be >= 0")
    coeffs, table = clipped_table(pot, shape)
    classes = _colour_classes(table)
    alpha0 = pot.at((0,) * pot.d)

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    volume = shape.volume
    beta = spec.beta
    mu = spec.mu
    half_lam = 0.5 * spec.lam
    sigma = spec.proposal_sigma

    # random-phase start of unit modulus, as real and imaginary parts
    phases = rng.uniform(0.0, 2.0 * math.pi, size=volume)
    re = [math.cos(p) for p in phases]
    im = [math.sin(p) for p in phases]
    # |psi|^2 per site; the Python loop reads and updates its own sites'
    # entries only, in a copy per class when not every class runs in it
    sq = [a * a + b * b for a, b in zip(re, im)]

    # per class, in sweep order: where its draws start within one sweep's
    # draws, its sites, and either its rows of the table and None for the
    # numpy kernel, or for the Python loop the sites it reads (its own
    # first; all when it runs every class), its (coefficient, index) rows into
    # those, and their |psi|^2; it reads only its own draws, n_loop a sweep
    n_loop = sum(idx.size for idx in classes if idx.size < _NUMPY_CLASS_MIN)
    plan = []
    loop_positions: list[int] = []
    start = 0
    for idx in classes:
        if idx.size >= _NUMPY_CLASS_MIN:
            plan.append((start, idx, table[idx], None, None))
        else:
            reads = (np.arange(volume) if n_loop == volume
                     else np.concatenate([idx, np.setdiff1d(table[idx], idx)]))
            pos = {k: j for j, k in enumerate(reads.tolist())}
            rows = [(pos[i], tuple((c, pos[k]) for c, k in zip(coeffs, table[i].tolist())))
                    for i in idx.tolist()]
            plan.append((start, idx.tolist(), reads, rows, [sq[i] for i in idx.tolist()]))
            loop_positions.extend(range(start, start + idx.size))
        start += idx.size
    total_sweeps = spec.burn_in + n_samples * spec.thinning
    block = max(1, _DRAW_BLOCK // volume)
    if n_loop < volume:
        # the numpy kernel needs a complex array, which then holds the state;
        # the loop gathers a block's draws at these flat positions, by sweep
        state = np.empty(volume, dtype=np.complex128)
        state.real, state.imag = re, im
        re, im = state.real, state.imag
        loop_at = (np.arange(min(block, total_sweeps))[:, None] * volume
                   + loop_positions).ravel()
    else:
        # every class runs in the loop: one sweep's rows in visiting order, and thinning sweeps'
        order = [row for *_, rows, _ in plan for row in rows]
        between = order * spec.thinning

    n_accepted = 0
    # sample r is row r, written once burn_in + (r + 1) * thinning sweeps ran;
    # the loop's float lists are kept as C doubles, copied in once per block
    buffer = np.empty((n_samples, volume), dtype=np.complex128)
    buffer_re, buffer_im = buffer.real, buffer.imag
    block_re, block_im = array("d"), array("d")
    kept = 0
    keep_after = spec.burn_in + spec.thinning

    for first in range(0, total_sweeps, block):
        # whole blocks are drawn, for the prefix property; only the sweeps
        # this chain runs are turned into deltas and thresholds
        n_sweeps = min(block, total_sweeps - first)
        used = n_sweeps * volume
        deltas = np.empty(used, dtype=np.complex128)
        deltas.real = sigma * rng.standard_normal(block * volume)[:used]
        deltas.imag = sigma * rng.standard_normal(block * volume)[:used]
        d_re, d_im = deltas.real, deltas.imag
        quad = alpha0 * (d_re * d_re + d_im * d_im)
        with np.errstate(divide="ignore"):
            # accept iff dE < -log(u) / beta, i.e. u < exp(-beta dE)
            thresholds = -np.log(rng.random(block * volume)[:used]) / beta
        if n_loop:
            # the loop's draws in the order it visits its sites; every
            # loop class takes the next ones
            mine = slice(None) if n_loop == volume else loop_at[:n_sweeps * n_loop]
            draws = zip(d_re[mine].tolist(), d_im[mine].tolist(), quad[mine].tolist(),
                        thresholds[mine].tolist())
        sweep = first
        end = first + n_sweeps
        while sweep < end:
            if n_loop == volume:
                # the sweeps up to the next retained sample or the block's
                # end, as one run of the loop
                stop = min(keep_after, end)
                visits = between if stop - sweep == spec.thinning else order * (stop - sweep)
                n_accepted += _update_loop(visits, draws, re, im, sq, half_lam, mu)
            else:
                stop = sweep + 1
                for start, sites, nbrs, rows, own_sq in plan:
                    if rows is not None:
                        near_re, near_im = re[nbrs].tolist(), im[nbrs].tolist()
                        n_accepted += _update_loop(rows, draws, near_re, near_im, own_sq,
                                                   half_lam, mu)
                        for i, a, b in zip(sites, near_re, near_im):  # its sites lead
                            state[i] = complex(a, b)
                    else:
                        at = (sweep - first) * volume + start
                        n_accepted += _update_class(
                            state, sites, nbrs, coeffs, deltas[at:at + sites.size],
                            quad[at:at + sites.size], thresholds[at:at + sites.size],
                            half_lam, mu)
            sweep = stop
            if sweep == keep_after:
                if n_loop == volume:
                    block_re.fromlist(re)
                    block_im.fromlist(im)
                else:
                    buffer_re[kept], buffer_im[kept] = re, im
                kept += 1
                keep_after += spec.thinning
        if block_re:
            done = slice(kept - len(block_re) // volume, kept)
            buffer_re[done] = np.reshape(block_re, (-1, volume))
            buffer_im[done] = np.reshape(block_im, (-1, volume))
            del block_re[:], block_im[:]

    # frozen once, so the samples are FieldLs over its rows, checked once
    buffer.setflags(write=False)
    return GibbsChain(
        samples=field_rows(shape, buffer.reshape((n_samples,) + shape.dims)),
        n_proposed=total_sweeps * volume,
        n_accepted=n_accepted,
    )


def _update_loop(rows, draws, re, im, sq, half_lam, mu) -> int:
    """One Metropolis step per entry (i, row) of rows, in order: site i, with
    row its (coefficient, neighbour index) pairs, takes the next (delta re,
    delta im, alpha0 |delta|^2, threshold) of draws.  Updates the state's
    real and imaginary parts re and im and its |psi|^2 cache sq in place;
    returns the number accepted."""
    accepted = 0
    for (i, row), (dr, di, q, limit) in zip(rows, draws):
        hr = hi = 0.0
        for c, k in row:
            hr += c * re[k]
            hi += c * im[k]
        new_re = re[i] + dr
        new_im = im[i] + di
        old2 = sq[i]
        new2 = new_re * new_re + new_im * new_im
        d_energy = (2.0 * (dr * hr + di * hi) + q
                    + half_lam * (new2 * new2 - old2 * old2)
                    - mu * (new2 - old2))
        if d_energy < limit:
            re[i] = new_re
            im[i] = new_im
            sq[i] = new2
            accepted += 1
    return accepted


def _update_class(state, sites, nbrs, coeffs, delta, quad, threshold, half_lam, mu) -> int:
    """One Metropolis step at every site of a colour class at once, in the
    Python loop's arithmetic; nbrs is the class's clipped_table rows, quad
    alpha0 |delta|^2. Returns the number accepted."""
    h = _row_sum(coeffs, state[nbrs])
    old = state[sites]
    new = old + delta
    old2 = old.real * old.real + old.imag * old.imag
    new2 = new.real * new.real + new.imag * new.imag
    cross = delta.real * h.real + delta.imag * h.imag
    d_energy = 2.0 * cross + quad + half_lam * (new2 * new2 - old2 * old2) - mu * (new2 - old2)
    accept = d_energy < threshold
    state[sites[accept]] = new[accept]
    return int(np.count_nonzero(accept))


def acceptance_fraction(chain: GibbsChain) -> float:
    """Accepted fraction of all proposals in the chain."""
    if chain.n_proposed == 0:
        return 0.0
    return chain.n_accepted / chain.n_proposed


def tune_proposal_sigma(
    spec: GibbsSpec,
    pot: HoppingPotential,
    shape: LatticeShape,
    seed: int,
) -> float:
    """Multiplicative proposal-width adaptation toward a target acceptance.

    Runs short disposable chains; the returned width can then drive a fixed
    production kernel so stationarity arguments stay clean.
    """
    sigma = spec.proposal_sigma
    tune_seeds = np.random.SeedSequence(seed).spawn(_TUNE_ROUNDS)
    for tune_seed in tune_seeds:
        probe = replace(spec, proposal_sigma=sigma, burn_in=_TUNE_SWEEPS, thinning=1)
        chain = run_gibbs_chain(probe, pot, shape, int(tune_seed.generate_state(1)[0]), 0)
        sigma *= math.exp(1.5 * (acceptance_fraction(chain) - _TUNE_TARGET))
    return sigma


@dataclass(frozen=True)
class SampleStats:
    """Empirical E|psi(x)|^xi per site over samples, its standard errors and its max."""

    per_site_moments: np.ndarray
    per_site_se: np.ndarray
    max_moment: float


def site_moments(samples: Sequence[FieldL], xi: float) -> SampleStats:
    """Empirical E|psi(x)|^xi per site with standard errors, plus the max."""
    if len(samples) < 2:
        raise ValueError("need at least 2 samples for standard errors")
    if not (xi > 0):
        raise ValueError(f"moment order must be > 0, got {xi}")
    stack = np.abs(_stacked(samples)) ** xi
    means = stack.mean(axis=0)
    ses = stack.std(axis=0, ddof=1) / math.sqrt(len(samples))
    return SampleStats(per_site_moments=means, per_site_se=ses, max_moment=float(means.max()))


def site_uniformity_z(stats: SampleStats) -> float:
    """Largest |per-site moment - cross-site mean| in units of the site's SE."""
    center = float(stats.per_site_moments.mean())
    se = np.maximum(stats.per_site_se, 1e-300)
    return float(np.max(np.abs(stats.per_site_moments - center) / se))


@dataclass(frozen=True)
class PowerLawViolations:
    """Per sup-norm radius: the sites where |psi(x)| > <x>^(1/a), summed over
    the samples of a set, and the sites of the box."""

    violations_by_radius: dict[int, int]
    sites_by_radius: dict[int, int]


def power_law_violations(samples: Sequence[FieldL], a: float) -> PowerLawViolations:
    """Sites where |psi(x)| exceeds <x>^(1/a), per sup-norm radius, over all
    the samples of a set at once; the total is the sum of the counts.

    Uses the true coordinates of the box sites.
    """
    if not (a > 0):
        raise ValueError(f"exponent a must be > 0, got {a}")
    stack = _stacked(samples)
    shape = samples[0].shape
    above = np.abs(stack) > power_weight(shape, -1.0 / a)
    radii = torus_distance_grid(shape, (0,) * shape.d)
    violations_at = np.bincount(np.broadcast_to(radii, above.shape)[above], minlength=shape.L + 1)
    sites_at = np.bincount(radii.ravel(), minlength=shape.L + 1)
    return PowerLawViolations(
        violations_by_radius=dict(enumerate(violations_at.tolist())),
        sites_by_radius=dict(enumerate(sites_at.tolist())),
    )


def _stacked(samples: Sequence[FieldL]) -> np.ndarray:
    """The samples' values as one (n, *dims) stack; ValueError for an empty set
    or samples on different boxes."""
    if len(samples) == 0:
        raise ValueError("need at least 1 sample")
    shape = samples[0].shape
    if any(s.shape != shape for s in samples):
        raise ValueError("samples live on different lattices")
    return np.stack([s.values for s in samples])


def weighted_sup(sample: FieldL, exponent: float) -> float:
    """max over the box of |psi(x)| <x>^(-exponent), true coordinates; any
    real exponent."""
    return float(np.max(power_weight(sample.shape, exponent) * np.abs(sample.values)))


def median_with_se(values: Sequence[float]) -> tuple[float, float]:
    """Sample median and its large-sample standard error (normal approximation)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size < 2:
        raise ValueError("need at least 2 values")
    med = float(np.median(arr))
    se = 1.2533 * float(np.std(arr, ddof=1)) / math.sqrt(arr.size)
    return med, se
