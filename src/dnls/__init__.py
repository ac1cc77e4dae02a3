"""Lattice nonlinear Schrodinger simulator and verification harness."""

__version__ = "0.1.0"

from .lattice import (  # noqa: F401
    FieldL,
    LatticeShape,
    Site,
    ball,
    constant_generator,
    dump_field,
    embed_lookup,
    hashed_noise_generator,
    load_field,
    point_source,
    torus_dist_inf,
    truncate,
    wrap_add,
)
from .hopping import (  # noqa: F401
    Dispersion,
    HoppingPotential,
    convolve,
    dispersion,
    nearest_neighbor_laplacian,
    standard_laplacian,
    zero_potential,
)
from .dynamics import (  # noqa: F401
    SchemeConfig,
    Trajectory,
    duhamel_residual_first,
    duhamel_residual_second,
    g_site,
    integrate,
    p_site,
    rhs,
    step_rk4,
    step_strang,
)
from .observables import (  # noqa: F401
    GrowthBoundReport,
    LocalizationParams,
    WeightSpec,
    growth_bound_report,
    hamiltonian,
    local_density,
    local_particle_number,
    particle_flux,
    particle_number,
    weight_normalization,
    weighted_bound_check,
    weighted_bound_prefactor,
    weighted_flux,
    weighted_norm,
)
from .convergence import (  # noqa: F401
    DisagreementReport,
    SweepConfig,
    drift,
    pointwise_disagreement,
    run_box_sweep,
    scheme_disagreement,
    window_disagreement,
)
from .sampling import (  # noqa: F401
    GaussianSpec,
    GibbsChain,
    GibbsSpec,
    PowerLawViolations,
    SampleStats,
    acceptance_fraction,
    power_law_violations,
    run_gibbs_chain,
    sample_gaussian,
    sample_gibbs,
    site_moments,
    two_point_function,
    weighted_sup,
)
