"""Collisional quasiparticle damping and atom-photon squeezing in a BEC.

The package splits into:

    model     units, Bogoliubov spectrum and mode functions, presets
    rates     Beliaev/Landau decay rates of a driven quasiparticle mode
    dynamics  damped pair-creation moment equations and squeezing readout
    oracle    independent numerical cross-checks (discrete bath, Wick/Fock)
    cli       JSON-config command-line front end
"""

__version__ = "0.1.0"

from .model import (  # noqa: F401
    HBAR,
    K_BOLTZMANN,
    MASS_NA23,
    PRESETS,
    BogoliubovMode,
    ParameterError,
    PhysicalParams,
    TwoLevelParams,
    UnitSystem,
    bogoliubov_mode,
    derive_units,
    dispersion,
    group_velocity,
    inverse_dispersion,
    thermal_population,
)
from .rates import (  # noqa: F401
    Channel,
    QuadratureError,
    RateQuery,
    RateResult,
    beliaev_asymptote,
    beliaev_rate_single,
    beliaev_rate_two_level,
    decay_rate,
    decay_rates,
    landau_rate_single,
    landau_rate_two_level,
)
from .dynamics import (  # noqa: F401
    DriveConfig,
    IntegrationError,
    MomentState,
    SqueezingPoint,
    SqueezingRun,
    evolve_moments,
    occupations,
    run_squeezing,
    squeezing_xi3,
    squeezing_xi12,
)
from .oracle import (  # noqa: F401
    AmplitudeSeries,
    BathSpec,
    GaussianSecondMoments,
    Verdict,
    fit_decay_rate,
    flat_bath,
    integrate_discrete_bath,
    markov_suite,
    run_all_suites,
    tms_fock_reference,
    wick_fourth_moment,
    wick_suite,
    windowed_bath,
)
