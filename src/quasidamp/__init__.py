"""Collisional quasiparticle damping and atom-photon squeezing in a BEC.

The package splits into:

    model     units, Bogoliubov spectrum and mode functions, presets
    rates     Beliaev/Landau decay rates of a driven quasiparticle mode
    dynamics  damped pair-creation moment equations and squeezing readout,
              as arrays over the whole trajectory
    oracle    independent numerical cross-checks (discrete bath, Wick/Fock),
              imported on its own as quasidamp.oracle
    cli       JSON-config command-line front end

Only numpy is needed at run time; the tests use scipy and jsonschema as
independent references.
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
    RateGrid,
    RateQuery,
    RateResult,
    decay_rate,
    decay_rates,
)
from .dynamics import (  # noqa: F401
    DriveConfig,
    IntegrationError,
    MomentState,
    Readout,
    Trajectory,
    evolve_moments,
    readout,
    run_squeezing,
)
