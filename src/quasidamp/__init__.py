"""Collisional quasiparticle damping and atom-photon squeezing in a BEC.

The package splits into:

    model     units, Bogoliubov spectrum and mode functions, presets, and
              the command inputs and errors (Channel, DriveConfig,
              QuadratureError, IntegrationError); standard library only
    rates     Beliaev/Landau decay rates of a driven quasiparticle mode
    dynamics  damped pair-creation moment equations and squeezing readout,
              as arrays over the whole trajectory
    oracle    independent numerical cross-checks (discrete bath, Wick/Fock)
    cli       JSON-config command-line front end

Only numpy is needed at run time; the tests use scipy and jsonschema as
independent references.  The package re-exports the names of `model`
alone, so `import quasidamp` loads no numpy.  Import the numerical modules
as modules: `quasidamp.rates`, `quasidamp.dynamics` and `quasidamp.oracle`.
"""

__version__ = "0.1.0"

from .model import (  # noqa: F401
    HBAR,
    K_BOLTZMANN,
    MASS_NA23,
    PRESETS,
    BogoliubovMode,
    Channel,
    DriveConfig,
    IntegrationError,
    ParameterError,
    PhysicalParams,
    QuadratureError,
    bogoliubov_mode,
    dispersion,
    thermal_population,
)
