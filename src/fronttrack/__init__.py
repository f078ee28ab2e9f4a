"""Front tracking for scalar conservation laws with heterogeneous convex flux.

Solves u_t + f(x, u)_x = 0 for fluxes that vanish to first order at u = 0,
are uniformly convex in u and have finite propagation speeds.  The solver
state is piecewise stationary: the sign-flux field g(x, u) = sgn(u) f(x, u)
is piecewise constant on the delta-grid and only front positions evolve,
each along its own Rankine-Hugoniot ODE, with interactions resolved exactly
into single fronts.

The modules only the checks use, ``riemann`` and ``validation``, the names
exported from them, and the DSL parser ``expr`` are imported on first access
(PEP 562), and a DSL flux or profile imports the parser when it is built, so
a solve loads only the flux, inversion, profile, contact-location and
tracker modules.
"""

__version__ = "0.1.0"

from .fluxes import (Flux, SpeedEnvelope, AssumptionReport, make_builtin_flux,
                     audit_assumptions, certify, speed_envelope, default_envelope,
                     InvalidFluxParams)
from .stationary import (g_of, solve_level, profile_slope, inversion_gap_bound,
                         InversionError, TOL_INV)
from .tracker import (FrontField, Event, Tracker, TrackedSolution,
                      quantize_initial, initial_fronts, rh_speed, sample_u, sample_g,
                      tv_g, l1_g_distance, empty_field, TrackerError, AdmissibilityError,
                      OrderingLostError, LoopLimitError, DegenerateStatesError,
                      ProfileInversionError, WindowExitError, TOL_POS, TOL_EVENT)
from .profiles import make_initial, smooth_bump, smooth_bump_prime

# name -> the submodule it is read from, imported on first access
_LAZY = {"expr": "expr", "riemann": "riemann", "ApproxFlux": "riemann", **dict.fromkeys((
    "validation", "TestFunction", "QuadSpec", "kruzkov_residual", "approx_kruzkov_residual",
    "entropy_battery", "entropy_tol", "characteristic_check", "characteristic_fan",
    "SingleFrontSolution", "FVGrid", "fv_reference", "l1_distance", "l1_u_fields",
    "domain_of_dependence_check", "flux_convergence_check", "ValidationReport",
    "CheckResult"), "validation")}

__all__ = [name for name in dir() if not name.startswith("_")] + list(_LAZY)


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value
