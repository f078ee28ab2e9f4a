"""Flux families and the structural-assumption audit.

A flux f(x, u) enters the solver only after an audit certifies, on a
user-declared working box, that it vanishes to first order at u = 0, is
uniformly convex in u, and has finite propagation speeds.  The audit is
sampling-based: it certifies behaviour at the grid points and reports the
constants (convexity floor, speed envelope) the rest of the library uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

# S0 checks: builtins evaluate their structure exactly; DSL fluxes go through
# forward-mode derivatives plus floating-point evaluation and accumulate rounding.
TOL_AUDIT_BUILTIN = 1e-10
TOL_AUDIT_DSL = 1e-7

# sampled minima cannot certify a true infimum; shave the DSL convexity floor
DSL_ALPHA_SAFETY = 0.99

FD_STEP = 1e-4

BUILTIN_FAMILIES = ("homogeneous_burgers", "modulated_burgers", "custom_expr")


class InvalidFluxParams(ValueError):
    pass


class DomainError(ArithmeticError):
    """Evaluation left the finite numbers: overflow, division by zero or an
    invalid operation such as sqrt of a negative number.

    Raised by the DSL (``fronttrack.expr`` re-exports it); defined here so that
    the audit and the CLI catch it without loading the parser.
    """

    def __init__(self, text, reason):
        super().__init__(f"cannot evaluate `{text}`: {reason}")


@dataclass(frozen=True)
class Flux:
    """Evaluable heterogeneous flux with partial derivatives.

    All callables accept scalars or numpy arrays (elementwise).  ``alpha`` is
    the certified lower bound on f_uu; it is None for a DSL flux until an
    audit has certified one.

    ``at`` maps positions x to the pair (f(x, .), f_u(x, .)) of functions of
    u alone, with the work that depends only on x done once; the bound
    functions must agree with ``f`` and ``fu`` bit for bit.  ``point`` maps
    Python floats (x, u) to the Python floats (f, f_u, f_x) at that point,
    bit for bit those of ``f``, ``fu`` and ``fx``.  Either one not given is
    derived from ``f``, ``fu`` and ``fx``, with no work shared.  The tracker
    locates contacts on the few fronts near them through ``point`` and moves
    the rest through ``at``, so a located event's positions rest on that
    agreement.  A copy that replaces ``f``, ``fu`` or ``fx`` must therefore
    pass ``at=None`` and ``point=None`` as well.
    """

    f: Callable
    fu: Callable
    fx: Callable
    fuu: Callable
    alpha: Optional[float]
    family: str
    params: dict = field(default_factory=dict)
    at: Optional[Callable] = None
    point: Optional[Callable] = None

    def __post_init__(self):
        f, fu, fx = self.f, self.fu, self.fx
        object.__setattr__(self, "at", self.at or (lambda x: (lambda u: f(x, u),
                                                              lambda u: fu(x, u))))
        object.__setattr__(self, "point", self.point or (lambda x, u: (
            float(f(x, u)), float(fu(x, u)), float(fx(x, u)))))

    def require_alpha(self):
        if self.alpha is None or not 0.0 < self.alpha < np.inf:  # also nan
            raise ValueError(
                "flux has no certified convexity constant; run audit_assumptions "
                "and certify() first"
            )
        return self.alpha


class Violation(NamedTuple):
    assumption: str
    point: tuple
    observed: float


@dataclass
class AssumptionReport:
    passed: bool
    violations: list
    certified_alpha: float
    sample_counts: tuple
    # sampled upper bounds used where the theory needs sup-norms on compacts
    fuu_max: float

    def summary(self):
        head = "passed" if self.passed else f"FAILED ({len(self.violations)} violations)"
        return (f"audit {head}: alpha={self.certified_alpha:.6g}, "
                f"fuu_max={self.fuu_max:.6g}, samples={self.sample_counts}")


@dataclass(frozen=True)
class SpeedEnvelope:
    """Envelope theta(v) = max over x_grid of |f_u(x, v)| for v in [v_lo, v_hi].

    theta is evaluated at the states it is asked for, not tabulated.
    """

    fu: Callable
    x_grid: np.ndarray
    v_lo: float
    v_hi: float

    def theta(self, v):
        v = np.asarray(v, dtype=float)
        if np.any(v < self.v_lo) or np.any(v > self.v_hi):
            raise ValueError(f"state {v} outside envelope range [{self.v_lo}, {self.v_hi}]")
        X, V = np.meshgrid(self.x_grid, v.ravel(), indexing="ij")
        speeds = np.abs(np.asarray(self.fu(X, V), dtype=float))
        if not np.all(np.isfinite(speeds)):
            raise ValueError(f"speed envelope is not finite on the sampled grid at {v}")
        out = speeds.max(axis=0).reshape(v.shape)
        return float(out) if out.ndim == 0 else out

    def lipschitz_L(self, u_bound):
        u_bound = abs(float(u_bound))
        return max(self.theta(u_bound), self.theta(-u_bound))


# ---------------------------------------------------------------------------
# builtin families
# ---------------------------------------------------------------------------

def _scaled_burgers(family, params, a_min, coefficient):
    """f = a(x) u^2/2 with a >= a_min > 0; ``coefficient(sin, cos)`` returns a
    and a' written with the given sin and cos, instantiated with numpy's for
    arrays and with math's for ``point``, so both run the same operations."""
    a, da = coefficient(np.sin, np.cos)
    a_float, da_float = coefficient(math.sin, math.cos)

    def at(x):
        ax = a(x)
        half = 0.5 * ax  # 0.5 * a(x) * u * u multiplies left to right
        return (lambda u: half * u * u), (lambda u: ax * u)

    def point(x, u):
        ax = a_float(x)
        return 0.5 * ax * u * u, ax * u, 0.5 * da_float(x) * u * u

    return Flux(
        f=lambda x, u: 0.5 * a(x) * u * u,
        fu=lambda x, u: a(x) * u,
        fx=lambda x, u: 0.5 * da(x) * u * u,
        fuu=lambda x, u: a(x) + 0.0 * u,
        alpha=a_min,
        family=family,
        params=params,
        at=at,
        point=point,
    )


def make_builtin_flux(family, **params):
    """Construct a flux from a named family.

    homogeneous_burgers: f = u^2/2
    modulated_burgers:   f = a(x) u^2/2 with a(x) = base + amp*sin(freq*x + phase)
    custom_expr:         f parsed from ``expr`` (a string in x, u, or a tree);
                         f and its exact derivatives run as the tree's jet,
                         alpha left for the audit.
    """
    if family == "homogeneous_burgers":
        if params:
            raise InvalidFluxParams(f"homogeneous_burgers takes no params, got {params}")
        return _scaled_burgers(family, {}, 1.0, lambda sin, cos: (
            (lambda x: 1.0 + 0.0 * x), (lambda x: 0.0 * x)))

    if family == "modulated_burgers":
        base = float(params.pop("base", 1.0))
        amp = float(params.pop("amp", 0.0))
        freq = float(params.pop("freq", 1.0))
        phase = float(params.pop("phase", 0.0))
        if params:
            raise InvalidFluxParams(f"unknown modulated_burgers params {params}")
        if not np.isfinite([base, amp, freq, phase]).all():
            raise InvalidFluxParams(f"modulated_burgers params must be finite, got "
                                    f"base={base}, amp={amp}, freq={freq}, phase={phase}")
        a_min = base - abs(amp)
        if a_min <= 0.0:
            raise InvalidFluxParams(
                f"modulated_burgers needs base - |amp| > 0, got a_min={a_min}"
            )

        def coefficient(sin, cos):
            return (lambda x: base + amp * sin(freq * x + phase),
                    lambda x: amp * freq * cos(freq * x + phase))

        return _scaled_burgers(family, {"base": base, "amp": amp, "freq": freq,
                                        "phase": phase}, a_min, coefficient)

    if family == "custom_expr":
        source = params.pop("expr", None)
        if params:
            raise InvalidFluxParams(f"unknown custom_expr params {params}")
        if source is None:
            raise InvalidFluxParams("custom_expr requires expr=<string>")
        from . import expr as fexpr  # the parser loads only for a DSL flux
        tree = fexpr.parse(source) if isinstance(source, str) else source
        extra = fexpr.free_vars(tree) - set(fexpr.VARIABLES)
        if extra:
            raise InvalidFluxParams(f"flux expression uses unknown variables {extra}")
        jet = fexpr.jet(tree)
        return Flux(  # f is the jet's f, called through evaluate, the traced entry point
            f=lambda x, u, t=tree: fexpr.evaluate(t, x, u),
            fu=jet["fu"],
            fx=jet["fx"],
            fuu=jet["fuu"],
            at=jet["at"],
            point=jet["point"],
            alpha=None,
            family=family,
            params={"expr": source if isinstance(source, str) else fexpr.pretty(source)},
        )

    raise InvalidFluxParams(f"unknown flux family {family!r}; choose from {BUILTIN_FAMILIES}")


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

def audit_assumptions(flux, box, grid=64):
    """Certify the structural assumptions on a box; failures are reported, not raised.

    box is ((x_lo, x_hi), (u_lo, u_hi)); grid is the sample count per axis,
    at least 16.
    """
    (x_lo, x_hi), (u_lo, u_hi) = box
    if not (x_hi > x_lo and u_hi > u_lo):
        raise ValueError(f"degenerate audit box {box}")
    if grid < 16:
        raise ValueError(f"audit grid too coarse: {grid} (need >= 16 per axis)")

    xs = np.linspace(x_lo, x_hi, grid)
    us = np.linspace(u_lo, u_hi, grid)
    X, U = np.meshgrid(xs, us, indexing="ij")
    dsl = flux.family == "custom_expr"
    tol = TOL_AUDIT_DSL if dsl else TOL_AUDIT_BUILTIN
    violations = []

    def record(mask, name, observed, xpts, upts):
        idx = np.argwhere(mask)
        for k in idx[:8]:  # cap the witnesses, the count is what matters
            point = (float(xpts[tuple(k)]), float(upts[tuple(k)]))
            violations.append(Violation(name, point, float(observed[tuple(k)])))
        if len(idx) > 8:
            violations.append(Violation(name, ("...",), float(len(idx))))

    def sample(fn, xpts, upts):
        # on the sample grid's shape: a constant, such as the f_uu of -u^2/2, is one number
        return np.broadcast_to(np.asarray(fn(xpts, upts), dtype=float), xpts.shape)

    certified = fuu_max = float("nan")  # stay nan if the flux cannot be sampled
    try:
        # (S0) stationarity at zero, along the x-samples
        zeros = np.zeros_like(xs)
        f0 = sample(flux.f, xs, zeros)
        fu0 = sample(flux.fu, xs, zeros)
        record(np.abs(f0) > tol, "S0:f(x,0)=0", f0, xs, zeros)
        record(np.abs(fu0) > tol, "S0:f_u(x,0)=0", fu0, xs, zeros)

        # (UC) uniform convexity on the full grid
        fuu = sample(flux.fuu, X, U)
        record(fuu <= 0.0, "UC:f_uu>0", fuu, X, U)
        fuu_max = float(np.max(fuu))
        certified = float(np.min(fuu)) * (DSL_ALPHA_SAFETY if dsl else 1.0)

        # (FSP) envelope values stay finite on the u-samples
        fu_grid = sample(flux.fu, X, U)
        record(~np.isfinite(fu_grid), "FSP:theta finite", fu_grid, X, U)

        # consequences the rest of the library leans on, checked against the
        # constant the audit actually exports: the sampled f_uu minimum can sit
        # above the true infimum between u-samples, which is what the DSL safety
        # factor absorbs (an analytically known alpha is a true bound already)
        alpha_check = flux.alpha if flux.alpha is not None else certified
        f_grid = sample(flux.f, X, U)
        if alpha_check > 0.0:
            lower = 0.5 * alpha_check * U * U
            record(f_grid < lower - tol, "f>=alpha*u^2/2", f_grid - lower, X, U)
        nonzero = np.abs(U) > 1e-12
        record(nonzero & (f_grid <= 0.0), "f>0 for u!=0", f_grid, X, U)

        violations.extend(_derivative_consistency(flux, xs, us))
    except DomainError as e:
        violations.append(Violation(f"domain: {e}", (), float("nan")))

    return AssumptionReport(
        passed=not violations,
        violations=violations,
        certified_alpha=certified,
        sample_counts=(grid, grid),
        fuu_max=fuu_max,
    )


def _derivative_consistency(flux, xs, us, h=FD_STEP):
    """Central finite differences of f must match the declared derivatives to O(h^2)."""
    xs = xs[:: max(1, len(xs) // 12)]
    us = us[:: max(1, len(us) // 12)]
    X, U = np.meshgrid(xs, us, indexing="ij")
    scale = 1.0 + np.max(np.abs(np.asarray(flux.f(X, U), dtype=float)))
    tol = 1e-5 * scale  # h^2 * (third-derivative scale), with headroom

    out = []
    fd_u = (np.asarray(flux.f(X, U + h)) - np.asarray(flux.f(X, U - h))) / (2 * h)
    fd_x = (np.asarray(flux.f(X + h, U)) - np.asarray(flux.f(X - h, U))) / (2 * h)
    fd_uu = (np.asarray(flux.fu(X, U + h)) - np.asarray(flux.fu(X, U - h))) / (2 * h)
    for name, got, want in (
        ("consistency:f_u", fd_u, np.asarray(flux.fu(X, U), dtype=float)),
        ("consistency:f_x", fd_x, np.asarray(flux.fx(X, U), dtype=float)),
        ("consistency:f_uu", fd_uu, np.asarray(flux.fuu(X, U), dtype=float)),
    ):
        err = np.abs(got - want)
        bad = np.argwhere(err > tol)
        for k in bad[:4]:
            out.append(Violation(name, (float(X[tuple(k)]), float(U[tuple(k)])),
                                 float(err[tuple(k)])))
    return out


def certify(flux, report):
    """Return a copy of the flux carrying the audited convexity constant."""
    if not report.passed:
        raise ValueError(f"cannot certify a failed audit: {report.summary()}")
    if report.certified_alpha <= 0.0:
        raise ValueError(f"audit produced non-positive alpha {report.certified_alpha}")
    if flux.alpha is not None:
        return flux
    return replace(flux, alpha=report.certified_alpha)


def speed_envelope(flux, v_grid, x_grid):
    """Envelope over x_grid for the states between the extremes of v_grid."""
    v_grid = np.asarray(v_grid, dtype=float)
    x_grid = np.asarray(x_grid, dtype=float)
    if v_grid.size == 0 or x_grid.size == 0:
        raise ValueError("speed_envelope needs non-empty grids")
    return SpeedEnvelope(fu=flux.fu, x_grid=x_grid,
                         v_lo=float(v_grid.min()), v_hi=float(v_grid.max()))


def default_envelope(flux, window, u_bound):
    """Envelope over the working window, padded a little beyond the state bound."""
    vmax = abs(u_bound) * 1.0000001 + 1e-12
    return speed_envelope(flux, [-vmax, vmax], np.linspace(window[0], window[1], 4096))
