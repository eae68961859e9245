"""Radially symmetric target distributions with polynomial or stretched tails.

This module is the root of the package: it defines the potential families,
their analytic structure (gradients, growth envelopes, smoothness constants,
normalizing constants, moments, tail bounds, the couplings and bounds the
complexity theorems attach to each tail regime), exact samplers, and the
radius-penalized modification of a target used by the discretization
analysis.  Everything downstream (chains, diagnostics, bound calculators,
functional-inequality checkers) consumes the small frozen dataclasses
declared here, and asks them for their family-specific knowledge.

Families
--------
``GenCauchy(d, nu)``
    pi(x) proportional to (1 + |x|^2)^(-(d+nu)/2).  Polynomial tails; moments
    of order p exist iff p < nu.  The potential is V(x) =
    ((d+nu)/2) * log(1+|x|^2) with V(0) = 0.
``Sublinear(d, alpha, lam)``
    V(x) = (1 + lam^(2/alpha) |x|^2)^(alpha/2) with alpha in (0, 1].
    Stretched-exponential tails; all moments finite.  V(0) = 1.
``Gaussian(d)``
    V(x) = |x|^2 / 2.  The light-tailed reference point of the family scale.
``RadialCustom(d, f, fprime)``
    V(x) = f(|x|^2) for a user-supplied radial profile.  Only generic
    (quadrature-backed) operations are available.

Adding a family
---------------
Write one frozen dataclass deriving from :class:`RadialFamily` with an
integer field ``d`` and the methods ``profile(t)`` and ``profile_prime(t)``
(f and f' at t = |x|^2, elementwise).  Potentials, gradients, chains, and
log Z, moments, tails and samples by quadrature then work.  A family may
override ``grad_coef(t, top)``, the gradient's factor 2 f'(t), to compute
it in fewer passes; it must return the bytes of ``2.0 * profile_prime(t)``.
Closed forms and bounds are opt-in, one method each (see
:class:`RadialFamily`); the rest raise :class:`UnsupportedFamilyError`.
These methods are also how callers ask a family for them, so each one
that takes an argument checks it.  For JSON and the command line, set
``tag``, ``json_fields`` and ``sweep_params`` and list the class in
:data:`FAMILY_TAGS`.

Conventions
-----------
* Points are row vectors: arrays of shape ``(n, d)`` or a single ``(d,)``.
* All radial profiles act on t = |x|^2, not on |x|.
* Normalizing constants Z satisfy pi(x) = exp(-V(x)) / Z.
* Growth envelopes are stated as |grad V(x)| <= b |x| / (1+|x|^2)^(1-alpha/2),
  so alpha = 0 is the heaviest (polynomial) regime and alpha = 2 the
  quadratic one.

Errors
------
All exceptions derive from :class:`HeavyTailError`; operations that are
structurally undefined for a family raise :class:`UnsupportedFamilyError`,
divergent integrals raise :class:`MomentUndefinedError`, and bad arguments
raise :class:`InputValidationError`.

Log-gamma and the inverse complementary error function are transcribed
from Cephes (:func:`_gammaln`, :func:`_erfcinv`) and the exact sampler's
monotone interpolant from scipy's PCHIP (:func:`_pchip`), so the package
computes on numpy alone.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Mapping, Optional, Union

import numpy as np

__all__ = [
    "HeavyTailError",
    "InputValidationError",
    "UnsupportedFamilyError",
    "MomentUndefinedError",
    "NumericsError",
    "AssumptionViolatedError",
    "RadialFamily",
    "GenCauchy",
    "Sublinear",
    "Gaussian",
    "RadialCustom",
    "PotentialSpec",
    "FAMILY_TAGS",
    "GrowthParams",
    "HolderSmoothness",
    "SublinearMomentBound",
    "potential",
    "grad_potential",
    "sq_norms",
    "log_normalizing_constant",
    "radial_moment",
    "tilde_moment",
    "tilde_log_normalizing_constant",
    "tail_mass",
    "direct_sampler",
    "median_radius",
    "modified_target_m",
    "modified_target_spec",
    "spec_to_json",
    "spec_from_json",
    "gaussian_renyi",
    "beta_wpi_cauchy",
]


# ---------------------------------------------------------------------------
# Exceptions
# ---------------------------------------------------------------------------


class HeavyTailError(Exception):
    """Base class for all errors raised by this package."""


class InputValidationError(HeavyTailError, ValueError):
    """An argument is outside the domain an operation is defined on."""


class UnsupportedFamilyError(HeavyTailError, ValueError):
    """The requested operation is not defined for this potential family."""


class MomentUndefinedError(HeavyTailError, ValueError):
    """A requested moment (or moment-based quantity) diverges for the target."""


class NumericsError(HeavyTailError, RuntimeError):
    """A quadrature or root-finding step failed to reach its tolerance."""


class AssumptionViolatedError(HeavyTailError, RuntimeError):
    """A structural assumption checked at runtime (monotonicity, convexity,
    stability) does not hold for the supplied inputs."""


# ---------------------------------------------------------------------------
# Family dataclasses
# ---------------------------------------------------------------------------

#: Target mass the inverse-CDF sampler leaves beyond its sampling radius.
_SAMPLING_TAIL_MASS = 1e-12


def _validate_dimension(d: int) -> None:
    if not isinstance(d, (int, np.integer)) or isinstance(d, bool) or d < 1:
        raise InputValidationError(f"dimension d must be a positive integer, got {d!r}")


def _require_radius(R: float) -> None:
    if not (R > 0.0):
        raise InputValidationError(f"tail radius R must be positive, got {R}")


def _require_mass(mass: float) -> None:
    if not (0.0 < mass < 1.0):
        raise InputValidationError(f"tail mass must lie in (0, 1), got {mass}")


def _require_variance(sigma2: float) -> None:
    if not (0.0 < sigma2 < math.inf):
        raise InputValidationError(
            f"start variance sigma2 must be a finite positive real, got {sigma2}")


class RadialFamily(abc.ABC):
    """A radially symmetric target, V(x) = f(|x|^2) on R^d.

    Subclasses are frozen dataclasses with an integer field ``d``; they
    must provide the profile f and its derivative on t = |x|^2.  The other
    methods default to quadrature where quadrature can answer; a closed
    form or bound that a family does not override raises
    :class:`UnsupportedFamilyError`.
    """

    #: JSON ``family`` tag; a family without one cannot be serialized.
    tag: ClassVar[Optional[str]] = None
    #: JSON key -> dataclass field for the parameters besides ``d``.
    json_fields: ClassVar[Mapping[str, str]] = {}
    #: Parameters of the family's leg in the phase sweep, besides ``d``.
    sweep_params: ClassVar[Mapping[str, float]] = {}
    #: Whether the LMC iteration theorem's growth regime covers the family.
    has_iteration_bound: ClassVar[bool] = False

    @abc.abstractmethod
    def profile(self, t: np.ndarray) -> np.ndarray:
        """f(t) with V(x) = f(|x|^2), elementwise."""

    @abc.abstractmethod
    def profile_prime(self, t: np.ndarray) -> np.ndarray:
        """f'(t), elementwise."""

    def grad_coef(self, t: np.ndarray, top: float) -> Union[np.ndarray, float]:
        """2 f'(t), the factor in grad V(x) = 2 f'(|x|^2) x, for a float
        array t whose largest element is ``top`` (a scalar broadcasts).

        :func:`grad_potential` calls it once per batch.  A family may
        override it to compute the product in fewer passes, but must return
        this default's bytes for every t; ``top`` tells it where a folded
        expression would round differently.
        """
        return 2.0 * np.asarray(self.profile_prime(t), dtype=float)

    def _unsupported(self, what: str) -> UnsupportedFamilyError:
        return UnsupportedFamilyError(f"{type(self).__name__} registers no {what}")

    @property
    def tail_index(self) -> Optional[float]:
        """The order nu from which moments diverge, or None if all exist."""
        return None

    def growth(self) -> GrowthParams:
        """Envelope (b, alpha) with |grad V(x)| <= b |x| / (1+|x|^2)^(1-alpha/2).

        Exact (attained) for each closed-form family:

        * GenCauchy: (b, alpha) = (d + nu, 0)
        * Sublinear: (b, alpha) = (alpha * max(lam^(2/alpha), lam), alpha)
        * Gaussian:  (b, alpha) = (1, 2)
        """
        raise self._unsupported("growth envelope (closed-form families only)")

    def holder(self) -> HolderSmoothness:
        """Gradient Holder constants (L, s); all closed-form families have s = 1.

        The discretization assumptions downstream require L >= 1, so the
        constant is clamped from below at 1 (only the sublinear family at
        small scale is affected).
        """
        raise self._unsupported("Holder constants (closed-form families only)")

    def _memo(self, key, compute: Callable[[], float]) -> float:
        """``compute()``, evaluated once per ``key`` and kept on the instance.

        The memo sits in the instance ``__dict__`` beside the dataclass
        fields, so equality, hashing, repr and JSON ignore it, and an equal
        spec built elsewhere starts empty.  The values are deterministic, so
        threads that race on one entry store the same float; a failed
        computation stores nothing and raises again on the next call.  Only
        the normalizer, the moments and the median radius are kept, so a
        scan over tail radii does not grow it.
        """
        memo = self.__dict__.setdefault("_quadratures", {})
        if key not in memo:
            memo[key] = compute()
        return memo[key]

    def _integral(self, p: float = 0.0) -> float:
        """:func:`_radial_integral` of this family's profile over [0, inf)."""
        return self._memo(p, lambda: _radial_integral(self.profile, self.d, p=p))

    def log_z(self) -> float:
        """log Z by validated radial quadrature."""
        return _log_sphere_area(self.d) + math.log(self._integral())

    def _require_moment(self, p: float) -> None:
        """Reject an order that is not a finite real >= 0, or one at or
        beyond the family's tail index."""
        if not (0.0 <= p < math.inf):
            raise InputValidationError(
                f"moment order p must be a finite real >= 0, got {p}")
        nu = self.tail_index
        if nu is not None and p >= nu:
            raise MomentUndefinedError(
                f"{type(self).__name__} moment of order p={p} diverges "
                f"(requires p < nu={nu})"
            )

    def closed_moment(self, p: float):
        """Closed-form E_pi |x|^p, for a finite order p >= 0 the moment
        exists at.

        A float for GenCauchy (p < nu) and Gaussian.  For Sublinear a
        :class:`SublinearMomentBound` pair (exact surrogate moment, e-factor
        upper bound).  RadialCustom has no closed form; use
        :func:`radial_moment`.
        """
        raise self._unsupported("closed-form moment; use radial_moment")

    def tail_bound(self, R: float) -> float:
        """Explicit upper bound on pi(|x| >= R) for R > 0; not clamped at 1.

        * GenCauchy: (nu + d)^(nu/2) * R^(-nu)
        * Sublinear (lam = 1): e^(1/2) * 2^(d/alpha) * exp(-(1+R^2)^(alpha/2)/2)

        The Gaussian and custom families have no registered bound.
        """
        raise self._unsupported("tail bound")

    def deep_tail_quantile(self, mass: float) -> float:
        """Radius with two-sided mass <= ``mass`` by an analytic (wide) estimate."""
        raise self._unsupported("deep tail quantile; pass an explicit window")

    def sampling_radius(self) -> float:
        """A radius whose tail mass is below ``_SAMPLING_TAIL_MASS``, by doubling."""
        R = 1.0
        while tail_mass(self, R) > _SAMPLING_TAIL_MASS:
            R *= 2.0
            if R > 1e12:
                raise NumericsError("direct_sampler: tail radius search failed")
        return R

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n draws from pi: radial inverse-CDF lookup times a direction."""
        r_max = self.sampling_radius()
        inv = _radial_inverse_cdf(self, r_max)
        u = rng.random(n)
        r = np.asarray(inv(u), dtype=float)
        r = np.nan_to_num(r, nan=r_max)
        dirs = _sphere_directions(rng, n, self.d)
        return r[:, None] * dirs

    def to_json(self) -> dict:
        """The :func:`spec_to_json` dict."""
        if self.tag is None:
            raise self._unsupported("JSON tag; it cannot be serialized")
        out = {"family": self.tag, "d": self.d}
        out.update({key: getattr(self, name) for key, name in self.json_fields.items()})
        out.setdefault("lambda", 1.0)
        return out

    def coupling_delta0(self, sigma2: float) -> float:
        """The initial-divergence scale the lower-bound theorems couple to
        the start variance sigma2, a finite real:

        * log tails (GenCauchy, sigma2 > 1):  nu * ln(sigma2)
        * subexponential (sigma2 > 0):        (b sigma2)^{alpha/(2-alpha)} / alpha
        * square (PI) case (sigma2 > 0):      b d sigma2 / 2
        """
        raise self._unsupported("divergence coupling")

    def wpi_beta(self) -> Callable[[float], float]:
        """The family's weak-Poincare weighting r -> beta(r)."""
        raise self._unsupported("closed-form WPI weighting")

    def rinf_bound(self, sigma2: float) -> tuple[float, dict]:
        """Sup-log-ratio bound of N(0, sigma2 I_d) against pi, intermediates."""
        raise self._unsupported("sup-log-ratio bound")

    def kl_bound(self, sigma2: float) -> tuple[float, dict]:
        """Relative-entropy bound of N(0, sigma2 I_d) against the target."""
        raise self._unsupported(
            "KL initialization bound (stated for gaussian-tail targets); "
            "use kind='Rinf' for heavy-tailed families"
        )

    def start_renyi(self, q: float, sigma2: float) -> tuple[float, dict]:
        """Upper bound on R_q(N(0, sigma2 I_d) || pi), q in (1, inf], with
        intermediates naming it: the sup-log-ratio bound dominates every q."""
        inner, inter = self.rinf_bound(sigma2)
        inter["inner_rinf"] = inner
        return inner, inter


@dataclass(frozen=True)
class GenCauchy(RadialFamily):
    """Generalized Cauchy target: pi(x) ~ (1 + |x|^2)^(-(d+nu)/2).

    Parameters
    ----------
    d : int
        Ambient dimension.
    nu : float
        Tail index; moments of order p exist iff p < nu.
    """

    d: int
    nu: float

    tag: ClassVar[str] = "gen_cauchy"
    json_fields: ClassVar[Mapping[str, str]] = {"nu": "nu"}
    sweep_params: ClassVar[Mapping[str, float]] = {"nu": 2.0}

    def __post_init__(self) -> None:
        _validate_dimension(self.d)
        if not (math.isfinite(self.nu) and self.nu > 0):
            raise InputValidationError(f"nu must be a finite positive real, got {self.nu!r}")

    def profile(self, t: np.ndarray) -> np.ndarray:
        half = 0.5 * (self.d + self.nu)
        return half * np.log1p(t)

    def profile_prime(self, t: np.ndarray) -> np.ndarray:
        half = 0.5 * (self.d + self.nu)
        return half / (1.0 + np.asarray(t, dtype=float))

    def grad_coef(self, t: np.ndarray, top: float) -> Union[np.ndarray, float]:
        # 2 (half / y) is (d + nu) / y unless half / y is subnormal, which
        # needs y = 1 + t > half 2**1022 > 2**1021.
        if not top < 2.0**1021:
            return super().grad_coef(t, top)
        c = t + 1.0
        return np.divide(self.d + self.nu, c, out=c)

    @property
    def tail_index(self) -> float:
        return self.nu

    def growth(self) -> GrowthParams:
        return GrowthParams(b=float(self.d + self.nu), alpha=0.0)

    def holder(self) -> HolderSmoothness:
        return HolderSmoothness(L=float(self.d + self.nu), s=1.0)

    def log_z(self) -> float:
        return (
            0.5 * self.d * math.log(math.pi)
            + _gammaln(0.5 * self.nu)
            - _gammaln(0.5 * (self.d + self.nu))
        )

    def closed_moment(self, p: float) -> float:
        self._require_moment(p)
        d, nu = self.d, self.nu
        lg = (
            math.log(d / (d + p))
            + _gammaln(0.5 * (nu - p))
            + _gammaln(0.5 * (d + 2 + p))
            - _gammaln(0.5 * nu)
            - _gammaln(0.5 * (d + 2))
        )
        return math.exp(lg)

    def tail_bound(self, R: float) -> float:
        _require_radius(R)
        return (self.nu + self.d) ** (0.5 * self.nu) * R ** (-self.nu)

    def deep_tail_quantile(self, mass: float) -> float:
        _require_mass(mass)
        # (nu+d)^{nu/2} R^{-nu} = mass
        return math.exp(
            (0.5 * self.nu * math.log(self.nu + self.d) - math.log(mass)) / self.nu
        )

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        z = rng.standard_normal((n, self.d))
        w = rng.chisquare(self.nu, size=n)
        return z / np.sqrt(w)[:, None]

    def coupling_delta0(self, sigma2: float) -> float:
        if not (1.0 < sigma2 < math.inf):
            raise InputValidationError(
                f"the log-tail coupling needs a finite sigma2 > 1, got {sigma2}"
            )
        return self.nu * math.log(sigma2)

    def wpi_beta(self) -> Callable[[float], float]:
        return lambda r: beta_wpi_cauchy(self.nu, self.d, r)

    def rinf_bound(self, sigma2: float) -> tuple[float, dict]:
        d, nu = self.d, self.nu
        log_z = log_normalizing_constant(self)
        if not (sigma2 >= 1.0 / (d + nu)):
            raise InputValidationError(
                f"log-tail bound needs sigma2 >= 1/(d+nu) = {1.0 / (d + nu)}, "
                f"got {sigma2}"
            )
        value = (
            0.5 * nu * math.log(sigma2)
            + log_z
            + 0.5 * (d + nu) * (math.log(d + nu) - 1.0)
            - 0.5 * d * math.log(2.0 * math.pi)
            + 0.5 / sigma2
        )
        return value, {"log_Z": log_z, "nu": nu}


@dataclass(frozen=True)
class Sublinear(RadialFamily):
    """Stretched-tail target with sub-linearly growing potential.

    V(x) = (1 + lam^(2/alpha) |x|^2)^(alpha/2), alpha in (0, 1], lam > 0.
    """

    d: int
    alpha: float
    lam: float = 1.0

    tag: ClassVar[str] = "sublinear"
    json_fields: ClassVar[Mapping[str, str]] = {"alpha": "alpha", "lambda": "lam"}
    sweep_params: ClassVar[Mapping[str, float]] = {"alpha": 0.5}
    has_iteration_bound: ClassVar[bool] = True

    def __post_init__(self) -> None:
        _validate_dimension(self.d)
        if not (math.isfinite(self.alpha) and 0.0 < self.alpha <= 1.0):
            raise InputValidationError(
                f"Sublinear alpha must lie in (0, 1], got {self.alpha!r}"
            )
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise InputValidationError(f"lam must be a positive real, got {self.lam!r}")

    def profile(self, t: np.ndarray) -> np.ndarray:
        c = self.lam ** (2.0 / self.alpha)
        return (1.0 + c * np.asarray(t, dtype=float)) ** (0.5 * self.alpha)

    def profile_prime(self, t: np.ndarray) -> np.ndarray:
        a = self.alpha
        c = self.lam ** (2.0 / a)
        return 0.5 * a * c * (1.0 + c * np.asarray(t, dtype=float)) ** (0.5 * a - 1.0)

    def grad_coef(self, t: np.ndarray, top: float) -> Union[np.ndarray, float]:
        a = self.alpha
        c = self.lam ** (2.0 / a)
        k, e = 0.5 * a * c, 0.5 * a - 1.0
        # 2 (k p) is (2 k) p unless 2 k overflows or k p is subnormal; p =
        # (1 + c t)**e falls with t, and the margin of 4 covers the ulps by
        # which the ufunc's power may differ from this one.
        if not (2.0 * k < math.inf and k * (1.0 + c * top) ** e >= 2.0**-1020):
            return super().grad_coef(t, top)
        if c == 1.0:
            s = t + 1.0  # c t is t
        else:
            s = c * t
            s += 1.0
        s **= e
        s *= 2.0 * k
        return s

    def growth(self) -> GrowthParams:
        c = self.lam ** (2.0 / self.alpha)
        return GrowthParams(b=self.alpha * max(c, self.lam), alpha=self.alpha)

    def holder(self) -> HolderSmoothness:
        c = self.lam ** (2.0 / self.alpha)
        return HolderSmoothness(L=max(1.0, self.alpha * c), s=1.0)

    def closed_moment(self, p: float) -> SublinearMomentBound:
        self._require_moment(p)
        tilde = tilde_moment(self.d, self.alpha, self.lam, p)
        return SublinearMomentBound(tilde_exact=tilde, upper=math.e * tilde)

    def tail_bound(self, R: float) -> float:
        _require_radius(R)
        if self.lam != 1.0:
            raise UnsupportedFamilyError(
                "tail_bound for Sublinear is registered only at lam = 1"
            )
        log_val = (
            0.5
            + (self.d / self.alpha) * math.log(2.0)
            - 0.5 * (1.0 + R * R) ** (0.5 * self.alpha)
        )
        return math.exp(log_val)

    def deep_tail_quantile(self, mass: float) -> float:
        _require_mass(mass)
        # e^{1/2} 2^{d/alpha} exp(-(1+R^2)^{alpha/2}/2) = mass, then rescale
        # by lam^{-1/alpha} (the family is a dilation of the lam = 1 case).
        a = 2.0 * (0.5 + (self.d / self.alpha) * math.log(2.0) - math.log(mass))
        r1 = math.sqrt(max(a ** (2.0 / self.alpha) - 1.0, 1.0))
        return r1 / self.lam ** (1.0 / self.alpha)

    def sampling_radius(self) -> float:
        """Smallest R with the registered tail bound below
        ``_SAMPLING_TAIL_MASS`` (lam = 1)."""
        if self.lam != 1.0:
            return super().sampling_radius()
        u = 2.0 * (
            math.log(1.0 / _SAMPLING_TAIL_MASS)
            + 0.5
            + (self.d / self.alpha) * math.log(2.0)
        )
        t = u ** (2.0 / self.alpha) - 1.0
        return math.sqrt(max(t, 1.0))

    def coupling_delta0(self, sigma2: float) -> float:
        _require_variance(sigma2)
        expo = self.alpha / (2.0 - self.alpha)
        return (self.growth().b * sigma2) ** expo / self.alpha

    def wpi_beta(self) -> Callable[[float], float]:
        # The gamma grid's r-free terms, filled by the first call.
        table: list = []
        return lambda r: _beta_sublinear(self.alpha, self.d, r, table=table)[0]

    def rinf_bound(self, sigma2: float) -> tuple[float, dict]:
        d = self.d
        log_z = log_normalizing_constant(self)
        g = self.growth()
        b, alpha = g.b, g.alpha
        if not (sigma2 >= 1.0 / b):
            raise InputValidationError(
                f"subexponential bound needs sigma2 >= 1/b = {1.0 / b}, got {sigma2}"
            )
        # V(0) - b/alpha corrects for the potential's value at the origin;
        # it vanishes at unit scale (lam = 1).
        origin_term = 1.0 - b / alpha
        peak = b ** (2.0 / (2.0 - alpha)) * sigma2 ** (alpha / (2.0 - alpha)) / alpha
        value = (
            peak
            + origin_term
            + log_z
            - 0.5 * d * math.log(2.0 * math.pi * sigma2)
            + 0.5 / sigma2
        )
        return value, {"log_Z": log_z, "b": b, "peak_term": peak}


@dataclass(frozen=True)
class Gaussian(RadialFamily):
    """Standard Gaussian target: V(x) = |x|^2 / 2."""

    d: int

    tag: ClassVar[str] = "gaussian"

    def __post_init__(self) -> None:
        _validate_dimension(self.d)

    def profile(self, t: np.ndarray) -> np.ndarray:
        return 0.5 * np.asarray(t, dtype=float)

    def profile_prime(self, t: np.ndarray) -> np.ndarray:
        return np.full_like(np.asarray(t, dtype=float), 0.5)

    def grad_coef(self, t: np.ndarray, top: float) -> float:
        return 1.0

    def growth(self) -> GrowthParams:
        return GrowthParams(b=1.0, alpha=2.0)

    def holder(self) -> HolderSmoothness:
        return HolderSmoothness(L=1.0, s=1.0)

    def log_z(self) -> float:
        return 0.5 * self.d * math.log(2.0 * math.pi)

    def closed_moment(self, p: float) -> float:
        self._require_moment(p)
        lg = 0.5 * p * math.log(2.0) + _gammaln(0.5 * (self.d + p)) - _gammaln(
            0.5 * self.d
        )
        return math.exp(lg)

    def deep_tail_quantile(self, mass: float) -> float:
        _require_mass(mass)
        return math.sqrt(2.0) * _erfcinv(mass)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.standard_normal((n, self.d))

    def coupling_delta0(self, sigma2: float) -> float:
        _require_variance(sigma2)
        return 0.5 * self.growth().b * self.d * sigma2

    def wpi_beta(self) -> Callable[[float], float]:
        # an ordinary Poincare inequality: the constant 1 (unit variance proxy)
        return lambda r: 1.0

    def rinf_bound(self, sigma2: float) -> tuple[float, dict]:
        raise InputValidationError(
            "sup-log-ratio of a wide Gaussian start against a gaussian "
            "target is infinite; use kind='KL'"
        )

    def kl_bound(self, sigma2: float) -> tuple[float, dict]:
        _require_variance(sigma2)
        d = self.d
        b = self.growth().b
        log_z = log_normalizing_constant(self)
        value = (
            0.5 * d * (b * sigma2 - 1.0)
            + log_z
            - 0.5 * d * math.log(2.0 * math.pi * sigma2)
        )
        return value, {"log_Z": log_z, "b": b}

    def start_renyi(self, q: float, sigma2: float) -> tuple[float, dict]:
        """Exact, by the closed form; raises where the divergence is infinite
        (sigma2 >= q/(q-1), or sigma2 > 1 at q = inf)."""
        inner = gaussian_renyi(q, sigma2, 1.0, self.d)
        if math.isinf(inner):
            raise InputValidationError(
                f"order-{q:g} Renyi divergence of N(0, {sigma2:g} I) from the "
                "unit gaussian target is infinite; use the KL kind or a "
                "narrower start"
            )
        return inner, {f"inner_r{q:g}": inner}


@dataclass(frozen=True)
class RadialCustom(RadialFamily):
    """Target defined by a user-supplied radial potential profile.

    Parameters
    ----------
    d : int
        Ambient dimension.
    f : callable
        Profile on the squared radius: V(x) = f(|x|^2).  Must accept numpy
        arrays elementwise.
    fprime : callable, optional
        Derivative of ``f`` with respect to t = |x|^2.  When omitted, a
        central finite difference with step ``cbrt(eps) * max(1, |t|)`` is
        used.
    """

    d: int
    f: Callable[[np.ndarray], np.ndarray]
    fprime: Union[Callable[[np.ndarray], np.ndarray], None] = field(default=None)

    def __post_init__(self) -> None:
        _validate_dimension(self.d)
        if not callable(self.f):
            raise InputValidationError("RadialCustom.f must be callable")
        if self.fprime is not None and not callable(self.fprime):
            raise InputValidationError("RadialCustom.fprime must be callable or None")

    @property
    def profile(self) -> Callable[[np.ndarray], np.ndarray]:
        """``f`` itself, so the radial quadrature sees its ``_kinks``."""
        return self.f

    def profile_prime(self, t: np.ndarray) -> np.ndarray:
        if self.fprime is not None:
            return self.fprime(t)
        tt = np.asarray(t, dtype=float)
        h = float(np.cbrt(np.finfo(float).eps)) * np.maximum(1.0, np.abs(tt))
        lo = np.maximum(tt - h, 0.0)
        hi = tt + h
        return (np.asarray(self.f(hi), dtype=float) - np.asarray(self.f(lo), dtype=float)) / (
            hi - lo
        )


PotentialSpec = RadialFamily

#: The serializable families by JSON tag, in the phase sweep's order.
FAMILY_TAGS: Mapping[str, type] = {
    cls.tag: cls for cls in (Gaussian, Sublinear, GenCauchy)
}


@dataclass(frozen=True)
class GrowthParams:
    """Envelope constants (b, alpha) with |grad V| <= b r / (1+r^2)^(1-alpha/2)."""

    b: float
    alpha: float


@dataclass(frozen=True)
class HolderSmoothness:
    """Gradient smoothness: |grad V(x) - grad V(y)| <= L |x-y|^s, clamped to L >= 1."""

    L: float
    s: float


@dataclass(frozen=True)
class SublinearMomentBound:
    """Moment pair for the sublinear family.

    ``tilde_exact`` is the exact moment of the pure-power surrogate potential
    lam^... |x|^alpha; ``upper`` = e * tilde_exact bounds the family moment
    from above (and tilde_exact / e bounds it from below).
    """

    tilde_exact: float
    upper: float


# ---------------------------------------------------------------------------
# Pointwise potential / gradient evaluation
# ---------------------------------------------------------------------------


def _as_points(spec: PotentialSpec, x: np.ndarray) -> tuple[np.ndarray, bool]:
    """Coerce x to shape (n, d); return (points, was_single)."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        if arr.shape[0] != spec.d:
            raise InputValidationError(
                f"point has dimension {arr.shape[0]}, spec has d={spec.d}"
            )
        return arr[None, :], True
    if arr.ndim == 2:
        if arr.shape[1] != spec.d:
            raise InputValidationError(
                f"points have dimension {arr.shape[1]}, spec has d={spec.d}"
            )
        return arr, False
    raise InputValidationError(f"x must have shape (d,) or (n, d), got {arr.shape}")


def sq_norms(x: np.ndarray) -> np.ndarray:
    """Squared row norms of an (n, d) array, bit-identical to
    ``np.einsum("ij,ij->i", c, c)`` on its C-ordered copy c.

    At d = 1, 2 and 4 the sums are written out as column sums in einsum's
    own order (at d = 4 it pairs (x0^2 + x2^2) + (x1^2 + x3^2)), which costs
    a fraction of einsum's call; other widths call einsum on the C-ordered
    copy, because einsum's summation order follows the memory layout (the
    copy is no copy for a C-ordered batch).  Unlike einsum, a square that
    overflows raises numpy's overflow warning.
    """
    d = x.shape[1]
    if d not in (1, 2, 4):
        c = np.ascontiguousarray(x)
        return np.einsum("ij,ij->i", c, c)
    sq = x * x
    if d == 1:
        return sq[:, 0]
    if d == 2:
        return sq[:, 0] + sq[:, 1]
    return (sq[:, 0] + sq[:, 2]) + (sq[:, 1] + sq[:, 3])


def potential(spec: PotentialSpec, x: np.ndarray) -> np.ndarray:
    """Evaluate V at one point (returns a scalar) or a batch (returns (n,))."""
    pts, single = _as_points(spec, x)
    if not np.all(np.isfinite(pts)):
        raise InputValidationError("potential: points must be finite")
    t = sq_norms(pts)
    v = np.asarray(spec.profile(t), dtype=float)
    return float(v[0]) if single else v


def grad_potential(spec: PotentialSpec, x: np.ndarray) -> np.ndarray:
    """Evaluate grad V; output shape matches the input shape."""
    pts, single = _as_points(spec, x)
    t = sq_norms(pts)
    # One reduction: a finite |x|^2 has finite coordinates, so they are
    # checked only when the largest is not (NaN fails the comparison); a
    # finite point whose square overflows passes.
    top = float(t.max()) if t.size else 0.0
    if not top < math.inf and not np.isfinite(pts).all():
        raise InputValidationError("grad_potential: points must be finite")
    c = spec.grad_coef(t, top)
    # Multiplied by columns: d passes of length n over the transposed view,
    # not n broadcast passes of length d; each element is the same product.
    g = np.empty(pts.shape)
    np.multiply(c, pts.T, out=g.T, order="C")
    return g[0] if single else g


# ---------------------------------------------------------------------------
# Log-gamma and the inverse complementary error function
# ---------------------------------------------------------------------------
#
# Transcribed step for step from Cephes (Moshier, "Methods and Programs for
# Mathematical Functions", 1989), ``lgam.c`` and ``ndtri.c``, which is what
# scipy.special evaluates, so each returns the same float as
# ``scipy.special.gammaln`` / ``ndtri`` / ``erfcinv`` without loading scipy.


def _polevl(x: float, coef: tuple) -> float:
    """coef[0] x^N + ... + coef[N] by Horner's rule (Cephes ``polevl``)."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef: tuple) -> float:
    """:func:`_polevl` with an implied leading coefficient 1 (``p1evl``)."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


# lgam.c: the Stirling series in 1/x^2 (A) and the rational function on
# [2, 3) (B/C); log sqrt(2 pi), log pi, and the largest x with a finite result
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
           7.93650340457716943945e-4, -2.77777777730099687205e-3,
           8.33333333333331927722e-2)
_LGAM_B = (-1.37825152569120859100e3, -3.88016315134637840924e4,
           -3.31612992738871184744e5, -1.16237097492762307383e6,
           -1.72173700820839662146e6, -8.53555664245765465627e5)
_LGAM_C = (-3.51815701436523470549e2, -1.70642106651881159223e4,
           -2.20528590553854454839e5, -1.13933444367982507207e6,
           -2.53252307177582951285e6, -2.01889141433532773231e6)
_LS2PI = 0.91893853320467274178
_LOGPI = 1.14472988584940017414
_MAXLGM = 2.556348e305


def _gammaln(x: float) -> float:
    """log |Gamma(x)|, as Cephes ``lgam`` computes it: +inf at the poles
    0, -1, -2, ... and beyond ``_MAXLGM``; NaN and +-inf pass through."""
    x = float(x)
    if not math.isfinite(x):
        return x
    if x < -34.0:
        q = -x  # reflection: Gamma(x) Gamma(-x) = -pi / (x sin(pi x))
        w = _gammaln(q)
        p = math.floor(q)
        if p == q:
            return math.inf  # integer pole
        z = q - p
        if z > 0.5:
            p += 1.0
            z = p - q
        z = q * math.sin(math.pi * z)
        if z == 0.0:
            return math.inf
        return _LOGPI - math.log(z) - w
    if x < 13.0:
        # shift into [2, 3) by the recurrence, keeping the product in z
        z = 1.0
        p = 0.0
        u = x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u  # recurrence down
        while u < 2.0:
            if u == 0.0:
                return math.inf  # pole
            z /= u  # recurrence up
            p += 1.0
            u = x + p
        z = abs(z)
        if u == 2.0:
            return math.log(z)  # exact: log Gamma(2) = 0
        x = x + (p - 2.0)
        return math.log(z) + x * _polevl(x, _LGAM_B) / _p1evl(x, _LGAM_C)
    if x > _MAXLGM:
        return math.inf  # overflow
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q  # Stirling, series below rounding
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p  # three terms
                     - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    return q + _polevl(p, _LGAM_A) / x  # A series


# ndtri.c: rational approximations of the normal quantile for
# |y - 1/2| <= 3/8 (P0/Q0), and in z = sqrt(-2 log y) on [2, 8) (P1/Q1)
# and [8, 64] (P2/Q2)
_NDTRI_S2PI = 2.50662827463100050242
_NDTRI_EXPM2 = 0.13533528323661269189  # exp(-2)
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
             -5.66762857469070293439e1, 1.39312609387279679503e1,
             -1.23916583867381258016e0)
_NDTRI_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0,
             8.63602421390890590575e1, -2.25462687854119370527e2,
             2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
             5.71628192246421288162e1, 4.40805073893200834700e1,
             1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2,
             -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1,
             4.13172038254672030440e1, 1.50425385692907503408e1,
             2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0,
             3.93881025292474443415e0, 1.33303460815807542389e0,
             2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6,
             6.23974539184983293730e-9)
_NDTRI_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0,
             1.37702099489081330271e0, 2.16236993594496635890e-1,
             1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _ndtri(y0: float) -> float:
    """The x with Phi(x) = y0 for the standard normal CDF Phi, as Cephes
    ``ndtri`` computes it: -+inf at 0 and 1, NaN outside [0, 1]."""
    y0 = float(y0)
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if y0 < 0.0 or y0 > 1.0:
        return math.nan
    negate = True
    y = y0
    if y > 1.0 - _NDTRI_EXPM2:
        y = 1.0 - y  # upper tail
        negate = False
    if y > _NDTRI_EXPM2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _NDTRI_P0) / _p1evl(y2, _NDTRI_Q0))
        return x * _NDTRI_S2PI  # P0/Q0
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _NDTRI_P1) / _p1evl(z, _NDTRI_Q1)  # P1/Q1
    else:
        x1 = z * _polevl(z, _NDTRI_P2) / _p1evl(z, _NDTRI_Q2)  # P2/Q2
    x = x0 - x1
    return -x if negate else x


def _erfcinv(y: float) -> float:
    """The x with erfc(x) = y: +inf at 0, -inf at 2, NaN outside [0, 2]."""
    y = float(y)
    if 0.0 < y < 2.0:
        return -_ndtri(0.5 * y) * 0.70710678118654752440
    if y == 0.0:
        return math.inf
    if y == 2.0:
        return -math.inf
    return math.nan


# ---------------------------------------------------------------------------
# Radial quadrature engine
# ---------------------------------------------------------------------------


def _log_sphere_area(d: int) -> float:
    """log of the surface area of the unit sphere S^{d-1} in R^d."""
    return math.log(2.0) + 0.5 * d * math.log(math.pi) - _gammaln(0.5 * d)


# The double-exponential rule (Takahasi & Mori 1974) on each piece of an
# integral: abscissae t in [-_TS_T, _TS_T] with step _TS_STEP / 2^level.
# Beyond |t| = 3.5 the tanh-sinh weights fall below 1e-20 of a piece's
# width, so a bounded integrand loses nothing there.
_TS_T = 3.5
_TS_STEP = 0.25
_TS_LEVELS = 8
_TS_RTOL = 1e-12


def _ts_nodes(lo, hi, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The tanh-sinh nodes x of [lo, hi] at the abscissae t, and dx/dt."""
    u = 0.5 * math.pi * np.sinh(t)
    centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return centre + half * np.tanh(u), half * (0.5 * math.pi * np.cosh(t) / np.cosh(u) ** 2)


def _ts_integrals(level_sums: Callable, n_pieces: int, floor: float,
                  describe: Callable[[int], str]) -> tuple[np.ndarray, np.ndarray]:
    """m integrals, each summed over ``n_pieces`` pieces, by the
    level-halving double-exponential rule, and their error estimates.

    ``level_sums(t, active)`` gives the (m, len(active)) sums of each row
    times dx/dt over the abscissae t a level adds (level 0: every multiple
    of the coarsest step; later: the odd multiples of the halved step).  A
    piece refines until its m integrals agree with the previous level to
    1e-12 max(floor, |value|), and raises :class:`NumericsError`, named by
    ``describe(piece)``, if the finest level does not.  An error estimate
    is the sum over pieces of the last-level differences.
    """
    active = np.arange(n_pieces)
    values = errors = sums = prev = None
    for level in range(_TS_LEVELS + 1):
        h = _TS_STEP / 2 ** level
        n = int(round(_TS_T / h))
        part = level_sums(h * (np.arange(-n, n + 1) if level == 0
                               else np.arange(1 - n, n, 2)), active)
        if not np.all(np.isfinite(part)):
            raise NumericsError("an integrand is not finite on the quadrature nodes")
        if values is None:
            values, errors = np.zeros((2, len(part), n_pieces))
        sums = part if sums is None else sums + part
        cur = h * sums
        if prev is not None:
            diff = np.abs(cur - prev)
            done = np.all(diff <= _TS_RTOL * np.maximum(floor, np.abs(cur)), axis=0)
            values[:, active[done]] = cur[:, done]
            errors[:, active[done]] = diff[:, done]
            active, sums, cur = active[~done], sums[:, ~done], cur[:, ~done]
            if active.size == 0:
                return values.sum(axis=1), errors.sum(axis=1)
        prev = cur
    raise NumericsError(
        f"double-exponential quadrature over {describe(int(active[0]))} did "
        f"not agree to {_TS_RTOL:g} by step {_TS_STEP / 2 ** _TS_LEVELS:g}"
    )


def _radial_integral(f: Callable[[np.ndarray], np.ndarray], d: int,
                     p: float = 0.0, lower: float = 0.0) -> float:
    """Integrate r^(d-1+p) * exp(-f(r^2)) over r in [lower, inf).

    By :func:`_ts_integrals` in s = log r, to 1e-12 relative agreement, cut
    at log(lower) (the whole line: at the integrand's peak on a grid) and
    at the radii in the profile's ``_kinks``.  Pieces between cuts get
    tanh-sinh nodes, half-lines exp-sinh nodes s = cut +- exp((pi/2)
    sinh(t - 1/2)), whose first node lies 2e-19 from the cut.
    """
    def log_integrand(s: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", over="ignore"):  # r^(d-1+p) dr = e^{(d+p) s} ds
            return (d + p) * s - np.asarray(f(np.exp(2.0 * s)), dtype=float)

    kinks = {math.log(k) for k in getattr(f, "_kinks", ()) if k > lower}
    if lower > 0.0:
        edges = [math.log(lower), *sorted(kinks), math.inf]
    else:
        grid = np.linspace(-16.0, 24.0, 321)
        peak = float(grid[np.argmax(log_integrand(grid))])
        edges = [-math.inf, *sorted(kinks | {peak}), math.inf]
    pieces = list(zip(edges[:-1], edges[1:]))

    def piece_sum(a: float, b: float, t: np.ndarray) -> float:
        if math.isinf(a) or math.isinf(b):
            e = np.exp(0.5 * math.pi * np.sinh(t - 0.5))
            s, ds = (a + e if math.isinf(b) else b - e), 0.5 * math.pi * np.cosh(t - 0.5) * e
        else:
            s, ds = _ts_nodes(a, b, t)
        return (np.exp(log_integrand(s)) * ds).sum()

    def level_sums(t: np.ndarray, active: np.ndarray) -> np.ndarray:
        return np.array([[piece_sum(*pieces[i], t) for i in active]])

    return float(_ts_integrals(level_sums, len(pieces), 0.0,
                               lambda i: "s in [%.6g, %.6g]" % pieces[i])[0][0])


# ---------------------------------------------------------------------------
# Normalizing constants and moments
# ---------------------------------------------------------------------------


def log_normalizing_constant(spec: PotentialSpec) -> float:
    """log Z with pi(x) = exp(-V(x)) / Z.

    Closed form for GenCauchy and Gaussian; for the others the radial
    double-exponential rule of :func:`_radial_integral`, whose levels agree
    to 1e-12 relative to the value.
    """
    return spec.log_z()


def radial_moment(spec: PotentialSpec, p: float) -> float:
    """E_pi |x|^p by validated quadrature (exact families included).

    Raises :class:`MomentUndefinedError` when the integral diverges
    (GenCauchy with p >= nu), and :class:`InputValidationError` unless p
    is a finite real >= 0.
    """
    spec._require_moment(p)
    if p == 0:
        return 1.0
    return spec._integral(p) / spec._integral()


def tilde_moment(d: int, alpha: float, lam: float, p: float) -> float:
    """Exact E |x|^p under the pure-power potential lam^... |x|^alpha surrogate.

    The surrogate density is proportional to exp(-(lam |x|)^alpha) up to the
    scale convention lam^(2/alpha) |x|^2 inside the family potential; its
    moments are Gamma-ratios: lam^(-p/alpha) Gamma((d+p)/alpha) / Gamma(d/alpha).
    """
    _validate_dimension(d)
    if not (0 < alpha <= 1):
        raise InputValidationError(f"alpha must lie in (0, 1], got {alpha}")
    if not (0 < lam < math.inf):
        raise InputValidationError(f"lam must be finite positive, got {lam}")
    if not (0 <= p < math.inf):
        raise InputValidationError(f"moment order p must be finite >= 0, got {p}")
    lg = (
        -(p / alpha) * math.log(lam)
        + _gammaln((d + p) / alpha)
        - _gammaln(d / alpha)
    )
    return math.exp(lg)


def tilde_log_normalizing_constant(d: int, alpha: float, lam: float) -> float:
    """log Z of the pure-power surrogate: (d omega_d / alpha) Gamma(d/alpha) lam^(-d/alpha)."""
    _validate_dimension(d)
    if not (0 < alpha <= 1):
        raise InputValidationError(f"alpha must lie in (0, 1], got {alpha}")
    if not (0 < lam < math.inf):
        raise InputValidationError(f"lam must be finite positive, got {lam}")
    log_omega = 0.5 * d * math.log(math.pi) - _gammaln(0.5 * d + 1.0)
    return (
        math.log(d / alpha)
        + log_omega
        + _gammaln(d / alpha)
        - (d / alpha) * math.log(lam)
    )


# ---------------------------------------------------------------------------
# Tails
# ---------------------------------------------------------------------------


def tail_mass(spec: PotentialSpec, R: float) -> float:
    """pi(|x| >= R) by quadrature (the oracle the bounds are tested
    against), for a finite R >= 0."""
    if not (0.0 <= R < math.inf):
        raise InputValidationError(f"tail radius R must be a finite real >= 0, got {R}")
    if R == 0:
        return 1.0
    num = _radial_integral(spec.profile, spec.d, p=0.0, lower=R)
    return num / spec._integral()


def _tail_quantile(spec: PotentialSpec, mass: float) -> float:
    """Radius beyond which the target's two-sided mass is at most ``mass``.

    Exact for mass >= 1e-5, by root-finding on :func:`tail_mass`.  Deeper,
    the family's analytic :meth:`~RadialFamily.deep_tail_quantile`, which
    errs wide: the quadrature is accurate there too, but the verify and
    :func:`~heavytail_lmc.fi_verify.make_grid` windows are built on it.
    """
    if mass >= 1e-5:
        hi = 1.0
        while tail_mass(spec, hi) > mass:
            hi *= 2.0
            if hi > 1e14:
                raise NumericsError("tail quantile search exceeded 1e14")
        return _brentq(lambda r: tail_mass(spec, r) - mass, 1e-8, hi,
                       xtol=1e-12, rtol=1e-10)
    return spec.deep_tail_quantile(mass)


def _brentq(f: Callable[[float], float], a: float, b: float, xtol: float,
            rtol: float, maxiter: int = 100) -> float:
    """A root of ``f`` in the bracket [a, b] by Brent's method (Brent 1973,
    ch. 4), transcribed step for step from scipy's ``brentq.c`` so that it
    returns the same float as ``scipy.optimize.brentq``.

    ``xpre``/``xcur`` are the last two iterates and ``xblk`` the bracket
    end opposite ``xcur``; each step tries inverse interpolation (secant
    when two of the three points coincide, else inverse quadratic) and
    bisects when the trial step is not short enough.  Converged when half
    the bracket is below ``delta = (xtol + rtol |xcur|) / 2``.  A NaN value,
    a bracket whose ends have the same sign, or ``maxiter`` steps without
    convergence raise :class:`NumericsError`.
    """

    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise NumericsError(f"root search: f({x!r}) is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise NumericsError(f"root search: f({a!r}) and f({b!r}) have the same sign")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)  # interpolate
            else:
                dpre = (fpre - fcur) / (xpre - xcur)  # extrapolate
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            limit = 3 * abs(sbis) - delta
            if abs(spre) < limit:  # brentq.c's MIN(a, b): (a < b ? a : b)
                limit = abs(spre)
            if 2 * abs(stry) < limit:
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise NumericsError(f"root search did not converge in {maxiter} steps")


def median_radius(spec: PotentialSpec) -> float:
    """The radius R with pi(|x| >= R) = 1/2 (:func:`_tail_quantile`), found
    once per family instance."""
    return spec._memo("median_radius", lambda: _tail_quantile(spec, 0.5))


def modified_target_m(spec: PotentialSpec) -> float:
    """Half the median radius: m = (1/2) inf{R : pi(|x| >= R) <= 1/2}."""
    return 0.5 * median_radius(spec)


def modified_target_spec(spec: PotentialSpec, T: float, m: Union[float, None] = None) -> RadialCustom:
    """Radius-penalized modification of the target over a time horizon T.

    The modified potential adds a quadratic penalty outside radius 2m:

        V_hat(x) = V(x) + (1/(6144 T)) * max(|x| - 2m, 0)^2

    which leaves the core of the target untouched while giving the tail a
    Gaussian envelope at scale ~T.  Returns a :class:`RadialCustom` with an
    analytic profile derivative.
    """
    if T <= 0:
        raise InputValidationError(f"time horizon T must be positive, got {T}")
    if m is None:
        m = modified_target_m(spec)
    if m < 0:
        raise InputValidationError(f"core radius m must be >= 0, got {m}")
    f, fp = spec.profile, spec.profile_prime
    coef = 1.0 / (6144.0 * T)
    two_m = 2.0 * m

    def f_hat(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        r = np.sqrt(t)
        excess = np.maximum(r - two_m, 0.0)
        return np.asarray(f(t), dtype=float) + coef * excess * excess

    def fp_hat(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        r = np.sqrt(np.maximum(t, 1e-300))
        excess = np.maximum(r - two_m, 0.0)
        return np.asarray(fp(t), dtype=float) + coef * excess / r

    f_hat._kinks = (two_m,)  # f_hat'' jumps there; the quadrature splits at it
    return RadialCustom(d=spec.d, f=f_hat, fprime=fp_hat)


# ---------------------------------------------------------------------------
# Exact samplers
# ---------------------------------------------------------------------------


def _sphere_directions(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    z = rng.standard_normal((n, d))
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    # Resample the (probability-zero) degenerate rows rather than dividing by 0.
    bad = norms[:, 0] < 1e-300
    while np.any(bad):
        z[bad] = rng.standard_normal((int(bad.sum()), d))
        norms = np.linalg.norm(z, axis=1, keepdims=True)
        bad = norms[:, 0] < 1e-300
    return z / norms


def _pchip(x: np.ndarray, y: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The monotone cubic through (x, y), x strictly increasing, as scipy's
    ``PchipInterpolator(x, y, extrapolate=False)`` computes it, float for
    float: Fritsch-Carlson slopes with Moler's one-sided end rule, Hermite
    coefficients, and PPoly's evaluation, NaN outside [x[0], x[-1]]."""
    h = np.diff(x)
    m = np.diff(y) / h
    dk = np.full_like(y, m[0])  # two knots: the line through them
    if len(x) > 2:
        w1 = 2 * h[1:] + h[:-1]
        w2 = h[1:] + 2 * h[:-1]
        flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            dk[1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
        h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
        end = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        overshoot = (np.sign(m0) != np.sign(m1)) & (np.abs(end) > 3.0 * np.abs(m0))
        dk[[0, -1]] = np.where(np.sign(end) != np.sign(m0), 0.0,
                               np.where(overshoot, 3.0 * m0, end))
    t = (dk[:-1] + dk[1:] - 2 * m) / h
    c0, c1, c2, c3 = t / h, (m - dk[:-1]) / h - t, dk[:-1], y[:-1]

    def evaluate(u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        i = np.clip(np.searchsorted(x, u, side="right") - 1, 0, len(x) - 2)
        s = np.where((u >= x[0]) & (u <= x[-1]), u - x[i], np.nan)
        # PPoly sums the powers of s from the constant term up
        return ((c3[i] + c2[i] * s) + c1[i] * (s * s)) + c0[i] * (s * s * s)

    return evaluate


def _radial_inverse_cdf(
    spec: PotentialSpec, r_max: float
) -> Callable[[np.ndarray], np.ndarray]:
    """Monotone (PCHIP) interpolant of the inverse radial CDF on [0, r_max],
    on 4096 nodes: half linear up to a knee, half geometric beyond it."""
    r_knee = min(4.0 * median_radius(spec), r_max / 4.0)
    nodes = np.concatenate(
        [
            np.linspace(0.0, r_knee, 2048, endpoint=False),
            np.geomspace(r_knee, r_max, 2048),
        ]
    )
    t = nodes * nodes
    with np.errstate(divide="ignore"):
        log_dens = (spec.d - 1.0) * np.log(np.maximum(nodes, 1e-300)) - np.asarray(
            spec.profile(t), dtype=float
        )
    dens = np.exp(log_dens - log_dens.max())
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(nodes))])
    cdf /= cdf[-1]
    keep = np.concatenate([[True], np.diff(cdf) > 0])
    return _pchip(cdf[keep], nodes[keep])


def direct_sampler(spec: PotentialSpec, n: int, seed: int) -> np.ndarray:
    """Draw n exact (or numerically exact) samples from pi; returns (n, d).

    * GenCauchy: elliptical representation x = z / sqrt(w), z ~ N(0, I_d),
      w ~ chi-squared(nu) -- exact.
    * Gaussian: x ~ N(0, I_d) -- exact.
    * Sublinear / RadialCustom: radial inverse-CDF lookup on a 4096-node
      monotone interpolant (tail truncated below 1e-12 mass) times a uniform
      direction.

    The stream is a fresh Philox generator keyed by ``seed``; results are
    bit-reproducible for a fixed (spec, n, seed).
    """
    if n < 1:
        raise InputValidationError(f"sample count n must be >= 1, got {n}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    return spec.sample(rng, n)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _json_int(value, name: str) -> int:
    """An integer JSON field: booleans and non-integral numbers are rejected."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise InputValidationError(f"{name} must be an integer, got {value!r}")


def _json_float(value, name: str) -> float:
    """A real JSON field: null, strings and booleans are rejected."""
    if isinstance(value, (int, float, np.integer, np.floating)) \
            and not isinstance(value, bool):
        return float(value)
    raise InputValidationError(f"{name} must be a number, got {value!r}")


def spec_to_json(spec: PotentialSpec) -> dict:
    """Serialize a closed-form family spec to a plain JSON-compatible dict."""
    return spec.to_json()


def spec_from_json(obj: Mapping) -> PotentialSpec:
    """Inverse of :func:`spec_to_json`; strict about fields and values.

    ``lambda`` defaults to 1 and must equal 1 for gen_cauchy and gaussian.
    Parameters given as null count as absent.
    """
    if not isinstance(obj, Mapping):
        raise InputValidationError(f"spec JSON must be a mapping, got {type(obj).__name__}")
    data = dict(obj)
    family = data.pop("family", None)
    if family not in FAMILY_TAGS:
        raise UnsupportedFamilyError(
            f"unknown family tag {family!r}; expected one of {sorted(FAMILY_TAGS)}"
        )
    cls = FAMILY_TAGS[family]
    if "d" not in data:
        raise InputValidationError("spec JSON missing required field 'd'")
    d = _json_int(data.pop("d"), "d")
    params = {key for c in FAMILY_TAGS.values() for key in c.json_fields}
    data = {k: v for k, v in data.items() if v is not None or k not in params}
    if ("lambda" not in cls.json_fields
            and _json_float(data.pop("lambda", 1.0), "lambda") != 1.0):
        raise InputValidationError(f"{family} only supports lambda = 1")
    missing = [k for k in cls.json_fields if k not in data and k != "lambda"]
    if missing:
        raise InputValidationError(f"{family} spec requires field {missing[0]!r}")
    kwargs = {name: _json_float(data.pop(key), key)
              for key, name in cls.json_fields.items() if key in data}
    if data:
        raise InputValidationError(f"unrecognized spec fields: {sorted(data)}")
    return cls(d=d, **kwargs)


# ---------------------------------------------------------------------------
# Closed forms the family methods use
# ---------------------------------------------------------------------------

_EXP_MAX = 709.0  # ln(float max); exponents beyond this are reported as inf


def _safe_exp(x: float) -> float:
    if x >= _EXP_MAX:
        return math.inf
    return math.exp(x)


def gaussian_renyi(q: float, s2_rho: float, s2_pi: float, d: int) -> float:
    """Closed-form R_q(N(0, s2_rho I_d) || N(0, s2_pi I_d)); inf when undefined.

    Supports q = inf (the sup-log-ratio), which is finite iff s2_rho <= s2_pi.
    """
    if not (s2_rho > 0 and s2_pi > 0):
        raise InputValidationError("variances must be positive")
    if math.isinf(q):
        if s2_rho > s2_pi:
            return math.inf
        return 0.5 * d * math.log(s2_pi / s2_rho)
    if not (q > 1):
        raise InputValidationError(f"Renyi order q must exceed 1, got {q}")
    c = q / s2_rho + (1.0 - q) / s2_pi
    if c <= 0:
        return math.inf
    log_f = 0.5 * d * (-q * math.log(s2_rho) + (q - 1.0) * math.log(s2_pi) - math.log(c))
    return log_f / (q - 1.0)


def beta_wpi_cauchy(nu: float, d: int, r: float) -> float:
    """WPI weighting 2/nu + 2(d/nu + 1) r^{-2/nu} for log-tailed targets."""
    if not (nu > 0.0):
        raise InputValidationError(f"nu must be positive, got {nu}")
    if d < 1:
        raise InputValidationError(f"d must be a positive integer, got {d}")
    if not (r > 0.0):
        raise InputValidationError(f"r must be positive, got {r}")
    log_term = math.log(2.0 * (d / nu + 1.0)) - (2.0 / nu) * math.log(r)
    return 2.0 / nu + _safe_exp(log_term)


def _c_d_alpha(d: int, alpha: float) -> float:
    """The subexponential weighted Poincare constant (upper estimate)."""
    return 12.0 * d / alpha**3 + (d + alpha) / alpha**4


def _gamma_terms(alpha: float, d: int, gamma: float) -> tuple[dict, Optional[tuple]]:
    """The r-free part of the subexponential WPI chain at fixed gamma: its
    intermediates, and (-2 ln(1 - t), exponent, ln a, ln b) when the
    chain's t < 1, else None.

    Log-domain throughout: the constituent a = gamma (e C)^{2/gamma} /
    (2(1-alpha)+gamma) overflows floats for small gamma.
    """
    c_da = _c_d_alpha(d, alpha)
    denom = 2.0 * (1.0 - alpha) + gamma
    log_a = math.log(gamma) + (2.0 / gamma) * (1.0 + math.log(c_da)) - math.log(denom)
    b = 2.0 * (1.0 - alpha) / denom
    expo = 1.0 - alpha + gamma / 2.0
    # t < 1 is required for the chain's geometric-series prefactor (1-t)^{-2}.
    log_t = math.log(expo) + 0.5 * math.log(b) - ((alpha - gamma / 2.0) / 2.0) * log_a
    inter = {
        "gamma": gamma,
        "C_d_alpha": c_da,
        "log_a": log_a,
        "b": b,
        "exponent": expo,
    }
    if log_t >= 0.0:
        return inter, None
    t = math.exp(log_t)
    return inter, (-2.0 * math.log1p(-t), expo, log_a, math.log(b))


def _chain_intermediates(terms: tuple[dict, Optional[tuple]], w: float) -> dict:
    """A fresh copy of the terms' intermediates, with w when t < 1."""
    inter, parts = terms
    return dict(inter) if parts is None else {**inter, "w": w}


def _gamma_grid(alpha: float) -> np.ndarray:
    """The 64-point log grid on (0, 2 alpha] that the weighting is
    minimized over."""
    return np.geomspace(2.0 * alpha * 1e-3, 2.0 * alpha, 64)


def _gamma_table(terms: list) -> list:
    """The r-free input of the array pass: those of the ``terms`` (see
    :func:`_gamma_terms`) whose chain has t < 1, in order, and their
    (prefactor, exponent, ln a, ln b) as a (4, k) array."""
    terms = [t for t in terms if t[1] is not None]
    return [terms, np.array([t[1] for t in terms], dtype=float).reshape(-1, 4).T]


def _beta_sublinear(
    alpha: float, d: int, r: float, gamma: Optional[float] = None,
    table: Optional[list] = None,
) -> tuple[float, dict]:
    """Value and intermediates of the subexponential WPI weighting at
    ``gamma``, or minimized over a 64-point log grid on (0, 2 alpha].

    A fixed gamma is a one-point table.  The grid's r-free terms
    (:func:`_gamma_table`) are computed per call, or, when a ``table`` list
    is passed, into it on its first use and read from it after: a table
    serves one (alpha, d).  One array pass gives every point's log value;
    each value is taken with ``math.exp`` and, of equal values, the first
    gamma's wins.  A value that overflows at every point is inf, with the
    fixed gamma's own intermediates, or the scan's {"gamma": 2 alpha}.
    """
    if not (0.0 < alpha < 1.0):
        raise InputValidationError(
            f"alpha must lie in (0, 1) for the subexponential weighting, got {alpha}"
        )
    if d < 1:
        raise InputValidationError(f"d must be a positive integer, got {d}")
    if not (r > 0.0):
        raise InputValidationError(f"r must be positive, got {r}")
    # w aggregates the dimension and resolution contributions; -ln r is used
    # directly so that subnormal r (down to ~5e-324) stays representable.
    w = 1.0 + (2.0 * d / alpha) * math.log(2.0) + 2.0 * max(-math.log(r), 0.0)
    if gamma is None:
        table = [] if table is None else table
        if not table:
            table[:] = _gamma_table([_gamma_terms(alpha, d, g)
                                     for g in _gamma_grid(alpha).tolist()])
        overflow = {"gamma": 2.0 * alpha}
    else:
        if not (0.0 < gamma <= 2.0 * alpha):
            raise InputValidationError(
                f"gamma must lie in (0, 2*alpha] = (0, {2 * alpha}], got {gamma}"
            )
        fixed = _gamma_terms(alpha, d, gamma)
        table = _gamma_table([fixed])
        overflow = _chain_intermediates(fixed, w)
    terms, (prefactor, expo, log_a, log_b) = table
    log_vals = prefactor + expo * np.logaddexp(
        log_a, log_b + (2.0 / alpha) * math.log(w))
    values = [math.exp(v) if v < _EXP_MAX else math.inf
              for v in log_vals.tolist()]
    value = min(values, default=math.inf)
    if value == math.inf:
        return value, overflow
    return value, _chain_intermediates(terms[values.index(value)], w)
