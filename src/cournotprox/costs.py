"""Production-cost families for the oligopoly market model.

Every cost is separable across firms, h(x) = sum_i h_i(x_i), carries an
analytic gradient, and reports a curvature bound max_i |h_i''| on the
nonnegative orthant (``lipschitz_L``) and above given lower sides
(``lipschitz_on``); the latter sizes proximal steps and the grid error
of the potential lower bound. Evaluation is vectorized: inputs of shape
(..., n) are accepted with the firm axis last; ``value`` reduces over
that axis and ``gradient`` maps it elementwise. A custom cost subclasses
``CostModel`` and implements ``value_components``, ``gradient``,
``lipschitz_L`` and ``contains``. ``value_and_gradient`` returns h(x)
and writes h'(x) into a caller's buffer; the solver makes exactly this
one call per trial point, so the shipped families override it with a
single fused pass.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CostDomainError",
    "CostModel",
    "AffineCost",
    "LogCost",
    "ExpCost",
]


class CostDomainError(ValueError):
    """A cost function was evaluated outside its domain."""


def _infer_n(n, *values):
    if n is not None:
        if int(n) < 1:
            raise ValueError("n must be a positive integer")
        return int(n)
    for v in values:
        if np.ndim(v) == 1:
            return len(v)
    raise ValueError("pass n= when every parameter is a scalar")


def _param(value, n, name):
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = np.full(n, float(arr))
    if arr.shape != (n,):
        raise ValueError(f"{name} must be a scalar or length-{n} vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return _frozen(arr.copy())


def _frozen(arr):
    arr.setflags(write=False)
    return arr


class CostModel(ABC):
    """Separable smooth production cost with an analytic gradient.

    Subclasses implement ``value_components``, ``gradient``,
    ``lipschitz_L`` and ``contains``; ``value`` sums the components and
    ``value_and_gradient`` composes ``value`` and ``gradient``. A family
    that overrides ``value_and_gradient`` with a fused pass must give the
    same bits as that composition, and a subclass that overrides
    ``value_components`` or ``gradient`` must override
    ``value_and_gradient`` too, or the solver keeps using the parent's
    fused pass.
    """

    n: int

    def value(self, x):
        """Total cost, summed over the trailing firm axis."""
        return np.sum(self.value_components(x), axis=-1)

    def value_and_gradient(self, x, grad, work=None):
        """Total cost at ``x``; writes the gradient into ``grad`` (same shape as ``x``).

        ``work`` is an optional scratch array of that shape that fused
        implementations use instead of allocating; neither buffer may
        alias ``x``.
        """
        grad[...] = self.gradient(x)
        return self.value(x)

    @abstractmethod
    def value_components(self, x):
        """Per-firm costs h_i(x_i); same shape as ``x``."""

    @abstractmethod
    def gradient(self, x):
        """Elementwise gradient (h_1'(x_1), ..., h_n'(x_n))."""

    @abstractmethod
    def lipschitz_L(self) -> float:
        """Bound on |h_i''| for x >= 0, i.e. a Lipschitz constant for the gradient there."""

    def lipschitz_on(self, lower) -> float:
        """Bound on |h_i''| wherever x_i >= lower[i]; infinite when there is none.

        Defaults to ``lipschitz_L()``, which is right for a family whose
        bound holds on its whole domain; a family whose curvature grows
        toward negative x overrides it. For lower >= 0 it is
        ``lipschitz_L()``.
        """
        return self.lipschitz_L()

    @abstractmethod
    def contains(self, x) -> bool:
        """Whether ``x`` lies in the domain of h."""

    def _check_points(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 0 or x.shape[-1] != self.n:
            raise ValueError(f"expected trailing axis of length {self.n}, got shape {x.shape}")
        return x


@dataclass(frozen=True)
class AffineCost(CostModel):
    """Linear cost h_i(x) = mu_h[i]*x + xi[i].

    The gradient is constant and the curvature bound is zero. The fixed
    offsets ``xi`` shift cost (and potential) values only; they have no
    effect on gradients, equilibria or stationary points.
    """

    mu_h: np.ndarray
    xi: np.ndarray = 0.0
    n: int = None

    def __post_init__(self):
        n = _infer_n(self.n, self.mu_h, self.xi)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mu_h", _param(self.mu_h, n, "mu_h"))
        object.__setattr__(self, "xi", _param(self.xi, n, "xi"))

    def value_components(self, x):
        x = self._check_points(x)
        return self.mu_h * x + self.xi

    def gradient(self, x):
        x = self._check_points(x)
        return np.broadcast_to(self.mu_h, x.shape).copy()

    def lipschitz_L(self):
        return 0.0

    def contains(self, x):
        return True


@dataclass(frozen=True)
class LogCost(CostModel):
    """Concave logarithmic cost h_i(x) = c0[i] + c[i]*log(1 + r[i]*x).

    Models a per-unit cost that falls as production grows, with ceiling
    c0. Defined where 1 + r[i]*x > 0, in particular for nonnegative
    production levels. |h_i''| = c[i]*r[i]**2/(1 + r[i]*x)**2 falls as x
    grows, so the bound max_i c[i]*r[i]**2 is attained at x = 0 and is
    valid on the nonnegative orthant; below 0 it is taken at the lower
    side.
    """

    c0: np.ndarray
    c: np.ndarray
    r: np.ndarray
    n: int = None
    cr: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = _infer_n(self.n, self.c0, self.c, self.r)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "c0", _param(self.c0, n, "c0"))
        object.__setattr__(self, "c", _param(self.c, n, "c"))
        object.__setattr__(self, "r", _param(self.r, n, "r"))
        if np.any(self.c0 < 0):
            raise ValueError("c0 must be nonnegative")
        if np.any(self.c <= 0) or np.any(self.r <= 0):
            raise ValueError("c and r must be positive")
        object.__setattr__(self, "cr", _frozen(self.c * self.r))

    def _arg(self, x):
        w = self.r * x
        if not np.all(w > -1.0):
            raise CostDomainError("log cost evaluated where 1 + r*x <= 0")
        return w

    def value_components(self, x):
        x = self._check_points(x)
        return self.c0 + self.c * np.log1p(self._arg(x))

    def gradient(self, x):
        x = self._check_points(x)
        return self.cr / (1.0 + self._arg(x))

    def value_and_gradient(self, x, grad, work=None):
        w = np.multiply(self.r, x, out=grad)
        if not np.min(w) > -1.0:
            raise CostDomainError("log cost evaluated where 1 + r*x <= 0")
        v = np.log1p(w, out=work)
        np.multiply(self.c, v, out=v)
        np.add(self.c0, v, out=v)
        np.add(1.0, w, out=grad)
        np.divide(self.cr, grad, out=grad)
        return np.sum(v, axis=-1)

    def lipschitz_L(self):
        return float(np.max(self.c * self.r**2))

    def lipschitz_on(self, lower):
        low = np.minimum(lower, 0.0)
        if not np.any(low):
            return self.lipschitz_L()
        if not self.contains(low):
            return np.inf
        return float(np.max(self.c * self.r**2 / (1.0 + self.r * low) ** 2))

    def contains(self, x):
        return bool(np.all(self.r * np.asarray(x, dtype=float) > -1.0))


@dataclass(frozen=True)
class ExpCost(CostModel):
    """Concave saturating cost h_i(x) = c0[i] - c[i]*exp(-r[i]*x).

    Defined on the whole real line; approaches the ceiling c0 as
    production grows. Requires c0[i] >= c[i] > 0 so costs stay
    nonnegative on x >= 0. |h_i''| = c[i]*r[i]**2*exp(-r[i]*x) falls as x
    grows: the bound is max_i c[i]*r[i]**2 on x >= 0, taken at the lower
    side below 0, and there is none on an unbounded-below side.
    """

    c0: np.ndarray
    c: np.ndarray
    r: np.ndarray
    n: int = None
    cr: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = _infer_n(self.n, self.c0, self.c, self.r)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "c0", _param(self.c0, n, "c0"))
        object.__setattr__(self, "c", _param(self.c, n, "c"))
        object.__setattr__(self, "r", _param(self.r, n, "r"))
        if np.any(self.c <= 0) or np.any(self.r <= 0):
            raise ValueError("c and r must be positive")
        if np.any(self.c0 < self.c):
            raise ValueError("c0 must dominate c componentwise")
        object.__setattr__(self, "cr", _frozen(self.c * self.r))

    def value_components(self, x):
        x = self._check_points(x)
        return self.c0 - self.c * np.exp(-self.r * x)

    def gradient(self, x):
        x = self._check_points(x)
        return self.cr * np.exp(-self.r * x)

    def value_and_gradient(self, x, grad, work=None):
        # -(r*x) equals (-r)*x bit for bit: rounding is symmetric in sign
        e = np.multiply(self.r, x, out=grad)
        np.negative(e, out=e)
        np.exp(e, out=e)
        v = np.multiply(self.c, e, out=work)
        np.subtract(self.c0, v, out=v)
        np.multiply(self.cr, e, out=grad)
        return np.sum(v, axis=-1)

    def lipschitz_L(self):
        return float(np.max(self.c * self.r**2))

    def lipschitz_on(self, lower):
        low = np.minimum(lower, 0.0)
        if not np.any(low):
            return self.lipschitz_L()
        return float(np.max(self.c * self.r**2 * np.exp(-self.r * low)))

    def contains(self, x):
        return True

