"""Production-cost families for the oligopoly market model.

Every cost is separable across firms, h(x) = sum_i h_i(x_i), carries an
analytic gradient, and reports a curvature bound max_i |h_i''| above
given lower sides (``lipschitz_on``), which sizes proximal steps and the
grid error of the potential lower bound and is infinite where there is
none, including below the cost's domain. Evaluation is vectorized:
inputs of shape (..., n) are accepted with the firm axis last. A family
writes its formulas once, in ``value_components``, which returns the
per-firm values and, given a ``grad`` buffer, writes h'(x) in the same
pass; the solver makes exactly one such call per trial point. A custom
cost subclasses ``CostModel`` and implements those two methods.

Per-firm parameters are read-only float vectors of shape (n,). One given
as a scalar is stored once, as a stride-0 broadcast view: ufuncs read it
as fast as the scalar, and it costs no n-vector of memory. A length-n
input is copied. Booleans are refused.
"""

from __future__ import annotations

import operator
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


def _integer(value):
    # operator.index refuses 2.5 rather than truncate it to 2, but takes True for 1
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is a bool")
    return operator.index(value)


def _infer_n(n, *values):
    if n is not None:
        try:
            n = _integer(n)
        except TypeError:
            raise ValueError(f"n must be a positive integer, got {n!r}") from None
        if n < 1:
            raise ValueError("n must be a positive integer")
        return n
    for v in values:
        if np.ndim(v) == 1:
            return len(v)
    raise ValueError("pass n= when every parameter is a scalar")


def _param(value, n, name, finite=True):
    # float() copies a scalar: a caller's 0-d array changed later must not change the view
    arr = np.asarray(value)
    if arr.dtype == bool:
        raise ValueError(f"{name} must be numbers, not booleans")
    if arr.ndim == 0:
        arr = np.broadcast_to(float(arr), (n,))
    elif arr.shape == (n,):
        arr = _frozen(np.array(arr, dtype=float))
    else:
        raise ValueError(f"{name} must be a scalar or length-{n} vector, got shape {arr.shape}")
    if finite and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    if np.any(np.isnan(arr)):
        raise ValueError(f"{name} must not contain NaN")
    return arr


def _frozen(arr):
    arr.setflags(write=False)
    return arr


class CostModel(ABC):
    """Separable smooth production cost with an analytic gradient.

    Subclasses implement two methods: ``value_components``, the one
    kernel that holds every formula of the cost and its slope, and
    ``lipschitz_on``, the one curvature bound, which also answers
    whether a box stays inside the cost's domain.
    """

    n: int

    @abstractmethod
    def value_components(self, x, grad=None, out=None):
        """Per-firm costs h_i(x_i), shaped like ``x``; written into ``out`` when given.

        When ``grad`` is given the same pass writes h_i'(x_i) into it.
        Both are arrays shaped like ``x``; neither may alias ``x`` or
        the other.
        """

    @abstractmethod
    def lipschitz_on(self, lower) -> float:
        """Bound on |h_i''| wherever x_i >= lower[i].

        Infinite when there is none, and when any ``lower[i]`` lies
        outside the cost's domain.
        """

    def _check_points(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 0 or x.shape[-1] != self.n:
            raise ValueError(f"expected trailing axis of length {self.n}, got shape {x.shape}")
        return x


@dataclass(frozen=True, eq=False)
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

    def value_components(self, x, grad=None, out=None):
        x = self._check_points(x)
        if grad is not None:
            grad[...] = self.mu_h
        out = np.multiply(self.mu_h, x, out=out)
        return np.add(out, self.xi, out=out)

    def lipschitz_on(self, lower):
        return 0.0


@dataclass(frozen=True, eq=False)
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
    cr: np.ndarray = field(init=False, repr=False)

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

    def value_components(self, x, grad=None, out=None):
        x = self._check_points(x)
        w = np.multiply(self.r, x, out=grad)
        if not np.minimum.reduce(w, axis=None) > -1.0:  # np.min's bits, without its wrapper
            raise CostDomainError("log cost evaluated where 1 + r*x <= 0")
        v = np.log1p(w, out=out)
        np.multiply(self.c, v, out=v)
        np.add(self.c0, v, out=v)
        if grad is not None:
            np.add(1.0, w, out=grad)
            np.divide(self.cr, grad, out=grad)
        return v

    def lipschitz_on(self, lower):
        low = np.minimum(lower, 0.0)
        if not np.all(self.r * low > -1.0):  # a side outside the domain 1 + r*x > 0
            return np.inf
        return float(np.max(self.c * self.r**2 / (1.0 + self.r * low) ** 2))


@dataclass(frozen=True, eq=False)
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
    cr: np.ndarray = field(init=False, repr=False)

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

    def value_components(self, x, grad=None, out=None):
        x = self._check_points(x)
        # -(r*x) equals (-r)*x bit for bit: rounding is symmetric in sign
        e = np.multiply(self.r, x, out=grad)
        np.negative(e, out=e)
        np.exp(e, out=e)
        v = np.multiply(self.c, e, out=out)
        np.subtract(self.c0, v, out=v)
        if grad is not None:
            np.multiply(self.cr, e, out=grad)
        return v

    def lipschitz_on(self, lower):
        low = np.minimum(lower, 0.0)
        with np.errstate(over="ignore"):  # a far-negative side has no bound: inf is the answer
            return float(np.max(self.c * self.r**2 * np.exp(-self.r * low)))
