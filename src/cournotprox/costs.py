"""Production-cost families for the oligopoly market model.

Every cost is separable across firms, h(x) = sum_i h_i(x_i), and carries
analytic first and second derivatives. Evaluation is vectorized: inputs
of shape (..., n) are accepted with the firm axis last. A family writes
its formulas once, in ``value_components``, which returns the per-firm
values and, given buffers, writes h'(x) and h''(x) in the same pass; the
solver makes exactly one such call per trial point. A custom cost
subclasses ``CostModel`` and implements that one method. No second
formula bounds h'': ``MarketInstance`` reads its bound from h'' at the
box's two ends, and refuses a box with an end outside the cost's domain,
where the kernel raises ``CostDomainError`` or h'' is not finite.

Per-firm parameters are read-only float vectors of shape (n,). One given
as a scalar is stored once, as a stride-0 broadcast view: ufuncs read it
as fast as the scalar, checks read one element, and it costs no n-vector
of memory. A length-n input is copied. Only int and float dtypes pass.
"""

from __future__ import annotations

import math
import numbers
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


def _integer(value, name):
    # operator.index refuses 2.5 rather than truncate it to 2, but takes True for 1
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _real(value, name, finite=True):
    # bool is a numbers.Real, but True is no slope or tolerance; a 0-d array is one number
    x = value[()] if isinstance(value, np.ndarray) and value.ndim == 0 else value
    if type(x) is float or isinstance(x, numbers.Real) and not isinstance(x, bool):
        try:  # float() overflows on an int or Fraction beyond every float
            if math.isfinite(x := float(x)) or not finite:
                return x
        except OverflowError:
            pass
    raise ValueError(f"{name} must be a {'finite ' if finite else ''}real number, got {value!r}")


def _infer_n(n, *values):
    if n is not None:
        n = _integer(n, "n")
        if not 1 <= n <= np.iinfo(np.intp).max:  # the longest axis numpy can index
            raise ValueError(f"n must be a positive integer at most {np.iinfo(np.intp).max}")
        return n
    for v in values:
        if np.ndim(v) == 1:
            return len(v)
    raise ValueError("pass n= when every parameter is a scalar")


def _param(value, n, name, finite=True):
    # float() copies a scalar: a caller's 0-d array changed later must not change the view.
    # A scalar is checked before it is broadcast, not as n stride-0 copies.
    arr = np.asarray(value)
    if arr.dtype.kind not in "iuf":  # float() would take True, "0.5" and Decimal
        raise ValueError(f"{name} must be real numbers, got dtype {arr.dtype}")
    if arr.ndim == 0:
        arr = np.asarray(float(arr))
    elif arr.shape == (n,):
        arr = _frozen(np.array(arr, dtype=float))
    else:
        raise ValueError(f"{name} must be a scalar or length-{n} vector, got shape {arr.shape}")
    if finite and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    if np.any(np.isnan(arr)):
        raise ValueError(f"{name} must not contain NaN")
    return arr if arr.ndim else np.broadcast_to(arr, (n,))


def _once(arr):  # a stride-0 view holds one number n times: a check reads it once
    return arr[:1] if arr.strides == (0,) else arr


def _frozen(arr):
    arr.setflags(write=False)
    return arr


class CostModel(ABC):
    """Separable smooth production cost with an analytic gradient.

    Subclasses implement one method, ``value_components``, the one
    kernel that holds every formula of the cost, its slope and its
    curvature. The class: each h_i'' is monotone on the box, as on every
    shipped family, so max |h_i''| sits at the box's two ends. The
    instance's bound ``L_h``, on which the solver's descent rests, is read
    there, and ``nash_gap`` and ``gamma_lower_bound`` are certified only
    for such a cost.
    """

    n: int

    @abstractmethod
    def value_components(self, x, grad=None, out=None, curv=None):
        """Per-firm costs h_i(x_i), shaped like ``x``; written into ``out`` when given.

        When ``grad`` is given the same pass writes h_i'(x_i) into it, and
        h_i''(x_i) into ``curv`` when that is given too. All are arrays
        shaped like ``x``; none may alias ``x`` or another.
        """

    def _check_points(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 0 or x.shape[-1] != self.n:
            raise ValueError(f"x must have trailing axis of length {self.n}, got shape {x.shape}")
        return x


@dataclass(frozen=True, eq=False)
class AffineCost(CostModel):
    """Linear cost h_i(x) = mu_h[i]*x + xi[i].

    The gradient is constant and the curvature is zero. The fixed
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

    def value_components(self, x, grad=None, out=None, curv=None):
        x = self._check_points(x)
        if grad is not None:
            grad[...] = self.mu_h
        if curv is not None:
            curv[...] = 0.0
        out = np.multiply(self.mu_h, x, out=out)
        return np.add(out, self.xi, out=out)


@dataclass(frozen=True, eq=False)
class LogCost(CostModel):
    """Concave logarithmic cost h_i(x) = c0[i] + c[i]*log(1 + r[i]*x).

    Models a per-unit cost that falls as production grows, with ceiling
    c0. Defined where 1 + r[i]*x > 0, in particular for nonnegative
    production levels. |h_i''| = c[i]*r[i]**2/(1 + r[i]*x)**2 falls as x
    grows, so on a box it is largest at the lower side.
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
        if np.any(_once(self.c0) < 0):
            raise ValueError("c0 must be nonnegative")
        if np.any(_once(self.c) <= 0) or np.any(_once(self.r) <= 0):
            raise ValueError("c and r must be positive")
        object.__setattr__(self, "cr", _frozen(self.c * self.r))

    def value_components(self, x, grad=None, out=None, curv=None):
        x = self._check_points(x)
        w = np.multiply(self.r, x, out=grad)
        if not np.minimum.reduce(w, axis=None) > -1.0:  # np.min's bits, without its wrapper
            raise CostDomainError("log cost evaluated where 1 + r*x <= 0, outside the cost domain")
        v = np.log1p(w, out=out)
        np.multiply(self.c, v, out=v)
        np.add(self.c0, v, out=v)
        if grad is not None:
            np.add(1.0, w, out=grad)
            np.divide(self.cr, grad, out=grad)
            if curv is not None:  # h'' = -h'^2/c
                np.divide(np.multiply(grad, grad, out=curv), self.c, out=curv)
                np.negative(curv, out=curv)
        return v


@dataclass(frozen=True, eq=False)
class ExpCost(CostModel):
    """Concave saturating cost h_i(x) = c0[i] - c[i]*exp(-r[i]*x).

    Defined on the whole real line; approaches the ceiling c0 as
    production grows. Requires c0[i] >= c[i] > 0 so costs stay
    nonnegative on x >= 0. |h_i''| = c[i]*r[i]**2*exp(-r[i]*x) falls as x
    grows: on a box it is largest at the lower side, and unbounded on a
    side at -inf.
    """

    c0: np.ndarray
    c: np.ndarray
    r: np.ndarray
    n: int = None
    cr: np.ndarray = field(init=False, repr=False)
    _neg_r: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = _infer_n(self.n, self.c0, self.c, self.r)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "c0", _param(self.c0, n, "c0"))
        object.__setattr__(self, "c", _param(self.c, n, "c"))
        object.__setattr__(self, "r", _param(self.r, n, "r"))
        if np.any(_once(self.c) <= 0) or np.any(_once(self.r) <= 0):
            raise ValueError("c and r must be positive")
        if np.any(_once(self.c0) < _once(self.c)):
            raise ValueError("c0 must dominate c componentwise")
        object.__setattr__(self, "cr", _frozen(self.c * self.r))
        object.__setattr__(self, "_neg_r", _frozen(-self.r))

    def value_components(self, x, grad=None, out=None, curv=None):
        x = self._check_points(x)
        # (-r)*x equals -(r*x) bit for bit: rounding is symmetric in sign
        e = np.multiply(self._neg_r, x, out=grad)
        np.exp(e, out=e)
        v = np.multiply(self.c, e, out=out)
        np.subtract(self.c0, v, out=v)
        if grad is not None:
            np.multiply(self.cr, e, out=grad)
            if curv is not None:  # h'' = -r*h'
                np.multiply(self._neg_r, grad, out=curv)
        return v
