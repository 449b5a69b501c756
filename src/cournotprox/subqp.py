"""Strongly convex box-constrained quadratic subproblems.

The proximal subproblem of the splitting iteration is diagonal once the
coupling term is linearized, so it has a closed-form solution; a generic
projected-gradient solver handles dense or operator-form quadratics and
doubles as an independent cross-check. The classical affine-cost
equilibrium is the unique minimizer of the combined-curvature QP and
serves as the validation oracle for solver runs on convex instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import AffineCost
from .model import apply_Q

__all__ = [
    "SubproblemError",
    "BoxQP",
    "box_pg_solve",
    "prox_step",
    "prox_subproblem",
    "classical_equilibrium",
]


class SubproblemError(RuntimeError):
    """Inner QP solver failed to reach its tolerance within the iteration budget."""

    def __init__(self, message, x=None, residual=None, iterations=None):
        super().__init__(message)
        self.x = x
        self.residual = residual
        self.iterations = iterations


@dataclass
class BoxQP:
    """min over a box of (1/2) x'Hx + b'x with H symmetric positive definite.

    ``quad`` is a length-n vector (diagonal H), an (n, n) array, or a
    callable implementing v -> Hv; callables must come with ``lam_max``,
    otherwise the largest eigenvalue is computed here.
    """

    quad: object
    linear: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    lam_max: float = None

    def __post_init__(self):
        self.linear = np.asarray(self.linear, dtype=float)
        if self.linear.ndim != 1:
            raise ValueError("linear term must be a vector")
        n = self.linear.size
        self.lower = np.broadcast_to(np.asarray(self.lower, dtype=float), (n,)).copy()
        self.upper = np.broadcast_to(np.asarray(self.upper, dtype=float), (n,)).copy()
        if np.any(self.lower > self.upper):
            raise ValueError("empty box: lower > upper somewhere")
        if callable(self.quad):
            if self.lam_max is None:
                raise ValueError("operator-form quadratics need an explicit lam_max")
        else:
            q = np.asarray(self.quad, dtype=float)
            if q.ndim == 1:
                if q.shape != (n,):
                    raise ValueError("diagonal quadratic has the wrong length")
                if np.any(q <= 0):
                    raise ValueError("diagonal quadratic must be positive")
                lam = float(np.max(q))
            elif q.ndim == 2:
                if q.shape != (n, n):
                    raise ValueError("dense quadratic has the wrong shape")
                if not np.allclose(q, q.T, rtol=1e-12, atol=1e-12):
                    raise ValueError("dense quadratic must be symmetric")
                eigs = np.linalg.eigvalsh(q)
                if eigs[0] <= 0:
                    raise ValueError("quadratic must be positive definite")
                lam = float(eigs[-1])
            else:
                raise ValueError("quad must be a vector, a matrix, or a callable")
            self.quad = q
            if self.lam_max is None:
                self.lam_max = lam
        self.lam_max = float(self.lam_max)
        if self.lam_max <= 0:
            raise ValueError("lam_max must be positive")

    @property
    def n(self):
        return self.linear.size

    def hess(self, v):
        if callable(self.quad):
            return self.quad(v)
        if self.quad.ndim == 1:
            return self.quad * v
        return self.quad @ v

    def grad(self, v):
        return self.hess(v) + self.linear


def box_pg_solve(qp, tol=1e-10, max_iter=100_000, x0=None):
    """Projected gradient with the fixed step 1/lam_max.

    Terminates when the unit-step projected-gradient residual
    ||x - clip(x - grad q(x))||_inf falls below ``tol``; strong convexity
    makes the iteration linearly convergent. Raises SubproblemError when
    the iteration budget runs out (never returns a silent non-solution).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 0:
        raise ValueError("max_iter must be nonnegative")
    lo, up = qp.lower, qp.upper
    if x0 is None:
        x = np.clip(np.zeros(qp.n), lo, up)
    else:
        x = np.clip(np.asarray(x0, dtype=float), lo, up)
    step = 1.0 / qp.lam_max
    residual = np.inf
    for it in range(max_iter + 1):
        g = qp.grad(x)
        residual = float(np.max(np.abs(x - np.clip(x - g, lo, up))))
        if residual <= tol:
            return x
        if it == max_iter:
            break
        x = np.clip(x - step * g, lo, up)
    raise SubproblemError(
        f"projected gradient stalled at residual {residual:.3e} > tol {tol:.1e} "
        f"after {max_iter} iterations",
        x=x,
        residual=residual,
        iterations=max_iter,
    )


def _model_gradient_at(inst, x, cost_grad=None, out=None):
    # linearized part of the local model: coupling + cost slope, no own-output term;
    # the operation order of apply_Btilde(x) - alpha_tilde - cost.gradient(x)
    if cost_grad is None:
        cost_grad = inst.cost.gradient(x)
    out = np.subtract(np.sum(x, axis=-1, keepdims=True), x, out=out)
    np.multiply(inst.beta, out, out=out)
    np.subtract(out, inst.alpha_tilde, out=out)
    return np.subtract(out, cost_grad, out=out)


def prox_step(inst, x, c, g=None, out=None):
    """Minimizer of the convexified local model with proximal damping 1/(2c).

    Keeps the own-output quadratic exact, linearizes the smooth cost at
    ``x``, and damps the move; separability gives the closed form
    clamp((x - c*g)/(1 + 2*beta*c)) per coordinate. Stationary points
    are exactly its fixed points, for every c > 0.

    ``g`` is the linearized slope at ``x``,
    ``apply_Btilde(x) - alpha_tilde - cost.gradient(x)``. It does not
    depend on c, so a caller trying several c from one ``x`` can compute
    it once and pass it in; by default it is computed here. The step is
    written into ``out`` when given (an array shaped like ``x`` that
    aliases neither ``x`` nor ``g``) and returned.
    """
    if c <= 0:
        raise ValueError("c must be positive")
    x = np.asarray(x, dtype=float)
    if x.shape != (inst.n,):
        raise ValueError(f"x must have shape ({inst.n},), got {x.shape}")
    if g is None:
        g = _model_gradient_at(inst, x)
    out = np.multiply(c, g, out=out)
    np.subtract(x, out, out=out)
    np.divide(out, 1.0 + 2.0 * inst.beta * c, out=out)
    return np.clip(out, inst.lower, inst.upper, out=out)


def prox_subproblem(inst, x, c):
    """The same subproblem in explicit BoxQP form, for cross-validation."""
    if c <= 0:
        raise ValueError("c must be positive")
    x = np.asarray(x, dtype=float)
    g = _model_gradient_at(inst, x)
    diag = np.full(inst.n, 2.0 * inst.beta + 1.0 / c)
    return BoxQP(diag, g - x / c, inst.lower, inst.upper)


def classical_equilibrium(inst, tol=1e-10, max_iter=200_000):
    """Unique equilibrium of the affine-cost market via the equivalent strongly convex QP.

    Requires an affine cost model; minimizes (1/2) x'Qx + (mu_total - alpha0)'x
    over the box with mu_total collecting the instance-level and
    cost-level linear coefficients.
    """
    if not isinstance(inst.cost, AffineCost):
        raise TypeError("classical equilibrium requires an affine cost model")
    linear = inst.mu + inst.cost.mu_h - inst.alpha0
    qp = BoxQP(
        quad=lambda v: apply_Q(inst, v),
        linear=linear,
        lower=inst.lower,
        upper=inst.upper,
        lam_max=inst.beta * (inst.n + 1),
    )
    return box_pg_solve(qp, tol=tol, max_iter=max_iter, x0=inst.center())
