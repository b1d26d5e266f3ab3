"""Cubic B-spline machinery for the warp field.

Univariate clamped bases evaluated by the Cox-de Boor recursion, tensor
product warp evaluation, and the identity map's coefficients (the
Greville abscissae).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import linear_quantiles

ORDER = 4  # cubic with intercept


@dataclass(frozen=True)
class BSplineBasis:
    """Clamped B-spline basis of fixed order on [knots[order-1], knots[-order]]."""

    knots: np.ndarray
    order: int = ORDER

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        object.__setattr__(self, "knots", knots)
        if np.any(np.diff(knots) < 0):
            raise ValueError("knots must be nondecreasing")

    @property
    def T(self) -> int:
        """Number of basis functions."""
        return len(self.knots) - self.order

    @property
    def lo(self) -> float:
        return float(self.knots[self.order - 1])

    @property
    def hi(self) -> float:
        return float(self.knots[-self.order])

    def design_matrix(self, x) -> np.ndarray:
        """Evaluate all T basis functions at x; shape (len(x), T).

        Raises for points outside [lo, hi] (beyond fp tolerance).
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        tol = 1e-12 * max(1.0, abs(self.lo), abs(self.hi))
        if np.any(x < self.lo - tol) or np.any(x > self.hi + tol):
            bad = x[(x < self.lo - tol) | (x > self.hi + tol)][0]
            raise ValueError(
                f"point {bad} outside basis support [{self.lo}, {self.hi}]"
            )
        x = np.clip(x, self.lo, self.hi)
        k = self.order - 1
        knots = self.knots
        # interval index mu: knots[mu] <= x < knots[mu+1]; x == hi uses the last span
        mu = np.searchsorted(knots, x, side="right") - 1
        mu = np.clip(mu, k, self.T - 1)
        n = x.size
        # Cox-de Boor triangle for the k+1 local nonzero values
        vals = np.zeros((n, k + 1))
        vals[:, 0] = 1.0
        left = np.empty((n, k))
        right = np.empty((n, k))
        for j in range(1, k + 1):
            left[:, j - 1] = x - knots[mu + 1 - j]
            right[:, j - 1] = knots[mu + j] - x
            saved = np.zeros(n)
            for r in range(j):
                denom = right[:, r] + left[:, j - r - 1]
                term = np.where(denom > 0, vals[:, r] / np.where(denom > 0, denom, 1.0), 0.0)
                vals[:, r] = saved + right[:, r] * term
                saved = left[:, j - r - 1] * term
            vals[:, j] = saved
        out = np.zeros((n, self.T))
        cols = mu[:, None] - k + np.arange(k + 1)[None, :]
        np.put_along_axis(out, cols, vals, axis=1)
        return out


def make_basis(data, T: int, domain: tuple[float, float] | None = None) -> BSplineBasis:
    """Cubic basis with T-4 internal knots at the s/(T-3)-th data quantiles.

    Boundary knots sit at the data range endpoints unless ``domain`` widens
    them; each boundary is repeated to the spline order.
    """
    if T < ORDER:
        raise ValueError(f"need T >= {ORDER} basis functions, got {T}")
    data = np.asarray(data, dtype=float)
    if data.size == 0:
        raise ValueError("empty data")
    lo, hi = (float(data.min()), float(data.max())) if domain is None else map(float, domain)
    if not lo < hi:
        raise ValueError(f"degenerate domain [{lo}, {hi}]")
    n_internal = T - ORDER
    if n_internal > 0:
        qs = np.arange(1, n_internal + 1) / (T - 3)
        internal = linear_quantiles(data, qs)
        full = np.concatenate([[lo], internal, [hi]])
        if np.any(np.diff(full) <= 0):
            raise ValueError(
                f"duplicate internal knots from tied data; use fewer than T={T} bases"
            )
    else:
        internal = np.array([])
    knots = np.concatenate([[lo] * ORDER, internal, [hi] * ORDER])
    return BSplineBasis(knots=knots)


def identity_coefficients(basis: BSplineBasis) -> np.ndarray:
    """Coefficients reproducing the identity map on the basis domain: the
    Greville abscissae, each the mean of the order - 1 knots after its own
    index (Marsden's identity), exact for any knot vector."""
    k = basis.order - 1
    return sum(basis.knots[j : j + basis.T] for j in range(1, k + 1)) / k


def eval_tensor(basis_nu: BSplineBasis, basis_u: BSplineBasis, beta: np.ndarray, nu, u):
    """Sum_s sum_t beta[s,t] B1s(nu) B2t(u) for paired points (no constraints applied)."""
    rows_nu = basis_nu.design_matrix(nu)
    rows_u = basis_u.design_matrix(u)
    out = np.einsum("ns,st,nt->n", rows_nu, beta, rows_u)
    return float(out[0]) if np.isscalar(nu) and np.isscalar(u) else out


@dataclass(frozen=True)
class WarpField:
    """Tensor-product warp for one gel, constrained monotone in nu.

    ``beta`` is T_nu x T_u; each column increases strictly from lo to hi
    (the standardized landmark endpoints), which pins the boundary and makes
    every nu-section strictly increasing.
    """

    beta: np.ndarray
    basis_nu: BSplineBasis
    basis_u: BSplineBasis
    bounds: tuple[float, float]

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=float)
        object.__setattr__(self, "beta", beta)
        if beta.shape != (self.basis_nu.T, self.basis_u.T):
            raise ValueError(
                f"beta shape {beta.shape} != ({self.basis_nu.T}, {self.basis_u.T})"
            )

    def validate(self) -> None:
        """Raise a ValueError for the first rule of warp_violations that
        beta breaks."""
        low, high, rise = warp_violations(self.beta, self.bounds)
        if low:
            raise ValueError("first coefficient row not pinned at lower bound")
        if high:
            raise ValueError("last coefficient row not pinned at upper bound")
        if rise:
            raise ValueError("coefficient columns not strictly increasing")


def warp_violations(beta: np.ndarray, bounds: tuple[float, float]) -> tuple:
    """The warp's three constraints on a (..., T_nu, T_u) coefficient array,
    as three bool arrays over its leading axes, each True where the rule is
    broken: the first row is off bounds[0] by more than 1e-9, the last row
    is off bounds[1], or a column does not strictly increase down the rows.
    A NaN breaks every rule it enters."""
    lo, hi = bounds
    low = ~(np.abs(beta[..., 0, :] - lo) <= 1e-9).all(axis=-1)
    high = ~(np.abs(beta[..., -1, :] - hi) <= 1e-9).all(axis=-1)
    rise = ~(beta[..., 1:, :] > beta[..., :-1, :]).all(axis=(-2, -1))
    return low, high, rise


def eval_warp(field: WarpField, nu, u):
    """Warp value S(nu, u) for paired points inside the basis supports."""
    return eval_tensor(field.basis_nu, field.basis_u, field.beta, nu, u)


def eval_warp_grid(field: WarpField, nus, us) -> np.ndarray:
    """Warp values on the cross product: shape (len(nus), len(us))."""
    d_nu = field.basis_nu.design_matrix(nus)
    d_u = field.basis_u.design_matrix(us)
    return d_nu @ field.beta @ d_u.T


def identity_warp(basis_nu: BSplineBasis, basis_u: BSplineBasis,
                  bounds: tuple[float, float]) -> WarpField:
    """Identity-map warp field: beta_id replicated across all u columns."""
    beta_id = identity_coefficients(basis_nu)
    beta = np.tile(beta_id[:, None], (1, basis_u.T))
    beta[0, :] = bounds[0]
    beta[-1, :] = bounds[1]
    return WarpField(beta=beta, basis_nu=basis_nu, basis_u=basis_u, bounds=bounds)

