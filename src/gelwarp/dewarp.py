"""Hierarchical Bayesian dewarping of reference-aligned peak locations.

Peak locations are modeled as Gaussian draws around warped landmark
positions S_g(nu_Z, u): a tensor-product cubic B-spline surface per gel,
strictly increasing in nu with pinned endpoints, under random-walk
shrinkage priors on the coefficients and a shared landmark frequency
vector lambda that shrinks assignments toward recurrent bands.

The sampler is a systematic-scan Gibbs sweep: a blocked draw of each
lane's whole assignment vector Z from its full conditional by forward
filtering, backward sampling (Carter & Kohn 1994), with all lanes of all
gels in one vectorized pass over each peak's band of admissible landmarks
(its window |T - nu| < A_0, not all L), univariate truncated-normal full
conditionals for the free spline coefficients, conjugate inverse-gamma
updates for the variances, and a per-coordinate random-walk Metropolis step
on log lambda.

The sampler state is internal, with no public form: arrays with peaks and
lanes in lane_key_list order, the order the draws are saved in.  Z and the
peak means mu are (P,) over the peaks of all gels, the warped landmarks W
are one (L + 2, N) matrix with a column per lane, beta is (G, T_nu, T_u),
sigma_g1^2 is (G,) and sigma_gs^2 is (G, T_nu - 2); each gel holds its
slice of the peak axis and of W's columns.

The hyperpriors and sampler tuning are fixed module constants, not
settings: TAU_SHAPE and TAU_RATE for the inverse-gamma prior on the
half-normal scale tau of lambda, SIGMA_SHAPE and SIGMA_RATE for the
inverse-gamma priors on every variance, LAMBDA_STEP for the log-scale
proposal sd of lambda and the (lambda, tau) rescaling move, and ANNEAL_HI
and ANNEAL_LO for the restart annealing schedule, in landmark spacings.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field
from math import lgamma, log
from pathlib import Path
from statistics import NormalDist

import numpy as np

from .core import (
    GelwarpWarning,
    LandmarkGrid,
    Standardizer,
    check_int,
    fit_standardizer,
    lane_name,
    parse_lane_name,
    write_json,
)
from .peakdetect import PeakTable
from .spline import WarpField, identity_coefficients, make_basis, write_warp_fields

LOG_2PI = math.log(2.0 * math.pi)
SQRT_HALF = math.sqrt(0.5)
_STD_NORMAL = NormalDist()

# fixed hyperpriors and sampler tuning, named in the module docstring
TAU_SHAPE = 1e-4
TAU_RATE = 1e-4
SIGMA_SHAPE = 0.01
SIGMA_RATE = 0.01
LAMBDA_STEP = 0.5
ANNEAL_HI = 1.2
ANNEAL_LO = 0.15


# ---------------------------------------------------------------------------
# Config and state containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelConfig:
    """Sampler settings.  a0 is the assignment window half-width in trace
    units; None means three landmark spacings."""

    L: int = 100
    T_nu: int = 10
    T_u: int = 6
    a0: float | None = None
    iterations: int = 5500
    burnin: int = 500
    thin: int = 1
    seed: int = 0
    restarts: int = 4
    restart_sweeps: int = 600

    def __post_init__(self):
        # a float such as 300.0 (say from JSON) would fail mid-run
        for name, lo in (("L", None), ("T_nu", None), ("T_u", None), ("iterations", 1),
                         ("burnin", 0), ("thin", 1), ("seed", 0), ("restarts", 1),
                         ("restart_sweeps", 1)):
            check_int(getattr(self, name), name, lo)
        if self.L < 2:
            raise ValueError("need L >= 2 landmarks")
        if self.T_nu < 4 or self.T_u < 4:
            raise ValueError("cubic bases need T_nu >= 4 and T_u >= 4")
        # a JSON true would read as 1.0, a window over the whole gel
        if self.a0 is not None and (
                isinstance(self.a0, bool)
                or not isinstance(self.a0, (int, float, np.integer, np.floating))
                or not math.isfinite(self.a0)):
            raise ValueError(f"a0 must be a finite number, got {self.a0!r}")
        # window must span at least two landmarks or assignments degenerate
        if self.a0_value < 2.0 / (self.L + 1) - 1e-12:
            raise ValueError(
                f"A_0 = {self.a0_value} narrower than two landmark spacings "
                f"{2.0 / (self.L + 1)}"
            )
        if self.burnin >= self.iterations:
            raise ValueError("need 0 <= burnin < iterations")

    @property
    def a0_value(self) -> float:
        return self.a0 if self.a0 is not None else 3.0 / (self.L + 1)

    @property
    def n_saved(self) -> int:
        return len(range(self.burnin, self.iterations, self.thin))


def signatures(Z: dict, L: int) -> tuple[list, np.ndarray]:
    """Binary N x L matrix: row per lane (sorted keys), 1 where a landmark
    is hit by some peak."""
    keys = sorted(Z.keys())
    Y = np.zeros((len(keys), L), dtype=int)
    for r, key in enumerate(keys):
        for ell in np.asarray(Z[key], dtype=int):
            if not 1 <= ell <= L:
                raise ValueError(f"lane {key}: landmark {ell} outside 1..{L}")
            Y[r, ell - 1] = 1
    return keys, Y


# ---------------------------------------------------------------------------
# Scalar sampling helpers
# ---------------------------------------------------------------------------


def _draw_invgamma(shape: float, rate: float, rng) -> float:
    """X ~ InvGamma(shape, rate): density x^-(shape+1) exp(-rate/x)."""
    return rate / rng.gamma(shape)


def _log_invgamma(x: float, shape: float, rate: float) -> float:
    if x <= 0:
        return -np.inf
    return shape * log(rate) - lgamma(shape) - (shape + 1.0) * log(x) - rate / x


def _trunc_normal(mean: float, sd: float, lo: float, hi: float, u: float, rng) -> float:
    """Draw from N(mean, sd) restricted to the open interval (lo, hi).

    u is a uniform on [0, 1) that sets the inverse-CDF draw; the far-tail
    branch ignores it and draws from rng instead."""
    a = (lo - mean) / sd
    b = (hi - mean) / sd
    fa = 0.5 * math.erfc(-a * SQRT_HALF)
    fb = 0.5 * math.erfc(-b * SQRT_HALF)
    if fb - fa > 1e-12:
        p = fa + (fb - fa) * u
        # inv_cdf raises at 0 and 1; the infinite quantile is clamped below
        if p <= 0.0:
            x = -math.inf
        elif p >= 1.0:
            x = math.inf
        else:
            x = mean + sd * _STD_NORMAL.inv_cdf(p)
    else:
        # far-tail interval: exponential rejection (Robert 1995), mirrored
        # onto the left tail when needed
        flip = b < 0
        if flip:
            a, b = -b, -a
        alpha = 0.5 * (a + math.sqrt(a * a + 4.0))
        while True:
            z = a + rng.exponential(1.0 / alpha)
            if z <= b and rng.random() <= math.exp(-0.5 * (z - alpha) ** 2):
                break
        x = mean + sd * (-z if flip else z)
    if x <= lo:
        x = math.nextafter(lo, hi)
    elif x >= hi:
        x = math.nextafter(hi, lo)
    return float(x)


# ---------------------------------------------------------------------------
# Model context
# ---------------------------------------------------------------------------


@dataclass(slots=True, eq=False)
class _GelData:
    """Flattened per-gel peak arrays and design matrices.  wlo..whi is each
    peak's admissible landmark range; peaks and cols are the gel's slices of
    the chain state's peak axis and of W's lane columns."""

    gel_id: str
    lanes: list
    u_std: np.ndarray
    lane_std: Standardizer
    basis_u: object
    Bu: np.ndarray
    T_flat: np.ndarray
    lane_idx: np.ndarray
    lane_slices: list
    log_jfact: float
    wlo: np.ndarray
    whi: np.ndarray
    peaks: slice
    cols: slice
    n_peaks: int = field(init=False)
    BuP: np.ndarray = field(init=False)

    def __post_init__(self):
        self.n_peaks = self.T_flat.size
        self.BuP = self.Bu[self.lane_idx, :]


@dataclass(slots=True, eq=False)
class _ChainState:
    """Mutable sampler state, in the array layout of the module docstring.
    W (warped landmarks) and mu (peak means) follow from beta and Z; lam_sum
    is lam's running sum."""

    lam: np.ndarray
    lam_sum: float
    tau: float
    sigma_eps2: float
    beta: np.ndarray
    Z: np.ndarray
    sigma_g1_2: np.ndarray
    sigma_gs_2: np.ndarray
    W: np.ndarray
    mu: np.ndarray


class DewarpModel:
    """Precomputed design context for one PeakTable.

    The table must contain sample-lane peaks only (reference lanes and
    masked intervals are dropped upstream); locations are taken in trace
    units and standardized internally together with the landmark grid, so
    the window A_0 stays commensurate with the data.
    """

    def __init__(self, peaks: PeakTable, cfg: ModelConfig):
        if peaks.total == 0:
            raise ValueError("peak table is empty")
        self.cfg = cfg
        self.grid = LandmarkGrid(cfg.L)
        # one landmark spacing as the unit: the inverse-gamma hyperpriors
        # are scale-dependent, and on this scale their rates stay vague
        # relative to realistic residual variances
        self.axis = Standardizer(
            center=float(np.mean(self.grid.nu)), scale=self.grid.spacing
        )
        self.nu_std = self.axis.apply(self.grid.nu)
        self.bounds = (float(self.nu_std[0]), float(self.nu_std[-1]))
        self.a0_std = cfg.a0_value / self.axis.scale
        self.spacing_std = self.grid.spacing / self.axis.scale

        all_T = np.array([p.location for p in peaks])
        self.basis_nu = make_basis(self.axis.apply(all_T), cfg.T_nu, domain=self.bounds)
        self.beta_id = identity_coefficients(self.basis_nu)
        self.beta_id[0] = self.bounds[0]
        self.beta_id[-1] = self.bounds[1]
        self.id_incr = np.diff(self.beta_id[: cfg.T_nu - 1])
        self.Bnu_land = self.basis_nu.design_matrix(self.nu_std)

        self.gels: list[_GelData] = []
        gel_ids = sorted({p.gel_id for p in peaks})
        P = N = 0
        for gel_id in gel_ids:
            lanes = sorted({p.lane for p in peaks.gel_peaks(gel_id)})
            u_raw = np.array(lanes, dtype=float)
            if len(lanes) >= 2:
                lane_std = fit_standardizer(u_raw)
            else:
                lane_std = Standardizer(center=float(u_raw[0]), scale=1.0)
            u_std = lane_std.apply(u_raw)
            u_lo, u_hi = float(u_std.min()), float(u_std.max())
            if u_hi - u_lo < 1e-9:
                u_lo, u_hi = u_lo - 0.5, u_hi + 0.5
            basis_u = make_basis(u_std, cfg.T_u, domain=(u_lo, u_hi))
            Bu = basis_u.design_matrix(u_std)

            T_parts, lane_idx_parts, slices, log_jfact = [], [], [], 0.0
            start = 0
            for k, lane in enumerate(lanes):
                lane_pk = peaks.lane_peaks(gel_id, lane)
                locs = self.axis.apply(np.array([p.location for p in lane_pk]))
                T_parts.append(locs)
                lane_idx_parts.append(np.full(locs.size, k, dtype=np.intp))
                slices.append((start, start + locs.size))
                start += locs.size
                log_jfact += lgamma(locs.size + 1.0)
            T_flat = np.concatenate(T_parts)
            # per-peak admissible landmark range from the window |T - nu| < A_0
            lo = np.searchsorted(self.nu_std, T_flat - self.a0_std, side="right")
            hi = np.searchsorted(self.nu_std, T_flat + self.a0_std, side="left") - 1
            self.gels.append(_GelData(
                gel_id, lanes, u_std, lane_std, basis_u, Bu, T_flat,
                np.concatenate(lane_idx_parts), slices, log_jfact,
                wlo=np.maximum(lo, 1), whi=np.minimum(hi, cfg.L),
                peaks=slice(P, P + start), cols=slice(N, N + len(lanes)),
            ))
            P, N = P + start, N + len(lanes)
        self.n_peaks_total = P
        self.n_free_rows = cfg.T_nu - 2
        self.lane_key_list = [
            (g.gel_id, lane) for g in self.gels for lane in g.lanes
        ]
        self._init_lane_grid()

    def _init_lane_grid(self) -> None:
        """Padded (Jmax, N) grid and landmark bands for the blocked Z draw,
        and the flattened per-peak arrays for the violation counter.

        Lanes are columns in lane_key_list order, and each lane's peaks are
        left-aligned in its column; _slot maps the state's peak axis onto
        the flattened grid, and _lane_of gives each peak's lane column.
        Slot (j, n) covers a band of Wb landmarks, Wb the widest window,
        after band0: the landmark just below the window, clamped to L - Wb
        so the band ends by landmark L.  Band column 0 is a -inf sentinel
        and column c holds landmark band0 + c.
        The additive log mask is 0 inside the window and -inf elsewhere, on
        the sentinel, on every padded slot, and below landmark j+1 for the
        (j+1)-th peak, which leaves landmark 1 no predecessor.

        _shift[j - 1] maps every column of slot j onto the flat (N, Wb + 1)
        index of slot j-1's column for the landmark just below: the
        sentinel when that lies left of j-1's band, the last column (whose
        prefix sum holds through landmark L) when it lies right of it.  On a
        padded slot every entry is the last column.  The forward pass adds
        the prefix sums it picks out, and the backward pass reads peak j-1's
        bound from it at peak j's drawn column.  No array spans all L
        landmarks per slot."""
        L = self.cfg.L
        J = np.array([end - start for g in self.gels for start, end in g.lane_slices])
        N, Jmax = J.size, int(J.max())
        # the peaks of all gels end to end, lane after lane
        lane_of = np.repeat(np.arange(N), J)
        j = np.arange(lane_of.size) - (np.cumsum(J) - J)[lane_of]
        self._slot = j * N + lane_of
        self._lane_of = lane_of
        self._wlo_all = np.concatenate([g.wlo for g in self.gels])
        self._whi_all = np.concatenate([g.whi for g in self.gels])
        T_pad = np.zeros((Jmax, N))
        lo_pad = np.full((Jmax, N), L + 1)
        hi_pad = np.zeros((Jmax, N), dtype=np.intp)
        T_pad.flat[self._slot] = np.concatenate([g.T_flat for g in self.gels])
        lo_pad.flat[self._slot] = np.maximum(self._wlo_all, j + 1)
        hi_pad.flat[self._slot] = self._whi_all
        Wb = max(int((hi_pad - lo_pad).max()) + 1, 1)
        band0 = np.minimum(lo_pad - 1, L - Wb)
        ell = band0[:, :, None] + np.arange(Wb + 1)  # landmark of each column
        inside = (ell >= lo_pad[:, :, None]) & (ell <= hi_pad[:, :, None])
        below = np.clip(ell[1:] - 1 - band0[:-1, :, None], 0, Wb)
        below[np.arange(1, Jmax)[:, None] >= J] = Wb
        self._T_pad = T_pad[:, :, None]
        self._w_flat = ell * N + np.arange(N)[:, None]  # into the (L + 2, N) warped landmarks
        self._lam_idx = np.maximum(ell - 1, 0)  # a sentinel at landmark 0 is masked
        self._window_mask = np.where(inside, 0.0, -np.inf)
        self._band0 = band0
        self._band_rows = np.arange(N) * (Wb + 1)
        self._shift = self._band_rows[:, None] + below
        self._top = self._band_rows + Wb
        self._last_prefix = (J - 1) * N * (Wb + 1) + self._top
        # violation counter
        self._pair_lane = lane_of[1:]
        self._same_lane = lane_of[1:] == lane_of[:-1]
        self._gel_of = np.repeat(np.arange(len(self.gels)), [g.n_peaks for g in self.gels])

    # -- state construction -------------------------------------------------

    def init_chain_state(self) -> _ChainState:
        """Identity warps, greedy nearest admissible Z, flat lambda."""
        cfg = self.cfg
        G = len(self.gels)
        lam = np.full(cfg.L, 1.0 / cfg.L)
        Z = np.zeros(self.n_peaks_total, dtype=np.intp)
        for gel in self.gels:
            Zg = Z[gel.peaks]
            for start, end in gel.lane_slices:
                prev = 0
                J = end - start
                for j in range(J):
                    p = start + j
                    lo = max(int(gel.wlo[p]), prev + 1)
                    # leave admissible indices for the remaining peaks
                    hi = min(int(gel.whi[p]), cfg.L - (J - 1 - j))
                    if lo > hi:
                        lane = gel.lanes[gel.lane_idx[p]]
                        raise ValueError(
                            f"infeasible window: gel {gel.gel_id} lane {lane} "
                            f"peak {j + 1} has no admissible landmark; "
                            f"increase A_0 (= {cfg.a0_value})"
                        )
                    nearest = int(
                        np.argmin(np.abs(self.nu_std[lo : hi + 1] - gel.T_flat[p]))
                    )
                    Zg[p] = lo + nearest
                    prev = Zg[p]
        cs = _ChainState(
            lam=lam, lam_sum=float(lam.sum()), tau=1.0, sigma_eps2=0.01**2,
            beta=np.tile(self.beta_id[:, None], (G, 1, cfg.T_u)), Z=Z,
            sigma_g1_2=np.full(G, 0.01**2),
            sigma_gs_2=np.full((G, self.n_free_rows), 0.01**2),
            W=np.empty((cfg.L + 2, len(self.lane_key_list))),
            mu=np.empty(self.n_peaks_total),
        )
        for gi in range(G):
            self._refresh_gel(cs, gi)
        return cs

    def _refresh_gel(self, cs: _ChainState, gi: int) -> None:
        """Gel gi's warped landmarks W and peak means mu from its beta and Z."""
        gel = self.gels[gi]
        W = cs.W[:, gel.cols]
        W[:] = self.Bnu_land @ cs.beta[gi] @ gel.Bu.T
        cs.mu[gel.peaks] = W[cs.Z[gel.peaks], gel.lane_idx]

    # -- Gibbs sweeps --------------------------------------------------------

    def sweep_Z(self, cs: _ChainState, rng) -> None:
        """Blocked draw of every lane's assignment vector from its full
        conditional, by forward filtering, backward sampling (FFBS).

        Given the warps, lambda and sigma, one lane's assignments form an
        ordered chain Z_1 < ... < Z_J, each inside its window, with weights
        w_j(l) = lambda_l N(T_j; W[l], sigma^2).  The forward pass keeps
        A_j(l) = log sum_{m <= l} alpha_j(m) with alpha_1 = w_1 and
        alpha_j(l) = w_j(l) sum_{m < l} alpha_{j-1}(m), all in the log
        domain; the backward pass draws Z_J from alpha_J and then each Z_j
        from alpha_j restricted to landmarks below Z_{j+1}, by inverting
        the log prefix sums.  Lanes are conditionally independent, so all
        lanes of all gels go through one numpy pass over the padded grid.
        The order and window constraints hold by construction.

        Each slot works on its band of Wb landmarks (see _init_lane_grid),
        so a pass costs O(Jmax N Wb), not O(Jmax N L).  A_j is -inf below
        the window and constant above it, and logaddexp(-inf, x) and
        logaddexp(x, -inf) are exactly x, so the band's prefix sums and
        draws equal those over all L landmarks bit for bit.
        """
        # log weights over each slot's band, then the forward prefix sums
        # in place
        A = self._T_pad - cs.W.take(self._w_flat)
        A *= A
        A *= -0.5 / cs.sigma_eps2
        A += np.log(cs.lam).take(self._lam_idx)
        A += self._window_mask
        np.logaddexp.accumulate(A[0], axis=1, out=A[0])
        for j in range(1, A.shape[0]):
            A[j] += A[j - 1].take(self._shift[j - 1])
            np.logaddexp.accumulate(A[j], axis=1, out=A[j])
        last = A.take(self._last_prefix)
        if last.min() == -np.inf:
            gel_id, lane = self.lane_key_list[int(np.argmin(last))]
            raise ValueError(
                f"infeasible window: gel {gel_id} lane {lane} has no ordered "
                f"in-window assignment; increase A_0"
            )
        # backward: each peak takes the first column whose prefix sum
        # reaches log(u) + (the sum up to its bound), with u uniform on
        # (0, 1].  top is the bound's flat index in A[j], first the last
        # column (landmark L).  A padded slot's row is all -inf, so it draws
        # the sentinel, and its shift row leaves the bound at the last
        # column for the lane's last real peak.
        log_u = np.log1p(-rng.random(A.shape[:2]))
        Z = np.empty(A.shape[:2], dtype=np.intp)
        top = self._top
        for j in range(A.shape[0] - 1, -1, -1):
            Aj = A[j]
            v = Aj.take(top) + log_u[j]
            Z[j] = (Aj >= v[:, None]).argmax(axis=1)
            if j:
                top = self._shift[j - 1].take(self._band_rows + Z[j])
        Z += self._band0
        cs.Z = Z.take(self._slot)
        cs.mu = cs.W[cs.Z, self._lane_of]

    def sweep_beta(self, cs: _ChainState, rng) -> None:
        """Coordinate-wise truncated-normal full conditionals for the free
        coefficients, in Gram form (Geweke 1991); boundary rows stay pinned.

        A gel's peak means are linear in its free coefficients: coefficient
        k = (s, t) enters through the design column x_k = B_nu[Z, s] *
        B_u[lane, t].  Its likelihood term needs only G = X'X and the
        residual correlations c = X'(T - mu): precision G_kk / sigma^2 and
        numerator c_k / sigma^2 plus that precision times the current
        value.  A move by delta shifts the residual by -x_k delta, so
        c -= G_k delta keeps c current without touching the peaks.  G, c,
        beta and one block of uniforms are built once per gel per sweep,
        and the scan (s = 1..T_nu-2, then t = 0..T_u-1) runs on Python
        floats.  The random-walk priors add their neighbour terms to each
        coefficient's precision and numerator."""
        cfg = self.cfg
        T_nu, T_u = cfg.T_nu, cfg.T_u
        K = self.n_free_rows * T_u
        se2 = float(cs.sigma_eps2)
        g_inc = self.id_incr.tolist()
        for gi, gel in enumerate(self.gels):
            X = (
                self.Bnu_land[cs.Z[gel.peaks], 1 : T_nu - 1][:, :, None] * gel.BuP[:, None, :]
            ).reshape(gel.n_peaks, K)
            G = (X.T @ X).tolist()
            c = (X.T @ (gel.T_flat - cs.mu[gel.peaks])).tolist()
            beta = cs.beta[gi].tolist()
            us = rng.random(K).tolist()
            v1 = float(cs.sigma_g1_2[gi])
            vgs = cs.sigma_gs_2[gi].tolist()
            k = 0
            for s in range(1, T_nu - 1):
                row, below, above = beta[s], beta[s - 1], beta[s + 1]
                vs = vgs[s - 1]
                for t in range(T_u):
                    Gk = G[k]
                    prec = Gk[k] / se2
                    num = c[k] / se2 + prec * row[t]
                    # vertical random walk couples column neighbors
                    if t > 0:
                        prec += 1.0 / vs
                        num += row[t - 1] / vs
                    if t < T_u - 1:
                        prec += 1.0 / vs
                        num += row[t + 1] / vs
                    # horizontal random walk acts on the first column only
                    if t == 0:
                        prec += 1.0 / v1
                        num += (below[0] + g_inc[s - 1]) / v1
                        if s <= T_nu - 3:
                            prec += 1.0 / v1
                            num += (above[0] - g_inc[s]) / v1
                    mean = num / prec
                    sd = 1.0 / math.sqrt(prec)
                    new = _trunc_normal(mean, sd, below[t], above[t], us[k], rng)
                    delta = new - row[t]
                    if delta != 0.0:
                        row[t] = new
                        c = [ci - gki * delta for ci, gki in zip(c, Gk)]
                    k += 1
            cs.beta[gi] = beta
            self._refresh_gel(cs, gi)

    def sweep_hyper(self, cs: _ChainState, rng, fix_lambda: bool = False) -> float:
        """Conjugate variance updates plus Metropolis on log lambda.

        Returns the lambda acceptance fraction for this sweep (0 when
        lambda is held fixed, as in new-gel alignment)."""
        cfg = self.cfg
        L = cfg.L
        if not fix_lambda:
            cs.tau = _draw_invgamma(
                TAU_SHAPE + 0.5 * L,
                TAU_RATE + 0.5 * float(cs.lam @ cs.lam),
                rng,
            )
        ss = 0.0
        for gel in self.gels:
            r = gel.T_flat - cs.mu[gel.peaks]
            ss += float(r @ r)
        cs.sigma_eps2 = _draw_invgamma(
            SIGMA_SHAPE + 0.5 * self.n_peaks_total,
            SIGMA_RATE + 0.5 * ss,
            rng,
        )
        for gi in range(len(self.gels)):
            dd, ssq = self._rw_sums(cs.beta[gi])
            cs.sigma_g1_2[gi] = _draw_invgamma(
                SIGMA_SHAPE + 0.5 * (cfg.T_nu - 2),
                SIGMA_RATE + 0.5 * dd,
                rng,
            )
            # one gamma draw per free row, from the same stream as row-by-row calls
            cs.sigma_gs_2[gi] = (SIGMA_RATE + 0.5 * ssq) / rng.gamma(
                SIGMA_SHAPE + 0.5 * (cfg.T_u - 1), size=self.n_free_rows
            )
        if fix_lambda:
            return 0.0

        # lambda: random-walk Metropolis on the log scale, coordinate by
        # coordinate; the log-normal Jacobian adds (x' - x)
        counts = np.bincount(cs.Z - 1, minlength=L)
        # Each proposal moves one coordinate, so every term but the sum's
        # is fixed up front; only lam_sum carries from one step to the next.
        P_tot = self.n_peaks_total
        lam = cs.lam
        x = np.log(lam)
        xp = x + rng.standard_normal(L) * LAMBDA_STEP
        lp = np.exp(xp)
        jacobian = ((counts + 1.0) * (xp - x)).tolist()
        prior = ((lp * lp - lam * lam) * (0.5 / cs.tau)).tolist()
        uls = rng.random(L).tolist()
        lam_sum = cs.lam_sum
        log_sum = log(lam_sum)
        accept = [False] * L
        for ell, (cur, prop) in enumerate(zip(lam.tolist(), lp.tolist())):
            new_sum = lam_sum - cur + prop
            log_new = log(new_sum)
            logr = jacobian[ell] - P_tot * (log_new - log_sum) - prior[ell]
            if logr >= 0.0 or uls[ell] < math.exp(logr):
                accept[ell] = True
                lam_sum, log_sum = new_sum, log_new
        lam[accept] = lp[accept]
        cs.lam_sum = lam_sum
        accepted = sum(accept)

        # joint rescaling of (lambda, tau): the normalized weights are
        # scale-free, so the common scale mixes only through this move;
        # acceptance ratio reduces to the tau prior plus the Jacobian
        logc = rng.standard_normal() * LAMBDA_STEP
        c2 = math.exp(2.0 * logc)
        logr = -2.0 * TAU_SHAPE * logc - (TAU_RATE / cs.tau) * (1.0 / c2 - 1.0)
        if logr >= 0.0 or rng.random() < math.exp(logr):
            scale = math.exp(logc)
            cs.lam = cs.lam * scale
            cs.lam_sum = float(cs.lam.sum())
            cs.tau = cs.tau * c2
        return accepted / L

    def sweep(self, cs: _ChainState, rng, fix_lambda: bool = False) -> float:
        self.sweep_Z(cs, rng)
        self.sweep_beta(cs, rng)
        return self.sweep_hyper(cs, rng, fix_lambda=fix_lambda)

    # -- constraint checks and log joint -------------------------------------

    def count_violations(self, cs: _ChainState) -> int:
        """Number of broken constraints in the current state: one per gel
        with a non-monotone column, one per gel with an unpinned boundary
        row, one per lane whose assignments are not strictly increasing,
        one per gel with an assignment outside its window, and one for a
        non-positive lambda."""
        lo, hi = self.bounds
        beta, Z = cs.beta, cs.Z
        bad = int(np.count_nonzero(~np.all(np.diff(beta, axis=1) > 0, axis=(1, 2))))
        unpinned = (np.abs(beta[:, 0, :] - lo) > 1e-9) | (np.abs(beta[:, -1, :] - hi) > 1e-9)
        bad += int(np.count_nonzero(unpinned.any(axis=1)))
        broken = (np.diff(Z) <= 0) & self._same_lane
        if broken.any():
            bad += np.unique(self._pair_lane[broken]).size
        outside = (Z < self._wlo_all) | (Z > self._whi_all)
        if outside.any():
            bad += np.unique(self._gel_of[outside]).size
        if np.any(cs.lam <= 0):
            bad += 1
        return bad

    def _rw_sums(self, beta: np.ndarray) -> tuple[float, np.ndarray]:
        """A gel's random-walk prior sums: d.d for the first column's
        increments about the identity's, and each free row's sum of squared
        increments across lanes."""
        d = np.diff(beta[: self.cfg.T_nu - 1, 0]) - self.id_incr
        inc = np.diff(beta[1 : self.cfg.T_nu - 1, :], axis=1)
        return float(d @ d), np.sum(inc * inc, axis=1)

    def log_joint_components(self, cs: _ChainState) -> dict:
        cfg = self.cfg
        if self.count_violations(cs) > 0:
            return {
                "likelihood": -np.inf, "z_prior": -np.inf,
                "beta_prior": -np.inf, "hyper": -np.inf, "total": -np.inf,
            }
        se2 = cs.sigma_eps2
        lik = 0.0
        z_prior = 0.0
        beta_prior = 0.0
        hyper = _log_invgamma(cs.tau, TAU_SHAPE, TAU_RATE)
        hyper += _log_invgamma(se2, SIGMA_SHAPE, SIGMA_RATE)
        # half-normal over lambda
        hyper += float(
            np.sum(0.5 * math.log(2.0 / math.pi) - 0.5 * math.log(cs.tau)
                   - cs.lam**2 / (2.0 * cs.tau))
        )
        log_lam_sum = log(cs.lam_sum)
        for gi, gel in enumerate(self.gels):
            r = gel.T_flat - cs.mu[gel.peaks]
            lik += -0.5 * float(r @ r) / se2 - 0.5 * gel.n_peaks * (
                LOG_2PI + log(se2)
            )
            z_prior += gel.log_jfact
            z_prior += float(np.sum(np.log(cs.lam[cs.Z[gel.peaks] - 1])))
            z_prior -= gel.n_peaks * log_lam_sum

            v1 = float(cs.sigma_g1_2[gi])
            vgs = cs.sigma_gs_2[gi]
            dd, ssq = self._rw_sums(cs.beta[gi])
            beta_prior += -0.5 * dd / v1 - 0.5 * (cfg.T_nu - 2) * (LOG_2PI + log(v1))
            beta_prior += float(np.sum(-0.5 * ssq / vgs)) - 0.5 * (cfg.T_u - 1) * float(
                np.sum(LOG_2PI + np.log(vgs))
            )

            hyper += _log_invgamma(v1, SIGMA_SHAPE, SIGMA_RATE)
            for v in vgs:
                hyper += _log_invgamma(float(v), SIGMA_SHAPE, SIGMA_RATE)
        total = lik + z_prior + beta_prior + hyper
        return {
            "likelihood": lik, "z_prior": z_prior,
            "beta_prior": beta_prior, "hyper": hyper, "total": total,
        }

    def log_joint(self, cs: _ChainState) -> float:
        return self.log_joint_components(cs)["total"]


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------


def stationarity_check(trace: np.ndarray) -> tuple[bool, dict]:
    """Means of the last two quarters within two pooled standard errors."""
    trace = np.asarray(trace, dtype=float)
    n = trace.size
    if n < 8:
        return True, {"note": "trace too short to test", "n": int(n)}
    q = n // 4
    a = trace[2 * q : 3 * q]
    b = trace[3 * q :]
    ma, mb = float(a.mean()), float(b.mean())
    se = math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
    ok = abs(ma - mb) <= 2.0 * se if se > 0 else True
    return ok, {"mean_q3": ma, "mean_q4": mb, "pooled_se": se}


@dataclass
class MCMCResult:
    """Thinned chain plus posterior summaries and serialization context.

    The saved assignments are one (K, P) array over every peak in lane_keys
    order; z_draws[key] is the lane's column view of it.  One count table
    over (peak, landmark) gives z_marginals (counts / K), z_map (their
    argmax) and landmark_probs (the lane's rows summed, / K)."""

    cfg: ModelConfig
    lane_keys: list
    peak_locations: dict
    peak_bins: dict
    log_joint_trace: np.ndarray
    beta_mean: dict
    z_map: dict
    z_draws: dict
    z_marginals: dict
    landmark_probs: dict
    presence: np.ndarray
    lambda_draws: np.ndarray
    violations: int
    lambda_accept: float
    stationary: bool
    stationary_detail: dict
    standardizers: dict


def _summarize(model: DewarpModel, peaks: PeakTable, draws: list,
               violations: int, accept: float) -> MCMCResult:
    """Posterior summaries from the saved draws, one (Z, beta, lambda, log
    joint) tuple per kept sweep, with Z over every peak in lane_key_list
    order."""
    cfg = model.cfg
    K = len(draws)
    L2 = cfg.L + 2
    Z, betas, lambda_draws, trace = map(np.array, zip(*draws))
    P = Z.shape[1]
    # one count table over (peak, landmark); a lane's assignments strictly
    # increase, so summing its rows counts each landmark at most once a draw
    counts = np.bincount((Z + np.arange(P) * L2).ravel(), minlength=P * L2).reshape(P, L2)
    marginals = counts / K
    z_map_all = np.argmax(marginals, axis=1)

    lane_keys = list(model.lane_key_list)
    peak_locations = {}
    peak_bins = {}
    z_draws = {}
    z_marginals = {}
    z_map = {}
    landmark_probs = {}
    end = 0
    for key in lane_keys:
        lane_pk = peaks.lane_peaks(*key)
        peak_locations[key] = np.array([p.location for p in lane_pk])
        peak_bins[key] = np.array([p.bin for p in lane_pk], dtype=int)
        start, end = end, end + len(lane_pk)
        z_draws[key] = Z[:, start:end]
        z_marginals[key] = marginals[start:end]
        z_map[key] = z_map_all[start:end]
        landmark_probs[key] = counts[start:end, 1:-1].sum(axis=0) / K

    lam_star = lambda_draws / lambda_draws.sum(axis=1, keepdims=True)
    presence = np.mean(1.0 - np.exp(-lam_star), axis=0)

    beta_mean = {}
    standardizers = {"axis": model.axis.to_dict(), "lane": {}}
    for gi, gel in enumerate(model.gels):
        beta_mean[gel.gel_id] = WarpField(
            beta=betas[:, gi].mean(axis=0), basis_nu=model.basis_nu,
            basis_u=gel.basis_u, bounds=model.bounds,
        )
        standardizers["lane"][gel.gel_id] = {
            "standardizer": gel.lane_std.to_dict(),
            "lanes": list(gel.lanes),
            "u_std": gel.u_std.tolist(),
        }

    ok, detail = stationarity_check(trace)
    return MCMCResult(
        cfg=cfg, lane_keys=lane_keys, peak_locations=peak_locations,
        peak_bins=peak_bins, log_joint_trace=trace,
        beta_mean=beta_mean, z_map=z_map, z_draws=z_draws,
        z_marginals=z_marginals, landmark_probs=landmark_probs,
        presence=presence, lambda_draws=lambda_draws, violations=violations,
        lambda_accept=accept, stationary=ok, stationary_detail=detail,
        standardizers=standardizers,
    )


def _explore_restarts(model: DewarpModel, cfg: ModelConfig) -> tuple:
    """Short annealed chains from independent streams; keeps the state with
    the best settled log joint.

    The residual scale is clamped to a geometric schedule (ANNEAL_HI down to
    ANNEAL_LO landmark spacings) so every restart is forced through a soft
    phase, where warps absorb coarse structure, into a crystallized one.
    Scoring happens only after a stretch of unclamped sweeps: at the clamp
    floor an over-fitted labeling can outscore the right one, whereas once
    the residual scale has re-equilibrated the settled log joint compares
    basins at their own posterior scale.  Only the winner is carried
    forward; samples are drawn later under the unclamped kernel."""
    best = None
    best_score = -np.inf
    viol = 0
    n = cfg.restart_sweeps
    hi = ANNEAL_HI * model.spacing_std
    lo = ANNEAL_LO * model.spacing_std
    release = max(30, n // 4)
    tail_n = min(25, release)
    for i in range(cfg.restarts):
        r = np.random.default_rng((cfg.seed, 911, i))
        cs = model.init_chain_state()
        for it in range(n):
            model.sweep(cs, r)
            clamp = hi * (lo / hi) ** (it / max(n - 1, 1))
            if cs.sigma_eps2 > clamp * clamp:
                cs.sigma_eps2 = clamp * clamp
            viol += model.count_violations(cs)
        tail = []
        for it in range(release):
            model.sweep(cs, r)
            viol += model.count_violations(cs)
            if it >= release - tail_n:
                tail.append(model.log_joint(cs))
        score = float(np.mean(tail))
        if score > best_score:
            best_score = score
            best = cs
    return best, viol


def run_mcmc(peaks: PeakTable, cfg: ModelConfig, check_every: int = 1) -> MCMCResult:
    """Systematic-scan Gibbs chain; deterministic given cfg.seed.

    check_every controls how often constraint violations are counted
    (1 = every sweep)."""
    model = DewarpModel(peaks, cfg)
    for gel in model.gels:
        if gel.n_peaks < cfg.T_nu:
            warnings.warn(
                f"gel {gel.gel_id}: {gel.n_peaks} peaks for {cfg.T_nu} "
                f"warp bases; the warp is weakly identified",
                GelwarpWarning,
                stacklevel=2,
            )
    rng = np.random.default_rng(cfg.seed)
    cs = model.init_chain_state()
    lj0 = model.log_joint(cs)
    if not np.isfinite(lj0):
        comp = model.log_joint_components(cs)
        bad = [k for k, v in comp.items() if k != "total" and not np.isfinite(v)]
        raise ValueError(f"non-finite log joint at initialization: {', '.join(bad)}")

    violations = 0
    if cfg.restarts > 1:
        cs, v0 = _explore_restarts(model, cfg)
        violations += v0
    accept_sum = 0.0
    draws = []
    for it in range(cfg.iterations):
        accept_sum += model.sweep(cs, rng)
        if check_every and it % check_every == 0:
            violations += model.count_violations(cs)
        if it >= cfg.burnin and (it - cfg.burnin) % cfg.thin == 0:
            draws.append((cs.Z.copy(), cs.beta.copy(), cs.lam.copy(), model.log_joint(cs)))
    return _summarize(model, peaks, draws, violations, accept_sum / cfg.iterations)


def align_new_gel(new_peaks: PeakTable, stored_lambda_samples: np.ndarray,
                  cfg: ModelConfig, lambda_budget: int = 20, iterations: int = 400,
                  burnin: int = 150) -> MCMCResult:
    """Posterior for a held-out gel given the training landmark frequencies.

    Averages one-gel conditional chains over up to ``lambda_budget`` evenly
    spaced stored lambda draws; tau and lambda stay fixed within each chain.
    Each chain runs ``iterations`` sweeps and keeps those after the first
    ``burnin``.  ``cfg`` supplies the model (L, bases, window, seed); its
    iteration, burn-in, thinning and restart settings are not used."""
    for name, value in (("lambda_budget", lambda_budget), ("iterations", iterations),
                        ("burnin", burnin)):
        check_int(value, name)
    if lambda_budget < 1:
        raise ValueError(f"lambda_budget >= 1 required, got {lambda_budget}")
    if not 0 <= burnin < iterations:
        raise ValueError(
            f"need 0 <= burnin < iterations, got burnin={burnin}, iterations={iterations}"
        )
    stored = np.atleast_2d(np.asarray(stored_lambda_samples, dtype=float))
    if stored.size == 0:
        raise ValueError("no stored lambda samples")
    if stored.shape[1] != cfg.L:
        raise ValueError(
            f"stored lambda draws have {stored.shape[1]} columns, expected {cfg.L}"
        )
    # a NaN or non-positive entry would run through as a silently broken chain
    bad = ~(np.isfinite(stored) & (stored > 0))
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise ValueError(
            f"stored lambda draw in row {row} has entry {float(stored[row, col])!r} at "
            f"landmark {col + 1}; every entry must be finite and positive"
        )
    n_use = min(lambda_budget, stored.shape[0])
    idx = np.unique(np.linspace(0, stored.shape[0] - 1, n_use).astype(int))

    model = DewarpModel(new_peaks, cfg)
    draws = []
    violations = 0
    for chain_i, k in enumerate(idx):
        rng = np.random.default_rng(cfg.seed + 1000 + chain_i)
        cs = model.init_chain_state()
        cs.lam = stored[k].copy()
        cs.lam_sum = float(cs.lam.sum())
        for it in range(iterations):
            model.sweep(cs, rng, fix_lambda=True)
            violations += model.count_violations(cs)
            if it >= burnin:
                draws.append((cs.Z.copy(), cs.beta.copy(), cs.lam.copy(),
                              model.log_joint(cs)))
    return _summarize(model, new_peaks, draws, violations, 0.0)


# ---------------------------------------------------------------------------
# Artifact serialization
# ---------------------------------------------------------------------------


def write_warp_json(result: MCMCResult, path) -> None:
    write_warp_fields(result.beta_mean, result.standardizers["lane"], path)


def write_zmap(result: MCMCResult, path) -> None:
    """MAP assignments, per-peak marginals, and the stored draws."""
    payload = {
        "L": result.cfg.L,
        "axis_standardizer": result.standardizers["axis"],
        "lanes": {},
    }
    for key in result.lane_keys:
        payload["lanes"][lane_name(key)] = {
            "gel_id": key[0],
            "lane": key[1],
            "bins": result.peak_bins[key].tolist(),
            "locations": result.peak_locations[key].tolist(),
            "z_map": result.z_map[key].tolist(),
            "marginals": result.z_marginals[key].tolist(),
            "draws": result.z_draws[key].tolist(),
        }
    write_json(payload, path)


def read_zmap(path) -> dict:
    """Returns {"L", "z_map": {key: array}, "z_draws": {key: array},
    "locations": {key: array}, "bins": {key: array}}."""
    with open(path) as f:
        payload = json.load(f)
    out = {"L": payload["L"], "z_map": {}, "z_draws": {}, "locations": {}, "bins": {}}
    for s, entry in payload["lanes"].items():
        key = parse_lane_name(s)
        out["z_map"][key] = np.array(entry["z_map"], dtype=int)
        out["z_draws"][key] = np.array(entry["draws"], dtype=int)
        out["locations"][key] = np.array(entry["locations"], dtype=float)
        out["bins"][key] = np.array(entry["bins"], dtype=int)
    return out


def write_landmarks(result: MCMCResult, path) -> None:
    """Per-lane landmark hit probabilities and the frequency summary
    1 - exp(-lambda*)."""
    payload = {
        "L": result.cfg.L,
        "presence": result.presence.tolist(),
        "lanes": {
            lane_name(key): result.landmark_probs[key].tolist()
            for key in result.lane_keys
        },
    }
    write_json(payload, path)


def write_signatures_csv(result: MCMCResult, path) -> None:
    """N x L binary matrix from the MAP assignments, one row per lane."""
    L = result.cfg.L
    z_map = {k: v for k, v in result.z_map.items()}
    keys, Y = signatures(z_map, L)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["lane"] + [f"l{ell}" for ell in range(1, L + 1)])
        for key, row in zip(keys, Y):
            writer.writerow([lane_name(key)] + row.tolist())


def write_chain_log(result: MCMCResult, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        f.write("# saved_state log_joint\n")
        for k, v in enumerate(result.log_joint_trace):
            f.write(f"{k} {float(v)!r}\n")
