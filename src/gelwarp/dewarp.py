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

The sampler state is internal, with no public form: arrays for R chains
swept in lockstep, with a leading chain axis and peaks and lanes in
lane_key_list order, the order the draws are saved in.  lambda is (R, L);
its running sum lam_sum and sigma_eps^2 are (R,); Z and the peak means
mu are (R, P) over the peaks of all gels; the warped landmarks W are
(R, L + 2, N) with a column per lane; beta is (R, G, T_nu, T_u),
sigma_g1^2 is (R, G) and sigma_gs^2 is (R, G, T_nu - 2).  The model
reads the peak table once, into one array per peak input on that same axis
(location, window, lane column, place in its lane); each gel holds only
what is per gel and its slices of the peak axis and of W's columns.  Every
sweep takes one generator per chain, and each chain draws from its own
generator in the same order and sizes as when swept alone, so chain r of a
lockstep run equals that chain run by itself, bit for bit.  Only
elementwise work is shared between chains; each float reduction (the Gram
sums, residual sums and prior sums) is taken per chain and gel.  One loop,
_sample, runs the restart tail, the main chain (R = 1) and align_new_gel's
lockstep chains.

The hyperpriors and sampler tuning are fixed module constants, not
settings: SIGMA_SHAPE and SIGMA_RATE for the inverse-gamma priors on every
variance, LAMBDA_STEP for the log-scale proposal sd of each lambda
coordinate, and ANNEAL_HI and ANNEAL_LO for the restart annealing schedule,
in landmark spacings.  lambda is iid half-normal with unit variance and no
scale hyperparameter: only lambda* = lambda / sum(lambda) enters the
likelihood and the Z prior, and its law does not depend on a common scale.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from itertools import groupby
from math import lgamma, log
from statistics import NormalDist

import numpy as np

from .core import (
    GelwarpWarning,
    LandmarkGrid,
    Standardizer,
    check_int,
    fit_standardizer,
    lane_name,
    open_text,
    parse_lane_name,
    read_json,
    write_csv,
    write_json,
)
from .peakdetect import PeakTable
from .spline import WarpField, identity_coefficients, make_basis, write_warp_fields

LOG_2PI = math.log(2.0 * math.pi)
SQRT_HALF = math.sqrt(0.5)
_STD_NORMAL = NormalDist()

# fixed hyperpriors and sampler tuning, named in the module docstring
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
    """What is per gel: its lanes, their standardizer and basis, the lane
    design Bu and its rows at each of the gel's peaks (BuP), and the Z
    prior's log J! term.  Per-peak inputs live once, on the model's peak
    axis; peaks and cols are the gel's slices of it and of W's lane
    columns."""

    gel_id: str
    lanes: list
    u_std: np.ndarray
    lane_std: Standardizer
    basis_u: object
    Bu: np.ndarray
    BuP: np.ndarray
    log_jfact: float
    peaks: slice
    cols: slice
    n_peaks: int


@dataclass(slots=True, eq=False)
class _ChainState:
    """Mutable sampler state of R chains, in the array layout of the module
    docstring: every field has a leading chain axis.  W (warped landmarks)
    and mu (peak means) follow from beta and Z; lam_sum is lam's running
    sum."""

    lam: np.ndarray
    lam_sum: np.ndarray
    sigma_eps2: np.ndarray
    beta: np.ndarray
    Z: np.ndarray
    sigma_g1_2: np.ndarray
    sigma_gs_2: np.ndarray
    W: np.ndarray
    mu: np.ndarray

    def chain(self, r: int) -> _ChainState:
        """A copy of chain r as a one-chain state."""
        return _ChainState(*(getattr(self, f.name)[r : r + 1].copy() for f in fields(self)))


@dataclass(slots=True, eq=False)
class _LaneGrid:
    """The padded lane grid of the blocked Z draw for R chains, with slot
    (j, r, n) for the (j+1)-th peak of lane n in chain r (see
    DewarpModel._lane_grid); chains holds the chain index as an (R, 1)
    column."""

    T_band: np.ndarray
    w_flat: np.ndarray
    lam_idx: np.ndarray
    band0: np.ndarray
    band_rows: np.ndarray
    shift: np.ndarray
    top: np.ndarray
    slot: np.ndarray
    band_slot: np.ndarray
    chains: np.ndarray
    count_base: np.ndarray


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

        # every peak once, lane after lane in lane_key_list order (gels
        # sorted, then lanes, then peaks): its raw location and bin, its
        # standardized location T, and its window.  Arrays that meet the
        # state's (R, P) arrays are (1, P) rows, which numpy broadcasts over
        # the chains faster than (P,) vectors.
        self.lane_key_list = sorted(peaks.lane_keys())
        lane_peaks = [peaks.lane_peaks(*key) for key in self.lane_key_list]
        flat = [p for lane_pk in lane_peaks for p in lane_pk]
        self._loc = np.array([p.location for p in flat])
        self._bin = np.array([p.bin for p in flat], dtype=int)
        T = self.axis.apply(self._loc)
        # admissible landmark range from the window |T - nu| < A_0
        lo = np.searchsorted(self.nu_std, T - self.a0_std, side="right")
        hi = np.searchsorted(self.nu_std, T + self.a0_std, side="left") - 1
        self._T_all = T[None]
        self._wlo_all = np.maximum(lo, 1)[None]
        self._whi_all = np.minimum(hi, cfg.L)[None]
        # each peak's lane column and place in its lane
        J = np.array([len(lane_pk) for lane_pk in lane_peaks])
        self._lane_J = J
        self._lane_of = np.repeat(np.arange(J.size), J)
        self._peak_row = np.arange(T.size) - (np.cumsum(J) - J)[self._lane_of]

        self.basis_nu = make_basis(T, cfg.T_nu, domain=self.bounds)
        self.beta_id = identity_coefficients(self.basis_nu)
        self.beta_id[0] = self.bounds[0]
        self.beta_id[-1] = self.bounds[1]
        self.id_incr = np.diff(self.beta_id[: cfg.T_nu - 1])
        self.Bnu_land = self.basis_nu.design_matrix(self.nu_std)

        self.gels: list[_GelData] = []
        P = N = 0
        for gel_id, keys in groupby(self.lane_key_list, key=lambda key: key[0]):
            lanes = [lane for _, lane in keys]
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
            n, log_jfact = 0, 0.0
            for j in J[N : N + len(lanes)].tolist():
                n += j
                log_jfact += lgamma(j + 1.0)
            self.gels.append(_GelData(
                gel_id, lanes, u_std, lane_std, basis_u, Bu,
                BuP=Bu[self._lane_of[P : P + n] - N], log_jfact=log_jfact,
                peaks=slice(P, P + n), cols=slice(N, N + len(lanes)), n_peaks=n,
            ))
            P, N = P + n, N + len(lanes)
        self.n_peaks_total = P
        self.n_free_rows = cfg.T_nu - 2
        self._grids: dict[int, _LaneGrid] = {}
        # violation counter
        self._pair_lane = self._lane_of[1:]
        self._same_lane = (self._lane_of[1:] == self._lane_of[:-1])[None]
        self._gel_of = np.repeat(np.arange(len(self.gels)), [g.n_peaks for g in self.gels])

    def _lane_grid(self, R: int) -> _LaneGrid:
        """Padded grid and landmark bands of the blocked Z draw for R
        chains, built on first use.

        Slot (j, r, n) holds the (j+1)-th peak of lane n in chain r: each
        lane's peaks are left-aligned in its column, and slot maps the
        state's (chain, peak) axes onto the flattened grid.  Slot (j, n)
        covers a band of Wb landmarks, Wb the widest window, after band0:
        the landmark just below the window, clamped to L - Wb so the band
        ends by landmark L.  Band column 0 is a -inf sentinel and column c
        holds landmark band0 + c.  T_band holds the slot's peak location on
        the columns inside its window and +inf elsewhere: on the sentinel,
        on every padded slot, and below landmark j+1 for the (j+1)-th peak,
        which leaves landmark 1 no predecessor.  An inf location gives a
        log weight of -inf.

        shift[j - 1] maps every column of slot j onto the flat (R, N,
        Wb + 1) index of slot j-1's column for the landmark just below: the
        sentinel when that lies left of j-1's band, the last column (whose
        prefix sum holds through landmark L) when it lies right of it.  On a
        padded slot every entry is the last column.  The forward pass adds
        the prefix sums it picks out, and the backward pass reads peak j-1's
        bound from it at peak j's drawn column.  No array spans all L
        landmarks per slot.  The flat indices into W and lambda point at
        each chain's block of the state arrays."""
        grid = self._grids.get(R)
        if grid is not None:
            return grid
        L = self.cfg.L
        J, lane_of, j = self._lane_J, self._lane_of, self._peak_row
        N, Jmax = J.size, int(J.max())
        one_chain = j * N + lane_of
        T_pad = np.zeros((Jmax, N))
        lo_pad = np.full((Jmax, N), L + 1)
        hi_pad = np.zeros((Jmax, N), dtype=np.intp)
        T_pad.flat[one_chain] = self._T_all[0]
        lo_pad.flat[one_chain] = np.maximum(self._wlo_all[0], j + 1)
        hi_pad.flat[one_chain] = self._whi_all[0]
        Wb = max(int((hi_pad - lo_pad).max()) + 1, 1)
        band0 = np.minimum(lo_pad - 1, L - Wb)
        ell = band0[:, :, None] + np.arange(Wb + 1)  # landmark of each column
        inside = (ell >= lo_pad[:, :, None]) & (ell <= hi_pad[:, :, None])
        below = np.clip(ell[1:] - 1 - band0[:-1, :, None], 0, Wb)
        below[np.arange(1, Jmax)[:, None] >= J] = Wb

        def chain_axis(a):
            """A (Jmax, N, ...) array as (Jmax, R, N, ...)."""
            return np.broadcast_to(a[:, None], a.shape[:1] + (R,) + a.shape[1:]).copy()

        chains = np.arange(R)[:, None]
        band_rows = np.arange(R * N).reshape(R, N) * (Wb + 1)
        slot = j * (R * N) + chains * N + lane_of
        grid = self._grids[R] = _LaneGrid(
            T_band=chain_axis(np.where(inside, T_pad[:, :, None], np.inf)),
            # into the (R, L + 2, N) warped landmarks and the (R, L) lambda
            w_flat=chain_axis(ell * N + np.arange(N)[:, None]) + chains[..., None] * ((L + 2) * N),
            lam_idx=chain_axis(np.maximum(ell - 1, 0)) + chains[..., None] * L,  # a sentinel at landmark 0 is masked
            band0=chain_axis(band0).take(slot),
            band_rows=band_rows,
            shift=band_rows[..., None] + chain_axis(below),
            top=band_rows + Wb,
            slot=slot,
            band_slot=slot * (Wb + 1),  # a peak's band in the flat A
            chains=chains,
            count_base=chains * L - 1,
        )
        return grid

    # -- state construction -------------------------------------------------

    def init_chain_state(self, chains: int = 1) -> _ChainState:
        """Identity warps, greedy nearest admissible Z, and every lambda at
        the half-normal mean sqrt(2/pi), so lambda* is flat at 1/L; the same
        for each of the chains."""
        cfg = self.cfg
        G = len(self.gels)
        R = chains
        lam = np.full(cfg.L, math.sqrt(2.0 / math.pi))
        Z = np.empty(self.n_peaks_total, dtype=np.intp)
        T = self._T_all[0]
        later = self._lane_J[self._lane_of] - 1 - self._peak_row  # the lane's peaks after it
        z = 0
        for p, (j, lo, hi, rest) in enumerate(zip(
                self._peak_row.tolist(), self._wlo_all[0].tolist(), self._whi_all[0].tolist(),
                later.tolist())):
            # above the lane's previous peak, leaving room for its later ones
            lo, hi = max(lo, z + 1 if j else 1), min(hi, cfg.L - rest)
            if lo > hi:
                gel_id, lane = self.lane_key_list[self._lane_of[p]]
                raise ValueError(
                    f"infeasible window: gel {gel_id} lane {lane} "
                    f"peak {j + 1} has no admissible landmark; "
                    f"increase A_0 (= {cfg.a0_value})"
                )
            z = Z[p] = lo + int(np.argmin(np.abs(self.nu_std[lo : hi + 1] - T[p])))
        cs = _ChainState(
            lam=np.tile(lam, (R, 1)), lam_sum=np.full(R, float(lam.sum())),
            sigma_eps2=np.full(R, 0.01**2),
            beta=np.tile(self.beta_id[:, None], (R, G, 1, cfg.T_u)), Z=np.tile(Z, (R, 1)),
            sigma_g1_2=np.full((R, G), 0.01**2),
            sigma_gs_2=np.full((R, G, self.n_free_rows), 0.01**2),
            W=np.empty((R, cfg.L + 2, len(self.lane_key_list))),
            mu=np.empty((R, self.n_peaks_total)),
        )
        self._refresh(cs)
        return cs

    def _warp_gel(self, cs: _ChainState, gi: int) -> None:
        """Gel gi's block of the warped landmarks W from its beta, chain by
        chain."""
        gel = self.gels[gi]
        for W, beta in zip(cs.W, cs.beta[:, gi]):
            W[:, gel.cols] = self.Bnu_land @ beta @ gel.Bu.T

    def _gather_mu(self, cs: _ChainState) -> None:
        """The peak means mu: W at each peak's (chain, Z, lane)."""
        cs.mu = cs.W[self._lane_grid(len(cs.Z)).chains, cs.Z, self._lane_of]

    def _refresh(self, cs: _ChainState) -> None:
        """W and mu from beta and Z, after the state is built or edited."""
        for gi in range(len(self.gels)):
            self._warp_gel(cs, gi)
        self._gather_mu(cs)

    # -- Gibbs sweeps --------------------------------------------------------

    @staticmethod
    def _chain_count(cs: _ChainState, rngs) -> int:
        """The state's number of chains, which must be the number of
        generators."""
        R = len(cs.lam)
        if len(rngs) != R:
            raise ValueError(f"{len(rngs)} generators for a state of {R} chains")
        return R

    def sweep_Z(self, cs: _ChainState, rngs) -> None:
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
        lanes of all gels of all chains go through one numpy pass over the
        padded (Jmax, R, N) grid, each chain's uniforms from its own
        generator.  The order and window constraints hold by construction.

        Each slot works on its band of Wb landmarks (see _lane_grid),
        so a pass costs O(Jmax R N Wb), not O(Jmax R N L).  A_j is -inf
        below the window and constant above it, and logaddexp(-inf, x) and
        logaddexp(x, -inf) are exactly x, so the band's prefix sums and
        draws equal those over all L landmarks bit for bit.
        """
        R = self._chain_count(cs, rngs)
        g = self._lane_grid(R)
        # log weights over each slot's band, then the forward prefix sums
        # in place; A is (Jmax, R, N, Wb + 1)
        W_band = cs.W.take(g.w_flat)
        A = g.T_band - W_band
        A *= A
        for r, se2 in enumerate(cs.sigma_eps2.tolist()):
            A[:, r] *= -0.5 / se2
        A += np.log(cs.lam).take(g.lam_idx)
        np.logaddexp.accumulate(A[0], axis=-1, out=A[0])
        for j in range(1, len(A)):
            A[j] += A[j - 1].take(g.shift[j - 1])
            np.logaddexp.accumulate(A[j], axis=-1, out=A[j])
        # backward: each peak takes the first column whose prefix sum
        # reaches log(u) + (the sum up to its bound), with u uniform on
        # (0, 1] and (Jmax, N) of them from each chain's generator.  top is
        # the bound's flat index in A[j], first the last column (landmark
        # L).  A padded slot's row is all -inf, so it draws the sentinel, and
        # its shift row leaves the bound at the last column for the lane's
        # last real peak.
        log_u = np.empty((R, len(A), A.shape[2]))
        for r, rng in enumerate(rngs):
            rng.random(out=log_u[r])
        np.negative(log_u, out=log_u)
        np.log1p(log_u, out=log_u)
        Z = np.empty(A.shape[:3], dtype=np.intp)
        top = g.top
        for j in range(len(A) - 1, -1, -1):
            Aj = A[j]
            v = Aj.take(top) + log_u[:, j]
            Z[j] = (Aj >= v[..., None]).argmax(axis=-1)
            if j:
                top = g.shift[j - 1].take(g.band_rows + Z[j])
        # each peak's drawn band column.  A real peak draws the sentinel only
        # when its bound's prefix sum is -inf, which happens exactly when its
        # lane has no ordered in-window assignment.
        Z = Z.take(g.slot)
        if Z.min() == 0:
            gel_id, lane = self.lane_key_list[self._lane_of[int(np.argmin(Z)) % Z.shape[1]]]
            raise ValueError(
                f"infeasible window: gel {gel_id} lane {lane} has no ordered "
                f"in-window assignment; increase A_0"
            )
        cs.Z = Z + g.band0
        cs.mu = W_band.take(Z + g.band_slot)

    def sweep_beta(self, cs: _ChainState, rngs) -> None:
        """Coordinate-wise truncated-normal full conditionals for the free
        coefficients, in Gram form (Geweke 1991); boundary rows stay pinned.

        A gel's peak means are linear in its free coefficients: coefficient
        k = (s, t) enters through the design column x_k = B_nu[Z, s] *
        B_u[lane, t].  Its likelihood term needs only G = X'X and the
        residual correlations c = X'(T - mu): precision G_kk / sigma^2 and
        numerator c_k / sigma^2 plus that precision times the current
        value.  A move by delta shifts the residual by -x_k delta, so c_k
        at visit k is its start value minus G_mk delta_m over the earlier
        moves m, in scan order; only the coefficients not yet visited are
        read, so nothing else is updated.  G, c, beta and one block of
        uniforms are built once per chain and gel per sweep, and the scan
        (s = 1..T_nu-2, then t = 0..T_u-1) runs on Python floats, one chain
        at a time.  The random-walk priors add their neighbour terms to each
        coefficient's precision and numerator."""
        R = self._chain_count(cs, rngs)
        cfg = self.cfg
        T_nu, T_u = cfg.T_nu, cfg.T_u
        K = self.n_free_rows * T_u
        g_inc = self.id_incr.tolist()
        se2s = cs.sigma_eps2.tolist()
        # mu is gathered again only after the last gel
        resid = self._T_all - cs.mu
        for gi, gel in enumerate(self.gels):
            X = (
                self.Bnu_land[cs.Z[:, gel.peaks], 1 : T_nu - 1][..., None] * gel.BuP[:, None, :]
            ).reshape(R, gel.n_peaks, K)
            for r, rng in enumerate(rngs):
                Xr = X[r]
                G = (Xr.T @ Xr).tolist()
                c = (Xr.T @ resid[r, gel.peaks]).tolist()
                beta = cs.beta[r, gi].tolist()
                us = rng.random(K).tolist()
                se2 = se2s[r]
                v1 = float(cs.sigma_g1_2[r, gi])
                vgs = cs.sigma_gs_2[r, gi].tolist()
                moves = []  # (G row, delta) of each coefficient moved so far
                k = 0
                for s in range(1, T_nu - 1):
                    row, below, above = beta[s], beta[s - 1], beta[s + 1]
                    vs = vgs[s - 1]
                    for t in range(T_u):
                        ck = c[k]
                        for Gm, dm in moves:
                            ck -= Gm[k] * dm
                        prec = G[k][k] / se2
                        num = ck / se2 + prec * row[t]
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
                            moves.append((G[k], delta))
                        k += 1
                cs.beta[r, gi] = beta
            self._warp_gel(cs, gi)
        self._gather_mu(cs)

    def sweep_hyper(self, cs: _ChainState, rngs, fix_lambda: bool = False) -> float:
        """Conjugate variance updates plus Metropolis on log lambda.

        Returns the fraction of lambda proposals accepted in this sweep,
        over all chains (0 when lambda is held fixed, as in new-gel
        alignment)."""
        R = self._chain_count(cs, rngs)
        cfg = self.cfg
        L = cfg.L
        resid = self._T_all - cs.mu
        dd, ssq = self._rw_sums(cs.beta)
        for r, rng in enumerate(rngs):
            ss = 0.0
            for gel in self.gels:
                rg = resid[r, gel.peaks]
                ss += float(rg @ rg)
            cs.sigma_eps2[r] = _draw_invgamma(
                SIGMA_SHAPE + 0.5 * self.n_peaks_total,
                SIGMA_RATE + 0.5 * ss,
                rng,
            )
            for gi in range(len(self.gels)):
                cs.sigma_g1_2[r, gi] = _draw_invgamma(
                    SIGMA_SHAPE + 0.5 * (cfg.T_nu - 2),
                    SIGMA_RATE + 0.5 * dd[r, gi],
                    rng,
                )
                # one gamma draw per free row, from the same stream as row-by-row calls
                cs.sigma_gs_2[r, gi] = (SIGMA_RATE + 0.5 * ssq[r, gi]) / rng.gamma(
                    SIGMA_SHAPE + 0.5 * (cfg.T_u - 1), size=self.n_free_rows
                )
        if fix_lambda:
            return 0.0

        # lambda: random-walk Metropolis on the log scale, coordinate by
        # coordinate; the log-normal Jacobian adds (x' - x)
        counts = np.bincount(
            (cs.Z + self._lane_grid(R).count_base).ravel(), minlength=R * L
        ).reshape(R, L)
        # Each proposal moves one coordinate, so every term but the sum's
        # is fixed up front; only lam_sum carries from one step to the next.
        P_tot = self.n_peaks_total
        lam = cs.lam
        x = np.log(lam)
        noise = np.empty((R, L))
        for r, rng in enumerate(rngs):
            rng.standard_normal(out=noise[r])
        xp = x + noise * LAMBDA_STEP
        lp = np.exp(xp)
        jacobian = ((counts + 1.0) * (xp - x)).tolist()
        prior = (0.5 * (lp * lp - lam * lam)).tolist()
        accepted = 0
        for r, rng in enumerate(rngs):
            lam_r, lp_r, jac_r, prior_r = lam[r], lp[r], jacobian[r], prior[r]
            uls = rng.random(L).tolist()
            lam_sum = float(cs.lam_sum[r])
            log_sum = log(lam_sum)
            accept = [False] * L
            for ell, (cur, prop) in enumerate(zip(lam_r.tolist(), lp_r.tolist())):
                new_sum = lam_sum - cur + prop
                log_new = log(new_sum)
                logr = jac_r[ell] - P_tot * (log_new - log_sum) - prior_r[ell]
                if logr >= 0.0 or uls[ell] < math.exp(logr):
                    accept[ell] = True
                    lam_sum, log_sum = new_sum, log_new
            np.putmask(lam_r, accept, lp_r)
            cs.lam_sum[r] = lam_sum
            accepted += sum(accept)
        return accepted / (R * L)

    def sweep(self, cs: _ChainState, rngs, fix_lambda: bool = False) -> float:
        self.sweep_Z(cs, rngs)
        self.sweep_beta(cs, rngs)
        return self.sweep_hyper(cs, rngs, fix_lambda=fix_lambda)

    # -- constraint checks and log joint -------------------------------------

    def count_violations(self, cs: _ChainState) -> np.ndarray:
        """Number of broken constraints in each chain, an (R,) array: one
        per gel with a non-monotone column, one per gel with an unpinned
        boundary row, one per lane whose assignments are not strictly
        increasing, one per gel with an assignment outside its window, and
        one for a non-positive lambda."""
        lo, hi = self.bounds
        beta, Z = cs.beta, cs.Z
        R = len(Z)
        bad = (~np.all(np.diff(beta, axis=2) > 0, axis=(2, 3))).sum(axis=1)
        unpinned = (np.abs(beta[:, :, 0, :] - lo) > 1e-9) | (np.abs(beta[:, :, -1, :] - hi) > 1e-9)
        bad += unpinned.any(axis=2).sum(axis=1)
        broken = (np.diff(Z) <= 0) & self._same_lane
        if broken.any():
            chain, pair = np.nonzero(broken)
            bad += np.bincount(np.unique([chain, self._pair_lane[pair]], axis=1)[0], minlength=R)
        outside = (Z < self._wlo_all) | (Z > self._whi_all)
        if outside.any():
            chain, peak = np.nonzero(outside)
            bad += np.bincount(np.unique([chain, self._gel_of[peak]], axis=1)[0], minlength=R)
        bad += (cs.lam <= 0).any(axis=1)
        return bad

    def _rw_sums(self, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The random-walk prior sums of beta (..., T_nu, T_u), per gel: d.d
        for the first column's increments about the identity's, and each
        free row's sum of squared increments across lanes.  The stacked
        matmul adds d.d in the order d @ d does; einsum does not."""
        T_nu = self.cfg.T_nu
        col = beta[..., : T_nu - 1, 0]
        d = col[..., 1:] - col[..., :-1] - self.id_incr
        rows = beta[..., 1 : T_nu - 1, :]
        inc = rows[..., 1:] - rows[..., :-1]
        return (d[..., None, :] @ d[..., :, None])[..., 0, 0], (inc * inc).sum(axis=-1)

    def log_joint_components(self, cs: _ChainState, violations: np.ndarray) -> dict:
        """The log joint's terms and total, each an (R,) array over the
        chains; violations is count_violations(cs), and a chain that breaks
        a constraint gets -inf throughout."""
        terms = np.full((len(violations), 5), -np.inf)
        ok = violations == 0
        if ok.any():
            # a broken chain may hold a lambda <= 0 or a Z outside 1..L
            if not ok.all():
                cs = _ChainState(*(getattr(cs, f.name)[ok] for f in fields(cs)))
            terms[ok] = self._log_joint_terms(cs)
        return dict(zip(("likelihood", "z_prior", "beta_prior", "hyper", "total"), terms.T))

    def _log_joint_terms(self, cs: _ChainState) -> list:
        """Likelihood, z_prior, beta_prior, hyper and total of each chain.
        The array sums are taken for every chain and gel at once; each chain
        then adds its terms in Python floats, gel by gel."""
        cfg = self.cfg
        lam, vgs = cs.lam, cs.sigma_gs_2
        resid = self._T_all - cs.mu
        log_lam_z = np.log(lam[np.arange(len(lam))[:, None], cs.Z - 1])
        norms = np.array([(rg[:, None, :] @ rg[:, :, None])[:, 0, 0]
                          for rg in (resid[:, gel.peaks] for gel in self.gels)]).T
        z_sums = np.array([log_lam_z[:, gel.peaks].sum(axis=1) for gel in self.gels]).T
        dd, ssq = self._rw_sums(cs.beta)
        # unit half-normal over lambda
        half_normal = (0.5 * math.log(2.0 / math.pi) - 0.5 * lam**2).sum(axis=1)
        ssq_terms = (-0.5 * ssq / vgs).sum(axis=-1)
        log_vgs = (LOG_2PI + np.log(vgs)).sum(axis=-1)
        rows = []
        for (se2, lam_sum, hn, v1s, vgs_r, norm_r, z_r, dd_r, ssq_r, logv_r) in zip(
                *(a.tolist() for a in (cs.sigma_eps2, cs.lam_sum, half_normal,
                                       cs.sigma_g1_2, vgs, norms, z_sums, dd, ssq_terms,
                                       log_vgs))):
            lik = z_prior = beta_prior = 0.0
            hyper = _log_invgamma(se2, SIGMA_SHAPE, SIGMA_RATE)
            hyper += hn
            log_lam_sum = log(lam_sum)
            for gi, gel in enumerate(self.gels):
                lik += -0.5 * norm_r[gi] / se2 - 0.5 * gel.n_peaks * (LOG_2PI + log(se2))
                z_prior += gel.log_jfact
                z_prior += z_r[gi]
                z_prior -= gel.n_peaks * log_lam_sum

                v1 = v1s[gi]
                beta_prior += -0.5 * dd_r[gi] / v1 - 0.5 * (cfg.T_nu - 2) * (LOG_2PI + log(v1))
                beta_prior += ssq_r[gi] - 0.5 * (cfg.T_u - 1) * logv_r[gi]

                hyper += _log_invgamma(v1, SIGMA_SHAPE, SIGMA_RATE)
                for v in vgs_r[gi]:
                    hyper += _log_invgamma(v, SIGMA_SHAPE, SIGMA_RATE)
            rows.append((lik, z_prior, beta_prior, hyper, lik + z_prior + beta_prior + hyper))
        return rows

    def log_joint(self, cs: _ChainState, violations: np.ndarray) -> np.ndarray:
        """The log joint of each chain, an (R,) array; violations is
        count_violations(cs)."""
        return self.log_joint_components(cs, violations)["total"]


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------


def _ess(x: np.ndarray) -> float:
    """Effective sample size of a trace, n / tau, by Geyer's (1992) initial
    positive sequence: tau = -1 + 2 sum_k (rho_2k + rho_2k+1), summed up to
    the first pair that is not positive.  tau is held at 1 or more, so the
    size never exceeds n, and a constant trace counts as n draws."""
    n = x.size
    f = np.fft.rfft(x - x.mean(), 2 * n)
    acov = np.fft.irfft(f.real**2 + f.imag**2, 2 * n)[:n]
    if not acov[0] > 0:
        return float(n)
    pairs = (acov[: n - n % 2] / acov[0]).reshape(-1, 2).sum(axis=1)
    k = int(np.argmin(pairs > 0)) if pairs.min() <= 0 else pairs.size
    return n / max(2.0 * float(pairs[:k].sum()) - 1.0, 1.0)


def stationarity_check(trace: np.ndarray) -> tuple[bool, dict]:
    """Means of the last two quarters within two pooled standard errors,
    each quarter's from its effective sample size, since saved draws are
    autocorrelated."""
    trace = np.asarray(trace, dtype=float)
    n = trace.size
    if n < 8:
        return True, {"note": "trace too short to test", "n": int(n)}
    q = n // 4
    a = trace[2 * q : 3 * q]
    b = trace[3 * q :]
    ma, mb = float(a.mean()), float(b.mean())
    ess_a, ess_b = _ess(a), _ess(b)
    se = math.sqrt(a.var(ddof=1) / ess_a + b.var(ddof=1) / ess_b)
    ok = abs(ma - mb) <= 2.0 * se if se > 0 else True
    return ok, {"mean_q3": ma, "mean_q4": mb, "pooled_se": se, "ess_q3": ess_a,
                "ess_q4": ess_b}


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


def _summarize(model: DewarpModel, draws: tuple, violations: int,
               accept: float) -> MCMCResult:
    """Posterior summaries from the saved draws: the (Z, beta, lambda, log
    joint) arrays of _sample, a row per kept sweep, with Z over every peak
    in lane_key_list order, the model's peak axis."""
    cfg = model.cfg
    L2 = cfg.L + 2
    Z, betas, lambda_draws, trace = draws
    K, P = Z.shape
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
    for key, J in zip(lane_keys, model._lane_J.tolist()):
        start, end = end, end + J
        peak_locations[key] = model._loc[start:end]
        peak_bins[key] = model._bin[start:end]
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


def _sample(model: DewarpModel, cs: _ChainState, rngs, sweeps: int, keep: range,
            fix_lambda: bool = False) -> tuple:
    """Sweep every chain of cs, count the violations once after each sweep,
    and save each chain's (Z, beta, lambda, log joint) on the sweeps in keep.
    Returns those arrays stacked chain after chain, (R len(keep), ...), the
    violation total and the summed lambda acceptance rate."""
    R, K = len(rngs), len(keep)
    Z, beta, lam = (np.empty((R, K) + a.shape[1:], a.dtype) for a in (cs.Z, cs.beta, cs.lam))
    trace = np.empty((R, K))
    violations, accept = 0, 0.0
    for it in range(sweeps):
        accept += model.sweep(cs, rngs, fix_lambda=fix_lambda)
        bad = model.count_violations(cs)
        violations += int(bad.sum())
        if it in keep:
            k = keep.index(it)
            Z[:, k], beta[:, k], lam[:, k] = cs.Z, cs.beta, cs.lam
            trace[:, k] = model.log_joint(cs, bad)
    draws = tuple(a.reshape((R * K,) + a.shape[2:]) for a in (Z, beta, lam, trace))
    return draws, violations, accept


def _explore_restarts(model: DewarpModel, cfg: ModelConfig) -> tuple:
    """Short annealed chains from independent streams, swept in lockstep;
    keeps the state with the best settled log joint.

    The residual scale is clamped to a geometric schedule (ANNEAL_HI down to
    ANNEAL_LO landmark spacings) so every restart is forced through a soft
    phase, where warps absorb coarse structure, into a crystallized one.
    Scoring happens only after a stretch of unclamped sweeps: at the clamp
    floor an over-fitted labeling can outscore the right one, whereas once
    the residual scale has re-equilibrated the settled log joint compares
    basins at their own posterior scale.  The winner is the first chain
    whose score beats every earlier one, so a tie keeps the earlier chain
    and a NaN never wins; it is carried forward as a one-chain state, and
    samples are drawn later under the unclamped kernel."""
    rngs = [np.random.default_rng((cfg.seed, 911, i)) for i in range(cfg.restarts)]
    cs = model.init_chain_state(cfg.restarts)
    viol = 0
    n = cfg.restart_sweeps
    hi = ANNEAL_HI * model.spacing_std
    lo = ANNEAL_LO * model.spacing_std
    release = max(30, n // 4)
    tail_n = min(25, release)
    for it in range(n):
        model.sweep(cs, rngs)
        clamp = hi * (lo / hi) ** (it / max(n - 1, 1))
        np.minimum(cs.sigma_eps2, clamp * clamp, out=cs.sigma_eps2)
        viol += int(model.count_violations(cs).sum())
    draws, v, _ = _sample(model, cs, rngs, release, range(release - tail_n, release))
    viol += v
    scores = [float(np.mean(tail)) for tail in draws[-1].reshape(cfg.restarts, tail_n)]
    best = None
    best_score = -np.inf
    for i, score in enumerate(scores):
        if score > best_score:
            best, best_score = i, score
    if best is None:
        raise ValueError(
            "no restart reached a finite settled log joint; scores by restart: "
            + ", ".join(repr(score) for score in scores)
        )
    return cs.chain(best), viol


def run_mcmc(peaks: PeakTable, cfg: ModelConfig) -> MCMCResult:
    """Systematic-scan Gibbs chain; deterministic given cfg.seed.
    Constraint violations are counted after every sweep."""
    model = DewarpModel(peaks, cfg)
    for gel in model.gels:
        if gel.n_peaks < cfg.T_nu:
            warnings.warn(
                f"gel {gel.gel_id}: {gel.n_peaks} peaks for {cfg.T_nu} "
                f"warp bases; the warp is weakly identified",
                GelwarpWarning,
                stacklevel=2,
            )
    rngs = [np.random.default_rng(cfg.seed)]
    cs = model.init_chain_state()
    comp = model.log_joint_components(cs, model.count_violations(cs))
    if not np.isfinite(comp["total"][0]):
        bad = [k for k, v in comp.items() if k != "total" and not np.isfinite(v[0])]
        raise ValueError(f"non-finite log joint at initialization: {', '.join(bad)}")

    violations = 0
    if cfg.restarts > 1:
        cs, violations = _explore_restarts(model, cfg)
    draws, v, accept = _sample(model, cs, rngs, cfg.iterations,
                               range(cfg.burnin, cfg.iterations, cfg.thin))
    return _summarize(model, draws, violations + v, accept / cfg.iterations)


def align_new_gel(new_peaks: PeakTable, stored_lambda_samples: np.ndarray,
                  cfg: ModelConfig, lambda_budget: int = 20, iterations: int = 400,
                  burnin: int = 150) -> MCMCResult:
    """Posterior for a held-out gel given the training landmark frequencies.

    Averages one-gel conditional chains over up to ``lambda_budget`` evenly
    spaced stored lambda draws, swept in lockstep; lambda stays fixed within
    each chain.  Each chain runs ``iterations`` sweeps and keeps
    those after the first ``burnin``.  ``cfg`` supplies the model (L, bases,
    window, seed); its iteration, burn-in, thinning and restart settings are
    not used."""
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
    if stored.ndim != 2 or stored.shape[1] != cfg.L:
        raise ValueError(
            f"stored lambda draws have shape {stored.shape}, expected rows of {cfg.L} columns"
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
    rngs = [np.random.default_rng(cfg.seed + 1000 + i) for i in range(idx.size)]
    cs = model.init_chain_state(idx.size)
    cs.lam[:] = stored[idx]
    cs.lam_sum[:] = [float(row.sum()) for row in cs.lam]
    draws, violations, _ = _sample(model, cs, rngs, iterations, range(burnin, iterations),
                                   fix_lambda=True)
    return _summarize(model, draws, violations, 0.0)


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
    payload = read_json(path)
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
    keys, Y = signatures(result.z_map, L)
    write_csv(path, ["lane"] + [f"l{ell}" for ell in range(1, L + 1)],
              [[lane_name(key)] + row.tolist() for key, row in zip(keys, Y)])


def write_chain_log(result: MCMCResult, path) -> None:
    with open_text(path, "w") as f:
        f.write("# saved_state log_joint\n")
        for k, v in enumerate(result.log_joint_trace):
            f.write(f"{k} {float(v)!r}\n")
