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
(its window |T - nu| < A_0, not all L), a block draw of each gel's free
spline coefficients from their Gaussian full conditional, kept when it is
monotone, with every chain and gel in one stacked Cholesky pass, conjugate
inverse-gamma updates for the variances, and a random-walk Metropolis step
on every log lambda at once.  That step is exact through a data
augmentation: lambda enters the Z prior through (sum lambda)^-P over the P
peaks, and Gamma(P) (sum lambda)^-P = int t^(P-1) exp(-t sum lambda) dt, so
drawing t | lambda ~ Gamma(P, rate sum lambda) and then moving lambda given
t, under which the landmarks are independent, leaves lambda's full
conditional invariant (see sweep_hyper).

The sampler state is internal, with no public form: arrays for R chains
swept in lockstep, with a leading chain axis and peaks and lanes in
lane_key_list order, the order the draws are saved in.  lambda is (R, L);
its sum lam_sum and sigma_eps^2 are (R,); Z and the peak means
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
sums, the sums of squares under each variance, lambda's sum, the log
joint's sums and each gel's Cholesky factor and solve) is taken per chain,
and per gel where it is a gel's.  The variance step and the log joint read
one (R, V) layout of the V variances of a chain (see _var_sums).
One loop, _sample, runs every sweep: the restart chains and the main chain
(R = 1).  It scores the saved draws after its sweeps, not on each one.
The restart phase is one _sample call over run_mcmc's initial state of
restarts chains, restart_sweeps sweeps long, and one argmax over each
chain's mean log joint of its last 25 sweeps; the winner starts the main
chain.

The hyperpriors and sampler tuning are fixed module constants, not
settings: SIGMA_SHAPE and SIGMA_RATE for the inverse-gamma priors on every
variance, LAMBDA_STEP for the log-scale proposal sd of each lambda
coordinate, and SCORE_ROWS for the saved draws scored per pass.  lambda is
iid half-normal with unit variance and no scale hyperparameter: only
lambda* = lambda / sum(lambda) enters the likelihood and the Z prior, and
its law does not depend on a common scale.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from itertools import groupby

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
    write_json_entries,
)
from .peakdetect import PeakTable
from .spline import ORDER, BSplineBasis, WarpField, identity_coefficients, make_basis

LOG_2PI = math.log(2.0 * math.pi)

# fixed hyperpriors and sampler tuning, named in the module docstring
SIGMA_SHAPE = 0.01
SIGMA_RATE = 0.01
LAMBDA_STEP = 0.5

# saved draws scored per pass after a run's sweeps: their rebuilt warps take
# SCORE_ROWS (L + 2) N floats
SCORE_ROWS = 64


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
    restart_sweeps: int = 750

    def __post_init__(self):
        # a float such as 300.0 (say from JSON) would fail mid-run
        for name, lo in (("L", None), ("T_nu", None), ("T_u", None), ("iterations", 1),
                         ("burnin", 0), ("thin", 1), ("seed", 0), ("restarts", 1),
                         ("restart_sweeps", 25)):
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
# Model context
# ---------------------------------------------------------------------------


def _var_layout(eps: np.ndarray, g1: np.ndarray, gs: np.ndarray) -> np.ndarray:
    """An (R,) sigma_eps, (R, G) sigma_g1 and (R, G, T_nu - 2) sigma_gs
    quantity as one (R, V) array, in sweep_hyper's draw order."""
    R = len(eps)
    return np.concatenate(
        [eps[:, None], np.concatenate([g1[..., None], gs], axis=-1).reshape(R, -1)], axis=1)


@dataclass(slots=True, eq=False)
class _GelData:
    """What is per gel: its lanes, their standardizer and basis, and the
    lane design Bu and its rows at each of the gel's peaks (BuP).  Per-peak
    inputs live once, on the model's peak axis; peaks and cols are the gel's
    slices of it and of W's lane columns."""

    gel_id: str
    lanes: list
    u_std: np.ndarray
    lane_std: Standardizer
    basis_u: object
    Bu: np.ndarray
    BuP: np.ndarray
    peaks: slice
    cols: slice
    n_peaks: int


@dataclass(slots=True, eq=False)
class _ChainState:
    """Mutable sampler state of R chains, in the array layout of the module
    docstring: every field has a leading chain axis.  W (warped landmarks)
    and mu (peak means) follow from beta and Z; lam_sum is lam's sum."""

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
    DewarpModel._lane_grid)."""

    T_band: np.ndarray
    w_flat: np.ndarray
    lam_idx: np.ndarray
    band0: np.ndarray
    band_rows: np.ndarray
    shift: np.ndarray
    top: np.ndarray
    slot: np.ndarray
    band_slot: np.ndarray
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
            n = int(J[N : N + len(lanes)].sum())
            self.gels.append(_GelData(
                gel_id, lanes, u_std, lane_std, basis_u, Bu,
                BuP=Bu[self._lane_of[P : P + n] - N],
                peaks=slice(P, P + n), cols=slice(N, N + len(lanes)), n_peaks=n,
            ))
            P, N = P + n, N + len(lanes)
        self.n_peaks_total = P
        self.n_free_rows = m = cfg.T_nu - 2
        # the block beta draw: each gel's peaks padded to a common count,
        # with zero design rows on the padding, and the random walks' fixed
        # K x K precisions over the free coefficients k = (s - 1) T_u + t.
        # The horizontal walk ||D x - e||^2 runs down the first column from
        # the pinned row 0; the vertical walk is a path Laplacian per row.
        Pmax = max(gel.n_peaks for gel in self.gels)
        self._gel_peaks = np.zeros((len(self.gels), Pmax), dtype=np.intp)
        BuP = np.zeros((len(self.gels), Pmax, cfg.T_u))
        for gi, gel in enumerate(self.gels):
            self._gel_peaks[gi, : gel.n_peaks] = np.arange(gel.peaks.start, gel.peaks.stop)
            BuP[gi, : gel.n_peaks] = gel.BuP
        # B_nu's free columns, each to be repeated T_u times, and B_u at
        # each gel's peaks tiled to match: their product is the design
        self._Bnu_free = self.Bnu_land[:, 1 : cfg.T_nu - 1].copy()
        self._BuP_tiled = np.tile(BuP, m)
        D = np.eye(m) - np.eye(m, k=-1)
        e = self.id_incr.copy()
        e[0] += self.beta_id[0]
        first = np.arange(m) * cfg.T_u
        K = m * cfg.T_u
        self._walk_h = np.zeros((K, K))
        self._walk_h[np.ix_(first, first)] = D.T @ D
        self._walk_lin = np.zeros((K, 1))
        self._walk_lin[first, 0] = D.T @ e
        step = np.diff(np.eye(cfg.T_u), axis=0)
        self._walk_v = np.kron(np.eye(m), step.T @ step)
        self._walk_row = np.repeat(np.arange(m), cfg.T_u)
        # the Gaussian terms' counts under each variance, in sweep_hyper's
        # draw order (see _var_sums), and the variances' gamma shapes
        self._var_counts = np.concatenate(
            [[P], np.tile([cfg.T_nu - 2] + [cfg.T_u - 1] * m, len(self.gels))])
        self._var_shapes = SIGMA_SHAPE + 0.5 * self._var_counts
        # the Z prior's log J! over every lane
        self._log_jfact = sum(math.lgamma(j + 1.0) for j in J.tolist())
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
        lam = np.full((R, cfg.L), math.sqrt(2.0 / math.pi))
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
        return self._state(
            lam=lam, lam_sum=lam.sum(axis=1),
            sigma_eps2=np.full(R, 0.01**2),
            beta=np.tile(self.beta_id[:, None], (R, G, 1, cfg.T_u)), Z=np.tile(Z, (R, 1)),
            sigma_g1_2=np.full((R, G), 0.01**2),
            sigma_gs_2=np.full((R, G, self.n_free_rows), 0.01**2),
        )

    def _state(self, **arrays) -> _ChainState:
        """A state from every field but W and mu, which follow from beta and
        Z."""
        R = len(arrays["Z"])
        cs = _ChainState(**arrays, W=np.empty((R, self.cfg.L + 2, len(self.lane_key_list))),
                         mu=None)
        self._refresh(cs)
        return cs

    def _warp_gel(self, cs: _ChainState, gi: int) -> None:
        """Gel gi's block of the warped landmarks W from its beta, every
        chain in one stacked product."""
        gel = self.gels[gi]
        cs.W[:, :, gel.cols] = self.Bnu_land @ cs.beta[:, gi] @ gel.Bu.T

    def _gather_mu(self, cs: _ChainState) -> None:
        """The peak means mu: W at each peak's (chain, Z, lane)."""
        cs.mu = cs.W[np.arange(len(cs.Z))[:, None], cs.Z, self._lane_of]

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
        A *= (-0.5 / cs.sigma_eps2)[:, None, None]
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
        """Every gel's free coefficients in one block, drawn from their
        Gaussian full conditional and kept if monotone; boundary rows stay
        pinned.

        A gel's peak means are linear in its K = (T_nu - 2) T_u free
        coefficients: coefficient k = (s, t) enters through the design
        column x_k = B_nu[Z, s] * B_u[lane, t], and the pinned rows add a
        fixed offset.  With the random-walk priors, the free block's full
        conditional is Gaussian, with precision Q = X'X / sigma^2 + P and
        Q mean = b = X'(T - offset) / sigma^2 + h; the walk precision P is
        the horizontal walk's fixed matrix over 1/sigma_g1^2 plus each
        row's vertical one over 1/sigma_gs^2, and h comes from the
        horizontal walk's pinned start and identity increments.  With
        Q = C C' (Cholesky) and z standard normal, solve(Q, b + C z) has
        mean Q^-1 b and covariance Q^-1.  The draw is kept only if every
        column then strictly increases in s, and the gel keeps its current
        beta if not.  This is exact: the draw and the chance that it is
        valid do not depend on the current beta, so the kernel is a
        Metropolis independence step that proposes from the untruncated
        conditional and accepts exactly the valid proposals, and it leaves
        the truncated conditional invariant.  So no truncated-normal sampler
        is needed (the coordinate-wise scan this replaces, with its
        _trunc_normal, SQRT_HALF and _STD_NORMAL, kept 0.04-0.24 effective
        draws per sweep).  In settled chains almost every draw is valid.

        Every chain and gel goes through one stacked pass: the gels are
        padded to a common peak count with zero design rows, the K x K
        systems are stacked over (chain, gel), b is passed as (..., K, 1)
        (numpy 2 reads a 1-D right-hand side of a stacked solve
        differently), and each chain draws its (G, K) normals from its own
        generator."""
        R = self._chain_count(cs, rngs)
        m, T_u = self.n_free_rows, self.cfg.T_u
        G, K = len(self.gels), m * T_u
        # X is (R, G, Pmax, K); its padded rows are zero
        X = self._Bnu_free.take(cs.Z.take(self._gel_peaks, axis=1), axis=0).repeat(T_u, axis=-1)
        X *= self._BuP_tiled
        Xt = X.swapaxes(-1, -2)
        XtX = Xt @ X
        resid = (self._T_all - cs.mu).take(self._gel_peaks, axis=1)[..., None]
        free = cs.beta[:, :, 1 : m + 1].reshape(R, G, K, 1)
        se2 = cs.sigma_eps2[:, None, None, None]
        w1 = 1.0 / cs.sigma_g1_2[..., None, None]
        ws = (1.0 / cs.sigma_gs_2)[..., self._walk_row, None]
        Q = XtX / se2 + w1 * self._walk_h + ws * self._walk_v
        # X'(T - offset) is X'(T - mu) + X'X beta_free
        b = (Xt @ resid + XtX @ free) / se2 + w1 * self._walk_lin
        z = np.empty((R, G, K))
        for r, rng in enumerate(rngs):
            rng.standard_normal(out=z[r])
        draw = np.linalg.solve(Q, b + np.linalg.cholesky(Q) @ z[..., None])
        beta = cs.beta.copy()
        beta[:, :, 1 : m + 1] = draw.reshape(R, G, m, T_u)
        ok = (beta[:, :, 1:] > beta[:, :, :-1]).reshape(R, G, -1).all(axis=-1)
        cs.beta = np.where(ok[..., None, None], beta, cs.beta)
        self._refresh(cs)

    def sweep_hyper(self, cs: _ChainState, rngs) -> float:
        """Conjugate variance updates, then one Metropolis step on every log
        lambda at once given a Gamma auxiliary.

        lambda enters the Z prior as prod_l lambda_l^c_l (sum lambda)^-P,
        with c_l the assignments to landmark l and P the peak count.  Since
        Gamma(P) (sum lambda)^-P = int t^(P-1) exp(-t sum lambda) dt, the
        joint density of (lambda, t) has lambda's full conditional as its
        marginal, so the Gibbs step t | lambda ~ Gamma(P, rate sum lambda)
        followed by any step that leaves lambda | t invariant leaves
        p(lambda | Z) invariant.  Given t the landmarks are independent: on
        x = log lambda_l each has log density (c_l + 1) x - t e^x - e^2x / 2
        (the unit half-normal and the log-normal Jacobian), and one
        random-walk step of sd LAMBDA_STEP moves every (chain, landmark) at
        once.  It accepts where log(1 - u) < the log ratio, with u uniform on
        [0, 1), and lam_sum is then lam's sum.

        The variances' sums of squares are _var_sums, in the gammas' order.
        Each chain draws from its own generator, in this order: its variance
        gammas in one call (sigma_eps, then each gel's sigma_g1 and its free
        rows' sigma_gs, the stream of one call per variance), then t, then L
        normals, then L uniforms.

        Returns the fraction of lambda proposals accepted in this sweep,
        over all chains."""
        R = self._chain_count(cs, rngs)
        L = self.cfg.L
        P = self.n_peaks_total
        gam = np.empty((R, self._var_shapes.size))
        t = np.empty(R)
        noise = np.empty((R, L))
        u = np.empty((R, L))
        for r, (rng, lam_sum) in enumerate(zip(rngs, cs.lam_sum.tolist())):
            gam[r] = rng.gamma(self._var_shapes)
            t[r] = rng.standard_gamma(P) / lam_sum
            rng.standard_normal(out=noise[r])
            rng.random(out=u[r])

        # variances: InvGamma(shape, rate) is rate / Gamma(shape)
        var = (SIGMA_RATE + 0.5 * self._var_sums(cs)) / gam
        per_gel = var[:, 1:].reshape(R, len(self.gels), -1)
        cs.sigma_eps2[:] = var[:, 0]
        cs.sigma_g1_2[:] = per_gel[..., 0]
        cs.sigma_gs_2[:] = per_gel[..., 1:]

        # lambda given t
        counts = np.bincount(
            (cs.Z + self._lane_grid(R).count_base).ravel(), minlength=R * L
        ).reshape(R, L)
        lam = cs.lam
        x = np.log(lam)
        xp = x + noise * LAMBDA_STEP
        lp = np.exp(xp)
        logr = (counts + 1.0) * (xp - x) - t[:, None] * (lp - lam) - 0.5 * (lp * lp - lam * lam)
        np.negative(u, out=u)
        accept = np.log1p(u, out=u) < logr
        np.putmask(lam, accept, lp)
        cs.lam_sum[:] = lam.sum(axis=1)
        return int(accept.sum()) / (R * L)

    def sweep(self, cs: _ChainState, rngs) -> float:
        self.sweep_Z(cs, rngs)
        self.sweep_beta(cs, rngs)
        return self.sweep_hyper(cs, rngs)

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

    def _var_sums(self, cs: _ChainState) -> np.ndarray:
        """The (R, V) sums of squares under each of a chain's V variances, in
        sweep_hyper's draw order: the residuals' under sigma_eps, then per
        gel the first column's increments about the identity's under
        sigma_g1 and each free row's increments across lanes under its
        sigma_gs.  The stacked matmuls add each dot product in the order
        d @ d does; einsum does not."""
        T_nu = self.cfg.T_nu
        resid = self._T_all - cs.mu
        col = cs.beta[..., : T_nu - 1, 0]
        d = col[..., 1:] - col[..., :-1] - self.id_incr
        rows = cs.beta[..., 1 : T_nu - 1, :]
        inc = rows[..., 1:] - rows[..., :-1]
        return _var_layout((resid[:, None, :] @ resid[:, :, None])[:, 0, 0],
                           (d[..., None, :] @ d[..., :, None])[..., 0, 0],
                           (inc * inc).sum(axis=-1))

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

    def _log_joint_terms(self, cs: _ChainState) -> np.ndarray:
        """Likelihood, z_prior, beta_prior, hyper and total of each chain, an
        (R, 5) array.  The Gaussian terms read _var_sums and the variances in
        its layout; every sum runs along one chain's row."""
        lam = cs.lam
        var = _var_layout(cs.sigma_eps2, cs.sigma_g1_2, cs.sigma_gs_2)
        log_var = np.log(var)
        gauss = -0.5 * self._var_sums(cs) / var - 0.5 * self._var_counts * (LOG_2PI + log_var)
        lik, beta_prior = gauss[:, 0], gauss[:, 1:].sum(axis=1)
        z_prior = (self._log_jfact + np.log(lam[np.arange(len(lam))[:, None], cs.Z - 1]).sum(axis=1)
                   - self.n_peaks_total * np.log(cs.lam_sum))
        # inverse-gamma over every variance, unit half-normal over lambda
        hyper = ((SIGMA_SHAPE * math.log(SIGMA_RATE) - math.lgamma(SIGMA_SHAPE)
                  - (SIGMA_SHAPE + 1.0) * log_var - SIGMA_RATE / var).sum(axis=1)
                 + (0.5 * math.log(2.0 / math.pi) - 0.5 * lam**2).sum(axis=1))
        return np.stack([lik, z_prior, beta_prior, hyper, lik + z_prior + beta_prior + hyper],
                        axis=1)

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


def _sample(model: DewarpModel, cs: _ChainState, rngs, sweeps: int, keep: range) -> tuple:
    """Sweep every chain of cs, count the violations once after each sweep,
    and save each chain's state (all but W and mu) and count on the sweeps
    in keep.  The saved draws are scored after the loop, SCORE_ROWS at a
    time: W and mu are rebuilt from the saved beta and Z, in the products the
    sweeps use, so each score equals log_joint on the live state bit for
    bit.  Returns the (Z, beta, lambda, log joint) arrays stacked chain after
    chain, (R len(keep), ...), the violation total and the summed lambda
    acceptance rate."""
    R, K = len(rngs), len(keep)
    saved = {}
    for f in fields(cs):
        if f.name not in ("W", "mu"):
            a = getattr(cs, f.name)
            saved[f.name] = np.empty((R, K) + a.shape[1:], a.dtype)
    kept_bad = np.empty((R, K), dtype=int)
    violations, accept = 0, 0.0
    for it in range(sweeps):
        accept += model.sweep(cs, rngs)
        bad = model.count_violations(cs)
        violations += int(bad.sum())
        if it in keep:
            k = keep.index(it)
            for name, a in saved.items():
                a[:, k] = getattr(cs, name)
            kept_bad[:, k] = bad
    rows = {name: a.reshape((R * K,) + a.shape[2:]) for name, a in saved.items()}
    kept_bad = kept_bad.ravel()
    trace = np.empty(R * K)
    for i in range(0, R * K, SCORE_ROWS):
        part = slice(i, i + SCORE_ROWS)
        trace[part] = model.log_joint(
            model._state(**{name: a[part] for name, a in rows.items()}), kept_bad[part])
    return (rows["Z"], rows["beta"], rows["lam"], trace), violations, accept


def _explore_restarts(model: DewarpModel, cs: _ChainState, cfg: ModelConfig) -> tuple:
    """Sweeps cs, a state of cfg.restarts chains, in lockstep for
    cfg.restart_sweeps sweeps, each chain on its own stream, and keeps the
    chain with the best settled log joint: the mean of its last 25 sweeps.
    The winner is the argmax of those scores with a NaN read as -inf, so a
    tie keeps the earlier chain and a NaN never wins; it is carried forward
    as a one-chain state."""
    rngs = [np.random.default_rng((cfg.seed, 911, i)) for i in range(cfg.restarts)]
    sweeps = cfg.restart_sweeps
    draws, viol, _ = _sample(model, cs, rngs, sweeps, range(sweeps - 25, sweeps))
    scores = draws[-1].reshape(cfg.restarts, 25).mean(axis=1)
    if not np.isfinite(scores).any():
        raise ValueError(
            "no restart reached a finite settled log joint; scores by restart: "
            + ", ".join(repr(score) for score in scores.tolist())
        )
    return cs.chain(int(np.argmax(np.where(np.isnan(scores), -np.inf, scores)))), viol


def run_mcmc(peaks: PeakTable, cfg: ModelConfig) -> MCMCResult:
    """Systematic-scan Gibbs chain; deterministic given cfg.seed.  One
    initial state of cfg.restarts chains is built and its log joint checked;
    with more than one chain, _explore_restarts sweeps it and its winner
    starts the main chain, and otherwise it is the main chain's start.
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
    cs = model.init_chain_state(cfg.restarts)
    comp = model.log_joint_components(cs, model.count_violations(cs))
    if not np.isfinite(comp["total"]).all():
        bad = [k for k, v in comp.items() if k != "total" and not np.isfinite(v).all()]
        raise ValueError(f"non-finite log joint at initialization: {', '.join(bad)}")

    violations = 0
    if cfg.restarts > 1:
        cs, violations = _explore_restarts(model, cs, cfg)
    draws, v, accept = _sample(model, cs, [np.random.default_rng(cfg.seed)], cfg.iterations,
                               range(cfg.burnin, cfg.iterations, cfg.thin))
    return _summarize(model, draws, violations + v, accept / cfg.iterations)


# ---------------------------------------------------------------------------
# Artifact serialization
# ---------------------------------------------------------------------------


def write_zmap(result: MCMCResult, path) -> None:
    """MAP assignments, per-peak marginals and the stored draws of each lane,
    under its "gel:lane" name.  The lanes are built and encoded one at a time
    (core.write_json_entries), so one lane's lists and text are alive at
    once, not a list for every saved draw of every lane; the bytes are those
    write_json gives for the whole payload."""
    def lane_entry(key):
        return {
            "gel_id": key[0],
            "lane": key[1],
            "bins": result.peak_bins[key].tolist(),
            "locations": result.peak_locations[key].tolist(),
            "z_map": result.z_map[key].tolist(),
            "marginals": result.z_marginals[key].tolist(),
            "draws": result.z_draws[key].tolist(),
        }

    write_json_entries({"L": result.cfg.L, "axis_standardizer": result.standardizers["axis"]},
                       path, "lanes", {lane_name(key): key for key in result.lane_keys},
                       lane_entry)


# each array field of a zmap.json lane entry, in the order a missing one is
# named: its dimensions, its numpy dtype kinds, and what it must be
_ZMAP_FIELDS = {
    "z_map": (1, "iu", "z_map is not a list of landmarks"),
    "locations": (1, "iuf", "locations are not a list of numbers"),
    "bins": (1, "iu", "bins are not a list of trace bins"),
    "marginals": (2, "iuf", "marginals are not a table of probability rows"),
    "draws": (2, "iu", "draws are not a table of landmark rows"),
}


def _array_or_none(value) -> np.ndarray | None:
    """``value`` as an array, or None if it forms no rectangular array."""
    try:
        return np.array(value)
    except ValueError:
        return None


def _zmap_lane_arrays(entry: dict) -> dict:
    """read_json hook: each array field of a zmap.json lane entry as an
    array, made as soon as the entry closes.  A field that forms no
    rectangular array is kept as None, for _check_zmap_lane to reject with
    the lane's name."""
    for field in _ZMAP_FIELDS.keys() & entry.keys():
        entry[field] = _array_or_none(entry[field])
    return entry


def _check_zmap_lane(entry: dict, L: int, K: int | None) -> dict:
    """The arrays read_zmap returns for one lane entry.  Every field is
    there, with the dimensions and kind of number _ZMAP_FIELDS gives (an
    empty one may be of any kind); z_map, locations, bins and every draw
    hold one entry per peak and marginals one row of L + 2 per peak; each
    landmark is in 1..L; every location is finite; locations, bins and
    each draw strictly increase; and the lane holds K draws, as the lanes
    before it do (None for the first)."""
    for field, (ndim, kinds, message) in _ZMAP_FIELDS.items():
        if field not in entry:
            raise ValueError(f'no "{field}"')
        a = entry[field]
        if a is None or a.ndim != ndim:
            raise ValueError(message)
        if a.size and a.dtype.kind not in kinds:
            raise ValueError(f"{field} has an entry that is not "
                             f"{'an integer' if kinds == 'iu' else 'a number'}")
    z_map, draws = (entry[field].astype(int, copy=False) for field in ("z_map", "draws"))
    if K is not None and len(draws) != K:
        raise ValueError(f"{len(draws)} draws, where the first lane has {K}")
    lengths = (z_map.size, entry["locations"].size, entry["bins"].size)
    if set(lengths) != {draws.shape[1]}:
        raise ValueError("z_map, locations, bins and draws have %d, %d, %d and %d entries"
                         % (*lengths, draws.shape[1]))
    if entry["marginals"].shape != (z_map.size, L + 2):
        raise ValueError(f"marginals are not {z_map.size} rows of L + 2 = {L + 2} numbers")
    for name, z in (("z_map", z_map), ("draws", draws)):
        outside = (z < 1) | (z > L)
        if outside.any():
            raise ValueError(f"{name} has landmark {z[outside][0]} outside 1..{L}")
    if not np.isfinite(entry["locations"]).all():
        raise ValueError("locations has an entry that is not finite")
    for name in ("locations", "bins"):
        falls = np.diff(entry[name]) <= 0
        if falls.any():
            raise ValueError(f"{name} are not strictly increasing at peak "
                             f"{int(np.argmax(falls)) + 2}")
    falls = np.diff(draws, axis=1) <= 0
    if falls.any():
        raise ValueError(f"draw {int(np.argmax(falls.any(axis=1)))} is not strictly increasing")
    return {"z_map": z_map, "z_draws": draws,
            "z_marginals": entry["marginals"].astype(float, copy=False),
            "locations": entry["locations"].astype(float, copy=False),
            "bins": entry["bins"].astype(int, copy=False)}


def _read_posterior_json(path, fields: tuple = (), object_hook=None) -> dict:
    """The payload of a posterior JSON file: an object holding a positive
    integer "L", each of ``fields`` and a "lanes" object of at least one
    lane.  A missing field is named with the file."""
    payload = read_json(path, object_hook=object_hook)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object")
    for field in ("L", *fields, "lanes"):
        if field not in payload:
            raise ValueError(f'{path}: no "{field}"')
    check_int(payload["L"], f"{path}: L", 1)
    if not isinstance(payload["lanes"], dict) or not payload["lanes"]:
        raise ValueError(f"{path}: no lanes")
    return payload


def read_zmap(path) -> dict:
    """Returns {"L", "axis": Standardizer, "z_map": {key: array}, "z_draws":
    {key: array}, "z_marginals": {key: array}, "locations": {key: array},
    "bins": {key: array}}, the lanes in the file's order.  Each lane's lists
    become arrays as soon as its entry is parsed, so one lane's lists are
    alive at once.  A missing field, a file with no lanes, or a lane that
    fails _check_zmap_lane is named, with the file, before the caller can
    write anything."""
    payload = _read_posterior_json(path, ("axis_standardizer",), _zmap_lane_arrays)
    L = payload["L"]
    try:
        axis = Standardizer.from_dict(payload["axis_standardizer"])
    except (KeyError, TypeError, ValueError):
        raise ValueError(f"{path}: axis_standardizer is not a center and a positive "
                         f"scale") from None
    out = {"L": L, "axis": axis, "z_map": {}, "z_draws": {}, "z_marginals": {},
           "locations": {}, "bins": {}}
    K = None
    for s, entry in payload["lanes"].items():
        try:
            if not isinstance(entry, dict):
                raise ValueError("expected a JSON object")
            arrays = _check_zmap_lane(entry, L, K)
            key = parse_lane_name(s)
        except ValueError as exc:
            raise ValueError(f"{path}: lane {s}: {exc}") from None
        K = len(arrays["z_draws"])
        for field, value in arrays.items():
            out[field][key] = value
    return out


def write_warp_json(result: MCMCResult, path) -> None:
    """Each gel's posterior mean warp, in gel order: its bases' sizes and
    knots, beta row-major, the bounds, and under "standardizer" the gel's
    lane standardizer, its lanes and their standardized u."""
    write_json([{
        "gel_id": gel_id,
        "T_nu": field.basis_nu.T,
        "T_u": field.basis_u.T,
        "knots_nu": field.basis_nu.knots.tolist(),
        "knots_u": field.basis_u.knots.tolist(),
        "beta": field.beta.ravel().tolist(),
        "bounds": list(field.bounds),
        "standardizer": result.standardizers["lane"][gel_id],
    } for gel_id, field in sorted(result.beta_mean.items())], path, indent=2)


def _require(entry: dict, fields: tuple, prefix: str = "") -> None:
    for field in fields:
        if field not in entry:
            raise ValueError(f'no "{prefix}{field}"')


def _numbers(value, n: int, name: str) -> np.ndarray:
    """``value`` as n finite floats; otherwise an error naming ``name``."""
    a = _array_or_none(value)
    if a is None or a.shape != (n,) or a.dtype.kind not in "iuf" or not np.isfinite(a).all():
        raise ValueError(f"{name} is not {n} finite numbers")
    return a.astype(float, copy=False)


def _check_warp_entry(entry: dict) -> tuple:
    """(WarpField, lanes, u_std) of one warp.json gel entry.  T_nu and T_u
    are integers >= 4; each knot vector is T + 4 nondecreasing numbers;
    beta is T_nu T_u numbers and bounds two, and the field passes
    WarpField.validate; the "standardizer" object holds a lane standardizer
    with a positive scale, integer lanes each listed once, and one u_std
    number per lane inside the u basis support, which is that lane under
    the standardizer."""
    _require(entry, ("T_nu", "T_u", "knots_nu", "knots_u", "beta", "bounds", "standardizer"))
    bases = []
    for axis in ("nu", "u"):
        T = check_int(entry[f"T_{axis}"], f"T_{axis}", ORDER)
        knots = _numbers(entry[f"knots_{axis}"], T + ORDER, f"knots_{axis}")
        try:
            bases.append(BSplineBasis(knots))
        except ValueError as exc:
            raise ValueError(f"knots_{axis}: {exc}") from None
    basis_nu, basis_u = bases
    beta = _numbers(entry["beta"], basis_nu.T * basis_u.T, "beta")
    bounds = tuple(_numbers(entry["bounds"], 2, "bounds").tolist())
    field = WarpField(beta=beta.reshape(basis_nu.T, basis_u.T), basis_nu=basis_nu,
                      basis_u=basis_u, bounds=bounds)
    field.validate()

    std = entry["standardizer"]
    if not isinstance(std, dict):
        raise ValueError("standardizer is not a JSON object")
    _require(std, ("standardizer", "lanes", "u_std"), "standardizer.")
    try:
        lane_std = Standardizer.from_dict(std["standardizer"])
    except (KeyError, TypeError, ValueError):
        raise ValueError("standardizer.standardizer is not a center and a positive "
                         "scale") from None
    lanes = std["lanes"]
    if not isinstance(lanes, list):
        raise ValueError("standardizer.lanes is not a list")
    seen = set()
    for lane in lanes:
        if check_int(lane, "standardizer.lanes entry") in seen:
            raise ValueError(f"standardizer.lanes lists lane {lane} twice")
        seen.add(lane)
    u_std = _numbers(std["u_std"], len(lanes), "standardizer.u_std")
    outside = (u_std < basis_u.lo) | (u_std > basis_u.hi)
    if outside.any():
        i = int(np.argmax(outside))
        raise ValueError(f"lane {lanes[i]}: u_std {u_std[i]} outside the u basis support "
                         f"[{basis_u.lo}, {basis_u.hi}]")
    # the writer computes u_std from these same floats, so it is exact
    want = lane_std.apply(lanes)
    if not np.array_equal(u_std, want):
        i = int(np.argmax(u_std != want))
        raise ValueError(f"lane {lanes[i]}: u_std {float(u_std[i])!r} is not the lane "
                         f"standardized, {float(want[i])!r}")
    return field, lanes, u_std


def read_warp_json(path) -> dict:
    """{gel_id: (posterior mean WarpField, the gel's lanes, their
    standardized u)} of a write_warp_json file, in the file's order.  A
    payload that is not a list of gel entries, an entry that is not an
    object with a "gel_id" string, a gel listed twice, or one that fails
    _check_warp_entry is named, with the file, before the caller can write
    anything."""
    payload = read_json(path)
    if not isinstance(payload, list) or not payload:
        raise ValueError(f"{path}: expected a JSON list of gel entries")
    out = {}
    for i, entry in enumerate(payload):
        gel_id = entry.get("gel_id") if isinstance(entry, dict) else None
        if not isinstance(gel_id, str):
            raise ValueError(f'{path}: entry {i}: not an object with a "gel_id" string')
        try:
            if gel_id in out:
                raise ValueError("listed twice")
            out[gel_id] = _check_warp_entry(entry)
        except ValueError as exc:
            raise ValueError(f"{path}: gel {gel_id}: {exc}") from None
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


def read_landmark_probs(path) -> dict:
    """{key: array of L} landmark hit probabilities of each lane of a
    write_landmarks file, in the file's order.  A missing field, a file with
    no lanes, or a lane whose row is not L numbers is named, with the
    file."""
    payload = _read_posterior_json(path)
    L = payload["L"]
    probs = {}
    for s, row in payload["lanes"].items():
        row = _array_or_none(row)
        try:
            if row is None or row.shape != (L,) or row.dtype.kind not in "iuf":
                raise ValueError(f"not a row of L = {L} numbers")
            probs[parse_lane_name(s)] = row.astype(float, copy=False)
        except ValueError as exc:
            raise ValueError(f"{path}: lane {s}: {exc}") from None
    return probs


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
