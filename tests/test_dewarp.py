import copy
import dataclasses
import itertools
import json
import math
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import invgamma, ks_2samp, truncnorm

from gelwarp.core import (
    GelwarpWarning,
    Standardizer,
    lane_name,
    parse_lane_name,
    standardize_intensities,
)
from gelwarp.dewarp import (
    LAMBDA_STEP,
    SCORE_ROWS,
    SIGMA_RATE,
    SIGMA_SHAPE,
    SWEEP_BLOCK,
    DewarpModel,
    ModelConfig,
    _ChainState,
    _explore_restarts,
    _sample,
    _summarize,
    read_landmark_probs,
    read_warp_json,
    read_zmap,
    run_mcmc,
    signatures,
    stationarity_check,
    write_chain_log,
    write_landmarks,
    write_signatures_csv,
    write_warp_json,
    write_zmap,
)
from gelwarp.peakdetect import Peak, PeakConfig, PeakTable, detect_peaks
from gelwarp.simulate import SimSpec, simulate_gels
from gelwarp.spline import WarpField, eval_warp, eval_warp_grid


def make_table(lanes: dict, B: int = 200, gel_id: str = "G1") -> PeakTable:
    """lanes: {lane: [locations]} with locations in (0, 1) trace units."""
    entries = []
    for lane, locs in sorted(lanes.items()):
        for j, loc in enumerate(sorted(locs), start=1):
            entries.append(
                Peak(gel_id, lane, j, int(round(loc * B)), loc, 1.0)
            )
    return PeakTable(tuple(entries), B)


def two_gel_peaks(seed=0, n_gels=2, lanes=5, amp=0.8, L=20):
    rng = np.random.default_rng(seed)
    spec = SimSpec(
        n_gels=n_gels, lanes_per_gel=lanes, B=400, L=L,
        signatures=((3, 9, 16), (5, 12, 18)),
        n_replicates=n_gels * lanes // 2,
        sigma_eps=0.15 / (L + 1), peak_width=0.005,
        warp_amplitude=amp / (L + 1),
    )
    grid, manifest, truth = simulate_gels(spec, rng)
    sgrid = standardize_intensities(grid)
    peaks = detect_peaks(sgrid, PeakConfig(h=9, c0=0.05))
    ref = {(g.gel_id, ln.index) for g in grid.gels for ln in g.lanes if ln.is_reference}
    return peaks.filter(lambda p: (p.gel_id, p.lane) not in ref), truth


def refresh(model, cs):
    """Recompute W and mu after a test sets beta or Z."""
    model._refresh(cs)


def warp_field(model, cs, gi=0):
    return WarpField(beta=cs.beta[0, gi].copy(), basis_nu=model.basis_nu,
                     basis_u=model.gels[gi].basis_u, bounds=model.bounds)


def lane_slices(model):
    """Each lane's (start, end) on the model's peak axis, in lane_key_list
    order."""
    ends = np.cumsum(model._lane_J).tolist()
    return list(zip([0] + ends[:-1], ends))


def lane_assignments(model, cs):
    """{(gel_id, lane): that lane's slice of chain 0's Z}"""
    return {key: cs.Z[0, start:end]
            for key, (start, end) in zip(model.lane_key_list, lane_slices(model))}


class TestModelConfig:
    def test_defaults_valid(self):
        cfg = ModelConfig()
        assert cfg.a0_value == pytest.approx(3.0 / 101)
        assert cfg.n_saved == 5000

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="L >= 2"):
            ModelConfig(L=1)
        with pytest.raises(ValueError, match="T_nu >= 4"):
            ModelConfig(T_nu=3)
        with pytest.raises(ValueError, match="narrower"):
            ModelConfig(L=10, a0=0.05)
        with pytest.raises(ValueError, match="burnin"):
            ModelConfig(iterations=100, burnin=100)
        # integer settings: a JSON float or bool names the setting up front
        with pytest.raises(ValueError, match=r"iterations must be an integer >= 1, got 300\.0"):
            ModelConfig(iterations=300.0)
        with pytest.raises(ValueError, match=r"L must be an integer, got 20\.0"):
            ModelConfig(L=20.0)
        with pytest.raises(ValueError, match="restarts must be an integer >= 1, got True"):
            ModelConfig(restarts=True)
        with pytest.raises(ValueError, match="seed must be an integer >= 0, got -1"):
            ModelConfig(seed=-1)
        # a0: true is not 1.0 (a whole-gel window), and NaN or text fails up front
        for a0, shown in ((True, "True"), (float("nan"), "nan"), (float("inf"), "inf"),
                          ("0.1", "'0.1'")):
            with pytest.raises(ValueError, match=f"a0 must be a finite number, got {shown}"):
                ModelConfig(a0=a0)
        assert ModelConfig(L=10, a0=1).a0_value == 1

    def test_restart_sweeps_cover_the_scoring_window(self):
        # each restart chain is scored on its last 25 sweeps
        with pytest.raises(ValueError, match="restart_sweeps must be an integer >= 25, got 24"):
            ModelConfig(restart_sweeps=24)
        assert ModelConfig(restart_sweeps=25).restart_sweeps == 25
        assert ModelConfig().restart_sweeps == 750


class TestZGibbsExact:
    """Blocked FFBS assignment draw against exhaustive enumeration on a
    two-peak lane (small analogue of the full million-draw check)."""

    def setup_instance(self):
        L, B = 5, 120
        peaks = make_table({2: [0.30, 0.70]}, B=B)
        cfg = ModelConfig(L=L, T_nu=4, T_u=4, iterations=10, burnin=0, seed=0)
        model = DewarpModel(peaks, cfg)
        cs = model.init_chain_state()
        lam = np.array([0.30, 0.05, 0.25, 0.10, 0.30])
        sigma = 0.8  # landmark spacings
        cs.lam[0], cs.lam_sum[0] = lam, float(lam.sum())
        cs.sigma_eps2[0] = sigma**2
        return model, cs, lam, sigma

    def exact_posterior(self, cfg, lam, sigma):
        # identity warp: fitted value at landmark ell is ell - (L+1)/2 in
        # spacing units; windows are |T - nu| < 3 spacings, strict
        L = cfg.L
        T = (np.array([0.30, 0.70]) - 0.5) * (L + 1)
        nu = np.arange(1, L + 1) - (L + 1) / 2.0
        probs = {}
        for z1 in range(1, L + 1):
            for z2 in range(z1 + 1, L + 1):
                if abs(T[0] - nu[z1 - 1]) >= 3.0 or abs(T[1] - nu[z2 - 1]) >= 3.0:
                    continue
                w = lam[z1 - 1] * lam[z2 - 1]
                w *= math.exp(-0.5 * ((T[0] - nu[z1 - 1]) / sigma) ** 2)
                w *= math.exp(-0.5 * ((T[1] - nu[z2 - 1]) / sigma) ** 2)
                probs[(z1, z2)] = w
        tot = sum(probs.values())
        return {k: v / tot for k, v in probs.items()}

    def test_empirical_matches_enumeration(self):
        model, cs, lam, sigma = self.setup_instance()
        exact = self.exact_posterior(model.cfg, lam, sigma)
        rngs = [np.random.default_rng(7)]
        counts = {}
        n = 150_000
        for _ in range(n):
            model.sweep_Z(cs, rngs)
            key = (int(cs.Z[0, 0]), int(cs.Z[0, 1]))
            counts[key] = counts.get(key, 0) + 1
        assert set(counts) <= set(exact)
        tv = 0.5 * sum(
            abs(counts.get(k, 0) / n - p) for k, p in exact.items()
        )
        assert tv < 0.02


class TestZBlockedDraw:
    """The blocked FFBS sweep on one gel whose lanes hold 1, 2 and 3 peaks,
    so the padded lane grid has empty slots, under a non-identity warp and
    tight windows: each lane's draws against exhaustive enumeration."""

    LANES = {1: [0.47], 2: [0.30, 0.62], 3: [0.22, 0.41, 0.70]}

    def exact_posterior(self, model, field, lam, sigma):
        # spacing units: landmark ell sits at ell - (L+1)/2, and the window
        # is |T - nu| < A_0, strict
        L = model.cfg.L
        a0 = model.cfg.a0_value * (L + 1)
        u_by_lane = dict(zip(model.gels[0].lanes, model.gels[0].u_std))
        exact = {}
        for lane, locs in self.LANES.items():
            T = (np.array(locs) - 0.5) * (L + 1)
            probs = {}
            for z in itertools.combinations(range(1, L + 1), len(locs)):
                nu = np.array(z) - (L + 1) / 2.0
                if np.any(np.abs(T - nu) >= a0):
                    continue
                mu = np.array([eval_warp(field, float(v), float(u_by_lane[lane]))
                               for v in nu])
                probs[z] = float(np.prod(lam[np.array(z) - 1])
                                 * np.exp(-0.5 * np.sum(((T - mu) / sigma) ** 2)))
            tot = sum(probs.values())
            exact[("G1", lane)] = {k: v / tot for k, v in probs.items()}
        return exact

    def test_each_lane_matches_enumeration(self):
        peaks = make_table(self.LANES, B=400)
        cfg = ModelConfig(L=8, T_nu=4, T_u=4, a0=2.2 / 9, iterations=10,
                          burnin=0, seed=0)
        model = DewarpModel(peaks, cfg)
        cs = model.init_chain_state()
        cs.beta[0, 0, 1, :] += [0.3, -0.2, 0.1, 0.25]
        cs.beta[0, 0, 2, :] += [-0.25, 0.15, 0.3, -0.1]
        refresh(model, cs)
        field = warp_field(model, cs)
        field.validate()
        lam = np.array([0.30, 0.05, 0.25, 0.10, 0.30, 0.20, 0.15, 0.40])
        sigma = 0.7  # landmark spacings
        cs.lam[0], cs.lam_sum[0] = lam, float(lam.sum())
        cs.sigma_eps2[0] = sigma**2
        exact = self.exact_posterior(model, field, lam, sigma)
        assert [len(p) for p in exact.values()] == [4, 15, 36]

        rngs = [np.random.default_rng(3)]
        n = 40_000
        counts = {key: {} for key in exact}
        for _ in range(n):
            model.sweep_Z(cs, rngs)
            Z = cs.Z[0]
            for k, (start, end) in enumerate(lane_slices(model)):
                z = tuple(int(v) for v in Z[start:end])
                c = counts[("G1", k + 1)]
                c[z] = c.get(z, 0) + 1
        assert model.count_violations(cs) == 0
        for key, probs in exact.items():
            assert set(counts[key]) <= set(probs), key
            tv = 0.5 * sum(abs(counts[key].get(z, 0) / n - p) for z, p in probs.items())
            assert tv < 0.02, (key, tv)

    def test_small_sigma_draw_is_ordered_without_warnings(self):
        # both peaks sit nearest landmark 11 of L=20; at sigma = 0.01
        # spacings every weight but the best underflows in linear scale
        peaks = make_table({1: [0.5238, 0.5262]}, B=10_000)
        cfg = ModelConfig(L=20, T_nu=4, T_u=4, iterations=10, burnin=0, seed=0)
        model = DewarpModel(peaks, cfg)
        cs = model.init_chain_state()
        cs.sigma_eps2[0] = 0.01**2
        rngs = [np.random.default_rng(0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(20):
                model.sweep_Z(cs, rngs)
                assert cs.Z.tolist() == [[11, 12]]
                assert np.all(np.isfinite(cs.mu))
        assert model.count_violations(cs) == 0

    def test_infeasible_lane_named(self):
        # a state built under a wide window, swept under one that bars
        # landmark 1: five ordered peaks no longer fit
        peaks = make_table({4: [0.60, 0.62, 0.64, 0.66, 0.68]}, B=400)
        wide = ModelConfig(L=5, T_nu=4, T_u=4, a0=0.6, iterations=10, burnin=0, seed=0)
        narrow = ModelConfig(L=5, T_nu=4, T_u=4, a0=2.0 / 6, iterations=10,
                             burnin=0, seed=0)
        model = DewarpModel(peaks, narrow)
        cs = DewarpModel(peaks, wide).init_chain_state()
        before = cs.Z.copy()
        with pytest.raises(ValueError, match="gel G1 lane 4"):
            model.sweep_Z(cs, [np.random.default_rng(0)])
        assert np.array_equal(cs.Z, before)


def full_grid_sweep_Z(model, cs, rng):
    """Reference for DewarpModel.sweep_Z on a one-chain state: the same FFBS
    draw run over all L landmarks of every padded (Jmax, N) slot, with a
    -inf mask outside each peak's window."""
    L = model.cfg.L
    J = model._lane_J
    N, Jmax = J.size, int(J.max())
    T_pad = np.zeros((Jmax, N))
    lo_pad = np.full((Jmax, N), L + 1)
    hi_pad = np.zeros((Jmax, N), dtype=np.intp)
    lane_of = np.repeat(np.arange(N), J)
    slot = (np.arange(lane_of.size) - (np.cumsum(J) - J)[lane_of]) * N + lane_of
    T_pad.flat[slot] = model._T_all[0]
    lo_pad.flat[slot] = np.maximum(model._wlo_all[0], slot // N + 1)
    hi_pad.flat[slot] = model._whi_all[0]
    ell = np.arange(1, L + 1)
    inside = (ell >= lo_pad[:, :, None]) & (ell <= hi_pad[:, :, None])
    rows = np.arange(N)
    A = T_pad[:, :, None] - cs.W[0, 1:-1].T
    A *= A
    A *= -0.5 / cs.sigma_eps2[0]
    A += np.log(cs.lam[0])
    A += np.where(inside, 0.0, -np.inf)
    np.logaddexp.accumulate(A[0], axis=1, out=A[0])
    for j in range(1, Jmax):
        A[j, :, 1:] += A[j - 1, :, :-1]
        np.logaddexp.accumulate(A[j], axis=1, out=A[j])
    assert A[J - 1, rows, L - 1].min() > -np.inf
    log_u = np.log1p(-rng.random((Jmax, N)))
    Z = np.empty((Jmax, N), dtype=np.intp)
    top = -1
    for j in range(Jmax - 1, -1, -1):
        v = A[j, rows, top] + log_u[j]
        Z[j] = (A[j] >= v[:, None]).argmax(axis=1)
        top = Z[j] - 1
    Z += 1
    cs.Z = Z.take(slot)[None]
    cs.mu = cs.W[0][cs.Z[0], lane_of][None]


def chain_shaped_peaks(seed, L=50, sigma_eps=0.1):
    """Sample-lane peaks of the benchmark's chain shape: 2 gels x 20 lanes,
    B = 500, three bands per signature; sigma_eps is the peak noise sd in
    landmark spacings."""
    rng = np.random.default_rng(seed)
    spec = SimSpec.from_dict({
        "n_gels": 2, "lanes_per_gel": 20, "B": 500, "L": L,
        "signatures": {"random": {"n_clusters": 20, "n_bands": 3, "min_sep": 3}},
        "n_replicates": 2, "warp_amplitude": 1.2 / (L + 1),
        "refwarp_amplitude": 0.01, "sigma_eps": sigma_eps / (L + 1),
    }, rng)
    grid, _, _ = simulate_gels(spec, rng)
    peaks = detect_peaks(standardize_intensities(grid), PeakConfig(h=8, c0=0.05))
    ref = {(g.gel_id, ln.index) for g in grid.gels for ln in g.lanes if ln.is_reference}
    return peaks.filter(lambda p: (p.gel_id, p.lane) not in ref)


class TestZBandedKernel:
    """sweep_Z works on each peak's band of admissible landmarks; its draws,
    peak means and generator stream must equal the full-grid reference's
    bit for bit, sweep after sweep of a running chain."""

    @staticmethod
    def widest_window(model):
        """Most admissible landmarks of any peak: its window, and for the
        (j+1)-th peak of a lane, landmarks above j."""
        starts = np.array([start for start, _ in lane_slices(model)])
        j = np.arange(model.n_peaks_total) - starts[model._lane_of]
        return int((model._whi_all[0] - np.maximum(model._wlo_all[0], j + 1) + 1).max())

    def check_against_reference(self, peaks, cfg, sweeps=200, seed=0):
        model = DewarpModel(peaks, cfg)
        Wb = self.widest_window(model)
        N = len(model.lane_key_list)
        Jmax = max(end - start for start, end in lane_slices(model))
        # no (Jmax, R, N, L) grid: a per-slot axis spans at most the band
        lane_grid = model._lane_grid(1)
        grids = {f.name: getattr(lane_grid, f.name).shape for f in dataclasses.fields(lane_grid)
                 if getattr(lane_grid, f.name).ndim == 4
                 and getattr(lane_grid, f.name).shape[:3] in ((Jmax, 1, N), (Jmax - 1, 1, N))}
        assert grids
        for name, shape in grids.items():
            assert shape[-1] <= Wb + 1, (name, shape)
        cs = model.init_chain_state()
        rng = np.random.default_rng(seed)
        moved = 0
        for _ in range(sweeps):
            ref_cs, ref_rng = copy.deepcopy(cs), copy.deepcopy(rng)
            before = cs.Z.copy()
            full_grid_sweep_Z(model, ref_cs, ref_rng)
            model.sweep_Z(cs, [rng])
            assert np.array_equal(cs.Z, ref_cs.Z)
            assert np.array_equal(cs.mu, ref_cs.mu)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            moved += int(np.any(cs.Z != before))
            model.sweep_beta(cs, [rng])
            model.sweep_hyper(cs, [rng])
        assert model.count_violations(cs) == 0
        assert moved > 0
        return model, Wb

    def test_chain_shaped_two_gels(self):
        peaks = chain_shaped_peaks(seed=1)
        cfg = ModelConfig(L=50, T_nu=6, T_u=4, iterations=10, burnin=0)
        model, Wb = self.check_against_reference(peaks, cfg, seed=1)
        assert len(model.gels) == 2 and Wb < cfg.L // 4

    def test_padded_lanes(self):
        peaks = make_table(TestZBlockedDraw.LANES, B=400)
        cfg = ModelConfig(L=8, T_nu=4, T_u=4, a0=2.2 / 9, iterations=10, burnin=0)
        self.check_against_reference(peaks, cfg, seed=3)

    def test_windows_clipped_at_both_ends(self):
        # peaks near 0 and 1 have windows cut off at landmark 1 and at L
        peaks = make_table({1: [0.03, 0.5, 0.96], 2: [0.05, 0.08, 0.93, 0.97]}, B=400)
        cfg = ModelConfig(L=12, T_nu=4, T_u=4, iterations=10, burnin=0)
        model, _ = self.check_against_reference(peaks, cfg, seed=5)
        assert model._wlo_all.min() == 1 and model._whi_all.max() == cfg.L

    def test_band_spans_all_landmarks(self):
        peaks = make_table({1: [0.2, 0.6], 2: [0.3, 0.5, 0.8]}, B=400)
        cfg = ModelConfig(L=6, T_nu=4, T_u=4, a0=0.9, iterations=10, burnin=0)
        _, Wb = self.check_against_reference(peaks, cfg, seed=7)
        assert Wb == cfg.L


def reference_scan(model, cs, rng):
    """One sweep of the coordinate-wise scan that the block draw replaced,
    as a test-only reference, on every chain of cs with Z and the variances
    held: each free coefficient in turn, s = 1..T_nu-2 and then t, from its
    univariate full conditional restricted to (beta[s-1, t], beta[s+1, t])
    by scipy.stats.truncnorm.  The chains share numpy passes, not draws."""
    cfg = model.cfg
    g_inc = model.id_incr
    se2 = cs.sigma_eps2
    for gi, gel in enumerate(model.gels):
        beta = cs.beta[:, gi]
        T = model._T_all[:, gel.peaks]
        BnZ = model.Bnu_land[cs.Z[:, gel.peaks]]
        mu = cs.mu[:, gel.peaks].copy()
        v1 = cs.sigma_g1_2[:, gi]
        for s in range(1, cfg.T_nu - 1):
            vs = cs.sigma_gs_2[:, gi, s - 1]
            for t in range(cfg.T_u):
                a = BnZ[:, :, s] * gel.BuP[:, t]
                prec = (a * a).sum(axis=1) / se2
                num = (a * (T - mu)).sum(axis=1) / se2 + prec * beta[:, s, t]
                if t > 0:
                    prec = prec + 1.0 / vs
                    num = num + beta[:, s, t - 1] / vs
                if t < cfg.T_u - 1:
                    prec = prec + 1.0 / vs
                    num = num + beta[:, s, t + 1] / vs
                if t == 0:
                    prec = prec + 1.0 / v1
                    num = num + (beta[:, s - 1, 0] + g_inc[s - 1]) / v1
                    if s <= cfg.T_nu - 3:
                        prec = prec + 1.0 / v1
                        num = num + (beta[:, s + 1, 0] - g_inc[s]) / v1
                mean, sd = num / prec, 1.0 / np.sqrt(prec)
                lo, hi = beta[:, s - 1, t], beta[:, s + 1, t]
                new = truncnorm.rvs((lo - mean) / sd, (hi - mean) / sd, loc=mean, scale=sd,
                                    random_state=rng)
                mu += a * (new - beta[:, s, t])[:, None]
                beta[:, s, t] = new
    refresh(model, cs)


class FixedNormals:
    """A generator stand-in whose standard normals are the given values."""

    def __init__(self, values):
        self.values = values

    def standard_normal(self, out):
        out[...] = self.values


STATE_FIELDS = ("lam", "lam_sum", "sigma_eps2", "beta", "Z", "sigma_g1_2", "sigma_gs_2")


def repeated_state(model, cs, n, **fields):
    """n copies of one-chain state cs as an n-chain state, with fields
    replaced."""
    arrays = {name: np.repeat(getattr(cs, name), n, axis=0) for name in STATE_FIELDS}
    return model._state(**{**arrays, **fields})


class TestBetaConditional:
    """The block draw of every gel's free warp coefficients, against the
    log joint's quadratic form and against the scan it replaced."""

    @staticmethod
    def small_model(sigma_eps, sigma_g):
        """Three lanes of three peaks on one gel, K = 12 free coefficients,
        with the variances set: wide ones make the truncation bind."""
        peaks = make_table({1: [0.2, 0.5, 0.8], 3: [0.25, 0.55, 0.85], 5: [0.3, 0.5, 0.9]},
                           B=200)
        model = DewarpModel(peaks, ModelConfig(L=8, T_nu=5, T_u=4, iterations=10, burnin=0))
        cs = model.init_chain_state()
        cs.sigma_eps2[:] = sigma_eps**2
        cs.sigma_g1_2[:] = cs.sigma_gs_2[:] = sigma_g**2
        return model, cs

    def test_block_moments_match_log_joint(self):
        # With Z and the variances fixed, the log joint is quadratic in the
        # free coefficients, so finite differences give its precision Q and
        # its gradient exactly, up to rounding.  The block draw is
        # solve(Q, b + C z): z = 0 gives the mode, and z = e_i the mode plus
        # column i of C'^-1, so the columns' outer products sum to Q^-1.
        # Both gels, one padded to the other's peak count, are checked at
        # once, on the axis of every gel's free coefficients.
        model = unequal_two_gel_model()
        cs = model.init_chain_state()
        rngs = [np.random.default_rng(8)]
        for _ in range(50):
            model.sweep(cs, rngs)
        G, m, T_u = len(model.gels), model.n_free_rows, model.cfg.T_u
        n = G * m * T_u

        def block_draw(z):
            st = copy.deepcopy(cs)
            model.sweep_beta(st, [FixedNormals(z.reshape(G, -1))])
            assert model.count_violations(st) == 0
            return st.beta[0, :, 1 : m + 1].ravel()

        mode = block_draw(np.zeros(n))
        cols = np.stack([block_draw(e) - mode for e in np.eye(n)], axis=1)
        cov = cols @ cols.T

        # the log joint at the mode, at mode +- h e_i and at mode + h (e_i +
        # e_j) for every i < j, as the chains of one state
        h, eye = 0.05, np.eye(n)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        steps = np.concatenate([np.zeros((1, n)), h * eye, -h * eye,
                                [h * (eye[i] + eye[j]) for i, j in pairs]])
        beta = np.repeat(cs.beta, len(steps), axis=0)
        beta[:, :, 1 : m + 1] = (mode + steps).reshape(len(steps), G, m, T_u)
        probe = repeated_state(model, cs, len(steps), beta=beta)
        assert not model.count_violations(probe).any()
        f = model.log_joint(probe, np.zeros(len(steps), dtype=int))
        f0, up, down = f[0], f[1 : n + 1], f[n + 1 : 2 * n + 1]
        Q = np.diag(-(up - 2.0 * f0 + down) / h**2)
        for (i, j), fij in zip(pairs, f[2 * n + 1 :]):
            Q[i, j] = Q[j, i] = -(fij - up[i] - up[j] + f0) / h**2
        grad = (up - down) / (2.0 * h)
        # the gels share nothing, and their draws do not mix
        assert np.abs(Q[: n // 2, n // 2 :]).max() < 1e-6 * np.abs(Q).max()
        assert not cov[: n // 2, n // 2 :].any()
        np.testing.assert_allclose(cov @ Q, np.eye(n), rtol=0, atol=1e-6)
        # the mode: a Newton step from it is below 1e-8 landmark spacings
        assert np.abs(np.linalg.solve(Q, grad)).max() < 1e-8

    def test_block_draw_matches_reference_scan(self):
        # 5000 block draws against 5000 of the scan, with Z and the
        # variances held and the variances wide enough that about 6 in 10
        # Gaussian draws are not monotone.  Each block draw is the end of its
        # own 30-sweep chain (a chain still at its start after 30 sweeps has
        # chance 0.63^30, about 1e-6), and the scan's are 1000 chains'
        # states after 100 sweeps and then every 10th.
        model, cs = self.small_model(sigma_eps=1.5, sigma_g=1.0)
        n, m = 5000, model.n_free_rows
        block = repeated_state(model, cs, n)
        rngs = [np.random.default_rng((3, r)) for r in range(n)]
        accepted = 0
        for _ in range(30):
            before = block.beta.copy()
            model.sweep_beta(block, rngs)
            accepted += int((block.beta != before).any(axis=(1, 2, 3)).sum())
        assert 0.2 < accepted / (30 * n) < 0.6
        assert not model.count_violations(block).any()
        scan = repeated_state(model, cs, 1000)
        rng = np.random.default_rng(4)
        ref = []
        for sweep in range(150):
            reference_scan(model, scan, rng)
            if sweep >= 100 and sweep % 10 == 9:
                ref.append(scan.beta.copy())
        assert not model.count_violations(scan).any()
        got = block.beta[:, 0, 1 : m + 1].reshape(n, -1)
        want = np.concatenate(ref)[:, 0, 1 : m + 1].reshape(n, -1)
        sd = want.std(axis=0)
        assert np.abs(got.mean(axis=0) - want.mean(axis=0)).max() < 0.1 * sd.min()
        ratio = got.std(axis=0) / sd
        assert 0.95 < ratio.min() and ratio.max() < 1.05
        assert min(ks_2samp(x, y).pvalue for x, y in zip(got.T, want.T)) > 1e-3

    def test_mostly_non_monotone_gaussian_keeps_valid_beta(self):
        # Wide variances make about 9 in 10 Gaussian draws non-monotone: a
        # gel that draws one keeps its beta bit for bit, one that draws a
        # monotone one takes it, and no sweep breaks a constraint.
        model, cs = self.small_model(sigma_eps=3.0, sigma_g=1.5)
        R = 50
        cs = repeated_state(model, cs, R)
        rngs = [np.random.default_rng((6, r)) for r in range(R)]
        kept = 0
        for _ in range(40):
            before = cs.beta.copy()
            model.sweep_beta(cs, rngs)
            moved = (cs.beta != before).any(axis=(1, 2, 3))
            assert np.array_equal(cs.beta[~moved], before[~moved])
            assert (np.diff(cs.beta, axis=2) > 0).all()
            assert not model.count_violations(cs).any()
            for r in range(R):
                assert np.array_equal(cs.mu[r], cs.W[r][cs.Z[r], model._lane_of])
            kept += int(moved.sum())
        assert 0 < kept < 0.25 * 40 * R


class TestHyperConditionals:
    def setup_state(self):
        peaks = make_table({1: [0.2, 0.5, 0.8], 2: [0.3, 0.6]}, B=200)
        cfg = ModelConfig(L=8, T_nu=4, T_u=4, iterations=10, burnin=0, seed=0)
        model = DewarpModel(peaks, cfg)
        s0 = model.init_chain_state()
        return peaks, cfg, model, s0

    def test_sigma_eps_conjugate(self):
        peaks, cfg, model, s0 = self.setup_state()
        # independent residual route: public warp evaluation per peak
        spacing = 1.0 / (cfg.L + 1)
        ax = Standardizer(center=0.5, scale=spacing)
        field = warp_field(model, s0)
        u_by_lane = dict(zip([1, 2], model.gels[0].u_std))
        ss = 0.0
        n = 0
        for (g, lane), zs in lane_assignments(model, s0).items():
            locs = [p.location for p in peaks.lane_peaks(g, lane)]
            for T, z in zip(ax.apply(np.array(locs)), zs):
                nu_z = -(cfg.L + 1) / 2.0 + float(z)
                mu = eval_warp(field, nu_z, float(u_by_lane[lane]))
                ss += (float(T) - mu) ** 2
                n += 1
        shape = SIGMA_SHAPE + 0.5 * n
        rate = SIGMA_RATE + 0.5 * ss

        rngs = [np.random.default_rng(9)]
        draws = []
        for _ in range(4000):
            cs = copy.deepcopy(s0)
            model.sweep_hyper(cs, rngs)
            draws.append(cs.sigma_eps2[0])
        draws = np.sort(draws)
        cdf = invgamma.cdf(draws, shape, scale=rate)
        emp = np.arange(1, len(draws) + 1) / len(draws)
        assert np.max(np.abs(emp - cdf)) < 0.03

    @staticmethod
    def scaled_lambda_sweep(model, Z, lam, tau, rng):
        """Test-only copy of the earlier (lambda, tau) kernel given Z: tau
        from its inverse-gamma conditional under an IG(1e-4, 1e-4) prior, the
        coordinate moves on log lambda under a half-normal of variance tau,
        then the joint rescaling lambda -> c lambda, tau -> c^2 tau.  Returns
        the new (lambda, tau)."""
        shape = rate = 1e-4
        L, P = model.cfg.L, model.n_peaks_total
        lam = lam.copy()
        tau = (rate + 0.5 * float(lam @ lam)) / rng.gamma(shape + 0.5 * L)
        counts = np.bincount(Z - 1, minlength=L)
        lam_sum = float(lam.sum())
        for ell in range(L):
            cur = lam[ell]
            x = math.log(cur)
            xp = x + rng.standard_normal() * LAMBDA_STEP
            lp = math.exp(xp)
            new_sum = lam_sum - cur + lp
            logr = ((counts[ell] + 1.0) * (xp - x) - P * (math.log(new_sum) - math.log(lam_sum))
                    - (lp * lp - cur * cur) * (0.5 / tau))
            if logr >= 0.0 or rng.random() < math.exp(logr):
                lam[ell], lam_sum = lp, new_sum
        logc = rng.standard_normal() * LAMBDA_STEP
        c2 = math.exp(2.0 * logc)
        logr = -2.0 * shape * logc - (rate / tau) * (1.0 / c2 - 1.0)
        if logr >= 0.0 or rng.random() < math.exp(logr):
            lam, tau = lam * math.exp(logc), tau * c2
        return lam, tau

    def test_lambda_star_matches_scaled_kernel(self):
        # only lambda* = lambda / sum(lambda) enters the likelihood and the Z
        # prior, and under iid half-normal lambda its law does not depend on
        # the scale, so dropping tau and its rescaling move leaves the lambda*
        # marginals given Z as they were.  sweep_hyper moves no Z or beta.
        peaks, cfg, model, s0 = self.setup_state()
        cs, rngs = copy.deepcopy(s0), [np.random.default_rng(10)]
        lam, tau, orng = s0.lam[0], 1.0, np.random.default_rng(77)
        # thinned past the draws' integrated autocorrelation time (about 20)
        n, thin = 500, 40
        new, old = np.empty((n, cfg.L)), np.empty((n, cfg.L))
        for k in range(n * thin):
            model.sweep_hyper(cs, rngs)
            lam, tau = self.scaled_lambda_sweep(model, s0.Z[0], lam, tau, orng)
            if k % thin == thin - 1:
                new[k // thin] = cs.lam[0] / cs.lam_sum[0]
                old[k // thin] = lam / lam.sum()
        assert np.array_equal(cs.Z, s0.Z) and np.array_equal(cs.beta, s0.beta)
        assert np.isfinite(tau) and tau > 0
        for ell in range(cfg.L):
            assert ks_2samp(new[:, ell], old[:, ell]).pvalue > 1e-3, ell

    @staticmethod
    def coordinate_loop_sweep(model, cs, rng):
        """The variance updates as one scalar draw at a time, and the lambda
        scan that sweep_hyper's augmented block step replaced, which moves
        one coordinate at a time and carries lambda's running sum: the
        reference kernel, on a one-chain state."""
        cfg, L = model.cfg, model.cfg.L
        inv_gamma = lambda shape, rate: rate / rng.gamma(shape)  # noqa: E731
        lam = cs.lam[0]
        mu = cs.mu[0]
        resid = model._T_all[0] - mu
        ss = sum(float(resid[gel.peaks] @ resid[gel.peaks]) for gel in model.gels)
        cs.sigma_eps2[0] = inv_gamma(SIGMA_SHAPE + 0.5 * model.n_peaks_total,
                                     SIGMA_RATE + 0.5 * ss)
        for gi in range(len(model.gels)):
            beta = cs.beta[0, gi]
            d = np.diff(beta[: cfg.T_nu - 1, 0]) - model.id_incr
            cs.sigma_g1_2[0, gi] = inv_gamma(SIGMA_SHAPE + 0.5 * (cfg.T_nu - 2),
                                             SIGMA_RATE + 0.5 * float(d @ d))
            inc = np.diff(beta[1 : cfg.T_nu - 1, :], axis=1)
            ssq = np.sum(inc * inc, axis=1)
            for s in range(model.n_free_rows):
                cs.sigma_gs_2[0, gi][s] = inv_gamma(SIGMA_SHAPE + 0.5 * (cfg.T_u - 1),
                                                    SIGMA_RATE + 0.5 * float(ssq[s]))
        counts = sum(np.bincount(cs.Z[0, gel.peaks] - 1, minlength=L) for gel in model.gels)
        noise = rng.standard_normal(L) * LAMBDA_STEP
        uls = rng.random(L)
        accepted = 0
        for ell in range(L):
            cur = lam[ell]
            x = math.log(cur)
            xp = x + noise[ell]
            lp = math.exp(xp)
            new_sum = cs.lam_sum[0] - cur + lp
            logr = ((counts[ell] + 1.0) * (xp - x)
                    - model.n_peaks_total * (math.log(new_sum) - math.log(cs.lam_sum[0]))
                    - (lp * lp - cur * cur) * 0.5)
            if logr >= 0.0 or uls[ell] < math.exp(logr):
                lam[ell], cs.lam_sum[0] = lp, new_sum
                accepted += 1
        return accepted / L

    def test_sweep_matches_coordinate_loop_reference(self):
        # the variances come first on the same random stream, so they match
        # the reference; lambda then takes another exact kernel, so its
        # lambda* marginals given Z must match the reference's in law
        peaks, cfg, model, s0 = self.setup_state()
        rngs = [np.random.default_rng(12)]
        cs = s0
        for k in range(60):
            model.sweep(cs, rngs)
            a, b = copy.deepcopy(cs), copy.deepcopy(cs)
            model.sweep_hyper(a, [np.random.default_rng(k)])
            self.coordinate_loop_sweep(model, b, np.random.default_rng(k))
            assert a.sigma_eps2[0] == pytest.approx(b.sigma_eps2[0], rel=1e-12)
            np.testing.assert_array_equal(a.sigma_g1_2, b.sigma_g1_2)
            np.testing.assert_array_equal(a.sigma_gs_2, b.sigma_gs_2)

        a, b = copy.deepcopy(s0), copy.deepcopy(s0)
        rng, ref_rng = [np.random.default_rng(13)], np.random.default_rng(78)
        # thinned past either kernel's integrated autocorrelation time (at
        # most about 30 on this model)
        n, thin = 500, 40
        new, old = np.empty((n, cfg.L)), np.empty((n, cfg.L))
        for k in range(n * thin):
            model.sweep_hyper(a, rng)
            self.coordinate_loop_sweep(model, b, ref_rng)
            if k % thin == thin - 1:
                new[k // thin] = a.lam[0] / a.lam_sum[0]
                old[k // thin] = b.lam[0] / b.lam_sum[0]
        assert np.array_equal(a.Z, s0.Z) and np.array_equal(a.beta, s0.beta)
        for ell in range(cfg.L):
            assert ks_2samp(new[:, ell], old[:, ell]).pvalue > 1e-3, ell

    def test_lambda_moves_accept_some(self):
        peaks, cfg, model, s0 = self.setup_state()
        rngs = [np.random.default_rng(11)]
        cs = s0
        rates = [model.sweep_hyper(cs, rngs) for _ in range(50)]
        assert 0.05 < float(np.mean(rates)) <= 1.0
        assert np.all(cs.lam > 0)

    def test_lambda_scale_holds_on_a_long_chain(self):
        # lambda's unit half-normal prior fixes its scale, which no likelihood
        # term sees; with a free scale under a vague prior, such chains on
        # this model had hyper terms spanning 770-1430 nats and lambda up to 5e8
        model = chain_shaped_model()
        cs = model.init_chain_state()
        rngs = [np.random.default_rng(3)]
        hyper = []
        for it in range(1200):
            model.sweep(cs, rngs)
            assert np.all(np.isfinite(cs.lam)) and np.all(cs.lam > 0)
            assert cs.lam.max() < 20.0
            if it >= 200:
                hyper.append(model.log_joint_components(cs, model.count_violations(cs))["hyper"][0])
        assert np.ptp(hyper) < 100.0


def unequal_two_gel_model(**settings):
    """Two gels with 5 and 3 lanes and different peak counts."""
    peaks, _ = two_gel_peaks(seed=6)
    peaks = peaks.filter(lambda p: p.gel_id == "g1" or p.lane <= 3)
    cfg = ModelConfig(**{"L": 20, "T_nu": 6, "T_u": 4, "iterations": 10, "burnin": 0,
                         "seed": 0, **settings})
    return DewarpModel(peaks, cfg)


def chain_shaped_model(sigma_eps=0.1, **settings):
    cfg = ModelConfig(**{"L": 50, "T_nu": 6, "T_u": 4, "iterations": 10, "burnin": 0,
                         **settings})
    return DewarpModel(chain_shaped_peaks(seed=2, sigma_eps=sigma_eps), cfg)


def noisy_chain_model(**settings):
    """chain_shaped_model with peaks three times as noisy, 0.3 landmark
    spacings: the restart chains settle at a residual scale above 0.15
    spacings, so any cap on sigma_eps near that scale would change them."""
    return chain_shaped_model(sigma_eps=0.3, **settings)


def assert_same_state(a, b):
    """Every field of two chain states equal, bit for bit."""
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert x.dtype == y.dtype and np.array_equal(x, y), f.name


def block_sweeps(model, cs, rngs, sweeps):
    """Sweeps cs one sweep at a time on the draws _sample takes, SWEEP_BLOCK
    sweeps' worth at a time from each chain's generator (the last block the
    rest), and yields each sweep's index after it."""
    for start in range(0, sweeps, SWEEP_BLOCK):
        draws = model.draw_sweeps(rngs, min(SWEEP_BLOCK, sweeps - start))
        for s in range(len(draws["z_log_u"])):
            model.sweep(cs, draws, s)
            yield start + s


class TestStateLayout:
    """The chain state as arrays on two gels of unequal size: after every
    block, in every chain, mu is W at (Z, lane), each gel's W block is
    B_nu beta_g B_u' and lam_sum is lam's sum, bit for bit, with no broken
    constraint."""

    def test_unequal_gels(self):
        self.check_layout(chains=1)

    def test_unequal_gels_three_chains(self):
        self.check_layout(chains=3)

    @staticmethod
    def check_layout(chains):
        model = unequal_two_gel_model()
        cfg = model.cfg
        g1, g2 = model.gels
        assert len(g1.lanes) != len(g2.lanes) and g1.n_peaks != g2.n_peaks
        # the gels tile the peak axis and W's lane columns in lane_key_list order
        P, N = model.n_peaks_total, len(model.lane_key_list)
        assert (g1.peaks, g1.cols) == (slice(0, g1.n_peaks), slice(0, len(g1.lanes)))
        assert (g2.peaks, g2.cols) == (slice(g1.n_peaks, P), slice(len(g1.lanes), N))
        for gel in model.gels:
            assert model.lane_key_list[gel.cols] == [(gel.gel_id, lane) for lane in gel.lanes]
        lane_col = model._lane_of

        R = chains
        cs = model.init_chain_state(R)
        assert cs.lam.shape == (R, cfg.L)
        assert cs.lam_sum.shape == cs.sigma_eps2.shape == (R,)
        assert cs.Z.shape == cs.mu.shape == (R, P)
        assert cs.W.shape == (R, cfg.L + 2, N)
        assert cs.beta.shape == (R, 2, cfg.T_nu, cfg.T_u)
        assert cs.sigma_g1_2.shape == (R, 2) and cs.sigma_gs_2.shape == (R, 2, cfg.T_nu - 2)
        rngs = [np.random.default_rng((2, r)) for r in range(R)]
        moved = 0
        for _ in range(40):
            before = cs.Z.copy()
            for step in (model.sweep_Z, model.sweep_beta, model.sweep_hyper):
                step(cs, rngs)
                for r in range(R):
                    assert np.array_equal(cs.mu[r], cs.W[r][cs.Z[r], lane_col]), step.__name__
                    for gi, gel in enumerate(model.gels):
                        want = model.Bnu_land @ cs.beta[r, gi] @ gel.Bu.T
                        assert np.array_equal(cs.W[r][:, gel.cols], want), (step.__name__, gi)
                assert np.array_equal(cs.lam_sum, cs.lam.sum(axis=1)), step.__name__
                assert not model.count_violations(cs).any(), step.__name__
            moved += int(np.any(cs.Z != before))
        assert moved > 0
        if R > 1:
            # independent streams: the chains have left their common start
            assert not np.array_equal(cs.Z[0], cs.Z[1])

    def test_generator_count_must_match_chains(self):
        model = unequal_two_gel_model()
        cs = model.init_chain_state(2)
        for step in (model.sweep_Z, model.sweep_beta, model.sweep_hyper):
            with pytest.raises(ValueError, match="1 generators for a state of 2 chains"):
                step(cs, [np.random.default_rng(0)])


class TestLockstep:
    """R chains swept together, each with its own generator, equal the same
    chains swept one at a time, bit for bit: every state field after every
    sweep, and every generator's state."""

    @pytest.mark.parametrize("make_model", [unequal_two_gel_model, chain_shaped_model])
    def test_lockstep_equals_chains_alone(self, make_model):
        model = make_model()
        R, sweeps = 3, 200
        together = model.init_chain_state(R)
        rngs = [np.random.default_rng((4, 911, r)) for r in range(R)]
        alone = [model.init_chain_state() for _ in range(R)]
        alone_rngs = [np.random.default_rng((4, 911, r)) for r in range(R)]
        for _ in range(sweeps):
            rate = model.sweep(together, rngs)
            rates = [model.sweep(cs, [rng]) for cs, rng in zip(alone, alone_rngs)]
            L = model.cfg.L
            assert round(rate * R * L) == sum(round(x * L) for x in rates)
            for r in range(R):
                assert_same_state(together.chain(r), alone[r])
            assert ([g.bit_generator.state for g in rngs]
                    == [g.bit_generator.state for g in alone_rngs])
            assert not model.count_violations(together).any()
        assert np.array_equal(
            model.log_joint(together, model.count_violations(together)),
            np.concatenate([model.log_joint(cs, model.count_violations(cs)) for cs in alone]))
        # not vacuous: the chains have left their common start apart (on the
        # chain-shaped peaks every chain may reach the same Z)
        assert not np.array_equal(together.beta[0], together.beta[1])

    @staticmethod
    def serial_explore_restarts(model, cfg):
        """The restart phase as one chain after another on its own state,
        each under the unchanged kernel for restart_sweeps sweeps, on its
        generator's draws taken a block at a time (block_sweeps), and scored
        on the last 25.
        Returns the winner's index, every chain's final state and the
        violation count."""
        states = []
        viol = 0
        sweeps = cfg.restart_sweeps
        best, best_score = None, -np.inf
        for i in range(cfg.restarts):
            rngs = [np.random.default_rng((cfg.seed, 911, i))]
            cs = model.init_chain_state()
            tail = []
            for it in block_sweeps(model, cs, rngs, sweeps):
                bad = model.count_violations(cs)
                viol += int(bad[0])
                if it >= sweeps - 25:
                    tail.append(float(model.log_joint(cs, bad)[0]))
            score = float(np.mean(tail))
            states.append(cs)
            if score > best_score:
                best, best_score = i, score
        return best, states, viol

    @pytest.mark.parametrize("restarts", [2, 4])
    @pytest.mark.parametrize("make_model",
                             [unequal_two_gel_model, chain_shaped_model, noisy_chain_model])
    def test_restarts_match_serial_loop(self, make_model, restarts):
        model = make_model(seed=3, restarts=restarts, restart_sweeps=90)
        cs, viol = _explore_restarts(model, model.init_chain_state(restarts), model.cfg)
        best, states, serial_viol = self.serial_explore_restarts(model, model.cfg)
        assert viol == serial_viol == 0
        assert_same_state(cs, states[best])
        same = []
        for i, st in enumerate(states):
            if all(np.array_equal(getattr(cs, f.name), getattr(st, f.name))
                   for f in dataclasses.fields(cs)):
                same.append(i)
        assert same == [best]

    def test_batched_scores_equal_per_sweep_log_joint(self):
        # _sample scores its saved draws after the loop, SCORE_ROWS at a time
        # from the saved beta and Z; each score equals log_joint on the live
        # state of its sweep, bit for bit, across chunk boundaries and
        # thinning.  The live chains sweep on the same block draws.
        model = chain_shaped_model()
        R, sweeps, keep = 3, 300, range(7, 300, 2)
        assert R * len(keep) % SCORE_ROWS and R * len(keep) > 2 * SCORE_ROWS
        cs = model.init_chain_state(R)
        rngs = [np.random.default_rng((5, 911, r)) for r in range(R)]
        live = model.init_chain_state(R)
        live_rngs = [np.random.default_rng((5, 911, r)) for r in range(R)]
        (Z, beta, lam, trace), viol, _ = _sample(model, cs, rngs, sweeps, keep)
        want = np.empty((R, len(keep)))
        assert sweeps % SWEEP_BLOCK
        for it in block_sweeps(model, live, live_rngs, sweeps):
            if it in keep:
                want[:, keep.index(it)] = model.log_joint(live, model.count_violations(live))
        assert viol == 0
        assert_same_state(cs, live)
        assert [g.bit_generator.state for g in rngs] == [g.bit_generator.state for g in live_rngs]
        assert np.array_equal(trace, want.ravel())
        assert np.array_equal(Z[len(keep) - 1 :: len(keep)], live.Z)
        assert np.array_equal(beta[len(keep) - 1 :: len(keep)], live.beta)
        assert np.array_equal(lam[len(keep) - 1 :: len(keep)], live.lam)

    def test_winner_is_first_strictly_best(self, monkeypatch):
        # a tie keeps the earlier chain, and a NaN never wins
        model = unequal_two_gel_model(restarts=4, restart_sweeps=30)
        scores = np.array([np.nan, -5.0, -5.0, -7.0])
        # one score per saved row, the rows chain after chain, 25 a chain
        rows = iter(np.repeat(scores, 25))
        monkeypatch.setattr(DewarpModel, "log_joint",
                            lambda self, cs, violations: np.array([next(rows) for _ in cs.lam]))
        picked = []
        chain = _ChainState.chain
        monkeypatch.setattr(_ChainState, "chain",
                            lambda self, r: picked.append(r) or chain(self, r))
        _explore_restarts(model, model.init_chain_state(model.cfg.restarts), model.cfg)
        assert picked == [1]

    @pytest.mark.parametrize("score", [np.nan, -np.inf])
    def test_no_finite_restart_score_fails_clearly(self, monkeypatch, score):
        # before, the run died on `None.W` when no restart beat -inf
        peaks, _ = two_gel_peaks(seed=6)
        cfg = ModelConfig(L=20, T_nu=6, T_u=4, iterations=10, burnin=0, seed=0,
                          restarts=2, restart_sweeps=30)
        monkeypatch.setattr(DewarpModel, "log_joint",
                            lambda self, cs, violations: np.full(len(cs.lam), score))
        msg = f"no restart reached a finite settled log joint; scores by restart: {score!r}, {score!r}"
        with pytest.raises(ValueError, match=re.escape(msg)):
            run_mcmc(peaks, cfg)


class TestSweepBlocks:
    """_sample draws each chain's randomness and counts the violations a
    block of SWEEP_BLOCK sweeps at a time."""

    def test_block_of_one_is_the_per_sweep_loop(self, monkeypatch):
        # a block of one sweep is one sweep's stream: _sample then equals
        # a loop that sweeps on the generators and counts after each sweep
        monkeypatch.setattr("gelwarp.dewarp.SWEEP_BLOCK", 1)
        model = chain_shaped_model()
        R, sweeps, keep = 2, 70, range(5, 70, 3)
        cs = model.init_chain_state(R)
        rngs = [np.random.default_rng((6, 911, r)) for r in range(R)]
        (Z, beta, lam, trace), viol, accept = _sample(model, cs, rngs, sweeps, keep)
        live = model.init_chain_state(R)
        live_rngs = [np.random.default_rng((6, 911, r)) for r in range(R)]
        want = {name: np.empty((R, len(keep)) + a.shape[1:], a.dtype)
                for name, a in (("Z", live.Z), ("beta", live.beta), ("lam", live.lam))}
        want_trace = np.empty((R, len(keep)))
        want_viol, want_accept = 0, 0.0
        for it in range(sweeps):
            want_accept += model.sweep(live, live_rngs)
            bad = model.count_violations(live)
            want_viol += int(bad.sum())
            if it in keep:
                k = keep.index(it)
                for name, a in want.items():
                    a[:, k] = getattr(live, name)
                want_trace[:, k] = model.log_joint(live, bad)
        assert_same_state(cs, live)
        assert [g.bit_generator.state for g in rngs] == [g.bit_generator.state for g in live_rngs]
        for name, got in (("Z", Z), ("beta", beta), ("lam", lam)):
            assert np.array_equal(got, want[name].reshape(got.shape)), name
        assert np.array_equal(trace, want_trace.ravel())
        assert (viol, accept) == (want_viol, want_accept)

    @staticmethod
    def planted(monkeypatch, chains, at):
        """Wraps DewarpModel.sweep so that after sweep ``at`` each chain in
        ``chains`` holds a first coefficient lifted off its pinned bound in
        gel 0, restored before the next sweep: one broken state a chain,
        which its later sweeps never see.  count_violations' counts are
        recorded, one array a call."""
        calls, counts, kept = [], [], []
        sweep, count = DewarpModel.sweep, DewarpModel.count_violations

        def planting(self, cs, *args):
            if calls and calls[-1] == at:
                cs.beta[chains, 0, 0, 0] = kept.pop()
            rate = sweep(self, cs, *args)
            calls.append(len(calls))
            if calls[-1] == at:
                kept.append(cs.beta[chains, 0, 0, 0])
                cs.beta[chains, 0, 0, 0] = kept[0] + 0.5
            return rate

        monkeypatch.setattr(DewarpModel, "sweep", planting)
        monkeypatch.setattr(DewarpModel, "count_violations",
                            lambda self, cs: counts.append(count(self, cs)) or counts[-1])
        return calls, counts

    @pytest.mark.parametrize("sweeps, keep, at", [
        (70, range(40, 70), 66),
        (130, range(1, 130, 4), 97),
    ])
    def test_lockstep_equals_chains_alone(self, monkeypatch, sweeps, keep, at):
        # sweep counts that are not multiples of the block length, so the
        # last block is partial; a broken state planted in the second block
        # in chain 1 is counted on its sweep only, and its kept row scores
        # -inf.  Each chain run alone through _sample on its own generator
        # gives that chain's rows of the lockstep run, bit for bit.
        assert sweeps % SWEEP_BLOCK and SWEEP_BLOCK <= at < 2 * SWEEP_BLOCK
        model = chain_shaped_model()
        R, K, broken = 3, len(keep), 1
        calls, counts = self.planted(monkeypatch, [broken], at)
        cs = model.init_chain_state(R)
        rngs = [np.random.default_rng((7, 911, r)) for r in range(R)]
        (Z, beta, lam, trace), viol, accept = _sample(model, cs, rngs, sweeps, keep)
        assert len(calls) == sweeps
        assert len(counts) == math.ceil(sweeps / SWEEP_BLOCK)
        per_state = np.concatenate(counts).reshape(sweeps, R)
        assert per_state.sum() == per_state[at, broken] == viol == 1
        row = broken * K + keep.index(at)
        assert np.isneginf(trace[row]) and np.isfinite(np.delete(trace, row)).all()
        assert beta[row, 0, 0, 0] == model.bounds[0] + 0.5

        alone_accept = 0.0
        for r in range(R):
            monkeypatch.undo()
            calls, counts = self.planted(monkeypatch, [0] if r == broken else [], at)
            one = model.init_chain_state()
            rng = np.random.default_rng((7, 911, r))
            (Z1, beta1, lam1, trace1), viol1, accept1 = _sample(model, one, [rng], sweeps, keep)
            part = slice(r * K, (r + 1) * K)
            for got, want in ((Z, Z1), (beta, beta1), (lam, lam1), (trace, trace1)):
                assert np.array_equal(got[part], want)
            assert viol1 == (r == broken)
            assert_same_state(cs.chain(r), one)
            assert rng.bit_generator.state == rngs[r].bit_generator.state
            alone_accept += accept1
        assert accept * R == pytest.approx(alone_accept, rel=1e-12)


class TestConstraints:
    def test_violation_counter_flags_bad_states(self):
        # lanes 1 and 2 can swap their first two landmarks without leaving
        # a window; lane 3's single peak cannot reach landmark 1
        peaks = make_table({1: [0.40, 0.45, 0.8], 2: [0.40, 0.45, 0.8], 3: [0.8]}, B=200)
        cfg = ModelConfig(L=8, T_nu=4, T_u=4, iterations=10, burnin=0, seed=0)
        model = DewarpModel(peaks, cfg)
        cs = model.init_chain_state()
        assert model.count_violations(cs) == 0

        def broken(*edits):
            bad = model.init_chain_state()
            for edit in edits:
                edit(bad)
            return model.count_violations(bad)

        def swap_beta(s):
            b = s.beta[0, 0]
            b[1, 0], b[2, 0] = b[2, 0], b[1, 0]

        def unpin(s):
            s.beta[0, 0, 0, 0] += 0.5

        def lane(k):
            def edit(s):
                start, _ = lane_slices(model)[k]
                s.Z[0, start + 1] = s.Z[0, start]
            return edit

        def outside(s):
            s.Z[0, -1] = 1

        def negative_lambda(s):
            s.lam[0, 2] = -1.0

        assert broken(swap_beta) == 1
        assert broken(unpin) == 1
        assert broken(lane(0)) == 1
        assert broken(lane(0), lane(1)) == 2
        assert broken(outside) == 1
        assert broken(negative_lambda) == 1
        assert broken(swap_beta, unpin, lane(0), lane(1), outside, negative_lambda) == 6

        # chains are counted apart, and the log joint is -inf only in a
        # broken chain
        three = model.init_chain_state(3)
        for r, edits in ((1, (swap_beta, lane(0))), (2, (lane(0), lane(1), negative_lambda))):
            one = three.chain(r)
            for edit in edits:
                edit(one)
            for f in dataclasses.fields(three):
                getattr(three, f.name)[r] = getattr(one, f.name)[0]
        counts = model.count_violations(three)
        assert counts.tolist() == [0, 2, 3]
        lj = model.log_joint(three, counts)
        assert np.isfinite(lj[0]) and lj[1] == lj[2] == -np.inf

    def test_init_state_admissible(self):
        peaks, _ = two_gel_peaks(seed=1)
        cfg = ModelConfig(L=20, T_nu=5, T_u=4, iterations=10, burnin=0, seed=0)
        model = DewarpModel(peaks, cfg)
        cs = model.init_chain_state()
        assert model.count_violations(cs) == 0
        for start, end in lane_slices(model):
            z = cs.Z[0, start:end]
            assert np.all(np.diff(z) > 0)

    def test_infeasible_window_named(self):
        # five right-shifted peaks: the window bars landmark 1, leaving only
        # four admissible slots for five ordered peaks
        locs = [0.60, 0.62, 0.64, 0.66, 0.68]
        peaks = make_table({4: locs}, B=400)
        cfg = ModelConfig(L=5, T_nu=4, T_u=4, a0=2.0 / 6, iterations=10,
                          burnin=0, seed=0)
        model = DewarpModel(peaks, cfg)
        with pytest.raises(ValueError, match="gel G1 lane 4"):
            model.init_chain_state()

    def test_full_run_zero_violations(self):
        peaks, _ = two_gel_peaks(seed=2)
        cfg = ModelConfig(L=20, T_nu=5, T_u=4, iterations=300, burnin=100,
                          seed=1, restarts=2, restart_sweeps=60)
        res = run_mcmc(peaks, cfg)
        assert res.violations == 0


def sort_based_count_violations(model, cs):
    """count_violations before it read spline.warp_violations and reduced
    over lane and gel start offsets, kept as a reference: its pinned-row
    test (> 1e-9) passes a NaN, and it finds the broken lanes and gels
    through np.nonzero, np.unique and np.bincount."""
    lo, hi = model.bounds
    beta, Z = cs.beta, cs.Z
    R = len(Z)
    pair_lane = model._lane_of[1:]
    same_lane = (model._lane_of[1:] == model._lane_of[:-1])[None]
    gel_of = np.repeat(np.arange(len(model.gels)), [g.n_peaks for g in model.gels])
    bad = (~np.all(np.diff(beta, axis=2) > 0, axis=(2, 3))).sum(axis=1)
    unpinned = (np.abs(beta[:, :, 0, :] - lo) > 1e-9) | (np.abs(beta[:, :, -1, :] - hi) > 1e-9)
    bad += unpinned.any(axis=2).sum(axis=1)
    broken = (np.diff(Z) <= 0) & same_lane
    if broken.any():
        chain, pair = np.nonzero(broken)
        bad += np.bincount(np.unique([chain, pair_lane[pair]], axis=1)[0], minlength=R)
    outside = (Z < model._wlo_all) | (Z > model._whi_all)
    if outside.any():
        chain, peak = np.nonzero(outside)
        bad += np.bincount(np.unique([chain, gel_of[peak]], axis=1)[0], minlength=R)
    bad += (cs.lam <= 0).any(axis=1)
    return bad


def nan_only_unpinned(model, cs):
    """Per chain, the gels whose boundary rows hold a NaN but no number off
    its bound: count_violations counts them as unpinned and the sort-based
    reference does not."""
    edge = cs.beta[:, :, [0, -1]]
    off = np.abs(edge - np.array(model.bounds)[:, None]) > 1e-9
    return (np.isnan(edge).any(axis=(2, 3)) & ~off.any(axis=(2, 3))).sum(axis=1)


def break_randomly(model, cs, rng):
    """Put one to five random breaks into each chain of cs: a swap of two
    adjacent coefficients in a column, a boundary coefficient moved (by
    5e-10, inside the tolerance, or by more), a NaN coefficient, a peak
    assigned at or below the one before it in its lane, a peak assigned
    outside its window, or a lambda <= 0."""
    G, (_, T_nu, T_u) = len(model.gels), cs.beta.shape[1:]
    later = np.flatnonzero(model._peak_row > 0)
    P, L = cs.Z.shape[1], cs.lam.shape[1]
    for r in range(len(cs.Z)):
        for kind in rng.integers(6, size=rng.integers(1, 6)):
            g, t = rng.integers(G), rng.integers(T_u)
            if kind == 0:
                s = rng.integers(T_nu - 1)
                col = cs.beta[r, g, :, t]
                col[s], col[s + 1] = col[s + 1], col[s]
            elif kind == 1:
                cs.beta[r, g, rng.choice([0, -1]), t] += rng.choice([-1, 1]) * rng.choice([5e-10, 0.2])
            elif kind == 2:
                cs.beta[r, g, rng.integers(T_nu), t] = np.nan
            elif kind == 3:
                p = rng.choice(later)
                cs.Z[r, p] = cs.Z[r, p - 1] - rng.integers(2)
            elif kind == 4:
                p = rng.integers(P)
                cs.Z[r, p] = (model._wlo_all[0, p] - 1 if rng.random() < 0.5
                              else model._whi_all[0, p] + 1)
            else:
                cs.lam[r, rng.integers(L)] = -rng.choice([0.0, 0.5])


class TestViolationCounter:
    @staticmethod
    def model():
        """Three gels of one- to four-peak lanes, with one-peak lanes first
        and last on the peak axis and inside it."""
        layout = {"g1": {1: [80], 2: [80, 160, 300], 3: [90, 170, 260]},
                  "g2": {1: [100, 200, 250, 330], 2: [120], 4: [110, 240]},
                  "g3": {2: [60, 200], 3: [70, 190, 280], 5: [310]}}
        cfg = ModelConfig(L=12, T_nu=5, T_u=4, iterations=10, burnin=0, seed=0)
        return DewarpModel(table_from(layout), cfg)

    @pytest.mark.parametrize("R", [1, 4])
    def test_equals_sort_based_reference(self, R):
        # 2000 random broken states of R chains; the counts agree except
        # where a NaN sits in a boundary row with no number off its bound,
        # which now also counts as unpinned, one for its gel
        model = self.model()
        rng = np.random.default_rng(34 + R)
        assert not model.count_violations(model.init_chain_state(R)).any()
        differ = 0
        for _ in range(2000):
            cs = model.init_chain_state(R)
            break_randomly(model, cs, rng)
            want = sort_based_count_violations(model, cs)
            extra = nan_only_unpinned(model, cs)
            got = model.count_violations(cs)
            assert got.tolist() == (want + extra).tolist()
            differ += int(extra.any())
        assert differ > 100

    def test_nan_in_pinned_row_counts_as_unpinned(self):
        model = self.model()
        cs = model.init_chain_state()
        cs.beta[0, 1, 0, 2] = np.nan
        assert sort_based_count_violations(model, cs).tolist() == [1]
        assert model.count_violations(cs).tolist() == [2]

    def test_nan_lambda_counts(self):
        # a NaN is not positive, so it breaks the lambda rule as it breaks the warp's
        model = self.model()
        cs = model.init_chain_state(2)
        cs.lam[0, 2] = np.nan
        assert model.count_violations(cs).tolist() == [1, 0]


def table_from(layout: dict, B: int = 400) -> PeakTable:
    """A PeakTable listing gels and lanes in the layout's order: {gel_id:
    {lane: [bins]}}, each peak at location bin / B."""
    entries = []
    for gel_id, lanes in layout.items():
        for lane, bins in lanes.items():
            for j, b in enumerate(sorted(bins), start=1):
                entries.append(Peak(gel_id, lane, j, b, b / B, 1.0))
    return PeakTable(tuple(entries), B)


def per_lane_greedy_start(model, peaks):
    """Test-only copy of init_chain_state's greedy start as it ran gel by
    gel and lane by lane, on each lane's locations and windows built from
    the peak table.  Returns Z over the peaks, lanes sorted within sorted
    gels."""
    cfg = model.cfg
    Z = []
    for gel_id, lane in sorted(peaks.counts()):
        T_flat = model.axis.apply([p.location for p in peaks.lane_peaks(gel_id, lane)])
        wlo = np.maximum(np.searchsorted(model.nu_std, T_flat - model.a0_std, side="right"), 1)
        whi = np.minimum(np.searchsorted(model.nu_std, T_flat + model.a0_std, side="left") - 1,
                         cfg.L)
        prev = 0
        J = T_flat.size
        for j in range(J):
            lo = max(int(wlo[j]), prev + 1)
            # leave admissible indices for the remaining peaks
            hi = min(int(whi[j]), cfg.L - (J - 1 - j))
            if lo > hi:
                raise ValueError(
                    f"infeasible window: gel {gel_id} lane {lane} "
                    f"peak {j + 1} has no admissible landmark; "
                    f"increase A_0 (= {cfg.a0_value})"
                )
            nearest = int(np.argmin(np.abs(model.nu_std[lo : hi + 1] - T_flat[j])))
            prev = lo + nearest
            Z.append(prev)
    return np.array(Z)


layouts = st.dictionaries(
    st.sampled_from(["g1", "g2", "g3"]),
    st.dictionaries(st.integers(1, 9),
                    st.lists(st.integers(1, 399), min_size=1, max_size=5, unique=True),
                    min_size=1, max_size=4),
    min_size=1, max_size=3)


class TestPeakAxis:
    """The model reads the peak table once into one peak axis in
    lane_key_list order, whatever order the table lists its gels and lanes
    in."""

    @settings(max_examples=150, deadline=None)
    @given(layout=layouts, L=st.integers(5, 12), a0=st.sampled_from(["narrow", None, 0.4]))
    # windows clipped at landmark 1 and at L; five ordered peaks that do
    # not fit in the landmarks their windows leave
    @example(layout={"g2": {3: [2, 5, 395]}, "g1": {4: [1, 398, 399], 2: [200]}}, L=8, a0=None)
    @example(layout={"g1": {4: [240, 248, 256, 264, 272]}}, L=5, a0="narrow")
    def test_greedy_start_matches_per_lane_loop(self, layout, L, a0):
        peaks = table_from(layout)
        cfg = ModelConfig(L=L, T_nu=4, T_u=4, a0=2.0 / (L + 1) if a0 == "narrow" else a0,
                          iterations=10, burnin=0)
        model = DewarpModel(peaks, cfg)
        try:
            want = per_lane_greedy_start(model, peaks)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                model.init_chain_state()
        else:
            cs = model.init_chain_state(2)
            assert cs.Z.tolist() == [want.tolist()] * 2
            assert not model.count_violations(cs).any()

    def test_flat_arrays_follow_lane_key_list(self):
        layout = {"g2": {3: [60, 150, 240, 330], 1: [90, 200, 380]},
                  "g1": {4: [30, 170, 300], 1: [10, 120, 260, 390], 2: [80, 210]}}
        peaks = table_from(layout)
        cfg = ModelConfig(L=12, T_nu=4, T_u=4, iterations=6, burnin=0, seed=0, restarts=1)
        model = DewarpModel(peaks, cfg)
        keys = [("g1", 1), ("g1", 2), ("g1", 4), ("g2", 1), ("g2", 3)]
        assert model.lane_key_list == keys
        assert [(g.gel_id, g.lanes) for g in model.gels] == [("g1", [1, 2, 4]), ("g2", [1, 3])]
        lane_locs = [[p.location for p in peaks.lane_peaks(*key)] for key in keys]
        T = np.concatenate([model.axis.apply(locs) for locs in lane_locs])
        assert np.array_equal(model._T_all[0], T)
        assert model._lane_of.tolist() == [k for k, locs in enumerate(lane_locs) for _ in locs]
        assert model._peak_row.tolist() == [j for locs in lane_locs for j in range(len(locs))]
        for p, t in enumerate(T.tolist()):
            lo = np.searchsorted(model.nu_std, t - model.a0_std, side="right")
            hi = np.searchsorted(model.nu_std, t + model.a0_std, side="left") - 1
            assert model._wlo_all[0, p] == max(lo, 1) and model._whi_all[0, p] == min(hi, cfg.L)
        assert [(g.peaks, g.cols, g.n_peaks) for g in model.gels] == [
            (slice(0, 9), slice(0, 3), 9), (slice(9, 16), slice(3, 5), 7)]
        result = run_mcmc(peaks, cfg)
        assert result.lane_keys == keys
        for key in keys:
            lane_pk = peaks.lane_peaks(*key)
            assert result.peak_locations[key].tolist() == [p.location for p in lane_pk]
            assert result.peak_bins[key].tolist() == [p.bin for p in lane_pk]


class TestLogJoint:
    def test_components_sum_to_total(self):
        peaks, _ = two_gel_peaks(seed=3)
        cfg = ModelConfig(L=20, T_nu=5, T_u=4, iterations=10, burnin=0, seed=0)
        model = DewarpModel(peaks, cfg)
        cs = model.init_chain_state()
        counts = model.count_violations(cs)
        comp = {k: v[0] for k, v in model.log_joint_components(cs, counts).items()}
        assert np.isfinite(comp["total"])
        parts = comp["likelihood"] + comp["z_prior"] + comp["beta_prior"] + comp["hyper"]
        assert comp["total"] == pytest.approx(parts)
        assert model.log_joint(cs, counts)[0] == pytest.approx(comp["total"])

    def test_likelihood_component_independent_route(self):
        peaks = make_table({1: [0.2, 0.5, 0.8], 2: [0.3, 0.6]}, B=200)
        cfg = ModelConfig(L=8, T_nu=4, T_u=4, iterations=10, burnin=0, seed=0)
        model = DewarpModel(peaks, cfg)
        s0 = model.init_chain_state()
        comp = {k: v[0] for k, v in
                model.log_joint_components(s0, model.count_violations(s0)).items()}
        sigma_eps = math.sqrt(s0.sigma_eps2[0])

        spacing = 1.0 / (cfg.L + 1)
        ax = Standardizer(center=0.5, scale=spacing)
        field = warp_field(model, s0)
        u_by_lane = dict(zip([1, 2], model.gels[0].u_std))
        lik = 0.0
        for (g, lane), zs in lane_assignments(model, s0).items():
            locs = [p.location for p in peaks.lane_peaks(g, lane)]
            for T, z in zip(ax.apply(np.array(locs)), zs):
                nu_z = -(cfg.L + 1) / 2.0 + float(z)
                mu = eval_warp(field, nu_z, float(u_by_lane[lane]))
                lik += (
                    -0.5 * ((float(T) - mu) / sigma_eps) ** 2
                    - math.log(sigma_eps * math.sqrt(2 * math.pi))
                )
        assert comp["likelihood"] == pytest.approx(lik, rel=1e-10)

    def state_with_lane(self, z):
        peaks = make_table({1: [0.2, 0.5, 0.8]}, B=200)
        cfg = ModelConfig(L=8, T_nu=4, T_u=4, iterations=10, burnin=0, seed=0)
        model = DewarpModel(peaks, cfg)
        cs = model.init_chain_state()
        cs.Z[:] = z
        refresh(model, cs)
        return model, cs

    def test_broken_state_is_minus_inf(self):
        model, cs = self.state_with_lane([5, 3, 1])
        assert model.log_joint(cs, model.count_violations(cs))[0] == -np.inf

    def test_outside_window_minus_inf(self):
        # ordered, but the peak at 0.8 (landmark 7.2 of L=8) cannot take
        # landmark 4, more than three spacings away
        model, cs = self.state_with_lane([2, 3, 4])
        comp = model.log_joint_components(cs, model.count_violations(cs))
        assert comp["likelihood"][0] == -np.inf


    @staticmethod
    def scalar_log_joint(model, cs, r):
        """Test-only copy of the per-chain log joint that the batched one
        replaced: one chain, numpy per gel, the rest in Python floats, with
        each gel's log J! from its lanes' peak counts."""
        cfg = model.cfg
        lane_J = np.bincount(model._lane_of)

        def log_invgamma(x, shape, rate):
            return shape * math.log(rate) - math.lgamma(shape) - (shape + 1.0) * math.log(x) - rate / x

        log_2pi = math.log(2.0 * math.pi)
        resid = (model._T_all - cs.mu)[r]
        se2, lam = float(cs.sigma_eps2[r]), cs.lam[r]
        lik = z_prior = beta_prior = 0.0
        hyper = log_invgamma(se2, SIGMA_SHAPE, SIGMA_RATE)
        hyper += float(np.sum(0.5 * math.log(2.0 / math.pi) - lam**2 / 2.0))
        log_lam_sum = math.log(cs.lam_sum[r])
        for gi, gel in enumerate(model.gels):
            rg = resid[gel.peaks]
            lik += -0.5 * float(rg @ rg) / se2 - 0.5 * gel.n_peaks * (log_2pi + math.log(se2))
            z_prior += sum(math.lgamma(j + 1.0) for j in lane_J[gel.cols].tolist())
            z_prior += float(np.sum(np.log(lam[cs.Z[r, gel.peaks] - 1])))
            z_prior -= gel.n_peaks * log_lam_sum
            beta = cs.beta[r, gi]
            d = np.diff(beta[: cfg.T_nu - 1, 0]) - model.id_incr
            inc = np.diff(beta[1 : cfg.T_nu - 1, :], axis=1)
            v1, vgs = float(cs.sigma_g1_2[r, gi]), cs.sigma_gs_2[r, gi]
            beta_prior += -0.5 * float(d @ d) / v1 - 0.5 * (cfg.T_nu - 2) * (
                log_2pi + math.log(v1))
            beta_prior += float(np.sum(-0.5 * np.sum(inc * inc, axis=1) / vgs)) - 0.5 * (
                cfg.T_u - 1) * float(np.sum(log_2pi + np.log(vgs)))
            hyper += log_invgamma(v1, SIGMA_SHAPE, SIGMA_RATE)
            for v in vgs:
                hyper += log_invgamma(float(v), SIGMA_SHAPE, SIGMA_RATE)
        return lik, z_prior, beta_prior, hyper, lik + z_prior + beta_prior + hyper

    @pytest.mark.parametrize("broken", [None, 2])
    def test_batched_equals_scalar_loop(self, broken):
        model = unequal_two_gel_model()
        cs = model.init_chain_state(4)
        rngs = [np.random.default_rng(40 + r) for r in range(4)]
        for _ in range(15):
            model.sweep(cs, rngs)
            counts = model.count_violations(cs)
            if broken is not None:
                cs.lam[broken, 3] = -cs.lam[broken, 3]
                counts = model.count_violations(cs)
                assert counts.tolist() == [0, 0, 1, 0]
            got = np.array(list(model.log_joint_components(cs, counts).values())).T
            for r in range(4):
                if r == broken:
                    assert got[r].tolist() == [-np.inf] * 5
                else:
                    # the array sums add in another order than the scalar loop
                    want = self.scalar_log_joint(model, cs, r)
                    assert got[r].tolist() == pytest.approx(want, rel=1e-12, abs=0)
            if broken is not None:
                cs.lam[broken, 3] = -cs.lam[broken, 3]


class TestStationarity:
    def test_white_noise_passes(self):
        rng = np.random.default_rng(0)
        ok, detail = stationarity_check(rng.normal(0, 1, size=400))
        assert ok
        assert "pooled_se" in detail

    def test_trend_fails(self):
        ok, _ = stationarity_check(np.linspace(0, 50, 400))
        assert not ok

    def test_short_trace_notes(self):
        ok, detail = stationarity_check(np.array([1.0, 2.0, 3.0]))
        assert ok
        assert "note" in detail

    def test_autocorrelated_stationary_trace_passes(self):
        # AR(1) at rho 0.6 is stationary, but its quarter means spread about
        # twice as far as an iid standard error allows; with that error, 74
        # of these 100 traces passed
        rng = np.random.default_rng(20)
        rho, n, passed = 0.6, 400, 0
        for _ in range(100):
            e = rng.normal(0, 1, size=n)
            x = np.empty(n)
            x[0] = e[0] / math.sqrt(1.0 - rho * rho)
            for t in range(1, n):
                x[t] = rho * x[t - 1] + e[t]
            passed += stationarity_check(x)[0]
        assert passed >= 90

    def test_constant_trace_passes_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ok, detail = stationarity_check(np.full(400, -3.5))
        assert ok
        assert detail["pooled_se"] == 0.0 and detail["ess_q3"] == detail["ess_q4"] == 100


class TestSignatures:
    def test_binary_matrix(self):
        Z = {("G1", 2): [1, 4], ("G1", 1): [2, 3]}
        keys, Y = signatures(Z, 4)
        assert keys == [("G1", 1), ("G1", 2)]
        assert Y.tolist() == [[0, 1, 1, 0], [1, 0, 0, 1]]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            signatures({("G1", 1): [0, 2]}, 4)


def assert_summaries_match_draws(res):
    """Recompute each lane's summaries from its own draws: one bincount per
    peak for the marginals, their argmax for the MAP, and every draw
    broadcast against every landmark for the hit probabilities."""
    L = res.cfg.L
    K = len(res.lambda_draws)
    for key in res.lane_keys:
        draws = res.z_draws[key]
        assert draws.shape[0] == K
        marg = np.stack([np.bincount(col, minlength=L + 2) for col in draws.T]) / K
        assert np.array_equal(res.z_marginals[key], marg)
        assert np.array_equal(res.z_map[key], marg.argmax(axis=1))
        hit = np.any(draws[:, :, None] == np.arange(1, L + 1)[None, None, :], axis=1)
        assert np.array_equal(res.landmark_probs[key], hit.mean(axis=0))
    lam_star = res.lambda_draws / res.lambda_draws.sum(axis=1, keepdims=True)
    assert np.array_equal(res.presence, np.mean(1.0 - np.exp(-lam_star), axis=0))


def synthetic_result(layout: dict, K: int, L: int = 12, seed: int = 0):
    """run_mcmc's summary of K random saved draws on table_from(layout):
    each lane's peaks take distinct landmarks in increasing order, and the
    warps and lambda stay at their starting values."""
    model = DewarpModel(table_from(layout), ModelConfig(L=L, T_nu=4, T_u=4, iterations=K,
                                                        burnin=0))
    cs = model.init_chain_state()
    rng = np.random.default_rng(seed)
    Z = np.concatenate([np.sort(rng.random((K, L)).argsort(axis=1)[:, :J] + 1, axis=1)
                        for J in model._lane_J.tolist()], axis=1)
    draws = (Z, np.repeat(cs.beta, K, axis=0), np.repeat(cs.lam, K, axis=0), rng.normal(size=K))
    return _summarize(model, draws, 0, 0.0)


ZMAP_CASES = {
    # twelve lanes in one gel: "G1:10" sorts before "G1:2"
    "twelve_lanes": ({"G1": {lane: [60, 150, 240, 330] for lane in range(1, 13)}}, 6),
    "gel_ids_non_ascii_and_quote": ({"gél1": {1: [80, 200, 300], 2: [90, 210]},
                                     'g"2': {1: [100, 250]}, "run:3": {2: [60, 330]}}, 5),
    "one_peak_lane": ({"g1": {1: [200], 2: [70, 160, 310]}}, 4),
    "one_draw": ({"g1": {1: [50, 250], 2: [120, 300]}, "g2": {1: [200]}}, 1),
}


def zmap_case(name):
    layout, K = ZMAP_CASES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GelwarpWarning)  # small gels are weakly identified
        return synthetic_result(layout, K)


def whole_zmap_payload(result) -> dict:
    """Test-only copy of the payload write_zmap built whole before it wrote
    lane by lane."""
    return {
        "L": result.cfg.L,
        "axis_standardizer": result.standardizers["axis"],
        "lanes": {lane_name(key): {
            "gel_id": key[0],
            "lane": key[1],
            "bins": result.peak_bins[key].tolist(),
            "locations": result.peak_locations[key].tolist(),
            "z_map": result.z_map[key].tolist(),
            "marginals": result.z_marginals[key].tolist(),
            "draws": result.z_draws[key].tolist(),
        } for key in result.lane_keys},
    }


def whole_file_read_zmap(path) -> dict:
    """Test-only copy of read_zmap as it parsed the whole payload into lists
    before it made any array."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    out = {"L": payload["L"], "axis": Standardizer.from_dict(payload["axis_standardizer"]),
           "z_map": {}, "z_draws": {}, "z_marginals": {}, "locations": {}, "bins": {}}
    for s, entry in payload["lanes"].items():
        key = parse_lane_name(s)
        out["z_map"][key] = np.array(entry["z_map"], dtype=int)
        out["z_draws"][key] = np.array(entry["draws"], dtype=int)
        out["z_marginals"][key] = np.array(entry["marginals"], dtype=float)
        out["locations"][key] = np.array(entry["locations"], dtype=float)
        out["bins"][key] = np.array(entry["bins"], dtype=int)
    return out


@pytest.fixture(scope="module")
def small_run():
    peaks, truth = two_gel_peaks(seed=4)
    cfg = ModelConfig(L=20, T_nu=5, T_u=4, iterations=400, burnin=200,
                      thin=2, seed=3, restarts=2, restart_sweeps=80)
    return peaks, cfg, run_mcmc(peaks, cfg), truth


class TestRunMCMC:
    def test_result_shapes(self, small_run):
        peaks, cfg, res, _ = small_run
        assert len(res.log_joint_trace) == cfg.n_saved
        assert np.all(np.isfinite(res.log_joint_trace))
        assert res.lambda_draws.shape == (cfg.n_saved, cfg.L)
        assert res.presence.shape == (cfg.L,)
        assert 0.0 <= res.lambda_accept <= 1.0
        for key in res.lane_keys:
            J = len(res.peak_locations[key])
            assert res.z_draws[key].shape == (cfg.n_saved, J)
            assert res.z_map[key].shape == (J,)
            assert res.z_marginals[key].shape == (J, cfg.L + 2)
            assert np.all(np.diff(res.z_map[key]) > 0)

    def test_summaries_match_per_lane_oracle(self, small_run):
        _, _, res, _ = small_run
        assert_summaries_match_draws(res)

    def test_beta_mean_is_valid_field(self, small_run):
        _, _, res, _ = small_run
        for field in res.beta_mean.values():
            field.validate()

    def test_deterministic_given_seed(self, small_run):
        peaks, cfg, res, _ = small_run
        res2 = run_mcmc(peaks, cfg)
        for key in res.lane_keys:
            assert np.array_equal(res.z_draws[key], res2.z_draws[key])
        assert np.array_equal(res.lambda_draws, res2.lambda_draws)

    def test_seed_changes_draws(self, small_run):
        peaks, cfg, res, _ = small_run
        res2 = run_mcmc(peaks, dataclasses.replace(cfg, seed=99))
        assert not np.array_equal(res.lambda_draws, res2.lambda_draws)

    def test_serialization_round_trips(self, small_run, tmp_path):
        peaks, cfg, res, _ = small_run
        zpath = tmp_path / "z.json"
        write_zmap(res, zpath)
        back = read_zmap(zpath)
        assert back["L"] == cfg.L
        for key in res.lane_keys:
            assert np.array_equal(back["z_map"][key], res.z_map[key])
            assert np.array_equal(back["z_draws"][key], res.z_draws[key])

        wpath = tmp_path / "warp.json"
        write_warp_json(res, wpath)
        fields = read_warp_json(wpath)
        for gel_id, field in res.beta_mean.items():
            f2, lanes, _ = fields[gel_id]
            assert np.array_equal(f2.beta, field.beta)
            assert lanes == res.standardizers["lane"][gel_id]["lanes"]

        lpath = tmp_path / "landmarks.json"
        write_landmarks(res, lpath)
        payload = json.loads(lpath.read_text())
        assert len(payload["presence"]) == cfg.L

        spath = tmp_path / "sigs.csv"
        write_signatures_csv(res, spath)
        rows = spath.read_text().strip().splitlines()
        assert len(rows) == 1 + len(res.lane_keys)

        cpath = tmp_path / "chain.log"
        write_chain_log(res, cpath)
        assert len(cpath.read_text().strip().splitlines()) == 1 + cfg.n_saved
        back = np.loadtxt(cpath)
        assert np.array_equal(back[:, 0], np.arange(cfg.n_saved))
        assert np.array_equal(back[:, 1], res.log_joint_trace)

    def test_json_writers_match_json_dump(self, small_run, tmp_path):
        # the bytes must be the ones json.dump to a file gives for the same
        # payload, and write_zmap's those of one json.dumps of the payload
        # it built whole before it wrote lane by lane
        for case in ["small_run", *ZMAP_CASES]:
            res = small_run[2] if case == "small_run" else zmap_case(case)
            for write in (write_zmap, write_landmarks):
                path = tmp_path / f"{write.__name__}.json"
                write(res, path)
                ref = tmp_path / "ref.json"
                with open(ref, "w") as f:
                    json.dump(json.loads(path.read_text()), f, sort_keys=True)
                    f.write("\n")
                assert path.read_bytes() == ref.read_bytes(), (case, write.__name__)
            whole = json.dumps(whole_zmap_payload(res), sort_keys=True) + "\n"
            assert (tmp_path / "write_zmap.json").read_bytes() == whole.encode(), case

    @pytest.mark.parametrize("case", ["small_run", *ZMAP_CASES])
    def test_read_zmap_matches_whole_file_reader(self, case, request, tmp_path):
        res = request.getfixturevalue("small_run")[2] if case == "small_run" else zmap_case(case)
        path = tmp_path / "zmap.json"
        write_zmap(res, path)
        got, want = read_zmap(path), whole_file_read_zmap(path)
        assert got.keys() == want.keys() and got["L"] == want["L"] == res.cfg.L
        assert got["axis"] == want["axis"] == Standardizer.from_dict(res.standardizers["axis"])
        for field in ("z_map", "z_draws", "z_marginals", "locations", "bins"):
            # both in the file's order, where ("G1", 10) comes before ("G1", 2)
            assert list(got[field]) == list(want[field]), field
            assert sorted(got[field]) == res.lane_keys, field
            for key, array in want[field].items():
                assert got[field][key].dtype == array.dtype, (field, key)
                assert np.array_equal(got[field][key], array), (field, key)
        for key in res.lane_keys:
            assert np.array_equal(got["z_draws"][key], res.z_draws[key])
            assert np.array_equal(got["z_marginals"][key], res.z_marginals[key])

    def test_read_zmap_names_file_with_ragged_draws(self, tmp_path):
        # draws that form no table are named with the file and the lane
        path = tmp_path / "zmap.json"
        write_zmap(zmap_case("one_peak_lane"), path)
        text = path.read_text().replace('"draws": [[', '"draws": [[1, ', 1)
        path.write_text(text)
        message = f"{path}: lane g1:1: draws are not a table of landmark rows"
        with pytest.raises(ValueError, match=re.escape(message)):
            read_zmap(path)

    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda e: e.update(z_map=e["z_map"][:-1]),
                     "z_map, locations, bins and draws have 2, 3, 3 and 3 entries",
                     id="short-z_map"),
        pytest.param(lambda e: e.update(locations=e["locations"][:-1]),
                     "z_map, locations, bins and draws have 3, 2, 3 and 3 entries",
                     id="short-locations"),
        pytest.param(lambda e: e.update(bins=e["bins"] + [399]),
                     "z_map, locations, bins and draws have 3, 3, 4 and 3 entries",
                     id="long-bins"),
        pytest.param(lambda e: e.update(draws=[d[:-1] for d in e["draws"]]),
                     "z_map, locations, bins and draws have 3, 3, 3 and 2 entries",
                     id="short-draws"),
        pytest.param(lambda e: e["z_map"].__setitem__(0, 0),
                     "z_map has landmark 0 outside 1..12", id="z_map-below"),
        pytest.param(lambda e: e["z_map"].__setitem__(2, 13),
                     "z_map has landmark 13 outside 1..12", id="z_map-above"),
        pytest.param(lambda e: e["draws"][1].__setitem__(2, 13),
                     "draws has landmark 13 outside 1..12", id="draw-above"),
        pytest.param(lambda e: e["draws"][3].__setitem__(1, e["draws"][3][0]),
                     "draw 3 is not strictly increasing", id="draw-repeat"),
        pytest.param(lambda e: e["draws"].pop(), "3 draws, where the first lane has 4",
                     id="fewer-draws"),
        # reversed locations used to fail in align and cluster naming neither
        # the file nor the lane, and plotdata drew them; bins were unchecked
        pytest.param(lambda e: e.update(locations=e["locations"][::-1]),
                     "locations are not strictly increasing at peak 2", id="locations-reversed"),
        pytest.param(lambda e: e["bins"].__setitem__(2, e["bins"][1]),
                     "bins are not strictly increasing at peak 3", id="bins-repeat"),
        # an infinite last location passed the order check; plotdata wrote
        # it as inf, and align failed naming neither the file nor the lane
        pytest.param(lambda e: e["locations"].__setitem__(2, float("inf")),
                     "locations has an entry that is not finite", id="location-inf"),
        # a non-integer used to read as its floor
        pytest.param(lambda e: e["z_map"].__setitem__(1, e["z_map"][1] + 0.5),
                     "z_map has an entry that is not an integer", id="non-integer-z_map"),
        pytest.param(lambda e: e["draws"][2].__setitem__(1, e["draws"][2][1] + 0.25),
                     "draws has an entry that is not an integer", id="non-integer-draw"),
        pytest.param(lambda e: e["bins"].__setitem__(0, e["bins"][0] + 0.5),
                     "bins has an entry that is not an integer", id="non-integer-bin"),
        # a missing field used to fail as a bare KeyError naming neither
        pytest.param(lambda e: e.pop("z_map"), 'no "z_map"', id="no-z_map"),
        pytest.param(lambda e: e.pop("draws"), 'no "draws"', id="no-draws"),
        pytest.param(lambda e: e.pop("marginals"), 'no "marginals"', id="no-marginals"),
        pytest.param(lambda e: e["marginals"].__setitem__(1, e["marginals"][1][:-1]),
                     "marginals are not a table of probability rows", id="short-marginals-row"),
        pytest.param(lambda e: e.update(marginals=[row[:-1] for row in e["marginals"]]),
                     "marginals are not 3 rows of L + 2 = 14 numbers", id="short-marginals"),
    ])
    def test_read_zmap_names_file_and_lane_of_malformed_lane(self, tmp_path, edit, message):
        # a lane whose arrays differ in length, whose landmarks are out of
        # range or out of order, or with fewer draws than the lanes before it
        # used to read; align and cluster then failed naming neither, after
        # cluster had written its first files, or cluster scored the draws
        # of the lanes out of step
        path = tmp_path / "zmap.json"
        write_zmap(zmap_case("one_peak_lane"), path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        edit(payload["lanes"]["g1:2"])
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}: lane g1:2: {message}")):
            read_zmap(path)

    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda p: p.pop("L"), 'no "L"', id="no-L"),
        pytest.param(lambda p: p.pop("lanes"), 'no "lanes"', id="no-lanes"),
        pytest.param(lambda p: p.pop("axis_standardizer"), 'no "axis_standardizer"',
                     id="no-axis"),
        pytest.param(lambda p: p.update(L=12.5), "L must be an integer >= 1, got 12.5",
                     id="non-integer-L"),
        # align would pass every lane through unaligned
        pytest.param(lambda p: p.update(lanes={}), "no lanes", id="empty-lanes"),
        pytest.param(lambda p: p["axis_standardizer"].update(scale=0.0),
                     "axis_standardizer is not a center and a positive scale", id="zero-scale"),
        # a NaN center put every plotted warp at NaN, and the run exited 0
        pytest.param(lambda p: p["axis_standardizer"].update(center=math.nan),
                     "axis_standardizer is not a center and a positive scale", id="nan-center"),
        pytest.param(lambda p: p["lanes"].update({"g1": p["lanes"].pop("g1:2")}),
                     "lane g1: 'g1' is not a gel:lane name", id="bad-lane-name"),
        pytest.param(lambda p: p["lanes"].update({"g1:2": 5}),
                     "lane g1:2: expected a JSON object", id="lane-not-object"),
    ])
    def test_read_zmap_names_file_of_malformed_payload(self, tmp_path, edit, message):
        path = tmp_path / "zmap.json"
        write_zmap(zmap_case("one_peak_lane"), path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        edit(payload)
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            read_zmap(path)

    def test_read_zmap_names_file_and_repeated_lane(self, tmp_path):
        # the JSON reader kept the repeat's entry, and the lane read once
        path = tmp_path / "zmap.json"
        write_zmap(zmap_case("one_peak_lane"), path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        lanes = payload.pop("lanes")
        entries = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in lanes.items()]
        path.write_text(json.dumps(payload)[:-1] + ', "lanes": {'
                        + ", ".join(entries + entries[:1]) + "}}", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: key {next(iter(lanes))!r} is repeated in one object")):
            read_zmap(path)

    @pytest.mark.parametrize("case", ["small_run", *ZMAP_CASES])
    def test_read_landmark_probs_round_trips(self, case, request, tmp_path):
        res = request.getfixturevalue("small_run")[2] if case == "small_run" else zmap_case(case)
        path = tmp_path / "landmarks.json"
        write_landmarks(res, path)
        probs = read_landmark_probs(path)
        assert list(probs) == sorted(res.lane_keys, key=lane_name)
        for key in res.lane_keys:
            assert probs[key].dtype == float
            assert np.array_equal(probs[key], res.landmark_probs[key])

    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda p: p.pop("L"), 'no "L"', id="no-L"),
        pytest.param(lambda p: p.pop("lanes"), 'no "lanes"', id="no-lanes"),
        pytest.param(lambda p: p.update(lanes={}), "no lanes", id="empty-lanes"),
        pytest.param(lambda p: p["lanes"]["g1:2"].pop(), "lane g1:2: not a row of L = 12 numbers",
                     id="short-row"),
        pytest.param(lambda p: p["lanes"]["g1:2"].__setitem__(3, "0.5"),
                     "lane g1:2: not a row of L = 12 numbers", id="string-entry"),
        pytest.param(lambda p: p["lanes"]["g1:2"].__setitem__(3, [0.5]),
                     "lane g1:2: not a row of L = 12 numbers", id="list-entry"),
    ])
    def test_read_landmark_probs_names_file_and_lane(self, tmp_path, edit, message):
        # plotdata read this file as raw JSON: a missing "lanes" failed as
        # 'lanes' and a string entry inside its number formatting
        path = tmp_path / "landmarks.json"
        write_landmarks(zmap_case("one_peak_lane"), path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        edit(payload)
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            read_landmark_probs(path)

    @pytest.mark.parametrize("case", ["small_run", *ZMAP_CASES])
    def test_warp_json_round_trips(self, case, request, tmp_path):
        # write, read, write again gives the same bytes; the lane
        # standardizer, which read_warp_json checks but does not return, is
        # the result's own
        res = request.getfixturevalue("small_run")[2] if case == "small_run" else zmap_case(case)
        path = tmp_path / "warp.json"
        write_warp_json(res, path)
        fields = read_warp_json(path)
        assert list(fields) == sorted(res.beta_mean)
        lane_std = res.standardizers["lane"]
        again = dataclasses.replace(
            res, beta_mean={gel_id: field for gel_id, (field, _, _) in fields.items()},
            standardizers={"lane": {gel_id: {"standardizer": lane_std[gel_id]["standardizer"],
                                             "lanes": lanes, "u_std": u_std.tolist()}
                                    for gel_id, (_, lanes, u_std) in fields.items()}})
        write_warp_json(again, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
        for gel_id, field in res.beta_mean.items():
            back, lanes, u_std = fields[gel_id]
            assert np.array_equal(back.beta, field.beta) and back.bounds == field.bounds
            assert lanes == lane_std[gel_id]["lanes"]
            assert np.array_equal(u_std, lane_std[gel_id]["u_std"])
            nus = np.linspace(field.basis_nu.lo, field.basis_nu.hi, 17)
            assert np.array_equal(eval_warp_grid(back, nus, u_std),
                                  eval_warp_grid(field, nus, u_std))

    @pytest.mark.parametrize("payload, message", [
        pytest.param({}, "expected a JSON list of gel entries", id="object"),
        pytest.param([], "expected a JSON list of gel entries", id="no-gels"),
        pytest.param([5], 'entry 0: not an object with a "gel_id" string', id="entry-not-object"),
        pytest.param([{"T_nu": 4}], 'entry 0: not an object with a "gel_id" string',
                     id="no-gel_id"),
        pytest.param([{"gel_id": 1}], 'entry 0: not an object with a "gel_id" string',
                     id="non-string-gel_id"),
    ])
    def test_read_warp_json_names_file_of_malformed_payload(self, tmp_path, payload, message):
        path = tmp_path / "warp.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            read_warp_json(path)

    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda w: w.append(copy.deepcopy(w[0])), "gel g1: listed twice",
                     id="gel-twice"),
        *(pytest.param(lambda w, f=f: w[0].pop(f), f'gel g1: no "{f}"', id=f"no-{f}")
          for f in ("T_nu", "T_u", "knots_nu", "knots_u", "beta", "bounds", "standardizer")),
        pytest.param(lambda w: w[0].update(T_nu=3), "gel g1: T_nu must be an integer >= 4, got 3",
                     id="T_nu-below-4"),
        pytest.param(lambda w: w[1].update(T_u=4.0),
                     "gel g2: T_u must be an integer >= 4, got 4.0", id="non-integer-T_u"),
        pytest.param(lambda w: w[0]["knots_nu"].pop(), "gel g1: knots_nu is not 8 finite numbers",
                     id="short-knots"),
        pytest.param(lambda w: w[0]["knots_u"].__setitem__(0, "-1"),
                     "gel g1: knots_u is not 8 finite numbers", id="string-knot"),
        pytest.param(lambda w: w[0]["knots_u"].reverse(),
                     "gel g1: knots_u: knots must be nondecreasing", id="falling-knots"),
        pytest.param(lambda w: w[0]["beta"].pop(), "gel g1: beta is not 16 finite numbers",
                     id="short-beta"),
        pytest.param(lambda w: w[0]["beta"].__setitem__(5, "0.5"),
                     "gel g1: beta is not 16 finite numbers", id="string-beta"),
        pytest.param(lambda w: w[0]["beta"].__setitem__(5, math.nan),
                     "gel g1: beta is not 16 finite numbers", id="nan-beta"),
        pytest.param(lambda w: w[0]["bounds"].append(1.0), "gel g1: bounds is not 2 finite numbers",
                     id="three-bounds"),
        pytest.param(lambda w: w[0]["beta"].__setitem__(0, w[0]["beta"][0] + 0.5),
                     "gel g1: first coefficient row not pinned at lower bound", id="unpinned"),
        pytest.param(lambda w: w[0]["beta"].__setitem__(4, w[0]["beta"][8]),
                     "gel g1: coefficient columns not strictly increasing", id="flat-column"),
        pytest.param(lambda w: w[0].update(standardizer=[]),
                     "gel g1: standardizer is not a JSON object", id="standardizer-not-object"),
        *(pytest.param(lambda w, f=f: w[0]["standardizer"].pop(f),
                       f'gel g1: no "standardizer.{f}"', id=f"no-standardizer.{f}")
          for f in ("standardizer", "lanes", "u_std")),
        pytest.param(lambda w: w[0]["standardizer"]["standardizer"].update(scale=0.0),
                     "gel g1: standardizer.standardizer is not a center and a positive scale",
                     id="zero-scale"),
        pytest.param(lambda w: w[0]["standardizer"]["standardizer"].update(center=math.nan),
                     "gel g1: standardizer.standardizer is not a center and a positive scale",
                     id="nan-center"),
        pytest.param(lambda w: w[0]["standardizer"].update(lanes=2),
                     "gel g1: standardizer.lanes is not a list", id="lanes-not-list"),
        pytest.param(lambda w: w[0]["standardizer"]["lanes"].__setitem__(1, 1.5),
                     "gel g1: standardizer.lanes entry must be an integer, got 1.5",
                     id="non-integer-lane"),
        pytest.param(lambda w: w[0]["standardizer"]["lanes"].__setitem__(1, 1),
                     "gel g1: standardizer.lanes lists lane 1 twice", id="lane-twice"),
        # a lane dropped from "lanes" alone used to drop its warp curve
        pytest.param(lambda w: w[0]["standardizer"]["lanes"].pop(),
                     "gel g1: standardizer.u_std is not 1 finite numbers", id="lane-dropped"),
        pytest.param(lambda w: w[0]["standardizer"]["u_std"].__setitem__(0, "-0.7"),
                     "gel g1: standardizer.u_std is not 2 finite numbers", id="string-u_std"),
        pytest.param(lambda w: w[0]["standardizer"]["u_std"].__setitem__(1, 5.0),
                     "gel g1: lane 2: u_std 5.0 outside the u basis support", id="u_std-outside"),
        # a reversed u_std used to draw each lane's warp at the other's place
        pytest.param(lambda w: w[0]["standardizer"]["u_std"].reverse(),
                     "gel g1: lane 1: u_std 0.7071067811865475 is not the lane standardized, "
                     "-0.7071067811865475", id="u_std-reversed"),
    ])
    def test_read_warp_json_names_file_and_gel(self, tmp_path, edit, message):
        path = tmp_path / "warp.json"
        write_warp_json(zmap_case("one_draw"), path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        edit(payload)
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            read_warp_json(path)

    def test_zmap_io_holds_one_lane_of_lists(self, tmp_path):
        # 2000 saved draws of 40 lanes of 5 peaks: the whole-payload writer
        # and reader held a list per (draw, lane), a traced peak of 12.9 MB
        # to write and 13.7 MB to read; lane by lane they take 1.0 and 5.2
        res = synthetic_result({f"g{g}": {lane: [40 + 60 * j + 3 * lane for j in range(5)]
                                          for lane in range(1, 21)} for g in (1, 2)},
                               K=2000, L=20)
        path = tmp_path / "zmap.json"
        tracemalloc.start()
        try:
            write_zmap(res, path)
            write_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            back = read_zmap(path)
            read_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back["z_draws"][("g2", 20)], res.z_draws[("g2", 20)])
        assert write_peak < 2_000_000, write_peak
        # the read returns 3.2 MB of draws (2000 x 200 at 8 bytes) and holds
        # the file's 1.6 MB of text while it parses
        assert read_peak < 7_000_000, read_peak

    def test_violations_counted_once_per_sweep(self, small_run, monkeypatch):
        # the initial state's chains are counted once, and then every
        # chain's state after every restart and main sweep exactly once, in
        # one call a block of sweeps; the log joint of a kept sweep reuses
        # its count
        peaks, cfg, res, _ = small_run
        swept, counted = [], []
        sweep, count = DewarpModel.sweep, DewarpModel.count_violations

        def record_sweep(self, cs, *args):
            rate = sweep(self, cs, *args)
            swept.append((cs.Z.copy(), cs.beta.copy(), cs.lam.copy()))
            return rate

        def record_count(self, cs):
            counted.append((cs.Z.copy(), cs.beta.copy(), cs.lam.copy()))
            return count(self, cs)

        monkeypatch.setattr(DewarpModel, "sweep", record_sweep)
        monkeypatch.setattr(DewarpModel, "count_violations", record_count)
        again = run_mcmc(peaks, cfg)
        rows = [len(Z) for Z, _, _ in counted]
        assert sum(rows) == cfg.restarts * (cfg.restart_sweeps + 1) + cfg.iterations == 562
        assert len(counted) == (1 + math.ceil(cfg.restart_sweeps / SWEEP_BLOCK)
                                + math.ceil(cfg.iterations / SWEEP_BLOCK))
        assert rows[0] == cfg.restarts
        for i in range(3):
            got = np.concatenate([state[i] for state in counted[1:]])
            assert np.array_equal(got, np.concatenate([state[i] for state in swept])), i
        assert again.violations == res.violations == 0
        assert np.array_equal(again.log_joint_trace, res.log_joint_trace)

    def test_warns_when_underdetermined(self):
        peaks = make_table({1: [0.3, 0.7]}, B=200)
        cfg = ModelConfig(L=8, T_nu=4, T_u=4, iterations=20, burnin=10,
                          seed=0, restarts=1)
        with pytest.warns(GelwarpWarning, match="weakly identified"):
            run_mcmc(peaks, cfg)
