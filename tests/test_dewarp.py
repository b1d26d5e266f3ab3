import copy
import dataclasses
import itertools
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import invgamma, ks_2samp, truncnorm

from gelwarp.core import GelwarpWarning, Standardizer, standardize_intensities
from gelwarp.dewarp import (
    ANNEAL_HI,
    ANNEAL_LO,
    LAMBDA_STEP,
    SQRT_HALF,
    SIGMA_RATE,
    SIGMA_SHAPE,
    DewarpModel,
    ModelConfig,
    _ChainState,
    _explore_restarts,
    _summarize,
    _trunc_normal,
    align_new_gel,
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
from gelwarp.spline import WarpField, eval_warp, read_warp_fields


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


class TestTruncNormal:
    def test_draws_stay_inside(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            mean = rng.normal(0, 3)
            sd = rng.uniform(0.01, 2)
            lo = rng.normal(0, 3)
            hi = lo + rng.uniform(1e-6, 4)
            x = _trunc_normal(mean, sd, lo, hi, rng.random(), rng)
            assert lo < x < hi

    def test_matches_truncnorm_distribution(self):
        rng = np.random.default_rng(1)
        mean, sd, lo, hi = 0.3, 1.1, -0.5, 2.0
        draws = np.sort([_trunc_normal(mean, sd, lo, hi, rng.random(), rng)
                         for _ in range(20_000)])
        a, b = (lo - mean) / sd, (hi - mean) / sd
        cdf = truncnorm.cdf(draws, a, b, loc=mean, scale=sd)
        ks = np.max(np.abs(cdf - np.arange(1, draws.size + 1) / draws.size))
        assert ks < 0.02

    def test_cdf_rounding_to_zero_or_one_stays_inside(self):
        # Phi(-40) rounds to 0 and Phi(40) to 1, so at u = 0 or 1 the
        # quantile of the interval's end is infinite and must be clamped
        # inside; the inverse-CDF branch draws nothing from rng
        for lo, hi, u in ((-40.0, 0.5, 0.0), (-0.5, 40.0, 1.0)):
            x = _trunc_normal(0.0, 1.0, lo, hi, u, None)
            assert x == math.nextafter(lo if u == 0.0 else hi, 0.0)
        rng = np.random.default_rng(4)
        for lo, hi in ((-40.0, 0.5), (-0.5, 40.0)):
            draws = np.sort([_trunc_normal(0.0, 1.0, lo, hi, rng.random(), rng)
                             for _ in range(20_000)])
            assert np.all((draws > lo) & (draws < hi))
            cdf = truncnorm.cdf(draws, lo, hi)
            ks = np.max(np.abs(cdf - np.arange(1, draws.size + 1) / draws.size))
            assert ks < 0.02

    def test_far_tail_rejection_branch(self):
        rng = np.random.default_rng(2)
        draws = np.array([_trunc_normal(0.0, 1.0, 8.0, 9.0, rng.random(), rng)
                          for _ in range(4000)])
        assert np.all((draws > 8.0) & (draws < 9.0))
        want = truncnorm.mean(8.0, 9.0)
        got = float(draws.mean())
        assert got == pytest.approx(want, abs=0.01)

    def test_left_tail_mirrored(self):
        rng = np.random.default_rng(3)
        draws = np.array([_trunc_normal(0.0, 1.0, -9.0, -8.0, rng.random(), rng)
                          for _ in range(4000)])
        assert np.all((draws > -9.0) & (draws < -8.0))
        assert float(draws.mean()) == pytest.approx(-truncnorm.mean(8.0, 9.0), abs=0.01)


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


def chain_shaped_peaks(seed, L=50):
    """Sample-lane peaks of the benchmark's chain shape: 2 gels x 20 lanes,
    B = 500, three bands per signature."""
    rng = np.random.default_rng(seed)
    spec = SimSpec.from_dict({
        "n_gels": 2, "lanes_per_gel": 20, "B": 500, "L": L,
        "signatures": {"random": {"n_clusters": 20, "n_bands": 3, "min_sep": 3}},
        "n_replicates": 2, "warp_amplitude": 1.2 / (L + 1),
        "refwarp_amplitude": 0.01, "sigma_eps": 0.1 / (L + 1),
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


class TestBetaConditional:
    """First free warp coefficient drawn by the conjugate update against a
    brute-force grid normalization of the full joint."""

    def test_conditional_matches_grid_density(self):
        peaks = make_table({1: [0.2, 0.5, 0.8], 3: [0.25, 0.55, 0.85]}, B=200)
        cfg = ModelConfig(L=8, T_nu=4, T_u=4, iterations=10, burnin=0, seed=0)
        model = DewarpModel(peaks, cfg)
        s0 = model.init_chain_state()
        s0.sigma_g1_2[:] = 0.4**2
        s0.sigma_gs_2[:] = 0.4**2
        s0.sigma_eps2[:] = 0.6**2

        beta0 = s0.beta[0, 0]
        lo, hi = beta0[0, 0], beta0[2, 0]
        grid = np.linspace(lo, hi, 801)[1:-1]
        logp = np.empty(grid.size)
        for i, b in enumerate(grid):
            trial = copy.deepcopy(s0)
            trial.beta[0, 0, 1, 0] = b
            refresh(model, trial)
            logp[i] = model.log_joint(trial, model.count_violations(trial))[0]
        dens = np.exp(logp - logp.max())
        cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2.0)])
        cdf /= cdf[-1]

        rngs = [np.random.default_rng(5)]
        draws = []
        for _ in range(6000):
            cs = copy.deepcopy(s0)
            model.sweep_beta(cs, rngs)
            draws.append(cs.beta[0, 0, 1, 0])
        draws = np.sort(draws)
        emp = np.arange(1, len(draws) + 1) / len(draws)
        oracle = np.interp(draws, grid, cdf)
        assert np.max(np.abs(emp - oracle)) < 0.03

    @staticmethod
    def element_loop_sweep(model, cs, rng):
        """sweep_beta one coefficient at a time, with length-P dot products
        and a residual update after every move: the reference kernel, on a
        one-chain state."""
        cfg = model.cfg
        se2 = cs.sigma_eps2[0]
        g_inc = model.id_incr
        for gi, gel in enumerate(model.gels):
            beta = cs.beta[0, gi]
            T = model._T_all[0, gel.peaks]
            BnZ = model.Bnu_land[cs.Z[0, gel.peaks], :]
            mu = cs.mu[0, gel.peaks]
            v1 = cs.sigma_g1_2[0, gi]
            for s in range(1, cfg.T_nu - 1):
                vs = cs.sigma_gs_2[0, gi][s - 1]
                for t in range(cfg.T_u):
                    a = BnZ[:, s] * gel.BuP[:, t]
                    prec = (a @ a) / se2
                    num = (a @ (T - mu)) / se2 + prec * beta[s, t]
                    if t > 0:
                        prec += 1.0 / vs
                        num += beta[s, t - 1] / vs
                    if t < cfg.T_u - 1:
                        prec += 1.0 / vs
                        num += beta[s, t + 1] / vs
                    if t == 0:
                        prec += 1.0 / v1
                        num += (beta[s - 1, 0] + g_inc[s - 1]) / v1
                        if s <= cfg.T_nu - 3:
                            prec += 1.0 / v1
                            num += (beta[s + 1, 0] - g_inc[s]) / v1
                    new = _trunc_normal(num / prec, 1.0 / math.sqrt(prec),
                                        beta[s - 1, t], beta[s + 1, t], rng.random(), rng)
                    mu = mu + a * (new - beta[s, t])
                    beta[s, t] = new
            cs.W[0][:, gel.cols] = model.Bnu_land @ beta @ gel.Bu.T
            cs.mu[0, gel.peaks] = cs.W[0][cs.Z[0, gel.peaks], model._lane_of[gel.peaks]]

    def test_sweep_matches_element_loop_reference(self):
        # same random stream and the same conditionals; the Gram sums round
        # differently from the per-coefficient dot products in the last bits
        peaks, _ = two_gel_peaks(seed=6)
        cfg = ModelConfig(L=20, T_nu=6, T_u=4, iterations=10, burnin=0, seed=0)
        model = DewarpModel(peaks, cfg)
        rngs = [np.random.default_rng(13)]
        cs = model.init_chain_state()
        for k in range(60):
            model.sweep(cs, rngs)
            a, b = copy.deepcopy(cs), copy.deepcopy(cs)
            ra, rb = np.random.default_rng(k), np.random.default_rng(k)
            model.sweep_beta(a, [ra])
            self.element_loop_sweep(model, b, rb)
            assert ra.random() == rb.random()
            np.testing.assert_allclose(a.beta, b.beta, rtol=0, atol=1e-12)
            np.testing.assert_array_equal(a.mu[0], a.W[0][a.Z[0], model._lane_of])
            np.testing.assert_allclose(a.mu, b.mu, rtol=0, atol=1e-12)
            assert model.count_violations(a) == 0


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
        """sweep_hyper as one scalar update at a time: the reference kernel,
        on a one-chain state."""
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
        # same random stream and same decisions; lambda may differ only in
        # the last bits, because numpy's log/exp round differently from math's
        peaks, cfg, model, s0 = self.setup_state()
        rngs = [np.random.default_rng(12)]
        cs = s0
        for k in range(60):
            model.sweep(cs, rngs)
            a, b = copy.deepcopy(cs), copy.deepcopy(cs)
            rate_a = model.sweep_hyper(a, [np.random.default_rng(k)])
            rate_b = self.coordinate_loop_sweep(model, b, np.random.default_rng(k))
            assert rate_a == rate_b
            assert a.sigma_eps2[0] == pytest.approx(b.sigma_eps2[0], rel=1e-12)
            np.testing.assert_array_equal(a.sigma_g1_2, b.sigma_g1_2)
            np.testing.assert_array_equal(a.sigma_gs_2, b.sigma_gs_2)
            np.testing.assert_allclose(a.lam, b.lam, rtol=1e-12)
            assert a.lam_sum[0] == pytest.approx(b.lam_sum[0], rel=1e-12)

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


def chain_shaped_model(**settings):
    cfg = ModelConfig(**{"L": 50, "T_nu": 6, "T_u": 4, "iterations": 10, "burnin": 0,
                         **settings})
    return DewarpModel(chain_shaped_peaks(seed=2), cfg)


def assert_same_state(a, b):
    """Every field of two chain states equal, bit for bit."""
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert x.dtype == y.dtype and np.array_equal(x, y), f.name


class TestStateLayout:
    """The chain state as arrays on two gels of unequal size: after every
    block, in every chain, mu is W at (Z, lane) and each gel's W block is
    B_nu beta_g B_u', bit for bit, with no broken constraint."""

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

    @pytest.mark.parametrize("clamp", [False, True], ids=["free", "clamped"])
    @pytest.mark.parametrize("make_model", [unequal_two_gel_model, chain_shaped_model])
    def test_lockstep_equals_chains_alone(self, make_model, clamp):
        model = make_model()
        R, sweeps = 3, 200
        hi, lo = ANNEAL_HI * model.spacing_std, ANNEAL_LO * model.spacing_std
        together = model.init_chain_state(R)
        rngs = [np.random.default_rng((4, 911, r)) for r in range(R)]
        alone = [model.init_chain_state() for _ in range(R)]
        alone_rngs = [np.random.default_rng((4, 911, r)) for r in range(R)]
        for it in range(sweeps):
            rate = model.sweep(together, rngs)
            rates = [model.sweep(cs, [rng]) for cs, rng in zip(alone, alone_rngs)]
            L = model.cfg.L
            assert round(rate * R * L) == sum(round(x * L) for x in rates)
            if clamp:
                # the restart phase's annealing clamp, chain by chain
                c2 = (hi * (lo / hi) ** (it / (sweeps - 1))) ** 2
                np.minimum(together.sigma_eps2, c2, out=together.sigma_eps2)
                for cs in alone:
                    cs.sigma_eps2[0] = min(cs.sigma_eps2[0], c2)
            for r in range(R):
                assert_same_state(together.chain(r), alone[r])
            assert ([g.bit_generator.state for g in rngs]
                    == [g.bit_generator.state for g in alone_rngs])
            assert not model.count_violations(together).any()
        assert np.array_equal(
            model.log_joint(together, model.count_violations(together)),
            np.concatenate([model.log_joint(cs, model.count_violations(cs)) for cs in alone]))
        assert not np.array_equal(together.Z[0], together.Z[1])

    @staticmethod
    def serial_explore_restarts(model, cfg):
        """The restart phase as it ran before lockstep sweeps: one chain
        after another on its own state.  Returns the winner's index, every
        chain's final state and the violation count."""
        states = []
        viol = 0
        n = cfg.restart_sweeps
        hi = ANNEAL_HI * model.spacing_std
        lo = ANNEAL_LO * model.spacing_std
        release = max(30, n // 4)
        tail_n = min(25, release)
        best, best_score = None, -np.inf
        for i in range(cfg.restarts):
            rngs = [np.random.default_rng((cfg.seed, 911, i))]
            cs = model.init_chain_state()
            for it in range(n):
                model.sweep(cs, rngs)
                clamp = hi * (lo / hi) ** (it / max(n - 1, 1))
                if cs.sigma_eps2[0] > clamp * clamp:
                    cs.sigma_eps2[0] = clamp * clamp
                viol += int(model.count_violations(cs)[0])
            tail = []
            for it in range(release):
                model.sweep(cs, rngs)
                bad = model.count_violations(cs)
                viol += int(bad[0])
                if it >= release - tail_n:
                    tail.append(float(model.log_joint(cs, bad)[0]))
            score = float(np.mean(tail))
            states.append(cs)
            if score > best_score:
                best, best_score = i, score
        return best, states, viol

    @pytest.mark.parametrize("restarts", [2, 4])
    @pytest.mark.parametrize("make_model", [unequal_two_gel_model, chain_shaped_model])
    def test_restarts_match_serial_loop(self, make_model, restarts):
        model = make_model(seed=3, restarts=restarts, restart_sweeps=60)
        cs, viol = _explore_restarts(model, model.cfg)
        best, states, serial_viol = self.serial_explore_restarts(model, model.cfg)
        assert viol == serial_viol == 0
        assert_same_state(cs, states[best])
        same = []
        for i, st in enumerate(states):
            if all(np.array_equal(getattr(cs, f.name), getattr(st, f.name))
                   for f in dataclasses.fields(cs)):
                same.append(i)
        assert same == [best]

    def test_winner_is_first_strictly_best(self, monkeypatch):
        # a tie keeps the earlier chain, and a NaN never wins
        model = unequal_two_gel_model(restarts=4, restart_sweeps=30)
        scores = np.array([np.nan, -5.0, -5.0, -7.0])
        monkeypatch.setattr(DewarpModel, "log_joint", lambda self, cs, violations: scores.copy())
        picked = []
        chain = _ChainState.chain
        monkeypatch.setattr(_ChainState, "chain",
                            lambda self, r: picked.append(r) or chain(self, r))
        _explore_restarts(model, model.cfg)
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


def eager_sweep_beta(model, cs, rng):
    """sweep_beta on a one-chain state as it was before the lazy read: after
    each move, every residual correlation is updated, c -= G_k delta.
    Returns how many draws took _trunc_normal's far-tail branch."""
    cfg = model.cfg
    T_nu, T_u = cfg.T_nu, cfg.T_u
    K = model.n_free_rows * T_u
    se2 = float(cs.sigma_eps2[0])
    g_inc = model.id_incr.tolist()
    far = 0
    for gi, gel in enumerate(model.gels):
        X = (
            model.Bnu_land[cs.Z[0, gel.peaks], 1 : T_nu - 1][:, :, None] * gel.BuP[:, None, :]
        ).reshape(gel.n_peaks, K)
        G = (X.T @ X).tolist()
        c = (X.T @ (model._T_all[0, gel.peaks] - cs.mu[0, gel.peaks])).tolist()
        beta = cs.beta[0, gi].tolist()
        us = rng.random(K).tolist()
        v1 = float(cs.sigma_g1_2[0, gi])
        vgs = cs.sigma_gs_2[0, gi].tolist()
        k = 0
        for s in range(1, T_nu - 1):
            row, below, above = beta[s], beta[s - 1], beta[s + 1]
            vs = vgs[s - 1]
            for t in range(T_u):
                Gk = G[k]
                prec = Gk[k] / se2
                num = c[k] / se2 + prec * row[t]
                if t > 0:
                    prec += 1.0 / vs
                    num += row[t - 1] / vs
                if t < T_u - 1:
                    prec += 1.0 / vs
                    num += row[t + 1] / vs
                if t == 0:
                    prec += 1.0 / v1
                    num += (below[0] + g_inc[s - 1]) / v1
                    if s <= T_nu - 3:
                        prec += 1.0 / v1
                        num += (above[0] - g_inc[s]) / v1
                mean = num / prec
                sd = 1.0 / math.sqrt(prec)
                fa = 0.5 * math.erfc(-(below[t] - mean) / sd * SQRT_HALF)
                fb = 0.5 * math.erfc(-(above[t] - mean) / sd * SQRT_HALF)
                far += not fb - fa > 1e-12
                new = _trunc_normal(mean, sd, below[t], above[t], us[k], rng)
                delta = new - row[t]
                if delta != 0.0:
                    row[t] = new
                    c = [ci - gki * delta for ci, gki in zip(c, Gk)]
                k += 1
        cs.beta[0, gi] = beta
        cs.W[0][:, gel.cols] = model.Bnu_land @ cs.beta[0, gi] @ gel.Bu.T
        cs.mu[0, gel.peaks] = cs.W[0][cs.Z[0, gel.peaks], model._lane_of[gel.peaks]]
    return far


class TestLazyBetaScan:
    """sweep_beta reads each residual correlation once, at its visit, from
    its start value minus the earlier moves; its draws equal the eager
    update's bit for bit, sweep after sweep of a running chain."""

    @pytest.mark.parametrize("sigma_eps2", [None, 1e-8], ids=["running", "far_tail"])
    def test_lazy_scan_matches_eager(self, sigma_eps2):
        # at sigma_eps^2 = 1e-8 some conditionals sit far outside their
        # monotone interval, so _trunc_normal takes its rejection branch
        model = unequal_two_gel_model()
        cs = model.init_chain_state()
        rngs = [np.random.default_rng(21)]
        far = 0
        for k in range(500):
            model.sweep_Z(cs, rngs)
            if sigma_eps2 is not None:
                cs.sigma_eps2[0] = sigma_eps2
            lazy, eager = copy.deepcopy(cs), copy.deepcopy(cs)
            r_lazy, r_eager = np.random.default_rng((21, k)), np.random.default_rng((21, k))
            model.sweep_beta(lazy, [r_lazy])
            far += eager_sweep_beta(model, eager, r_eager)
            assert_same_state(lazy, eager)
            assert r_lazy.bit_generator.state == r_eager.bit_generator.state
            model.sweep_beta(cs, rngs)
            model.sweep_hyper(cs, rngs)
        if sigma_eps2 is None:
            assert far == 0
        else:
            assert far > 0
        assert model.count_violations(cs) == 0


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
        replaced: one chain, numpy per gel, the rest in Python floats."""
        cfg = model.cfg

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
            z_prior += gel.log_jfact
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
                want = (-np.inf,) * 5 if r == broken else self.scalar_log_joint(model, cs, r)
                assert got[r].tolist() == list(want)
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
        peaks, cfg, res, _ = small_run
        assert_summaries_match_draws(res)
        # the draws of several conditional chains, summarized together
        held = peaks.filter(lambda p: p.gel_id == "g2")
        out = align_new_gel(held, res.lambda_draws, cfg,
                            lambda_budget=3, iterations=40, burnin=20)
        assert len(out.log_joint_trace) == 3 * 20
        assert_summaries_match_draws(out)

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
        fields = read_warp_fields(wpath)
        for gel_id, field in res.beta_mean.items():
            f2, _std = fields[gel_id]
            np.testing.assert_allclose(f2.beta, field.beta)

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
        # the writers encode in one json.dumps call; the bytes must be the
        # ones json.dump to a file gives for the same payload
        _, _, res, _ = small_run
        for write in (write_zmap, write_landmarks):
            path = tmp_path / f"{write.__name__}.json"
            write(res, path)
            ref = tmp_path / "ref.json"
            with open(ref, "w") as f:
                json.dump(json.loads(path.read_text()), f, sort_keys=True)
                f.write("\n")
            assert path.read_bytes() == ref.read_bytes(), write.__name__

    def test_violations_counted_once_per_sweep(self, small_run, monkeypatch):
        # one count after each restart, release and main sweep, plus one at
        # initialization; the log joint of a kept sweep reuses its count
        peaks, cfg, res, _ = small_run
        calls = []
        count = DewarpModel.count_violations
        monkeypatch.setattr(DewarpModel, "count_violations",
                            lambda self, cs: calls.append(len(cs.Z)) or count(self, cs))
        again = run_mcmc(peaks, cfg)
        release = max(30, cfg.restart_sweeps // 4)
        assert len(calls) == cfg.restart_sweeps + release + cfg.iterations + 1 == 511
        assert calls == [1] + [cfg.restarts] * (cfg.restart_sweeps + release) + [1] * cfg.iterations
        assert again.violations == res.violations == 0
        assert np.array_equal(again.log_joint_trace, res.log_joint_trace)

    def test_warns_when_underdetermined(self):
        peaks = make_table({1: [0.3, 0.7]}, B=200)
        cfg = ModelConfig(L=8, T_nu=4, T_u=4, iterations=20, burnin=10,
                          seed=0, restarts=1)
        with pytest.warns(GelwarpWarning, match="weakly identified"):
            run_mcmc(peaks, cfg)


class TestAlignNewGel:
    def test_validations(self):
        peaks = make_table({1: [0.3, 0.7]}, B=200)
        cfg = ModelConfig(L=8, T_nu=4, T_u=4)
        with pytest.raises(ValueError, match="no stored lambda"):
            align_new_gel(peaks, np.empty((0, 8)), cfg)
        with pytest.raises(ValueError, match="columns"):
            align_new_gel(peaks, np.ones((3, 5)), cfg)
        # before, this passed the column check and failed inside numpy
        with pytest.raises(ValueError, match=re.escape("have shape (3, 8, 1)")):
            align_new_gel(peaks, np.ones((3, 8, 1)), cfg)
        with pytest.raises(ValueError, match="lambda_budget >= 1"):
            align_new_gel(peaks, np.ones((3, 8)), cfg, lambda_budget=0)
        for kwargs, msg in (({"lambda_budget": 2.5}, "lambda_budget must be an integer, got 2.5"),
                            ({"iterations": 40.0}, "iterations must be an integer, got 40.0"),
                            ({"burnin": 1.0}, "burnin must be an integer, got 1.0"),
                            ({"burnin": True}, "burnin must be an integer, got True")):
            with pytest.raises(ValueError, match=msg):
                align_new_gel(peaks, np.ones((3, 8)), cfg, **kwargs)

    @pytest.mark.parametrize("value", [-1.0, 0.0, float("nan"), float("inf")])
    def test_rejects_bad_lambda_draw(self, value):
        # one bad entry used to run through: landmarks outside 1..L in z_map,
        # a negative or NaN presence, and only a violation count to show it
        peaks = make_table({1: [0.3, 0.7]}, B=200)
        cfg = ModelConfig(L=8, T_nu=4, T_u=4)
        stored = np.ones((3, 8))
        stored[2, 4] = value
        msg = f"stored lambda draw in row 2 has entry {value!r} at landmark 5"
        with pytest.raises(ValueError, match=re.escape(msg)):
            align_new_gel(peaks, stored, cfg, lambda_budget=3, iterations=20, burnin=10)

    @pytest.mark.parametrize("iterations,burnin", [(10, 10), (10, 12), (10, -1)])
    def test_burnin_must_leave_draws(self, iterations, burnin):
        # burnin >= iterations would keep no draw to summarize
        peaks = make_table({1: [0.3, 0.7]}, B=200)
        cfg = ModelConfig(L=8, T_nu=4, T_u=4)
        msg = f"burnin={burnin}, iterations={iterations}"
        with pytest.raises(ValueError, match=msg):
            align_new_gel(peaks, np.ones((3, 8)), cfg,
                          iterations=iterations, burnin=burnin)

    @staticmethod
    def serial_align_new_gel(new_peaks, stored, cfg, lambda_budget, iterations, burnin):
        """align_new_gel's chains as they ran before lockstep sweeps: one
        chain after another on its own one-chain state, each draw appended
        as it was kept."""
        n_use = min(lambda_budget, stored.shape[0])
        idx = np.unique(np.linspace(0, stored.shape[0] - 1, n_use).astype(int))
        model = DewarpModel(new_peaks, cfg)
        draws = []
        violations = 0
        for chain_i, k in enumerate(idx):
            rngs = [np.random.default_rng(cfg.seed + 1000 + chain_i)]
            cs = model.init_chain_state()
            cs.lam[0] = stored[k]
            cs.lam_sum[0] = float(cs.lam[0].sum())
            for it in range(iterations):
                model.sweep(cs, rngs, fix_lambda=True)
                bad = model.count_violations(cs)
                violations += int(bad[0])
                if it >= burnin:
                    draws.append((cs.Z[0].copy(), cs.beta[0].copy(), cs.lam[0].copy(),
                                  model.log_joint(cs, bad)[0]))
        return _summarize(model, tuple(map(np.array, zip(*draws))), violations, 0.0)

    @pytest.mark.parametrize("lambda_budget", [1, 3, 9])
    def test_lockstep_matches_serial_loop(self, small_run, lambda_budget):
        # 5 stored draws, so a budget of 9 runs one chain per stored draw
        peaks, cfg, res, _ = small_run
        held = peaks.filter(lambda p: p.gel_id == "g2")
        stored = res.lambda_draws[::20]
        assert len(stored) == 5
        kwargs = dict(lambda_budget=lambda_budget, iterations=30, burnin=10)
        out = align_new_gel(held, stored, cfg, **kwargs)
        ref = self.serial_align_new_gel(held, stored, cfg, **kwargs)
        assert len(out.log_joint_trace) == min(lambda_budget, len(stored)) * 20
        assert out.lane_keys == ref.lane_keys
        for key in ref.lane_keys:
            assert np.array_equal(out.z_draws[key], ref.z_draws[key])
        for name in ("lambda_draws", "log_joint_trace", "presence"):
            assert np.array_equal(getattr(out, name), getattr(ref, name)), name
        for gel_id, field in ref.beta_mean.items():
            assert np.array_equal(out.beta_mean[gel_id].beta, field.beta)
        assert out.violations == ref.violations
        assert type(out.violations) is int

    def test_new_gel_uses_training_frequencies(self):
        peaks, truth = two_gel_peaks(seed=5)
        cfg = ModelConfig(L=20, T_nu=5, T_u=4, iterations=300, burnin=150,
                          seed=2, restarts=2, restart_sweeps=60)
        train = peaks.filter(lambda p: p.gel_id == "g1")
        held = peaks.filter(lambda p: p.gel_id == "g2")
        res = run_mcmc(train, cfg)
        out = align_new_gel(held, res.lambda_draws, cfg,
                            lambda_budget=3, iterations=120, burnin=60)
        assert set(k[0] for k in out.lane_keys) == {"g2"}
        assert out.violations == 0
        for key in out.lane_keys:
            assert np.all(np.diff(out.z_map[key]) > 0)
