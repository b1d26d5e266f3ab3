"""Acceptance suite: ten end-to-end guarantees, one pass/fail line each.

Every check prints a single [CRITERION k] PASS/FAIL line (visible with -s)
and enforces its runtime budget.  Instances are seed-pinned so reruns are
bit-for-bit repeatable.
"""

import json
import math
import time

import numpy as np

from gelwarp.cli import main as cli_main
from gelwarp.cluster import (
    DistanceMatrix,
    adjusted_rand,
    average_silhouette,
    bootstrap_confidence,
    cut,
    distance_matrix,
    hclust_complete,
    posterior_clustering_summary,
)
from gelwarp.core import (
    GelTrace,
    IntensityGrid,
    Lane,
    Standardizer,
    standardize_intensities,
)
from gelwarp.dewarp import (
    DewarpModel,
    ModelConfig,
    run_mcmc,
)
from gelwarp.exactalign import exact_align, invert_warp
from gelwarp.peakdetect import Peak, PeakConfig, PeakTable, detect_peaks, local_scores
from gelwarp.refalign import reference_align
from gelwarp.simulate import (
    SimSpec,
    actin_landmark,
    random_signatures,
    simulate_gels,
    true_assignments,
    true_warp_values,
)
from gelwarp.spline import eval_warp_grid


def report(num: int, label: str, ok: bool, detail: str) -> None:
    line = f"[CRITERION {num:02d}] {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def drop_reference(peaks: PeakTable, manifest: dict) -> PeakTable:
    keys = {(g, e["reference_lane"]) for g, e in manifest.items()}
    return peaks.filter(lambda p: (p.gel_id, p.lane) not in keys)


# ---------------------------------------------------------------------------
# 1. peak scoring against a direct window evaluation
# ---------------------------------------------------------------------------


def brute_scores(m: np.ndarray, h: int, c0: float) -> np.ndarray:
    """Literal three-term definition, one bin at a time."""
    B = m.size
    out = np.empty(B, dtype=int)
    for b in range(1, B + 1):
        lo = max(b - h, 1)
        hi = min(b + h, B)
        x = float(m[b - 1])
        wmin = float(m[lo - 1:hi].min())
        s = 0
        for d in (x - m[lo - 1], x - m[hi - 1], x - wmin - c0):
            s += int(d > 0) - int(d < 0)
        out[b - 1] = s
    return out


def test_criterion_01_peak_score_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    B = 500
    n_lanes = 1000
    mismatches = 0
    for _ in range(n_lanes):
        lane = rng.random(B)
        h = int(rng.integers(1, 21))
        c0 = float(rng.uniform(0.0, 0.4))
        got = local_scores(lane, PeakConfig(h=h, c0=c0))
        want = brute_scores(lane, h, c0)
        if not np.array_equal(got, want):
            mismatches += 1
    dt = time.perf_counter() - t0
    report(1, "peak-score brute-force oracle",
           mismatches == 0 and dt < 5.0,
           f"{n_lanes} lanes B={B}, {mismatches} mismatches, {dt:.1f}s < 5s")


# ---------------------------------------------------------------------------
# 2. reference alignment snaps each gel's references onto the template
# ---------------------------------------------------------------------------


def test_criterion_02_reference_alignment():
    t0 = time.perf_counter()
    spec = SimSpec(
        n_gels=4, lanes_per_gel=5, B=500, L=30,
        signatures=((4, 12, 24), (8, 18, 27), (6, 15, 21), (10, 20, 26)),
        n_replicates=5, warp_amplitude=0.5 / 31, refwarp_amplitude=0.03,
        sigma_eps=0.05 / 31, noise_sd=0.004,
    )
    grid, manifest, _truth = simulate_gels(spec, np.random.default_rng(12))
    sgrid = standardize_intensities(grid)
    peaks = detect_peaks(sgrid, PeakConfig(h=8, c0=0.05))
    aligned, _maps = reference_align(sgrid, peaks, "g1")
    realigned = detect_peaks(aligned, PeakConfig(h=8, c0=0.05))
    tmpl = [p.location for p in realigned.lane_peaks("g1", 1)]
    ok = len(tmpl) == 7
    worst = 0.0
    for gel in manifest:
        locs = [p.location for p in realigned.lane_peaks(gel, 1)]
        ok = ok and len(locs) == 7
        worst = max(worst, max(abs(a - b) for a, b in zip(locs, tmpl)))
    dt = time.perf_counter() - t0
    ok = ok and worst <= 1.0 / spec.B + 1e-12 and dt < 10.0
    report(2, "reference alignment within 1/B",
           ok, f"4 gels x 7 refs, worst offset {worst * spec.B:.2f} bins, {dt:.1f}s < 10s")


# ---------------------------------------------------------------------------
# 3. no constraint violations across a long full-sweep run
# ---------------------------------------------------------------------------


def test_criterion_03_constraint_soundness():
    t0 = time.perf_counter()
    spec = SimSpec(
        n_gels=2, lanes_per_gel=5, B=400, L=20,
        signatures=((3, 9, 16), (5, 12, 18)), n_replicates=5,
        warp_amplitude=0.6 / 21, sigma_eps=0.1 / 21, noise_sd=0.004,
    )
    grid, manifest, _truth = simulate_gels(spec, np.random.default_rng(2))
    peaks = drop_reference(
        detect_peaks(standardize_intensities(grid), PeakConfig(h=9, c0=0.05)),
        manifest,
    )
    assert len(peaks.lane_keys()) == 10
    cfg = ModelConfig(L=20, T_nu=5, T_u=4, iterations=100_000, burnin=99_000,
                      thin=10, seed=1, restarts=2, restart_sweeps=500)
    res = run_mcmc(peaks, cfg)
    sweeps = cfg.iterations + cfg.restarts * cfg.restart_sweeps
    dt = time.perf_counter() - t0
    ok = res.violations == 0 and sweeps >= 100_000 and dt < 300.0
    report(3, "constraint soundness over 1e5 sweeps",
           ok, f"{sweeps} sweeps, {res.violations} violations, {dt:.0f}s < 300s")


# ---------------------------------------------------------------------------
# 4. single-lane Z-sampler against exhaustive enumeration
# ---------------------------------------------------------------------------


def test_criterion_04_z_sampler_exactness():
    t0 = time.perf_counter()
    L, B = 5, 120
    locs = [0.30, 0.70]
    peaks = PeakTable(
        [Peak("G1", 2, j + 1, int(round(x * B)), x, 1.0) for j, x in enumerate(locs)],
        B,
    )
    cfg = ModelConfig(L=L, T_nu=4, T_u=4, iterations=10, burnin=0, seed=0)
    lam = np.array([0.30, 0.05, 0.25, 0.10, 0.30])
    sigma = 0.8  # spacings

    # exhaustive posterior over ordered admissible pairs, identity warp
    T = (np.array(locs) - 0.5) * (L + 1)
    nu = np.arange(1, L + 1) - (L + 1) / 2.0
    exact = {}
    for z1 in range(1, L + 1):
        for z2 in range(z1 + 1, L + 1):
            if abs(T[0] - nu[z1 - 1]) >= 3.0 or abs(T[1] - nu[z2 - 1]) >= 3.0:
                continue
            w = lam[z1 - 1] * lam[z2 - 1]
            w *= math.exp(-0.5 * ((T[0] - nu[z1 - 1]) / sigma) ** 2)
            w *= math.exp(-0.5 * ((T[1] - nu[z2 - 1]) / sigma) ** 2)
            exact[(z1, z2)] = w
    tot = sum(exact.values())
    exact = {k: v / tot for k, v in exact.items()}

    model = DewarpModel(peaks, cfg)
    cs = model.init_chain_state()
    cs.lam[0], cs.lam_sum[0] = lam, float(lam.sum())
    cs.sigma_eps2[0] = sigma**2
    rngs = [np.random.default_rng(7)]
    counts: dict = {}
    n = 1_000_000
    for _ in range(n):
        model.sweep_Z(cs, rngs)
        key = (int(cs.Z[0, 0]), int(cs.Z[0, 1]))
        counts[key] = counts.get(key, 0) + 1
    outside = sum(v for k, v in counts.items() if k not in exact)
    tv = 0.5 * sum(abs(counts.get(k, 0) / n - p) for k, p in exact.items())
    tv += 0.5 * outside / n
    dt = time.perf_counter() - t0
    ok = tv <= 0.02 and outside == 0 and dt < 120.0
    report(4, "Z Gibbs vs exhaustive enumeration",
           ok, f"1e6 draws, TV {tv:.4f} <= 0.02, {dt:.0f}s < 120s")


# ---------------------------------------------------------------------------
# 5. warp surface and MAP assignment recovery at G=2, N_g=10, L=50
# ---------------------------------------------------------------------------


def test_criterion_05_warp_recovery():
    t0 = time.perf_counter()
    L = 50
    sigs = (
        (1, 5, 9, 26, 31, 46, 50),
        (1, 5, 12, 26, 35, 46, 50),
        (1, 5, 15, 26, 39, 46, 50),
        (1, 5, 18, 26, 43, 46, 50),
    )
    spec = SimSpec(n_gels=2, lanes_per_gel=10, B=500, L=L, signatures=sigs,
                   n_replicates=5, sigma_eps=0.2 / (L + 1), peak_width=0.004,
                   warp_amplitude=1.2 / (L + 1))
    grid, manifest, truth = simulate_gels(spec, np.random.default_rng(11))
    peaks = drop_reference(
        detect_peaks(standardize_intensities(grid), PeakConfig(h=8, c0=0.05)),
        manifest,
    )
    cfg = ModelConfig(L=L, T_nu=6, T_u=4, iterations=3000, burnin=1500,
                      seed=3, restarts=4)
    res = run_mcmc(peaks, cfg)

    total = hits = 0
    for key, zs in res.z_map.items():
        zt = true_assignments(truth, key[0], key[1], res.peak_locations[key])
        total += len(zs)
        hits += int(np.sum(np.asarray(zs) == zt))
    acc = hits / total

    ax = Standardizer.from_dict(res.standardizers["axis"])
    nu = np.arange(L + 2) / (L + 1)
    close = n_pts = 0
    for gel_id, field in res.beta_mean.items():
        tw = true_warp_values(truth, gel_id)
        u_std = np.asarray(res.standardizers["lane"][gel_id]["u_std"])
        est = ax.invert(eval_warp_grid(field, ax.apply(nu), u_std))
        err = np.abs(est - tw)
        close += int(np.sum(err <= 1.5 / (L + 1)))
        n_pts += est.size
    surf = close / n_pts
    dt = time.perf_counter() - t0
    ok = surf >= 0.90 and acc >= 0.95 and res.violations == 0 and dt < 900.0
    report(5, "warp surface and MAP recovery",
           ok, f"surface within 1.5/(L+1) at {surf:.1%} >= 90%, "
               f"MAP accuracy {acc:.1%} >= 95%, {dt:.0f}s < 900s")


# ---------------------------------------------------------------------------
# 6. pre-processing uniformly improves clustering on replicate pairs
# ---------------------------------------------------------------------------


def test_criterion_06_uniform_improvement():
    t0 = time.perf_counter()
    L = 50
    rng = np.random.default_rng(25)
    sigs = random_signatures(20, 3, L, rng, min_sep=3, exclude=(actin_landmark(L),))
    spec = SimSpec(
        n_gels=2, lanes_per_gel=20, B=500, L=L, signatures=sigs, n_replicates=2,
        warp_amplitude=1.2 / (L + 1), refwarp_amplitude=0.01,
        sigma_eps=0.1 / (L + 1), noise_sd=0.005, exposure_scales=(1.0, 0.6),
    )
    grid, manifest, truth = simulate_gels(spec, rng)
    grid = standardize_intensities(grid)
    truth_labels = np.asarray(truth["partition_labels"])
    n_values = list(range(2, 21))

    D_raw = distance_matrix(grid)
    dend_raw = hclust_complete(D_raw)
    raw_ari, raw_sil = {}, {}
    for n in n_values:
        labels = cut(dend_raw, n)
        raw_ari[n] = adjusted_rand(labels, truth_labels)
        raw_sil[n] = average_silhouette(D_raw, labels)

    peaks0 = detect_peaks(grid, PeakConfig(h=8, c0=0.05))
    aligned, _maps = reference_align(grid, peaks0, "g1")
    peaks = drop_reference(detect_peaks(aligned, PeakConfig(h=8, c0=0.05)), manifest)
    cfg = ModelConfig(L=L, T_nu=6, T_u=4, iterations=2000, burnin=1000,
                      thin=10, seed=5, restarts=4)
    res = run_mcmc(peaks, cfg)
    rows = posterior_clustering_summary(aligned, peaks, res.z_draws, L,
                                        truth=truth_labels, n_values=n_values,
                                        thin=2)
    D_map = distance_matrix(exact_align(aligned, peaks, res.z_map, L))
    dend_map = hclust_complete(D_map)
    pre_sil = {n: average_silhouette(D_map, cut(dend_map, n)) for n in n_values}

    ari_margin = min(r["ari_mean"] - raw_ari[r["n"]] for r in rows)
    sil_margin = min(pre_sil[n] - raw_sil[n] for n in n_values)
    dt = time.perf_counter() - t0
    ok = ari_margin > 0 and sil_margin > 0 and dt < 1800.0
    report(6, "uniform aRI and silhouette improvement",
           ok, f"n=2..20, min aRI margin {ari_margin:+.4f} > 0, "
               f"min silhouette margin {sil_margin:+.4f} > 0, {dt:.0f}s < 1800s")


# ---------------------------------------------------------------------------
# 7. clustering metrics against brute-force references
# ---------------------------------------------------------------------------


def oracle_adjusted_rand(a, b) -> float:
    N = len(a)
    same_both = same_a = same_b = 0
    for i in range(N):
        for j in range(i + 1, N):
            sa = a[i] == a[j]
            sb = b[i] == b[j]
            same_a += sa
            same_b += sb
            same_both += sa and sb
    pairs = math.comb(N, 2)
    expected = same_a * same_b / pairs
    maximum = 0.5 * (same_a + same_b)
    if abs(maximum - expected) < 1e-12:
        return 1.0
    return (same_both - expected) / (maximum - expected)


def oracle_silhouette(V, labels) -> float:
    N = len(labels)
    uniq = sorted(set(labels))
    total = 0.0
    for i in range(N):
        own = [j for j in range(N) if labels[j] == labels[i]]
        if len(own) == 1:
            continue
        a = sum(V[i][j] for j in own) / (len(own) - 1)
        b = min(
            sum(V[i][j] for j in range(N) if labels[j] == c)
            / sum(1 for j in range(N) if labels[j] == c)
            for c in uniq
            if c != labels[i]
        )
        denom = max(a, b)
        if denom > 0.0:
            total += (b - a) / denom
    return total / N


def test_criterion_07_metric_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(17)
    ari_mismatch = sil_mismatch = self_fail = 0
    for _ in range(500):
        N = int(rng.integers(2, 11))
        a = rng.integers(0, 4, N)
        b = rng.integers(0, 4, N)
        if adjusted_rand(a, b) != oracle_adjusted_rand(a.tolist(), b.tolist()):
            ari_mismatch += 1
        if adjusted_rand(a, a) != 1.0:
            self_fail += 1

        labels = rng.integers(0, 3, N)
        labels[0] = 0
        labels[-1] = 1
        M = rng.random((N, N))
        V = 0.5 * (M + M.T)
        np.fill_diagonal(V, 0.0)
        D = DistanceMatrix(tuple(("g", i) for i in range(N)), V)
        if average_silhouette(D, labels) != oracle_silhouette(V.tolist(), labels.tolist()):
            sil_mismatch += 1

    vals = np.empty(10_000)
    for k in range(vals.size):
        vals[k] = adjusted_rand(rng.integers(0, 4, 12), rng.integers(0, 4, 12))
    mean_ari = float(vals.mean())
    dt = time.perf_counter() - t0
    ok = (ari_mismatch == 0 and sil_mismatch == 0 and self_fail == 0
          and abs(mean_ari) < 0.01 and dt < 60.0)
    report(7, "metric brute-force oracles",
           ok, f"500 instances exact ({ari_mismatch}/{sil_mismatch} mismatches), "
               f"aRI(C,C)=1, random-pair mean {mean_ari:+.4f} within 0.01, "
               f"{dt:.0f}s < 60s")


# ---------------------------------------------------------------------------
# 8. bootstrap confidences: real blocks high, noise subtrees low
# ---------------------------------------------------------------------------


def bump_block_grid(rng) -> IntensityGrid:
    B = 300
    t = np.arange(1, B + 1) / B
    lanes = []
    for i in range(8):
        centers = (0.2, 0.4) if i < 4 else (0.6, 0.8)
        sig = np.zeros(B)
        for c in centers:
            sig += np.exp(-0.5 * ((t - c) / 0.01) ** 2)
        lanes.append(Lane(i + 1, sig + rng.normal(0.0, 0.02, B)))
    return IntensityGrid((GelTrace("g1", tuple(lanes)),), B)


def test_criterion_08_bootstrap_confidence():
    t0 = time.perf_counter()
    grid = bump_block_grid(np.random.default_rng(5))
    conf = bootstrap_confidence(grid, 500, np.random.default_rng(6))
    block_a = tuple(sorted(("g1", i) for i in (1, 2, 3, 4)))
    block_b = tuple(sorted(("g1", i) for i in (5, 6, 7, 8)))
    ca = conf.get(block_a, 0.0)
    cb = conf.get(block_b, 0.0)

    rng = np.random.default_rng(100)
    noise = IntensityGrid(
        (GelTrace("g1", tuple(Lane(i + 1, rng.normal(0.0, 1.0, 300))
                              for i in range(16))),),
        300,
    )
    conf_n = bootstrap_confidence(noise, 500, np.random.default_rng(7))
    big = [c for k, c in conf_n.items() if len(k) >= 4]
    worst = max(big) if big else 0.0
    dt = time.perf_counter() - t0
    ok = ca >= 0.95 and cb >= 0.95 and worst <= 0.8 and dt < 300.0
    report(8, "bootstrap confidence sanity",
           ok, f"blocks {ca:.3f}/{cb:.3f} >= 0.95, "
               f"noise max big-subtree {worst:.3f} <= 0.8, {dt:.0f}s < 300s")


# ---------------------------------------------------------------------------
# 9. smooth inverse leaves residual error; exact alignment does not
# ---------------------------------------------------------------------------


def test_criterion_09_exact_vs_smooth_inverse():
    t0 = time.perf_counter()
    L = 60
    rng = np.random.default_rng(9)
    sigs = random_signatures(25, 10, L, rng, min_sep=3,
                             exclude=(actin_landmark(L),))
    spec = SimSpec(n_gels=4, lanes_per_gel=25, B=500, L=L, signatures=sigs,
                   n_replicates=4, warp_amplitude=1.0 / (L + 1),
                   refwarp_amplitude=0.0, sigma_eps=0.25 / (L + 1),
                   noise_sd=0.003, exposure_scales=(1.0,))
    grid, manifest, truth = simulate_gels(spec, rng)
    sgrid = standardize_intensities(grid)
    peaks = drop_reference(detect_peaks(sgrid, PeakConfig(h=8, c0=0.1)), manifest)

    nu = np.arange(L + 2) / (L + 1)
    z = {}
    gaps = []
    for key in peaks.lane_keys():
        gel_id, lane = key
        locs = np.array([p.location for p in peaks.lane_peaks(gel_id, lane)])
        zt = true_assignments(truth, gel_id, lane, locs)
        assert np.all(np.diff(zt) > 0), key
        z[key] = zt
        winfo = truth["warps"][gel_id]
        col = np.asarray(winfo["values"])[:, winfo["lanes"].index(lane)]
        gaps.extend(np.abs(invert_warp(nu, col, locs) - nu[zt]).tolist())
    mean_gap = float(np.mean(gaps))

    exact = exact_align(sgrid, peaks, z, L)
    repeaks = detect_peaks(exact, PeakConfig(h=8, c0=0.1))
    worst = 0.0
    n_peaks = 0
    count_ok = True
    for key, zt in z.items():
        elocs = np.array([p.location for p in repeaks.lane_peaks(key[0], key[1])])
        count_ok = count_ok and len(elocs) == len(zt)
        worst = max(worst, float(np.max(np.abs(elocs - nu[zt]))))
        n_peaks += len(zt)
    dt = time.perf_counter() - t0
    ok = (n_peaks >= 1000 and mean_gap > 0.0 and count_ok
          and worst <= 1.0 / spec.B + 1e-12 and dt < 10.0)
    report(9, "exact alignment vs smooth inverse",
           ok, f"{n_peaks} peaks, mean |Sinv(T) - nu_Z| = {mean_gap:.4f} > 0, "
               f"exact worst {worst:.4f} <= 1/B = {1 / spec.B:.4f}, {dt:.1f}s < 10s")


# ---------------------------------------------------------------------------
# 10. end-to-end determinism of the pipeline
# ---------------------------------------------------------------------------


def test_criterion_10_pipeline_determinism(tmp_path):
    t0 = time.perf_counter()
    spec = {
        "n_gels": 2, "lanes_per_gel": 3, "B": 400, "L": 30,
        "signatures": [[4, 12, 24], [8, 18, 27], [6, 15, 21]],
        "n_replicates": 2, "warp_amplitude": 0.02, "refwarp_amplitude": 0.01,
        "sigma_eps": 0.004, "noise_sd": 0.005,
    }
    spec_path = tmp_path / "sim.json"
    spec_path.write_text(json.dumps(spec))
    assert cli_main(["simulate", "--spec", str(spec_path), "--seed", "7",
                     "--out", str(tmp_path / "sim")]) == 0

    cfg = {
        "seed": 7,
        "inputs": {
            "traces": str(tmp_path / "sim" / "traces.csv"),
            "manifest": str(tmp_path / "sim" / "manifest.json"),
            "truth": str(tmp_path / "sim" / "truth.json"),
        },
        "detect": {"h": 8, "c0": 0.05},
        "refalign": {"template": "g1"},
        "dewarp": {"L": 30, "T_nu": 5, "T_u": 4, "iterations": 300,
                   "burnin": 150, "thin": 2, "restarts": 2, "restart_sweeps": 50},
        "cluster": {"nboot": 100, "draw_thin": 5},
    }
    outs = []
    for name in ("run1", "run2"):
        cfg["out"] = str(tmp_path / name)
        path = tmp_path / f"pipe_{name}.json"
        path.write_text(json.dumps(cfg))
        assert cli_main(["pipeline", "--config", str(path)]) == 0
        assert cli_main(["plotdata", "--run", cfg["out"]]) == 0
        outs.append(tmp_path / name)

    a, b = outs
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    same_names = files_a == files_b
    diff = [str(rel) for rel in files_a
            if (a / rel).read_bytes() != (b / rel).read_bytes()]
    dt = time.perf_counter() - t0
    ok = same_names and not diff
    report(10, "pipeline determinism",
           ok, f"{len(files_a)} artifacts byte-identical across reruns, {dt:.0f}s")
