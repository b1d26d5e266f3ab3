"""Synthetic gel generator with known ground truth.

Each sample lane carries Gaussian-shaped bands at smoothly warped landmark
positions; a piecewise-linear inter-gel warp and a reference ladder lane sit
on top.  The generator returns the traces together with the true assignments,
warp fields, and partition, so every downstream stage can be scored against
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .core import GelTrace, IntensityGrid, Lane, LandmarkGrid, lane_name, read_json, write_json
from .refalign import PiecewiseLinearMap, apply_map

REFERENCE_KDA = (200.0, 116.0, 97.0, 66.0, 45.0, 31.0, 21.5)
ACTIN_FRACTION = 0.43


def reference_locations(kda=REFERENCE_KDA) -> np.ndarray:
    """Template-frame ladder positions, log-linear in molecular weight."""
    w = np.log(np.asarray(kda, dtype=float))
    x = (w[0] - w) / (w[0] - w[-1])
    return 0.08 + 0.84 * x


def actin_landmark(L: int) -> int:
    """Index of the universal band landmark."""
    return int(round(ACTIN_FRACTION * (L + 1)))


def random_signatures(
    n_clusters: int,
    n_bands: int,
    L: int,
    rng,
    min_sep: int = 3,
    exclude: tuple[int, ...] = (),
) -> tuple[tuple[int, ...], ...]:
    """Draw distinct landmark subsets with pairwise separation >= min_sep.

    Separation is also enforced against the excluded landmarks (the universal
    band) so bands never merge on the grid.
    """
    rng = np.random.default_rng(rng)
    pool = [
        ell
        for ell in range(1, L + 1)
        if all(abs(ell - e) >= min_sep for e in exclude)
    ]
    if len(pool) < n_bands:
        raise ValueError(f"landmark pool too small for {n_bands} bands")
    out: list[tuple[int, ...]] = []
    for _ in range(n_clusters):
        for _ in range(10000):
            trial = tuple(sorted(rng.choice(pool, size=n_bands, replace=False).tolist()))
            if all(b - a >= min_sep for a, b in zip(trial, trial[1:])) and trial not in out:
                out.append(trial)
                break
        else:
            raise ValueError(
                f"could not draw {n_clusters} distinct signatures "
                f"(L={L}, bands={n_bands}, min_sep={min_sep})"
            )
    return tuple(out)


@dataclass(frozen=True)
class SimSpec:
    """Generator settings.  Amplitudes and widths are in trace coordinates.

    Each of the len(signatures) clusters is replicated n_replicates times;
    replicates share band positions but differ in exposure scale and noise,
    and consecutive replicates land on different gels when possible.
    """

    n_gels: int
    lanes_per_gel: int
    B: int
    L: int
    signatures: tuple[tuple[int, ...], ...]
    n_replicates: int = 2
    warp_amplitude: float = 0.0
    refwarp_amplitude: float = 0.0
    sigma_eps: float = 0.0
    peak_width: float = 0.004
    # kept well below the peak-calling threshold so noise spikes never score
    noise_sd: float = 0.005
    exposure_scales: tuple[float, ...] = (1.0, 0.6)
    actin: bool = True
    reference_kda: tuple[float, ...] = REFERENCE_KDA

    def __post_init__(self):
        object.__setattr__(self, "signatures", tuple(tuple(s) for s in self.signatures))
        object.__setattr__(self, "exposure_scales", tuple(self.exposure_scales))
        object.__setattr__(self, "reference_kda", tuple(self.reference_kda))
        if self.n_gels < 1 or self.lanes_per_gel < 1 or self.B < 50 or self.L < 2:
            raise ValueError("need n_gels >= 1, lanes_per_gel >= 1, B >= 50, L >= 2")
        if not self.signatures:
            raise ValueError("need at least one cluster signature")
        for sig in self.signatures:
            if any(not (1 <= ell <= self.L) for ell in sig):
                raise ValueError(f"signature {sig}: landmarks must lie in 1..{self.L}")
            if list(sig) != sorted(set(sig)):
                raise ValueError(f"signature {sig}: landmarks must be strictly increasing")
        n_samples = len(self.signatures) * self.n_replicates
        if n_samples != self.n_gels * self.lanes_per_gel:
            raise ValueError(
                f"{len(self.signatures)} clusters x {self.n_replicates} replicates "
                f"= {n_samples} samples, but {self.n_gels} gels x "
                f"{self.lanes_per_gel} lanes = {self.n_gels * self.lanes_per_gel}"
            )
        # dS/dnu = 1 + A 2pi cos(2pi nu) m(u) with |m| <= 1
        if 2.0 * math.pi * abs(self.warp_amplitude) >= 1.0:
            raise ValueError(
                f"warp amplitude {self.warp_amplitude} violates monotonicity; "
                f"need |A| < 1/(2*pi)"
            )
        # refwarp knots are 0.25 apart, so displacements beyond 0.125 can cross
        if not (0.0 <= self.refwarp_amplitude < 0.125):
            raise ValueError("refwarp_amplitude must lie in [0, 0.125)")
        if self.sigma_eps < 0 or self.peak_width <= 0 or self.noise_sd < 0:
            raise ValueError("sigma_eps, noise_sd >= 0 and peak_width > 0 required")
        if any(e <= 0 for e in self.exposure_scales):
            raise ValueError("exposure scales must be positive")

    @property
    def n_clusters(self) -> int:
        return len(self.signatures)

    @property
    def n_samples(self) -> int:
        return self.n_clusters * self.n_replicates

    @classmethod
    def from_dict(cls, d: dict, rng=None) -> "SimSpec":
        """Build from a plain dict; "signatures" may instead be a
        {"random": {"n_clusters": ..., "n_bands": ..., "min_sep": ...}} recipe
        drawn with rng.  Unknown keys are rejected by name."""
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown simulator settings: {', '.join(sorted(unknown))}")
        d = dict(d)
        sigs = d.get("signatures")
        if isinstance(sigs, dict):
            try:
                recipe = sigs["random"]
                n_clusters, n_bands, L = recipe["n_clusters"], recipe["n_bands"], d["L"]
            except KeyError as exc:
                raise ValueError(f"random signatures need the key {exc}") from None
            exclude = (actin_landmark(L),) if d.get("actin", True) else ()
            d["signatures"] = random_signatures(
                n_clusters,
                n_bands,
                L,
                np.random.default_rng(rng),
                min_sep=recipe.get("min_sep", 3),
                exclude=exclude,
            )
        if "signatures" in d:
            d["signatures"] = tuple(tuple(int(b) for b in s) for s in d["signatures"])
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in d.items()})


def _smooth_warp(nu, amplitude: float, c: float, u: float):
    """S(nu, u) = nu + A sin(2 pi nu) (c + (1 - c) u); fixes 0 and 1."""
    return nu + amplitude * np.sin(2.0 * math.pi * np.asarray(nu, dtype=float)) * (
        c + (1.0 - c) * u
    )


def _lane_positions(landmarks, grid, warp, u, sigma_eps, rng):
    """True band positions in the reference-aligned frame, strictly ordered."""
    base = _smooth_warp(grid.nu[np.asarray(landmarks)], warp["amplitude"], warp["c"], u)
    if sigma_eps == 0.0:
        return base
    for _ in range(100):
        pos = base + rng.normal(0.0, sigma_eps, size=base.size)
        if np.all(np.diff(pos) > 0) and pos[0] > 0.0 and pos[-1] < 1.0:
            return pos
    raise ValueError("sigma_eps too large: band positions keep colliding")


def _bands_trace(t, positions, amplitudes, width):
    trace = np.zeros_like(t)
    for x, a in zip(positions, amplitudes):
        trace += a * np.exp(-0.5 * ((t - x) / width) ** 2)
    return trace


def simulate_gels(spec: SimSpec, rng) -> tuple[IntensityGrid, dict, dict]:
    """Generate (grid, manifest, truth) from the spec, deterministically in rng."""
    rng = np.random.default_rng(rng)
    grid_lm = LandmarkGrid(spec.L)
    actin = actin_landmark(spec.L) if spec.actin else None
    ref_locs = reference_locations(spec.reference_kda)
    n_lanes = spec.lanes_per_gel + 1
    t = np.arange(1, spec.B + 1) / spec.B

    # full lane signature per cluster: template bands plus the universal band
    lane_sigs = []
    for sig in spec.signatures:
        full = sorted(set(sig) | ({actin} if actin is not None else set()))
        lane_sigs.append(tuple(full))

    # per-cluster base band amplitudes, shared by replicates
    base_amp = [
        {ell: rng.uniform(0.7, 1.0) for ell in sig} for sig in lane_sigs
    ]

    # per-gel warps: smooth within-gel field and piecewise-linear inter-gel map
    warps = []
    pl_knots = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    for g in range(spec.n_gels):
        amp = 0.0
        if spec.warp_amplitude > 0:
            amp = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.6, 1.0) * spec.warp_amplitude)
        c = float(rng.uniform(0.0, 0.5))
        if g == 0 or spec.refwarp_amplitude == 0.0:
            tmpl = pl_knots.copy()
        else:
            tmpl = pl_knots.copy()
            tmpl[1:-1] += rng.uniform(-spec.refwarp_amplitude, spec.refwarp_amplitude, 3)
        warps.append(
            {"amplitude": amp, "c": c, "pl": PiecewiseLinearMap(pl_knots, tmpl)}
        )

    # sample placement: replicate r of every cluster before replicate r+1,
    # which puts a cluster's copies on different gels whenever R <= G
    order = sorted(range(spec.n_samples), key=lambda s: (s % spec.n_replicates, s // spec.n_replicates))
    slots = {}
    for p, s in enumerate(order):
        gel_idx, slot = divmod(p, spec.lanes_per_gel)
        slots[(gel_idx, slot + 2)] = s

    gels = []
    truth_lanes: dict[str, dict] = {}
    samples: dict[str, dict] = {}
    partition_labels: list[int] = []
    lane_order: list[str] = []
    for g in range(spec.n_gels):
        gel_id = f"g{g + 1}"
        warp = warps[g]
        truth_lanes[gel_id] = {}
        lanes = [None] * n_lanes

        ref_raw = apply_map(warp["pl"], ref_locs)
        ref_amp = rng.uniform(0.9, 1.1, size=ref_locs.size)
        ref_trace = _bands_trace(t, ref_raw, ref_amp, spec.peak_width)
        if spec.noise_sd > 0:
            ref_trace = ref_trace + rng.normal(0.0, spec.noise_sd, spec.B)
        lanes[0] = Lane(1, ref_trace, is_reference=True)

        for slot in range(spec.lanes_per_gel):
            lane_idx = slot + 2
            s = slots[(g, slot + 2)]
            cluster, replicate = divmod(s, spec.n_replicates)
            exposure = spec.exposure_scales[replicate % len(spec.exposure_scales)]
            u = (lane_idx - 1) / (n_lanes - 1)
            landmarks = lane_sigs[cluster]
            aligned = _lane_positions(landmarks, grid_lm, warp, u, spec.sigma_eps, rng)
            raw = apply_map(warp["pl"], aligned)
            amps = np.array(
                [base_amp[cluster][ell] * rng.uniform(0.9, 1.1) for ell in landmarks]
            )
            trace = _bands_trace(t, raw, amps, spec.peak_width)
            if spec.noise_sd > 0:
                trace = trace + rng.normal(0.0, spec.noise_sd, spec.B)
            lanes[lane_idx - 1] = Lane(lane_idx, exposure * trace, is_reference=False)

            key = lane_name((gel_id, lane_idx))
            lane_order.append(key)
            partition_labels.append(cluster + 1)
            samples[key] = {
                "cluster": cluster + 1,
                "replicate": replicate,
                "exposure": exposure,
            }
            truth_lanes[gel_id][str(lane_idx)] = {
                "landmarks": list(landmarks),
                "aligned": [float(x) for x in aligned],
                "raw": [float(x) for x in raw],
            }
        gels.append(GelTrace(gel_id, tuple(lanes)))

    grid = IntensityGrid(tuple(gels), spec.B)

    manifest = {
        f"g{g + 1}": {
            "reference_lane": 1,
            "reference_kda": list(spec.reference_kda),
            "masked_intervals": [],
        }
        for g in range(spec.n_gels)
    }

    nu = grid_lm.nu
    truth_warps = {}
    for g in range(spec.n_gels):
        w = warps[g]
        us = [(i - 1) / (n_lanes - 1) for i in range(2, n_lanes + 1)]
        values = np.column_stack(
            [_smooth_warp(nu, w["amplitude"], w["c"], u) for u in us]
        )
        truth_warps[f"g{g + 1}"] = {
            "amplitude": w["amplitude"],
            "c": w["c"],
            "u": us,
            "lanes": list(range(2, n_lanes + 1)),
            "values": values.tolist(),
            "refwarp": {
                "query_knots": w["pl"].query_knots.tolist(),
                "template_knots": w["pl"].template_knots.tolist(),
            },
        }

    truth = {
        "L": spec.L,
        "B": spec.B,
        "actin_landmark": actin,
        "cluster_signatures": [list(s) for s in spec.signatures],
        "lane_order": lane_order,
        "partition_labels": partition_labels,
        "samples": samples,
        "lanes": truth_lanes,
        "warps": truth_warps,
    }
    return grid, manifest, truth


def true_assignments(truth: dict, gel_id: str, lane: int, locations) -> np.ndarray:
    """Map observed reference-aligned peak locations to generating landmarks.

    Each location goes to the landmark whose true aligned band position is
    nearest; robust to peaks the detector missed or split.
    """
    entry = truth["lanes"][gel_id][str(lane)]
    pos = np.asarray(entry["aligned"], dtype=float)
    landmarks = np.asarray(entry["landmarks"], dtype=int)
    locations = np.atleast_1d(np.asarray(locations, dtype=float))
    idx = np.argmin(np.abs(locations[:, None] - pos[None, :]), axis=1)
    return landmarks[idx]


def true_warp_values(truth: dict, gel_id: str) -> np.ndarray:
    """(L+2) x n_sample_lanes matrix of S_g(nu_l, u_i)."""
    return np.asarray(truth["warps"][gel_id]["values"], dtype=float)


def write_truth(truth: dict, path) -> None:
    write_json(truth, path, indent=2)


def read_truth(path) -> dict:
    return read_json(path)
