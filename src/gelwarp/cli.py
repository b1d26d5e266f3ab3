"""Command-line pipeline: detect -> refalign -> dewarp -> align -> cluster.

Each stage is a standalone subcommand; ``pipeline`` chains them from one
JSON config with content-hash resume, and ``plotdata`` exports CSV series
for the standard summary figures (cluster quality vs n, warp curves with
peak-landmark connections, dendrogram with subtree confidences).
"""

from __future__ import annotations

import argparse
import copy
import csv
import dataclasses
import json
import sys
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .cluster import (
    bootstrap_confidence,
    check_n_values,
    distance_matrix,
    hclust_complete,
    partition_scores,
    posterior_clustering_summary,
    quality_rows,
    to_newick,
    write_confidence,
    write_metrics,
)
from .core import (
    LandmarkGrid,
    check_int,
    lane_name,
    open_text,
    read_json,
    read_manifest,
    read_traces_csv,
    standardize_intensities,
    write_csv,
    write_json,
    write_manifest,
    write_traces_csv,
)
from .dewarp import (
    ModelConfig,
    read_landmark_probs,
    read_warp_json,
    read_zmap,
    run_mcmc,
    write_chain_log,
    write_landmarks,
    write_signatures_csv,
    write_warp_json,
    write_zmap,
)
from .exactalign import exact_align
from .peakdetect import Peak, PeakConfig, PeakTable, detect_peaks
from .refalign import reference_align, write_maps
from .simulate import SimSpec, read_truth, simulate_gels, write_truth
from .spline import eval_warp_grid

# All stage settings live in one config; these are the pre-filled defaults.
# The detect and dewarp sections take theirs from PeakConfig and ModelConfig
# (seed excluded: it is the top-level key).
DEFAULT_CONFIG = {
    "seed": 7,
    "out": "run",
    "inputs": {"traces": "traces.csv", "manifest": "manifest.json", "truth": None},
    "detect": {"h": PeakConfig.h, "c0": PeakConfig.c0},
    "refalign": {"template": None},
    "dewarp": {f.name: f.default for f in dataclasses.fields(ModelConfig) if f.name != "seed"},
    "cluster": {"nboot": 1000, "n_values": None, "draw_thin": 1},
}

PIPELINE_STAGES = ("detect", "refalign", "redetect", "dewarp", "align", "cluster")


class StageError(Exception):
    """Failure attributed to one named pipeline stage."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage}: {message}")
        self.stage = stage


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------


def _check_object(value, source: str) -> None:
    if not isinstance(value, dict):
        raise ValueError(f"{source}: expected a JSON object, got {type(value).__name__}")


def merge_config(user: dict, source: str = "config") -> dict:
    """User settings over the defaults; unknown sections or keys are errors,
    and so is a ``user`` that is not an object, named by ``source``."""
    _check_object(user, source)
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    for section, value in user.items():
        if section not in cfg:
            raise ValueError(f"unknown config section {section!r}")
        if isinstance(cfg[section], dict):
            if not isinstance(value, dict):
                raise ValueError(f"config section {section!r} must be an object")
            for key, v in value.items():
                if key not in cfg[section]:
                    raise ValueError(f"unknown config key {section}.{key}")
                cfg[section][key] = v
        else:
            cfg[section] = value
    return cfg


def load_config(path) -> dict:
    return merge_config(read_json(path), f"config {path}")


def model_config_from(section: dict, seed: int, source: str = "config") -> ModelConfig:
    _check_object(section, source)
    if "seed" in section:
        raise ValueError(f"{source}: seed is not a dewarp setting; it comes from --seed "
                         f"or the pipeline config's top-level seed key")
    fields = {f.name for f in dataclasses.fields(ModelConfig)}
    unknown = set(section) - fields
    if unknown:
        raise ValueError(f"unknown dewarp settings: {', '.join(sorted(unknown))}")
    return ModelConfig(seed=seed, **section)


def check_config(cfg: dict) -> None:
    """Reject every setting that is wrong whatever the data holds, so that it
    fails before the first stage writes anything.  The bounds that need the
    data (n_values <= N) stay with their stages."""
    if not isinstance(cfg["out"], str):
        raise ValueError(f"out must be a string, got {cfg['out']!r}")
    template = cfg["refalign"]["template"]
    if template is not None and not isinstance(template, str):
        raise ValueError(f"refalign.template must be a string or null, got {template!r}")
    for key, path in cfg["inputs"].items():
        if path is None and key != "traces":
            continue
        if not (isinstance(path, str) and Path(path).is_file()):
            raise ValueError(f"inputs.{key}: no file {path!r}")
    if cfg["inputs"]["truth"] is not None:
        # only the traces say which lanes are samples, so a lane without a
        # label is left to the cluster stage
        read_truth_file(cfg["inputs"]["truth"])
    detect = cfg["detect"]
    try:
        PeakConfig(h=detect["h"], c0=detect["c0"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"detect: {exc}") from None
    try:
        model_config_from(cfg["dewarp"], cfg["seed"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"dewarp: {exc}") from None
    check_int(cfg["cluster"]["nboot"], "cluster.nboot", 1)
    check_int(cfg["cluster"]["draw_thin"], "cluster.draw_thin", 1)
    check_n_values(cfg["cluster"]["n_values"])


def _hash_parts(stage: str, *parts) -> str:
    """Digest of a stage's inputs: a Path by its file's bytes, any other part
    (a str included) as JSON text."""
    import hashlib  # OpenSSL is loaded only by the pipeline's resume digests

    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, Path):
            if not part.is_file():
                raise StageError(stage, f"missing input file {part}")
            h.update(part.read_bytes())
        else:
            h.update(json.dumps(part, sort_keys=True, default=str).encode())
        h.update(b"\x00")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Stage implementations (shared by subcommands and the pipeline)
# ---------------------------------------------------------------------------


def stage_simulate(spec_path, seed: int, out_dir) -> list[Path]:
    rng = np.random.default_rng(seed)
    grid, manifest, truth = simulate_gels(SimSpec.from_dict(read_json(spec_path), rng), rng)
    out = Path(out_dir)
    paths = [out / "traces.csv", out / "manifest.json", out / "truth.json"]
    write_traces_csv(grid, paths[0])
    write_manifest(manifest, paths[1])
    write_truth(truth, paths[2])
    return paths


def stage_detect(traces_path, manifest_path, h: int, c0: float, out_path) -> Path:
    """Call peaks on every lane, each lane scaled onto [0, 1] by its range
    first; masked lanes' peaks are dropped."""
    manifest = read_manifest(manifest_path) if manifest_path else None
    grid = read_traces_csv(traces_path, manifest)
    grid = standardize_intensities(grid)
    peaks = detect_peaks(grid, PeakConfig(h=h, c0=c0))
    if manifest:
        peaks = peaks.drop_masked(manifest)
    peaks.to_json(out_path)
    return Path(out_path)


def stage_refalign(traces_path, manifest_path, peaks_path, template,
                   out_path, map_out_path) -> tuple[Path, Path]:
    manifest = read_manifest(manifest_path) if manifest_path else None
    grid = read_traces_csv(traces_path, manifest)
    peaks = PeakTable.from_json(peaks_path)
    if template is None:
        template = sorted(g.gel_id for g in grid.gels)[0]
    expected = 7
    if manifest and template in manifest:
        expected = len(manifest[template].get("reference_kda", [])) or 7
    aligned, maps = reference_align(grid, peaks, template, expected_count=expected)
    write_traces_csv(aligned, out_path)
    write_maps(maps, map_out_path)
    return Path(out_path), Path(map_out_path)


def stage_dewarp(peaks_path, model_cfg: ModelConfig, out_dir,
                 manifest_path=None) -> Path:
    peaks = PeakTable.from_json(peaks_path)
    if manifest_path:
        manifest = read_manifest(manifest_path)
        peaks = peaks.drop_reference_lanes(manifest).drop_masked(manifest)
    result = run_mcmc(peaks, model_cfg)
    out = Path(out_dir)
    write_warp_json(result, out / "warp.json")
    write_zmap(result, out / "zmap.json")
    write_landmarks(result, out / "landmarks.json")
    write_chain_log(result, out / "chain.log")
    write_signatures_csv(result, out / "signatures.csv")
    write_json({
        "violations": int(result.violations),
        "lambda_accept": float(result.lambda_accept),
        "stationary": bool(result.stationary),
        "stationary_detail": result.stationary_detail,
        "saved_draws": len(result.log_joint_trace),
    }, out / "summary.json")
    return out


def peaks_from_zmap(payload: dict, B: int) -> PeakTable:
    """Reconstruct the detected peaks recorded alongside the assignments."""
    entries = []
    for key in sorted(payload["locations"]):
        gel_id, lane = key
        locs = payload["locations"][key]
        bins = payload["bins"][key]
        for j, (b, loc) in enumerate(zip(bins, locs), start=1):
            entries.append(Peak(gel_id, int(lane), j, int(b), float(loc), 1.0))
    return PeakTable(tuple(entries), B)


def check_zmap_lanes(zmap_lanes, zmap_path, sample_keys, traces_path) -> None:
    """Every lane of a posterior must be a sample lane of the traces it is
    used with; the first that is not is named.  A sample lane with no peaks
    has no posterior entry, so a missing lane is allowed."""
    samples = set(sample_keys)
    for key in zmap_lanes:
        if key not in samples:
            raise ValueError(f"{zmap_path}: lane {lane_name(key)} is not a sample lane "
                             f"of {traces_path}")


def stage_align(traces_path, manifest_path, zmap_path, out_path) -> Path:
    """Snap every peak onto the landmark of its MAP assignment.  A posterior
    whose lanes are not the input's sample lanes fails before the write."""
    manifest = read_manifest(manifest_path) if manifest_path else None
    grid = read_traces_csv(traces_path, manifest)
    payload = read_zmap(zmap_path)
    check_zmap_lanes(payload["z_map"], zmap_path, grid.lane_keys(include_reference=False),
                     traces_path)
    peaks = peaks_from_zmap(payload, grid.B)
    aligned = exact_align(grid, peaks, payload["z_map"], payload["L"])
    write_traces_csv(aligned, out_path)
    return Path(out_path)


def read_truth_file(path) -> dict:
    """Lane name -> true cluster label, from the simulator's truth JSON or a
    two-column lane,label CSV; a format error names the file, and the lane
    or row."""
    path = Path(path)
    by_key = {}
    if path.suffix == ".json":
        truth = read_truth(path)
        samples = truth.get("samples") if isinstance(truth, dict) else None
        if not isinstance(samples, dict):
            raise ValueError(f"{path}: truth JSON needs a \"samples\" object")
        for name, entry in samples.items():
            label = entry.get("cluster") if isinstance(entry, dict) else None
            if isinstance(label, bool) or not isinstance(label, int):
                raise ValueError(f"{path}: lane {name}: cluster {label!r} is not an integer")
            by_key[name] = label
    else:
        with open_text(path) as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or {"lane", "label"} - set(reader.fieldnames):
                raise ValueError(f"{path}: truth CSV needs columns lane,label")
            for row in reader:
                if row["lane"] in by_key:
                    raise ValueError(f"{path}:{reader.line_num}: lane {row['lane']} "
                                     f"is listed twice")
                try:
                    by_key[row["lane"]] = int(row["label"])
                except (TypeError, ValueError):
                    raise ValueError(f"{path}:{reader.line_num}: label {row['label']!r} "
                                     f"is not an integer") from None
    return by_key


def read_truth_labels(path, lane_keys) -> np.ndarray:
    """True cluster labels for the given lanes, in their order, from
    ``read_truth_file``; a lane the file does not label is named."""
    by_key = read_truth_file(path)
    labels = []
    for name in map(lane_name, lane_keys):
        if name not in by_key:
            raise ValueError(f"{path}: no label for lane {name}")
        labels.append(by_key[name])
    return np.asarray(labels, dtype=int)


def stage_cluster(traces_path, manifest_path, out_dir, nboot: int, seed: int,
                  truth_path=None, n_values=None, zmap_path=None,
                  aligned_path=None, draw_thin: int = 1) -> Path:
    """Every input is read and checked before the first write, so a bad
    truth file, or a posterior whose lanes are not the input's, leaves
    out_dir as it was."""
    manifest = read_manifest(manifest_path) if manifest_path else None
    grid = read_traces_csv(traces_path, manifest)
    lane_keys = grid.lane_keys(include_reference=False)
    if len(lane_keys) < 2:
        raise ValueError("need at least two sample lanes to cluster")
    n_values = check_n_values(n_values, len(lane_keys))
    check_int(draw_thin, "cluster.draw_thin", 1)
    check_int(nboot, "cluster.nboot", 1)
    truth = read_truth_labels(truth_path, lane_keys) if truth_path else None
    posterior = None
    if zmap_path and aligned_path:
        agrid = read_traces_csv(aligned_path, manifest)
        # the truth labels and each draw's distances are matched by position
        for akey, key in zip_longest(agrid.lane_keys(include_reference=False), lane_keys):
            if akey != key:
                raise ValueError(f"{aligned_path}: sample lane {lane_name(akey or key)} is out "
                                 f"of step with {traces_path}, whose sample lanes it must list "
                                 f"in order")
        payload = read_zmap(zmap_path)
        check_zmap_lanes(payload["z_draws"], zmap_path, lane_keys, traces_path)
        posterior = (agrid, peaks_from_zmap(payload, agrid.B), payload["z_draws"], payload["L"])

    D = distance_matrix(grid)
    dend = hclust_complete(D)
    out = Path(out_dir)
    with open_text(out / "dendrogram.nwk", "w") as fh:
        fh.write(to_newick(dend) + "\n")

    conf = bootstrap_confidence(grid, nboot, np.random.default_rng(seed))
    write_confidence(conf, out / "confidence.json")

    if posterior:
        # quality bands across the stored assignment draws
        rows = posterior_clustering_summary(*posterior, truth=truth, n_values=n_values,
                                            thin=draw_thin)
    else:
        sil, ari = partition_scores(D, dend, n_values, truth)
        rows = quality_rows(n_values, np.array([sil]), None if ari is None else np.array([ari]))
    write_metrics(rows, out / "metrics.csv")
    _write_merge_table(dend, conf, out / "plotdata" / "fig_dendrogram.csv")
    return out


def _write_merge_table(dend, conf: dict, path) -> None:
    """Merge-by-merge dendrogram series with subtree confidences."""
    leaf_names = dend.leaf_names()
    conf_by_leafset = {frozenset(k): c for k, c in conf.items()}
    rows = []
    for k, ((a, b, h), members) in enumerate(zip(dend.merges, dend.leaf_sets())):
        c = conf_by_leafset.get(frozenset(dend.labels[i] for i in members), "")
        names = "|".join(sorted(leaf_names[i] for i in members))
        rows.append([k, a, b, f"{h:.10g}", "" if c == "" else f"{c:.10g}", names])
    write_csv(path, ["merge", "left", "right", "height", "confidence", "leaves"], rows)


def _warp_tables(zmap_path, warp_path) -> dict:
    """fig_warps.csv, each gel's posterior mean warp at the landmark grid for
    each of its lanes, and fig_connections.csv, each peak's MAP landmark and
    its marginal probability, as {name: (header, rows)}.  Each gel's warp
    lanes must be that gel's zmap.json lanes."""
    z = read_zmap(zmap_path)
    L, ax = z["L"], z["axis"]
    nu = LandmarkGrid(L).nu
    fields = read_warp_json(warp_path)
    zmap_lanes = {}
    for gel_id, lane in z["z_map"]:
        zmap_lanes.setdefault(gel_id, []).append(lane)
    for gel_id in sorted(fields.keys() | zmap_lanes.keys()):
        want = sorted(zmap_lanes.get(gel_id, []))
        got = sorted(fields[gel_id][1]) if gel_id in fields else "none"
        if got != want:
            raise ValueError(f"{warp_path}: gel {gel_id}: lanes {got}, where {zmap_path} "
                             f"has {want or 'none'}")
    rows = []
    for gel_id in sorted(fields):
        field, lanes, u_std = fields[gel_id]
        values = ax.invert(eval_warp_grid(field, ax.apply(nu), u_std))
        for col, lane in enumerate(lanes):
            rows += ([gel_id, lane, ell, f"{nu[ell]:.10g}", f"{values[ell, col]:.10g}"]
                     for ell in range(L + 2))
    tables = {"fig_warps.csv": (["gel", "lane", "landmark", "nu", "s"], rows)}
    rows = []
    for key in sorted(z["z_map"], key=lane_name):
        marginals = z["z_marginals"][key]
        for j, (loc, ell) in enumerate(zip(z["locations"][key].tolist(),
                                           z["z_map"][key].tolist())):
            rows.append([*key, j + 1, f"{loc:.10g}", ell, f"{nu[ell]:.10g}",
                         f"{marginals[j, ell]:.10g}"])
    tables["fig_connections.csv"] = (["gel", "lane", "peak", "location", "landmark",
                                      "landmark_nu", "probability"], rows)
    return tables


def stage_plotdata(run_dir, out_dir) -> Path:
    """Figure-ready CSV series of a run.  Every input is read and checked,
    and every series built, before out_dir is made, so a malformed posterior
    leaves out_dir as it was."""
    run = Path(run_dir)
    metrics = run / "clusters" / "metrics.csv"
    zmap_path = run / "posterior" / "zmap.json"
    landmarks_path = run / "posterior" / "landmarks.json"
    if not any(p.is_file() for p in (metrics, zmap_path, landmarks_path)):
        raise ValueError(f"{run}: no run artifacts (clusters/metrics.csv, "
                         f"posterior/zmap.json or posterior/landmarks.json)")

    copies = {name: path.read_bytes() for name, path in (
        ("fig_quality.csv", metrics),
        ("fig_dendrogram.csv", run / "clusters" / "plotdata" / "fig_dendrogram.csv"),
    ) if path.is_file()}
    tables = {}
    warp_path = run / "posterior" / "warp.json"
    if zmap_path.is_file() or warp_path.is_file():
        tables.update(_warp_tables(zmap_path, warp_path))
    if landmarks_path.is_file():
        probs = read_landmark_probs(landmarks_path)
        tables["fig_landmarks.csv"] = (
            ["lane", "landmark", "probability"],
            [[lane_name(key), ell, f"{p:.10g}"] for key in sorted(probs, key=lane_name)
             for ell, p in enumerate(probs[key].tolist(), start=1)])

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, data in copies.items():
        (out / name).write_bytes(data)
    for name, (header, rows) in tables.items():
        write_csv(out / name, header, rows)
    return out


# ---------------------------------------------------------------------------
# Pipeline orchestration
# ---------------------------------------------------------------------------


def run_pipeline(config_path, resume: bool = False) -> Path:
    cfg = load_config(config_path)
    check_config(cfg)
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    hash_file = out / "hashes.json"
    hashes = {}
    if resume and hash_file.is_file():
        hashes = read_json(hash_file)
        if not isinstance(hashes, dict):
            raise ValueError(f"{hash_file}: expected a JSON object of stage digests")

    traces, manifest, truth = (
        None if p is None else Path(p)
        for p in (cfg["inputs"]["traces"], cfg["inputs"]["manifest"], cfg["inputs"]["truth"])
    )
    seed = cfg["seed"]

    def run_stage(stage, parts, outputs, fn):
        digest = _hash_parts(stage, *parts)
        if (resume and hashes.get(stage) == digest
                and all(Path(p).exists() for p in outputs)):
            print(f"stage {stage}: up to date, skipped")
            return
        try:
            fn()
        except Exception as exc:
            raise StageError(stage, str(exc)) from exc
        hashes[stage] = digest
        write_json(hashes, hash_file, indent=1)
        print(f"stage {stage}: wrote {', '.join(str(p) for p in outputs)}")

    peaks_raw = out / "peaks_raw.json"
    aligned = out / "aligned.csv"
    refmaps = out / "refmaps.json"
    peaks_aligned = out / "peaks.json"
    posterior = out / "posterior"
    zmap = posterior / "zmap.json"
    exact = out / "exact.csv"
    clusters = out / "clusters"

    run_stage("detect", (traces, manifest, cfg["detect"]), [peaks_raw],
              lambda: stage_detect(traces, manifest, out_path=peaks_raw, **cfg["detect"]))

    run_stage("refalign", (traces, manifest, peaks_raw, cfg["refalign"]), [aligned, refmaps],
              lambda: stage_refalign(traces, manifest, peaks_raw, out_path=aligned,
                                     map_out_path=refmaps, **cfg["refalign"]))

    # peaks are re-called on the reference-aligned traces so the sampler sees
    # locations on the template's coordinate system
    run_stage("redetect", (aligned, manifest, cfg["detect"]), [peaks_aligned],
              lambda: stage_detect(aligned, manifest, out_path=peaks_aligned, **cfg["detect"]))

    run_stage("dewarp", (peaks_aligned, manifest, cfg["dewarp"], seed), [zmap],
              lambda: stage_dewarp(peaks_aligned, model_config_from(cfg["dewarp"], seed),
                                   posterior, manifest_path=manifest))

    run_stage("align", (aligned, manifest, zmap), [exact],
              lambda: stage_align(aligned, manifest, zmap, exact))

    # the quality bands read the posterior draws and the aligned traces
    run_stage("cluster", (exact, manifest, zmap, aligned, cfg["cluster"], seed, truth),
              [clusters / "metrics.csv"],
              lambda: stage_cluster(exact, manifest, clusters, seed=seed, truth_path=truth,
                                    zmap_path=zmap, aligned_path=aligned, **cfg["cluster"]))
    return out


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gelwarp",
        description="Batch alignment pipeline for banded 1-D intensity traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    detect, cluster = DEFAULT_CONFIG["detect"], DEFAULT_CONFIG["cluster"]

    p = sub.add_parser("simulate", help="generate a synthetic batch with truth")
    p.add_argument("--spec", required=True)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", required=True)

    p = sub.add_parser("detect", help="call peaks on every lane")
    p.add_argument("--input", required=True)
    p.add_argument("--manifest")
    p.add_argument("--h", type=int, default=detect["h"])
    p.add_argument("--c0", type=float, default=detect["c0"])
    p.add_argument("--out", required=True)

    p = sub.add_parser("refalign", help="align gels through their reference lanes")
    p.add_argument("--input", required=True)
    p.add_argument("--manifest")
    p.add_argument("--peaks", required=True)
    p.add_argument("--template")
    p.add_argument("--out", required=True)
    p.add_argument("--map-out", required=True)

    p = sub.add_parser("dewarp", help="posterior warp and assignment sampling")
    p.add_argument("--peaks", required=True)
    p.add_argument("--config", required=True, help="JSON with model settings")
    p.add_argument("--manifest")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", required=True)

    p = sub.add_parser("align", help="snap peaks onto their assigned landmarks")
    p.add_argument("--input", required=True)
    p.add_argument("--manifest")
    p.add_argument("--zmap", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("cluster", help="hierarchical clustering with quality measures")
    p.add_argument("--input", required=True)
    p.add_argument("--manifest")
    p.add_argument("--nboot", type=int, default=cluster["nboot"])
    p.add_argument("--truth")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--zmap", help="posterior draws for quality bands; needs --aligned")
    p.add_argument("--aligned", help="reference-aligned traces matching --zmap")
    p.add_argument("--n-values", type=int, nargs="+",
                   help="cluster counts to cut at (default: all of 2..N)")
    p.add_argument("--draw-thin", type=int, default=cluster["draw_thin"],
                   help="use every k-th posterior draw for the quality bands")
    p.add_argument("--out", required=True)

    p = sub.add_parser("pipeline", help="run every stage from one config")
    p.add_argument("--config", required=True)
    p.add_argument("--resume", action="store_true")

    p = sub.add_parser("plotdata", help="export figure-ready CSV series")
    p.add_argument("--run", required=True, help="pipeline output directory")
    p.add_argument("--out")
    return parser


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        if ns.command == "simulate":
            stage_simulate(ns.spec, ns.seed, ns.out)
        elif ns.command == "detect":
            stage_detect(ns.input, ns.manifest, ns.h, ns.c0, ns.out)
        elif ns.command == "refalign":
            stage_refalign(ns.input, ns.manifest, ns.peaks, ns.template,
                           ns.out, ns.map_out)
        elif ns.command == "dewarp":
            section = read_json(ns.config)
            model_cfg = model_config_from(section, ns.seed, f"config {ns.config}")
            stage_dewarp(ns.peaks, model_cfg, ns.out, manifest_path=ns.manifest)
        elif ns.command == "align":
            stage_align(ns.input, ns.manifest, ns.zmap, ns.out)
        elif ns.command == "cluster":
            # the quality bands need both; one alone would be silently ignored
            for given, missing in (("zmap", "aligned"), ("aligned", "zmap")):
                if getattr(ns, given) and not getattr(ns, missing):
                    raise ValueError(f"--{given} needs --{missing}")
            stage_cluster(ns.input, ns.manifest, ns.out, ns.nboot, ns.seed,
                          truth_path=ns.truth, n_values=ns.n_values,
                          zmap_path=ns.zmap, aligned_path=ns.aligned,
                          draw_thin=ns.draw_thin)
        elif ns.command == "pipeline":
            run_pipeline(ns.config, resume=ns.resume)
        elif ns.command == "plotdata":
            out = ns.out if ns.out else Path(ns.run) / "plotdata"
            stage_plotdata(ns.run, out)
    except StageError as exc:
        print(f"gelwarp: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"gelwarp {ns.command}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
