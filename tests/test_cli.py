"""End-to-end checks of the command-line stages and the pipeline driver."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gelwarp
from gelwarp.cli import (
    DEFAULT_CONFIG,
    StageError,
    _hash_parts,
    main,
    merge_config,
    model_config_from,
    read_truth_labels,
    stage_cluster,
)
from gelwarp.core import (
    GelTrace,
    IntensityGrid,
    Lane,
    read_manifest,
    read_traces_csv,
    write_traces_csv,
)
from gelwarp.peakdetect import PeakTable
from gelwarp.refalign import apply_map, read_maps

SIM_SPEC = {
    "n_gels": 2,
    "lanes_per_gel": 3,
    "B": 400,
    "L": 30,
    "signatures": [[4, 12, 24], [8, 18, 27], [6, 15, 21]],
    "n_replicates": 2,
    "warp_amplitude": 0.02,
    "refwarp_amplitude": 0.01,
    "sigma_eps": 0.004,
    "noise_sd": 0.005,
}

MODEL = {
    "L": 30,
    "T_nu": 5,
    "T_u": 4,
    "iterations": 300,
    "burnin": 150,
    "thin": 2,
    "restarts": 2,
    "restart_sweeps": 50,
}


def run(argv):
    rc = main(argv)
    assert rc == 0, f"command failed: {argv}"


def edit_first_lane(src, dst, case):
    """Write a copy of zmap.json at dst with its first lane of two or more
    peaks edited: "short_z_map" drops the last z_map entry, "short_draws"
    the last entry of every draw, "landmark_above" sets the last z_map entry
    to L + 5, and "unrepairable_z_map" sets every z_map entry to L.  Returns
    the lane's name and its count of peaks."""
    payload = json.loads(Path(src).read_text(encoding="utf-8"))
    name = next(k for k, v in payload["lanes"].items() if len(v["bins"]) >= 2)
    entry = payload["lanes"][name]
    if case == "short_z_map":
        entry["z_map"] = entry["z_map"][:-1]
    elif case == "landmark_above":
        entry["z_map"][-1] = payload["L"] + 5
    elif case == "short_draws":
        entry["draws"] = [draw[:-1] for draw in entry["draws"]]
    else:
        entry["z_map"] = [payload["L"]] * len(entry["z_map"])
    Path(dst).write_text(json.dumps(payload), encoding="utf-8")
    return name, len(entry["bins"])


WARP_CASES = ("no_u_std", "lane_dropped", "lane_and_u_std_dropped", "string_beta",
              "gel_missing", "u_std_reversed")


def edit_warp_g1(path, case):
    """Write warp.json back at path with gel g1's entry edited: "no_u_std"
    removes its u_std, "lane_dropped" its first lane, "lane_and_u_std_dropped"
    that lane and its u_std, "string_beta" sets a beta entry to a string,
    "gel_missing" removes the entry and "u_std_reversed" reverses its u_std.
    Returns g1's lanes and u_std before the edit."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    g1 = next(entry for entry in payload if entry["gel_id"] == "g1")
    std = g1["standardizer"]
    lanes, u_std = list(std["lanes"]), list(std["u_std"])
    if case == "no_u_std":
        del std["u_std"]
    elif case == "lane_dropped":
        std["lanes"].pop(0)
    elif case == "lane_and_u_std_dropped":
        std["lanes"].pop(0)
        std["u_std"].pop(0)
    elif case == "string_beta":
        g1["beta"][3] = "x"
    elif case == "u_std_reversed":
        std["u_std"].reverse()
    else:
        payload.remove(g1)
    Path(path).write_text(json.dumps(payload), encoding="utf-8")
    return lanes, u_std


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One simulated batch plus a full pipeline run, shared by the tests."""
    root = tmp_path_factory.mktemp("cli")
    spec = root / "sim.json"
    spec.write_text(json.dumps(SIM_SPEC))
    run(["simulate", "--spec", str(spec), "--seed", "7", "--out", str(root / "sim")])

    cfg = {
        "seed": 7,
        "out": str(root / "run"),
        "inputs": {
            "traces": str(root / "sim" / "traces.csv"),
            "manifest": str(root / "sim" / "manifest.json"),
            "truth": str(root / "sim" / "truth.json"),
        },
        "detect": {"h": 8, "c0": 0.05},
        "refalign": {"template": "g1"},
        "dewarp": MODEL,
        "cluster": {"nboot": 50, "draw_thin": 5},
    }
    cfg_path = root / "pipe.json"
    cfg_path.write_text(json.dumps(cfg))
    run(["pipeline", "--config", str(cfg_path)])
    return root


def test_cli_import_loads_no_scipy():
    """scipy is a test-only dependency; every command starts without it."""
    src = str(Path(gelwarp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))
    code = (
        "import sys, gelwarp.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    assert out.stdout.strip() == "[]"


def test_cli_import_loads_no_openssl():
    """Only the pipeline's resume digests use hashlib, which loads OpenSSL;
    the standalone commands start without it unless numpy loaded it (numpy
    1.24 does, through numpy.random)."""
    src = str(Path(gelwarp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))
    code = (
        "import sys, numpy; before = '_hashlib' in sys.modules; import gelwarp.cli; "
        "print(before, '_hashlib' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    before, after = out.stdout.split()
    assert after == before, out.stdout


def test_pipeline_loads_no_numpy_ma(workdir, tmp_path):
    """np.quantile and np.percentile import numpy.ma on their first call,
    10-40 ms a process; a pipeline run leaves it unloaded, unless numpy
    loaded it itself (numpy 1.x does, on import)."""
    cfg = json.loads((workdir / "pipe.json").read_text())
    cfg["out"] = str(tmp_path / "run")
    (tmp_path / "pipe.json").write_text(json.dumps(cfg))
    src = str(Path(gelwarp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))
    code = (
        "import sys, numpy; before = 'numpy.ma' in sys.modules; "
        "from gelwarp.cli import main; "
        f"rc = main(['pipeline', '--config', {str(tmp_path / 'pipe.json')!r}]); "
        "print(rc, before, 'numpy.ma' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=300,
    )
    rc, before, after = out.stdout.split()[-3:]
    assert rc == "0" and after == before, out.stdout
    assert (tmp_path / "run" / "clusters" / "metrics.csv").is_file()


def test_public_names_resolve():
    for name in gelwarp.__all__:
        assert hasattr(gelwarp, name), name


class TestConfig:
    def test_defaults_survive_partial_override(self):
        cfg = merge_config({"detect": {"h": 4}})
        assert cfg["detect"]["h"] == 4
        assert cfg["detect"]["c0"] == DEFAULT_CONFIG["detect"]["c0"]
        assert cfg["dewarp"]["iterations"] == 5500

    def test_default_draw_budget(self):
        cfg = merge_config({})
        assert cfg["dewarp"]["iterations"] - cfg["dewarp"]["burnin"] == 5000
        assert cfg["dewarp"]["L"] == 100
        assert cfg["dewarp"]["T_nu"] == 10
        assert cfg["dewarp"]["T_u"] == 6
        assert cfg["detect"]["h"] == 10

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError, match="unknown config section"):
            merge_config({"dewarping": {}})
        # every stage runs serially; there is no thread count to set
        with pytest.raises(ValueError, match="unknown config section 'threads'"):
            merge_config({"threads": 2})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="detect.hh"):
            merge_config({"detect": {"hh": 3}})

    @pytest.mark.parametrize("key", ["anneal_lo", "sigma_shape", "new_gel_iterations"])
    def test_fixed_sampler_constant_rejected(self, key):
        # hyperpriors and sampler tuning are module constants, not settings,
        # and no setting is named new_gel_*: dewarp fits every gel in one run
        with pytest.raises(ValueError, match=f"unknown config key dewarp.{key}"):
            merge_config({"dewarp": {key: 0.1}})

    def test_readme_default_config_matches(self):
        # README shows the defaults as a JSON block; it must stay in step
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Pipeline", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        assert json.loads(block) == DEFAULT_CONFIG

    def test_unknown_model_setting_rejected(self):
        with pytest.raises(ValueError, match="unknown dewarp settings"):
            model_config_from({"L": 10, "sweeps": 5}, seed=0)

    def test_dewarp_config_with_seed_rejected(self, tmp_path, capsys):
        # the seed is the top-level key or --seed; a dewarp config that held
        # one failed as "got multiple values for keyword argument 'seed'"
        path = tmp_path / "model.json"
        path.write_text(json.dumps(dict(MODEL, seed=3)))
        assert main(["dewarp", "--config", str(path), "--peaks", str(tmp_path / "peaks.json"),
                     "--seed", "5", "--out", str(tmp_path / "posterior")]) == 1
        assert capsys.readouterr().err == (
            f"gelwarp dewarp: config {path}: seed is not a dewarp setting; it comes from "
            f"--seed or the pipeline config's top-level seed key\n")
        assert list(tmp_path.iterdir()) == [path]

    def test_model_config_carries_seed(self):
        mc = model_config_from(dict(MODEL), seed=11)
        assert mc.seed == 11
        assert mc.L == 30

    @pytest.mark.parametrize("text, msg", [
        ("[1, 2]", "config {path}: expected a JSON object, got list"),
        ('"run"', "config {path}: expected a JSON object, got str"),
        ('{"seed": 7', "{path}: Expecting ',' delimiter"),
    ], ids=["list", "str", "truncated"])
    @pytest.mark.parametrize("command", ["pipeline", "dewarp"])
    def test_config_that_is_not_an_object_is_named(self, tmp_path, capsys, command,
                                                    text, msg):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        argv = {"pipeline": [],
                "dewarp": ["--peaks", str(tmp_path / "peaks.json"),
                           "--out", str(tmp_path / "posterior")]}[command]
        assert main([command, "--config", str(path), *argv]) == 1
        assert f"gelwarp {command}: {msg.format(path=path)}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [path]


class TestSimulate:
    def test_artifacts_exist(self, workdir):
        for name in ("traces.csv", "manifest.json", "truth.json"):
            assert (workdir / "sim" / name).is_file()

    def test_traces_parse(self, workdir):
        manifest = read_manifest(workdir / "sim" / "manifest.json")
        grid = read_traces_csv(workdir / "sim" / "traces.csv", manifest)
        assert grid.B == 400
        # 3 sample lanes plus one reference lane per gel
        assert all(g.n_lanes == 4 for g in grid.gels)

    def test_unknown_spec_key_fails(self, workdir, capsys):
        bad = workdir / "bad_spec.json"
        bad.write_text(json.dumps({"n_gels": 1, "bands": 3}))
        rc = main(["simulate", "--spec", str(bad), "--seed", "1",
                   "--out", str(workdir / "nowhere")])
        assert rc == 1
        assert "bands" in capsys.readouterr().err


class TestStages:
    def test_detect_output_parses(self, workdir):
        peaks = PeakTable.from_json(workdir / "run" / "peaks_raw.json")
        assert peaks.total > 0
        assert peaks.B == 400

    def test_detect_threshold_monotone(self, workdir):
        loose = workdir / "loose.json"
        strict = workdir / "strict.json"
        traces = str(workdir / "sim" / "traces.csv")
        manifest = str(workdir / "sim" / "manifest.json")
        run(["detect", "--input", traces, "--manifest", manifest,
             "--h", "6", "--c0", "0.02", "--out", str(loose)])
        run(["detect", "--input", traces, "--manifest", manifest,
             "--h", "16", "--c0", "0.30", "--out", str(strict)])
        assert PeakTable.from_json(strict).total <= PeakTable.from_json(loose).total

    def test_detect_rejects_threads_flag(self, workdir, capsys):
        out = workdir / "threads.json"
        with pytest.raises(SystemExit) as exc:
            main(["detect", "--input", str(workdir / "sim" / "traces.csv"),
                  "--out", str(out), "--threads", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
        assert not out.exists()

    def test_refalign_outputs(self, workdir):
        maps = read_maps(workdir / "run" / "refmaps.json")
        assert set(maps) == {"g1", "g2"}
        # template gel maps to itself
        x = np.linspace(0.05, 0.95, 7)
        assert np.allclose(apply_map(maps["g1"], x), x)

    def test_refalign_unknown_template_named(self, workdir, capsys):
        run_dir, sim = workdir / "run", workdir / "sim"
        out, maps = workdir / "aligned_nope.csv", workdir / "refmaps_nope.json"
        assert main(["refalign", "--input", str(sim / "traces.csv"),
                     "--manifest", str(sim / "manifest.json"),
                     "--peaks", str(run_dir / "peaks_raw.json"), "--template", "nope",
                     "--out", str(out), "--map-out", str(maps)]) == 1
        assert capsys.readouterr().err == (
            "gelwarp refalign: template 'nope' is not a gel of the traces, "
            "which hold gels g1, g2\n")
        assert not out.exists() and not maps.exists()

    def test_dewarp_outputs(self, workdir):
        post = workdir / "run" / "posterior"
        for name in ("warp.json", "zmap.json", "landmarks.json",
                     "chain.log", "signatures.csv", "summary.json"):
            assert (post / name).is_file()
        summary = json.loads((post / "summary.json").read_text())
        assert summary["violations"] == 0
        assert summary["saved_draws"] == 75

    def test_zmap_assignments_in_range(self, workdir):
        payload = json.loads((workdir / "run" / "posterior" / "zmap.json").read_text())
        assert payload["L"] == 30
        for entry in payload["lanes"].values():
            z = entry["z_map"]
            assert all(1 <= ell <= 30 for ell in z)
            assert z == sorted(z)

    def test_align_writes_grid(self, workdir):
        manifest = read_manifest(workdir / "sim" / "manifest.json")
        grid = read_traces_csv(workdir / "run" / "exact.csv", manifest)
        assert grid.B == 400

    def test_removed_flags_rejected(self, workdir, capsys):
        # lanes are always scaled by their range, and align always snaps to
        # the MAP assignment; neither is a setting
        run_dir, sim = workdir / "run", workdir / "sim"
        out = workdir / "removed_flag.out"
        for argv, flag in (
                (["detect", "--input", str(sim / "traces.csv"), "--standardize", "minmax"],
                 "--standardize minmax"),
                (["align", "--input", str(run_dir / "aligned.csv"),
                  "--zmap", str(run_dir / "posterior" / "zmap.json"), "--z-source", "map"],
                 "--z-source map")):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--out", str(out)])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not out.exists()

    def test_align_foreign_posterior_fails_before_writing(self, workdir, capsys):
        # every zmap.json lane must be a sample lane of --input: here the
        # input keeps gel g1 alone, so g2's posterior lanes have no trace
        run_dir, sim = workdir / "run", workdir / "sim"
        aligned = read_traces_csv(run_dir / "aligned.csv", read_manifest(sim / "manifest.json"))
        inp = workdir / "foreign_align_input.csv"
        write_traces_csv(IntensityGrid(aligned.gels[:1], aligned.B), inp)
        zmap = run_dir / "posterior" / "zmap.json"
        first = next(name for name in json.loads(zmap.read_text())["lanes"]
                     if name.startswith("g2:"))
        out = workdir / "exact_foreign.csv"
        rc = main(["align", "--input", str(inp), "--manifest", str(sim / "manifest.json"),
                   "--zmap", str(zmap), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"gelwarp align: {zmap}: lane {first} is not a sample lane of {inp}\n")
        assert not out.exists()

    @pytest.mark.parametrize("case", ["short_z_map", "unrepairable_z_map"])
    def test_align_malformed_posterior_fails_before_writing(self, workdir, capsys, case):
        # a z_map one entry short of its lane's peaks, or one no repair can
        # make strictly increasing within 1..L, names the file or the gel and
        # the lane
        run_dir, sim = workdir / "run", workdir / "sim"
        zmap = workdir / f"zmap_{case}.json"
        name, J = edit_first_lane(run_dir / "posterior" / "zmap.json", zmap, case)
        gel, lane = name.split(":")
        if case == "short_z_map":
            message = (f"{zmap}: lane {name}: z_map, locations, bins and draws have "
                       f"{J - 1}, {J}, {J} and {J} entries")
        else:
            message = (f"gel {gel} lane {lane}: assignment {(30,) * J} cannot be made "
                       f"strictly increasing within 1..30")
        out = workdir / f"exact_{case}.csv"
        rc = main(["align", "--input", str(run_dir / "aligned.csv"),
                   "--manifest", str(sim / "manifest.json"), "--zmap", str(zmap),
                   "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"gelwarp align: {message}\n"
        assert not out.exists()

    def test_cluster_outputs(self, workdir):
        clusters = workdir / "run" / "clusters"
        nwk = (clusters / "dendrogram.nwk").read_text()
        assert nwk.strip().endswith(";")
        conf = json.loads((clusters / "confidence.json").read_text())
        assert set(conf) == {"confidence", "strong"}
        rows = (clusters / "metrics.csv").read_text().splitlines()
        assert rows[0] == "n,ari_mean,ari_lo,ari_hi,silhouette"
        # six sample lanes -> cuts at n = 2..6
        assert len(rows) == 6

    @pytest.mark.parametrize("settings, message", [
        ({"n_values": [1, 2]}, r"n_values: 1 is not an integer in 2\.\.6"),
        ({"n_values": [2, 99]}, r"n_values: 99 is not an integer in 2\.\.6"),
        ({"n_values": [2.5]}, r"n_values: 2\.5 is not an integer in 2\.\.6"),
        ({"draw_thin": 0}, r"draw_thin must be an integer >= 1, got 0"),
        ({"nboot": 0}, r"nboot must be an integer >= 1, got 0"),
        ({"n_values": [4, 2, 4]}, r"n_values: 4 is listed more than once"),
    ])
    def test_cluster_settings_rejected_before_any_output(self, workdir, settings, message):
        run_dir = workdir / "run"
        out = workdir / "clusters_rejected"
        with pytest.raises(ValueError, match=message):
            stage_cluster(run_dir / "exact.csv", workdir / "sim" / "manifest.json", out,
                          **{"nboot": 5, **settings}, seed=7,
                          zmap_path=run_dir / "posterior" / "zmap.json",
                          aligned_path=run_dir / "aligned.csv")
        assert not out.exists()

    def test_cluster_subcommand_n_values_and_thin(self, workdir):
        run_dir, sim = workdir / "run", workdir / "sim"
        out = workdir / "clusters_cmd"
        run(["cluster", "--input", str(run_dir / "exact.csv"),
             "--manifest", str(sim / "manifest.json"), "--truth", str(sim / "truth.json"),
             "--nboot", "5", "--zmap", str(run_dir / "posterior" / "zmap.json"),
             "--aligned", str(run_dir / "aligned.csv"),
             "--n-values", "3", "2", "--draw-thin", "5", "--out", str(out)])
        rows = (out / "metrics.csv").read_text().splitlines()
        # the pipeline's cluster section also keeps every 5th draw
        by_n = {r.split(",")[0]: r for r in
                (run_dir / "clusters" / "metrics.csv").read_text().splitlines()}
        assert rows == [by_n["n"], by_n["3"], by_n["2"]]

    @pytest.mark.parametrize("given, missing", [("zmap", "aligned"), ("aligned", "zmap")])
    def test_cluster_bands_need_zmap_and_aligned(self, workdir, capsys, given, missing):
        run_dir = workdir / "run"
        paths = {"zmap": run_dir / "posterior" / "zmap.json",
                 "aligned": run_dir / "aligned.csv"}
        out = workdir / f"clusters_{given}_only"
        rc = main(["cluster", "--input", str(run_dir / "exact.csv"),
                   "--manifest", str(workdir / "sim" / "manifest.json"), "--nboot", "5",
                   f"--{given}", str(paths[given]), "--out", str(out)])
        assert rc == 1
        assert f"--{given} needs --{missing}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("case", ["csv_missing_lane", "csv_repeated_lane", "json_no_samples",
                                      "json_word"])
    def test_cluster_bad_truth_fails_before_any_output(self, workdir, capsys, case):
        run_dir, sim = workdir / "run", workdir / "sim"
        samples = json.loads((sim / "truth.json").read_text())["samples"]
        first, last = sorted(samples)[0], sorted(samples)[-1]
        truth = workdir / f"truth_{case}.{case.split('_')[0]}"
        if case == "csv_missing_lane":
            truth.write_text("lane,label\n" + "".join(
                f"{name},{s['cluster']}\n" for name, s in sorted(samples.items()) if name != last))
            message = f"{truth}: no label for lane {last}"
        elif case == "csv_repeated_lane":
            # the repeat on the last row used to win silently
            truth.write_text("lane,label\n" + "".join(
                f"{name},{s['cluster']}\n" for name, s in sorted(samples.items()))
                + f"{first},99\n")
            message = f"{truth}:{len(samples) + 2}: lane {first} is listed twice"
        elif case == "json_no_samples":
            truth.write_text(json.dumps({"clusters": samples}))
            message = f'{truth}: truth JSON needs a "samples" object'
        else:
            samples[last]["cluster"] = "x"
            truth.write_text(json.dumps({"samples": samples}))
            message = f"{truth}: lane {last}: cluster 'x' is not an integer"
        out = workdir / f"clusters_{case}"
        out.mkdir()
        rc = main(["cluster", "--input", str(run_dir / "exact.csv"),
                   "--manifest", str(sim / "manifest.json"), "--truth", str(truth),
                   "--nboot", "5", "--zmap", str(run_dir / "posterior" / "zmap.json"),
                   "--aligned", str(run_dir / "aligned.csv"), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"gelwarp cluster: {message}\n"
        assert list(out.iterdir()) == []

    def test_cluster_repeated_n_fails_before_any_output(self, workdir, capsys):
        run_dir, sim = workdir / "run", workdir / "sim"
        out = workdir / "clusters_repeated_n"
        rc = main(["cluster", "--input", str(run_dir / "exact.csv"),
                   "--manifest", str(sim / "manifest.json"), "--truth", str(sim / "truth.json"),
                   "--nboot", "5", "--zmap", str(run_dir / "posterior" / "zmap.json"),
                   "--aligned", str(run_dir / "aligned.csv"), "--n-values", "3", "3",
                   "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "gelwarp cluster: cluster.n_values: 3 is listed more than once\n")
        assert not out.exists()

    @pytest.mark.parametrize("case", ["aligned", "zmap"])
    def test_cluster_foreign_posterior_fails_before_any_output(self, workdir, capsys, case):
        # the posterior must describe --input's lanes: an --aligned grid with
        # a lane that --input lacks, or a zmap.json lane outside --input
        run_dir, sim = workdir / "run", workdir / "sim"
        manifest = read_manifest(sim / "manifest.json")
        exact = read_traces_csv(run_dir / "exact.csv", manifest)
        aligned = read_traces_csv(run_dir / "aligned.csv", manifest)
        inp, aln = workdir / f"foreign_{case}_input.csv", workdir / f"foreign_{case}_aligned.csv"
        if case == "aligned":
            # drop g2's last sample lane from the input only
            last = exact.lane_keys(include_reference=False)[-1]
            write_traces_csv(IntensityGrid(exact.gels[:1] + (GelTrace("g2", tuple(
                ln for ln in exact.gels[1].lanes if ln.index != last[1])),), exact.B), inp)
            aln = run_dir / "aligned.csv"
            message = f"{aln}: sample lane g2:{last[1]} is out of step with {inp}"
        else:
            # keep gel g1 alone in the input and the aligned traces
            write_traces_csv(IntensityGrid(exact.gels[:1], exact.B), inp)
            write_traces_csv(IntensityGrid(aligned.gels[:1], aligned.B), aln)
            zmap = json.loads((run_dir / "posterior" / "zmap.json").read_text())
            first = next(name for name in zmap["lanes"] if name.startswith("g2:"))
            message = (f"{run_dir / 'posterior' / 'zmap.json'}: lane {first} is not a "
                       f"sample lane of {inp}")
        out = workdir / f"clusters_foreign_{case}"
        out.mkdir()
        rc = main(["cluster", "--input", str(inp), "--manifest", str(sim / "manifest.json"),
                   "--truth", str(sim / "truth.json"), "--nboot", "5",
                   "--zmap", str(run_dir / "posterior" / "zmap.json"),
                   "--aligned", str(aln), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"gelwarp cluster: {message}")
        assert list(out.iterdir()) == []

    def test_cluster_short_draws_fail_before_any_output(self, workdir, capsys):
        # each draw of one lane one entry short of its peaks: the dendrogram
        # and confidence.json were written before the draws were scored
        run_dir, sim = workdir / "run", workdir / "sim"
        zmap = workdir / "zmap_short_draws.json"
        name, J = edit_first_lane(run_dir / "posterior" / "zmap.json", zmap, "short_draws")
        out = workdir / "clusters_short_draws"
        out.mkdir()
        rc = main(["cluster", "--input", str(run_dir / "exact.csv"),
                   "--manifest", str(sim / "manifest.json"), "--nboot", "5",
                   "--zmap", str(zmap), "--aligned", str(run_dir / "aligned.csv"),
                   "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"gelwarp cluster: {zmap}: lane {name}: z_map, locations, bins and draws "
            f"have {J}, {J}, {J} and {J - 1} entries\n")
        assert list(out.iterdir()) == []

    def test_cluster_recovers_truth(self, workdir):
        rows = (workdir / "run" / "clusters" / "metrics.csv").read_text().splitlines()
        by_n = {int(r.split(",")[0]): r.split(",") for r in rows[1:]}
        assert float(by_n[3][1]) == pytest.approx(1.0)


class TestTruthLabels:
    def test_from_simulator_json(self, workdir):
        manifest = read_manifest(workdir / "sim" / "manifest.json")
        grid = read_traces_csv(workdir / "sim" / "traces.csv", manifest)
        keys = grid.lane_keys(include_reference=False)
        labels = read_truth_labels(workdir / "sim" / "truth.json", keys)
        assert labels.shape == (6,)
        assert len(set(labels.tolist())) == 3

    def test_from_csv(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text("lane,label\ng1:2,1\ng1:3,2\n")
        labels = read_truth_labels(path, [("g1", 2), ("g1", 3)])
        assert labels.tolist() == [1, 2]

    def test_missing_lane_named(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text("lane,label\ng1:2,1\n")
        with pytest.raises(ValueError, match="g1:3"):
            read_truth_labels(path, [("g1", 2), ("g1", 3)])

    def test_bad_header(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text("sample,cluster\na,1\n")
        with pytest.raises(ValueError, match="lane,label"):
            read_truth_labels(path, [])

    @pytest.mark.parametrize("row, label", [("g1:3,a", "'a'"), ("g1:3,1.5", "'1.5'"),
                                            ("g1:3", "None")], ids=["word", "float", "missing"])
    def test_bad_label_names_file_and_row(self, tmp_path, row, label):
        path = tmp_path / "truth.csv"
        path.write_text(f"lane,label\ng1:2,1\n{row}\n")
        with pytest.raises(ValueError,
                           match=re.escape(f"{path}:3: label {label} is not an integer")):
            read_truth_labels(path, [("g1", 2), ("g1", 3)])


class TestPipeline:
    def test_resume_skips_everything(self, workdir, capsys):
        run(["pipeline", "--config", str(workdir / "pipe.json"), "--resume"])
        out = capsys.readouterr().out
        assert out.count("skipped") == 6

    def test_resume_reruns_on_config_change(self, workdir, capsys):
        cfg = json.loads((workdir / "pipe.json").read_text())
        cfg["cluster"]["nboot"] = 60
        alt = workdir / "pipe_alt.json"
        alt.write_text(json.dumps(cfg))
        run(["pipeline", "--config", str(alt), "--resume"])
        out = capsys.readouterr().out
        assert out.count("skipped") == 5
        assert "stage cluster: wrote" in out

    @pytest.mark.parametrize("section,key,msg", [
        ("threads", None, "unknown config section 'threads'"),
        ("dewarp", "new_gel_burnin", "unknown config key dewarp.new_gel_burnin"),
    ])
    def test_removed_setting_fails_before_writing(self, workdir, capsys,
                                                  section, key, msg):
        cfg = json.loads((workdir / "pipe.json").read_text())
        cfg["out"] = str(workdir / f"run_{section}")
        cfg[section] = 2 if key is None else dict(cfg[section], **{key: 10})
        path = workdir / f"pipe_{section}.json"
        path.write_text(json.dumps(cfg))
        assert main(["pipeline", "--config", str(path)]) == 1
        assert msg in capsys.readouterr().err
        assert not Path(cfg["out"]).exists()

    @pytest.mark.parametrize("section,key,value,msg", [
        ("inputs", "traces", "missing.csv", "inputs.traces: no file"),
        ("inputs", "manifest", "missing.json", "inputs.manifest: no file"),
        ("inputs", "truth", "missing.json", "inputs.truth: no file"),
        ("detect", "h", 8.5, "detect: neighbor offset h must be an integer"),
        ("detect", "standardize", "quantile", "unknown config key detect.standardize"),
        ("dewarp", "burnin", 300, "dewarp: need 0 <= burnin < iterations"),
        ("align", "z_source", "map", "unknown config section 'align'"),
        ("align", "z_source", "sample:3", "unknown config section 'align'"),
        ("cluster", "nboot", 0, "cluster.nboot must be an integer >= 1"),
        ("cluster", "draw_thin", 0.5, "cluster.draw_thin must be an integer >= 1"),
        ("cluster", "n_values", [1, 3], "cluster.n_values: 1 is not an integer >= 2"),
        ("cluster", "n_values", 4, "cluster.n_values must be a list or null"),
        ("dewarp", "iterations", 300.0, "dewarp: iterations must be an integer >= 1, got 300.0"),
        ("cluster", "nboot", True, "cluster.nboot must be an integer >= 1, got True"),
        ("dewarp", "a0", True, "dewarp: a0 must be a finite number, got True"),
        ("dewarp", "a0", float("nan"), "dewarp: a0 must be a finite number, got nan"),
        ("dewarp", "a0", "wide", "dewarp: a0 must be a finite number, got 'wide'"),
        ("cluster", "n_values", [3, 3], "cluster.n_values: 3 is listed more than once"),
        ("refalign", "template", 3, "refalign.template must be a string or null, got 3"),
        ("refalign", "template", ["g1"],
         "refalign.template must be a string or null, got ['g1']"),
    ])
    def test_bad_setting_fails_before_first_stage(self, workdir, capsys,
                                                  section, key, value, msg):
        cfg = json.loads((workdir / "pipe.json").read_text())
        cfg["out"] = str(workdir / f"run_bad_{key}")
        if section == "inputs":
            value = str(workdir / value)
        cfg[section] = dict(cfg.get(section, {}), **{key: value})
        path = workdir / f"pipe_bad_{key}.json"
        path.write_text(json.dumps(cfg))
        assert main(["pipeline", "--config", str(path)]) == 1
        assert msg in capsys.readouterr().err
        assert not Path(cfg["out"]).exists()

    def test_non_string_out_fails_before_first_stage(self, workdir, capsys, tmp_path):
        # it failed as "expected str, bytes or os.PathLike object, not int"
        cfg = json.loads((workdir / "pipe.json").read_text())
        cfg["out"] = 5
        path = tmp_path / "pipe_out.json"
        path.write_text(json.dumps(cfg))
        assert main(["pipeline", "--config", str(path)]) == 1
        assert capsys.readouterr().err == "gelwarp pipeline: out must be a string, got 5\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_template_naming_no_gel_fails_at_refalign(self, workdir, capsys):
        # it failed as the KeyError repr 'no gel nope'
        cfg = json.loads((workdir / "pipe.json").read_text())
        cfg["out"] = str(workdir / "run_template_nope")
        cfg["refalign"] = {"template": "nope"}
        path = workdir / "pipe_template_nope.json"
        path.write_text(json.dumps(cfg))
        assert main(["pipeline", "--config", str(path)]) == 1
        assert capsys.readouterr().err == (
            "gelwarp: stage refalign: template 'nope' is not a gel of the traces, "
            "which hold gels g1, g2\n")
        assert not (Path(cfg["out"]) / "aligned.csv").exists()

    @pytest.mark.parametrize("case", ["json_no_samples", "json_word", "csv_no_label",
                                      "csv_repeated_lane"])
    def test_malformed_truth_fails_before_first_stage(self, workdir, capsys, case):
        # the truth file's format is checked with the settings, not after
        # dewarp; a lane without a label is left to the cluster stage
        samples = json.loads((workdir / "sim" / "truth.json").read_text())["samples"]
        truth = workdir / f"truth_pipe_{case}.{case.split('_')[0]}"
        if case == "json_no_samples":
            truth.write_text(json.dumps({"clusters": {}}))
            message = f'{truth}: truth JSON needs a "samples" object'
        elif case == "json_word":
            name = sorted(samples)[0]
            samples[name]["cluster"] = "x"
            truth.write_text(json.dumps({"samples": samples}))
            message = f"{truth}: lane {name}: cluster 'x' is not an integer"
        elif case == "csv_no_label":
            truth.write_text("lane,cluster\n" + "".join(
                f"{name},{s['cluster']}\n" for name, s in sorted(samples.items())))
            message = f"{truth}: truth CSV needs columns lane,label"
        else:
            name = sorted(samples)[0]
            truth.write_text("lane,label\n" + "".join(
                f"{key},{s['cluster']}\n" for key, s in sorted(samples.items()))
                + f"{name},99\n")
            message = f"{truth}:{len(samples) + 2}: lane {name} is listed twice"
        cfg = json.loads((workdir / "pipe.json").read_text())
        cfg["out"] = str(workdir / f"run_truth_{case}")
        cfg["inputs"]["truth"] = str(truth)
        path = workdir / f"pipe_truth_{case}.json"
        path.write_text(json.dumps(cfg))
        assert main(["pipeline", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"gelwarp pipeline: {message}\n"
        assert not (Path(cfg["out"]) / "peaks_raw.json").exists()

    def test_resume_with_non_object_hashes_fails_before_first_stage(self, workdir, capsys):
        # a list used to fail as "'list' object has no attribute 'get'"
        cfg = json.loads((workdir / "pipe.json").read_text())
        cfg["out"] = str(workdir / "run_list_hashes")
        hash_file = Path(cfg["out"]) / "hashes.json"
        hash_file.parent.mkdir()
        hash_file.write_text("[]\n")
        path = workdir / "pipe_list_hashes.json"
        path.write_text(json.dumps(cfg))
        assert main(["pipeline", "--config", str(path), "--resume"]) == 1
        assert capsys.readouterr().err == (
            f"gelwarp pipeline: {hash_file}: expected a JSON object of stage digests\n")
        assert sorted(hash_file.parent.iterdir()) == [hash_file]

    def test_resume_reruns_cluster_when_draws_change(self, workdir, capsys):
        # thinning the saved draws rewrites zmap.json but keeps the MAP
        # assignments, so exact.csv keeps its bytes; the cluster stage reads
        # the draws for its quality bands and must run again
        cfg = json.loads((workdir / "pipe.json").read_text())
        cfg["out"] = str(workdir / "run_thin")
        path = workdir / "pipe_thin.json"
        path.write_text(json.dumps(cfg))
        run(["pipeline", "--config", str(path)])
        run_dir = Path(cfg["out"])
        zmap = (run_dir / "posterior" / "zmap.json").read_bytes()
        exact = (run_dir / "exact.csv").read_bytes()
        cfg["dewarp"] = dict(cfg["dewarp"], thin=2 * cfg["dewarp"]["thin"])
        path.write_text(json.dumps(cfg))
        capsys.readouterr()
        run(["pipeline", "--config", str(path), "--resume"])
        out = capsys.readouterr().out
        assert (run_dir / "posterior" / "zmap.json").read_bytes() != zmap
        assert (run_dir / "exact.csv").read_bytes() == exact
        assert "stage cluster: wrote" in out

    def test_rerun_bytes_identical(self, workdir):
        cfg = json.loads((workdir / "pipe.json").read_text())
        outs = []
        for name in ("rep1", "rep2"):
            cfg["out"] = str(workdir / name)
            path = workdir / f"pipe_{name}.json"
            path.write_text(json.dumps(cfg))
            run(["pipeline", "--config", str(path)])
            outs.append(workdir / name)
        a, b = outs
        files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        for rel in files:
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    def test_corrupt_traces_names_stage_and_lane(self, workdir, capsys):
        lines = (workdir / "sim" / "traces.csv").read_text().splitlines(keepends=True)
        broken = workdir / "broken.csv"
        with open(broken, "w") as fh:
            fh.writelines(ln for ln in lines if not ln.startswith("g1,2,100,"))
        cfg = json.loads((workdir / "pipe.json").read_text())
        cfg["inputs"]["traces"] = str(broken)
        cfg["out"] = str(workdir / "run_broken")
        path = workdir / "pipe_broken.json"
        path.write_text(json.dumps(cfg))
        rc = main(["pipeline", "--config", str(path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "stage detect" in err
        assert "g1" in err and "lane 2" in err


@pytest.fixture(scope="module")
def plotdir(workdir):
    """The figure series of the shared run, exported once."""
    run(["plotdata", "--run", str(workdir / "run")])
    return workdir / "run" / "plotdata"


class TestPlotdata:
    def test_export(self, plotdir):
        for name in ("fig_quality.csv", "fig_dendrogram.csv", "fig_warps.csv",
                     "fig_connections.csv", "fig_landmarks.csv"):
            assert (plotdir / name).is_file()

    def test_warp_series_shape(self, plotdir):
        rows = (plotdir / "fig_warps.csv").read_text().splitlines()
        # header + (L + 2) grid points x 6 sample lanes
        assert len(rows) == 1 + 32 * 6
        header = rows[0].split(",")
        assert header == ["gel", "lane", "landmark", "nu", "s"]
        s = [float(r.split(",")[4]) for r in rows[1:]]
        assert all(0.0 <= v <= 1.0 for v in s)

    def test_connection_probabilities(self, plotdir):
        rows = (plotdir / "fig_connections.csv").read_text().splitlines()
        assert rows[0].split(",")[:3] == ["gel", "lane", "peak"]
        for r in rows[1:]:
            parts = r.split(",")
            assert 1 <= int(parts[4]) <= 30
            assert 0.0 <= float(parts[6]) <= 1.0

    def test_no_run_artifacts_fails_and_writes_nothing(self, tmp_path, capsys):
        empty = tmp_path / "empty_run"
        empty.mkdir()
        for run_dir in (empty, tmp_path / "typo_dir"):
            assert main(["plotdata", "--run", str(run_dir)]) == 1
            assert f"{run_dir}: no run artifacts" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [empty]
        assert list(empty.iterdir()) == []

    @pytest.mark.parametrize("case", ["short_z_map", "landmark_above", "short_landmarks_row",
                                      "no_warp", "no_zmap", *WARP_CASES])
    def test_malformed_posterior_fails_before_writing(self, workdir, tmp_path, capsys, case):
        # a z_map one entry short used to drop that peak's row and exit 0, a
        # landmark above L to fail as "list index out of range" after
        # fig_warps.csv was written, and a short landmarks.json row to write
        # every file with that lane's row cut; in warp.json, a lane dropped
        # from gel g1's lanes, or a gel dropped, used to drop their warp
        # curves and exit 0, a reversed u_std to draw each lane's warp at
        # another lane's place and exit 0, and a missing u_std to fail as
        # 'u_std'; with no warp.json, or no zmap.json, the other went unread,
        # and the run exited 0 without fig_warps.csv and fig_connections.csv
        run_dir = tmp_path / "run"
        for rel in ("posterior/warp.json", "posterior/zmap.json", "posterior/landmarks.json",
                    "clusters/metrics.csv", "clusters/plotdata/fig_dendrogram.csv"):
            (run_dir / rel).parent.mkdir(parents=True, exist_ok=True)
            (run_dir / rel).write_bytes((workdir / "run" / rel).read_bytes())
        zmap, landmarks, warp = (run_dir / "posterior" / name
                                 for name in ("zmap.json", "landmarks.json", "warp.json"))
        if case in WARP_CASES:
            lanes, u_std = edit_warp_g1(warp, case)
            message = f"{warp}: gel g1: " + {
                "no_u_std": 'no "standardizer.u_std"',
                "lane_dropped": f"standardizer.u_std is not {len(lanes) - 1} finite numbers",
                "lane_and_u_std_dropped": f"lanes {lanes[1:]}, where {zmap} has {lanes}",
                "string_beta": "beta is not 20 finite numbers",
                "gel_missing": f"lanes none, where {zmap} has {lanes}",
                "u_std_reversed": (f"lane {lanes[0]}: u_std {u_std[-1]!r} is not the lane "
                                   f"standardized, {u_std[0]!r}"),
            }[case]
        elif case in ("no_warp", "no_zmap"):
            missing = warp if case == "no_warp" else zmap
            missing.unlink()
            message = f"[Errno 2] No such file or directory: {str(missing)!r}"
        elif case == "short_landmarks_row":
            payload = json.loads(landmarks.read_text(encoding="utf-8"))
            name = next(iter(payload["lanes"]))
            payload["lanes"][name].pop()
            landmarks.write_text(json.dumps(payload), encoding="utf-8")
            message = f"{landmarks}: lane {name}: not a row of L = 30 numbers"
        else:
            name, J = edit_first_lane(zmap, zmap, case)
            message = (f"{zmap}: lane {name}: " + (
                f"z_map, locations, bins and draws have {J - 1}, {J}, {J} and {J} entries"
                if case == "short_z_map" else "z_map has landmark 35 outside 1..30"))
        out = tmp_path / "plot"
        assert main(["plotdata", "--run", str(run_dir), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"gelwarp plotdata: {message}\n"
        assert not out.exists()

    def test_quality_matches_metrics(self, workdir, plotdir):
        a = (plotdir / "fig_quality.csv").read_bytes()
        b = (workdir / "run" / "clusters" / "metrics.csv").read_bytes()
        assert a == b


def test_hash_parts_reads_only_paths(tmp_path):
    f = tmp_path / "traces.csv"
    f.write_bytes(b"gel_id,lane,bin,intensity\n")
    def digest(data):
        return hashlib.sha256(data + b"\x00").hexdigest()

    assert _hash_parts("detect", f) == digest(f.read_bytes())
    # a str naming an existing file is still a setting, hashed as JSON text
    assert _hash_parts("detect", str(f)) == digest(json.dumps(str(f)).encode())
    with pytest.raises(StageError, match=r"stage detect: missing input file .*nope\.csv"):
        _hash_parts("detect", tmp_path / "nope.csv")


def test_json_artifacts_sorted_with_one_newline(workdir):
    def sorted_pairs(pairs):
        keys = [k for k, _ in pairs]
        assert keys == sorted(keys)
        return dict(pairs)

    paths = sorted((workdir / "sim").rglob("*.json")) + sorted((workdir / "run").rglob("*.json"))
    names = {p.name for p in paths}
    assert {"manifest.json", "truth.json", "peaks_raw.json", "refmaps.json", "warp.json",
            "zmap.json", "landmarks.json", "summary.json", "confidence.json",
            "hashes.json"} <= names
    for path in paths:
        text = path.read_text()
        assert text.endswith("\n") and not text.endswith("\n\n"), path
        json.loads(text, object_pairs_hook=sorted_pairs)


def test_text_files_are_utf8_in_c_locale(tmp_path):
    """A raw-UTF-8 manifest reads, and a non-ASCII gel id writes into the
    signature CSV, the metrics and the Newick file, with the same bytes
    under the C locale as under C.UTF-8."""
    (tmp_path / "manifest.json").write_bytes('{"gél1": {"reference_lane": 1}}'.encode())
    t = np.linspace(0.0, 1.0, 40)
    lanes = tuple(Lane(i, np.exp(-((t - c) / 0.05) ** 2))
                  for i, c in enumerate([0.3, 0.32, 0.7], start=1))
    write_traces_csv(IntensityGrid((GelTrace("Gél", lanes),), 40), tmp_path / "traces.csv")
    src = str(Path(gelwarp.__file__).resolve().parents[1])
    # the program text stays ASCII: under the C locale argv is not UTF-8
    code = (
        "import sys, types\n"
        "from pathlib import Path\n"
        "from gelwarp.cli import stage_cluster\n"
        "from gelwarp.core import read_manifest\n"
        "from gelwarp.dewarp import write_signatures_csv\n"
        "inp, out = Path(sys.argv[1]), Path(sys.argv[2])\n"
        "print(ascii(read_manifest(inp / 'manifest.json')))\n"
        "result = types.SimpleNamespace(cfg=types.SimpleNamespace(L=3),\n"
        "    z_map={('G\\xe9l', 1): [1, 3], ('G\\xe9l', 2): [2]})\n"
        "write_signatures_csv(result, out / 'signatures.csv')\n"
        "stage_cluster(inp / 'traces.csv', None, out / 'clusters', nboot=2, seed=0)\n"
    )
    trees = {}
    for loc in ("C", "C.UTF-8"):
        env = dict(os.environ, LC_ALL=loc, PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / loc
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path), str(out)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "{'g\\xe9l1': {'reference_lane': 1}}\n"
        trees[loc] = {p.relative_to(out).as_posix(): p.read_bytes()
                      for p in out.rglob("*") if p.is_file()}
    assert trees["C"] == trees["C.UTF-8"]
    files = trees["C"]
    assert {"signatures.csv", "clusters/metrics.csv", "clusters/dendrogram.nwk"} <= set(files)
    assert files["signatures.csv"] == "lane,l1,l2,l3\r\nGél:1,1,0,1\r\nGél:2,0,1,0\r\n".encode()
    assert "Gél:3".encode() in files["clusters/dendrogram.nwk"]
