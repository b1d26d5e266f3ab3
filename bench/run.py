"""gelwarp benchmark: simulated batches through the command-line user path.

    python3 bench/run.py --workload chain --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout (the program is imported from
``src/``).  The seed fixes the simulated inputs and the pipeline seed.  Each
op is one or more ``gelwarp`` child processes, timed from start to exit.
Every op's outputs are checked; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` untraced and traced ops
alternate and the metrics are the per-layer ones (see bench/README.md).
Work files and a result file with provenance go to ``.bench_run/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACED = Path(__file__).resolve().parent / "traced.py"
RUNS = ROOT / ".bench_run"

RUN_LIMIT_S = 150.0  # children still running then are killed; no op starts that would end later
# Set-up is timed at least once on each of CPUS after one untimed warm-up, and
# cheap set-ups repeat until SETUP_MIN_S is spent: a 0.08 s set-up jitters by a
# large share of itself, so its median needs many samples.
SETUP_MIN_S = 3.0
# Ops and timed set-ups take turns on these CPUs, each pinned to one.  On a
# shared host one vCPU can run 20-30% slower than the other for minutes, and an
# unpinned child stays on the CPU it started on, so a run's ops all landed on
# the same one and runs split into a fast and a slow group.  A time is the mean
# over the CPUs of the median on each, so every run sees both.
CPUS_ALL = os.sched_getaffinity(0)
CPUS = sorted(CPUS_ALL)[:2]
L = 50
# One BLAS/OpenMP thread for the benchmark and its children.  The pipeline is
# serial; on a shared 2-vCPU host, the idle BLAS thread spinning on the other
# CPU made op times noisier (quartile spread 0.23 against 0.10 with one thread).
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Workload:
    name: str
    n_gels: int
    lanes_per_gel: int
    B: int
    dewarp: dict = field(default_factory=dict)
    cluster: dict = field(default_factory=dict)
    setup_cluster: dict = field(default_factory=dict)

    @property
    def h(self) -> int:
        return 8 * self.B // 500


WORKLOADS = {
    "chain": Workload("chain", 2, 20, 500,
                      dewarp={"iterations": 1100, "burnin": 100},
                      cluster={"nboot": 20, "draw_thin": 250}),
    "recluster": Workload("recluster", 4, 10, 500,
                          dewarp={"iterations": 150, "burnin": 50},
                          setup_cluster={"nboot": 1, "draw_thin": 100},
                          cluster={"nboot": 20, "draw_thin": 2}),
    "scan": Workload("scan", 4, 50, 4000),
}

# seconds-long variants for the self-test, run through the same code
TINY = {
    "chain": Workload("chain", 2, 4, 500,
                      dewarp={"iterations": 20, "burnin": 10},
                      cluster={"nboot": 2, "draw_thin": 5}),
    "recluster": Workload("recluster", 2, 5, 500,
                          dewarp={"iterations": 20, "burnin": 10},
                          setup_cluster={"nboot": 1, "draw_thin": 10},
                          cluster={"nboot": 2, "draw_thin": 5}),
    "scan": Workload("scan", 2, 5, 1000),
}

# The traced functions, named "module.function" or "module.Class.method".
# bench/traced.py wraps exactly the names used in these tables.
# per-layer self times: metric -> traced functions
SELF_TIMES = {
    "cli.detect_s": ["gelwarp.cli.stage_detect"],
    "cli.refalign_s": ["gelwarp.cli.stage_refalign"],
    "cli.dewarp_s": ["gelwarp.cli.stage_dewarp"],
    "cli.align_s": ["gelwarp.cli.stage_align"],
    "cli.cluster_s": ["gelwarp.cli.stage_cluster"],
    "core.read_traces_s": ["gelwarp.core.read_traces_csv"],
    "core.write_traces_s": ["gelwarp.core.write_traces_csv"],
    "core.standardize_s": ["gelwarp.core.standardize_intensities"],
    "peakdetect.detect_peaks_s": ["gelwarp.peakdetect.detect_peaks"],
    "refalign.reference_align_s": ["gelwarp.refalign.reference_align"],
    "dewarp.run_mcmc_s": ["gelwarp.dewarp.run_mcmc"],
    "dewarp.sweep_Z_s": ["gelwarp.dewarp.DewarpModel.sweep_Z"],
    "dewarp.sweep_beta_s": ["gelwarp.dewarp.DewarpModel.sweep_beta"],
    "dewarp.sweep_hyper_s": ["gelwarp.dewarp.DewarpModel.sweep_hyper"],
    "dewarp.count_violations_s": ["gelwarp.dewarp.DewarpModel.count_violations"],
    "dewarp.log_joint_s": ["gelwarp.dewarp.DewarpModel.log_joint"],
    "dewarp.write_s": ["gelwarp.dewarp.write_warp_json", "gelwarp.dewarp.write_zmap",
                       "gelwarp.dewarp.write_landmarks", "gelwarp.dewarp.write_chain_log",
                       "gelwarp.dewarp.write_signatures_csv"],
    "exactalign.exact_align_s": ["gelwarp.exactalign.exact_align"],
    "cluster.distance_matrix_s": ["gelwarp.cluster.distance_matrix"],
    "cluster.hclust_complete_s": ["gelwarp.cluster.hclust_complete"],
    "cluster.average_silhouette_s": ["gelwarp.cluster.average_silhouette"],
    "cluster.cut_s": ["gelwarp.cluster.cut"],
    "cluster.adjusted_rand_s": ["gelwarp.cluster.adjusted_rand"],
    "cluster.posterior_summary_self_s": ["gelwarp.cluster.posterior_clustering_summary"],
    "cluster.bootstrap_confidence_self_s": ["gelwarp.cluster.bootstrap_confidence"],
}
CALLS = {
    "dewarp.sweeps": "gelwarp.dewarp.DewarpModel.sweep_Z",
    "dewarp.count_violations_calls": "gelwarp.dewarp.DewarpModel.count_violations",
    "exactalign.exact_align_calls": "gelwarp.exactalign.exact_align",
    "cluster.hclust_complete_calls": "gelwarp.cluster.hclust_complete",
    "cluster.average_silhouette_calls": "gelwarp.cluster.average_silhouette",
}


def _grid_rows(grid) -> int:
    return sum(len(gel.lanes) for gel in grid.gels) * grid.B


# counts bench/traced.py takes at a function boundary:
# metric -> (function, count from its (args, result))
BOUNDARY_COUNTS = {
    "core.read_traces_rows": ("gelwarp.core.read_traces_csv",
                              lambda args, result: _grid_rows(result)),
    "core.write_traces_rows": ("gelwarp.core.write_traces_csv",
                               lambda args, result: _grid_rows(args[0])),
    "peakdetect.peaks": ("gelwarp.peakdetect.detect_peaks",
                         lambda args, result: len(result)),
    "dewarp.peaks": ("gelwarp.dewarp.run_mcmc", lambda args, result: len(args[0])),
}
TRACED_FUNCTIONS = sorted(
    {f for fns in SELF_TIMES.values() for f in fns}
    | set(CALLS.values()) | {f for f, _ in BOUNDARY_COUNTS.values()})
STAGE_FUNCTIONS = [names[0] for key, names in SELF_TIMES.items() if key.startswith("cli.")]


class BenchError(Exception):
    """The benchmark cannot produce a result."""


@contextmanager
def pinned(cpu: int):
    """Run this thread, and the children it starts, on one CPU."""
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, CPUS_ALL)


def cpu_balanced(times: list) -> float:
    """Mean over the CPUs of the median time on each; times are (cpu, seconds)."""
    return statistics.fmean(statistics.median(t for c, t in times if c == cpu)
                            for cpu in sorted({c for c, _ in times}))


@dataclass
class Op:
    traced: bool
    cpu: int
    ok: bool = True
    batch_s: float = 0.0
    peak_rss_mb: float = 0.0
    problems: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(argv: list, cwd: Path, log: Path, deadline: float) -> tuple[int, float, float]:
    """Run one child to exit: (exit code, wall seconds, peak RSS in MB).

    The child is killed if it is still running at the deadline."""
    with open(log, "ab") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                                stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(1.0, deadline - t0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def gelwarp_argv(args: list, spans: Path | None) -> list:
    if spans is None:
        return [sys.executable, "-m", "gelwarp.cli"] + args
    return [sys.executable, str(TRACED), str(spans)] + args


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def generate_inputs(w: Workload, seed: int, inputs: Path) -> None:
    import numpy as np
    from gelwarp.core import write_manifest, write_traces_csv
    from gelwarp.simulate import SimSpec, simulate_gels, write_truth

    rng = np.random.default_rng(seed)
    n_clusters = w.n_gels * w.lanes_per_gel // 2
    spec = SimSpec.from_dict({
        "n_gels": w.n_gels, "lanes_per_gel": w.lanes_per_gel, "B": w.B, "L": L,
        "signatures": {"random": {"n_clusters": n_clusters, "n_bands": 3, "min_sep": 3}},
        "n_replicates": 2, "warp_amplitude": 1.2 / (L + 1),
        "refwarp_amplitude": 0.01, "sigma_eps": 0.1 / (L + 1),
    }, rng)
    grid, manifest, truth = simulate_gels(spec, rng)
    inputs.mkdir(parents=True, exist_ok=True)
    write_traces_csv(grid, inputs / "traces.csv")
    write_manifest(manifest, inputs / "manifest.json")
    write_truth(truth, inputs / "truth.json")


def pipeline_config(w: Workload, seed: int, cluster: dict) -> dict:
    """Only keys the README documents; sampler internals keep their defaults."""
    return {
        "seed": seed,
        "out": "out",
        "inputs": {"traces": "../inputs/traces.csv",
                   "manifest": "../inputs/manifest.json",
                   "truth": "../inputs/truth.json"},
        "detect": {"h": w.h, "c0": 0.05},
        "refalign": {"template": "g1"},
        "dewarp": {"L": L, "T_nu": 6, "T_u": 4, **w.dewarp},
        "cluster": cluster,
    }


def set_up(w: Workload, seed: int, work: Path, deadline: float) -> tuple[float, list]:
    """Writes the inputs (an untimed warm-up, then timed writes taking turns on
    CPUS) and, for recluster, adds one base run that every op restores.
    Returns (setup_s, [(cpu, seconds) of each timed input generation..., base run])."""
    generate_inputs(w, seed, work / "inputs")  # warm-up: imports, first writes
    times = []
    while len(times) % len(CPUS) or (sum(t for _, t in times) < SETUP_MIN_S
                                     and len(times) < 60):
        cpu = CPUS[len(times) % len(CPUS)]
        with pinned(cpu):
            t0 = time.perf_counter()
            generate_inputs(w, seed, work / "inputs")
            times.append((cpu, time.perf_counter() - t0))
    setup_s = cpu_balanced(times)
    if w.name == "recluster":
        base = work / "base"
        base.mkdir()
        (base / "pipe.json").write_text(
            json.dumps(pipeline_config(w, seed, w.setup_cluster), indent=1))
        code, wall, _ = run_child(
            gelwarp_argv(["pipeline", "--config", "pipe.json"], None),
            base, base / "log.txt", deadline)
        if code != 0:
            raise BenchError(f"set-up pipeline exited {code}; see {base / 'log.txt'}")
        times.append((None, wall))
        setup_s += wall
    flush(work)
    return setup_s, times


def flush(tree: Path) -> None:
    """Write the set-up's files to disk now, so that their writeback does not
    run during the timed ops."""
    for path in tree.rglob("*"):
        if path.is_file():
            with open(path, "rb") as fh:
                os.fsync(fh.fileno())


# ---------------------------------------------------------------------------
# One op
# ---------------------------------------------------------------------------


def op_commands(w: Workload) -> list:
    if w.name != "scan":
        extra = ["--resume"] if w.name == "recluster" else []
        return [["pipeline", "--config", "pipe.json"] + extra]
    detect = ["--manifest", "../inputs/manifest.json", "--h", str(w.h), "--c0", "0.05"]
    return [
        ["detect", "--input", "../inputs/traces.csv", *detect, "--out", "out/peaks_raw.json"],
        ["refalign", "--input", "../inputs/traces.csv",
         "--manifest", "../inputs/manifest.json", "--peaks", "out/peaks_raw.json",
         "--template", "g1", "--out", "out/aligned.csv", "--map-out", "out/refmaps.json"],
        ["detect", "--input", "out/aligned.csv", *detect, "--out", "out/peaks.json"],
    ]


def run_op(w: Workload, seed: int, work: Path, k: int, traced: bool, cpu: int,
           deadline: float) -> tuple[Op, Path, list]:
    op_dir = work / f"op{k}"
    op_dir.mkdir()
    if w.name == "recluster":
        shutil.copytree(work / "base" / "out", op_dir / "out")
    else:
        (op_dir / "out").mkdir()
    if w.name != "scan":
        (op_dir / "pipe.json").write_text(
            json.dumps(pipeline_config(w, seed, w.cluster), indent=1))
    op = Op(traced=traced, cpu=cpu)
    span_files = []
    for i, args in enumerate(op_commands(w)):
        spans = op_dir / f"spans{i}.json" if traced else None
        with pinned(cpu):
            code, wall, rss = run_child(gelwarp_argv(args, spans), op_dir,
                                        op_dir / "log.txt", deadline)
        op.batch_s += wall
        op.peak_rss_mb = max(op.peak_rss_mb, rss)
        if spans is not None and spans.is_file():
            span_files.append(spans)
        if code != 0:
            op.problems.append(f"gelwarp {args[0]} exited {code}")
            break
    return op, op_dir, span_files


def tree_digest(out: Path) -> dict:
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*")) if p.is_file()
    }


# ---------------------------------------------------------------------------
# Output checks and quality
# ---------------------------------------------------------------------------


def check_outputs(w: Workload, out: Path, inputs: Path) -> tuple[list, dict]:
    """Problems found in an op's artifacts, and the quality values read."""
    problems, quality = [], {}
    truth = json.loads((inputs / "truth.json").read_text())
    manifest = json.loads((inputs / "manifest.json").read_text())

    try:
        peaks = json.loads((out / "peaks.json").read_text())["peaks"]
        refs = {}
        for p in peaks:
            if p["lane"] == manifest[p["gel_id"]]["reference_lane"]:
                refs.setdefault(p["gel_id"], []).append(p["bin"])
        template = refs.get("g1", [])
        offset = 0
        for gel_id in sorted(manifest):
            bins = refs.get(gel_id, [])
            if len(bins) != 7 or len(template) != 7:
                problems.append(f"gel {gel_id}: {len(bins)} reference peaks re-called, expected 7")
                continue
            offset = max([offset] + [abs(a - b) for a, b in zip(bins, template)])
        quality["ref_offset_bins"] = offset
        if offset > 1:
            problems.append(f"reference peaks {offset} bins from the template's")
    except (OSError, KeyError, ValueError) as exc:
        problems.append(f"peaks.json unreadable: {exc!r}")

    if w.name == "scan":
        return problems, quality

    if w.name == "chain":
        try:
            summary = json.loads((out / "posterior" / "summary.json").read_text())
            if summary["violations"] != 0:
                problems.append(f"{summary['violations']} constraint violations")
        except (OSError, KeyError, ValueError) as exc:
            problems.append(f"summary.json unreadable: {exc!r}")

    k = len(truth["cluster_signatures"])
    try:
        lines = (out / "clusters" / "metrics.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        row = next((r for r in rows if r["n"] == str(k)), None)
        if row is None:
            problems.append(f"metrics.csv has no row for the true k={k}")
        else:
            quality["ari_k"] = float(row["ari_mean"])
    except (OSError, IndexError, KeyError, ValueError) as exc:
        problems.append(f"metrics.csv unreadable: {exc!r}")

    try:
        quality["map_accuracy"] = map_accuracy(out / "posterior" / "zmap.json", truth)
    except (OSError, KeyError, ValueError) as exc:
        problems.append(f"zmap.json unreadable: {exc!r}")
    return problems, quality


def map_accuracy(zmap_path: Path, truth: dict) -> float:
    """Share of sample peaks whose MAP landmark is the simulator's."""
    import numpy as np
    from gelwarp.simulate import true_assignments

    lanes = json.loads(zmap_path.read_text())["lanes"]
    hits = total = 0
    for entry in lanes.values():
        true_z = true_assignments(truth, entry["gel_id"], entry["lane"], entry["locations"])
        hits += int(np.sum(np.asarray(entry["z_map"]) == true_z))
        total += len(true_z)
    if total == 0:
        raise ValueError("no sample peaks in zmap.json")
    return hits / total


# ---------------------------------------------------------------------------
# Per-layer metrics from a traced op
# ---------------------------------------------------------------------------


def layer_metrics(w: Workload, span_files: list, wall: float, out: Path) -> dict:
    total, child, calls = {}, {}, {}
    counts, missing, root = {}, set(), 0.0
    draws = 0
    for path in span_files:
        data = json.loads(path.read_text())
        names, spans = data["names"], data["spans"]
        missing.update(data["missing"])
        for key, value in data["counts"].items():
            counts[key] = counts.get(key, 0) + value
        for name_id, start, end, parent in spans:
            name = names[name_id]
            dur = end - start
            total[name] = total.get(name, 0.0) + dur
            calls[name] = calls.get(name, 0) + 1
            if parent < 0:
                root += dur
            else:
                pname = names[spans[parent][0]]
                child[pname] = child.get(pname, 0.0) + dur
                if (name == "gelwarp.exactalign.exact_align"
                        and pname == "gelwarp.cluster.posterior_clustering_summary"):
                    draws += 1

    m = {}
    for metric, fns in SELF_TIMES.items():
        if not missing.intersection(fns):
            m[metric] = sum(total.get(f, 0.0) - child.get(f, 0.0) for f in fns)
    for metric, fn in CALLS.items():
        if fn not in missing:
            m[metric] = calls.get(fn, 0)
    for metric, (fn, _) in BOUNDARY_COUNTS.items():
        if fn not in missing:
            m[metric] = counts.get(fn, 0)
    m["cli.self_s"] = wall - root
    if not missing.intersection(STAGE_FUNCTIONS):
        from gelwarp.cli import PIPELINE_STAGES

        ran = sum(calls.get(f, 0) for f in STAGE_FUNCTIONS)
        m["cli.stages_skipped"] = len(PIPELINE_STAGES) - ran if w.name != "scan" else 0
    if not missing.intersection({"gelwarp.cluster.posterior_clustering_summary",
                                 "gelwarp.exactalign.exact_align"}):
        m["cluster.draws"] = draws
    if "gelwarp.dewarp.run_mcmc" not in missing:
        m.update(sampler_rates(out, calls.get("gelwarp.dewarp.run_mcmc", 0) > 0))
    m["trace.batch_s"] = wall
    return m


def sampler_rates(out: Path, ran: bool) -> dict:
    """Lambda acceptance and the share of consecutive saved draws in which a
    peak's assignment changed; 0 when the op ran no sampler."""
    if not ran:
        return {"dewarp.lambda_accept": 0.0, "dewarp.z_change_rate": 0.0}
    import numpy as np

    summary = json.loads((out / "posterior" / "summary.json").read_text())
    lanes = json.loads((out / "posterior" / "zmap.json").read_text())["lanes"]
    changed = pairs = 0
    for entry in lanes.values():
        draws = np.asarray(entry["draws"])
        if draws.ndim == 2 and draws.shape[0] > 1 and draws.shape[1] > 0:
            changed += int(np.sum(draws[1:] != draws[:-1]))
            pairs += draws[1:].size
    return {"dewarp.lambda_accept": float(summary["lambda_accept"]),
            "dewarp.z_change_rate": changed / pairs if pairs else 0.0}


def identity_problems(w: Workload, layers: dict, n_samples: int) -> list:
    """Call counts the recluster op must show when every call is traced."""
    if w.name != "recluster" or "cluster.draws" not in layers:
        return []
    problems = []
    draws, nboot = layers["cluster.draws"], w.cluster["nboot"]
    checks = [("cluster.hclust_complete_calls", draws + nboot + 2),
              ("cluster.average_silhouette_calls", draws * (n_samples - 1))]
    for metric, expected in checks:
        if metric in layers and layers[metric] != expected:
            problems.append(f"{metric} = {layers[metric]}, expected {expected}")
    return problems


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def git_state() -> dict:
    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30, check=True).stdout.strip()
    if not (ROOT / ".git").exists():
        return {"rev": "unknown (not a git checkout)", "dirty": None}
    try:
        return {"rev": git("rev-parse", "HEAD"),
                "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}
    except (OSError, subprocess.SubprocessError):
        return {"rev": "unknown (not a git checkout)", "dirty": None}


def blas_threads():
    """Threads of the OpenBLAS numpy loaded, or None if it cannot be asked."""
    import ctypes

    import numpy  # noqa: F401  (loads the BLAS library)

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance() -> dict:
    import numpy
    import scipy

    return {
        "git": git_state(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(CPUS_ALL),
        "cpus_pinned": CPUS,
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ[k] for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
        "loadavg_start": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def spec_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run(w: Workload, seed: int, seconds: int, trace: bool, run_dir: Path) -> dict:
    t_start = time.perf_counter()
    deadline = t_start + RUN_LIMIT_S
    prov = provenance()
    work = run_dir / "work"
    work.mkdir(parents=True)
    setup_s, setup_times = set_up(w, seed, work, deadline)
    inputs_digest = hashlib.sha256(
        (work / "inputs" / "traces.csv").read_bytes()).hexdigest()
    n_samples = w.n_gels * w.lanes_per_gel

    ops, reference = [], None
    t_ops = time.perf_counter()
    while True:
        k = len(ops)
        # a traced run does untraced and traced ops in pairs, each pair on one CPU
        traced = trace and k % 2 == 1
        cpu = CPUS[(k // 2 if trace else k) % len(CPUS)]
        op, op_dir, span_files = run_op(w, seed, work, k, traced, cpu, deadline)
        out = op_dir / "out"
        problems, op.quality = check_outputs(w, out, work / "inputs")
        op.problems += problems
        digest = tree_digest(out)
        if reference is None:
            reference = digest
        elif digest != reference:
            op.problems.append("out/ differs from the first op's")
        if traced:
            try:
                op.layers = layer_metrics(w, span_files, op.batch_s, out)
            except (OSError, KeyError, ValueError) as exc:
                op.problems.append(f"per-layer metrics unreadable: {exc!r}")
                op.layers = {"trace.batch_s": op.batch_s}
            op.problems += identity_problems(w, op.layers, n_samples)
        op.ok = not op.problems
        ops.append(op)
        shutil.rmtree(op_dir)
        now = time.perf_counter()
        out_of_time = now + 1.5 * max(o.batch_s for o in ops) > deadline
        if len(ops) >= 2 and (out_of_time or (now - t_ops >= seconds
                                              and len(ops) % len(CPUS) == 0)):
            break

    plain = [o for o in ops if not o.traced]
    metrics = {
        "batch_s": cpu_balanced([(o.cpu, o.batch_s) for o in plain]),
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(o.peak_rss_mb for o in plain),
    }
    if trace:
        traced_ops = [o for o in ops if o.traced]
        traced_ops = [o for o in traced_ops if o.ok] or traced_ops
        names = set.intersection(*(set(o.layers) for o in traced_ops))
        metrics = {n: statistics.median(o.layers[n] for o in traced_ops) for n in sorted(names)}
        metrics["trace.overhead_s"] = (metrics["trace.batch_s"]
                                       - cpu_balanced([(o.cpu, o.batch_s) for o in plain]))
        for q in ("ari_k", "map_accuracy", "ref_offset_bins"):
            metrics[f"quality.{q}"] = ops[0].quality.get(q, 0)
    shutil.rmtree(work)
    prov["loadavg_end"] = list(os.getloadavg())
    return {
        "workload": w.name, "seed": seed, "seconds": seconds, "trace": trace,
        "provenance": prov, "inputs_sha256": inputs_digest,
        "setup_times_s": setup_times, "run_s": time.perf_counter() - t_start,
        "ops": [o.__dict__ for o in ops], "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="seconds-long variant of the workload, for the self-test")
    ns = parser.parse_args(argv)

    if not (SRC / "gelwarp" / "cli.py").is_file():
        print(f"bench: no gelwarp sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)  # before numpy is first imported
    sys.path.insert(0, str(SRC))
    units = spec_units()
    w = (TINY if ns.tiny else WORKLOADS)[ns.workload]
    run_dir = RUNS / f"{w.name}{'-tiny' if ns.tiny else ''}-s{ns.seed}-t{ns.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        result = run(w, ns.seed, ns.seconds, bool(ns.trace), run_dir)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    (run_dir / "result.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")

    prov = result["provenance"]
    print(f"# {w.name} seed {ns.seed} trace {ns.trace}: git {prov['git']['rev']}"
          f" dirty={prov['git']['dirty']} python {prov['python']} numpy {prov['numpy']}"
          f" scipy {prov['scipy']} nproc {prov['nproc']} blas_threads {prov['blas_threads']}"
          f" loadavg {prov['loadavg_start'][0]:.2f}->{prov['loadavg_end'][0]:.2f}")
    for o in result["ops"]:
        q = " ".join(f"{k}={v:.4g}" for k, v in sorted(o["quality"].items()))
        print(f"# op traced={int(o['traced'])} cpu={o['cpu']} batch_s={o['batch_s']:.3f} "
              f"peak_rss_mb={o['peak_rss_mb']:.1f} {q} "
              f"{'ok' if o['ok'] else 'FAILED: ' + '; '.join(o['problems'])}")
    for name, value in result["metrics"].items():
        print(f"{name} {value:.6g} {units[name]}")
    failed = sum(not o["ok"] for o in result["ops"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(result["ops"]),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
