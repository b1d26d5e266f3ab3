"""Clustering of aligned traces and its evaluation.

Lanes are compared by Pearson correlation distance, merged by complete
linkage, and the resulting partitions scored with the adjusted Rand index
against a known grouping, average silhouette width when no truth is
available, and bootstrap subtree confidence over column resamples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    GelTrace,
    IntensityGrid,
    check_int,
    lane_name,
    linear_quantiles,
    open_text,
    write_json,
)
from .exactalign import exact_align
from .peakdetect import PeakTable


@dataclass(frozen=True)
class DistanceMatrix:
    """Pairwise lane distances 1 - cor, with the originating lane keys."""

    keys: tuple
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        n = len(self.keys)
        if v.shape != (n, n):
            raise ValueError(f"distance matrix shape {v.shape} for {n} lanes")
        if not np.allclose(v, v.T, atol=1e-12):
            raise ValueError("distance matrix must be symmetric")
        if np.any(np.abs(np.diag(v)) > 1e-12):
            raise ValueError("distance matrix diagonal must be zero")
        if v.min() < -1e-12 or v.max() > 2.0 + 1e-12:
            raise ValueError("correlation distances must lie in [0, 2]")

    @property
    def n(self) -> int:
        return len(self.keys)


@dataclass(frozen=True)
class Dendrogram:
    """Agglomerative merge tree.

    Nodes 0..n_leaves-1 are leaves; merge k creates node n_leaves + k.
    Heights are the complete-linkage distances, nondecreasing in merge
    order.
    """

    merges: tuple
    n_leaves: int
    labels: tuple

    def __post_init__(self):
        if len(self.merges) != self.n_leaves - 1:
            raise ValueError("need exactly n_leaves - 1 merges")
        prev = -math.inf
        for a, b, h in self.merges:
            if h < prev - 1e-12:
                raise ValueError("merge heights must be nondecreasing")
            prev = max(prev, h)

    def leaf_sets(self) -> list[frozenset]:
        """Leaf set under every internal node, in merge order."""
        sets: dict[int, frozenset] = {
            i: frozenset([i]) for i in range(self.n_leaves)
        }
        out = []
        for k, (a, b, _h) in enumerate(self.merges):
            s = sets[a] | sets[b]
            sets[self.n_leaves + k] = s
            out.append(s)
        return out

    def leaf_names(self) -> list[str]:
        """Leaf names: "gel:lane" for a lane-key label, str() of any other."""
        return [lane_name(k) if isinstance(k, tuple) else str(k) for k in self.labels]


def _correlation_distance(keys: tuple, M: np.ndarray) -> DistanceMatrix:
    """1 - Pearson correlation between the rows of M, symmetric with a zero
    diagonal and clipped to [0, 2]."""
    D = 1.0 - np.corrcoef(M)
    np.fill_diagonal(D, 0.0)
    return DistanceMatrix(keys, np.clip(0.5 * (D + D.T), 0.0, 2.0))


def distance_matrix(grid: IntensityGrid) -> DistanceMatrix:
    """1 - Pearson correlation between sample-lane traces."""
    keys = tuple(grid.lane_keys(include_reference=False))
    if len(keys) < 2:
        raise ValueError("need at least 2 lanes to compute distances")
    M = grid.matrix(include_reference=False)
    sd = M.std(axis=1)
    for key, s in zip(keys, sd):
        if s == 0.0:
            raise ValueError(f"gel {key[0]} lane {key[1]}: constant trace, correlation undefined")
    return _correlation_distance(keys, M)


def hclust_complete(D: DistanceMatrix) -> Dendrogram:
    """Complete-linkage agglomeration of the upper triangle of ``D``.

    Each step merges the lowest (id, id) pair among those within 1e-15 of
    the smallest distance, at that pair's own distance as height.
    """
    n = D.n
    if n < 2:
        raise ValueError("need at least 2 observations")
    # upper triangle indexed by node id; merged nodes' rows and columns go
    # to inf, so the first near-minimal entry in row-major order is the
    # lowest (id, id) pair
    size = 2 * n - 1
    W = np.full((size, size), np.inf)
    W[:n, :n] = np.where(np.triu(np.ones((n, n), dtype=bool), 1), D.values, np.inf)
    merges = []
    for step in range(n - 1):
        a, b = divmod(int(np.argmax(W <= W.min() + 1e-15)), size)
        merges.append((a, b, float(W[a, b])))
        # Lance-Williams max update into the new node's column
        W[:, n + step] = np.maximum(np.minimum(W[a], W[:, a]), np.minimum(W[b], W[:, b]))
        W[[a, b], :] = np.inf
        W[:, [a, b]] = np.inf
    return Dendrogram(tuple(merges), n, D.keys)


def cut(dend: Dendrogram, n: int) -> np.ndarray:
    """Partition from removing the n - 1 tallest merges; labels 1..n.

    Complete linkage is monotone, so those are the last n - 1 merges.
    Clusters are numbered by their smallest member index.
    """
    return cut_rows(dend, [n])[0]


def cut_rows(dend: Dendrogram, n_values) -> np.ndarray:
    """``cut(dend, n)`` for every n in ``n_values``, one row each, from one
    replay of the merge list."""
    N = dend.n_leaves
    n_values = list(n_values)
    for n in n_values:
        if not (1 <= n <= N):
            raise ValueError(f"cannot cut {N} leaves into {n} clusters")
    # rows_at[s]: the rows that want the partition left after s merges
    rows_at: dict[int, list[int]] = {}
    for r, n in enumerate(n_values):
        rows_at.setdefault(N - n, []).append(r)
    # head[i]: the smallest leaf in leaf i's cluster, which names the cluster
    head = np.arange(N)
    node_head = list(range(N))
    out = np.empty((len(n_values), N), dtype=int)
    out[rows_at.get(0, [])] = head
    for s, (a, b, _h) in enumerate(dend.merges[:max(rows_at, default=0)], start=1):
        lo, hi = sorted((node_head[a], node_head[b]))
        node_head.append(lo)
        head[head == hi] = lo
        out[rows_at.get(s, [])] = head
    # a cluster's label is the number of heads up to and including its own
    return np.take_along_axis(np.cumsum(out == np.arange(N), axis=1), out, axis=1)


def adjusted_rand(a, b) -> float:
    """Chance-corrected partition agreement from the contingency table."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("partitions must be equal-length label vectors")
    return adjusted_rand_rows(a[None, :], b)[0]


def adjusted_rand_rows(A, b) -> list[float]:
    """``adjusted_rand(row, b)`` for every row of ``A``.

    The contingency cells of all rows are counted in one pass over
    (row, label, truth) keys, and only occupied cells are kept, so memory
    stays linear in ``A.size``.  Pair counts are exact integers; the float
    arithmetic is done per row, as for a single pair of partitions.
    """
    A = np.asarray(A)
    b = np.asarray(b)
    if A.ndim != 2 or b.ndim != 1 or A.shape[1] != b.size:
        raise ValueError("partitions must be equal-length label vectors")
    m, N = A.shape
    if m == 0:
        return []
    _, ai = np.unique(A, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    ka, kb = int(ai.max()) + 1, int(bi.max()) + 1
    # reshape: the shape of return_inverse differs across numpy versions
    row_label = np.arange(m)[:, None] * ka + ai.reshape(m, N)

    def row_pairs(keys, per_row):
        # per row, the sum over its distinct keys of C(count, 2)
        cells, count = np.unique(keys, return_counts=True)
        out = np.zeros(m, dtype=np.int64)
        np.add.at(out, cells // per_row, count * (count - 1) // 2)
        return out.tolist()

    idx = row_pairs(row_label * kb + bi, ka * kb)
    ra = row_pairs(row_label, ka)
    nb = np.bincount(bi)
    cb = int((nb * (nb - 1) // 2).sum())
    pairs = math.comb(N, 2)
    out = []
    # exact integer pair counts; float arithmetic starts only below
    for i, r in zip(idx, ra):
        expected = r * cb / pairs
        maximum = 0.5 * (r + cb)
        if abs(maximum - expected) < 1e-12:
            out.append(1.0)
        else:
            out.append(float((i - expected) / (maximum - expected)))
    return out


def average_silhouette(D: DistanceMatrix, labels) -> float:
    """Mean silhouette width; singletons contribute 0.

    Per-cluster distance sums and the sum of widths are added in index
    order, so the result equals the plain per-point loop bit for bit.
    """
    labels = np.asarray(labels)
    if labels.size != D.n:
        raise ValueError("label vector does not match distance matrix")
    uniq, inv = np.unique(labels, return_inverse=True)
    if uniq.size < 2:
        raise ValueError("need at least 2 clusters for silhouettes")
    # S[c, i]: sum of D[i, j] over members j of cluster c, added in j order
    S = np.zeros((uniq.size, D.n))
    np.add.at(S, inv, D.values.T)
    counts = np.bincount(inv)
    own = np.arange(D.n)
    size = counts[inv]
    a = S[inv, own] / np.maximum(size - 1, 1)
    means = S / counts[:, None]
    means[inv, own] = np.inf
    b = means.min(axis=0)
    denom = np.maximum(a, b)
    s = np.divide(b - a, denom, out=np.zeros(D.n), where=(size > 1) & (denom > 0.0))
    # cumsum adds strictly left to right; np.sum's pairwise order would not
    return float(np.cumsum(s)[-1]) / D.n


def bootstrap_confidence(grid: IntensityGrid, n_boot: int, rng) -> dict:
    """Subtree recurrence frequency under column resampling.

    Columns of the full lane-by-bin matrix are resampled with replacement,
    pooled across gels, and the fraction of resampled dendrograms that
    reproduce each original subtree's exact leaf set is reported, keyed by
    the sorted tuple of lane keys.
    """
    check_int(n_boot, "cluster.nboot", 1)
    D0 = distance_matrix(grid)
    dend0 = hclust_complete(D0)
    targets = [s for s in dend0.leaf_sets() if 1 < len(s) < dend0.n_leaves]
    counts = {s: 0 for s in targets}
    M = grid.matrix(include_reference=False)
    keys = D0.keys
    B = M.shape[1]
    for _ in range(n_boot):
        cols = rng.integers(0, B, size=B)
        Db = _correlation_distance(keys, M[:, cols])
        present = set(hclust_complete(Db).leaf_sets())
        for s in targets:
            if s in present:
                counts[s] += 1
    out = {}
    for s in targets:
        leaf_keys = tuple(sorted(keys[i] for i in s))
        out[leaf_keys] = counts[s] / n_boot
    return out


def check_n_values(n_values, N: int | None = None):
    """The cluster counts to cut N leaves at: 2..N when n_values is None,
    else n_values, each an integer in 2..N listed once.  Without N, the
    upper bound is left unchecked, and None stays None."""
    if n_values is None:
        return None if N is None else list(range(2, N + 1))
    if not isinstance(n_values, (list, tuple)):
        raise ValueError(f"cluster.n_values must be a list or null, got {n_values!r}")
    span = "an integer >= 2" if N is None else f"an integer in 2..{N} ({N} sample lanes)"
    seen = set()
    for n in n_values:
        if not (isinstance(n, (int, np.integer)) and 2 <= n and (N is None or n <= N)):
            raise ValueError(f"cluster.n_values: {n!r} is not {span}")
        if n in seen:
            raise ValueError(f"cluster.n_values: {n!r} is listed more than once")
        seen.add(n)
    return list(n_values)


def partition_scores(D: DistanceMatrix, dend: Dendrogram, n_values, truth=None):
    """Silhouettes and, given a true partition, adjusted Rand indices of
    ``dend`` cut at each n in ``n_values``; the ARI list is None without
    truth."""
    labels = cut_rows(dend, n_values)
    sil = [average_silhouette(D, row) for row in labels]
    return sil, None if truth is None else adjusted_rand_rows(labels, truth)


def quality_rows(n_values, sil, ari=None) -> list[dict]:
    """``metrics.csv`` rows from (draw x n) score arrays, column j at n_values[j]:
    the mean silhouette and, given ARIs, their mean and 2.5/97.5 percentiles."""
    rows = []
    for j, n in enumerate(n_values):
        row = {"n": n, "silhouette": float(np.mean(sil[:, j]))}
        if ari is not None:
            vals = ari[:, j]
            lo, hi = linear_quantiles(vals, np.array([2.5, 97.5]) / 100).tolist()
            row.update(ari_mean=float(vals.mean()), ari_lo=lo, ari_hi=hi)
        rows.append(row)
    return rows


def posterior_clustering_summary(
    grid: IntensityGrid,
    peaks: PeakTable,
    z_draws: dict,
    L: int,
    truth=None,
    n_values=None,
    thin: int = 1,
) -> list[dict]:
    """Per-n clustering quality across stored assignment draws.

    Each draw's exact alignment is clustered and cut at every n; with a
    true partition the adjusted Rand index is summarized by its mean and
    2.5/97.5 percentiles, otherwise only mean silhouettes are reported.

    A slowly mixing chain repeats most of its draws, so each distinct draw
    is scored once into a row of a score table that each kept draw indexes,
    and a lane is resampled once per distinct assignment.  Every draw enters
    the means and percentiles in draw order, as if each were scored afresh.
    """
    keys = list(z_draws.keys())
    if not keys:
        raise ValueError("no assignment draws given")
    thin = check_int(thin, "cluster.draw_thin", 1)
    draws = [np.asarray(z_draws[key], dtype=int) for key in keys]
    K = len(draws[0])
    n_values = check_n_values(n_values, len(grid.lane_keys(include_reference=False)))
    lanes: dict = {}  # (lane key, assignment bytes) -> resampled lane
    seen: dict = {}  # every lane's assignment bytes -> row of the score table
    table = []  # per distinct draw: (silhouettes, ARIs) at every n
    index = []  # per kept draw: its row of the score table
    for k in range(0, K, thin):
        zk = [d[k] for d in draws]
        draw = tuple(z.tobytes() for z in zk)
        if draw not in seen:
            zbytes = dict(zip(keys, draw))
            todo = {key: z for key, z in zip(keys, zk) if (key, zbytes[key]) not in lanes}
            gels = []
            for gel in exact_align(grid, peaks, todo, L).gels:
                row = []
                for lane in gel.lanes:
                    key = (gel.gel_id, lane.index)
                    if key in todo:
                        lanes[key, zbytes[key]] = lane
                    row.append(lanes.get((key, zbytes.get(key)), lane))
                gels.append(GelTrace(gel.gel_id, tuple(row)))
            Dk = distance_matrix(IntensityGrid(tuple(gels), grid.B))
            seen[draw] = len(table)
            table.append(partition_scores(Dk, hclust_complete(Dk), n_values, truth))
        index.append(seen[draw])
    sil, ari = zip(*table)
    return quality_rows(n_values, np.asarray(sil)[index],
                        None if truth is None else np.asarray(ari)[index])


def to_newick(dend: Dendrogram) -> str:
    """Newick string of the leaf names, with branch lengths from merge
    heights.  Each name is quoted, with any quote in it doubled, so that
    the ':' of "gel:lane" and any comma or parenthesis are read as text."""
    names = ["'" + s.replace("'", "''") + "'" for s in dend.leaf_names()]
    heights = {i: 0.0 for i in range(dend.n_leaves)}
    text = {i: names[i] for i in range(dend.n_leaves)}
    for k, (a, b, h) in enumerate(dend.merges):
        node = dend.n_leaves + k
        la = h - heights[a]
        lb = h - heights[b]
        text[node] = f"({text[a]}:{la:.6g},{text[b]}:{lb:.6g})"
        heights[node] = h
    return text[2 * dend.n_leaves - 2] + ";"


def write_confidence(conf: dict, path) -> None:
    ser = {
        "|".join(map(lane_name, leaf_keys)): c
        for leaf_keys, c in sorted(conf.items())
    }
    flagged = [k for k, c in ser.items() if c > 0.95]
    write_json({"confidence": ser, "strong": flagged}, path, indent=1)


def write_metrics(rows: list[dict], path) -> None:
    cols = ["n", "ari_mean", "ari_lo", "ari_hi", "silhouette"]
    with open_text(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(
                "" if c not in row else (f"{row[c]:.10g}" if c != "n" else str(row[c]))
                for c in cols
            ) + "\n")
