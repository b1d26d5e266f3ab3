"""Clustering of aligned traces and its evaluation.

Lanes are compared by Pearson correlation distance, merged by complete
linkage, and the resulting partitions scored with the adjusted Rand index
against a known grouping, average silhouette width when no truth is
available, and bootstrap subtree confidence over column resamples.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import IntensityGrid
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
        return [f"{k[0]}:{k[1]}" if isinstance(k, tuple) else str(k) for k in self.labels]


def distance_matrix(grid: IntensityGrid, include_reference: bool = False) -> DistanceMatrix:
    """1 - Pearson correlation between lane traces."""
    keys = tuple(grid.lane_keys(include_reference=include_reference))
    if len(keys) < 2:
        raise ValueError("need at least 2 lanes to compute distances")
    M = grid.matrix(include_reference=include_reference)
    sd = M.std(axis=1)
    for key, s in zip(keys, sd):
        if s == 0.0:
            raise ValueError(f"gel {key[0]} lane {key[1]}: constant trace, correlation undefined")
    C = np.corrcoef(M)
    D = 1.0 - C
    np.fill_diagonal(D, 0.0)
    D = np.clip(0.5 * (D + D.T), 0.0, 2.0)
    return DistanceMatrix(keys, D)


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
    N = dend.n_leaves
    if not (1 <= n <= N):
        raise ValueError(f"cannot cut {N} leaves into {n} clusters")
    parent = list(range(2 * N - 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for k in range(N - n):
        a, b, _h = dend.merges[k]
        root = N + k
        parent[find(a)] = root
        parent[find(b)] = root
    groups: dict[int, list[int]] = {}
    for i in range(N):
        groups.setdefault(find(i), []).append(i)
    labels = np.zeros(N, dtype=int)
    for num, members in enumerate(
        sorted(groups.values(), key=lambda m: min(m)), start=1
    ):
        labels[members] = num
    return labels


def adjusted_rand(a, b) -> float:
    """Chance-corrected partition agreement from the contingency table."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("partitions must be equal-length label vectors")
    N = a.size
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    kb = int(bi.max()) + 1
    table = np.bincount(ai * kb + bi, minlength=(int(ai.max()) + 1) * kb).reshape(-1, kb)
    # exact integer pair counts; float arithmetic starts only below
    idx, ra, cb = (int((v * (v - 1) // 2).sum())
                   for v in (table, table.sum(axis=1), table.sum(axis=0)))
    pairs = math.comb(N, 2)
    expected = ra * cb / pairs
    maximum = 0.5 * (ra + cb)
    if abs(maximum - expected) < 1e-12:
        return 1.0
    return float((idx - expected) / (maximum - expected))


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


def bootstrap_confidence(
    grid: IntensityGrid, n_boot: int, rng, include_reference: bool = False
) -> dict:
    """Subtree recurrence frequency under column resampling.

    Columns of the full lane-by-bin matrix are resampled with replacement,
    pooled across gels, and the fraction of resampled dendrograms that
    reproduce each original subtree's exact leaf set is reported, keyed by
    the sorted tuple of lane keys.
    """
    if n_boot < 1:
        raise ValueError("n_boot must be >= 1")
    D0 = distance_matrix(grid, include_reference=include_reference)
    dend0 = hclust_complete(D0)
    targets = [s for s in dend0.leaf_sets() if 1 < len(s) < dend0.n_leaves]
    counts = {s: 0 for s in targets}
    M = grid.matrix(include_reference=include_reference)
    keys = tuple(grid.lane_keys(include_reference=include_reference))
    B = M.shape[1]
    for _ in range(n_boot):
        cols = rng.integers(0, B, size=B)
        C = np.corrcoef(M[:, cols])
        Dv = 1.0 - C
        np.fill_diagonal(Dv, 0.0)
        Db = DistanceMatrix(keys, np.clip(0.5 * (Dv + Dv.T), 0.0, 2.0))
        present = set(hclust_complete(Db).leaf_sets())
        for s in targets:
            if s in present:
                counts[s] += 1
    out = {}
    for s in targets:
        leaf_keys = tuple(sorted(keys[i] for i in s))
        out[leaf_keys] = counts[s] / n_boot
    return out


def check_n_values(n_values, N: int) -> list:
    """The cluster counts to cut N leaves at: 2..N when n_values is None,
    else n_values, each of which must be an integer in 2..N."""
    if n_values is None:
        return list(range(2, N + 1))
    n_values = list(n_values)
    for n in n_values:
        if not (isinstance(n, (int, np.integer)) and 2 <= n <= N):
            raise ValueError(
                f"cluster.n_values: {n!r} is not an integer in 2..{N} "
                f"({N} sample lanes)"
            )
    return n_values


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
    """
    keys = list(z_draws.keys())
    if not keys:
        raise ValueError("no assignment draws given")
    K = len(z_draws[keys[0]])
    draw_idx = range(0, K, max(1, thin))
    n_values = check_n_values(n_values, len(grid.lane_keys(include_reference=False)))
    ari = {n: [] for n in n_values}
    sil = {n: [] for n in n_values}
    for k in draw_idx:
        zk = {key: z_draws[key][k] for key in keys}
        Dk = distance_matrix(exact_align(grid, peaks, zk, L))
        dend = hclust_complete(Dk)
        for n in n_values:
            labels = cut(dend, n)
            if truth is not None:
                ari[n].append(adjusted_rand(labels, truth))
            sil[n].append(average_silhouette(Dk, labels))
    rows = []
    for n in n_values:
        row = {"n": n, "silhouette": float(np.mean(sil[n]))}
        if truth is not None:
            vals = np.asarray(ari[n])
            row.update(
                ari_mean=float(vals.mean()),
                ari_lo=float(np.percentile(vals, 2.5)),
                ari_hi=float(np.percentile(vals, 97.5)),
            )
        rows.append(row)
    return rows


def to_newick(dend: Dendrogram, names=None) -> str:
    """Newick string with branch lengths from merge heights."""
    if names is None:
        names = dend.leaf_names()
    names = [str(s).replace(",", "_").replace("(", "_").replace(")", "_")
             for s in names]
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
        "|".join(f"{g}:{l}" for g, l in leaf_keys): c
        for leaf_keys, c in sorted(conf.items())
    }
    flagged = [k for k, c in ser.items() if c > 0.95]
    with open(path, "w") as fh:
        json.dump({"confidence": ser, "strong": flagged}, fh, indent=1, sort_keys=True)


def write_metrics(rows: list[dict], path) -> None:
    cols = ["n", "ari_mean", "ari_lo", "ari_hi", "silhouette"]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(
                "" if c not in row else (f"{row[c]:.10g}" if c != "n" else str(row[c]))
                for c in cols
            ) + "\n")
