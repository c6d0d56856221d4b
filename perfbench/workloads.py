"""The four benchmark workloads: seeded inputs, the timed public call, and
the output checks.

Each workload builds a small pool of inputs from its seed, writes them as
graph files, and cycles through the pool one timed call at a time.  The
checks compare every output with a computation from ``oracles`` or with a
property the paper proves; they return a list of failure messages, empty
when the output is right.
"""

from __future__ import annotations

import os

import numpy as np

import siglap
import siglap.cli

from oracles import (
    GroundedSolver,
    bfs_component_count,
    cycle_threshold,
    dense_laplacian,
    modal_solution,
    rel_err,
    tree_path_edges,
)

R_RTOL = 1e-9
THRESHOLD_RTOL = 1e-9
MODAL_ATOL = 1e-9
MEAN_ATOL = 1e-8


def write_graph(path: str, n: int, edges) -> None:
    """Graph file in siglap's documented edge-list format."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"nodes {n}\n")
        for u, v, w in edges:
            fh.write(f"{u} {v} {w:.17g}\n")


class ExpanderVerdict:
    """``multi_edge_verdict`` on a random recursive tree plus n/2 positive
    chords plus three negative edges.

    Each negative magnitude is a seeded factor in [0.3, 1.5] of its own
    threshold ``1/R``, so verdicts differ between graphs; the positive part
    has one large biconnected core, so the path-edge sets overlap and the
    signature decides.
    """

    name = "expander-verdict"
    NODES = 1200
    NEGATIVE = 3
    POOL = 3

    def __init__(self, seed: int, outdir: str):
        rng = np.random.default_rng(seed)
        self.graphs = []
        self.expected_r = []
        for p in range(self.POOL):
            n = self.NODES
            edges = [(int(rng.integers(0, v)), v, float(rng.uniform(0.5, 2.0)))
                     for v in range(1, n)]
            for _ in range(n // 2):
                u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
                edges.append((u, v, float(rng.uniform(0.5, 2.0))))
            solver = GroundedSolver(n, edges)
            r_neg = []
            for _ in range(self.NEGATIVE):
                u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
                r = solver.resistance(u, v)
                edges.append((u, v, -float(rng.uniform(0.3, 1.5)) / r))
                r_neg.append(r)
            write_graph(os.path.join(outdir, f"{self.name}-{p}.txt"), n, edges)
            self.graphs.append(siglap.build_graph(n, edges))
            self.expected_r.append(r_neg)

    def __len__(self) -> int:
        return len(self.graphs)

    def nodes(self, i: int) -> int:
        return self.graphs[i].node_count

    def call(self, i: int):
        return siglap.multi_edge_verdict(self.graphs[i])

    def check(self, i: int, verdict) -> list[str]:
        bad = []
        for item, r in zip(verdict.per_edge, self.expected_r[i]):
            if rel_err(1.0 / item.threshold, r) > R_RTOL:
                bad.append(f"edge {item.edge}: R {1.0 / item.threshold!r} vs grounded {r!r}")
        n_minus = verdict.sigma.n_minus
        if n_minus > self.NEGATIVE:
            bad.append(f"n_minus {n_minus} exceeds {self.NEGATIVE} negative edges")
        indefinite = verdict.classification is siglap.Classification.INDEFINITE
        if not indefinite and not verdict.corollary6_satisfied:
            bad.append("PSD verdict with Corollary 6 violated")
        if indefinite != (n_minus > 0):
            bad.append(f"verdict {verdict.classification} with n_minus {n_minus}")
        return bad


class GridPairs:
    """``effective_resistance`` for seeded node pairs on a 36x36 grid with
    weights in [0.5, 2]: a planar graph, where sparse factorization fills in
    little."""

    name = "grid-pairs"
    SIDE = 36
    POOL = 3

    def __init__(self, seed: int, outdir: str):
        rng = np.random.default_rng(seed)
        k = self.SIDE
        n = k * k
        edges = []
        for r in range(k):
            for c in range(k):
                if c + 1 < k:
                    edges.append((r * k + c, r * k + c + 1, float(rng.uniform(0.5, 2.0))))
                if r + 1 < k:
                    edges.append((r * k + c, (r + 1) * k + c, float(rng.uniform(0.5, 2.0))))
        self.n, self.edges = n, edges
        self.pairs = [tuple(int(x) for x in rng.choice(n, size=2, replace=False))
                      for _ in range(self.POOL)]
        write_graph(os.path.join(outdir, f"{self.name}.txt"), n, edges)
        self.graph = siglap.build_graph(n, edges)
        self._solver = None

    def __len__(self) -> int:
        return len(self.pairs)

    def nodes(self, i: int) -> int:
        return self.n

    def call(self, i: int):
        u, v = self.pairs[i]
        return siglap.effective_resistance(self.graph, u, v)

    def check(self, i: int, r: float) -> list[str]:
        if self._solver is None:
            self._solver = GroundedSolver(self.n, self.edges)
        expected = self._solver.resistance(*self.pairs[i])
        if rel_err(r, expected) > R_RTOL:
            return [f"pair {self.pairs[i]}: R {r!r} vs grounded {expected!r}"]
        return []


class CactusCli:
    """``siglap check-psd`` through ``siglap.cli.main`` on chains of
    unit-weight 15-cycles joined at cut vertices, each cycle with one
    negative chord at 0.5x, 1x or 2x its analytic threshold ``L/(d(L-d))``.
    """

    name = "cactus-cli"
    CYCLES = 90
    LENGTH = 15
    FACTORS = (0.5, 1.0, 2.0)
    POOL = 3

    def __init__(self, seed: int, outdir: str):
        rng = np.random.default_rng(seed)
        self.paths, self.outs, self.node_counts = [], [], []
        self.thresholds, self.factors = [], []
        L = self.LENGTH
        for p in range(self.POOL):
            edges, chords, thresholds, factors = [], [], [], []
            anchor, next_node = 0, 1
            for _ in range(self.CYCLES):
                ring = [anchor] + list(range(next_node, next_node + L - 1))
                next_node += L - 1
                edges += [(ring[j], ring[(j + 1) % L], 1.0) for j in range(L)]
                a = int(rng.integers(0, L))
                d = int(rng.integers(2, L // 2 + 1))
                factor = float(rng.choice(self.FACTORS))
                threshold = cycle_threshold(L, d)
                chords.append((ring[a], ring[(a + d) % L], -factor * threshold))
                thresholds.append(threshold)
                factors.append(factor)
                anchor = ring[int(rng.integers(1, L))]
            path = os.path.join(outdir, f"{self.name}-{p}.txt")
            write_graph(path, next_node, edges + chords)
            self.paths.append(path)
            self.outs.append(os.path.join(outdir, f"{self.name}-{p}.report"))
            self.node_counts.append(next_node)
            self.thresholds.append(thresholds)
            self.factors.append(factors)

    def __len__(self) -> int:
        return len(self.paths)

    def nodes(self, i: int) -> int:
        return self.node_counts[i]

    def call(self, i: int):
        return siglap.cli.main(["check-psd", self.paths[i], "--out", self.outs[i]])

    def check(self, i: int, code: int) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        with open(self.outs[i], encoding="utf-8") as fh:
            lines = [line for line in fh.read().splitlines() if not line.startswith("#")]
        os.remove(self.outs[i])  # a later call must write its own report
        factors = self.factors[i]
        if 2.0 in factors:
            label = "indefinite"
        elif 1.0 in factors:
            label = "PSD (boundary)"
        else:
            label = "PSD (strict interior)"
        bad = []
        head, _, sigma = lines[0].partition(", sigma=")
        if head != label:
            bad.append(f"label {head!r}, construction gives {label!r}")
        n_minus = int(sigma.strip("()").split(",")[1])
        if n_minus != factors.count(2.0):
            bad.append(f"n_minus {n_minus}, construction has {factors.count(2.0)} 2x chords")
        got = [float(line.split("threshold = ")[1].split()[0])
               for line in lines if line.startswith("edge ")]
        if len(got) != len(self.thresholds[i]):
            bad.append(f"{len(got)} threshold lines for {len(self.thresholds[i])} chords")
        for t_got, t_exp in zip(got, self.thresholds[i]):
            if rel_err(t_got, t_exp) > THRESHOLD_RTOL:
                bad.append(f"threshold {t_got!r} vs analytic {t_exp!r}")
        if "disjoint_paths = true" not in lines:
            bad.append("disjoint_paths is not true")
        return bad


class BoundaryConsensus:
    """``simulate`` to t = 20 plus ``predict_clusters`` on a two-level tree
    (root, 6 hubs on heavy edges, 50 leaves per hub) closed by one negative
    chord between leaves of two hubs at exactly ``1/R``, R being the sum of
    ``1/w`` along the tree path.  Removing the cycle leaves 5 components,
    which the dynamics freeze into 5 clusters.
    """

    name = "boundary-consensus"
    HUBS = 6
    LEAVES = 50
    T_FINAL = 20.0
    POOL = 3

    def __init__(self, seed: int, outdir: str):
        rng = np.random.default_rng(seed)
        self.items = []
        for p in range(self.POOL):
            n = 1 + self.HUBS * (1 + self.LEAVES)
            tree = [(0, h, float(rng.uniform(50.0, 100.0))) for h in range(1, self.HUBS + 1)]
            leaf = self.HUBS + 1
            for h in range(1, self.HUBS + 1):
                for _ in range(self.LEAVES):
                    tree.append((h, leaf, float(rng.uniform(1.0, 2.0))))
                    leaf += 1
            ha, hb = (int(x) for x in rng.choice(self.HUBS, size=2, replace=False))
            u = 1 + self.HUBS + ha * self.LEAVES + int(rng.integers(0, self.LEAVES))
            v = 1 + self.HUBS + hb * self.LEAVES + int(rng.integers(0, self.LEAVES))
            path = tree_path_edges(n, tree, u, v)
            r = sum(1.0 / tree[k][2] for k in path)
            edges = tree + [(u, v, -1.0 / r)]
            cycle = set(path)
            remaining = [(a, b) for k, (a, b, _) in enumerate(tree) if k not in cycle]
            x0 = rng.uniform(0.0, 1.0, n)
            write_graph(os.path.join(outdir, f"{self.name}-{p}.txt"), n, edges)
            self.items.append({
                "n": n,
                "edges": edges,
                "graph": siglap.build_graph(n, edges),
                "x0": x0,
                "q": bfs_component_count(n, remaining),
            })

    def __len__(self) -> int:
        return len(self.items)

    def nodes(self, i: int) -> int:
        return self.items[i]["n"]

    def call(self, i: int):
        item = self.items[i]
        traj = siglap.simulate(item["graph"], item["x0"], t_final=self.T_FINAL)
        return traj, siglap.predict_clusters(item["graph"])

    def check(self, i: int, result) -> list[str]:
        traj, prediction = result
        item = self.items[i]
        bad = []
        exact = modal_solution(dense_laplacian(item["n"], item["edges"]), item["x0"],
                               float(traj.times[-1]))
        err = float(np.max(np.abs(traj.states[-1] - exact)))
        if err > MODAL_ATOL:
            bad.append(f"final state differs from the modal solution by {err:.3e}")
        drift = abs(float(np.mean(traj.states[-1])) - float(np.mean(item["x0"])))
        if drift > MEAN_ATOL:
            bad.append(f"mean drifted by {drift:.3e}")
        if prediction.q != item["q"]:
            bad.append(f"predicted q {prediction.q}, BFS count {item['q']}")
        if traj.diverged:
            bad.append("trajectory reported as diverged")
        elif traj.final_clusters.cluster_count != item["q"]:
            bad.append(f"detected {traj.final_clusters.cluster_count} clusters, "
                       f"BFS count {item['q']}")
        return bad


WORKLOADS = {w.name: w for w in (ExpanderVerdict, GridPairs, CactusCli, BoundaryConsensus)}
