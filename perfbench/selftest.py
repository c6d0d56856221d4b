"""Self-test of the benchmark's oracles and of its metric lists.

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

The oracles are tried on the 9-node caterpillar (path 0-1-2-3-4 with a leaf
on 0, 1, 3 and 4), where R(0, 4) = 4 and the chord (0, 4) at -1/4 sits on
the semidefiniteness boundary, and on small cases with known answers.  It
is not part of the repository's test suite.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import networkx as nx  # noqa: E402
import numpy as np  # noqa: E402
from scipy.linalg import expm  # noqa: E402

import oracles  # noqa: E402

CATERPILLAR = [
    (0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0),
    (0, 5, 1.0), (1, 6, 1.0), (3, 7, 1.0), (4, 8, 1.0),
]
CHORD = (0, 4, -0.25)


def test_grounded_resistance_on_caterpillar():
    solver = oracles.GroundedSolver(9, CATERPILLAR + [CHORD])  # the chord is skipped
    assert abs(solver.resistance(0, 4) - 4.0) < 1e-12
    assert abs(solver.resistance(4, 0) - 4.0) < 1e-12
    assert abs(solver.resistance(5, 8) - 6.0) < 1e-12


def test_grounded_resistance_matches_networkx():
    rng = np.random.default_rng(7)
    n = 30
    edges = [(int(rng.integers(0, v)), v, float(rng.uniform(0.5, 2.0))) for v in range(1, n)]
    edges += [(3, 17, 0.7), (5, 29, 1.3), (0, 11, 1.9)]
    G = nx.Graph()
    G.add_weighted_edges_from(edges)  # weights are conductances
    solver = oracles.GroundedSolver(n, [(u, v, d["weight"]) for u, v, d in G.edges(data=True)])
    for u, v in [(0, 29), (4, 17), (12, 13)]:
        expected = nx.resistance_distance(G, u, v, weight="weight", invert_weight=False)
        assert oracles.rel_err(solver.resistance(u, v), expected) < 1e-9


def test_cycle_threshold_matches_grounded_solve():
    L = 15
    ring = [(j, (j + 1) % L, 1.0) for j in range(L)]
    solver = oracles.GroundedSolver(L, ring)
    for d in range(1, L // 2 + 1):
        r = solver.resistance(3, (3 + d) % L)
        assert oracles.rel_err(1.0 / r, oracles.cycle_threshold(L, d)) < 1e-12


def test_dense_laplacian_and_boundary_kernel():
    lap = oracles.dense_laplacian(9, CATERPILLAR + [CHORD])
    assert np.allclose(lap.sum(axis=1), 0.0)
    assert lap[0, 4] == 0.25 and lap[0, 0] == 2.0 - 0.25
    eigs = np.linalg.eigvalsh(lap)
    # At the boundary the Laplacian is PSD with a two-dimensional kernel.
    assert eigs[0] > -1e-12 and abs(eigs[1]) < 1e-12 and eigs[2] > 1e-3


def test_modal_solution_matches_matrix_exponential():
    lap = oracles.dense_laplacian(9, CATERPILLAR + [CHORD])
    x0 = np.random.default_rng(3).uniform(0.0, 1.0, 9)
    for t in (0.5, 20.0):
        x = oracles.modal_solution(lap, x0, t)
        assert np.max(np.abs(x - expm(-t * lap) @ x0)) < 1e-12
        assert abs(x.mean() - x0.mean()) < 1e-14
    assert np.max(np.abs(lap @ oracles.modal_solution(lap, x0, 200.0))) < 1e-10


def test_cycle_components_on_caterpillar():
    path = oracles.tree_path_edges(9, CATERPILLAR, 0, 4)
    assert sorted(path) == [0, 1, 2, 3]
    remaining = [(u, v) for k, (u, v, _) in enumerate(CATERPILLAR) if k not in path]
    # {0,5}, {1,6}, {2}, {3,7}, {4,8}
    assert oracles.bfs_component_count(9, remaining) == 5


OUTDIR = os.path.join(HERE, "out", "selftest")


def _verdict(classification, thresholds, n_minus, c6):
    import siglap
    per_edge = tuple(siglap.EdgeThreshold((0, 1), 1.0, t, 0.0) for t in thresholds)
    sigma = siglap.spectra.Signature(10 - n_minus, n_minus, 0, 1e-12)
    return siglap.DefinitenessVerdict(classification, per_edge, False, c6, sigma)


def test_expander_and_grid_checks_reject_wrong_outputs():
    import siglap
    from workloads import ExpanderVerdict, GridPairs

    os.makedirs(OUTDIR, exist_ok=True)
    wl = ExpanderVerdict(0, OUTDIR)
    right = [1.0 / r for r in wl.expected_r[0]]
    C = siglap.Classification
    assert wl.check(0, _verdict(C.STRICT_INTERIOR, right, 0, True)) == []
    assert wl.check(0, _verdict(C.INDEFINITE, right, 1, False)) == []
    assert wl.check(0, _verdict(C.STRICT_INTERIOR, [right[0] * (1 + 1e-7)] + right[1:], 0, True))
    assert wl.check(0, _verdict(C.INDEFINITE, right, 4, True))
    assert wl.check(0, _verdict(C.INDEFINITE, right, 0, True))
    assert wl.check(0, _verdict(C.BOUNDARY, right, 0, False))

    grid = GridPairs(0, OUTDIR)
    r = oracles.GroundedSolver(grid.n, grid.edges).resistance(*grid.pairs[1])
    assert grid.check(1, r) == []
    assert grid.check(1, r * (1 + 1e-7))


def test_cactus_check_rejects_wrong_reports():
    from workloads import CactusCli

    os.makedirs(OUTDIR, exist_ok=True)
    wl = CactusCli(0, OUTDIR)
    factors, thresholds = wl.factors[0], wl.thresholds[0]
    label = "indefinite" if 2.0 in factors else "PSD (boundary)"

    def report(label=label, n_minus=factors.count(2.0), scale=1.0, disjoint="true"):
        lines = ["# siglap check-psd", f"{label}, sigma=(1,{n_minus},0)"]
        lines += [f"edge (0,1): |w-| = 1  threshold = {t * scale:.12g}  margin = 0"
                  for t in thresholds]
        lines += [f"disjoint_paths = {disjoint}", "corollary6_satisfied = false"]
        with open(wl.outs[0], "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    report()
    assert wl.check(0, 0) == []
    assert wl.check(0, 1)
    report(label="PSD (strict interior)")
    assert wl.check(0, 0)
    report(n_minus=factors.count(2.0) + 1)
    assert wl.check(0, 0)
    report(scale=1 + 1e-8)
    assert wl.check(0, 0)
    report(disjoint="false")
    assert wl.check(0, 0)


def test_consensus_check_rejects_wrong_states():
    import siglap
    from workloads import BoundaryConsensus

    os.makedirs(OUTDIR, exist_ok=True)
    wl = BoundaryConsensus(0, OUTDIR)
    item = wl.items[0]
    exact = oracles.modal_solution(oracles.dense_laplacian(item["n"], item["edges"]),
                                   item["x0"], wl.T_FINAL)
    q = item["q"]

    def result(final, clusters=q, predicted=q):
        assignment = siglap.ClusterAssignment(tuple(range(clusters)), (0.0,) * clusters)
        traj = siglap.Trajectory(np.array([0.0, wl.T_FINAL]), np.vstack([item["x0"], final]),
                                 1e-3, assignment)
        return traj, siglap.ClusterPrediction(predicted, np.zeros(item["n"]), ())

    assert wl.check(0, result(exact)) == []
    assert wl.check(0, result(exact + 1e-6 * np.arange(item["n"])))
    assert wl.check(0, result(exact + 1e-6))
    assert wl.check(0, result(exact, clusters=q + 1))
    assert wl.check(0, result(exact, predicted=q - 1))


def test_metric_lists_agree_with_benchmark_json():
    import run
    import tracing
    import workloads

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.METRIC_UNITS
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "call_s", "nodes_per_s", "peak_rss_mb"]


if __name__ == "__main__":
    tests = [f for name, f in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
    print(f"{len(tests)} passed")
