"""Acceptance suite: every release criterion at its stated tolerance.

Each criterion prints one pass/fail line (run with ``pytest -s`` to see them
on success; failures always show the line).  Random suites use fixed seeds so
a green run is reproducible bit for bit.
"""

import time

import numpy as np
import pytest

import paper_constructions as pc
import siglap as sl
from conftest import (
    caterpillar_tree,
    caterpillar_with_chord,
    dense_laplacian,
    eig_signature,
    brute_force_path_edges,
    random_connected_positive,
    random_boundary_cycle_graph,
    random_signed,
    random_tree,
    triangle_chain_with_chords,
)
from siglap.definiteness import Classification

CHORD_FACTORS = (0.95, 1.0, 1.05)


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 1: 9-node reference reproduction
# ---------------------------------------------------------------------------

def test_criterion_1_reference_graph():
    start = time.perf_counter()
    ok = True
    detail = []

    r_uv = sl.effective_resistance(caterpillar_tree(), 0, 4)
    if abs(r_uv - 4.0) > 1e-9:
        ok, _ = False, detail.append(f"R(0,4) = {r_uv!r}")

    for w, expected in ((-0.1, (8, 0, 1)), (-0.25, (7, 0, 2))):
        sig = sl.signature(sl.laplacian_matrix(caterpillar_with_chord(w)))
        if sig.as_tuple() != expected:
            ok, _ = False, detail.append(f"sigma(w={w}) = {sig.as_tuple()}")

    sig = sl.signature(sl.laplacian_matrix(caterpillar_with_chord(-0.3)))
    verdict = sl.single_edge_verdict(caterpillar_with_chord(-0.3))
    if sig.n_minus < 1 or verdict.classification is not Classification.INDEFINITE:
        ok, _ = False, detail.append(f"w=-0.3 not indefinite: {sig.as_tuple()}")

    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        ok, _ = False, detail.append(f"runtime {elapsed:.2f}s")
    _report("criterion 1: reference-graph reproduction",
            ok, "; ".join(detail) or f"{elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 2: single-edge threshold vs independent signature, 200 graphs
# ---------------------------------------------------------------------------

_c2_cache: dict = {}


def run_single_edge_trials():
    if _c2_cache:
        return _c2_cache["trials"]
    rng = np.random.default_rng(2024)
    trials = []
    for _ in range(200):
        g_plus = random_connected_positive(rng)
        u, v = (int(x) for x in rng.choice(g_plus.node_count, size=2, replace=False))
        r_uv = sl.effective_resistance(g_plus, u, v)
        for factor in CHORD_FACTORS:
            g = sl.build_graph(g_plus.node_count,
                               list(g_plus.edges) + [(u, v, -factor / r_uv)])
            verdict = sl.single_edge_verdict(g)
            sigma = eig_signature(dense_laplacian(g.node_count, g.edges))
            c6 = sl.corollary6_check(g)
            trials.append((factor, g.node_count, verdict, sigma, c6))
    _c2_cache["trials"] = trials
    return trials


def test_criterion_2_single_edge_threshold_suite():
    start = time.perf_counter()
    mismatches = []
    for factor, n, verdict, sigma, _ in run_single_edge_trials():
        if factor == 0.95:
            good = (verdict.classification is Classification.STRICT_INTERIOR
                    and sigma == (n - 1, 0, 1))
        elif factor == 1.0:
            good = (verdict.classification is Classification.BOUNDARY
                    and sigma == (n - 2, 0, 2))
        else:
            good = (verdict.classification is Classification.INDEFINITE
                    and sigma[1] == 1)
        if not good:
            mismatches.append((factor, verdict.classification.value, sigma))
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 30.0
    _report("criterion 2: single-edge threshold matches signature (600 verdicts)",
            ok, f"{len(mismatches)} mismatches, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: signature shift relations on 200 random signed graphs
# ---------------------------------------------------------------------------

def test_criterion_3_signature_shift_suite():
    rng = np.random.default_rng(3033)
    bad = 0
    for _ in range(200):
        g = random_signed(rng)
        d = pc.decompose(g)
        b = pc.build_bundle(g, d)
        node = sl.signature(b.laplacian)
        ess = pc.signature_of_similar_nonsymmetric(b.forest_edge_laplacian, b.cut_gram)
        cut = sl.signature(b.cut_gram)
        if node.as_tuple() != (ess.n_plus, ess.n_minus, ess.n_zero + d.component_count):
            bad += 1
        elif cut.as_tuple() != ess.as_tuple():
            bad += 1
    _report("criterion 3: signature shift by component count (200 graphs)",
            bad == 0, f"{bad} mismatches")


# ---------------------------------------------------------------------------
# criterion 4: resistance route equivalence
# ---------------------------------------------------------------------------

def _tree_path_inverse_weight_sum(g: sl.SignedGraph, u: int, v: int) -> float:
    # independent BFS walk over the unique tree path
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.node_count)]
    for k, (a, b, _) in enumerate(g.edges):
        adj[a].append((k, b))
        adj[b].append((k, a))
    prev: dict[int, tuple[int, int]] = {u: (-1, -1)}
    queue = [u]
    while queue:
        x = queue.pop(0)
        if x == v:
            break
        for k, nb in adj[x]:
            if nb not in prev:
                prev[nb] = (x, k)
                queue.append(nb)
    total = 0.0
    node = v
    while node != u:
        parent, k = prev[node]
        total += 1.0 / g.edges[k][2]
        node = parent
    return total


def test_criterion_4_resistance_route_equivalence():
    rng = np.random.default_rng(4044)
    worst = 0.0
    for _ in range(200):
        g = random_connected_positive(rng)
        u, v = (int(x) for x in rng.choice(g.node_count, size=2, replace=False))
        d = pc.decompose(g)
        b = pc.build_bundle(g, d)
        e = np.zeros(g.node_count)
        e[u], e[v] = 1.0, -1.0
        via_eig = float(e @ sl.pseudo_inverse_eig(b.laplacian) @ e)
        via_cut = float(e @ pc.laplacian_pseudo_inverse(b, d) @ e)
        worst = max(worst, abs(via_eig - via_cut))
    ok = worst <= 1e-9
    worst_tree = 0.0
    for _ in range(50):
        g = random_tree(rng, n_lo=3, n_hi=10)
        u, v = (int(x) for x in rng.choice(g.node_count, size=2, replace=False))
        expected = _tree_path_inverse_weight_sum(g, u, v)
        worst_tree = max(worst_tree, abs(sl.effective_resistance(g, u, v) - expected))
    ok = ok and worst_tree <= 1e-10
    _report("criterion 4: resistance routes agree (200 graphs + 50 trees)",
            ok, f"max route gap {worst:.2e}, max tree gap {worst_tree:.2e}")


# ---------------------------------------------------------------------------
# criterion 5: multi-edge thresholds on cactus chains + non-disjoint fallback
# ---------------------------------------------------------------------------

_c5_cache: dict = {}


def run_cactus_trials():
    if _c5_cache:
        return _c5_cache["trials"]
    rng = np.random.default_rng(5055)
    trials = []
    for _ in range(100):
        k = int(rng.integers(2, 5))
        factors = [float(rng.choice([0.8, 1.0, 1.2])) for _ in range(k)]
        g, _ = triangle_chain_with_chords(rng, k, factors)
        verdict = sl.multi_edge_verdict(g)
        sigma = eig_signature(dense_laplacian(g.node_count, g.edges))
        c6 = sl.corollary6_check(g)
        trials.append((factors, g, verdict, sigma, c6))
    _c5_cache["trials"] = trials
    return trials


def test_criterion_5_cactus_threshold_suite():
    bad = []
    for factors, g, verdict, sigma, _ in run_cactus_trials():
        if not verdict.disjointness_hypothesis_holds:
            bad.append("disjointness flag")
            continue
        # verify disjointness independently by brute-force path enumeration
        g_plus = g.positive_subgraph()
        neg = [(g.edges[k][0], g.edges[k][1]) for k in g.negative_edge_indices()]
        sets = [brute_force_path_edges(g_plus, u, v) for u, v in neg]
        if any(sets[i] & sets[j] for i in range(len(sets)) for j in range(i + 1, len(sets))):
            bad.append("paths not disjoint")
            continue
        violating = sum(1 for f in factors if f > 1.0)
        at_boundary = sum(1 for f in factors if f == 1.0)
        if violating:
            good = (verdict.classification is Classification.INDEFINITE
                    and sigma[1] == violating)
        elif at_boundary:
            good = (verdict.classification is Classification.BOUNDARY
                    and sigma == (g.node_count - 1 - at_boundary, 0, 1 + at_boundary))
        else:
            good = (verdict.classification is Classification.STRICT_INTERIOR
                    and sigma == (g.node_count - 1, 0, 1))
        if not good:
            bad.append(f"{factors} -> {verdict.classification.value} vs {sigma}")
    _report("criterion 5a: cactus-chain thresholds match signature (100 graphs)",
            not bad, "; ".join(bad[:3]))


def test_criterion_5_non_disjoint_case():
    g = sl.build_graph(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (0, 3, 4.0),
                           (0, 2, -0.1), (1, 3, -0.1)])
    m, _ = sl.resistance_matrix_for_negatives(
        g.positive_subgraph(), [(0, 2), (1, 3)])
    verdict = sl.multi_edge_verdict(g)
    ok = abs(m[0, 1]) > 1e-6 and not verdict.disjointness_hypothesis_holds
    _report("criterion 5b: shared-cycle chords expose off-diagonal coupling",
            ok, f"|M01| = {abs(m[0, 1]):.3e}")


# ---------------------------------------------------------------------------
# criterion 6: the total-resistance inequality never contradicts PSD
# ---------------------------------------------------------------------------

def test_criterion_6_total_resistance_necessary_condition():
    violations = 0
    total = 0
    for _, _, _, sigma, c6 in run_single_edge_trials():
        total += 1
        if sigma[1] == 0 and c6.inverse_weight_sum < c6.total_resistance - 1e-9:
            violations += 1
    for _, _, _, sigma, c6 in run_cactus_trials():
        total += 1
        if sigma[1] == 0 and c6.inverse_weight_sum < c6.total_resistance - 1e-9:
            violations += 1
    _report("criterion 6: no PSD trial violates the inverse-weight inequality",
            violations == 0, f"{violations} violations over {total} trials")


def test_verdict_corollary6_matches_corollary6_check():
    # verdicts derive Corollary 6 from their own resistance matrix; it must
    # match the standalone check on both acceptance families
    flags = [(verdict.corollary6_satisfied, c6.satisfied)
             for _, _, verdict, _, c6 in run_single_edge_trials() + run_cactus_trials()]
    mismatches = sum(1 for mine, standalone in flags if mine != standalone)
    _report("corollary 6 in verdicts matches corollary6_check",
            mismatches == 0, f"{mismatches} mismatches over {len(flags)} verdicts")


# ---------------------------------------------------------------------------
# criterion 7: clustering reproduction on the 9-node reference graph
# ---------------------------------------------------------------------------

def _seeded_x0(n: int = 9, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).uniform(0.0, 1.0, n)


@pytest.mark.xfail(
    strict=True,
    reason="Stated horizon is structurally unreachable: with w = -0.1 the "
           "slowest stable mode of the reference graph decays at rate 0.110, "
           "so any O(1) initial state still shows a ~1e-2 pairwise gap at "
           "t = 20; reaching 1e-5 needs t of roughly 110.  The companion test "
           "below verifies full synchronization at an adequate horizon.",
)
def test_criterion_7a_sync_gap_at_stated_horizon():
    traj = sl.simulate(caterpillar_with_chord(-0.1), _seeded_x0(), t_final=20.0)
    gap = float(np.max(traj.states[-1]) - np.min(traj.states[-1]))
    _report("criterion 7a: sync gap < 1e-5 at t = 20 (w = -0.1)",
            gap < 1e-5, f"gap = {gap:.3e}")


def test_criterion_7a_mean_conserved_at_stated_horizon():
    traj = sl.simulate(caterpillar_with_chord(-0.1), _seeded_x0(), t_final=20.0)
    means = traj.states.sum(axis=1)
    drift = float(np.max(np.abs(means - means[0])) / abs(means[0]))
    _report("criterion 7a: mean conserved to 1e-8 at t = 20 (w = -0.1)",
            drift <= 1e-8, f"relative drift = {drift:.2e}")


def test_criterion_7a_companion_sync_at_adequate_horizon():
    traj = sl.simulate(caterpillar_with_chord(-0.1), _seeded_x0(), t_final=120.0)
    gap = float(np.max(traj.states[-1]) - np.min(traj.states[-1]))
    means = traj.states.sum(axis=1)
    drift = float(np.max(np.abs(means - means[0])) / abs(means[0]))
    ok = gap < 1e-5 and traj.final_clusters.cluster_count == 1 and drift <= 1e-8
    _report("criterion 7a': one cluster by t = 120 (w = -0.1)",
            ok, f"gap = {gap:.2e}, mean drift = {drift:.2e}")


def test_criterion_7b_boundary_clustering():
    start = time.perf_counter()
    g = caterpillar_with_chord(-0.25)
    prediction = sl.predict_clusters(g)
    traj = sl.simulate(g, _seeded_x0(), t_final=20.0)
    clusters = sl.detect_clusters(traj, tol=1e-5)
    means = traj.states.sum(axis=1)
    drift = float(np.max(np.abs(means - means[0])) / abs(means[0]))
    elapsed = time.perf_counter() - start
    ok = (prediction.q == 5 and clusters.cluster_count == 5
          and clusters.labels == prediction.component_map
          and drift <= 1e-8 and elapsed < 10.0)
    _report("criterion 7b: boundary run forms q = 5 predicted clusters",
            ok, f"clusters = {clusters.cluster_count}, drift = {drift:.2e}, "
                f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 8: rank-one mechanism and null-vector quality, 50 graphs
# ---------------------------------------------------------------------------

def test_criterion_8_single_cycle_mechanism():
    rng = np.random.default_rng(8088)
    worst_eig = 0.0
    worst_null = 0.0
    worst_ones = 0.0
    for _ in range(50):
        g = random_boundary_cycle_graph(rng)
        positive = g.positive_edge_indices()
        dec = pc.decompose_with_forest(g, positive)
        t_vec = dec.tree_to_cycle[:, 0]
        scaled = t_vec / np.sqrt(g.weights[list(dec.forest_edges)])
        lam = np.linalg.eigvalsh(np.outer(scaled, scaled))
        (k,) = g.negative_edge_indices()
        u, v, _ = g.edges[k]
        r_uv = sl.effective_resistance(g.subgraph(positive), u, v)
        worst_eig = max(worst_eig, abs(float(lam[-1]) - r_uv))

        prediction = sl.predict_clusters(g)
        L = dense_laplacian(g.node_count, g.edges)
        worst_null = max(worst_null, float(np.linalg.norm(L @ prediction.null_vector)))
        worst_ones = max(worst_ones, abs(float(prediction.null_vector.sum())))
    ok = worst_eig <= 1e-9 and worst_null <= 1e-8 and worst_ones <= 1e-8
    _report("criterion 8: rank-one eigenvalue equals resistance (50 graphs)",
            ok, f"max |eig - R| = {worst_eig:.2e}, max |Lv| = {worst_null:.2e}, "
                f"max |1'v| = {worst_ones:.2e}")
