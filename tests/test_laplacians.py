import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paper_constructions as pc
import siglap as sl
from conftest import dense_laplacian, random_signed, caterpillar_with_chord
from siglap.laplacians import _laplacian_product


def bundle_for(g):
    return pc.build_bundle(g, pc.decompose(g)), pc.decompose(g)


def test_single_edge_laplacian():
    g = sl.build_graph(2, [(0, 1, 1.0)])
    b, _ = bundle_for(g)
    assert np.array_equal(b.laplacian, [[1.0, -1.0], [-1.0, 1.0]])


def test_triangle_laplacian_spectrum():
    g = sl.build_graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    b, _ = bundle_for(g)
    assert np.array_equal(b.laplacian, 2.0 * np.eye(3) - (np.ones((3, 3)) - np.eye(3)))
    assert np.allclose(np.linalg.eigvalsh(b.laplacian), [0.0, 3.0, 3.0])


def test_laplacian_annihilates_ones():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = random_signed(rng)
        L = sl.laplacian_matrix(g)
        assert np.max(np.abs(L @ np.ones(g.node_count))) < 1e-12
        assert np.array_equal(L, dense_laplacian(g.node_count, g.edges))


def test_bundle_structure():
    g = caterpillar_with_chord(-0.25)
    d = pc.decompose(g)
    b = pc.build_bundle(g, d)
    assert np.allclose(b.cut_gram, b.cut_gram.T)
    assert np.array_equal(b.essential, b.forest_edge_laplacian @ b.cut_gram)
    assert np.all(np.linalg.eigvalsh(b.forest_edge_laplacian) > 0)
    # weight ordering follows the forest-then-cycle column order
    assert np.array_equal(np.diag(b.weight_diag), g.weights[list(d.column_order)])


def test_edge_laplacian_single_edge():
    out = pc.weighted_edge_laplacian(sl.build_graph(2, [(0, 1, 1.0)]))
    assert out.symmetric
    assert np.array_equal(out.matrix, [[2.0]])


def test_edge_laplacian_triangle_matches_node_spectrum():
    g = sl.build_graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    out = pc.weighted_edge_laplacian(g)
    assert out.symmetric
    eigs = np.sort(np.linalg.eigvalsh(out.matrix))
    assert np.allclose(eigs, [0.0, 3.0, 3.0])


def test_edge_laplacian_negative_edge_surrogate():
    g = sl.build_graph(2, [(0, 1, -1.0)])
    out = pc.weighted_edge_laplacian(g)
    assert not out.symmetric
    assert np.array_equal(out.matrix, [[-2.0]])
    # matches the nonzero eigenvalue of the node Laplacian
    assert np.allclose(sorted(np.linalg.eigvalsh(sl.laplacian_matrix(g))), [-2.0, 0.0])


def test_edge_laplacian_positive_psd_and_spectrum_match():
    rng = np.random.default_rng(17)
    for _ in range(10):
        g = random_signed(rng)
        g = sl.build_graph(g.node_count, [(u, v, abs(w)) for u, v, w in g.edges])
        out = pc.weighted_edge_laplacian(g)
        assert out.symmetric
        edge_eigs = np.linalg.eigvalsh(out.matrix)
        assert edge_eigs.min() > -1e-10
        node_eigs = np.linalg.eigvalsh(sl.laplacian_matrix(g))
        scale = max(node_eigs.max(), 1.0)
        nz_edge = np.sort(edge_eigs[np.abs(edge_eigs) > 1e-9 * scale])
        nz_node = np.sort(node_eigs[np.abs(node_eigs) > 1e-9 * scale])
        assert np.allclose(nz_edge, nz_node, rtol=1e-8)


def test_pseudo_inverse_single_edge():
    g = sl.build_graph(2, [(0, 1, 1.0)])
    d = pc.decompose(g)
    out = pc.laplacian_pseudo_inverse(pc.build_bundle(g, d), d)
    assert np.allclose(out, 0.25 * np.array([[1.0, -1.0], [-1.0, 1.0]]))


def test_pseudo_inverse_triangle():
    g = sl.build_graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    d = pc.decompose(g)
    out = pc.laplacian_pseudo_inverse(pc.build_bundle(g, d), d)
    expected = np.linalg.pinv(dense_laplacian(3, g.edges))
    assert np.allclose(out, expected, atol=1e-12)
    assert np.allclose(np.diag(out), 2.0 / 9.0)
    assert np.allclose(out - np.diag(np.diag(out)),
                       -(np.ones((3, 3)) - np.eye(3)) / 9.0)


def test_pseudo_inverse_moore_penrose_identities():
    rng = np.random.default_rng(29)
    checked = 0
    while checked < 20:
        g = random_signed(rng, max_components=1)
        d = pc.decompose(g)
        if d.component_count != 1:
            continue
        b = pc.build_bundle(g, d)
        try:
            M = pc.laplacian_pseudo_inverse(b, d)
        except pc.SingularCutGramError:
            continue
        L = b.laplacian
        assert np.max(np.abs(L @ M @ L - L)) < 1e-9
        assert np.max(np.abs(M @ L @ M - M)) < 1e-9
        assert np.max(np.abs((L @ M) - (L @ M).T)) < 1e-9
        assert np.max(np.abs((M @ L) - (M @ L).T)) < 1e-9
        checked += 1


def test_pseudo_inverse_singular_cut_form_raises():
    g = caterpillar_with_chord(-0.25)  # boundary: two zero eigenvalues
    d = pc.decompose(g)
    b = pc.build_bundle(g, d)
    with pytest.raises(pc.SingularCutGramError):
        pc.laplacian_pseudo_inverse(b, d)
    # the eigendecomposition fallback still satisfies Moore-Penrose
    M = sl.pseudo_inverse_eig(b.laplacian)
    assert np.max(np.abs(b.laplacian @ M @ b.laplacian - b.laplacian)) < 1e-9


def test_pseudo_inverse_requires_connected():
    g = sl.build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    d = pc.decompose(g)
    with pytest.raises(sl.DisconnectedError):
        pc.laplacian_pseudo_inverse(pc.build_bundle(g, d), d)


def test_both_closed_forms_agree():
    # (R W R^T)^-1 route vs essential-inverse route
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 15:
        g = random_signed(rng, max_components=1)
        d = pc.decompose(g)
        if d.component_count != 1 or g.node_count < 2:
            continue
        b = pc.build_bundle(g, d)
        try:
            first = pc.laplacian_pseudo_inverse(b, d)
        except pc.SingularCutGramError:
            continue
        left_inv = np.linalg.solve(b.forest_edge_laplacian, d.incidence_forest.T)
        second = left_inv.T @ np.linalg.solve(b.essential, d.incidence_forest.T)
        assert np.max(np.abs(first - second)) < 1e-9
        checked += 1


def test_similarity_nonzero_spectra_match():
    rng = np.random.default_rng(37)
    checked = 0
    while checked < 25:
        g = random_signed(rng, max_components=1)
        d = pc.decompose(g)
        if d.component_count != 1:
            continue
        b = pc.build_bundle(g, d)
        node = np.linalg.eigvalsh(b.laplacian)
        ess = np.sort(np.linalg.eigvals(b.essential).real)
        scale = max(float(np.max(np.abs(node))), 1e-12)
        nz_node = np.sort(node[np.abs(node) > 1e-8 * scale])
        nz_ess = np.sort(ess[np.abs(ess) > 1e-8 * scale])
        assert nz_node.shape == nz_ess.shape
        if nz_node.size:
            assert np.allclose(nz_node, nz_ess, rtol=1e-8, atol=1e-10 * scale)
        checked += 1


def test_essential_factor_order_is_a_similarity():
    # the transform can be written with the factors in either order; both
    # orderings must share a spectrum
    g = caterpillar_with_chord(-0.1)
    d = pc.decompose(g)
    b = pc.build_bundle(g, d)
    forward = np.sort(np.linalg.eigvals(b.forest_edge_laplacian @ b.cut_gram).real)
    reverse = np.sort(np.linalg.eigvals(b.cut_gram @ b.forest_edge_laplacian).real)
    assert np.allclose(forward, reverse, rtol=1e-9, atol=1e-9)


@st.composite
def signed_multigraphs_and_columns(draw):
    """A signed multigraph on 1..12 nodes, parallel edges drawn by repeating
    node pairs, weights of either sign over six decades, and an x of 1 or 3
    columns."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(rng.integers(1, 13))
    edges = []
    if n > 1:
        for _ in range(int(rng.integers(0, 25))):
            u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
            for _ in range(int(rng.integers(1, 4))):  # 1..3 parallel copies
                edges.append((u, v, float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 3))))
    x = rng.normal(size=(n, draw(st.sampled_from([1, 3]))))
    return sl.build_graph(n, edges), x


@settings(derandomize=True, max_examples=200, deadline=None)
@given(signed_multigraphs_and_columns())
def test_laplacian_product_is_the_dense_product(case):
    g, x = case
    product = _laplacian_product(g, x)
    assert product.shape == x.shape
    # Relative to the entries of L before signs cancel: |w| per edge entry.
    unsigned = sl.SignedGraph(g.node_count, g.tails, g.heads, np.abs(g.weights))
    scale = np.abs(sl.laplacian_matrix(unsigned)) @ np.abs(x)
    assert np.all(np.abs(product - sl.laplacian_matrix(g) @ x) <= 1e-12 * scale)
