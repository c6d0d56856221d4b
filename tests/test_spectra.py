import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import block_diag

import paper_constructions as pc
import siglap as sl
from conftest import caterpillar_with_chord, eig_signature, random_signed


def test_zero_matrix_signature():
    sig = sl.signature(np.zeros((3, 3)))
    assert sig.as_tuple() == (0, 0, 3)


def test_triangle_signature():
    g = sl.build_graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    sig = sl.signature(sl.laplacian_matrix(g))
    assert sig.as_tuple() == (2, 0, 1)


def test_caterpillar_weak_chord_signature():
    sig = sl.signature(sl.laplacian_matrix(caterpillar_with_chord(-0.1)))
    assert sig.as_tuple() == (8, 0, 1)


def test_signature_counts_sum_to_dimension():
    rng = np.random.default_rng(41)
    for _ in range(20):
        m = rng.standard_normal((6, 6))
        m = m + m.T
        sig = sl.signature(m)
        assert sig.dimension == 6
        assert sig.as_tuple() == eig_signature(m)


def test_signature_rejects_asymmetric():
    m = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(sl.NotSymmetricError):
        sl.signature(m)


def test_stack_signature_is_that_of_the_block_diagonal_matrix():
    rng = np.random.default_rng(43)
    for size in (1, 2, 5):
        stack = rng.standard_normal((7, size, size))
        stack = stack + np.swapaxes(stack, 1, 2)
        stack[0] = 0.0  # zero eigenvalues under the default tolerance too
        dense = block_diag(*stack)
        for tol in (None, 0.5):
            got, expected = sl.signature(stack, tol), sl.signature(dense, tol)
            assert got.as_tuple() == expected.as_tuple()
            assert got.near_singular == expected.near_singular
            # the default tolerance reads max|eig|, equal up to round-off
            assert got.tolerance_used == pytest.approx(expected.tolerance_used, rel=1e-12)
    assert sl.signature(np.zeros((0, 3, 3))).as_tuple() == (0, 0, 0)


def test_stack_signature_checks_each_block_on_its_own_scale():
    # block 1 is 1e-6 asymmetric relative to its own scale, but not to the
    # stack's largest entry
    stack = np.array([[[1e6, 0.0], [0.0, 1e6]], [[1.0, 1e-6], [0.0, 1.0]]])
    with pytest.raises(sl.NotSymmetricError, match="matrix 1 of the stack"):
        sl.signature(stack)


def test_signature_symmetrizes_within_tolerance():
    m = np.array([[1.0, 1.0 + 1e-14], [1.0, 1.0]])
    sig = sl.signature(m)
    assert sig.dimension == 2


def test_signature_near_singular_flag():
    sig = sl.signature(np.diag([1.0, 1e-3]), tol=5e-4)
    assert sig.near_singular
    sig = sl.signature(np.diag([1.0, 0.5]))
    assert not sig.near_singular


def test_signature_explicit_tolerance_recorded():
    sig = sl.signature(np.diag([1.0, 1e-3]), tol=1e-2)
    assert sig.tolerance_used == 1e-2
    assert sig.as_tuple() == (1, 0, 1)


def path4_laplacian():
    return sl.laplacian_matrix(sl.build_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]))


def test_signature_rejects_negative_tolerance():
    # tol = -1 would count the zero eigenvalue as positive: (4, 0, 0)
    with pytest.raises(sl.InvalidToleranceError) as err:
        sl.signature(path4_laplacian(), tol=-1.0)
    assert isinstance(err.value, sl.SiglapError)
    assert isinstance(err.value, ValueError)


def test_signature_rejects_nan_tolerance():
    # tol = nan would count every eigenvalue as negative: (0, 4, 0)
    with pytest.raises(sl.InvalidToleranceError):
        sl.signature(path4_laplacian(), tol=float("nan"))
    assert sl.signature(path4_laplacian(), tol=0.0).tolerance_used == 0.0


def test_all_positive_weights_signature():
    rng = np.random.default_rng(43)
    for _ in range(15):
        g = random_signed(rng)
        g = sl.build_graph(g.node_count, [(u, v, abs(w)) for u, v, w in g.edges])
        d = pc.decompose(g)
        sig = sl.signature(sl.laplacian_matrix(g))
        assert sig.as_tuple() == (g.node_count - d.component_count, 0, d.component_count)


def test_similar_nonsymmetric_tree_identity_weights():
    g = sl.build_graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    d = pc.decompose(g)
    b = pc.build_bundle(g, d)
    assert np.allclose(b.cut_gram, np.eye(3))
    sig = pc.signature_of_similar_nonsymmetric(b.forest_edge_laplacian, b.cut_gram)
    assert sig.as_tuple() == (3, 0, 0)


def test_similar_nonsymmetric_boundary_caterpillar():
    g = caterpillar_with_chord(-0.25)
    d = pc.decompose(g)
    b = pc.build_bundle(g, d)
    sig = pc.signature_of_similar_nonsymmetric(b.forest_edge_laplacian, b.cut_gram)
    assert sig.as_tuple() == (7, 0, 1)


def test_similar_nonsymmetric_equals_cut_form_signature():
    rng = np.random.default_rng(47)
    for _ in range(25):
        g = random_signed(rng)
        d = pc.decompose(g)
        b = pc.build_bundle(g, d)
        via_product = pc.signature_of_similar_nonsymmetric(b.forest_edge_laplacian,
                                                           b.cut_gram)
        direct = sl.signature(b.cut_gram)
        assert via_product.as_tuple() == direct.as_tuple()


def test_similar_nonsymmetric_rejects_indefinite_factor():
    with pytest.raises(pc.FactorNotPDError):
        pc.signature_of_similar_nonsymmetric(np.diag([1.0, -1.0]), np.eye(2))


def test_signature_shift_by_component_count():
    # node signature equals the product signature plus one zero per component
    rng = np.random.default_rng(53)
    for _ in range(40):
        g = random_signed(rng)
        d = pc.decompose(g)
        b = pc.build_bundle(g, d)
        node = sl.signature(b.laplacian)
        ess = pc.signature_of_similar_nonsymmetric(b.forest_edge_laplacian, b.cut_gram)
        c = d.component_count
        assert node.as_tuple() == (ess.n_plus, ess.n_minus, ess.n_zero + c)
        cut = sl.signature(b.cut_gram)
        assert cut.as_tuple() == ess.as_tuple()


def test_congruence_preserves_signature():
    rng = np.random.default_rng(59)
    for _ in range(25):
        dim = int(rng.integers(2, 9))
        m = rng.standard_normal((dim, dim))
        m = m + m.T
        while True:
            s = rng.standard_normal((dim, dim))
            if abs(np.linalg.det(s)) > 1e-3:
                break
        assert sl.signature(s.T @ m @ s).as_tuple() == sl.signature(m).as_tuple()


@pytest.mark.parametrize("shape", [(0, 0), (3, 0, 0), (0, 2, 2)])
@pytest.mark.parametrize("tol", [None, 0, Fraction(1, 3), np.float32(1e-3), Decimal("0.1")],
                         ids=["default", "int", "fraction", "float32", "decimal"])
def test_an_empty_matrix_or_stack_has_the_empty_signature(shape, tol):
    sig = sl.signature(np.zeros(shape), tol)
    assert sig.as_tuple() == (0, 0, 0) and not sig.near_singular
    assert type(sig.tolerance_used) is float
    assert sig.tolerance_used == (np.finfo(float).eps if tol is None else float(tol))
    if len(shape) == 2:
        inverse = sl.pseudo_inverse_eig(np.zeros(shape))
        assert inverse.shape == shape and inverse.dtype == np.float64
    else:
        with pytest.raises(sl.InvalidParameterError, match="expected a square matrix"):
            sl.pseudo_inverse_eig(np.zeros(shape))


def test_a_tolerance_beyond_the_double_range_reads_as_infinity():
    sig = sl.signature(np.diag([1.0, -2.0]), 10**400)
    assert sig.as_tuple() == (0, 0, 2) and sig.tolerance_used == math.inf


def test_pseudo_inverse_eig_identity():
    assert np.array_equal(sl.pseudo_inverse_eig(np.eye(3)), np.eye(3))


def test_pseudo_inverse_eig_diagonal():
    out = sl.pseudo_inverse_eig(np.diag([2.0, 0.0]))
    assert np.allclose(out, np.diag([0.5, 0.0]))


def test_pseudo_inverse_eig_matches_closed_form():
    g = sl.build_graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    d = pc.decompose(g)
    b = pc.build_bundle(g, d)
    assert np.max(np.abs(sl.pseudo_inverse_eig(b.laplacian)
                         - pc.laplacian_pseudo_inverse(b, d))) < 1e-9
