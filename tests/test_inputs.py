"""Hostile values at every argument position of the public callables.

Whatever the value, only a ``SiglapError`` escapes, or an ``OSError`` for a
path that does not exist; no file descriptor of the process is closed and
no existing file loses its bytes.  Warnings are errors in this suite, so a
value that numpy reads with a warning (a complex number cast to float) fails
here too.
"""

import math
import os
from decimal import Decimal
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import siglap as sl

G = sl.build_graph(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0), (0, 3, 1.0), (0, 2, -0.25)])
PLUS = G.positive_subgraph()
X0 = [0.0, 0.5, 1.0, 0.25]
TRAJECTORY = sl.simulate(PLUS, X0, t_final=1.0)
SAMPLED = {"t_final": 0.1, "step": 0.01}

# (callable, argument position): a call with the hostile value in that position
POSITIONS = {
    "build_graph.node_count": lambda x: sl.build_graph(x, [(0, 1, 1.0)]),
    "build_graph.edge_list": lambda x: sl.build_graph(3, x),
    "build_graph.edge": lambda x: sl.build_graph(3, [x]),
    "build_graph.u": lambda x: sl.build_graph(3, [(x, 1, 1.0)]),
    "build_graph.w": lambda x: sl.build_graph(3, [(0, 1, x)]),
    "SignedGraph.node_count": lambda x: sl.SignedGraph(x, [0], [1], [1.0]),
    "SignedGraph.tails": lambda x: sl.SignedGraph(3, x, [1], [1.0]),
    "SignedGraph.heads": lambda x: sl.SignedGraph(3, [0], x, [1.0]),
    "SignedGraph.weights": lambda x: sl.SignedGraph(3, [0], [1], x),
    "SignedGraph.weight": lambda x: sl.SignedGraph(3, [0], [1], [x]),
    "SignedGraph.subgraph": lambda x: G.subgraph(x),
    "component_labels.g": lambda x: sl.component_labels(x),
    "path_edge_sets.g_plus": lambda x: sl.path_edge_sets(x, [(0, 2)]),
    "path_edge_sets.negative_edges": lambda x: sl.path_edge_sets(PLUS, x),
    "parse_graph.text": sl.parse_graph,
    "format_graph.g": sl.format_graph,
    "read_graph_file.path": sl.read_graph_file,
    "write_graph_file.g": lambda x: sl.write_graph_file(x, "existing.txt"),
    "write_graph_file.path": lambda x: sl.write_graph_file(G, x),
    "laplacian_matrix.g": sl.laplacian_matrix,
    "effective_resistance.g": lambda x: sl.effective_resistance(x, 0, 1),
    "effective_resistance.u": lambda x: sl.effective_resistance(PLUS, x, 1),
    "effective_resistance.v": lambda x: sl.effective_resistance(G, 0, x),
    "negative_edge_report.g": sl.negative_edge_report,
    "resistance_matrix_for_negatives.g_plus":
        lambda x: sl.resistance_matrix_for_negatives(x, [(0, 2)]),
    "resistance_matrix_for_negatives.negative_edges":
        lambda x: sl.resistance_matrix_for_negatives(PLUS, x),
    "signature.m": sl.signature,
    "signature.entry": lambda x: sl.signature([[1.0, 0.0], [0.0, x]]),
    "signature.tol": lambda x: sl.signature(np.eye(2), x),
    "pseudo_inverse_eig.m": sl.pseudo_inverse_eig,
    "default_zero_tolerance.eigenvalues": lambda x: sl.default_zero_tolerance(x, 2),
    "default_zero_tolerance.dim": lambda x: sl.default_zero_tolerance(np.ones(2), x),
    "multi_edge_verdict.g": sl.multi_edge_verdict,
    "multi_edge_verdict.tol": lambda x: sl.multi_edge_verdict(G, x),
    "corollary6_check.g": sl.corollary6_check,
    "simulate.g": lambda x: sl.simulate(x, X0, **SAMPLED),
    "simulate.x0": lambda x: sl.simulate(G, x, **SAMPLED),
    "simulate.x0_entry": lambda x: sl.simulate(G, [0.0, x, 1.0, 0.5], **SAMPLED),
    "simulate.t_final": lambda x: sl.simulate(G, X0, t_final=x, step=0.01),
    "simulate.step": lambda x: sl.simulate(G, X0, t_final=0.1, step=x),
    "simulate.output_stride": lambda x: sl.simulate(G, X0, output_stride=x, **SAMPLED),
    "simulate.cluster_tol": lambda x: sl.simulate(G, X0, cluster_tol=x, **SAMPLED),
    "predict_clusters.g": sl.predict_clusters,
    "detect_clusters.traj": sl.detect_clusters,
    "detect_clusters.states":
        lambda x: sl.detect_clusters(sl.Trajectory(TRAJECTORY.times, x, 0.01, None)),
    "detect_clusters.tol": lambda x: sl.detect_clusters(TRAJECTORY, x),
}

# Each value is made afresh for its call: an iterator is spent by one.
HOSTILE = {
    "None": lambda: None,
    "True": lambda: True,
    "False": lambda: False,
    "numpy-bool": lambda: np.bool_(True),
    "text": lambda: "g",
    "number-text": lambda: "1.5",
    "empty-text": lambda: "",
    "bytes": lambda: b"1",
    "bytearray": lambda: bytearray(b"1"),
    "complex": lambda: 1j,
    "numpy-complex": lambda: np.complex128(1 + 2j),
    "fraction": lambda: Fraction(1, 3),
    "decimal": lambda: Decimal("1.5"),
    "beyond-int64": lambda: 2**70,
    "beyond-doubles": lambda: 10**400,
    "below-doubles": lambda: -(10**400),
    "nan": lambda: math.nan,
    "inf": lambda: math.inf,
    "-inf": lambda: -math.inf,
    "zero-d-array": lambda: np.array(0.5),
    "empty-array": lambda: np.zeros(0),
    "empty-matrix": lambda: np.zeros((0, 0)),
    "set": lambda: {0, 1},
    "dict": lambda: {0: 1},
    "iterator": lambda: iter([0, 1]),
    "ragged": lambda: [[0], [1, 2]],
    "bool-among-ints": lambda: [0, True],
    "object": object,
}

CASES = [(position, value) for position in POSITIONS for value in HOSTILE]


def _open_descriptors(upto: int) -> set[int]:
    found = set()
    for fd in range(upto):
        try:
            os.fstat(fd)
        except OSError:
            continue
        found.add(fd)
    return found


def test_a_hostile_argument_gets_a_siglap_error(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    existing, kept = tmp_path / "existing.txt", sl.format_graph(G).encode()
    r, w = os.pipe()  # its descriptors are hostile values too
    os.set_blocking(r, False)  # a read of the empty pipe fails, not waits
    values = HOSTILE | {"read-descriptor": lambda: r, "write-descriptor": lambda: w}
    cases = CASES + [(position, value) for position in POSITIONS
                     for value in ("read-descriptor", "write-descriptor")]
    seen = set()

    @settings(max_examples=len(cases), derandomize=True, database=None, deadline=None)
    @given(st.sampled_from(cases))
    def property(case):
        seen.add(case)
        position, value = case
        x = values[value]()
        existing.write_bytes(kept)
        before = _open_descriptors(max(r, w) + 8)
        try:
            POSITIONS[position](x)
        except sl.SiglapError:
            pass
        except OSError:
            assert isinstance(x, (str, os.PathLike)) and not os.path.exists(x), case
        assert before <= _open_descriptors(max(r, w) + 8), case
        assert existing.read_bytes() == kept, case

    try:
        property()
    finally:
        os.close(r)
        os.close(w)
    assert seen == set(cases)
