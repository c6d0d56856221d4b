import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import siglap as sl
from conftest import CATERPILLAR_TREE, caterpillar_with_chord, random_boundary_cycle_graph
from paper_constructions import edge_blocks
from siglap import cli
from siglap.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


def graph_file(tmp_path, g, name="graph.txt"):
    path = tmp_path / name
    sl.write_graph_file(g, path)
    return str(path)


def test_round_trip_is_exact():
    g = sl.build_graph(4, [(0, 1, 1 / 3), (2, 3, -0.1), (1, 2, 1.25e-7)])
    assert sl.parse_graph(sl.format_graph(g)) == g


def test_parse_comments_and_errors():
    g = sl.parse_graph("# comment\nnodes 2\n0 1 1.5  # inline\n")
    assert g.edges == ((0, 1, 1.5),)
    with pytest.raises(sl.GraphParseError) as err:
        sl.parse_graph("nodes 2\n0 1\n")
    assert err.value.line == 2
    with pytest.raises(sl.GraphParseError) as err:
        sl.parse_graph("nodes 2\n0 1 1.0\n0 1 0.0\n")
    assert err.value.line == 3
    with pytest.raises(sl.GraphParseError):
        sl.parse_graph("2\n0 1 1.0\n")


def test_check_psd_report(tmp_path, capsys):
    path = graph_file(tmp_path, caterpillar_with_chord(-0.1))
    assert main(["check-psd", path]) == 0
    out = capsys.readouterr().out
    assert "PSD (strict interior), sigma=(8,0,1)" in out


def test_check_psd_boundary_and_indefinite(tmp_path, capsys):
    assert main(["check-psd", graph_file(tmp_path, caterpillar_with_chord(-0.25))]) == 0
    assert "PSD (boundary), sigma=(7,0,2)" in capsys.readouterr().out
    assert main(["check-psd", graph_file(tmp_path, caterpillar_with_chord(-0.3))]) == 0
    assert "indefinite, sigma=(7,1,1)" in capsys.readouterr().out


def test_relabelling_keeps_the_verdict_of_a_cycle_whose_weights_span_eight_decades(
        tmp_path, capsys):
    weights = (10.0 ** np.linspace(-4.0, 4.0, 40)).tolist()
    chord = -1.0 / math.fsum(1.0 / w for w in weights)
    for name, label in (("forward.txt", lambda i: i), ("reversed.txt", lambda i: 40 - i)):
        edges = [(label(i), label(i + 1), w) for i, w in enumerate(weights)]
        g = sl.build_graph(41, edges + [(label(0), label(40), chord)])
        assert main(["check-psd", graph_file(tmp_path, g, name)]) == 0
        assert "PSD (boundary), sigma=(39,0,2)" in capsys.readouterr().out


OVERLAPPING_4_CYCLE = (
    "nodes 4\n0 1 1\n1 2 2\n2 3 3\n0 3 4\n0 2 -2.1\n1 3 -1.8\n",
    """indefinite, sigma=(2,1,1)
edge (0,2): |w-| = 2.1  threshold = 2.38095238095  margin = -0.118
edge (1,3): |w-| = 1.8  threshold = 2  margin = -0.1
disjoint_paths = false
corollary6_satisfied = true
""")
SHARED_NODE_TRIANGLES = (
    "nodes 5\n0 2 1\n1 2 1\n2 3 1\n2 4 1\n0 1 -0.3\n3 4 -0.2\n",
    """PSD (strict interior), sigma=(4,0,1)
edge (0,1): |w-| = 0.3  threshold = 0.5  margin = -0.4
edge (3,4): |w-| = 0.2  threshold = 0.5  margin = -0.6
disjoint_paths = true
corollary6_satisfied = true
""")


# A chord at its threshold: the margin is round-off (+2.2e-17 in exact
# arithmetic, 0 computed: R is the series sum 1/2 + 1/5 of two bridges,
# rounded to the double nearest 0.7), and at --tol 0 the verdict follows it.
TRIANGLE_AT_TOL_0 = (
    "nodes 3\n0 1 2\n1 2 5\n0 2 -1.4285714285714286\n",
    """PSD (boundary), sigma=(1,0,2)
edge (0,2): |w-| = 1.42857142857  threshold = 1.42857142857  margin = 0
disjoint_paths = true
corollary6_satisfied = true
""", "0")


@pytest.mark.parametrize("text, report, tol",
                         [(*OVERLAPPING_4_CYCLE, None), (*SHARED_NODE_TRIANGLES, None),
                          TRIANGLE_AT_TOL_0],
                         ids=["overlapping", "disjoint", "boundary-at-tol-0"])
def test_check_psd_bytes(tmp_path, capsys, text, report, tol):
    # interior margins at the default tolerance: boundary margins print
    # round-off, pinned only where the tolerance is 0
    path = tmp_path / "graph.txt"
    path.write_text(text)
    assert main(["check-psd", str(path)] + (["--tol", tol] if tol else [])) == 0
    header = f"# siglap check-psd\n# input: {path}\n# tol: {tol or 'default'}\n"
    assert capsys.readouterr().out == header + report


def test_threshold_report(tmp_path, capsys):
    path = graph_file(tmp_path, caterpillar_with_chord(-0.1))
    assert main(["threshold", path]) == 0
    assert "edge (0,4): max |w-| = 0.25" in capsys.readouterr().out


def test_signature_of_edgeless_graph(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("nodes 4\n")
    assert main(["signature", str(path)]) == 0
    assert "sigma = (0,0,4)" in capsys.readouterr().out


def test_resistance_pairs_and_negative_report(tmp_path, capsys):
    path = graph_file(tmp_path, sl.build_graph(9, CATERPILLAR_TREE))
    assert main(["resistance", path, "--pair", "0", "4"]) == 0
    assert "R(0,4) = 4" in capsys.readouterr().out
    path = graph_file(tmp_path, caterpillar_with_chord(-0.25))
    assert main(["resistance", path]) == 0
    out = capsys.readouterr().out
    assert "edge (0,4): R+ = 4" in out
    assert "R_tot = 4" in out


def test_resistance_pair_on_signed_graph_is_flagged(tmp_path, capsys):
    path = graph_file(tmp_path, caterpillar_with_chord(-0.1))
    assert main(["resistance", path, "--pair", "1", "3"]) == 0
    out = capsys.readouterr().out
    assert "outside the threshold theorems" in out


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("nodes 2\n0 1 oops\n")
    code = main(["signature", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "line 2" in err


@pytest.mark.parametrize("data, line, fault", [
    (b"nodes 2\n0 1 1.0\xff\n", 2, "byte 0xff (invalid start byte)"),
    (b"# caf\xc3\xa9\r\nnodes 2\r0 1 1.0\n\n\xc3(\n", 5,
     "byte 0xc3 (invalid continuation byte)"),
    (b"nodes 2\n0 1 1.0 # \xe2\x82", 2, "byte 0xe2 (unexpected end of data)"),
    (b"\xef\xbb\xbfnodes 2\n0 1 1.0\xff\n", 2, "byte 0xff (invalid start byte)"),
], ids=["start-byte", "continuation-after-crlf-cr-and-blank", "truncated-at-end",
        "start-byte-after-byte-order-mark"])
def test_graph_file_that_is_not_utf8_names_the_line_of_the_first_bad_byte(
        tmp_path, capsys, data, line, fault):
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    with pytest.raises(sl.GraphParseError) as err:
        sl.read_graph_file(path)
    assert err.value.line == line
    assert main(["check-psd", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"siglap check-psd: line {line}: not UTF-8 text: {fault}\n"
    assert captured.out == ""


def test_missing_file_exit_code(tmp_path):
    assert main(["signature", str(tmp_path / "nope.txt")]) == 1


@pytest.mark.parametrize("text", [
    "nodes 3\n0 1 1.0\n1 2 nan\n0 2 -0.2\n",
    "nodes 3\n0 1 1.0\n1 2 -inf\n0 2 1.0\n",
], ids=["nan", "-inf"])
def test_non_finite_weight_exit_code(tmp_path, capsys, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code = main(["check-psd", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n") == 1
    assert "line 3" in err and "non-finite weight" in err


@pytest.mark.parametrize("command, text", [
    ("signature", "nodes 2\n0 1 1e308\n"),
    ("check-psd", "nodes 3\n0 1 1e308\n1 2 1e308\n0 2 -1e308\n"),
], ids=["edge", "triangle"])
def test_weighted_degree_overflow_exit_code(tmp_path, capsys, command, text):
    # Unchecked, the first printed sigma = (0,2,0) with tolerance nan for a
    # PSD Laplacian, and the second died in the eigensolver.
    path = tmp_path / "huge.txt"
    path.write_text(text)
    code = main([command, str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == "" and captured.err.count("\n") == 1
    assert "line 2" in captured.err and "2**1022" in captured.err


@pytest.mark.parametrize("text", [
    "nodes 2\n0 1 1e-320\n0 1 -1e-320\n",
    "nodes 3\n0 1 1e-320\n1 2 1e-320\n0 2 -4e-321\n",
], ids=["two-node", "three-node"])
def test_subnormal_weight_exit_code(tmp_path, capsys, text):
    # Unchecked, the first printed "indefinite ... threshold = 0  margin = inf"
    # for a Laplacian that is exactly PSD, and the second failed with a NaN
    # residual.
    path = tmp_path / "tiny.txt"
    path.write_text(text)
    code = main(["check-psd", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == ("siglap check-psd: line 2: edge 0: weight 1e-320 on (0, 1) "
                            "is below 2**-1022 in magnitude\n")


def test_resistance_above_half_the_largest_double_is_reported(tmp_path, capsys):
    # R = 4 / 2.3e-308 = 1.74e308 is finite, but R + R overflowed when the
    # resistance matrix was symmetrized, which printed threshold 0, margin inf
    path = tmp_path / "path.txt"
    path.write_text("nodes 5\n0 1 2.3e-308\n1 2 2.3e-308\n2 3 2.3e-308\n"
                    "3 4 2.3e-308\n0 4 -1e-300\n")
    assert main(["check-psd", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()[3:]
    assert lines == [
        "indefinite, sigma=(3,1,1)",
        "edge (0,4): |w-| = 1e-300  threshold = 5.75e-309  margin = 173913042.478",
        "disjoint_paths = true",
        "corollary6_satisfied = false",
    ]


def test_margin_beyond_the_double_range_exit_code(tmp_path, capsys):
    # R(0,2) = 2**1023 and |w| = 1e300: the margin |w| R - 1 overflows
    path = tmp_path / "wide.txt"
    path.write_text("nodes 3\n0 1 2.2250738585072014e-308\n1 2 2.2250738585072014e-308\n"
                    "0 2 -1e300\n")
    code = main(["check-psd", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == "" and captured.err.count("\n") == 1
    assert "not finite" in captured.err


@pytest.mark.parametrize("command", ["resistance", "threshold", "check-psd"])
def test_total_resistance_beyond_the_double_range_exit_code(tmp_path, capsys, command):
    # each R(0,3) = 3 * 2**1022 is finite, but their sum R_tot is not
    path = tmp_path / "wide.txt"
    tiny = "2.2250738585072014e-308"
    path.write_text(f"nodes 4\n0 1 {tiny}\n1 2 {tiny}\n2 3 {tiny}\n0 3 -1\n0 3 -1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning may leak either
        code = main([command, str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == "" and captured.err.count("\n") == 1
    assert "not finite" in captured.err


@pytest.mark.parametrize("command", ["check-psd", "signature"])
def test_out_of_memory_exit_code(tmp_path, command):
    # a 'nodes N' header whose per-node arrays cannot be allocated under an
    # address-space limit set on the child process alone
    resource = pytest.importorskip("resource")
    path = tmp_path / "huge.txt"
    path.write_text("nodes 1000000000\n0 1 1\n")
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = 3 * 10**9 if hard == resource.RLIM_INFINITY else min(3 * 10**9, hard)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "siglap.cli", command, str(path)],
                          capture_output=True, env=env, timeout=120,
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                                (limit, limit)))
    assert done.returncode == 1, done.stderr
    assert done.stdout == b""
    assert done.stderr.startswith(f"siglap {command}: ".encode())
    assert done.stderr.count(b"\n") == 1 and b"Traceback" not in done.stderr


@pytest.mark.parametrize("count", [2**70, 2**63 - 1, 2**60])
def test_a_node_count_numpy_cannot_address_names_the_header_line(tmp_path, capsys, count):
    # one double per node must be addressable; a larger count is refused at
    # its header line before any array is made, not in numpy's bincount
    path = tmp_path / "huge.txt"
    path.write_text(f"# a huge graph\nnodes {count}\n0 1 1.0\n")
    with pytest.raises(sl.GraphParseError) as err:
        sl.read_graph_file(path)
    assert err.value.line == 2
    assert main(["check-psd", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"siglap check-psd: line 2: node count must be <= "
                            f"{2**60 - 1}, got {count}\n")
    assert captured.out == ""


README_GRAPH = """# comments start with '#'
nodes 9
0 1 1.0
1 2 1.0
2 3 1.0
3 4 1.0
0 5 1.0
1 6 1.0
3 7 1.0
4 8 1.0
0 4 -0.25
"""


def test_graph_file_with_a_byte_order_mark_reads_as_without(tmp_path, capsys):
    reports = []
    for name, data in (("graph.txt", README_GRAPH.encode()),
                       ("graph-bom.txt", b"\xef\xbb\xbf" + README_GRAPH.encode())):
        path = tmp_path / name
        path.write_bytes(data)
        assert sl.read_graph_file(path) == sl.parse_graph(README_GRAPH)
        assert main(["check-psd", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        reports.append(captured.out.replace(f"# input: {path}\n", ""))
    assert reports[0] == reports[1]
    assert "PSD (boundary), sigma=(7,0,2)" in reports[0]


def test_a_file_descriptor_is_not_a_graph_file_path(tmp_path):
    # open() would read or write a descriptor given as an int, and close it
    g = sl.parse_graph(README_GRAPH)
    message = "a graph file path must be a str or os.PathLike, got {}"
    r, w = os.pipe()
    with os.fdopen(r, encoding="utf-8") as reader, os.fdopen(w, "w", encoding="utf-8") as writer:
        writer.write(README_GRAPH)
        writer.flush()
        for call in (lambda: sl.read_graph_file(r), lambda: sl.write_graph_file(g, w)):
            with pytest.raises(sl.InvalidParameterError) as err:
                call()
            assert str(err.value) == message.format("int")
        os.fstat(w)
        writer.close()
        assert reader.read() == README_GRAPH
    with pytest.raises(sl.InvalidParameterError) as err:
        sl.read_graph_file(graph_file(tmp_path, g).encode())
    assert str(err.value) == message.format("bytes")
    # True is descriptor 1: a child process keeps its stdout only if refused
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    script = ("import siglap as sl\ntry:\n    sl.read_graph_file(True)\n"
              "except sl.InvalidParameterError as exc:\n    print(exc)\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == (message.format("bool") + "\n").encode()


def test_a_failed_write_keeps_the_file(tmp_path):
    # the graph is formatted before the file is opened, which would empty it
    path = tmp_path / "graph.txt"
    path.write_text(README_GRAPH)
    for graph in (None, 5, sl.parse_graph(README_GRAPH).edges):
        with pytest.raises(sl.InvalidParameterError):
            sl.write_graph_file(graph, path)
        assert path.read_text() == README_GRAPH


def test_check_psd_process_on_the_readme_graph(tmp_path):
    # the whole process: interpreter start, the module's entry point, exit
    # status and stdout bytes
    path = tmp_path / "graph.txt"
    path.write_text(README_GRAPH)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "siglap.cli", "check-psd", str(path)],
                          capture_output=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == b""
    assert done.stdout == (
        f"# siglap check-psd\n# input: {path}\n# tol: default\n"
        "PSD (boundary), sigma=(7,0,2)\n"
        "edge (0,4): |w-| = 0.25  threshold = 0.25  margin = 0\n"
        "disjoint_paths = true\n"
        "corollary6_satisfied = true\n"
    ).encode()


def test_readme_library_example_runs(tmp_path, monkeypatch):
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    graph = re.search(r"## Graph file format\n\n```\n(.*?)```", readme, re.S).group(1)
    example = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    assert graph == README_GRAPH
    (tmp_path / "graph.txt").write_text(graph)
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(example, "README.md", "exec"), namespace)
    assert namespace["verdict"].classification is sl.Classification.BOUNDARY
    assert isinstance(namespace["clusters"], sl.ClusterAssignment)


def test_no_production_route_reads_the_edge_tuple(tmp_path, monkeypatch):
    # the edge tuple is a view for printing and for tests; every route reads
    # the columns
    def forbidden(self):
        raise AssertionError("SignedGraph.edges was read")

    monkeypatch.setattr(sl.SignedGraph, "edges", property(forbidden))
    readme = sl.build_graph(9, CATERPILLAR_TREE + [(0, 4, -0.25)])
    with pytest.raises(AssertionError):
        readme.edges
    for g in (readme, random_boundary_cycle_graph(np.random.default_rng(5))):
        sl.multi_edge_verdict(g)
        sl.corollary6_check(g)
        sl.negative_edge_report(g)
        sl.effective_resistance(g.positive_subgraph(), 0, 1)
        sl.effective_resistance(g, 0, 1)
        edge_blocks(g)
        sl.component_labels(g)
        sl.simulate(g, np.linspace(0.0, 1.0, g.node_count), t_final=1.0)
        sl.predict_clusters(g)
    path = tmp_path / "graph.txt"
    path.write_text(README_GRAPH)
    assert main(["check-psd", str(path), "--out", str(tmp_path / "report.txt")]) == 0


@pytest.mark.parametrize("pair", [("1", "2"), ("1", "1")], ids=["out-of-range", "same-node"])
def test_resistance_invalid_pair_exit_code(tmp_path, capsys, pair):
    path = graph_file(tmp_path, sl.build_graph(2, [(0, 1, 1.0)]))
    assert main(["resistance", path, "--pair", "0", "1", "--pair", *pair]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("siglap resistance: ")


@pytest.mark.parametrize("command, option", [
    ("signature", "--out"), ("resistance", "--out"), ("threshold", "--out"),
    ("check-psd", "--out"), ("simulate", "--out"), ("predict-clusters", "--out"),
    ("simulate", "--clusters-out"),
])
def test_unwritable_output_exit_code(tmp_path, capsys, command, option):
    path = graph_file(tmp_path, caterpillar_with_chord(-0.25))
    code = main([command, path, option, str(tmp_path / "missing" / "report.txt")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith(f"siglap {command}: ")
    assert "Traceback" not in captured.err


def test_parser_is_built_once_and_keeps_no_state_between_calls(tmp_path, capsys):
    path = graph_file(tmp_path, sl.build_graph(9, CATERPILLAR_TREE))
    cli._build_parser.cache_clear()
    assert main(["resistance", path, "--pair", "0", "4"]) == 0
    assert "R(0,4) = 4" in capsys.readouterr().out
    assert main(["resistance", path, "--pair", "2", "8"]) == 0
    out = capsys.readouterr().out
    assert "R(2,8) = 3" in out and "R(0,4)" not in out
    assert cli._build_parser.cache_info().misses == 1


def test_negative_tolerance_exit_code(tmp_path, capsys):
    path = graph_file(tmp_path, caterpillar_with_chord(-0.1))
    assert main(["check-psd", path, "--tol", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "tolerance" in err


@pytest.mark.parametrize("command, flag, value, message", [
    ("simulate", "--step", "-1e-3", "step must be finite and positive, got -0.001"),
    ("simulate", "--t-final", "-1e3", "t_final must be finite and positive, got -1000.0"),
    ("simulate", "--cluster-tol", "-1E-9", "cluster tolerance must be >= 0, got -1e-09"),
    ("check-psd", "--tol", "-inf", "zero tolerance must be >= 0, got -inf"),
    ("signature", "--tol", "-1e-3", "zero tolerance must be >= 0, got -0.001"),
])
def test_a_negative_float_flag_value_in_exponent_or_word_form_reaches_its_check(
        tmp_path, capsys, command, flag, value, message):
    # argparse alone would take these values for options and exit 2
    path = graph_file(tmp_path, caterpillar_with_chord(-0.25))
    assert main([command, path, flag, value]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"siglap {command}: {message}\n")


def argparse_refusal(capsys, argv) -> str:
    """The stderr of ``main(argv)``, once checked to be argparse's refusal:
    exit 2 with a usage line first."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: siglap")
    return err


@pytest.mark.parametrize("argv", [
    ["check-psd", "{path}", "--tol", "-x"],  # not a number: still argparse's
    ["simulate", "{path}", "--seed", "-1e3"],  # not a float flag
    ["check-psd", "{path}", "--", "--tol", "-1e-3"],  # after --, not a flag
])
def test_other_option_like_values_are_still_refused_by_argparse(tmp_path, capsys, argv):
    path = graph_file(tmp_path, caterpillar_with_chord(-0.25))
    argparse_refusal(capsys, [arg.format(path=path) for arg in argv])


@pytest.mark.parametrize("command", [
    "signature", "resistance", "threshold", "simulate", "predict-clusters",
])
@pytest.mark.parametrize("tol", ["-1", "nan"])
def test_invalid_tolerance_rejected_by_every_command(tmp_path, capsys, command, tol):
    path = graph_file(tmp_path, caterpillar_with_chord(-0.25))
    out = tmp_path / "report.txt"
    argv = [command, path, "--tol", tol, "--out", str(out)]
    if command == "signature":  # the others do not take --tol
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        assert "tolerance" in captured.err
        assert captured.out == ""
    else:
        assert "unrecognized arguments: --tol" in argparse_refusal(capsys, argv)
    assert not out.exists()


COMMANDS = ["signature", "resistance", "threshold", "check-psd", "simulate", "predict-clusters"]
HOSTILE_FLAGS = [
    *(["--tol", value] for value in ["nan", "inf", "-inf", "1e400", "-0", "x", "", "0x1p3"]),
    *(["--t-final", value] for value in ["nan", "inf", "-1", "0", "1e-300", "1e400", "x"]),
    *(["--step", value] for value in ["0", "-1e-3", "nan", "inf", "1e-300", "1e400", "x"]),
    *(["--seed", value] for value in ["-1", "1.5", "x", str(2**70), "-0", "١"]),
    *(["--cluster-tol", value] for value in ["nan", "-1", "inf", "1e400", "x"]),
    *(["--pair", *pair] for pair in [("0", "0"), ("0", "99"), ("-1", "2"), ("a", "b"),
                                     ("0", str(2**70)), ("1.5", "2"), ("0",)]),
]


def test_hostile_arguments_exit_cleanly(tmp_path, capsys):
    # every run either answers (exit 0) or refuses in one stderr line (exit
    # 1), or argparse refuses the flag (exit 2, a usage line first)
    graph = tmp_path / "graph.txt"
    graph.write_text(README_GRAPH)
    (tmp_path / "empty.txt").write_text("")
    runs = [[command, str(graph), *flag] for command in COMMANDS for flag in HOSTILE_FLAGS]
    runs += [[command, source] for command in COMMANDS
             for source in (str(tmp_path), str(tmp_path / "empty.txt"), os.devnull)]
    for argv in runs:
        try:
            code = main(argv + ["--out", str(tmp_path / "out.txt")])
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert captured.out == "", argv
        if code == 2:
            assert captured.err.startswith("usage: siglap"), (argv, captured.err)
        else:
            assert code in (0, 1), (argv, code)
            assert captured.err.count("\n") == (code == 1), (argv, captured.err)
            assert "Traceback" not in captured.err, argv


def test_hypothesis_violation_exit_code(tmp_path, capsys):
    path = graph_file(tmp_path, sl.build_graph(9, CATERPILLAR_TREE))
    code = main(["predict-clusters", path])
    err = capsys.readouterr().err
    assert code == 2
    assert "negative" in err


# G+ is the two edges 0-1 and 2-3; the chord joins them in G, or is parallel
# to 2-3 and leaves G disconnected too.
@pytest.mark.parametrize("chord", ["1 2 -0.5", "2 3 -0.5"], ids=["joined", "parallel"])
@pytest.mark.parametrize("command", ["check-psd", "threshold", "resistance"])
def test_disconnected_positive_subgraph_bytes(tmp_path, capsys, command, chord):
    path = tmp_path / "graph.txt"
    path.write_text(f"nodes 4\n0 1 1.0\n2 3 1.0\n{chord}\n")
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"siglap {command}: hypothesis violated: "
                            "positive subgraph is disconnected\n")


def test_threshold_without_negative_edges_is_hypothesis_violation(tmp_path):
    path = graph_file(tmp_path, sl.build_graph(9, CATERPILLAR_TREE))
    assert main(["threshold", path]) == 2


def test_resistance_without_negative_edges_on_a_disconnected_graph(tmp_path, capsys):
    path = graph_file(tmp_path, sl.build_graph(3, [(0, 1, 1.0)]))
    assert main(["resistance", path]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "R_tot = 0"


def test_threshold_without_negative_edges_on_a_disconnected_graph(tmp_path, capsys):
    path = graph_file(tmp_path, sl.build_graph(3, [(0, 1, 1.0)]))
    assert main(["threshold", path]) == 2
    err = capsys.readouterr().err
    assert "at least one negative edge required" in err
    assert "disconnected" not in err


def test_predict_clusters_report(tmp_path, capsys):
    path = graph_file(tmp_path, caterpillar_with_chord(-0.25))
    assert main(["predict-clusters", path]) == 0
    out = capsys.readouterr().out
    assert "q = 5" in out
    assert "node,cluster,null_vector" in out


def test_simulate_csv_and_clusters(tmp_path):
    path = graph_file(tmp_path, caterpillar_with_chord(-0.25))
    csv_path = tmp_path / "traj.csv"
    clusters_path = tmp_path / "clusters.txt"
    code = main(["simulate", path, "--seed", "0", "--out", str(csv_path),
                 "--clusters-out", str(clusters_path)])
    assert code == 0
    lines = csv_path.read_text().splitlines()
    header = [ln for ln in lines if ln.startswith("#")]
    assert any("seed: 0" in ln for ln in header)
    assert any("clusters: 5" in ln for ln in header)
    data = [ln for ln in lines if not ln.startswith("#")]
    assert data[0] == "t," + ",".join(f"x{i}" for i in range(9))
    assert data[1].startswith("0,")
    assert len(data[1].split(",")) == 10
    cluster_lines = [ln for ln in clusters_path.read_text().splitlines()
                     if not ln.startswith("#")]
    assert cluster_lines[0] == "node,cluster,value"
    assert len(cluster_lines) == 10


def test_simulate_deterministic_bytes(tmp_path):
    path = graph_file(tmp_path, caterpillar_with_chord(-0.1))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", path, "--seed", "7", "--t-final", "2.0",
                 "--out", str(out1)]) == 0
    assert main(["simulate", path, "--seed", "7", "--t-final", "2.0",
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_with_x0_file(tmp_path):
    path = graph_file(tmp_path, caterpillar_with_chord(-0.25))
    x0_path = tmp_path / "x0.txt"
    x0_path.write_text("".join(f"{v}\n" for v in np.linspace(0.0, 1.0, 9)))
    out = tmp_path / "traj.csv"
    assert main(["simulate", path, "--x0", str(x0_path), "--out", str(out)]) == 0
    assert f"x0: {x0_path}" in out.read_text()


def test_x0_file_with_a_byte_order_mark_reads_as_without(tmp_path, capsys):
    # As some Windows editors save UTF-8: the mark is not part of line 1.
    path = graph_file(tmp_path, caterpillar_with_chord(-0.25))
    text = "".join(f"{v}\n" for v in np.linspace(0.0, 1.0, 9))
    reports = []
    for name, data in (("x0.txt", text.encode()), ("x0-bom.txt", b"\xef\xbb\xbf" + text.encode())):
        x0_path = tmp_path / name
        x0_path.write_bytes(data)
        assert main(["simulate", path, "--x0", str(x0_path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        reports.append(captured.out.replace(f"# x0: {x0_path}\n", ""))
    assert reports[0] == reports[1]


def test_simulate_with_wrong_x0_length(tmp_path):
    path = graph_file(tmp_path, caterpillar_with_chord(-0.25))
    x0_path = tmp_path / "x0.txt"
    x0_path.write_text("1.0\n2.0\n")
    assert main(["simulate", path, "--x0", str(x0_path)]) == 1


def test_wrong_x0_length_names_the_x0_file(tmp_path, capsys):
    path = graph_file(tmp_path, caterpillar_with_chord(-0.25))
    x0_path = tmp_path / "x0.txt"
    x0_path.write_text("# two values for nine nodes\n1.0\n\n2.0\n")
    code = main(["simulate", path, "--x0", str(x0_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"siglap simulate: x0 file {x0_path}: expected 9 values, got 2\n"
    assert captured.out == ""


@pytest.mark.parametrize("value, fault", [
    ("zz", "bad x0 value"), ("nan", "non-finite x0 value"), ("inf", "non-finite x0 value"),
    ("-Infinity", "non-finite x0 value"), ("1e400", "non-finite x0 value"),
], ids=["text", "nan", "inf", "-inf", "beyond-doubles"])
def test_bad_x0_value_names_the_x0_file(tmp_path, capsys, value, fault):
    path = graph_file(tmp_path, caterpillar_with_chord(-0.25))
    x0_path = tmp_path / "x0.txt"
    x0_path.write_text(f"1.0\n{value}\n")
    code = main(["simulate", path, "--x0", str(x0_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"siglap simulate: x0 file {x0_path}: line 2: {fault}: {value!r}\n"
    assert captured.out == ""


def test_x0_file_that_is_not_utf8_names_the_file_and_the_line(tmp_path, capsys):
    path = graph_file(tmp_path, caterpillar_with_chord(-0.25))
    x0_path = tmp_path / "x0.txt"
    x0_path.write_bytes(b"# initial state\n0.5\n\xff0.5\n")
    code = main(["simulate", path, "--x0", str(x0_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == (f"siglap simulate: x0 file {x0_path}: line 3: "
                            f"not UTF-8 text: byte 0xff (invalid start byte)\n")
    assert captured.out == ""


def test_negative_seed_is_refused_unless_x0_is_given(tmp_path, capsys):
    path = graph_file(tmp_path, caterpillar_with_chord(-0.25))
    code = main(["simulate", path, "--seed", "-1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "siglap simulate: --seed must be >= 0, got -1\n"
    assert captured.out == ""
    x0_path = tmp_path / "x0.txt"
    x0_path.write_text("0.5\n" * 9)
    out = tmp_path / "traj.csv"
    assert main(["simulate", path, "--seed", "-1", "--x0", str(x0_path), "--t-final", "1.0",
                 "--out", str(out)]) == 0
    assert f"# x0: {x0_path}" in out.read_text()


@pytest.mark.parametrize("args", [
    ["--step", "0"], ["--step", "1e-12"], ["--t-final", "nan"], ["--t-final", "inf"],
    ["--cluster-tol", "-1"], ["--x0", "nan"],
], ids=["step-0", "step-1e-12", "t-final-nan", "t-final-inf", "cluster-tol-neg", "x0-nan"])
def test_simulate_rejects_bad_parameters(tmp_path, capsys, args):
    path = graph_file(tmp_path, caterpillar_with_chord(-0.25))
    if args[0] == "--x0":
        x0_path = tmp_path / "x0.txt"
        x0_path.write_text("0.5\n" * 8 + "nan\n")
        args = ["--x0", str(x0_path)]
    out, clusters = tmp_path / "traj.csv", tmp_path / "clusters.txt"
    code = main(["simulate", path, *args, "--out", str(out), "--clusters-out", str(clusters)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists() and not clusters.exists()


def test_simulate_reports_overflowing_run_as_diverged(tmp_path):
    path = tmp_path / "tri.txt"
    path.write_text("nodes 3\n0 1 1.0\n1 2 1.0\n0 2 -5.0\n")
    out = tmp_path / "traj.csv"
    assert main(["simulate", str(path), "--t-final", "300", "--out", str(out)]) == 0
    assert "# diverged: true" in out.read_text().splitlines()


def test_report_determinism(tmp_path):
    path = graph_file(tmp_path, caterpillar_with_chord(-0.25))
    out1, out2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
    assert main(["check-psd", path, "--out", str(out1)]) == 0
    assert main(["check-psd", path, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_tolerance_echoed(tmp_path, capsys):
    path = graph_file(tmp_path, caterpillar_with_chord(-0.25))
    assert main(["signature", path, "--tol", "1e-9"]) == 0
    out = capsys.readouterr().out
    assert "# tol: 1e-09" in out
    assert "tolerance_used = 1e-09" in out


def test_simulate_reports_slowly_growing_indefinite_run_as_diverged(tmp_path):
    path = graph_file(tmp_path, caterpillar_with_chord(-0.5))
    out = tmp_path / "traj.csv"
    assert main(["simulate", path, "--seed", "0", "--out", str(out)]) == 0
    head = out.read_text().splitlines()[:6]
    assert "# diverged: true" in head
    assert not any(line.startswith("# clusters:") for line in head)


def test_check_psd_all_positive_counts_components(tmp_path, capsys):
    # two components, 5 nodes: one zero eigenvalue each, whatever --tol says
    g = sl.build_graph(5, [(0, 1, 1.0), (1, 2, 1e-8), (3, 4, 2.0)])
    path = graph_file(tmp_path, g)
    for tol in ([], ["--tol", "1.0"]):
        assert main(["check-psd", path, *tol]) == 0
        assert "PSD (strict interior), sigma=(3,0,2)" in capsys.readouterr().out


def test_check_psd_classifies_margins_with_the_user_tolerance(tmp_path, capsys):
    # margin 0.2 lies within --tol 0.5, and so does eig(T) = -0.2
    path = graph_file(tmp_path, caterpillar_with_chord(-0.3))
    assert main(["check-psd", path, "--tol", "0.5"]) == 0
    captured = capsys.readouterr()
    assert "PSD (boundary), sigma=(7,0,2)" in captured.out
    assert captured.err == ""
    assert main(["check-psd", path, "--tol", "0.1"]) == 0
    assert "indefinite, sigma=(7,1,1)" in capsys.readouterr().out


@pytest.mark.parametrize("command,echoed", [
    ("signature", True), ("check-psd", True), ("resistance", False),
    ("threshold", False), ("simulate", False), ("predict-clusters", False),
])
def test_tolerance_echoed_only_where_it_is_used(tmp_path, capsys, command, echoed):
    path = graph_file(tmp_path, caterpillar_with_chord(-0.25))
    out = tmp_path / "report.txt"
    argv = [command, path, "--tol", "5", "--out", str(out)]
    if echoed:
        assert main(argv) == 0
    else:
        # a command that does not use --tol does not take it
        err = argparse_refusal(capsys, argv)
        assert "unrecognized arguments: --tol 5" in err
        assert main(argv[:2] + argv[4:]) == 0
    tol_lines = [line for line in out.read_text().splitlines() if line.startswith("# tol:")]
    assert tol_lines == (["# tol: 5"] if echoed else [])
