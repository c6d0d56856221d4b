import numpy as np
import pytest

import siglap as sl
from conftest import CATERPILLAR_TREE, caterpillar_with_chord
from siglap.cli import main


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


def test_negative_tolerance_exit_code(tmp_path, capsys):
    path = graph_file(tmp_path, caterpillar_with_chord(-0.1))
    assert main(["check-psd", path, "--tol", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "tolerance" in err


@pytest.mark.parametrize("command", [
    "signature", "resistance", "threshold", "simulate", "predict-clusters",
])
@pytest.mark.parametrize("tol", ["-1", "nan"])
def test_invalid_tolerance_rejected_by_every_command(tmp_path, capsys, command, tol):
    path = graph_file(tmp_path, caterpillar_with_chord(-0.25))
    out = tmp_path / "report.txt"
    assert main([command, path, "--tol", tol, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    assert "tolerance" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_hypothesis_violation_exit_code(tmp_path, capsys):
    path = graph_file(tmp_path, sl.build_graph(9, CATERPILLAR_TREE))
    code = main(["predict-clusters", path])
    err = capsys.readouterr().err
    assert code == 2
    assert "negative" in err


def test_threshold_without_negative_edges_is_hypothesis_violation(tmp_path):
    path = graph_file(tmp_path, sl.build_graph(9, CATERPILLAR_TREE))
    assert main(["threshold", path]) == 2


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


def test_simulate_with_wrong_x0_length(tmp_path):
    path = graph_file(tmp_path, caterpillar_with_chord(-0.25))
    x0_path = tmp_path / "x0.txt"
    x0_path.write_text("1.0\n2.0\n")
    assert main(["simulate", path, "--x0", str(x0_path)]) == 1


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
