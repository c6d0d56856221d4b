"""Command-line front end: edge-list files in, deterministic text reports out.

Exit codes: 0 success, 1 I/O, parse, numerical or out-of-memory errors, 2
theorem-hypothesis violations (the message names the failed precondition), so
scripted sweeps can bin outcomes.  All floating-point output is fixed at 12
significant digits.  Every run echoes the settings its answer depends on:
``--tol`` for ``signature`` and ``check-psd``, the seed and simulation
settings for ``simulate``.  Every command validates ``--tol``, but the others
ignore it.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import consensus, definiteness, resistance, spectra
from .errors import DisconnectedError, HypothesisViolatedError, InvalidParameterError, SiglapError
from .graph_core import SignedGraph, component_labels
from .graphfile import _content_lines, read_graph_file
from .laplacians import laplacian_matrix

_HYPOTHESIS_ERRORS = (HypothesisViolatedError, DisconnectedError)
_NUM = "%.12g"  # every printed number: 12 significant digits


def _fmt(x: float) -> str:
    return _NUM % float(x)


def _sigma_str(sig: spectra.Signature) -> str:
    return f"({sig.n_plus},{sig.n_minus},{sig.n_zero})"


# A handler's outputs: (path, lines) pairs, path None for stdout.
_Outputs = list[tuple[str | None, list[str]]]


def _header(args: argparse.Namespace, extra: list[str] | None = None) -> list[str]:
    lines = [f"# siglap {args.command}", f"# input: {args.graph}"]
    if args.echo_tol:
        lines.append(f"# tol: {'default' if args.tol is None else _fmt(args.tol)}")
    if extra:
        lines.extend(extra)
    return lines


def _load_x0(args: argparse.Namespace, g: SignedGraph) -> tuple[np.ndarray, list[str]]:
    if args.x0 is not None:
        values = []
        with open(args.x0, "r", encoding="utf-8") as fh:
            for lineno, line in _content_lines(fh):
                try:
                    values.append(float(line))
                except ValueError:
                    raise InvalidParameterError(
                        f"x0 file {args.x0}: line {lineno}: bad x0 value: {line!r}"
                    ) from None
        if len(values) != g.node_count:
            raise InvalidParameterError(
                f"x0 file {args.x0}: expected {g.node_count} values, got {len(values)}")
        return np.array(values), [f"# x0: {args.x0}"]
    rng = np.random.default_rng(args.seed)
    return rng.uniform(0.0, 1.0, g.node_count), [f"# seed: {args.seed}"]


def _cmd_signature(args: argparse.Namespace, g: SignedGraph) -> _Outputs:
    sig = spectra.signature(laplacian_matrix(g), args.tol)
    lines = _header(args)
    lines.append(f"sigma = {_sigma_str(sig)}")
    lines.append(f"tolerance_used = {_fmt(sig.tolerance_used)}")
    lines.append(f"near_singular = {'true' if sig.near_singular else 'false'}")
    return [(args.out, lines)]


def _cmd_resistance(args: argparse.Namespace, g: SignedGraph) -> _Outputs:
    lines = _header(args)
    if args.pair:
        if g.negative_edge_indices():
            lines.append("# note: graph has negative weights; resistance values "
                         "fall outside the threshold theorems")
        values = resistance._pair_resistances(g, args.pair)
        lines += [f"R({u},{v}) = {_fmt(r)}" for (u, v), r in zip(args.pair, values)]
    else:
        report = resistance.negative_edge_report(g)
        for u, v, r in report.pairs:
            lines.append(f"edge ({u},{v}): R+ = {_fmt(r)}")
        lines.append(f"R_tot = {_fmt(report.r_tot)}")
    return [(args.out, lines)]


def _cmd_threshold(args: argparse.Namespace, g: SignedGraph) -> _Outputs:
    report = resistance.negative_edge_report(g)
    if not report.pairs:
        raise HypothesisViolatedError(["at least one negative edge required"])
    lines = _header(args)
    for u, v, r in report.pairs:
        lines.append(f"edge ({u},{v}): max |w-| = {_fmt(1.0 / r)}")
    return [(args.out, lines)]


def _cmd_check_psd(args: argparse.Namespace, g: SignedGraph) -> _Outputs:
    neg = g.negative_edge_indices()
    lines = _header(args)
    if not neg:
        # PSD by construction, with one zero eigenvalue per component.
        c = int(component_labels(g).max()) + 1
        lines.append(f"PSD (strict interior), sigma=({g.node_count - c},0,{c})")
        lines.append("# all weights positive; Laplacian is PSD by construction")
        return [(args.out, lines)]
    verdict = definiteness.multi_edge_verdict(g, args.tol)
    label = {
        definiteness.Classification.STRICT_INTERIOR: "PSD (strict interior)",
        definiteness.Classification.BOUNDARY: "PSD (boundary)",
        definiteness.Classification.INDEFINITE: "indefinite",
    }[verdict.classification]
    lines.append(f"{label}, sigma={_sigma_str(verdict.sigma)}")
    for item in verdict.per_edge:
        u, v = item.edge
        lines.append(
            f"edge ({u},{v}): |w-| = {_fmt(item.magnitude)}  "
            f"threshold = {_fmt(item.threshold)}  margin = {_fmt(item.margin)}"
        )
    lines.append(
        "disjoint_paths = "
        + ("true" if verdict.disjointness_hypothesis_holds else "false")
    )
    lines.append(
        "corollary6_satisfied = " + ("true" if verdict.corollary6_satisfied else "false")
    )
    if verdict.sigma.near_singular:
        lines.append("near_singular = true")
    return [(args.out, lines)]


def _cmd_simulate(args: argparse.Namespace, g: SignedGraph) -> _Outputs:
    x0, source_lines = _load_x0(args, g)
    traj = consensus.simulate(
        g, x0, t_final=args.t_final, step=args.step, cluster_tol=args.cluster_tol
    )
    head = _header(args, source_lines)
    head.append(
        f"# t_final: {_fmt(args.t_final)}  step: {_fmt(args.step)}  "
        f"cluster_tol: {_fmt(args.cluster_tol)}"
    )
    if traj.diverged:
        head.append("# diverged: true")
    else:
        head.append(f"# clusters: {traj.final_clusters.cluster_count}")
    csv_lines = head + ["t," + ",".join(f"x{i}" for i in range(g.node_count))]
    row = ",".join([_NUM] * (g.node_count + 1))
    csv_lines += [row % tuple(x) for x in np.column_stack([traj.times, traj.states]).tolist()]

    cluster_lines = list(head)
    cluster_lines.append("node,cluster,value")
    if traj.final_clusters is not None:
        fc = traj.final_clusters
        for node in range(g.node_count):
            cid = fc.labels[node]
            cluster_lines.append(f"{node},{cid},{_fmt(fc.values[cid])}")
    outputs = [(args.out, csv_lines)]
    if args.clusters_out is not None:
        outputs.append((args.clusters_out, cluster_lines))
    return outputs


def _cmd_predict_clusters(args: argparse.Namespace, g: SignedGraph) -> _Outputs:
    prediction = consensus.predict_clusters(g)
    lines = _header(args)
    lines.append(f"q = {prediction.q}")
    lines.append("node,cluster,null_vector")
    for node in range(g.node_count):
        lines.append(
            f"{node},{prediction.component_map[node]},{_fmt(prediction.null_vector[node])}"
        )
    return [(args.out, lines)]


def run(args: argparse.Namespace) -> int:
    """Execute one command; returns the process exit status."""
    try:
        spectra._check_tolerance(args.tol)
        g = read_graph_file(args.graph)
        # Files first and stdout last, so a failed write leaves stdout empty.
        for path, lines in sorted(args.handler(args, g), key=lambda out: out[0] is None):
            text = "\n".join(lines) + "\n"
            if path is None:
                sys.stdout.write(text)
            else:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
    except _HYPOTHESIS_ERRORS as exc:
        sys.stderr.write(f"siglap {args.command}: hypothesis violated: {exc}\n")
        return 2
    except (OSError, MemoryError, SiglapError) as exc:  # MemoryError: a huge 'nodes N'
        sys.stderr.write(f"siglap {args.command}: {str(exc) or type(exc).__name__}\n")
        return 1
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="siglap",
        description="Definiteness analysis of weighted graph Laplacians "
                    "with negative edge weights",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, handler, summary, echo_tol=False) -> argparse.ArgumentParser:
        """One subcommand; only the commands whose answer depends on --tol echo it."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler, echo_tol=echo_tol)
        p.add_argument("graph", help="edge-list graph file")
        p.add_argument("--out", default=None, help="write the report here instead of stdout")
        p.add_argument("--tol", type=float, default=None,
                       help="zero tolerance (>= 0) for eigenvalue counts, used by "
                            "signature and check-psd only: signature tests the spectrum "
                            "of L (default dim*eps*max|eig|), check-psd tests eig(T), "
                            "T = I - D^1/2 R D^1/2 over the negative edges, whose "
                            "diagonal is minus the printed margins "
                            f"(default {definiteness.BOUNDARY_RTOL:g})")
        return p

    add_command("signature", _cmd_signature, "signature of the weighted Laplacian",
                echo_tol=True)

    p = add_command("resistance", _cmd_resistance,
                    "effective resistances over the positive subgraph")
    p.add_argument("--pair", nargs=2, type=int, action="append", metavar=("U", "V"),
                   default=None, help="resistance for this node pair (repeatable)")

    add_command("threshold", _cmd_threshold, "admissible negative magnitude per edge")
    add_command("check-psd", _cmd_check_psd, "semidefiniteness verdict", echo_tol=True)

    p = add_command("simulate", _cmd_simulate, "integrate the consensus protocol")
    p.add_argument("--t-final", type=float, default=consensus.DEFAULT_T_FINAL)
    p.add_argument("--step", type=float, default=consensus.DEFAULT_STEP)
    p.add_argument("--cluster-tol", type=float, default=consensus.DEFAULT_CLUSTER_TOL)
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the random initial state (ignored with --x0)")
    p.add_argument("--x0", default=None, help="file with one initial value per line")
    p.add_argument("--clusters-out", default=None,
                   help="also write the detected-cluster report here")

    add_command("predict-clusters", _cmd_predict_clusters,
                "predicted boundary clustering (single-cycle case)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
