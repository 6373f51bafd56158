#!/usr/bin/env python3
"""End-to-end demo: synthetic graphs -> labels -> vectorization -> evaluation.

Generates a handful of random road networks with
roadkit.graph.lattice_tree_graph (the generator the tests use), renders
connectivity labels, recovers graphs from the binary masks, and scores the
recovery. Everything lands under --workdir (default: ./demo_out).
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

from roadkit.cli import main as roadkit_main
from roadkit.graph import lattice_tree_graph, serialize_graph

CANVAS = 200


def run(workdir: Path, count: int, seed: int) -> int:
    rng = np.random.default_rng(seed)
    graphs = workdir / "graphs"
    labels = workdir / "labels"
    masks = workdir / "masks"
    recovered = workdir / "recovered"
    for d in (graphs, labels, masks, recovered):
        d.mkdir(parents=True, exist_ok=True)

    for i in range(count):
        g = lattice_tree_graph(rng, CANVAS)
        (graphs / f"net{i:02d}.json").write_text(serialize_graph(g))

    print(f"== labelgen: {count} graphs -> masks + connectivity maps ==")
    rc = roadkit_main(
        ["labelgen", "--input", str(graphs), "--out", str(labels),
         "--width", str(CANVAS), "--height", str(CANVAS)]
    )
    if rc != 0:
        return rc

    # eval pairs by stem, so give the masks the same names as the graphs
    for p in sorted(labels.glob("*_mask.pgm")):
        (masks / p.name.replace("_mask", "")).write_bytes(p.read_bytes())

    print("== vectorize: masks -> recovered graphs ==")
    rc = roadkit_main(["vectorize", "--input", str(masks), "--out", str(recovered)])
    if rc != 0:
        return rc

    print("== eval: recovered graphs vs originals ==")
    report_path = workdir / "report.json"
    rc = roadkit_main(
        ["eval", "--pred", str(recovered), "--gt", str(graphs), "--out", str(report_path)]
    )
    if rc != 0:
        return rc

    report = json.loads(report_path.read_text())
    print(f"mean APLS over {count} networks: {report['means']['apls']:.4f}")
    print(f"full report: {report_path}")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", type=Path, default=Path("demo_out"))
    parser.add_argument("--count", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    raise SystemExit(run(args.workdir, args.count, args.seed))
