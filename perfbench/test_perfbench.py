"""Self-tests of the benchmark harness: python3 -m pytest perfbench -q"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_inputs_depend_only_on_the_seed(tmp_path, workload):
    gen.make_inputs(workload, 3, tmp_path / "a")
    gen.make_inputs(workload, 3, tmp_path / "b")
    gen.make_inputs(workload, 4, tmp_path / "c")
    assert _digest(tmp_path / "a") == _digest(tmp_path / "b")
    assert _digest(tmp_path / "a") != _digest(tmp_path / "c")


def _roadkit(argv: list[str]) -> int:
    from roadkit import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def test_checker_rejects_a_labelgen_pgm_with_one_pixel_flipped(tmp_path):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps(gen.lattice_graph(np.random.default_rng(1), canvas=160)))
    assert _roadkit(["labelgen", "--input", str(graph), "--out", str(tmp_path), "--width", "160", "--height", "160"]) == 0
    mask, conn = tmp_path / "g_mask.pgm", tmp_path / "g_conn.pgm"
    assert check.check_labelgen(graph, mask, conn, gen.THETA, gen.LAM) == []

    raw = bytearray(mask.read_bytes())
    raw[-160 * 80 - 37] ^= 0xFF
    mask.write_bytes(bytes(raw))
    problems = check.check_labelgen(graph, mask, conn, gen.THETA, gen.LAM)
    assert problems and "1 pixels" in problems[0]


def test_checker_rejects_an_eval_score_nudged_by_1e3(tmp_path):
    pred, gt = gen.road_masks(np.random.default_rng(2), canvas=256)
    for side, grid in (("pred", pred), ("gt", gt)):
        (tmp_path / side).mkdir()
        gen.write_pgm(tmp_path / side / "m.pgm", grid * 255, 255)
    report = tmp_path / "report.json"
    argv = ["eval", "--pred", str(tmp_path / "pred" / "m.pgm"), "--gt", str(tmp_path / "gt" / "m.pgm"), "--out", str(report)]
    assert _roadkit(argv) == 0
    record = json.loads(report.read_text())["records"][0]
    expected = check.expected_pixel_scores(tmp_path / "pred" / "m.pgm", tmp_path / "gt" / "m.pgm", 3.0)
    assert check.check_eval_record(record, expected) == []
    for key in ("iou", "relaxed_iou"):
        for nudge in (1e-3, -1e-3):
            assert check.check_eval_record({**record, key: record[key] + nudge}, expected)
    assert check.check_eval_record({**record, "apls": 1.0 + 1e-3}, expected)


@pytest.mark.xfail(strict=True, reason="known defect: apls of some identical pairs is 1 - 2**-52, not 1.0")
def test_apls_of_an_identical_pair_is_exactly_one():
    from roadkit import apls, parse_graph

    g = parse_graph(json.dumps(gen.street_graph(np.random.default_rng(1))))
    assert apls(g, g) == 1.0


def test_child_and_parent_self_times_sum_to_the_parent_span():
    #        parent [0, 100]
    #        |- a [10, 40]  |- leaf [20, 30]
    #        |- b [50, 90]
    ns = 10**9
    tree = [
        ["parent", 0, 100 * ns, None, "0"],
        ["a", 10 * ns, 40 * ns, 0, "0"],
        ["leaf", 20 * ns, 30 * ns, 1, "0"],
        ["b", 50 * ns, 90 * ns, 0, "0"],
    ]
    selfs = spans.self_times(tree)
    assert selfs == [30.0, 20.0, 10.0, 40.0]
    assert selfs[1] + selfs[2] == 30.0  # a's subtree covers a
    assert sum(selfs) == 100.0

    tracer = spans.Tracer()
    outer = tracer.open("outer")
    for _ in range(3):
        inner = tracer.open("inner")
        tracer.close(tracer.open("leaf"))
        tracer.close(inner)
    tracer.close(outer)
    total = (tracer.spans[0][2] - tracer.spans[0][1]) / 1e9
    assert sum(spans.self_times(tracer.spans)) == pytest.approx(total, abs=1e-12)


def test_renamed_function_is_recorded_absent(monkeypatch):
    import roadkit.metrics

    layers = dict(spans.LAYERS, metrics=spans.LAYERS["metrics"] + ("no_such_function",))
    monkeypatch.setattr(spans, "LAYERS", layers)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert roadkit.metrics.iou([[1]], [[1]]) == 1.0
    finally:
        tracer.uninstall()
    assert tracer.absent == ["metrics.no_such_function"]
    assert [s[0] for s in tracer.spans] == ["metrics.iou"]
    assert spans.layer_metrics(tracer.spans, tracer.counts)["metrics.no_such_function.self_s"] == 0.0
    assert not hasattr(roadkit.metrics.iou, "__wrapped__")


def test_item_times_are_scaled_by_the_calibration_around_them():
    ref = run.REFERENCE_CALIBRATION_S
    # The machine runs 2x slow around the first item, at the reference speed around the last.
    calibration = [2 * ref, 2 * ref, ref, ref]
    assert run.scaled_item_times([4.0, 3.0, 1.0], calibration) == pytest.approx([2.0, 2.0, 1.0])


def test_benchmark_json_matches_the_metrics_emitted():
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    emitted = set(spans.layer_metrics([], {})) | {"trace.overhead_frac"}
    assert set(per_layer) == emitted
    assert all(spans.unit(name) == u for name, u in per_layer.items())
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(gen.WORKLOADS)
