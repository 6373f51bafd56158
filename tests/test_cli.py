import json

import numpy as np
import pytest

from roadkit.cli import main
from roadkit.formats import read_pgm, write_feature_stack, write_mask_pgm
from roadkit.graph import GraphBuilder, serialize_graph


def cross_graph_json():
    b = GraphBuilder()
    for seg in ([(20, 60), (60, 60)], [(60, 60), (100, 60)], [(60, 20), (60, 60)], [(60, 60), (60, 100)]):
        b.add_polyline(seg)
    return serialize_graph(b.build())


def test_labelgen_writes_mask_and_connectivity(tmp_path, capsys):
    src = tmp_path / "graphs"
    src.mkdir()
    (src / "a.json").write_text(cross_graph_json())
    out = tmp_path / "labels"
    rc = main(["labelgen", "--input", str(src), "--out", str(out), "--width", "128", "--height", "128"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["processed"] == 1
    mask, maxval = read_pgm(out / "a_mask.pgm")
    assert maxval == 255
    assert mask.shape == (128, 128)
    conn, maxval = read_pgm(out / "a_conn.pgm")
    assert maxval == 5
    assert conn[60, 60] == 4


def test_labelgen_reports_bad_input(tmp_path, capsys):
    src = tmp_path / "graphs"
    src.mkdir()
    (src / "bad.json").write_text("{not json")
    rc = main(["labelgen", "--input", str(src), "--out", str(tmp_path / "o")])
    assert rc == 1
    report = json.loads(capsys.readouterr().out)
    assert "bad" in report["failed"]


@pytest.mark.parametrize(
    "doc",
    [
        '{"nodes": [[NaN, 5], [10, 5]], "edges": [{"a": 0, "b": 1}]}',
        '{"nodes": [[1e999, 5], [10, 5]], "edges": [{"a": 0, "b": 1}]}',
        '{"nodes": [["a", 5], [10, 5]], "edges": [{"a": 0, "b": 1}]}',
        '{"nodes": [[1%s, 5], [10, 5]], "edges": [{"a": 0, "b": 1}]}' % ("0" * 400),
        '{"nodes": [[0, 5], [10, 5]], "edges": [{"a": 0, "b": 1, "polyline": [[0, 5], [3], [10, 5]]}]}',
        '{"nodes": [[0, 5], [10, 5]], "edges": [{"a": 0, "b": 1}], "boundary_nodes": 5}',
    ],
    ids=["nan", "overflow", "string", "huge-int", "short-point", "boundary-not-array"],
)
def test_labelgen_records_malformed_graph_per_file(tmp_path, capsys, doc):
    src = tmp_path / "graphs"
    src.mkdir()
    (src / "bad.json").write_text(doc)
    (src / "good.json").write_text(cross_graph_json())
    rc = main(["labelgen", "--input", str(src), "--out", str(tmp_path / "o"), "--width", "128", "--height", "128"])
    captured = capsys.readouterr()
    assert rc == 1
    report = json.loads(captured.out)
    assert list(report["failed"]) == ["bad"]
    assert report["processed"] == 1
    assert "Traceback" not in captured.err


def test_labelgen_missing_input_is_io_error(tmp_path):
    assert main(["labelgen", "--input", str(tmp_path / "nope"), "--out", str(tmp_path / "o")]) == 2


def test_vectorize_round_trip(tmp_path, capsys):
    masks = tmp_path / "masks"
    masks.mkdir()
    mask = np.zeros((40, 120), dtype=np.uint8)
    mask[19:22, 5:115] = 1
    write_mask_pgm(masks / "road.pgm", mask)
    out = tmp_path / "graphs"
    rc = main(["vectorize", "--input", str(masks), "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    doc = json.loads((out / "road.json").read_text())
    assert len(doc["edges"]) == 1


def test_vectorize_records_corrupt_pgm_per_file(tmp_path, capsys):
    masks = tmp_path / "masks"
    masks.mkdir()
    mask = np.zeros((40, 120), dtype=np.uint8)
    mask[19:22, 5:115] = 1
    write_mask_pgm(masks / "good.pgm", mask)
    (masks / "bad.pgm").write_bytes(b"P5\n4 4\n255\n\x00")  # truncated body
    out = tmp_path / "graphs"
    rc = main(["vectorize", "--input", str(masks), "--out", str(out)])
    assert rc == 1
    report = json.loads(capsys.readouterr().out)
    assert report["processed"] == 1
    assert list(report["failed"]) == ["bad"]
    assert len(json.loads((out / "good.json").read_text())["edges"]) == 1
    assert not (out / "bad.json").exists()


def test_eval_pairs_masks(tmp_path, capsys):
    pred = tmp_path / "pred"
    gt = tmp_path / "gt"
    pred.mkdir()
    gt.mkdir()
    mask = np.zeros((40, 120), dtype=np.uint8)
    mask[19:22, 5:115] = 1
    write_mask_pgm(pred / "x.pgm", mask)
    write_mask_pgm(gt / "x.pgm", mask)
    rc = main(["eval", "--pred", str(pred), "--gt", str(gt)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["means"]["iou"] == 1.0
    assert report["means"]["apls"] == 1.0
    assert report["records"][0]["id"] == "x"


def test_eval_records_bad_pairs_per_pair(tmp_path, capsys):
    pred = tmp_path / "pred"
    gt = tmp_path / "gt"
    pred.mkdir()
    gt.mkdir()
    mask = np.zeros((40, 120), dtype=np.uint8)
    mask[19:22, 5:115] = 1
    shifted = np.roll(mask, 2, axis=0)
    write_mask_pgm(pred / "good.pgm", shifted)
    write_mask_pgm(gt / "good.pgm", mask)
    (pred / "truncated.pgm").write_bytes(b"P5\n4 4\n255\n\x00")
    write_mask_pgm(gt / "truncated.pgm", np.zeros((4, 4), dtype=np.uint8))
    (pred / "badgraph.json").write_text('{"nodes": [[NaN, 5], [10, 5]], "edges": [{"a": 0, "b": 1}]}')
    (gt / "badgraph.json").write_text(cross_graph_json())
    write_mask_pgm(pred / "shapes.pgm", mask)
    write_mask_pgm(gt / "shapes.pgm", mask[:, :100])
    rc = main(["eval", "--pred", str(pred), "--gt", str(gt)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "Traceback" not in captured.err
    report = json.loads(captured.out)
    assert sorted(report["failed"]) == ["badgraph", "shapes", "truncated"]
    assert main(["eval", "--pred", str(pred / "good.pgm"), "--gt", str(gt / "good.pgm")]) == 0
    single = json.loads(capsys.readouterr().out)
    assert report["records"] == single["records"]
    assert report["means"] == single["means"]


def test_eval_rejects_unpaired(tmp_path, capsys):
    pred = tmp_path / "pred"
    gt = tmp_path / "gt"
    pred.mkdir()
    gt.mkdir()
    write_mask_pgm(pred / "only.pgm", np.zeros((4, 4), dtype=np.uint8))
    assert main(["eval", "--pred", str(pred), "--gt", str(gt)]) == 1


def test_eval_graph_pairs(tmp_path, capsys):
    pred = tmp_path / "pred"
    gt = tmp_path / "gt"
    pred.mkdir()
    gt.mkdir()
    doc = cross_graph_json()
    (pred / "g.json").write_text(doc)
    (gt / "g.json").write_text(doc)
    rc = main(["eval", "--pred", str(pred), "--gt", str(gt)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["records"][0]["apls"] == 1.0
    assert "iou" not in report["records"][0]


def test_tile_plan_default_grid(tmp_path):
    out = tmp_path / "plan.json"
    rc = main(["tile-plan", "--width", "4096", "--height", "4096", "--out", str(out)])
    assert rc == 0
    plan = json.loads(out.read_text())
    assert len(plan["tiles"]) == 121


def test_tile_plan_invalid_geometry(capsys):
    assert main(["tile-plan", "--width", "100", "--height", "100", "--patch", "64", "--margin", "40"]) == 1


def test_ga_forward_seeded(tmp_path, capsys):
    feats = tmp_path / "v.rgkt"
    rng = np.random.default_rng(5)
    write_feature_stack(feats, rng.standard_normal((4, 6, 6)))
    rc = main(["ga-forward", "--features", str(feats), "--seed", "7"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["shape"] == [4, 6, 6]
    assert abs(report["output_mean"]) <= abs(report["input_mean"]) + 1.0


def test_ga_forward_missing_features():
    assert main(["ga-forward"]) == 1


def test_losscheck_passes(tmp_path, capsys):
    rc = main(["losscheck", "--trials", "5", "--seed", "1"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert report["soft_iou_grad_max_rel_err"] < 1e-4


def test_check_passes_and_is_deterministic(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["check", "--trials", "10", "--seed", "3", "--out", str(out1)]) == 0
    assert main(["check", "--trials", "10", "--seed", "3", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_config_file_supplies_options(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"width": 4096, "height": 4096}))
    rc = main(["tile-plan", "--config", str(cfg)])
    assert rc == 0
    plan = json.loads(capsys.readouterr().out)
    assert plan["width"] == 4096
    assert len(plan["tiles"]) == 121


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"width": 4096, "height": 4096}))
    rc = main(["tile-plan", "--config", str(cfg), "--width", "512"])
    assert rc == 0
    plan = json.loads(capsys.readouterr().out)
    assert plan["width"] == 512


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    assert main(["tile-plan", "--config", str(cfg)]) == 1


def test_missing_config_file_is_io_error(tmp_path):
    assert main(["tile-plan", "--config", str(tmp_path / "nope.json")]) == 2


def test_threads_env_does_not_change_eval_output(tmp_path, monkeypatch, capsys):
    pred = tmp_path / "pred"
    gt = tmp_path / "gt"
    pred.mkdir()
    gt.mkdir()
    rng = np.random.default_rng(0)
    for i in range(4):
        mask = np.zeros((40, 120), dtype=np.uint8)
        row = int(rng.integers(10, 30))
        mask[row : row + 3, 5:115] = 1
        write_mask_pgm(pred / f"s{i}.pgm", mask)
        write_mask_pgm(gt / f"s{i}.pgm", mask)
    outputs = []
    for threads in ("1", "4"):
        monkeypatch.setenv("ROADKIT_THREADS", threads)
        out = tmp_path / f"report_{threads}.json"
        assert main(["eval", "--pred", str(pred), "--gt", str(gt), "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
