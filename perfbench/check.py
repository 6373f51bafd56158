"""Independent oracles for the roadkit benchmark's outputs.

Each check returns a list of problems; an empty list means the output passed.
The oracles use numpy, scipy and the generated inputs only, never roadkit, and
run in the parent process after the timed pass.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.ndimage import distance_transform_edt

#: Absolute tolerance for a reported score against its recomputation.
SCORE_TOL = 1e-9

#: Relative tolerance for an analytic gradient against central differences.
GRAD_TOL = 1e-4

#: Gradient entries probed per class, on and off the ground-truth class each.
PROBES_PER_CLASS = 2


def read_pgm(path) -> tuple[np.ndarray, int]:
    raw = Path(path).read_bytes()
    fields = raw.split(maxsplit=4)
    if len(fields) < 5 or fields[0] != b"P5":
        raise ValueError(f"{path}: not a binary PGM")
    w, h, maxval = (int(f) for f in fields[1:4])
    body = raw[len(raw) - w * h :]
    return np.frombuffer(body, dtype=np.uint8).reshape(h, w), maxval


# -- labelgen ---------------------------------------------------------------


def _segment_pixels(p, q):
    """Pixels of a horizontal, vertical or 45-degree integer segment."""
    (x0, y0), (x1, y1) = p, q
    dx, dy = x1 - x0, y1 - y0
    if not (dx == 0 or dy == 0 or abs(dx) == abs(dy)) or any(v != int(v) for v in (x0, y0, x1, y1)):
        raise ValueError(f"oracle handles axis-aligned and diagonal integer segments only: {p}-{q}")
    n = int(max(abs(dx), abs(dy)))
    k = np.arange(n + 1)
    return int(x0) + k * int(np.sign(dx)), int(y0) + k * int(np.sign(dy))


def expected_labels(doc: dict, width: int, height: int, theta: float, lam: float):
    """(road band, [(x, y, class)] junction pixels) for a generated graph."""
    center = np.zeros((height, width), dtype=bool)
    degree = [0] * len(doc["nodes"])
    for e in doc["edges"]:
        degree[e["a"]] += 1
        degree[e["b"]] += 1
        poly = e.get("polyline") or [doc["nodes"][e["a"]], doc["nodes"][e["b"]]]
        for p, q in zip(poly, poly[1:]):
            xs, ys = _segment_pixels(p, q)
            inside = (xs >= 0) & (xs < width) & (ys >= 0) & (ys < height)
            center[ys[inside], xs[inside]] = True
    d = distance_transform_edt(~center)
    band = np.exp(-(d**2) / (2.0 * theta * theta)) >= lam
    junctions = [
        (int(x), int(y), min(deg, 5))
        for (x, y), deg in zip(doc["nodes"], degree)
        if deg >= 3 and 0 < x < width and 0 < y < height
    ]
    return band, junctions


def check_labelgen(graph_path, mask_path, conn_path, theta: float, lam: float) -> list[str]:
    mask, mask_max = read_pgm(mask_path)
    conn, conn_max = read_pgm(conn_path)
    h, w = mask.shape
    band, junctions = expected_labels(json.loads(Path(graph_path).read_text()), w, h, theta, lam)
    problems = []
    if mask_max != 255 or not np.isin(mask, (0, 255)).all():
        problems.append("mask is not a 0/255 PGM")
    wrong = int(np.count_nonzero((mask > 0) != band))
    if wrong:
        problems.append(f"mask differs from exp(-d^2/2theta^2) >= lambda at {wrong} pixels")
    if conn_max != 5 or conn.max(initial=0) > 5:
        problems.append("connectivity classes outside 0..5")
    if np.any((conn > 0) & (mask == 0)):
        problems.append("connectivity map is not a subset of the mask")
    bad = [(x, y, c, int(conn[y, x])) for x, y, c in junctions if conn[y, x] != c]
    if bad:
        problems.append(f"{len(bad)} junctions carry the wrong class, first (x, y, want, got) = {bad[0]}")
    return problems


# -- eval -------------------------------------------------------------------


def expected_pixel_scores(pred_path, gt_path, rho: float) -> dict[str, float]:
    pred = read_pgm(pred_path)[0] > 0
    gt = read_pgm(gt_path)[0] > 0
    union = np.count_nonzero(pred | gt)
    iou = np.count_nonzero(pred & gt) / union if union else 1.0
    if not pred.any() and not gt.any():
        return {"iou": iou, "relaxed_iou": 1.0}
    near_gt = distance_transform_edt(~gt) <= rho
    near_pred = distance_transform_edt(~pred) <= rho
    tp = np.count_nonzero(pred & near_gt)
    fp = np.count_nonzero(pred & ~near_gt)
    fn = np.count_nonzero(gt & ~near_pred)
    return {"iou": iou, "relaxed_iou": tp / (tp + fp + fn) if tp + fp + fn else 1.0}


def check_eval_record(record: dict, expected: dict[str, float]) -> list[str]:
    problems = []
    for key in ("iou", "relaxed_iou", "apls"):
        value = record.get(key)
        if not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
            problems.append(f"{key} = {value!r} is not a score in [0, 1]")
    for key, want in expected.items():
        got = record.get(key)
        if isinstance(got, (int, float)) and abs(got - want) > SCORE_TOL:
            problems.append(f"{key} = {got!r}, recomputed {want!r}")
    return problems


# -- tiled-kernels ----------------------------------------------------------


def _soft_iou_terms(p, g):
    """Per-class (inter, union) of the soft-IoU surrogate."""
    return (g * p).sum(axis=(1, 2)), (g + p - g * p).sum(axis=(1, 2))


def oracle_losses(prob, onehot) -> tuple[float, float, np.ndarray]:
    """(soft-IoU loss, balanced CE loss, class weights) from their definitions."""
    c = prob.shape[0]
    inter, union = _soft_iou_terms(prob, onehot)
    ratio = np.where(union > 0, inter / np.where(union > 0, union, 1.0), 1.0)
    weights = 1.0 / np.log(1.02 + onehot.mean(axis=(1, 2)))
    clamped = np.clip(prob, 1e-7, 1.0 - 1e-7)
    scale = 1.0 / (weights.sum() * prob.shape[1] * prob.shape[2])
    ce = -scale * (onehot * np.log(clamped) * weights[:, None, None]).sum()
    return float(-ratio.sum() / c), float(ce), weights


def _central_differences(prob, onehot, weights, probes, eps=1e-6):
    """Central differences of both losses at probed entries.

    Perturbing one entry changes one class's soft-IoU sums and one CE term;
    only those are recomputed, so no cancellation against the rest of the sum.
    """
    c = prob.shape[0]
    inter, union = _soft_iou_terms(prob, onehot)
    scale = 1.0 / (weights.sum() * prob.shape[1] * prob.shape[2])
    iou_fd, ce_fd = [], []
    for ci, y, x in probes:
        p, g = prob[ci, y, x], onehot[ci, y, x]
        ratio = lambda s: (inter[ci] + g * s) / (union[ci] + (1.0 - g) * s)
        iou_fd.append(-(ratio(eps) - ratio(-eps)) / (c * 2 * eps))
        ce_fd.append(-scale * weights[ci] * g * (math.log(p + eps) - math.log(p - eps)) / (2 * eps))
    return np.array(iou_fd), np.array(ce_fd)


def _rel_err(a, b) -> float:
    return float(np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-15)))


def check_tiled(input_path, output_path) -> list[str]:
    with np.load(input_path) as z:
        inp = dict(z)
    with np.load(output_path) as z:
        out = dict(z)
    problems = []
    for key in ("stitched", "tile_out", "tile_dv", "tile_dparams", "losses", "iou_grad", "ce_grad"):
        if not np.isfinite(out[key]).all():
            problems.append(f"{key} has non-finite values")
    c, h, w = inp["features"].shape
    reads, writes, paste = out["reads"], out["writes"], out["paste"]
    if len(set(reads[:, 0])) < 3 or len(set(reads[:, 1])) < 3:
        problems.append("plan has fewer than 3x3 tiles")
    cover = np.zeros((h, w), dtype=np.int64)
    for k, ((wx, wy, ww, wh), (dx, dy)) in enumerate(zip(writes, paste)):
        cover[wy : wy + wh, wx : wx + ww] += 1
        if not np.array_equal(out["stitched"][:, wy : wy + wh, wx : wx + ww], out["tile_out"][k][:, dy : dy + wh, dx : dx + ww]):
            problems.append(f"stitched write window {k} differs from its tile output")
    if not (cover == 1).all():
        problems.append(f"{int(np.count_nonzero(cover != 1))} pixels not written exactly once")

    prob, onehot = inp["prob"], inp["onehot"]
    iou_want, ce_want, weights = oracle_losses(prob, onehot)
    for name, got, want in (("soft_iou_loss", out["losses"][0], iou_want), ("balanced_ce_loss", out["losses"][1], ce_want)):
        if abs(got - want) > 1e-9 * max(1.0, abs(want)):
            problems.append(f"{name} = {got!r}, recomputed {want!r}")
    # Probe entries away from the probability clamp, some on and some off
    # the ground-truth class, in every class.
    rng = np.random.default_rng(0)
    probes = []
    for ci in range(prob.shape[0]):
        for on in (True, False):
            ys, xs = np.nonzero(((onehot[ci] > 0) == on) & (prob[ci] > 1e-3) & (prob[ci] < 1 - 1e-3))
            for k in rng.choice(len(ys), size=min(PROBES_PER_CLASS, len(ys)), replace=False):
                probes.append((ci, int(ys[k]), int(xs[k])))
    iou_fd, ce_fd = _central_differences(prob, onehot, weights, probes)
    idx = tuple(np.array(probes).T)
    for name, grad, fd in (("soft_iou_loss", out["iou_grad"], iou_fd), ("balanced_ce_loss", out["ce_grad"], ce_fd)):
        err = _rel_err(grad[idx], fd)
        if err > GRAD_TOL:
            problems.append(f"{name} gradient off central differences by {err:.2e} (relative)")
    return problems
