"""Seeded input generator for the roadkit benchmark.

Every input is made here with ``json`` and plain numpy; nothing in this file
imports roadkit. If the generator called the library, a change to (say)
label generation would also change the masks that ``eval-masks`` scores, and
two commits would no longer be compared on the same inputs.

The same ``(workload, seed)`` always yields byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

#: Side of every CLI-workload image, in pixels. Small enough that one item
#: takes about a second, so a run repeats every input several times.
CANVAS = 320

#: Settings the CLI workloads pass as flags; the oracles use the same.
THETA = 2.0
LAM = float(np.exp(-0.5))
NODE_RADIUS = 4.0
RHO = 3.0

#: Inputs generated per run. A run times every input of its pool in each
#: round; the program is stateless across calls.
POOL = {"labelgen": 6, "eval-masks": 5, "tiled-kernels": 4}

WORKLOADS = tuple(POOL)

#: tiled-kernels geometry: a 3x3 tile grid over a 240x240 stack.
TILE_IMAGE = 240
TILE_PATCH = 96
TILE_STRIDE = 72
TILE_MARGIN = 12
TILE_CHANNELS = 8
TILE_REDUCTION = 2
TILE_CLASSES = 6


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def write_pgm(path: Path, grid: np.ndarray, maxval: int) -> None:
    h, w = grid.shape
    path.write_bytes(f"P5\n{w} {h}\n{maxval}\n".encode("ascii") + grid.astype(np.uint8).tobytes())


def _axis(rng: np.random.Generator, count: int, lo: int, hi: int, jitter: int, canvas: int) -> list[int]:
    """count integer grid lines spread evenly over [lo, hi], each moved by up to jitter.

    A fixed count keeps the amount of work per image steady across seeds. No
    line lands on 0 or canvas, so no node sits on the crop border.
    """
    base = np.linspace(lo, hi, count).round().astype(int)
    pos = base + rng.integers(-jitter, jitter + 1, count)
    return [int(p) + 1 if p in (0, canvas) else int(p) for p in pos]


# --------------------------------------------------------------------------
# labelgen: axis-aligned lattice plus 45-degree spurs, integer coordinates.
# Every segment is horizontal, vertical or diagonal, so the rasterization the
# checker expects is unambiguous, and clipping at the canvas edge keeps
# exactly the on-canvas pixels of each segment.


def lattice_graph(rng: np.random.Generator, canvas: int = CANVAS) -> dict:
    """Grid lines about 55 px apart, reaching one gap past every canvas edge."""
    count = canvas // 64 + 3
    xs = _axis(rng, count, -30, canvas + 30, 8, canvas)
    ys = _axis(rng, count, -30, canvas + 30, 8, canvas)
    index = {}
    nodes = []
    for y in ys:
        for x in xs:
            index[x, y] = len(nodes)
            nodes.append([x, y])
    edges = []
    for j, y in enumerate(ys):
        for i, x in enumerate(xs):
            if i + 1 < len(xs) and rng.random() < 0.8:
                edges.append((index[x, y], index[xs[i + 1], y]))
            if j + 1 < len(ys) and rng.random() < 0.8:
                edges.append((index[x, y], index[x, ys[j + 1]]))
    # Diagonal dead-end spurs give endpoints and degree-5+ junctions. Each
    # stays inside its own cell quadrant, so it crosses no other edge.
    for i in range(1, len(xs) - 1):
        for j in range(1, len(ys) - 1):
            if rng.random() >= 0.2:
                continue
            x, y = xs[i], ys[j]
            for sx, sy in ((1, 1), (-1, -1), (1, -1), (-1, 1)):
                if rng.random() >= 0.5:
                    continue
                gap_x = (xs[i + 1] - x) if sx > 0 else (x - xs[i - 1])
                gap_y = (ys[j + 1] - y) if sy > 0 else (y - ys[j - 1])
                length = int(rng.integers(10, min(gap_x, gap_y) // 2))
                tip = [x + sx * length, y + sy * length]
                if not (0 < tip[0] < canvas and 0 < tip[1] < canvas):
                    continue
                nodes.append(tip)
                edges.append((index[x, y], len(nodes) - 1))
    return {
        "nodes": nodes,
        "edges": [{"a": a, "b": b, "polyline": [nodes[a], nodes[b]]} for a, b in edges],
    }


# --------------------------------------------------------------------------
# eval-masks: thick road masks and a noisy prediction of them, drawn along a
# jittered street network with bent, many-vertex polylines.


def _bent_polyline(rng: np.random.Generator, p: list[float], q: list[float]) -> list[list[float]]:
    k = int(rng.integers(2, 6))
    t = np.linspace(0.0, 1.0, k + 2)[1:-1]
    bend = rng.normal(0.0, 1.5, (k, 2))
    inner = [[p[0] + s * (q[0] - p[0]) + b[0], p[1] + s * (q[1] - p[1]) + b[1]] for s, b in zip(t, bend)]
    return [list(p)] + [[float(x), float(y)] for x, y in inner] + [list(q)]


def street_graph(rng: np.random.Generator, canvas: int = CANVAS) -> dict:
    """Streets about 60 px apart, all inside the canvas."""
    count = canvas // 64
    xs = _axis(rng, count, 40, canvas - 40, 10, canvas)
    ys = _axis(rng, count, 40, canvas - 40, 10, canvas)
    nodes = []
    index = {}
    for j in range(len(ys)):
        for i in range(len(xs)):
            index[i, j] = len(nodes)
            nodes.append([float(xs[i] + rng.normal(0, 4)), float(ys[j] + rng.normal(0, 4))])
    pairs = []
    for j in range(len(ys)):
        for i in range(len(xs)):
            if i + 1 < len(xs) and rng.random() < 0.85:
                pairs.append((index[i, j], index[i + 1, j]))
            if j + 1 < len(ys) and rng.random() < 0.85:
                pairs.append((index[i, j], index[i, j + 1]))
    edges = [{"a": a, "b": b, "polyline": _bent_polyline(rng, nodes[a], nodes[b])} for a, b in pairs]
    return {"nodes": nodes, "edges": edges}


def _draw_segment(grid: np.ndarray, p, q, half_width: float) -> None:
    (x0, y0), (x1, y1) = p, q
    h, w = grid.shape
    pad = half_width + 1
    lo_x, hi_x = max(0, int(min(x0, x1) - pad)), min(w, int(max(x0, x1) + pad) + 1)
    lo_y, hi_y = max(0, int(min(y0, y1) - pad)), min(h, int(max(y0, y1) + pad) + 1)
    if lo_x >= hi_x or lo_y >= hi_y:
        return
    gy, gx = np.mgrid[lo_y:hi_y, lo_x:hi_x].astype(np.float64)
    dx, dy = x1 - x0, y1 - y0
    denom = dx * dx + dy * dy
    t = np.zeros_like(gx) if denom == 0 else np.clip(((gx - x0) * dx + (gy - y0) * dy) / denom, 0, 1)
    dist2 = (gx - x0 - t * dx) ** 2 + (gy - y0 - t * dy) ** 2
    grid[lo_y:hi_y, lo_x:hi_x] |= dist2 <= half_width * half_width


def road_masks(rng: np.random.Generator, canvas: int = CANVAS) -> tuple[np.ndarray, np.ndarray]:
    """(pred, gt) 0/1 masks: gt is clean, pred has the usual model errors."""
    g = street_graph(rng, canvas)
    gt = np.zeros((canvas, canvas), dtype=bool)
    pred = np.zeros((canvas, canvas), dtype=bool)
    for e in g["edges"]:
        poly = e["polyline"]
        hw = float(rng.uniform(2.5, 4.5))
        for p, q in zip(poly, poly[1:]):
            _draw_segment(gt, p, q, hw)
        roll = rng.random()
        if roll < 0.07:
            continue  # road missed by the model
        offset = rng.uniform(-3, 3, 2) if roll < 0.3 else np.zeros(2)
        pw = hw + float(rng.uniform(-1.0, 1.0))
        for p, q in zip(poly, poly[1:]):
            _draw_segment(pred, np.add(p, offset), np.add(q, offset), pw)
    # Speckle: small false-positive blobs off the roads, 50-70 per megapixel.
    for _ in range(int(rng.integers(50, 70)) * canvas * canvas // 2**20 + 1):
        c = rng.uniform(0, canvas, 2)
        _draw_segment(pred, c, c + rng.uniform(-6, 6, 2), float(rng.uniform(1.0, 3.0)))
    # Ragged borders: flip a share of the pixels on the road boundary.
    edge = pred & ~(np.roll(pred, 1, 0) & np.roll(pred, -1, 0) & np.roll(pred, 1, 1) & np.roll(pred, -1, 1))
    pred ^= edge & (rng.random(pred.shape) < 0.25)
    # Pinholes: single dropped pixels inside the roads, 40 per megapixel.
    inside = np.flatnonzero(pred & ~edge)
    pred.flat[rng.choice(inside, size=min(len(inside), 40 * canvas * canvas // 2**20 + 1), replace=False)] = False
    return pred.astype(np.uint8), gt.astype(np.uint8)


# --------------------------------------------------------------------------
# tiled-kernels: a feature stack, block weights and a class-probability map.


def feature_item(rng: np.random.Generator) -> dict[str, np.ndarray]:
    c, n, k = TILE_CHANNELS, TILE_IMAGE, TILE_CLASSES
    hidden = c // TILE_REDUCTION
    u = lambda *shape: rng.uniform(-0.1, 0.1, shape)
    logits = rng.normal(0.0, 2.0, (k, n, n))
    prob = np.exp(logits - logits.max(axis=0))
    prob /= prob.sum(axis=0)
    onehot = (rng.integers(0, k, (n, n)) == np.arange(k)[:, None, None]).astype(np.float64)
    return {
        "features": rng.uniform(-1.0, 1.0, (c, n, n)),
        "upstream": rng.uniform(-1.0, 1.0, (c, n, n)),
        "w1": u(hidden, c), "b1": u(hidden), "w2": u(c, hidden), "b2": u(c),
        "conv1": u(c, c, 3, 3), "bias1": u(c), "conv2": u(c, c, 3, 3), "bias2": u(c),
        "prob": prob,
        "onehot": onehot,
    }


def make_inputs(workload: str, seed: int, dest: Path) -> list[dict]:
    """Write one run's input pool under dest; return the item manifest."""
    rng = rng_for(workload, seed)
    dest.mkdir(parents=True, exist_ok=True)
    items = []
    for k in range(POOL[workload]):
        name = f"{k:03d}"
        if workload == "labelgen":
            path = dest / "graphs" / f"{name}.json"
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(lattice_graph(rng)))
            items.append({"id": name, "input": str(path)})
        elif workload == "eval-masks":
            pred, gt = road_masks(rng)
            for side, grid in (("pred", pred), ("gt", gt)):
                (dest / side).mkdir(exist_ok=True)
                write_pgm(dest / side / f"{name}.pgm", grid * 255, 255)
            items.append({"id": name, "pred": str(dest / "pred" / f"{name}.pgm"), "gt": str(dest / "gt" / f"{name}.pgm")})
        elif workload == "tiled-kernels":
            path = dest / f"{name}.npz"
            with open(path, "wb") as fh:
                np.savez(fh, **feature_item(rng))
            items.append({"id": name, "input": str(path)})
        else:
            raise ValueError(f"unknown workload {workload!r}")
    return items
