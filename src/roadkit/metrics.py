"""Pixel and graph metrics: IoU, relaxed IoU, and path-length similarity.

The graph metric compares shortest-path lengths between control points of a
reference graph and their snapped counterparts on a proposal graph. A path
that is missing or more than 100% off contributes the full penalty of 1.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .graph import Edge, Point, RoadGraph
from .labels import distance_map

#: Penalty for an unsnappable control node or a missing proposal path.
MISSING_PATH_PENALTY = 1.0


@dataclass(frozen=True)
class PixelScore:
    """Pixel-level comparison of a predicted mask against ground truth."""

    iou: float
    relaxed_iou: float
    rho: float


@dataclass(frozen=True)
class AplsParams:
    """Knobs of the path-length-similarity metric."""

    snap_radius: float = 4.0
    sample_spacing: float = 50.0

    def __post_init__(self) -> None:
        if self.snap_radius <= 0:
            raise ValueError(f"snap_radius must be positive, got {self.snap_radius}")
        if self.sample_spacing <= 0:
            raise ValueError(f"sample_spacing must be positive, got {self.sample_spacing}")


def iou(pred: np.ndarray, gt: np.ndarray) -> float:
    """|pred & gt| / |pred | gt|; 1.0 when both masks are empty."""
    pred = np.asarray(pred) > 0
    gt = np.asarray(gt) > 0
    if pred.shape != gt.shape:
        raise ValueError(f"mask shapes differ: {pred.shape} vs {gt.shape}")
    union = np.count_nonzero(pred | gt)
    if union == 0:
        return 1.0
    return np.count_nonzero(pred & gt) / union


def relaxed_iou(pred: np.ndarray, gt: np.ndarray, rho: float) -> float:
    """IoU with matches allowed within rho pixels.

    True positives are predicted pixels within rho of any ground-truth pixel;
    false negatives are ground-truth pixels with no prediction within rho.
    At rho = 0 this reduces to the standard IoU.
    """
    pred = np.asarray(pred) > 0
    gt = np.asarray(gt) > 0
    if pred.shape != gt.shape:
        raise ValueError(f"mask shapes differ: {pred.shape} vs {gt.shape}")
    if rho < 0:
        raise ValueError(f"rho must be >= 0, got {rho}")
    if not pred.any() and not gt.any():
        return 1.0
    d_gt = distance_map(gt.astype(np.uint8))
    d_pred = distance_map(pred.astype(np.uint8))
    tp = np.count_nonzero(pred & (d_gt <= rho))
    fp = np.count_nonzero(pred & (d_gt > rho))
    fn = np.count_nonzero(gt & (d_pred > rho))
    denom = tp + fp + fn
    if denom == 0:
        return 1.0
    return tp / denom


def pixel_score(pred: np.ndarray, gt: np.ndarray, rho: float) -> PixelScore:
    return PixelScore(iou=iou(pred, gt), relaxed_iou=relaxed_iou(pred, gt, rho), rho=rho)


def _cumulative_lengths(poly: tuple[Point, ...]) -> list[float]:
    cum = [0.0]
    for p, q in zip(poly, poly[1:]):
        cum.append(cum[-1] + math.dist(p, q))
    return cum


def _point_at(poly: tuple[Point, ...], cum: list[float], s: float) -> Point:
    if s <= 0:
        return poly[0]
    if s >= cum[-1]:
        return poly[-1]
    for i in range(1, len(cum)):
        if s <= cum[i]:
            seg = cum[i] - cum[i - 1]
            t = 0.0 if seg == 0 else (s - cum[i - 1]) / seg
            p, q = poly[i - 1], poly[i]
            return (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))
    return poly[-1]


def _split_polyline(poly: tuple[Point, ...], cum: list[float], stations: list[float]) -> list[list[Point]]:
    """Split at interior arc-length stations (strictly increasing)."""
    pieces: list[list[Point]] = []
    current: list[Point] = [poly[0]]
    si = 0
    for i in range(1, len(poly)):
        seg_start, seg_end = cum[i - 1], cum[i]
        while si < len(stations) and stations[si] <= seg_end:
            cut = _point_at(poly, cum, stations[si])
            if math.dist(current[-1], cut) > 0:
                current.append(cut)
            pieces.append(current)
            current = [cut]
            si += 1
        if math.dist(current[-1], poly[i]) > 0:
            current.append(poly[i])
    pieces.append(current)
    return [p for p in pieces if len(p) >= 2]


def build_control_points(g: RoadGraph, spacing: float) -> RoadGraph:
    """Insert degree-2 nodes so consecutive nodes along every edge are <= spacing apart."""
    if spacing <= 0:
        raise ValueError(f"spacing must be positive, got {spacing}")
    # Built directly rather than via GraphBuilder: injected midpoints of two
    # crossing edges must stay distinct nodes, never merge into a junction.
    nodes = list(g.nodes)
    edges: list[Edge] = []
    for e in g.edges:
        cum = _cumulative_lengths(e.polyline)
        length = cum[-1]
        n = max(1, math.ceil(length / spacing))
        stations = [length * k / n for k in range(1, n)]
        pieces = _split_polyline(e.polyline, cum, stations)
        prev = e.a
        for k, piece in enumerate(pieces):
            if k == len(pieces) - 1:
                nxt = e.b
            else:
                nxt = len(nodes)
                nodes.append(piece[-1])
            edges.append(Edge(prev, nxt, tuple(piece)))
            prev = nxt
    return RoadGraph(tuple(nodes), tuple(edges), g.boundary_nodes)


def _dijkstra(adj: dict, source) -> dict:
    dist = {source: 0.0}
    heap = [(0.0, 0, source)]
    counter = 1
    while heap:
        d, _, u = heapq.heappop(heap)
        if d > dist.get(u, math.inf):
            continue
        for v, w in adj.get(u, ()):
            nd = d + w
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, counter, v))
                counter += 1
    return dist


def _graph_adjacency(g: RoadGraph) -> dict[int, list[tuple[int, float]]]:
    adj: dict[int, list[tuple[int, float]]] = {i: [] for i in range(len(g.nodes))}
    for e in g.edges:
        w = e.length()
        adj[e.a].append((e.b, w))
        adj[e.b].append((e.a, w))
    return adj


def _nearest_on_graph(p: Point, geoms: list[tuple[tuple[Point, ...], list[float]]]):
    """Closest point over all edge polylines: (distance, edge index, arc length)."""
    best = (math.inf, -1, 0.0)
    for ei, (poly, cum) in enumerate(geoms):
        for i in range(1, len(poly)):
            a, b = poly[i - 1], poly[i]
            dx, dy = b[0] - a[0], b[1] - a[1]
            denom = dx * dx + dy * dy
            t = 0.0 if denom == 0 else max(0.0, min(1.0, ((p[0] - a[0]) * dx + (p[1] - a[1]) * dy) / denom))
            q = (a[0] + t * dx, a[1] + t * dy)
            d = math.dist(p, q)
            if d < best[0]:
                seg = math.sqrt(denom)
                best = (d, ei, cum[i - 1] + t * seg)
    return best


def snap_similarity(ref: RoadGraph, prop: RoadGraph, params: AplsParams | None = None) -> float:
    """Path-length similarity of prop measured against control points of ref.

    Control points of ref snap to the nearest geometry of prop within
    snap_radius; every unordered control-point pair with a finite reference
    path contributes min(1, |L - L'| / L), with the full penalty when the
    node cannot snap or prop has no connecting path. Returns 1 minus the mean
    penalty. Two empty graphs agree perfectly (1.0); an empty proposal against
    a nonempty reference scores 0.0.
    """
    params = params or AplsParams()
    if ref.is_empty():
        return 1.0
    if prop.is_empty():
        return 0.0

    ref = build_control_points(ref, params.sample_spacing)
    ref_adj = _graph_adjacency(ref)
    controls = list(range(len(ref.nodes)))

    geoms = [(e.polyline, _cumulative_lengths(e.polyline)) for e in prop.edges]
    snapped: dict[int, tuple[int, float]] = {}
    for i in controls:
        d, ei, s = _nearest_on_graph(ref.nodes[i], geoms)
        if d <= params.snap_radius:
            snapped[i] = (ei, s)

    # Proposal graph with snapped points spliced in as vertices.
    cuts: dict[int, list[tuple[float, object]]] = {ei: [] for ei in range(len(prop.edges))}
    snap_key: dict[int, object] = {}
    for i, (ei, s) in snapped.items():
        length = geoms[ei][1][-1]
        if s <= 1e-9:
            snap_key[i] = ("n", prop.edges[ei].a)
        elif s >= length - 1e-9:
            snap_key[i] = ("n", prop.edges[ei].b)
        else:
            key = ("s", i)
            snap_key[i] = key
            cuts[ei].append((s, key))

    prop_adj: dict[object, list[tuple[object, float]]] = {}

    def link(u, v, w):
        prop_adj.setdefault(u, []).append((v, w))
        prop_adj.setdefault(v, []).append((u, w))

    for ei, e in enumerate(prop.edges):
        length = geoms[ei][1][-1]
        stations = sorted(cuts[ei]) if cuts[ei] else []
        verts = [(0.0, ("n", e.a))] + stations + [(length, ("n", e.b))]
        for (s0, u), (s1, v) in zip(verts, verts[1:]):
            link(u, v, s1 - s0)

    ref_dists = {i: _dijkstra(ref_adj, i) for i in controls}
    prop_dists = {k: _dijkstra(prop_adj, k) for k in set(snap_key.values())}

    penalties: list[float] = []
    for ai in range(len(controls)):
        for bi in range(ai + 1, len(controls)):
            a, b = controls[ai], controls[bi]
            length = ref_dists[a].get(b, math.inf)
            if not math.isfinite(length) or length <= 0:
                continue
            if a not in snap_key or b not in snap_key:
                penalties.append(MISSING_PATH_PENALTY)
                continue
            lp = prop_dists[snap_key[a]].get(snap_key[b], math.inf)
            if not math.isfinite(lp):
                penalties.append(MISSING_PATH_PENALTY)
            else:
                penalties.append(min(1.0, abs(length - lp) / length))
    if not penalties:
        return 1.0
    return 1.0 - sum(penalties) / len(penalties)


def apls(gt: RoadGraph, prop: RoadGraph, params: AplsParams | None = None) -> float:
    """Harmonic mean of the two snap directions; 1.0 for identical graphs."""
    params = params or AplsParams()
    if gt.is_empty() and prop.is_empty():
        return 1.0
    forward = snap_similarity(gt, prop, params)
    backward = snap_similarity(prop, gt, params)
    if forward == 0.0 or backward == 0.0:
        return 0.0
    return 2.0 / (1.0 / forward + 1.0 / backward)

