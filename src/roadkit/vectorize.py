"""Predicted-mask vectorization: thinning, skeleton tracing, simplification.

mask_to_graph runs the full pipeline: Zhang-Suen thinning, tracing the
one-pixel skeleton into a graph, pruning short hanging curves (burrs), and
Ramer-Douglas-Peucker simplification of each edge polyline.
"""

from __future__ import annotations

import math

import numpy as np

from .graph import Edge, GraphBuilder, Point, RoadGraph, node_degrees

#: Default RDP tolerance in pixels.
DEFAULT_RDP_TOLERANCE = 2.0

#: Default minimum length of a hanging curve that survives pruning, in pixels.
DEFAULT_MIN_SPUR = 30.0

_NEIGHBORS_8 = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))


def _neighbor_planes(img: np.ndarray) -> list[np.ndarray]:
    """The eight neighbor values of every pixel, clockwise from north."""
    p = np.pad(img, 1)
    h, w = img.shape
    order = [(-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1)]
    return [p[1 + dy : 1 + dy + h, 1 + dx : 1 + dx + w] for dy, dx in order]


def _transitions(planes: list[np.ndarray]) -> np.ndarray:
    """Count of 0->1 steps walking the 8-neighborhood clockwise."""
    total = np.zeros(planes[0].shape, dtype=np.int64)
    for a, b in zip(planes, planes[1:] + planes[:1]):
        total += (a == 0) & (b == 1)
    return total


def _thinning_pass(img: np.ndarray, step: int) -> np.ndarray:
    p2, p3, p4, p5, p6, p7, p8, p9 = _neighbor_planes(img)
    count = p2 + p3 + p4 + p5 + p6 + p7 + p8 + p9
    trans = _transitions([p2, p3, p4, p5, p6, p7, p8, p9])
    if step == 0:
        c3 = (p2 * p4 * p6) == 0
        c4 = (p4 * p6 * p8) == 0
    else:
        c3 = (p2 * p4 * p8) == 0
        c4 = (p2 * p6 * p8) == 0
    removable = (img == 1) & (count >= 2) & (count <= 6) & (trans == 1) & c3 & c4
    out = img.copy()
    out[removable] = 0
    return out


def _has_square(img: np.ndarray) -> np.ndarray:
    """True where the pixel is the top-left corner of a solid 2x2 block."""
    return (img[:-1, :-1] & img[:-1, 1:] & img[1:, :-1] & img[1:, 1:]).astype(bool)


def _square_cleanup(img: np.ndarray) -> np.ndarray:
    """Remove redundant pixels of leftover 2x2 blocks without breaking paths.

    Zhang-Suen occasionally leaves staircase squares. A block member goes
    when it is a simple point (one foreground run around it); locked squares
    (crossings running through the block) fall back to an exact
    component-count check per candidate deletion.
    """
    img = img.copy()
    h, w = img.shape
    ring = ((-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1))
    while True:
        squares = list(zip(*np.nonzero(_has_square(img))))
        if not squares:
            return img
        deleted = False
        for y, x in squares:
            members = ((y, x), (y, x + 1), (y + 1, x), (y + 1, x + 1))
            for py, px in members:
                if not img[py, px]:
                    continue
                vals = [
                    int(img[py + dy, px + dx]) if 0 <= py + dy < h and 0 <= px + dx < w else 0
                    for dy, dx in ring
                ]
                runs = sum(1 for a, b in zip(vals, vals[1:] + vals[:1]) if a == 0 and b == 1)
                if runs == 1 and 2 <= sum(vals) <= 7:
                    img[py, px] = 0
                    deleted = True
                    break
            else:
                before = len(_label_components(img))
                for py, px in members:
                    if not img[py, px]:
                        continue
                    img[py, px] = 0
                    if len(_label_components(img)) == before:
                        deleted = True
                        break
                    img[py, px] = 1
            if deleted:
                break
        if not deleted:
            return img  # every remaining square is a bridge; leave it intact


def _label_components(img: np.ndarray) -> list[list[tuple[int, int]]]:
    """Pixel lists of the 8-connected foreground components, in scan order."""
    seen = np.zeros(img.shape, dtype=bool)
    h, w = img.shape
    components = []
    for sy, sx in zip(*np.nonzero(img)):
        if seen[sy, sx]:
            continue
        stack = [(int(sy), int(sx))]
        seen[sy, sx] = True
        pixels = []
        while stack:
            y, x = stack.pop()
            pixels.append((y, x))
            for dy, dx in _NEIGHBORS_8:
                ny, nx = y + dy, x + dx
                if 0 <= ny < h and 0 <= nx < w and img[ny, nx] and not seen[ny, nx]:
                    seen[ny, nx] = True
                    stack.append((ny, nx))
        components.append(pixels)
    return components


def skeletonize(mask: np.ndarray) -> np.ndarray:
    """Zhang-Suen iterative thinning to a one-pixel-wide 8-connected skeleton."""
    original = (np.asarray(mask) > 0).astype(np.int64)
    img = original.copy()
    while True:
        after = _thinning_pass(_thinning_pass(img, 0), 1)
        if np.array_equal(after, img):
            break
        img = after
    img = _square_cleanup(img)
    # The parallel passes can erase a tiny blob outright; pin one pixel so
    # every input component survives.
    for pixels in _label_components(original):
        if not any(img[y, x] for y, x in pixels):
            y, x = min(pixels)
            img[y, x] = 1
    return img.astype(np.uint8)


def _neighbor_pixels(p: tuple[int, int], pixels: set[tuple[int, int]]) -> list[tuple[int, int]]:
    x, y = p
    return [(x + dx, y + dy) for dy, dx in _NEIGHBORS_8 if (x + dx, y + dy) in pixels]


def skeleton_to_graph(skel: np.ndarray) -> RoadGraph:
    """Trace a one-pixel skeleton into a road graph.

    Node pixels are those with a neighbor count other than 2 (endpoints and
    junctions); adjacent node pixels are collapsed into one junction at their
    centroid. Chains of degree-2 pixels become edge polylines. Isolated
    cycles get an anchor node at their lexicographically smallest pixel.
    """
    skel = np.asarray(skel)
    if _has_square((skel > 0).astype(np.int64)).any():
        raise ValueError("skeleton is not one pixel wide (contains a solid 2x2 block)")
    pixels = {(int(x), int(y)) for y, x in zip(*np.nonzero(skel))}
    if not pixels:
        return RoadGraph()

    nbrs = {p: _neighbor_pixels(p, pixels) for p in pixels}
    node_pixels = {p for p in pixels if len(nbrs[p]) != 2}

    # Collapse 8-connected clusters of node pixels into single junctions.
    cluster_of: dict[tuple[int, int], int] = {}
    clusters: list[list[tuple[int, int]]] = []
    for p in sorted(node_pixels):
        if p in cluster_of:
            continue
        cid = len(clusters)
        stack = [p]
        members = []
        cluster_of[p] = cid
        while stack:
            q = stack.pop()
            members.append(q)
            for r in nbrs[q]:
                if r in node_pixels and r not in cluster_of:
                    cluster_of[r] = cid
                    stack.append(r)
        clusters.append(members)

    def centroid(cid: int) -> Point:
        ms = clusters[cid]
        return (sum(p[0] for p in ms) / len(ms), sum(p[1] for p in ms) / len(ms))

    builder = GraphBuilder()
    node_idx = [builder.add_node(centroid(cid)) for cid in range(len(clusters))]

    visited_chain: set[tuple[int, int]] = set()
    edges: list[tuple[int, int, list[Point]]] = []

    for p in sorted(node_pixels):
        for q in sorted(nbrs[p]):
            if q in node_pixels:
                continue  # same or adjacent cluster; geometry handled by collapse
            if q in visited_chain:
                continue
            # Trace the degree-2 chain starting at p -> q.
            chain = [p, q]
            visited_chain.add(q)
            prev, cur = p, q
            while cur not in node_pixels:
                nxt = [r for r in nbrs[cur] if r != prev]
                if not nxt:
                    break  # dead end inside the chain (single-pixel stub)
                prev, cur = cur, nxt[0]
                chain.append(cur)
                if cur not in node_pixels:
                    if cur in visited_chain:
                        break
                    visited_chain.add(cur)
            a = cluster_of[chain[0]]
            b = cluster_of.get(chain[-1])
            if b is None:
                continue  # closed back on itself without a node pixel; rare, skipped
            pts: list[Point] = [centroid(a)]
            pts.extend((float(x), float(y)) for x, y in chain)
            pts.append(centroid(b))
            edges.append((node_idx[a], node_idx[b], _dedupe_consecutive(pts)))

    # Isolated cycles: every remaining pixel has exactly two neighbors.
    remaining = pixels - node_pixels - visited_chain
    while remaining:
        anchor = min(remaining)
        chain = [anchor]
        remaining.discard(anchor)
        prev, cur = anchor, sorted(nbrs[anchor])[0]
        while cur != anchor:
            chain.append(cur)
            remaining.discard(cur)
            nxt = [r for r in nbrs[cur] if r != prev]
            prev, cur = cur, nxt[0]
        chain.append(anchor)
        idx = builder.add_node((float(anchor[0]), float(anchor[1])))
        pts = [(float(x), float(y)) for x, y in chain]
        edges.append((idx, idx, pts))

    for a, b, pts in edges:
        if len(pts) >= 2:
            builder.add_polyline(pts)
    return builder.build()


def _dedupe_consecutive(points: list[Point]) -> list[Point]:
    out = [points[0]]
    for p in points[1:]:
        if p != out[-1]:
            out.append(p)
    return out


def _point_segment_distance(p: Point, a: Point, b: Point) -> float:
    ax, ay = a
    bx, by = b
    px, py = p
    dx, dy = bx - ax, by - ay
    denom = dx * dx + dy * dy
    if denom == 0:
        return math.dist(p, a)
    t = max(0.0, min(1.0, ((px - ax) * dx + (py - ay) * dy) / denom))
    return math.dist(p, (ax + t * dx, ay + t * dy))


def simplify_rdp(points: list[Point] | tuple[Point, ...], tolerance: float) -> list[Point]:
    """Ramer-Douglas-Peucker: keep points deviating more than tolerance."""
    pts = list(points)
    if len(pts) <= 2:
        return pts
    dmax, index = 0.0, 0
    for i in range(1, len(pts) - 1):
        d = _point_segment_distance(pts[i], pts[0], pts[-1])
        if d > dmax:
            dmax, index = d, i
    if dmax > tolerance:
        left = simplify_rdp(pts[: index + 1], tolerance)
        right = simplify_rdp(pts[index:], tolerance)
        return left[:-1] + right
    return [pts[0], pts[-1]]


def prune_hanging(g: RoadGraph, min_length: float) -> RoadGraph:
    """Iteratively drop hanging curves shorter than min_length.

    An edge is hanging when at least one endpoint has degree 1. Shortest spur
    goes first for determinism under ties; junctions reduced to degree 2 are
    merged through so simplification later sees maximal chains.
    """
    edges = list(g.edges)
    boundary = set(g.boundary_nodes)

    while True:
        deg = node_degrees(RoadGraph(g.nodes, tuple(edges)))
        spurs = [
            (e.length(), k)
            for k, e in enumerate(edges)
            if (deg[e.a] == 1 or deg[e.b] == 1) and e.length() < min_length
        ]
        if not spurs:
            break
        _, k = min(spurs)
        edges.pop(k)

    # Merge-through: splice out degree-2 interior nodes.
    merged = True
    while merged:
        merged = False
        deg = node_degrees(RoadGraph(g.nodes, tuple(edges)))
        incident: dict[int, list[int]] = {}
        for k, e in enumerate(edges):
            incident.setdefault(e.a, []).append(k)
            incident.setdefault(e.b, []).append(k)
        for i, d in deg.items():
            if d != 2 or i in boundary:
                continue
            ks = incident.get(i, [])
            if len(ks) != 2:
                continue  # self-loop anchor
            k1, k2 = ks
            e1, e2 = edges[k1], edges[k2]
            if e1.a == e1.b or e2.a == e2.b:
                continue
            e1 = e1 if e1.b == i else e1.reversed()
            e2 = e2 if e2.a == i else e2.reversed()
            joined = Edge(e1.a, e2.b, e1.polyline + e2.polyline[1:])
            for k in sorted((k1, k2), reverse=True):
                edges.pop(k)
            edges.append(joined)
            merged = True
            break

    builder = GraphBuilder()
    for e in edges:
        builder.add_polyline(
            list(e.polyline),
            start_boundary=e.a in boundary,
            end_boundary=e.b in boundary,
        )
    return builder.build()


def simplify_graph(g: RoadGraph, tolerance: float) -> RoadGraph:
    """Apply RDP to every edge polyline."""
    builder = GraphBuilder()
    for e in g.edges:
        builder.add_polyline(
            simplify_rdp(e.polyline, tolerance),
            start_boundary=e.a in g.boundary_nodes,
            end_boundary=e.b in g.boundary_nodes,
        )
    return builder.build()


def mask_to_graph(
    mask: np.ndarray,
    tolerance: float = DEFAULT_RDP_TOLERANCE,
    min_length: float = DEFAULT_MIN_SPUR,
) -> RoadGraph:
    """Full vectorization: thin, trace, prune burrs, simplify."""
    skel = skeletonize(mask)
    g = skeleton_to_graph(skel)
    g = prune_hanging(g, min_length)
    return simplify_graph(g, tolerance)
