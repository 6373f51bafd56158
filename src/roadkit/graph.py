"""Road centerline graphs: parsing, serialization, degrees, window cropping.

A road graph is a planar undirected graph whose vertices carry 2-D pixel
coordinates and whose edges carry polyline geometry. Nodes flagged in
``boundary_nodes`` were created by clipping an edge at a crop window and are
not real road endpoints.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

Point = tuple[float, float]

#: Endpoints closer than this (in pixels) are considered the same junction.
MERGE_TOL = 1e-6

#: Lattice spacing for synthetic graphs; keeps junctions well separated and
#: every leaf edge longer than the default spur-pruning threshold.
LATTICE_SPACING = 60


class GraphParseError(ValueError):
    """Raised when a graph document is not well-formed."""


class GraphSchemaError(ValueError):
    """Raised when a graph document violates the schema (e.g. dangling index)."""


@dataclass(frozen=True)
class Edge:
    """Undirected edge between node indices ``a`` and ``b`` with geometry."""

    a: int
    b: int
    polyline: tuple[Point, ...]

    def length(self) -> float:
        """Arc length of the polyline in pixels."""
        return sum(math.dist(p, q) for p, q in zip(self.polyline, self.polyline[1:]))

    def reversed(self) -> "Edge":
        return Edge(self.b, self.a, tuple(reversed(self.polyline)))


@dataclass(frozen=True)
class Window:
    """Axis-aligned crop rectangle in pixel coordinates (closed on all sides)."""

    x0: float
    y0: float
    width: float
    height: float

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"window must have positive size, got {self.width}x{self.height}")

    @property
    def x1(self) -> float:
        return self.x0 + self.width

    @property
    def y1(self) -> float:
        return self.y0 + self.height

    def contains(self, p: Point) -> bool:
        return self.x0 <= p[0] <= self.x1 and self.y0 <= p[1] <= self.y1


@dataclass(frozen=True)
class RoadGraph:
    """Immutable road centerline graph."""

    nodes: tuple[Point, ...] = ()
    edges: tuple[Edge, ...] = ()
    boundary_nodes: frozenset[int] = field(default_factory=frozenset)

    def is_empty(self) -> bool:
        return not self.edges

    def bounding_box(self) -> tuple[float, float, float, float] | None:
        """(min_x, min_y, max_x, max_y) over nodes and edge geometry, or None."""
        pts = list(self.nodes)
        for e in self.edges:
            pts.extend(e.polyline)
        if not pts:
            return None
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        return min(xs), min(ys), max(xs), max(ys)


def validate_graph(g: RoadGraph, tol: float = 1e-6) -> None:
    """Check structural invariants; raises GraphSchemaError on violation."""
    n = len(g.nodes)
    for i in g.boundary_nodes:
        if not 0 <= i < n:
            raise GraphSchemaError(f"boundary node index {i} out of range")
    for k, e in enumerate(g.edges):
        if not (0 <= e.a < n and 0 <= e.b < n):
            raise GraphSchemaError(f"edge {k} references missing node ({e.a},{e.b})")
        if len(e.polyline) < 2:
            raise GraphSchemaError(f"edge {k} polyline has fewer than 2 points")
        if math.dist(e.polyline[0], g.nodes[e.a]) > tol:
            raise GraphSchemaError(f"edge {k} polyline start does not match node {e.a}")
        if math.dist(e.polyline[-1], g.nodes[e.b]) > tol:
            raise GraphSchemaError(f"edge {k} polyline end does not match node {e.b}")
        if e.a == e.b and len(e.polyline) == 2:
            raise GraphSchemaError(f"edge {k} is zero-length")


class GraphBuilder:
    """Accumulates geometry into a RoadGraph, merging coincident endpoints.

    Endpoint coordinates are keyed on a grid of size ``tol`` so points within
    the tolerance collapse to a single node.
    """

    def __init__(self, tol: float = MERGE_TOL) -> None:
        self._tol = tol
        self._nodes: list[Point] = []
        self._index: dict[tuple[int, int], int] = {}
        self._edges: list[Edge] = []
        self._boundary: set[int] = set()

    def _key(self, p: Point) -> tuple[int, int]:
        return (round(p[0] / self._tol), round(p[1] / self._tol))

    def add_node(self, p: Point, boundary: bool = False) -> int:
        key = self._key(p)
        idx = self._index.get(key)
        if idx is None:
            idx = len(self._nodes)
            self._nodes.append((float(p[0]), float(p[1])))
            self._index[key] = idx
        if boundary:
            self._boundary.add(idx)
        return idx

    def add_polyline(
        self,
        points: list[Point] | tuple[Point, ...],
        start_boundary: bool = False,
        end_boundary: bool = False,
    ) -> None:
        pts = [(float(x), float(y)) for x, y in points]
        if len(pts) < 2:
            return
        a = self.add_node(pts[0], boundary=start_boundary)
        b = self.add_node(pts[-1], boundary=end_boundary)
        if a == b and all(math.dist(p, pts[0]) <= self._tol for p in pts):
            return  # degenerate zero-length loop
        # Snap endpoints onto the canonical node coordinates.
        pts[0] = self._nodes[a]
        pts[-1] = self._nodes[b]
        self._edges.append(Edge(a, b, tuple(pts)))

    def build(self) -> RoadGraph:
        g = RoadGraph(tuple(self._nodes), tuple(self._edges), frozenset(self._boundary))
        validate_graph(g, tol=self._tol * 2)
        return g


def parse_graph(document: str) -> RoadGraph:
    """Parse a graph-JSON document into a RoadGraph.

    Schema: ``{"nodes": [[x, y], ...], "edges": [{"a": i, "b": j,
    "polyline": [[x, y], ...]}, ...]}``. ``polyline`` is optional and
    defaults to the straight segment between the endpoints. Coincident
    nodes (within 1e-6 px) are merged so degrees come out right when a
    junction coordinate is repeated per linestring.
    """
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise GraphParseError(f"malformed graph document: {exc}") from exc
    if not isinstance(doc, dict) or "nodes" not in doc or "edges" not in doc:
        raise GraphParseError("graph document must be an object with 'nodes' and 'edges'")

    raw_nodes = doc["nodes"]
    raw_edges = doc["edges"]
    if not isinstance(raw_nodes, list) or not isinstance(raw_edges, list):
        raise GraphParseError("'nodes' and 'edges' must be arrays")

    builder = GraphBuilder()
    # Coordinates of the merged node each document node maps to.
    canonical: list[Point] = []
    first_seen: dict[int, Point] = {}
    for k, entry in enumerate(raw_nodes):
        p = _parse_point(entry, f"node {k}")
        canonical.append(first_seen.setdefault(builder.add_node(p), p))

    boundary = doc.get("boundary_nodes", [])
    if not isinstance(boundary, list):
        raise GraphParseError("'boundary_nodes' must be an array")
    for k in boundary:
        if not isinstance(k, int) or not 0 <= k < len(raw_nodes):
            raise GraphSchemaError(f"boundary node reference {k!r} out of range")
        builder.add_node(canonical[k], boundary=True)

    for k, entry in enumerate(raw_edges):
        if not isinstance(entry, dict) or "a" not in entry or "b" not in entry:
            raise GraphParseError(f"edge {k} must be an object with 'a' and 'b'")
        a, b = entry["a"], entry["b"]
        for ref in (a, b):
            if not isinstance(ref, int) or not 0 <= ref < len(raw_nodes):
                raise GraphSchemaError(f"edge {k} references missing node {ref!r}")
        pa, pb = canonical[a], canonical[b]
        poly = entry.get("polyline")
        if poly is None:
            pts = [pa, pb]
        else:
            if not isinstance(poly, list):
                raise GraphParseError(f"edge {k} polyline must be an array")
            pts = [_parse_point(q, f"edge {k} polyline point {i}") for i, q in enumerate(poly)]
            if len(pts) < 2:
                raise GraphSchemaError(f"edge {k} polyline has fewer than 2 points")
            if math.dist(pts[0], pa) > 1e-6 or math.dist(pts[-1], pb) > 1e-6:
                raise GraphSchemaError(f"edge {k} polyline does not start/end at its nodes")
        builder.add_polyline(pts)
    return builder.build()


def _parse_point(entry, what: str) -> Point:
    """An [x, y] pair of finite numbers, or GraphParseError naming ``what``."""
    if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
        raise GraphParseError(f"{what} must be an [x, y] pair")
    try:
        x, y = float(entry[0]), float(entry[1])
    except (TypeError, ValueError, OverflowError):
        x = y = math.nan
    if not (math.isfinite(x) and math.isfinite(y)):
        raise GraphParseError(f"{what} must have finite numeric coordinates, got {entry!r}")
    return x, y


def serialize_graph(g: RoadGraph) -> str:
    """Serialize a RoadGraph to graph-JSON (round-trips through parse_graph)."""
    doc = {
        "nodes": [[x, y] for x, y in g.nodes],
        "edges": [
            {"a": e.a, "b": e.b, "polyline": [[x, y] for x, y in e.polyline]}
            for e in g.edges
        ],
    }
    if g.boundary_nodes:
        doc["boundary_nodes"] = sorted(g.boundary_nodes)
    return json.dumps(doc)


def node_degrees(g: RoadGraph) -> dict[int, int]:
    """Degree of every node; a self-loop contributes 2."""
    deg = {i: 0 for i in range(len(g.nodes))}
    for e in g.edges:
        deg[e.a] += 1
        deg[e.b] += 1
    return deg


def _liang_barsky(p: Point, q: Point, w: Window) -> tuple[float, float] | None:
    """Parameter interval [t0, t1] of segment pq inside w, or None if disjoint."""
    dx = q[0] - p[0]
    dy = q[1] - p[1]
    t0, t1 = 0.0, 1.0
    checks = (
        (-dx, p[0] - w.x0),
        (dx, w.x1 - p[0]),
        (-dy, p[1] - w.y0),
        (dy, w.y1 - p[1]),
    )
    for den, num in checks:
        if den == 0:
            if num < 0:
                return None
            continue
        t = num / den
        if den < 0:
            if t > t1:
                return None
            t0 = max(t0, t)
        else:
            if t < t0:
                return None
            t1 = min(t1, t)
    if t0 > t1:
        return None
    return t0, t1


def _lerp(p: Point, q: Point, t: float) -> Point:
    return (p[0] + (q[0] - p[0]) * t, p[1] + (q[1] - p[1]) * t)


def crop_graph(g: RoadGraph, w: Window) -> RoadGraph:
    """Clip the graph to a window.

    Cut points created at the window edge become new nodes flagged in
    ``boundary_nodes`` (they are not real endpoints and label generation
    skips them). Geometry fully inside passes through unchanged.
    """
    builder = GraphBuilder()
    # Keep original nodes that fall inside the window, boundary flags included.
    for i, p in enumerate(g.nodes):
        if w.contains(p):
            builder.add_node(p, boundary=i in g.boundary_nodes)

    for e in g.edges:
        chains: list[list[Point]] = []
        chain: list[Point] = []
        for p, q in zip(e.polyline, e.polyline[1:]):
            span = _liang_barsky(p, q, w)
            if span is None:
                if chain:
                    chains.append(chain)
                    chain = []
                continue
            t0, t1 = span
            a = _lerp(p, q, t0) if t0 > 0 else p
            b = _lerp(p, q, t1) if t1 < 1 else q
            if t0 > 0 and chain:
                # Segment re-enters the window: previous chain ended earlier.
                chains.append(chain)
                chain = []
            if not chain:
                chain.append(a)
            if math.dist(chain[-1], b) > 0:
                chain.append(b)
            if t1 < 1:
                chains.append(chain)
                chain = []
        if chain:
            chains.append(chain)

        for pts in chains:
            if len(pts) < 2:
                continue
            # Endpoints that moved off the original nodes are window cuts;
            # surviving original endpoints keep the flags set above.
            start_is_cut = math.dist(pts[0], g.nodes[e.a]) > 1e-9
            end_is_cut = math.dist(pts[-1], g.nodes[e.b]) > 1e-9
            builder.add_polyline(pts, start_boundary=start_is_cut, end_boundary=end_is_cut)
    return builder.build()


def lattice_tree_graph(rng: np.random.Generator, canvas: int = 200) -> RoadGraph:
    """Random spanning tree on a coarse lattice, edges between grid neighbors.

    Junctions are at least LATTICE_SPACING apart and all edges are straight
    segments of length >= LATTICE_SPACING, so vectorization round trips
    cleanly: no spur is short enough to prune and no junctions merge.
    """
    coords = list(range(40, canvas - 20, LATTICE_SPACING))
    sites = list(itertools.product(coords, coords))
    k = int(rng.integers(3, min(7, len(sites)) + 1))
    chosen = [sites[i] for i in rng.choice(len(sites), size=k, replace=False)]

    builder = GraphBuilder()
    tree_points = [chosen[0]]
    rest = chosen[1:]
    while rest:
        # Attach the pending site closest to the tree, but only via straight
        # lattice-neighbor hops so segments never overlap obliquely.
        best = None
        for site in rest:
            for anchor in tree_points:
                dist = abs(site[0] - anchor[0]) + abs(site[1] - anchor[1])
                if best is None or dist < best[0]:
                    best = (dist, site, anchor)
        _, site, anchor = best
        # Walk in lattice steps: first horizontal, then vertical.
        x, y = anchor
        path = [(x, y)]
        while x != site[0]:
            x += LATTICE_SPACING if site[0] > x else -LATTICE_SPACING
            path.append((x, y))
        while y != site[1]:
            y += LATTICE_SPACING if site[1] > y else -LATTICE_SPACING
            path.append((x, y))
        # Restart from the last point already in the tree so no hop is ever
        # duplicated and the result stays a genuine tree (no parallel edges,
        # no cycles).
        last = max(i for i, p in enumerate(path) if p in tree_points)
        path = path[last:]
        for p, q in zip(path, path[1:]):
            builder.add_polyline([(float(p[0]), float(p[1])), (float(q[0]), float(q[1]))])
        for p in path[1:]:
            tree_points.append(p)
        rest = [s for s in rest if s not in tree_points]
    return builder.build()
