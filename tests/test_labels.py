import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from roadkit.graph import GraphBuilder, node_degrees, parse_graph
from roadkit.labels import (
    LabelParams,
    brute_force_distance_map,
    connectivity_label,
    distance_map,
    gaussian_heatmap,
    pixel_connectivity_label,
    rasterize_centerline,
)


def segment_graph(points):
    b = GraphBuilder()
    b.add_polyline(points)
    return b.build()


def test_rasterize_horizontal_segment():
    g = segment_graph([(0, 3), (9, 3)])
    mask = rasterize_centerline(g, 10, 8)
    expected = np.zeros((8, 10), dtype=np.uint8)
    expected[3, :] = 1
    assert np.array_equal(mask, expected)


def test_rasterize_empty_graph():
    g = parse_graph('{"nodes":[],"edges":[]}')
    assert rasterize_centerline(g, 5, 5).sum() == 0


def test_rasterize_diagonal():
    g = segment_graph([(0, 0), (4, 4)])
    mask = rasterize_centerline(g, 5, 5)
    assert mask.sum() == 5
    assert all(mask[i, i] for i in range(5))


def test_rasterize_rejects_bad_dimensions():
    g = parse_graph('{"nodes":[],"edges":[]}')
    with pytest.raises(ValueError):
        rasterize_centerline(g, 0, 5)


def test_distance_map_basics():
    mask = np.zeros((5, 5), dtype=np.uint8)
    mask[2, 2] = 1
    d = distance_map(mask)
    assert d[2, 2] == 0.0
    assert d[2, 3] == 1.0
    assert d[3, 3] == pytest.approx(math.sqrt(2), abs=1e-12)


def test_distance_map_all_background_is_infinite():
    d = distance_map(np.zeros((4, 4), dtype=np.uint8))
    assert np.all(np.isinf(d))


@given(
    hnp.arrays(
        np.uint8,
        st.tuples(st.integers(2, 24), st.integers(2, 24)),
        elements=st.integers(0, 1),
    )
)
@settings(max_examples=40, deadline=None)
def test_distance_map_matches_brute_force(mask):
    exact = distance_map(mask)
    brute = brute_force_distance_map(mask)
    finite = np.isfinite(brute)
    assert np.array_equal(np.isfinite(exact), finite)
    if finite.any():
        assert np.max(np.abs(exact[finite] - brute[finite])) < 1e-6


def _scipy_oracle_masks():
    """Seeded random masks up to 257x257, one road pixel to 90% road, plus edge shapes."""
    rng = np.random.default_rng(7)
    masks = []
    for density in (0.0, 0.001, 0.01, 0.05, 0.15, 0.5, 0.9):
        for shape in ((257, 257), (31, 200), (200, 31), (64, 64)):
            mask = (rng.random(shape) < density).astype(np.uint8)
            mask[tuple(int(rng.integers(0, n)) for n in shape)] = 1  # at least one road pixel
            masks.append(mask)
    for shape in ((1, 1), (1, 57), (57, 1)):
        for density in (0.0, 0.3):
            mask = (rng.random(shape) < density).astype(np.uint8)
            mask.flat[int(rng.integers(0, mask.size))] = 1
            masks.append(mask)
    for shape in ((40, 70), (1, 9), (9, 1)):
        corner = np.zeros(shape, dtype=np.uint8)
        corner[-1, -1] = 1
        masks.append(corner)
        masks.append(np.ones(shape, dtype=np.uint8))
    return masks


def test_distance_map_equals_scipy_edt_bitwise():
    ndimage = pytest.importorskip("scipy.ndimage")
    for mask in _scipy_oracle_masks():
        assert np.array_equal(distance_map(mask), ndimage.distance_transform_edt(mask == 0)), mask.shape


@pytest.mark.parametrize("shape", [(1, 1), (1, 57), (57, 1), (257, 257)])
def test_distance_map_all_background_is_infinite_any_shape(shape):
    d = distance_map(np.zeros(shape, dtype=np.uint8))
    assert d.shape == shape
    assert np.all(np.isposinf(d))


def test_gaussian_heatmap_values():
    d = np.array([[0.0, 2.0, np.inf]])
    g = gaussian_heatmap(d, theta=2.0)
    assert g[0, 0] == 1.0
    assert g[0, 1] == pytest.approx(math.exp(-0.5), abs=1e-12)
    assert g[0, 2] == 0.0


def test_gaussian_heatmap_rejects_bad_theta():
    with pytest.raises(ValueError):
        gaussian_heatmap(np.zeros((2, 2)), theta=0.0)


def test_gaussian_is_one_only_on_road():
    mask = np.zeros((8, 8), dtype=np.uint8)
    mask[4, 2:6] = 1
    g = gaussian_heatmap(distance_map(mask), theta=2.0)
    assert np.all(g[mask == 1] == 1.0)
    assert np.all(g[mask == 0] < 1.0)


def cross_graph():
    b = GraphBuilder()
    for seg in ([(10, 50), (50, 50)], [(50, 50), (90, 50)], [(50, 10), (50, 50)], [(50, 50), (50, 90)]):
        b.add_polyline(seg)
    return b.build()


def test_connectivity_label_classes():
    g = cross_graph()
    mask, conn = connectivity_label(g, 100, 100)
    assert conn[50, 50] == 4  # crossroad
    assert conn[50, 10] == 1  # endpoint
    assert conn[50, 30] == 2  # along the road
    assert np.array_equal(conn > 0, mask > 0)


def test_connectivity_label_clamps_high_degree():
    b = GraphBuilder()
    center = (60.0, 60.0)
    for k in range(7):
        angle = 2 * math.pi * k / 7
        b.add_polyline([center, (60 + 50 * math.cos(angle), 60 + 50 * math.sin(angle))])
    g = b.build()
    assert node_degrees(g)[g.nodes.index(center)] == 7
    _, conn = connectivity_label(g, 120, 120)
    assert conn[60, 60] == 5
    assert conn.max() == 5


def test_connectivity_label_skips_boundary_nodes():
    b = GraphBuilder()
    b.add_polyline([(0, 20), (39, 20)], start_boundary=True)
    g = b.build()
    _, conn = connectivity_label(g, 40, 40)
    assert conn[20, 0] == 2  # clipped end stays ordinary road
    assert conn[20, 39] == 1  # genuine endpoint


def test_connectivity_road_set_matches_threshold():
    g = cross_graph()
    params = LabelParams(theta=2.0, lam=0.4, node_radius=4.0)
    mask, conn = connectivity_label(g, 100, 100, params)
    heat = gaussian_heatmap(distance_map(rasterize_centerline(g, 100, 100)), params.theta)
    assert np.array_equal(conn >= 1, heat >= params.lam)
    assert np.array_equal(mask > 0, heat >= params.lam)


def test_label_params_validation():
    with pytest.raises(ValueError):
        LabelParams(theta=-1.0)
    with pytest.raises(ValueError):
        LabelParams(lam=1.5)
    with pytest.raises(ValueError):
        LabelParams(node_radius=0.5)


def test_pixel_connectivity_isolated_pixel():
    mask = np.zeros((5, 5), dtype=np.uint8)
    mask[2, 2] = 1
    assert pixel_connectivity_label(mask, "four")[2, 2] == 0
    assert pixel_connectivity_label(mask, "eight")[2, 2] == 0


def test_pixel_connectivity_solid_block_and_line():
    block = np.ones((3, 3), dtype=np.uint8)
    assert pixel_connectivity_label(block, "four")[1, 1] == 4
    assert pixel_connectivity_label(block, "eight")[1, 1] == 5  # 8 clamped

    line = np.zeros((3, 7), dtype=np.uint8)
    line[1, :] = 1
    assert pixel_connectivity_label(line, "four")[1, 3] == 2


def test_pixel_connectivity_rejects_unknown_pattern():
    with pytest.raises(ValueError):
        pixel_connectivity_label(np.zeros((2, 2), dtype=np.uint8), "six")


@given(
    hnp.arrays(
        np.uint8,
        st.tuples(st.integers(2, 16), st.integers(2, 16)),
        elements=st.integers(0, 1),
    )
)
@settings(max_examples=40)
def test_eight_pattern_dominates_four_pattern(mask):
    # Compare unclamped counts: recompute the four/eight sums directly.
    four = pixel_connectivity_label(mask, "four").astype(int)
    m = mask.astype(int)
    padded = np.pad(m, 1)
    eight_raw = sum(
        padded[1 + dy : 1 + dy + m.shape[0], 1 + dx : 1 + dx + m.shape[1]]
        for dy in (-1, 0, 1)
        for dx in (-1, 0, 1)
        if (dy, dx) != (0, 0)
    ) * m
    assert np.all(eight_raw >= four)
