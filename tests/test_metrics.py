import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from roadkit.graph import GraphBuilder, parse_graph
from roadkit.labels import brute_force_distance_map
from roadkit.metrics import (
    AplsParams,
    apls,
    build_control_points,
    iou,
    relaxed_iou,
    snap_similarity,
)

from conftest import lattice_tree_graph


def brute_force_relaxed_iou(pred, gt, rho):
    """Independent oracle: buffered matching via brute-force distances."""
    pred = pred > 0
    gt = gt > 0
    if not pred.any() and not gt.any():
        return 1.0
    d_gt = brute_force_distance_map(gt.astype(np.uint8))
    d_pred = brute_force_distance_map(pred.astype(np.uint8))
    tp = np.count_nonzero(pred & (d_gt <= rho))
    fp = np.count_nonzero(pred & (d_gt > rho))
    fn = np.count_nonzero(gt & (d_pred > rho))
    return tp / (tp + fp + fn) if tp + fp + fn else 1.0


def test_iou_identity_disjoint_half():
    a = np.zeros((4, 4), dtype=np.uint8)
    a[0, :] = 1
    assert iou(a, a) == 1.0

    b = np.zeros((4, 4), dtype=np.uint8)
    b[2, :] = 1
    assert iou(a, b) == 0.0

    half = np.zeros((4, 4), dtype=np.uint8)
    half[0, :2] = 1
    assert iou(half, a) == 0.5


def test_iou_both_empty():
    z = np.zeros((3, 3), dtype=np.uint8)
    assert iou(z, z) == 1.0


def test_iou_dimension_mismatch():
    with pytest.raises(ValueError):
        iou(np.zeros((2, 2)), np.zeros((3, 3)))


def test_relaxed_iou_shifted_prediction():
    gt = np.zeros((8, 8), dtype=np.uint8)
    gt[4, 1:6] = 1
    pred = np.zeros((8, 8), dtype=np.uint8)
    pred[4, 2:7] = 1  # shifted right by one
    assert relaxed_iou(pred, gt, 3.0) == 1.0
    assert relaxed_iou(pred, gt, 0.0) < 1.0


def test_relaxed_iou_zero_rho_equals_iou():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = (rng.random((10, 10)) < 0.3).astype(np.uint8)
        b = (rng.random((10, 10)) < 0.3).astype(np.uint8)
        assert relaxed_iou(a, b, 0.0) == pytest.approx(iou(a, b), abs=1e-12)


def test_relaxed_iou_empty_prediction():
    gt = np.ones((4, 4), dtype=np.uint8)
    assert relaxed_iou(np.zeros((4, 4), dtype=np.uint8), gt, 2.0) == 0.0


@given(
    hnp.arrays(np.uint8, (12, 12), elements=st.integers(0, 1)),
    hnp.arrays(np.uint8, (12, 12), elements=st.integers(0, 1)),
    st.floats(0.0, 5.0),
)
@settings(max_examples=40, deadline=None)
def test_relaxed_iou_matches_oracle(pred, gt, rho):
    assert relaxed_iou(pred, gt, rho) == pytest.approx(
        brute_force_relaxed_iou(pred, gt, rho), abs=1e-9
    )


def test_relaxed_iou_nondecreasing_in_rho(rng):
    for _ in range(10):
        a = (rng.random((12, 12)) < 0.25).astype(np.uint8)
        b = (rng.random((12, 12)) < 0.25).astype(np.uint8)
        scores = [relaxed_iou(a, b, rho) for rho in (0.0, 1.0, 2.0, 3.0, 5.0)]
        assert all(x <= y + 1e-12 for x, y in zip(scores, scores[1:]))


def straight_graph(length=10.0):
    return parse_graph(
        '{"nodes":[[0,0],[%f,0]],"edges":[{"a":0,"b":1}]}' % length
    )


def test_control_points_short_edge_unchanged():
    g = straight_graph(10.0)
    assert len(build_control_points(g, 100.0).nodes) == 2


def test_control_points_injects_midpoint():
    g = straight_graph(100.0)
    dense = build_control_points(g, 50.0)
    assert len(dense.nodes) == 3
    assert (50.0, 0.0) in dense.nodes
    assert sum(e.length() for e in dense.edges) == pytest.approx(100.0)


def test_control_points_empty_graph():
    g = parse_graph('{"nodes":[],"edges":[]}')
    assert len(build_control_points(g, 10.0).nodes) == 0


def test_snap_similarity_identity():
    g = straight_graph()
    assert snap_similarity(g, g) == 1.0


def test_snap_similarity_length_mismatch():
    ref = straight_graph(10.0)
    prop = parse_graph(
        '{"nodes":[[0,0],[10,0]],"edges":[{"a":0,"b":1,'
        '"polyline":[[0,0],[0,1],[10,1],[10,0]]}]}'
    )  # same endpoints, arc length 12
    assert snap_similarity(ref, prop) == pytest.approx(0.8, abs=1e-9)


def test_snap_similarity_empty_cases():
    empty = parse_graph('{"nodes":[],"edges":[]}')
    g = straight_graph()
    assert snap_similarity(empty, empty) == 1.0
    assert snap_similarity(g, empty) == 0.0


def test_snap_similarity_unsnappable_node_penalized():
    ref = parse_graph(
        '{"nodes":[[0,0],[10,0],[10,40]],"edges":[{"a":0,"b":1},{"a":1,"b":2}]}'
    )
    prop = straight_graph(10.0)  # the far endpoint cannot snap
    m = snap_similarity(ref, prop, AplsParams(snap_radius=4.0, sample_spacing=100.0))
    # pairs: (0,1) perfect, (0,2) and (1,2) penalized
    assert m == pytest.approx(1.0 - 2.0 / 3.0)


def test_apls_identical_and_empty():
    g = straight_graph()
    empty = parse_graph('{"nodes":[],"edges":[]}')
    assert apls(g, g) == 1.0
    assert apls(empty, empty) == 1.0
    assert apls(g, empty) == 0.0
    assert apls(empty, g) == 0.0


def test_apls_harmonic_mean():
    # both directions score 0.8 for the 10-vs-12 fixture pair
    ref = straight_graph(10.0)
    prop = parse_graph(
        '{"nodes":[[0,0],[10,0]],"edges":[{"a":0,"b":1,'
        '"polyline":[[0,0],[0,1],[10,1],[10,0]]}]}'
    )
    forward = snap_similarity(ref, prop)
    backward = snap_similarity(prop, ref)
    expected = 2.0 / (1.0 / forward + 1.0 / backward)
    assert apls(ref, prop) == pytest.approx(expected, abs=1e-12)


def test_apls_symmetry(rng):
    for _ in range(5):
        a = lattice_tree_graph(rng)
        b = lattice_tree_graph(rng)
        assert apls(a, b) == pytest.approx(apls(b, a), abs=1e-12)


def test_apls_bridge_removal_decreases_score(rng):
    for _ in range(20):
        g = lattice_tree_graph(rng)
        if len(g.edges) < 2:
            continue
        baseline = apls(g, g)
        assert baseline == 1.0
        # every edge of a tree is a bridge
        k = int(rng.integers(0, len(g.edges)))
        pruned = GraphBuilder()
        for j, e in enumerate(g.edges):
            if j != k:
                pruned.add_polyline(list(e.polyline))
        assert apls(g, pruned.build()) < baseline


def test_snap_terms_bounded(rng):
    for _ in range(10):
        a = lattice_tree_graph(rng)
        b = lattice_tree_graph(rng)
        m = snap_similarity(a, b)
        assert 0.0 <= m <= 1.0

