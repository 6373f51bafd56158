import numpy as np
import pytest

from roadkit.formats import (
    FormatError,
    read_feature_stack,
    read_mask_pgm,
    read_pgm,
    write_connectivity_pgm,
    write_feature_stack,
    write_mask_pgm,
)


def test_mask_pgm_round_trip(tmp_path):
    mask = np.zeros((6, 9), dtype=np.uint8)
    mask[2, 1:8] = 1
    path = tmp_path / "mask.pgm"
    write_mask_pgm(path, mask)
    assert np.array_equal(read_mask_pgm(path), mask)
    grid, maxval = read_pgm(path)
    assert maxval == 255
    assert set(np.unique(grid)) <= {0, 255}


def test_connectivity_pgm_round_trip(tmp_path):
    conn = np.array([[0, 1, 2], [3, 4, 5]], dtype=np.uint8)
    path = tmp_path / "conn.pgm"
    write_connectivity_pgm(path, conn)
    grid, maxval = read_pgm(path)
    assert maxval == 5
    assert np.array_equal(grid, conn)


def test_connectivity_pgm_rejects_out_of_range(tmp_path):
    with pytest.raises(FormatError):
        write_connectivity_pgm(tmp_path / "bad.pgm", np.array([[6]], dtype=np.uint8))


def test_pgm_header_with_comment(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n3 2\n255\n" + bytes(6))
    grid, maxval = read_pgm(path)
    assert grid.shape == (2, 3)
    assert maxval == 255


def test_pgm_rejects_garbage(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
    with pytest.raises(FormatError):
        read_pgm(path)
    path.write_bytes(b"P5\n4 4\n255\n\x00")  # truncated body
    with pytest.raises(FormatError):
        read_pgm(path)


def test_feature_stack_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    feats = rng.standard_normal((3, 4, 6))
    path = tmp_path / "f.rgkt"
    write_feature_stack(path, feats)
    back = read_feature_stack(path)
    assert back.shape == (3, 4, 6)
    assert np.allclose(back, feats, atol=1e-6)


def test_feature_stack_rejects_truncation(tmp_path):
    path = tmp_path / "f.rgkt"
    write_feature_stack(path, np.zeros((2, 3, 3)))
    raw = path.read_bytes()
    path.write_bytes(raw[:-4])
    with pytest.raises(FormatError):
        read_feature_stack(path)
