"""On-disk formats: binary PGM rasters and raw feature stacks.

Masks are PGM (P5) with maxval 255 storing 0/255; connectivity maps are PGM
with maxval 5 storing the class directly. Feature stacks are float32
little-endian C x H x W data with a 16-byte ``RGKT`` header.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

FEATURE_MAGIC = b"RGKT"


class FormatError(ValueError):
    """Raised when a file does not match the expected layout."""


def write_mask_pgm(path: str | Path, mask: np.ndarray) -> None:
    """Write a binary road mask as PGM P5 with 0/255 values."""
    data = (np.asarray(mask) > 0).astype(np.uint8) * 255
    _write_pgm(path, data, maxval=255)


def write_connectivity_pgm(path: str | Path, conn: np.ndarray) -> None:
    """Write a connectivity map as PGM P5, maxval 5."""
    data = np.asarray(conn).astype(np.uint8)
    if data.max(initial=0) > 5:
        raise FormatError("connectivity values must be in 0..5")
    _write_pgm(path, data, maxval=5)


def _write_pgm(path: str | Path, data: np.ndarray, maxval: int) -> None:
    if data.ndim != 2:
        raise FormatError(f"expected a 2-D grid, got shape {data.shape}")
    h, w = data.shape
    header = f"P5\n{w} {h}\n{maxval}\n".encode("ascii")
    Path(path).write_bytes(header + data.astype(np.uint8).tobytes())


def read_pgm(path: str | Path) -> tuple[np.ndarray, int]:
    """Read a binary PGM; returns (grid, maxval)."""
    raw = Path(path).read_bytes()
    if not raw.startswith(b"P5"):
        raise FormatError(f"{path}: not a binary PGM file")
    # Header: magic, width, height, maxval separated by whitespace/comments.
    tokens: list[bytes] = []
    pos = 2
    while len(tokens) < 3:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if pos < len(raw) and raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FormatError(f"{path}: truncated PGM header")
        tokens.append(raw[start:pos])
    pos += 1  # single whitespace after maxval
    try:
        w, h, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise FormatError(f"{path}: bad PGM header") from exc
    if maxval > 255:
        raise FormatError(f"{path}: 16-bit PGM not supported")
    expected = w * h
    body = raw[pos : pos + expected]
    if len(body) != expected:
        raise FormatError(f"{path}: expected {expected} pixels, got {len(body)}")
    return np.frombuffer(body, dtype=np.uint8).reshape(h, w).copy(), maxval


def read_mask_pgm(path: str | Path) -> np.ndarray:
    """Read a PGM and binarize to a 0/1 uint8 mask."""
    grid, _ = read_pgm(path)
    return (grid > 0).astype(np.uint8)


def write_feature_stack(path: str | Path, features: np.ndarray) -> None:
    """Write a C x H x W real stack: RGKT header + float32 LE data."""
    arr = np.asarray(features, dtype=np.float32)
    if arr.ndim != 3:
        raise FormatError(f"expected a C x H x W stack, got shape {arr.shape}")
    c, h, w = arr.shape
    header = FEATURE_MAGIC + struct.pack("<III", c, h, w)
    Path(path).write_bytes(header + arr.astype("<f4").tobytes())


def read_feature_stack(path: str | Path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if len(raw) < 16 or raw[:4] != FEATURE_MAGIC:
        raise FormatError(f"{path}: missing RGKT header")
    c, h, w = struct.unpack("<III", raw[4:16])
    body = raw[16:]
    if len(body) != 4 * c * h * w:
        raise FormatError(f"{path}: expected {4 * c * h * w} bytes of data, got {len(body)}")
    return np.frombuffer(body, dtype="<f4").reshape(c, h, w).astype(np.float64)
