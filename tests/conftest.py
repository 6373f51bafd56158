"""Shared fixtures; synthetic graphs come from roadkit.graph.lattice_tree_graph."""

from __future__ import annotations

import numpy as np
import pytest

from roadkit.graph import lattice_tree_graph  # noqa: F401  (imported by the test modules)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
