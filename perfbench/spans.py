"""Per-layer spans for the roadkit benchmark, recorded from outside the library.

``Tracer.install`` rebinds each traced public function of roadkit (the module
attribute, and every other roadkit module attribute bound to the same object,
such as names imported with ``from .graph import parse_graph``) to a wrapper
that records a span. Nothing in the library changes. Spans stay in memory as
``[name, start_ns, end_ns, parent_index, item_id]`` until the run ends.

A function that no longer exists is recorded as absent instead of raising, so
renaming or removing a public function does not break the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import time
from collections import defaultdict

import numpy as np

#: Public functions traced, by roadkit module.
LAYERS = {
    "cli": ("main",),
    "graph": ("parse_graph", "crop_graph"),
    "labels": ("rasterize_centerline", "distance_map", "gaussian_heatmap", "connectivity_label"),
    "formats": ("read_mask_pgm", "write_mask_pgm", "write_connectivity_pgm"),
    "vectorize": ("skeletonize", "skeleton_to_graph", "prune_hanging", "simplify_graph"),
    "metrics": ("iou", "relaxed_iou", "build_control_points", "snap_similarity", "apls"),
    "tiling": ("plan_tiles", "stitch"),
    "attention": ("conv3x3", "ga_module", "ga_resblock", "ga_resblock_backward"),
    "losses": ("soft_iou_loss", "balanced_ce_loss"),
}

#: Span around one benchmark item; its self time is harness glue.
ITEM_SPAN = "item"

#: Span around the counting hooks, so their cost is not charged to a layer.
HOOK_SPAN = "trace.hooks"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.hook_errors: dict[str, str] = {}
        self.item: str | None = None
        self._open: list[tuple[int, tuple, dict]] = []  # (span index, args, kwargs)
        self._restore: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def open(self, name: str, args: tuple = (), kwargs: dict | None = None) -> int:
        parent = self._open[-1][0] if self._open else None
        self.spans.append([name, time.perf_counter_ns(), None, parent, self.item])
        idx = len(self.spans) - 1
        self._open.append((idx, args, kwargs or {}))
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        popped = self._open.pop()
        if popped[0] != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    def enclosing(self, *names: str):
        """(name, args, kwargs) of the innermost open span among names, or None."""
        for idx, args, kwargs in reversed(self._open):
            if self.spans[idx][0] in names:
                return self.spans[idx][0], args, kwargs
        return None

    # -- rebinding ----------------------------------------------------------

    def install(self) -> None:
        for module_name, functions in LAYERS.items():
            module = importlib.import_module(f"roadkit.{module_name}")
            for fn_name in functions:
                name = f"{module_name}.{fn_name}"
                original = getattr(module, fn_name, None)
                if not callable(original):
                    self.absent.append(name)
                    continue
                wrapper = self._wrap(name, original, HOOKS.get(name))
                for other_name, other in list(sys.modules.items()):
                    if other is None or not (other_name == "roadkit" or other_name.startswith("roadkit.")):
                        continue
                    for attr, value in list(vars(other).items()):
                        if value is original:
                            setattr(other, attr, wrapper)
                            self._restore.append((other, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name, args, kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if hook is not None:
                h = tracer.open(HOOK_SPAN)
                try:
                    hook(tracer, args, kwargs, result)
                except Exception as exc:  # a changed return type must not stop the run
                    tracer.hook_errors.setdefault(name, repr(exc))
                finally:
                    tracer.close(h)
            return result

        return traced


# -- counting hooks: run after the traced call, inside a HOOK_SPAN ----------


def _arg(args, kwargs, pos, name, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def _distance_map(tr, args, kwargs, d):
    d = np.asarray(d)
    tr.counts["labels.edt_px"] += d.size
    owner = tr.enclosing("labels.connectivity_label", "metrics.relaxed_iou")
    if owner is None:
        return
    name, a, kw = owner
    if name == "labels.connectivity_label":
        params = _arg(a, kw, 3, "params") or sys.modules["roadkit.labels"].LabelParams()
        # exp(-d^2 / 2 theta^2) >= lam  <=>  d <= theta * sqrt(-2 ln lam)
        radius, prefix = params.theta * math.sqrt(-2.0 * math.log(params.lam)), "labels.band"
    else:
        radius, prefix = _arg(a, kw, 2, "rho"), "metrics.rho_band"
    tr.counts[prefix + "_px"] += int(np.count_nonzero(d <= radius))
    tr.counts[prefix + "_of_px"] += d.size


def _build_control_points(tr, args, kwargs, g):
    n = len(g.nodes)
    tr.counts["metrics.control_points"] += n
    if tr.enclosing("metrics.snap_similarity"):
        tr.counts["metrics.pairs"] += n * (n - 1) // 2


def _add(key, measure):
    """A hook adding measure(args, kwargs, result) to one counter."""

    def hook(tr, args, kwargs, result):
        tr.counts[key] += measure(args, kwargs, result)

    return hook


def _file_mb(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 0, "path")) / 1e6


def _conv3x3(tr, args, kwargs, out):
    v = np.asarray(_arg(args, kwargs, 0, "v"))
    weights = np.asarray(_arg(args, kwargs, 1, "weights"))
    c_in, h, w = v.shape
    c_out = weights.shape[0]
    tr.counts["attention.conv3x3.flop"] += 2 * c_out * c_in * 9 * h * w
    # Computed compulsory traffic in float64: read input, weights and bias,
    # write output. Cache misses are not measured.
    tr.counts["attention.conv3x3.bytes"] += 8 * (c_in * h * w + weights.size + c_out + c_out * h * w)


def _plan_tiles(tr, args, kwargs, plan):
    tr.counts["tiling.tiles"] += len(plan.tiles)
    tr.counts["tiling.read_px"] += sum(t.read.width * t.read.height for t in plan.tiles)
    tr.counts["tiling.image_px"] += plan.width * plan.height


HOOKS = {
    "labels.distance_map": _distance_map,
    "metrics.build_control_points": _build_control_points,
    "metrics.snap_similarity": _add(
        "metrics.prop_segments", lambda a, kw, r: sum(len(e.polyline) - 1 for e in _arg(a, kw, 1, "prop").edges)
    ),
    "vectorize.skeletonize": _add("vectorize.skeleton_px", lambda a, kw, skel: int(np.count_nonzero(skel))),
    "vectorize.skeleton_to_graph": _add("vectorize.traced_edges", lambda a, kw, g: len(g.edges)),
    "vectorize.prune_hanging": _add(
        "vectorize.pruned_edges", lambda a, kw, g: len(_arg(a, kw, 0, "g").edges) - len(g.edges)
    ),
    "graph.crop_graph": _add("graph.boundary_nodes", lambda a, kw, g: len(g.boundary_nodes)),
    "formats.write_mask_pgm": _add("formats.mb_written", _file_mb),
    "formats.write_connectivity_pgm": _add("formats.mb_written", _file_mb),
    "formats.read_mask_pgm": _add("formats.mb_read", _file_mb),
    "attention.conv3x3": _conv3x3,
    "tiling.plan_tiles": _plan_tiles,
}


# -- derivation -------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Per span, its duration in seconds minus the part its children cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0
        reach = start
        for c in sorted(children[i], key=lambda c: spans[c][1]):
            c_start, c_end = max(spans[c][1], reach), min(spans[c][2], end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start - covered) / 1e9)
    return out


def self_time_by_name(spans: list[list]) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    for span, s in zip(spans, self_times(spans)):
        totals[span[0]] += s
    return dict(totals)


def layer_metrics(spans: list[list], counts: dict[str, float]) -> dict[str, float]:
    """Per-layer metric values derived from one traced pass."""
    selfs = self_time_by_name(spans)
    inclusive: dict[str, float] = defaultdict(float)
    for name, start, end, _, _ in spans:
        inclusive[name] += (end - start) / 1e9
    out = {}
    for module_name, functions in LAYERS.items():
        for fn_name in functions:
            out[f"{module_name}.{fn_name}.self_s"] = selfs.get(f"{module_name}.{fn_name}", 0.0)

    def ratio(num, den):
        return counts.get(num, 0.0) / counts[den] if counts.get(den) else 0.0

    out["labels.edt_mpix"] = counts.get("labels.edt_px", 0.0) / 1e6
    out["labels.band_frac"] = ratio("labels.band_px", "labels.band_of_px")
    out["metrics.rho_band_frac"] = ratio("metrics.rho_band_px", "metrics.rho_band_of_px")
    for key in ("metrics.control_points", "metrics.pairs", "metrics.prop_segments",
                "vectorize.skeleton_px", "vectorize.traced_edges", "vectorize.pruned_edges",
                "graph.boundary_nodes", "formats.mb_written", "formats.mb_read", "tiling.tiles"):
        out[key] = counts.get(key, 0.0)
    snap_s = inclusive.get("metrics.snap_similarity", 0.0)
    out["metrics.pairs_per_s"] = counts.get("metrics.pairs", 0.0) / snap_s if snap_s else 0.0
    out["tiling.read_overhead"] = ratio("tiling.read_px", "tiling.image_px")
    flop = counts.get("attention.conv3x3.flop", 0.0)
    conv_s = selfs.get("attention.conv3x3", 0.0)
    out["attention.conv3x3.gflop"] = flop / 1e9
    out["attention.conv3x3.gflop_s"] = flop / 1e9 / conv_s if conv_s else 0.0
    out["attention.conv3x3.flop_per_byte"] = ratio("attention.conv3x3.flop", "attention.conv3x3.bytes")
    return out


def ranking(spans: list[list]) -> list[tuple[str, float]]:
    """Span names by total self time, largest first."""
    return sorted(self_time_by_name(spans).items(), key=lambda kv: -kv[1])


_UNITS = {
    "labels.edt_mpix": "Mpx",
    "formats.mb_written": "MB",
    "formats.mb_read": "MB",
    "metrics.pairs_per_s": "1/s",
    "attention.conv3x3.gflop": "GFLOP",
    "attention.conv3x3.gflop_s": "GFLOP/s",
    "attention.conv3x3.flop_per_byte": "FLOP/B",
}


def unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith(("_frac", "read_overhead")):
        return "ratio"
    return _UNITS.get(name, "count")
