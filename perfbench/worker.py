"""Timed pass of one benchmark workload, in a fresh single-threaded process.

run.py starts this file as ``python3 worker.py <job.json>`` with roadkit on
PYTHONPATH and every thread pool pinned to one thread. Items run one at a
time through roadkit's public entry points (closed loop), in rounds: each
round runs every input of the pool once, in order. Outputs are collected
between items, outside the timed region, and checked later by the parent
process, so scipy and the checker never load here and do not count in this
process's peak memory.

Setup probes (fresh interpreters importing roadkit) also run between items,
spread over the pass: a shared machine's speed can drift over seconds, and probes
taken in one burst would all sample the same moment.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import roadkit.cli
from roadkit import attention, losses, tiling

import gen
import spans

LABEL_ARGS = ["--width", str(gen.CANVAS), "--height", str(gen.CANVAS), "--theta", repr(gen.THETA), "--lam", repr(gen.LAM), "--node-radius", repr(gen.NODE_RADIUS)]
EVAL_ARGS = ["--rho", repr(gen.RHO)]

#: Fresh interpreters timed per end-to-end run for setup_s.
SETUP_PROBES = 16
PROBE = "import time, roadkit, roadkit.cli; print(repr(time.monotonic()))"


#: Array sorted by the calibration kernel; fixed, so every sample does the same work.
CALIBRATION_ARRAY = np.random.default_rng(0).random(400_000)


def calibrate() -> float:
    """Seconds for a fixed reference computation: a pure-Python loop and a
    numpy sort, the two kinds of work roadkit's layers do."""
    t0 = time.perf_counter()
    s = 0
    for i in range(1_200_000):
        s += i * i
    np.sort(CALIBRATION_ARRAY)
    return time.perf_counter() - t0


def _cli(argv: list[str]) -> int:
    # Looked up at call time, so a traced run reaches the rebound main.
    with contextlib.redirect_stdout(io.StringIO()):
        return roadkit.cli.main(argv)


def setup_probe() -> float:
    """Seconds from spawning an interpreter until roadkit and roadkit.cli are imported."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout) - t0


def _sha(*blobs: bytes) -> str:
    return hashlib.sha256(b"".join(blobs)).hexdigest()


class Labelgen:
    def __init__(self, work: Path) -> None:
        self.out = work / "out"
        self.kept = work / "kept"
        self.out.mkdir(parents=True, exist_ok=True)
        self.kept.mkdir(parents=True, exist_ok=True)

    def load(self, item):
        return None

    def run(self, item, data):
        return _cli(["labelgen", "--input", item["input"], "--out", str(self.out)] + LABEL_ARGS)

    def collect(self, item, rc) -> dict:
        paths = [self.out / f"{item['id']}_{kind}.pgm" for kind in ("mask", "conn")]
        if not all(p.is_file() for p in paths):
            return {"error": "labelgen wrote no output"}
        record = {"sha": _sha(*(p.read_bytes() for p in paths))}
        if not (self.kept / paths[0].name).exists():
            for p in paths:
                os.replace(p, self.kept / p.name)
            record["kept"] = True
        return record


class Eval:
    def __init__(self, work: Path) -> None:
        self.report = work / "report.json"

    def load(self, item):
        return None

    def run(self, item, data):
        return _cli(["eval", "--pred", item["pred"], "--gt", item["gt"], "--out", str(self.report)] + EVAL_ARGS)

    def collect(self, item, rc) -> dict:
        if not self.report.is_file():
            return {"error": "eval wrote no report"}
        doc = json.loads(self.report.read_text())
        self.report.unlink()
        return {"record": doc["records"][0]}


class TiledKernels:
    """plan_tiles -> ga_resblock (+ backward) per read window -> stitch -> losses."""

    def __init__(self, work: Path) -> None:
        self.kept = work / "kept"
        self.kept.mkdir(parents=True, exist_ok=True)

    def load(self, item) -> dict:
        """One item's arrays, read just before its timed call, so the worker
        holds at most one input stack besides roadkit's own working set."""
        with np.load(item["input"]) as z:
            d = dict(z)
        freqs = d["onehot"].mean(axis=(1, 2))
        d["ga"] = attention.GaParams(d["w1"], d["b1"], d["w2"], d["b2"])
        d["branch"] = attention.ResidualBranchParams(d["conv1"], d["bias1"], d["conv2"], d["bias2"])
        d["weights"] = losses.ClassWeights(tuple(1.0 / np.log(1.02 + freqs)))
        return d

    def run(self, item, d):
        c, h, w = d["features"].shape
        plan = tiling.plan_tiles(w, h, gen.TILE_PATCH, gen.TILE_STRIDE, gen.TILE_MARGIN)
        outs, d_v, d_params = [], [], []
        for tile in plan.tiles:
            x0, y0 = int(tile.read.x0), int(tile.read.y0)
            window = (slice(None), slice(y0, y0 + int(tile.read.height)), slice(x0, x0 + int(tile.read.width)))
            v = d["features"][window]
            outs.append(attention.ga_resblock(v, d["ga"], d["branch"]))
            grad_v, ga_grads, branch_grads = attention.ga_resblock_backward(v, d["ga"], d["branch"], d["upstream"][window])
            d_v.append(grad_v)
            d_params.append(np.concatenate([g.ravel() for g in (*ga_grads.values(), *branch_grads.values())]))
        stitched = np.stack([tiling.stitch(plan, [o[ch] for o in outs]) for ch in range(c)])
        iou_loss, iou_grad = losses.soft_iou_loss(d["prob"], d["onehot"])
        ce_loss, ce_grad = losses.balanced_ce_loss(d["prob"], d["onehot"], d["weights"])
        return {
            "stitched": stitched,
            "tile_out": np.stack(outs),
            "tile_dv": np.stack(d_v),
            "tile_dparams": np.stack(d_params),
            "reads": np.array([[t.read.x0, t.read.y0, t.read.width, t.read.height] for t in plan.tiles], dtype=np.int64),
            "writes": np.array([[t.write.x0, t.write.y0, t.write.width, t.write.height] for t in plan.tiles], dtype=np.int64),
            "paste": np.array([t.paste_offset for t in plan.tiles], dtype=np.int64),
            "losses": np.array([iou_loss, ce_loss]),
            "iou_grad": iou_grad,
            "ce_grad": ce_grad,
        }

    def collect(self, item, result) -> dict:
        record = {"sha": _sha(*(np.ascontiguousarray(result[k]).tobytes() for k in sorted(result)))}
        kept = self.kept / f"{item['id']}.npz"
        if not kept.exists():
            with open(kept, "wb") as fh:
                np.savez(fh, **result)
            record["kept"] = True
        return record


RUNNERS = {"labelgen": Labelgen, "eval-masks": Eval, "tiled-kernels": TiledKernels}


def timed_pass(runner, items, budget_s=None, rounds=None, tracer=None, setup=None):
    """Run the pool in rounds, items back to back.

    Returns (per-item seconds, per-item records, calibration seconds): a
    calibration sample is taken before the first item and after every item.

    With a time budget, a new round starts while the pass is expected to end
    less than half a round past the budget; with a round count, exactly that
    many run. Whole rounds weigh every input of the pool equally. When a
    setup list is given, SETUP_PROBES setup probes are appended to it,
    spread over the budget.
    """
    samples, records = [], []

    def probe_until(n):
        while setup is not None and len(setup) < min(n, SETUP_PROBES):
            setup.append(setup_probe())

    probe_until(1)
    calibration = [calibrate()]
    done = 0
    while True:
        if rounds is not None and done >= rounds:
            break
        if rounds is None and done and sum(samples) * (1 + 0.5 / done) > budget_s:
            break
        for item in items:
            data = runner.load(item)
            if tracer is not None:
                tracer.item = item["id"]
                root = tracer.open(spans.ITEM_SPAN)
            error = None
            t0 = time.perf_counter()
            try:
                result = runner.run(item, data)
            except Exception:
                result, error = None, traceback.format_exc(limit=4)
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.close(root)
            samples.append(elapsed)
            record = {"id": item["id"]}
            if error is not None:
                record["error"] = error
            elif isinstance(result, int) and result != 0:
                record["error"] = f"exit code {result}"
            else:
                try:
                    record.update(runner.collect(item, result))
                except Exception:
                    record["error"] = traceback.format_exc(limit=4)
            records.append(record)
            del data, result
            calibration.append(calibrate())
            if budget_s:
                probe_until(1 + int((SETUP_PROBES - 1) * sum(samples) / budget_s))
        done += 1
    probe_until(SETUP_PROBES)
    return samples, records, calibration


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    work = Path(job["work_dir"])
    runner = RUNNERS[job["workload"]](work)
    out: dict = {}
    if job["trace"]:
        samples, records, calibration = timed_pass(runner, job["items"], rounds=1)
        out["untraced"] = {"samples": samples, "records": records, "calibration": calibration}
        tracer = spans.Tracer()
        tracer.install()
        try:
            samples, records, calibration = timed_pass(runner, job["items"], rounds=1, tracer=tracer)
        finally:
            tracer.uninstall()
        out["traced"] = {
            "samples": samples,
            "records": records,
            "calibration": calibration,
            "spans": tracer.spans,
            "counts": dict(tracer.counts),
            "absent": tracer.absent,
            "hook_errors": tracer.hook_errors,
        }
    else:
        setup: list[float] = []
        samples, records, calibration = timed_pass(runner, job["items"], budget_s=job["seconds"], setup=setup)
        out["untraced"] = {"samples": samples, "records": records, "calibration": calibration}
        out["setup"] = setup
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(job["out"]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
