"""Run one roadkit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload labelgen --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0

Run from anywhere; the repository root is this file's parent directory. The
run generates its inputs from the seed (gen.py), runs the workload in one
fresh single-threaded worker process (worker.py), which also times roadkit's
setup in fresh interpreters, checks every output against independent oracles
(check.py) and prints a summary, then one JSON line with the metrics:
end-to-end metrics with ``--trace 0``, per-layer metrics from spans with
``--trace 1``. The full result, with the environment and the per-item
samples, goes to ``.perfbench/results/`` under the repository root.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
import check  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402

#: Thread pools pinned for the plain single-threaded baseline.
THREAD_VARS = {"ROADKIT_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: A run must end within 180 s; the worker is stopped past this.
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {"items_per_s": "1/s", "item_s_p50": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: The calibration kernel's time (worker.calibrate) that reported times are
#: scaled to: about its typical time on a 2-vCPU Intel Xeon VM, where it
#: ranged from 0.075 to 0.12 s. A shared machine's speed drifts by up to
#: about 1.8x over minutes; the kernel, timed before and after every item,
#: measures that drift beside the item, and scaling by it keeps two runs
#: comparable.
REFERENCE_CALIBRATION_S = 0.1


def scaled_item_times(samples: list[float], calibration: list[float]) -> list[float]:
    """Each item's time divided by the slowdown measured around it.

    calibration[k] was timed just before item k and calibration[k + 1] just
    after it; their mean over REFERENCE_CALIBRATION_S is the item's slowdown.
    """
    return [t * 2 * REFERENCE_CALIBRATION_S / (calibration[k] + calibration[k + 1]) for k, t in enumerate(samples)]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_VARS)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def environment(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "roadkit").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "thread_vars": THREAD_VARS,
        "seed": seed,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def check_records(workload: str, items: list[dict], records: list[dict], kept: Path) -> list[list[str]]:
    """Problems per attempt; a repeat must reproduce its input's checked output."""
    by_id = {it["id"]: it for it in items}
    checked: dict[str, tuple[str, list[str]]] = {}
    expected: dict[str, dict] = {}
    out = []
    for rec in records:
        item = by_id[rec["id"]]
        if "error" in rec:
            out.append([rec["error"].strip().splitlines()[-1]])
        elif workload == "eval-masks":
            if item["id"] not in expected:
                expected[item["id"]] = check.expected_pixel_scores(item["pred"], item["gt"], gen.RHO)
            out.append(check.check_eval_record(rec["record"], expected[item["id"]]))
        else:
            if rec.get("kept"):
                if workload == "labelgen":
                    outputs = [kept / f"{item['id']}_{kind}.pgm" for kind in ("mask", "conn")]
                    problems = check.check_labelgen(item["input"], *outputs, gen.THETA, gen.LAM)
                else:
                    problems = check.check_tiled(item["input"], kept / f"{item['id']}.npz")
                checked[item["id"]] = (rec["sha"], problems)
            sha, problems = checked[item["id"]]
            out.append(problems if rec["sha"] == sha else ["output differs from the checked output of the same input"])
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """(result line, summary lines) of one run."""
    started = time.monotonic()
    work = STATE / "work" / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        items = gen.make_inputs(workload, seed, work / "inputs")
        job = {"workload": workload, "items": items, "seconds": seconds, "trace": trace, "work_dir": str(work), "out": str(work / "result.json")}
        (work / "job.json").write_text(json.dumps(job))
        limit = RUN_LIMIT_S - (time.monotonic() - started)
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(work / "job.json")], env=child_env(), timeout=limit, stdout=subprocess.DEVNULL
        )
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {proc.returncode}")
        res = json.loads((work / "result.json").read_text())
        passes = [res["untraced"]] + ([res["traced"]] if trace else [])
        records = [r for p in passes for r in p["records"]]
        problems = check_records(workload, items, records, work / "kept")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for p in problems if p)
    untraced = res["untraced"]["samples"]
    scaled = scaled_item_times(untraced, res["untraced"]["calibration"])
    if trace:
        traced = res["traced"]
        values = spans.layer_metrics(traced["spans"], traced["counts"])
        # Both passes time the same items once; compared on scaled times.
        values["trace.overhead_frac"] = 1.0 - sum(scaled) / sum(scaled_item_times(traced["samples"], traced["calibration"]))
        metrics = {k: {"value": v, "unit": spans.unit(k)} for k, v in values.items()}
        ranking = spans.ranking(traced["spans"])
    else:
        raw = {
            "items_per_s": len(untraced) / sum(untraced),
            "item_s_p50": statistics.median(untraced),
            "setup_s": statistics.median(res["setup"]),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        # > 1 while the machine runs slower than the reference.
        slowdown = statistics.mean(res["untraced"]["calibration"]) / REFERENCE_CALIBRATION_S
        values = dict(
            raw,
            items_per_s=len(scaled) / sum(scaled),
            item_s_p50=statistics.median(scaled),
            setup_s=raw["setup_s"] / slowdown,
        )
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        ranking = []
    line = {"correct": failed == 0, "attempted": len(problems), "failed": failed, "metrics": metrics}

    report = {
        "workload": workload,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(seed),
        "setup_samples_s": res.get("setup"),
        "calibration_samples_s": {name: p["calibration"] for name, p in zip(("untraced", "traced"), passes)},
        "slowdown": None if trace else slowdown,
        "raw_metrics": None if trace else raw,
        "item_samples_s": {name: p["samples"] for name, p in zip(("untraced", "traced"), passes)},
        "item_ids": {name: [r["id"] for r in p["records"]] for name, p in zip(("untraced", "traced"), passes)},
        "item_count": len(untraced),
        "failed_frac": failed / len(problems),
        "problems": [{"id": r["id"], "problems": p} for r, p in zip(records, problems) if p],
        "result": line,
    }
    if trace:
        report.update(
            ranking_self_s=ranking,
            absent=traced["absent"],
            hook_errors=traced["hook_errors"],
            spans=traced["spans"],
            counts=traced["counts"],
        )
    (STATE / "results").mkdir(parents=True, exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S")
    (STATE / "results" / f"{workload}-seed{seed}-trace{int(trace)}-{stamp}.json").write_text(json.dumps(report, indent=1))

    summary = [f"{workload}: seed {seed}, {len(items)} inputs x {len(untraced) // len(items)} rounds timed, trace {int(trace)}"]
    if not trace:
        summary += [f"  {k:<28} {v['value']:.6g} {v['unit']}  (as timed: {raw[k]:.6g})" for k, v in metrics.items()]
        summary.append(f"  {'slowdown':<28} {slowdown:.4g} (mean calibration time / {REFERENCE_CALIBRATION_S} s)")
    else:
        summary.append("  layers by self time (s):")
        summary += [f"    {name:<34} {s:.6g}" for name, s in ranking if s > 0]
        summary += [f"  {k:<38} {v['value']:.6g} {v['unit']}" for k, v in metrics.items() if v["value"]]
        if traced["absent"]:
            summary.append(f"  absent (renamed or removed): {', '.join(traced['absent'])}")
    summary.append(f"  {'failed_frac':<28} {failed / len(problems):.6g} ({failed}/{len(problems)})")
    for entry in report["problems"][:5]:
        summary.append(f"  FAILED {entry['id']}: {'; '.join(entry['problems'])}")
    return line, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "roadkit" / "__init__.py").is_file():
        print(f"error: roadkit sources not found under {SRC}", file=sys.stderr)
        return 2
    workloads = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    for workload in workloads:
        try:
            line, summary = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(summary), flush=True)
        lines[workload] = line
    if len(lines) == 1:
        print(json.dumps(lines[workloads[0]]))
    else:
        print(json.dumps({
            "correct": all(v["correct"] for v in lines.values()),
            "attempted": sum(v["attempted"] for v in lines.values()),
            "failed": sum(v["failed"] for v in lines.values()),
            "metrics": {f"{w}.{k}": m for w, v in lines.items() for k, m in v["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
