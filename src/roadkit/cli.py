"""Command-line front end for the road-network toolkit.

Subcommands: labelgen, vectorize, eval, tile-plan, ga-forward, losscheck,
check. A JSON config file can supply any option; explicit flags win over the
config, which wins over defaults. ``ROADKIT_THREADS`` caps the worker pool.
Exit codes: 0 success, 1 validation failure, 2 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import attention, formats, labels, losses, metrics, tiling, vectorize
from .graph import (
    GraphParseError,
    GraphSchemaError,
    Window,
    crop_graph,
    lattice_tree_graph,
    parse_graph,
    serialize_graph,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2

#: Errors that fail one input file (or one eval pair) and let the batch go on.
_INPUT_ERRORS = (GraphParseError, GraphSchemaError, formats.FormatError, OSError)


@dataclass(frozen=True)
class RunConfig:
    """Merged defaults / config-file / flag settings for one invocation."""

    input: str | None = None
    pred: str | None = None
    gt: str | None = None
    out: str | None = None
    width: int = 256
    height: int = 256
    theta: float = 2.0
    lam: float = math.exp(-0.5)
    node_radius: float = 4.0
    rho: float = 3.0
    snap_radius: float = 4.0
    sample_spacing: float = 50.0
    rdp_tolerance: float = vectorize.DEFAULT_RDP_TOLERANCE
    min_spur: float = vectorize.DEFAULT_MIN_SPUR
    patch: int = tiling.DEFAULT_PATCH
    stride: int = tiling.DEFAULT_STRIDE
    margin: int = tiling.DEFAULT_MARGIN
    features: str | None = None
    weights: str | None = None
    reduction: int = 4
    trials: int = 100
    threads: int = 0  # 0 = hardware default
    seed: int = 0


def _load_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    path = getattr(args, "config", None)
    if path:
        try:
            doc = json.loads(Path(path).read_text())
        except OSError as exc:
            raise SystemExit(_io_error(f"cannot read config {path}: {exc}"))
        except json.JSONDecodeError as exc:
            raise SystemExit(_validation_error(f"bad config {path}: {exc}"))
        known = {f.name for f in fields(RunConfig)}
        unknown = set(doc) - known
        if unknown:
            raise SystemExit(_validation_error(f"unknown config keys: {sorted(unknown)}"))
        cfg = replace(cfg, **doc)
    overrides = {
        f.name: getattr(args, f.name)
        for f in fields(RunConfig)
        if getattr(args, f.name, None) is not None
    }
    return replace(cfg, **overrides)


def _io_error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_IO


def _validation_error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_VALIDATION


def _thread_count(cfg: RunConfig) -> int:
    env = os.environ.get("ROADKIT_THREADS")
    if env:
        return max(1, int(env))
    if cfg.threads > 0:
        return cfg.threads
    return max(1, os.cpu_count() or 1)


def _collect(path_str: str, suffixes: tuple[str, ...]) -> list[Path]:
    path = Path(path_str)
    if path.is_file():
        return [path]
    if path.is_dir():
        return sorted(p for p in path.iterdir() if p.suffix in suffixes)
    raise FileNotFoundError(path_str)


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _run_parallel(items, worker, threads: int) -> list:
    if threads <= 1:
        return [worker(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, items))


def _run_batch(cfg: RunConfig, command: str, suffix: str, work) -> int:
    """Run ``work(path, out_dir)`` on every ``suffix`` file under --input.

    A file whose input is malformed or unreadable is recorded as a failure
    and the batch goes on. Prints ``{"processed": n, "failed": {stem:
    error}}``; any failure makes the exit code 1.
    """
    if not cfg.input or not cfg.out:
        return _validation_error(f"{command} requires --input and --out")
    try:
        files = _collect(cfg.input, (suffix,))
    except FileNotFoundError as exc:
        return _io_error(f"input not found: {exc}")
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    def run(path: Path) -> tuple[str, str | None]:
        try:
            work(path, out_dir)
        except _INPUT_ERRORS as exc:
            return path.stem, str(exc)
        return path.stem, None

    results = sorted(_run_parallel(files, run, _thread_count(cfg)))
    failures = {stem: err for stem, err in results if err}
    _emit({"processed": len(results) - len(failures), "failed": failures}, None)
    return EXIT_VALIDATION if failures else EXIT_OK


def cmd_labelgen(cfg: RunConfig) -> int:
    params = labels.LabelParams(theta=cfg.theta, lam=cfg.lam, node_radius=cfg.node_radius)
    window = Window(0, 0, cfg.width, cfg.height)

    def work(path: Path, out_dir: Path) -> None:
        g = crop_graph(parse_graph(path.read_text()), window)
        mask, conn = labels.connectivity_label(g, cfg.width, cfg.height, params)
        formats.write_mask_pgm(out_dir / f"{path.stem}_mask.pgm", mask)
        formats.write_connectivity_pgm(out_dir / f"{path.stem}_conn.pgm", conn)

    return _run_batch(cfg, "labelgen", ".json", work)


def cmd_vectorize(cfg: RunConfig) -> int:
    def work(path: Path, out_dir: Path) -> None:
        g = vectorize.mask_to_graph(formats.read_mask_pgm(path), cfg.rdp_tolerance, cfg.min_spur)
        (out_dir / f"{path.stem}.json").write_text(serialize_graph(g))

    return _run_batch(cfg, "vectorize", ".pgm", work)


def _load_pair(pred: Path, gt: Path, cfg: RunConfig) -> dict:
    params = metrics.AplsParams(snap_radius=cfg.snap_radius, sample_spacing=cfg.sample_spacing)
    record: dict = {"id": pred.stem}
    if pred.suffix == ".pgm":
        pm = formats.read_mask_pgm(pred)
        gm = formats.read_mask_pgm(gt)
        if pm.shape != gm.shape:
            raise formats.FormatError(
                f"{pred}: mask is {pm.shape[1]}x{pm.shape[0]}, "
                f"but {gt} is {gm.shape[1]}x{gm.shape[0]}"
            )
        score = metrics.pixel_score(pm, gm, cfg.rho)
        record["iou"] = score.iou
        record["relaxed_iou"] = score.relaxed_iou
        record["rho"] = score.rho
        pg = vectorize.mask_to_graph(pm, cfg.rdp_tolerance, cfg.min_spur)
        gg = vectorize.mask_to_graph(gm, cfg.rdp_tolerance, cfg.min_spur)
        record["apls"] = metrics.apls(gg, pg, params)
    else:
        pg = parse_graph(pred.read_text())
        gg = parse_graph(gt.read_text())
        record["apls"] = metrics.apls(gg, pg, params)
    return record


def cmd_eval(cfg: RunConfig) -> int:
    if not cfg.pred or not cfg.gt:
        return _validation_error("eval requires --pred and --gt")
    try:
        pred_files = {p.stem: p for p in _collect(cfg.pred, (".pgm", ".json"))}
        gt_files = {p.stem: p for p in _collect(cfg.gt, (".pgm", ".json"))}
    except FileNotFoundError as exc:
        return _io_error(f"input not found: {exc}")
    orphans = sorted(set(pred_files) ^ set(gt_files))
    if orphans:
        return _validation_error(f"unpaired files: {orphans}")

    def score(stem: str) -> tuple[str, dict | None, str | None]:
        try:
            return stem, _load_pair(pred_files[stem], gt_files[stem], cfg), None
        except _INPUT_ERRORS as exc:
            return stem, None, str(exc)

    results = _run_parallel(sorted(pred_files), score, _thread_count(cfg))
    records = [record for _, record, _ in results if record is not None]
    failures = {stem: err for stem, _, err in results if err is not None}
    means = {}
    for key in ("iou", "relaxed_iou", "apls"):
        vals = [r[key] for r in records if key in r]
        if vals:
            means[key] = sum(vals) / len(vals)
    report = {"records": records, "means": means}
    if failures:
        report["failed"] = failures
    _emit(report, cfg.out)
    return EXIT_VALIDATION if failures else EXIT_OK


def cmd_tile_plan(cfg: RunConfig) -> int:
    try:
        plan = tiling.plan_tiles(cfg.width, cfg.height, cfg.patch, cfg.stride, cfg.margin)
    except ValueError as exc:
        return _validation_error(str(exc))
    _emit(tiling.plan_to_dict(plan), cfg.out)
    return EXIT_OK


def cmd_ga_forward(cfg: RunConfig) -> int:
    if not cfg.features:
        return _validation_error("ga-forward requires --features")
    try:
        v = formats.read_feature_stack(cfg.features)
    except (formats.FormatError, OSError) as exc:
        return _io_error(str(exc))
    if cfg.weights:
        try:
            doc = json.loads(Path(cfg.weights).read_text())
            params = attention.GaParams(
                np.asarray(doc["w1"], dtype=np.float64),
                np.asarray(doc["b1"], dtype=np.float64),
                np.asarray(doc["w2"], dtype=np.float64),
                np.asarray(doc["b2"], dtype=np.float64),
            )
        except OSError as exc:
            return _io_error(str(exc))
        except (KeyError, ValueError, json.JSONDecodeError) as exc:
            return _validation_error(f"bad weight file: {exc}")
    else:
        rng = np.random.default_rng(cfg.seed)
        params = attention.GaParams.random(v.shape[0], cfg.reduction, rng)
    try:
        out = attention.ga_module(v, params)
    except ValueError as exc:
        return _validation_error(str(exc))
    _emit(
        {
            "shape": list(out.shape),
            "input_mean": float(v.mean()),
            "output_mean": float(out.mean()),
            "output_min": float(out.min()),
            "output_max": float(out.max()),
        },
        cfg.out,
    )
    return EXIT_OK


def _loss_case(loss):
    """Trial of ``loss(pred, gt) -> (value, grad)`` on a random 3x4x4 one-hot target."""

    def trial(rng: np.random.Generator):
        pred = rng.uniform(0.05, 0.95, (3, 4, 4))
        gt = (rng.integers(0, 3, (4, 4)) == np.arange(3)[:, None, None]).astype(np.float64)
        return pred, loss(pred, gt)[1], lambda x: loss(x, gt)[0]

    return trial


def _balanced_ce(pred: np.ndarray, gt: np.ndarray):
    weights = losses.inverse_boundary_weights(gt.mean(axis=(1, 2)))
    return losses.balanced_ce_loss(pred, gt, weights)


def _ga_case(size: int, kernel):
    """Trial of an attention kernel on a random 4 x size x size input.

    ``kernel(rng)`` draws the kernel's parameters and returns its forward
    map and the input gradient of ``sum(forward(v) * probe)``.
    """

    def trial(rng: np.random.Generator):
        v = rng.uniform(-1.0, 1.0, (4, size, size))
        forward, backward = kernel(rng)
        probe = rng.uniform(-1.0, 1.0, v.shape)
        return v, backward(v, probe), lambda x: float((forward(x) * probe).sum())

    return trial


def _ga_module_kernel(rng: np.random.Generator):
    params = attention.GaParams.random(4, 2, rng)
    return (
        lambda x: attention.ga_module(x, params),
        lambda x, probe: attention.ga_backward(x, params, probe)[0],
    )


def _ga_resblock_kernel(rng: np.random.Generator):
    params = attention.GaParams.random(4, 2, rng)
    branch = attention.ResidualBranchParams.random(4, rng)
    return (
        lambda x: attention.ga_resblock(x, params, branch),
        lambda x, probe: attention.ga_resblock_backward(x, params, branch, probe)[0],
    )


def _gradient_checks(cfg: RunConfig) -> dict:
    """Worst analytic-vs-finite-difference relative error per kernel, one shared RNG."""
    rng = np.random.default_rng(cfg.seed)
    ga_trials = max(1, cfg.trials // 5)
    cases = (
        ("soft_iou", cfg.trials, _loss_case(losses.soft_iou_loss)),
        ("balanced_ce", cfg.trials, _loss_case(_balanced_ce)),
        ("ga_module", ga_trials, _ga_case(5, _ga_module_kernel)),
        ("ga_resblock", ga_trials, _ga_case(6, _ga_resblock_kernel)),
    )
    report = {}
    for name, trials, trial in cases:
        worst = 0.0
        for _ in range(trials):
            x, grad, f = trial(rng)
            worst = max(worst, losses.max_relative_error(grad, losses.finite_diff_gradient(f, x)))
        report[f"{name}_grad_max_rel_err"] = worst
    return report


def cmd_losscheck(cfg: RunConfig) -> int:
    report = _gradient_checks(cfg)
    tol = 1e-4
    report["tolerance"] = tol
    report["passed"] = all(v < tol for k, v in report.items() if k.endswith("rel_err"))
    _emit(report, cfg.out)
    return EXIT_OK if report["passed"] else EXIT_VALIDATION


def cmd_check(cfg: RunConfig) -> int:
    rng = np.random.default_rng(cfg.seed)
    report: dict = {"checks": {}}

    worst = 0.0
    for _ in range(50):
        h = int(rng.integers(4, 33))
        w = int(rng.integers(4, 33))
        mask = (rng.random((h, w)) < 0.15).astype(np.uint8)
        exact = labels.distance_map(mask)
        brute = labels.brute_force_distance_map(mask)
        finite = np.isfinite(brute)
        if finite.any():
            worst = max(worst, float(np.max(np.abs(exact[finite] - brute[finite]))))
        if not np.array_equal(np.isfinite(exact), finite):
            worst = math.inf
    report["checks"]["distance_map_max_abs_err"] = {"value": worst, "passed": worst < 1e-6}

    identical = all(
        metrics.snap_similarity(g, g) == 1.0 for g in (lattice_tree_graph(rng) for _ in range(20))
    )
    report["checks"]["apls_identity"] = {"value": identical, "passed": identical}

    grads = _gradient_checks(replace(cfg, trials=min(cfg.trials, 20)))
    for key, value in grads.items():
        report["checks"][key] = {"value": value, "passed": value < 1e-4}

    report["passed"] = all(c["passed"] for c in report["checks"].values())
    _emit(report, cfg.out)
    return EXIT_OK if report["passed"] else EXIT_VALIDATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="roadkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, *opts):
        p = sub.add_parser(name)
        p.set_defaults(func=func)
        p.add_argument("--config", help="JSON config file; flags override its fields")
        p.add_argument("--out", help="write the JSON report here instead of stdout")
        p.add_argument("--threads", type=int)
        p.add_argument("--seed", type=int)
        for args, kwargs in opts:
            p.add_argument(*args, **kwargs)
        return p

    add(
        "labelgen",
        cmd_labelgen,
        (("--input",), {"help": "graph-JSON file or directory"}),
        (("--width",), {"type": int}),
        (("--height",), {"type": int}),
        (("--theta",), {"type": float}),
        (("--lam",), {"type": float, "help": "Gaussian threshold in (0,1)"}),
        (("--node-radius",), {"type": float, "dest": "node_radius"}),
    )
    add(
        "vectorize",
        cmd_vectorize,
        (("--input",), {"help": "PGM mask file or directory"}),
        (("--rdp-tolerance",), {"type": float, "dest": "rdp_tolerance"}),
        (("--min-spur",), {"type": float, "dest": "min_spur"}),
    )
    add(
        "eval",
        cmd_eval,
        (("--pred",), {"help": "prediction file or directory (.pgm or .json)"}),
        (("--gt",), {"help": "ground-truth file or directory"}),
        (("--rho",), {"type": float}),
        (("--snap-radius",), {"type": float, "dest": "snap_radius"}),
        (("--sample-spacing",), {"type": float, "dest": "sample_spacing"}),
        (("--rdp-tolerance",), {"type": float, "dest": "rdp_tolerance"}),
        (("--min-spur",), {"type": float, "dest": "min_spur"}),
    )
    add(
        "tile-plan",
        cmd_tile_plan,
        (("--width",), {"type": int}),
        (("--height",), {"type": int}),
        (("--patch",), {"type": int}),
        (("--stride",), {"type": int}),
        (("--margin",), {"type": int}),
    )
    add(
        "ga-forward",
        cmd_ga_forward,
        (("--features",), {"help": "RGKT feature-stack file"}),
        (("--weights",), {"help": "JSON weight file with w1/b1/w2/b2"}),
        (("--reduction",), {"type": int}),
    )
    add("losscheck", cmd_losscheck, (("--trials",), {"type": int}))
    add("check", cmd_check, (("--trials",), {"type": int}))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_VALIDATION
    return args.func(cfg)


if __name__ == "__main__":
    sys.exit(main())
