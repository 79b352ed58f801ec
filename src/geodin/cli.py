"""Command-line surface: train, detect, calibrate, splits, report-merge.

Every command is deterministic given its inputs and seed.  Exit codes:
0 success, 2 configuration error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .bench import ShiftSpec, concept_split, corrupt, make_concept_groups, make_task, sweep
from .calibrate import calibrate
from .config import RunConfig, load_run_config
from .errors import ConfigError, DataError, GeodinError, NumericError
from .persist import load_model, parse_embeddings, read_report, save_model, write_report
from .train import accuracy, train


def _build_task(cfg: RunConfig, seed: int):
    t = cfg.task
    return make_task(
        t.k, t.d_in, t.n_per_class, t.noise, seed, val_frac=t.val_frac, test_frac=t.test_frac
    )


def _load_cfg(args) -> RunConfig:
    seed = [] if args.seed is None else [f"task.seed={args.seed}"]
    return load_run_config(args.config, [*(args.set or []), *seed])


def _load_checkpoint_run(args):
    """Config, checkpoint, seed and task for a command that reads a checkpoint.

    The seed is ``--seed`` if given, else the one the checkpoint was trained with.
    A checkpoint whose "trained" flag is clear is a data error.
    """
    cfg = _load_cfg(args)
    model = load_model(args.checkpoint)
    if not model.meta["trained"]:
        raise DataError(f"{args.checkpoint}: checkpoint holds an untrained model")
    d_in, k = model.extractor.d_in, model.head.n_classes
    if d_in != cfg.task.d_in or k != cfg.task.k:
        raise ConfigError(
            f"checkpoint expects d_in={d_in}, k={k} "
            f"but config declares d_in={cfg.task.d_in}, k={cfg.task.k}"
        )
    seed = args.seed if args.seed is not None else model.meta["seed"]
    return cfg, model, seed, _build_task(cfg, seed)


def _sibling(path: Path, suffix: str) -> Path:
    return path.parent / (path.stem + suffix)


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    task = _build_task(cfg, cfg.task.seed)
    model = train(cfg.train.config(cfg.task.seed), task.train, n_classes=cfg.task.k)
    # Computed before any file is written, so a numeric failure leaves none.
    train_acc = accuracy(model, *task.train)
    test_acc = accuracy(model, *task.test)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_model(model, out)
    log_path = _sibling(out, ".train_log.csv")
    with open(log_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "mean_loss", "lr"])
        for row in model.history:
            writer.writerow([row["epoch"], f"{row['mean_loss']:.6g}", f"{row['lr']:.6g}"])
    _sibling(out, ".config.json").write_text(json.dumps(cfg.to_dict(), indent=2) + "\n", encoding="utf-8")
    print(f"trained {model.head.variant.value} model: train acc {train_acc:.4f}, test acc {test_acc:.4f}")
    print(f"checkpoint: {out}")
    print(f"training log: {log_path}")
    return 0


def cmd_detect(args) -> int:
    cfg, model, _, task = _load_checkpoint_run(args)
    t, shifts = cfg.task, cfg.shifts.config()
    groups = None
    if shifts.concept:
        groups = make_concept_groups(
            task, t.concept_groups, t.concept_classes_per_group, t.concept_n_per_class, t.concept_similarities
        )
    report = sweep(model, task, shifts.scores, shifts.specs(t.concept_groups), groups)
    report.config = cfg.to_dict()
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    csv_path, json_path = out.with_suffix(".csv"), out.with_suffix(".json")
    write_report(report, csv_path, "csv")
    write_report(report, json_path, "json")
    print(f"wrote {len(report.rows)} rows to {csv_path} and {json_path}")
    return 0


def cmd_calibrate(args) -> int:
    cfg, model, seed, task = _load_checkpoint_run(args)
    val = task.val
    if cfg.calibrate.shift_severity:  # validated: 1..5 only with a covariate shift_kind
        val = corrupt(val, ShiftSpec(cfg.calibrate.shift_kind, cfg.calibrate.shift_severity), seed)
    new_model, report = calibrate(model, val, cfg.calibrate.config(seed), eval_sets={"test": task.test})
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_model(new_model, out)
    doc = report.to_dict()
    doc["config"] = cfg.to_dict()
    report_path = _sibling(out, ".calibration.json")
    report_path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    before = report.splits["val"]["before"]
    after = report.splits["val"]["after"]
    print(
        f"tuning split: ECE {before.ece:.4f} -> {after.ece:.4f}, "
        f"NLL {report.nll_before:.4f} -> {report.nll_after:.4f} (best epoch {report.best_epoch})"
    )
    print(f"calibrated checkpoint: {out}")
    print(f"report: {report_path}")
    return 0


def _read_names(path) -> list[str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not a UTF-8 names file ({exc})") from None
    names = [name for line in text.splitlines() if (name := line.split("#", 1)[0].strip())]
    if not names:
        raise DataError(f"no class names in {path}")
    return names


def cmd_splits(args) -> int:
    embeddings = parse_embeddings(args.embeddings)
    id_names = _read_names(args.id_names)
    ood_names = _read_names(args.ood_names)
    groups = concept_split(id_names, ood_names, embeddings, args.n_groups)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group", "class", "similarity", "group_mean", "group_std"])
        for g in groups:
            for name, sim in zip(g.names, g.similarities):
                writer.writerow([g.index, name, f"{sim:.6g}", f"{g.mean:.6g}", f"{g.std:.6g}"])
    for g in groups:
        print(f"group {g.index}: mean {g.mean:.4f} std {g.std:.4f} ({', '.join(g.names)})")
    print(f"split table: {out}")
    return 0


def cmd_report_merge(args) -> int:
    merged = None
    for path in args.inputs:
        part = read_report(path)
        if merged is None:
            merged = part
        else:
            merged.rows.extend(part.rows)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    fmt = "json" if out.suffix.lower() == ".json" else "csv"
    write_report(merged, out, fmt)
    print(f"merged {len(args.inputs)} reports ({len(merged.rows)} rows) into {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geodin",
        description="Train decomposed-head classifiers, benchmark shift detection, calibrate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed_help="override the config seed"):
        p.add_argument("--config", type=Path, default=None, help="run configuration file")
        p.add_argument(
            "--set",
            action="append",
            metavar="SECTION.KEY=VALUE",
            help="override one config value (repeatable)",
        )
        p.add_argument("--seed", type=int, default=None, help=seed_help)

    p = sub.add_parser("train", help="train a model on the configured synthetic task")
    common(p)
    p.add_argument("--out", type=Path, required=True, help="checkpoint output path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("detect", help="run the shifted-detection sweep for a checkpoint")
    common(p, "override the task seed (default: the checkpoint's seed)")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True, help="report path stem (.csv/.json added)")
    p.add_argument("--jobs", type=int, default=1, help="accepted and ignored; the sweep runs in one thread")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("calibrate", help="retune the alpha/beta head on the validation split")
    common(p, "override the task seed (default: the checkpoint's seed)")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True, help="calibrated checkpoint output path")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("splits", help="group held-out class names by embedding similarity")
    p.add_argument("--embeddings", type=Path, required=True, help="token/vector text file")
    p.add_argument("--id-names", type=Path, required=True, help="file of in-distribution class names")
    p.add_argument("--ood-names", type=Path, required=True, help="file of held-out class names")
    p.add_argument("--n-groups", type=int, default=10)
    p.add_argument("--out", type=Path, required=True, help="split table CSV path")
    p.set_defaults(func=cmd_splits)

    p = sub.add_parser("report-merge", help="concatenate detection reports")
    p.add_argument("inputs", nargs="+", type=Path)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_report_merge)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except GeodinError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
