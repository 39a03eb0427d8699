"""Command-line entry point.

Subcommands: ``synth`` (seeded synthetic datasets), ``preprocess`` (KITTI
scans + poses into pair files, read frame by frame), ``train``, ``match``
(single-pair inference) and ``eval`` (matcher comparison report). Every
behavioral toggle carries a flag, and each command echoes its effective
configuration into the output directory so a run is reproducible from the
echo alone. Datasets are written a pair at a time with the manifest last, so
a command that fails part-way leaves no manifest.

Each command takes only the model flags it reads, and :func:`_hyper` turns
them into ``HyperParams``. A fresh ``train`` reads the key-point counts and
the pillar capacity from its dataset's first pair, a resumed one from its
checkpoint. ``train``'s run flags replace the fields of the ``TrainRun`` that
``learn.load_run`` reads from its ``--resume`` checkpoint, or of
``TrainRun()`` on a fresh run.

Exit codes: 0 success, 2 usage/config error, 3 data or format error,
4 numeric error. Relative output paths resolve under $PILLARMATCH_RUN_ROOT
when that variable is set.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

from . import cloud, learn, pairio, register, transport
from .cloud import (
    SCAN_RECORD_BYTES,
    FramePair,
    SceneConfig,
    generate_synthetic_pair,
    load_kitti_poses,
    load_kitti_scan,
)
from .container import is_count
from .errors import (
    ArgumentError,
    ConfigError,
    FormatError,
    NumericError,
    PillarMatchError,
)
from .network import HYPER_CHOICES, HyperParams, load_checkpoint
from .pipeline import match_pair

RUN_ROOT_ENV = "PILLARMATCH_RUN_ROOT"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _resolve(path: str) -> Path:
    p = Path(path)
    root = os.environ.get(RUN_ROOT_ENV)
    if root and not p.is_absolute():
        return Path(root) / p
    return p


# HyperParams fields whose model flag has another name; every other field is
# the flag of its own name, and each flag takes its type from HyperParams()
# and its choices from HYPER_CHOICES
_HYPER_FLAG = {"src_keypoints": "keypoints", "tgt_keypoints": "keypoints",
               "attention_heads": "heads", "attention_layers": "layers",
               "sinkhorn_iterations": "sinkhorn_iters"}
# the SceneConfig fields synth sets, with their flags
_SCENE_FLAG = {"point_count": "points", "overlap": "overlap", "rotation_bound": "rotation_bound",
               "translation_bound": "translation_bound", "noise_sigma": "noise"}
# TrainRun fields the run flags of train set, with their flags; --nllp-penalty
# names nllp_penalty_excludes_dustbin by its index in _NLLP_PENALTY
_RUN_FLAG = {"epochs": "epochs", "batch_size": "batch_size", "seed": "seed", "loss_kind": "loss",
             "learning_rate": "learning_rate", "nllp_penalty_excludes_dustbin": "nllp_penalty"}
_NLLP_PENALTY = ("with-dustbin", "rows-only")
_FLAG_HELP = {
    "keypoints": "key-points per cloud", "pillar_points": "max points per pillar",
    "pillar_radius": "pillar radius in meters",
    "positional_hidden": "comma-separated hidden widths of the positional MLP",
}


def _add_flags(group, defaults: dict, unset: bool = False) -> None:
    """One flag per ``dest: default`` item: a switch for a bool default, else
    a flag of the default's type and the dest's HYPER_CHOICES, if any. With
    ``unset``, each flag parses to None when left out."""
    for dest, default in defaults.items():
        if isinstance(default, bool):
            kind = {"action": "store_true"}
        else:
            kind = {"type": type(default), "choices": HYPER_CHOICES.get(dest)}
        group.add_argument("--" + dest.replace("_", "-"), default=None if unset else default,
                           help=_FLAG_HELP.get(dest), **kind)


def _add_label_flags(parser: argparse.ArgumentParser) -> None:
    g = parser.add_argument_group("labeling")
    _add_flags(g, {"match_radius": cloud.DEFAULT_MATCH_RADIUS,
                   "unmatch_radius": cloud.DEFAULT_UNMATCH_RADIUS,
                   "neighborhood_size": cloud.DEFAULT_NEIGHBORHOOD})
    g.add_argument("--min-separation", type=float, default=None,
                   help="optional minimum spacing between selected key-points")


def _hyper(args, base: HyperParams) -> HyperParams:
    """``base`` with each field replaced whose model flag in ``args`` holds a value."""
    given = {f.name: getattr(args, _HYPER_FLAG.get(f.name, f.name), None) for f in fields(base)}
    widths = given["positional_hidden"]
    try:
        if widths is not None:
            given["positional_hidden"] = tuple(int(v) for v in widths.split(",") if v)
    except ValueError:
        raise ConfigError("--positional-hidden must be a comma list of integers, "
                          f"got {widths!r}") from None
    return replace(base, **{name: v for name, v in given.items() if v is not None})


def _hyper_flags(hyper: HyperParams) -> dict:
    """The model flags' values, by ``args`` name, that :func:`_hyper` turns
    back into the fields of ``hyper``."""
    flags = {}
    for f in fields(hyper):
        value = getattr(hyper, f.name)
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        flags[_HYPER_FLAG.get(f.name, f.name)] = value
    return flags


def _load_config_defaults(parser, argv):
    """Apply --config JSON values as defaults of the invoked subcommand.

    Subcommands parse into a fresh namespace, so the values must land on the
    subparser's own actions; explicit command-line flags still win. A
    command's own ``config.json`` echo is accepted as is: its ``command``
    must name the invoked subcommand and its ``config_version`` must be 1.
    A required flag the file gives a value is no longer required on the
    command line.
    """
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config", type=str, default=None)
    known, rest = probe.parse_known_args(argv)
    if not known.config:
        return
    path = Path(known.config)
    if not path.exists():
        raise FormatError(f"config file {path} does not exist")
    try:
        values = json.loads(path.read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: invalid config json: {exc}") from None
    if not isinstance(values, dict):
        raise ConfigError(f"{path}: config must be a JSON object of flag values")
    subparsers = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    command = next((tok for tok in rest if tok in subparsers.choices), None)
    if command is None:
        raise ConfigError("--config requires a subcommand")
    echoed = values.pop("command", command)
    if echoed != command:
        raise ConfigError(f"{path}: config is for command {echoed!r}, not {command!r}")
    version = values.pop("config_version", 1)
    if not (is_count(version) and version == 1):
        raise ConfigError(f"{path}: config_version must be 1, got {version!r}")
    sub = subparsers.choices[command]
    actions = {a.dest: a for a in sub._actions}
    unknown = set(values) - set(actions)
    if unknown:
        raise ConfigError(f"unknown config keys for {command!r}: {sorted(unknown)}")
    for dest, value in values.items():
        if not _flag_accepts(actions[dest], value):
            raise ConfigError(f"{path}: {dest} cannot be {value!r}")
        if value is not None:
            actions[dest].required = False
    sub.set_defaults(**values)


def _flag_accepts(action, value) -> bool:
    """Whether ``value`` is one that ``action``'s flag parses to: a string is
    parsed as on the command line, and ``None`` fits only a ``None`` default."""
    if value is None:
        return action.default is None
    if action.nargs == 0:
        return isinstance(value, bool)
    kind = action.type or str
    if isinstance(value, str):
        try:
            value = kind(value)
        except ValueError:
            return False
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        return False
    return action.choices is None or value in action.choices


def _args_echo(args) -> dict:
    # the output path is where the echo lives, not part of what it describes;
    # leaving it out keeps equal-config runs byte-identical
    skip = ("func", "config", "out")
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _output_file(path: str) -> Path:
    """The resolved ``path``, with its parent directory made."""
    p = _resolve(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    return p


def _echo_config(directory: Path, command: str, args) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    payload = {"config_version": 1, "command": command}
    payload.update(_args_echo(args))
    (directory / "config.json").write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _preprocess(frame: FramePair, hyper: HyperParams, args, meta: dict | None = None):
    """Preprocess one frame pair with the labeling flags of ``args``."""
    return pairio.preprocess_pair(
        frame,
        hyper,
        match_radius=args.match_radius,
        unmatch_radius=args.unmatch_radius,
        neighborhood_size=args.neighborhood_size,
        min_separation=args.min_separation,
        meta=meta,
    )


def _parse_distances(text: str) -> list[int]:
    """``--distances``: a non-empty comma list of distinct frame distances >= 1."""
    try:
        distances = [int(v) for v in text.split(",") if v]
    except ValueError:
        distances = []
    if not distances or min(distances) < 1 or len(set(distances)) < len(distances):
        raise ConfigError(
            f"--distances must be a comma list of distinct integers >= 1, got {text!r}"
        )
    return distances


def _check_pair_shapes(source: str, pairs, hyper: HyperParams) -> None:
    """Pairs read from ``source``, a pair file or a dataset, must have the
    key-point counts and the pillar capacity of the model."""
    for index, pair in enumerate(pairs):
        n, m = len(pair.src_keypoints), len(pair.tgt_keypoints)
        if (n, m) != (hyper.src_keypoints, hyper.tgt_keypoints):
            raise ConfigError(f"{source}: pair {index} has {n}/{m} key-points (source/target) "
                              f"but the model expects {hyper.src_keypoints}/{hyper.tgt_keypoints}")
        src, tgt = pair.src_pillars.capacity, pair.tgt_pillars.capacity
        if src != hyper.pillar_points or tgt != hyper.pillar_points:
            raise ConfigError(f"{source}: pair {index} has pillar capacity {src}/{tgt} "
                              f"(source/target) but the model expects {hyper.pillar_points}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    if args.num_pairs < 0:
        raise ConfigError(f"--num-pairs must be >= 0, got {args.num_pairs}")
    out = _resolve(args.out)
    hyper = _hyper(args, HyperParams())
    scene = SceneConfig(**{name: getattr(args, flag) for name, flag in _SCENE_FLAG.items()})
    with pairio.dataset_writer(out, _args_echo(args)) as write:
        for k in range(args.num_pairs):
            frame = generate_synthetic_pair(args.seed + k, scene)
            meta = {"seed": args.seed + k, "generator": "synthetic"}
            write(k, _preprocess(frame, hyper, args, meta))
    _echo_config(out, "synth", args)
    print(f"wrote {args.num_pairs} pairs to {out}")
    return EXIT_OK


def cmd_preprocess(args) -> int:
    """Pairs of the scans ``d`` frames apart for each ``d`` of ``--distances``.

    The scans are read once, in order. The key-points and pillars of each
    frame some pair uses are built once, and only they stay in a window of
    the last ``max(distances) + 1`` frames; each pair is written as soon as
    its later frame is read. Names stay distance-major: distance ``d`` at
    list position ``k`` names pair ``(i, i + d)`` ``pair_{offset + i:05d}``,
    where ``offset`` counts the pairs of positions before ``k``.
    """
    out = _resolve(args.out)
    hyper = _hyper(args, HyperParams())
    distances = _parse_distances(args.distances)
    scan_dir = Path(args.scans)
    scan_files = sorted(scan_dir.glob("*.bin"))
    if not scan_files:
        raise FormatError(f"no .bin scans found in {scan_dir}")
    poses = load_kitti_poses(args.poses)
    if len(poses) < len(scan_files):
        raise FormatError(
            f"{len(scan_files)} scans but only {len(poses)} poses; every scan needs a pose"
        )
    for path in scan_files:
        size = path.stat().st_size
        if size % SCAN_RECORD_BYTES:
            raise FormatError(f"{path}: {size} bytes is not a multiple of {SCAN_RECORD_BYTES}")
    frames = len(scan_files)
    pair_counts = [max(0, frames - d) for d in distances]
    offsets = list(itertools.accumulate(pair_counts, initial=0))
    for distance, count in zip(distances, pair_counts):
        if count == 0:
            print(f"warning: distance {distance} produced 0 pairs", file=sys.stderr)
    nearest, reach = min(distances), max(distances)
    window = {}  # frame index -> PillarSet, for the frames some pair uses
    with pairio.dataset_writer(out, _args_echo(args)) as write:
        for j, path in enumerate(scan_files):
            cloud = load_kitti_scan(path, frame_id=path.stem)
            # --keypoints gives source and target one count, so one build serves both roles
            if j + nearest < frames or j >= nearest:
                window[j] = pairio.preprocess_frame(cloud, hyper.src_keypoints, hyper,
                                                    args.neighborhood_size, args.min_separation)
            # the window keeps pillars only: the cloud and its tree go before the next load
            del cloud
            for k, distance in enumerate(distances):
                i = j - distance
                if i >= 0:
                    frame = FramePair(
                        source=window[i],
                        target=window[j],
                        gt_transform=poses[j].inverse().compose(poses[i]),
                        frame_distance=distance,
                    )
                    write(offsets[k] + i, _preprocess(frame, hyper, args))
            window.pop(j - reach, None)
    _echo_config(out, "preprocess", args)
    print(f"wrote {offsets[-1]} pairs to {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    run_dir = _resolve(args.out)
    pairs = pairio.load_dataset(_resolve(args.data))
    learn.check_training_pairs(pairs)
    params = optimizer = None
    base, start_epoch = learn.TrainRun(), 0
    if args.resume:
        params, meta, extras = load_checkpoint(_resolve(args.resume))
        hyper = params.hyper
        # the network is the checkpoint's: a model flag that would change it is refused
        resumed, kept = _hyper(args, hyper), _hyper_flags(hyper)
        clash = {_HYPER_FLAG.get(f.name, f.name) for f in fields(hyper)
                 if getattr(resumed, f.name) != getattr(hyper, f.name)}
        if clash:
            raise ConfigError("; ".join(
                f"--{flag.replace('_', '-')} {getattr(args, flag)} differs from the "
                f"checkpoint's {kept[flag]}" for flag in kept if flag in clash
            ) + ", which --resume keeps")
        optimizer = learn.load_optimizer(meta, extras, params.named_parameters())
        base, start_epoch = learn.load_run(meta)
    else:
        # a fresh network takes its shape from the dataset's first pair
        hyper = _hyper(args, HyperParams(src_keypoints=len(pairs[0].src_keypoints),
                                         tgt_keypoints=len(pairs[0].tgt_keypoints),
                                         pillar_points=pairs[0].src_pillars.capacity))
    vars(args).update((flag, v) for flag, v in _hyper_flags(hyper).items() if hasattr(args, flag))
    _check_pair_shapes(args.data, pairs, hyper)
    given = {name: getattr(args, flag) for name, flag in _RUN_FLAG.items()}
    if args.nllp_penalty is not None:
        given["nllp_penalty_excludes_dustbin"] = args.nllp_penalty == "rows-only"
    run = replace(base, dataset_id=str(args.data), max_steps=args.max_steps,
                  checkpoint_every=args.checkpoint_every,
                  **{name: value for name, value in given.items() if value is not None})
    vars(args).update({flag: getattr(run, name) for name, flag in _RUN_FLAG.items()},
                      nllp_penalty=_NLLP_PENALTY[run.nllp_penalty_excludes_dustbin])
    _echo_config(run_dir, "train", args)

    def log(record):
        print(
            f"epoch {record['epoch']:4d}  loss {record['loss']:.4f}  "
            f"precision {record['precision']:.3f}  accuracy {record['accuracy']:.3f}"
        )

    result = learn.train(
        pairs, run, hyper, params=params, optimizer=optimizer,
        start_epoch=start_epoch, run_dir=run_dir, log=log,
    )
    print(f"finished after {result.steps} steps; checkpoints in {run_dir}")
    return EXIT_OK


def cmd_match(args) -> int:
    if args.timing_runs < 0:
        raise ConfigError(f"--timing-runs must be >= 0, got {args.timing_runs}")
    params, meta, _ = load_checkpoint(_resolve(args.checkpoint))
    params.hyper = _hyper(args, params.hyper)
    pair = pairio.read_pair(_resolve(args.pair))
    _check_pair_shapes(args.pair, [pair], params.hyper)
    result = match_pair(params, pair)
    report = {
        "pair": str(args.pair),
        "num_matches": len(result.matches.pairs),
        "matches": [
            {"i": i, "j": j, "confidence": conf} for i, j, conf in result.matches.pairs
        ],
        "unmatched_rows": list(result.matches.unmatched_rows),
        "unmatched_cols": list(result.matches.unmatched_cols),
    }
    if pair.labels.matched:
        report["matching_score"] = register.matching_score(result.matches, pair.labels)
    if args.timing_runs:
        start = time.perf_counter()
        for _ in range(args.timing_runs):
            match_pair(params, pair)
        elapsed = time.perf_counter() - start
        report["mean_forward_ms"] = 1000.0 * elapsed / args.timing_runs
    if args.dump_assignment:
        transport.write_assignment_csv(_output_file(args.dump_assignment), result.assignment)
        report["assignment_csv"] = str(args.dump_assignment)
    if args.plot_export:
        _write_plot_export(_output_file(args.plot_export), pair, result)
        report["plot_export"] = str(args.plot_export)
    output = json.dumps(report, indent=2, sort_keys=True)
    if args.report:
        _output_file(args.report).write_text(output + "\n")
    print(output)
    return EXIT_OK


def _write_plot_export(path: Path, pair, result) -> None:
    """Data-only export of correspondence lines for external renderers."""
    src, tgt = pair.coords
    lines = []
    for i, j, conf in result.matches.pairs:
        lines.append(
            {
                "src": list(map(float, src[i])),
                "tgt": list(map(float, tgt[j])),
                "confidence": conf,
                "correct": (i, j) in pair.labels.matched if pair.labels.matched else None,
            }
        )
    payload = {
        "src_keypoints": src.tolist(),
        "tgt_keypoints": tgt.tolist(),
        "match_lines": lines,
    }
    path.write_text(json.dumps(payload, sort_keys=True) + "\n")


def cmd_eval(args) -> int:
    matchers = [m.strip() for m in args.matchers.split(",") if m.strip()]
    if not matchers or len(set(matchers)) < len(matchers):
        raise ConfigError(f"--matchers must name distinct matchers, got {args.matchers!r}")
    if not 0.0 < args.icp_reject_radius < float("inf"):
        raise ConfigError(
            f"--icp-reject-radius must be finite and > 0, got {args.icp_reject_radius}"
        )
    # range-checked here, since no checkpoint takes it unless 'ours' runs
    _hyper(args, HyperParams())
    pairs = pairio.load_dataset(_resolve(args.data))
    params = None
    if "ours" in matchers:
        if not args.checkpoint:
            raise ConfigError("matcher 'ours' requires --checkpoint")
        params, _, _ = load_checkpoint(_resolve(args.checkpoint))
        params.hyper = _hyper(args, params.hyper)
        _check_pair_shapes(args.data, pairs, params.hyper)
    report = register.evaluate_matchers(
        pairs,
        matchers=matchers,
        params=params,
        icp_reject_radius=args.icp_reject_radius,
    )
    table = register.format_report_table(report)
    print(table)
    if args.report:
        out = _resolve(args.report)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.txt").write_text(table)
        with open(out / "frames.jsonl", "w") as fh:
            for rec in report.records:
                fh.write(json.dumps(rec.to_json(), sort_keys=True) + "\n")
        (out / "summary.json").write_text(
            json.dumps(report.aggregate(), sort_keys=True, indent=2) + "\n"
        )
        _echo_config(out, "eval", args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pillarmatch",
        description="Point-cloud key-point matching with attention and optimal transport",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    model = _hyper_flags(HyperParams())
    # the model flags that preprocessing reads, and the readout fields match replaces
    data = {flag: model[flag] for flag in ("keypoints", "pillar_points", "pillar_radius")}
    # train reads the key-point counts and the pillar capacity from its dataset
    network = {flag: v for flag, v in model.items() if flag not in ("keypoints", "pillar_points")}
    readout = {flag: model[flag] for flag in ("match_threshold", "sinkhorn_iters", "sinkhorn_mode")}

    p = sub.add_parser("synth", help="generate a seeded synthetic pair dataset")
    p.add_argument("--config", type=str, default=None, help="JSON file of flag defaults")
    p.add_argument("--out", required=True)
    p.add_argument("--num-pairs", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    _add_flags(p, {flag: getattr(SceneConfig(), name) for name, flag in _SCENE_FLAG.items()})
    _add_flags(p.add_argument_group("model"), data)
    _add_label_flags(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("preprocess", help="turn KITTI scans + poses into pair files")
    p.add_argument("--config", type=str, default=None)
    p.add_argument("--scans", required=True, help="directory of .bin velodyne scans")
    p.add_argument("--poses", required=True, help="pose text file, 12 values per line")
    p.add_argument("--out", required=True)
    p.add_argument("--distances", type=str, default="1,5,10")
    _add_flags(p.add_argument_group("model"), data)
    _add_label_flags(p)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="train a matcher on a pair dataset")
    p.add_argument("--config", type=str, default=None)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    fresh = learn.TrainRun()
    g = p.add_argument_group("run", "a run flag left out keeps the value that the --resume "
                             "checkpoint records, or on a fresh run its default; a given one "
                             "replaces it")
    g.add_argument("--loss", choices=learn.LOSS_KINDS, help=f"default {fresh.loss_kind}")
    g.add_argument("--epochs", type=int, help=f"default {fresh.epochs}")
    g.add_argument("--batch-size", type=int, help=f"default {fresh.batch_size}")
    g.add_argument("--seed", type=int, help=f"default {fresh.seed}")
    g.add_argument("--learning-rate", type=float,
                   help=f"Adam step size, default {fresh.learning_rate}")
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--checkpoint-every", type=int, default=0)
    p.add_argument("--resume", type=str, default=None,
                   help="continue from a training checkpoint; the network and its "
                        "model flags are the checkpoint's, and a model flag given at "
                        "a value other than the checkpoint's, even its default, is refused")
    # a run flag, kept after --resume so that train's flags keep their positions
    g.add_argument("--nllp-penalty", choices=_NLLP_PENALTY,
                   help="dustbin handling in the unmatched-row penalty term, default "
                        + _NLLP_PENALTY[fresh.nllp_penalty_excludes_dustbin])
    _add_flags(p.add_argument_group("model"), network, unset=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("match", help="run inference on one preprocessed pair")
    p.add_argument("--config", type=str, default=None)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--pair", required=True)
    _add_flags(p, readout, unset=True)
    p.add_argument("--dump-assignment", type=str, default=None,
                   help="write the soft assignment as a CSV grid")
    p.add_argument("--plot-export", type=str, default=None,
                   help="write key-points and match lines as JSON plot data")
    p.add_argument("--timing-runs", type=int, default=0)
    p.add_argument("--report", type=str, default=None)
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("eval", help="compare matchers on a labelled dataset")
    p.add_argument("--config", type=str, default=None)
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", type=str, default=None)
    p.add_argument("--matchers", type=str, default=",".join(register.EVAL_MATCHERS))
    p.add_argument("--icp-reject-radius", type=float, default=register.DEFAULT_REJECT_RADIUS)
    _add_flags(p, {"match_threshold": model["match_threshold"]}, unset=True)
    p.add_argument("--report", type=str, default=None)
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        _load_config_defaults(parser, argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigError, ArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, PillarMatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
