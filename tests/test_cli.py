import dataclasses
import functools
import gc
import json
import os
import weakref

import numpy as np
import pytest
from scipy.spatial import cKDTree

from conftest import rewrite_container

from pillarmatch import cli, pairio
from pillarmatch.cli import main
from pillarmatch.cloud import load_kitti_poses, load_kitti_scan, save_kitti_poses, save_kitti_scan
from pillarmatch.cloud import FramePair, PointCloud, SceneConfig, generate_synthetic_pair
from pillarmatch.cloud import PARALLEL_QUERY_POINTS
from pillarmatch.network import HyperParams, ModelParameters, load_checkpoint, save_checkpoint
from pillarmatch.pairio import load_dataset
from pillarmatch.transforms import RigidTransform, rotation_about_axis

# the model flags of synth, which reads only the key-point count and pillar shape
DATA_FLAGS = [
    "--keypoints", "8",
    "--pillar-points", "6",
]

# the network flags of train, which reads the key-point count and pillar capacity
# from its dataset
TOY_FLAGS = [
    "--feature-depth", "8",
    "--heads", "2",
    "--layers", "2",
    "--sinkhorn-iters", "10",
    "--positional-hidden", "8,16",
]

SCENE_FLAGS = [
    "--points", "400",
    "--overlap", "0.9",
    "--rotation-bound", "0.02",
    "--translation-bound", "0.1",
    "--noise", "0.002",
]


def run_synth(tmp_path, name="data", num_pairs=2, seed=1, extra=()):
    out = tmp_path / name
    code = main([
        "synth", "--out", str(out), "--num-pairs", str(num_pairs), "--seed", str(seed),
        *SCENE_FLAGS, *DATA_FLAGS, *extra,
    ])
    assert code == 0
    return out


def test_each_command_takes_exactly_the_model_flags_it_reads():
    model = set(cli._hyper_flags(HyperParams()))
    commands = next(a for a in cli.build_parser()._actions if a.dest == "command").choices
    taken = {name: {a.dest for a in parser._actions} & model for name, parser in commands.items()}
    data = {"keypoints", "pillar_points", "pillar_radius"}
    assert taken == {"synth": data, "preprocess": data,
                     "train": model - {"keypoints", "pillar_points"},
                     "match": {"match_threshold", "sinkhorn_iters", "sinkhorn_mode"},
                     "eval": {"match_threshold"}}


def test_synth_deterministic(tmp_path):
    a = run_synth(tmp_path, "a")
    b = run_synth(tmp_path, "b")
    for name in sorted(os.listdir(a)):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_synth_zero_pairs_valid_manifest(tmp_path):
    out = run_synth(tmp_path, "empty", num_pairs=0)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["pairs"] == []
    assert load_dataset(out) == []


@pytest.mark.parametrize("flag,value", [
    ("--neighborhood-size", "-1"), ("--neighborhood-size", "0"),
    ("--min-separation", "-1"), ("--min-separation", "0"), ("--min-separation", "nan"),
    ("--min-separation", "inf"), ("--num-pairs", "-1"),
])
def test_bad_synth_setting_is_usage_error_and_writes_nothing(tmp_path, capsys, flag, value):
    out = tmp_path / "data"
    code = main(["synth", "--out", str(out), *SCENE_FLAGS, *DATA_FLAGS, flag, value])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_synth_half_overlap_has_unmatched_rows(tmp_path):
    out = tmp_path / "halved"
    code = main([
        "synth", "--out", str(out), "--num-pairs", "3", "--seed", "2",
        "--points", "700", "--overlap", "0.5", "--rotation-bound", "0.02",
        "--translation-bound", "0.1", "--noise", "0.002", *DATA_FLAGS,
    ])
    assert code == 0
    for pair in load_dataset(out):
        assert len(pair.labels.unmatched_rows) >= 1


def test_train_match_eval_round_trip(tmp_path):
    data = run_synth(tmp_path, "data", num_pairs=3, seed=3)
    run_dir = tmp_path / "run"
    code = main([
        "train", "--data", str(data), "--out", str(run_dir),
        "--loss", "nllp", "--epochs", "2", "--batch-size", "2", "--seed", "0",
        "--learning-rate", "1e-3", *TOY_FLAGS,
    ])
    assert code == 0
    checkpoint = run_dir / "checkpoint_final.pmc"
    assert checkpoint.exists()
    assert (run_dir / "config.json").exists()
    history = [json.loads(line) for line in (run_dir / "history.jsonl").read_text().splitlines()]
    assert len(history) == 2
    assert {"epoch", "loss", "precision", "accuracy"} <= set(history[0])

    pair_file = data / "pair_00000.ppair"
    dump = tmp_path / "assign.csv"
    plot = tmp_path / "plot.json"
    report = tmp_path / "match.json"
    code = main([
        "match", "--checkpoint", str(checkpoint), "--pair", str(pair_file),
        "--dump-assignment", str(dump), "--plot-export", str(plot),
        "--timing-runs", "2", "--report", str(report),
    ])
    assert code == 0
    grid = dump.read_text().strip().splitlines()
    assert len(grid) == 8 + 2  # keypoints + dustbin + header
    payload = json.loads(report.read_text())
    assert "mean_forward_ms" in payload
    plot_data = json.loads(plot.read_text())
    assert {"src_keypoints", "tgt_keypoints", "match_lines"} <= set(plot_data)

    eval_dir = tmp_path / "eval"
    code = main([
        "eval", "--data", str(data), "--checkpoint", str(checkpoint),
        "--matchers", "ours,nn,icp,vm", "--report", str(eval_dir),
    ])
    assert code == 0
    table = (eval_dir / "report.txt").read_text()
    assert "-- Matching Score --" in table
    frames = [json.loads(l) for l in (eval_dir / "frames.jsonl").read_text().splitlines()]
    assert {rec["matcher"] for rec in frames} == {"ours", "nn", "icp", "vm"}


def test_train_resume_matches_uninterrupted(tmp_path):
    data = run_synth(tmp_path, "data", num_pairs=2, seed=4)
    full_dir = tmp_path / "full"
    code = main([
        "train", "--data", str(data), "--out", str(full_dir), "--loss", "nll",
        "--epochs", "4", "--batch-size", "2", "--seed", "9",
        "--learning-rate", "1e-3", *TOY_FLAGS,
    ])
    assert code == 0

    part_dir = tmp_path / "part"
    code = main([
        "train", "--data", str(data), "--out", str(part_dir), "--loss", "nll",
        "--epochs", "2", "--batch-size", "2", "--seed", "9",
        "--learning-rate", "1e-3", *TOY_FLAGS,
    ])
    assert code == 0
    resume_dir = tmp_path / "resumed"
    code = main([
        "train", "--data", str(data), "--out", str(resume_dir), "--loss", "nll",
        "--epochs", "4", "--batch-size", "2", "--seed", "9",
        "--learning-rate", "1e-3", "--resume", str(part_dir / "checkpoint_final.pmc"),
        *TOY_FLAGS,
    ])
    assert code == 0
    full = [json.loads(l) for l in (full_dir / "history.jsonl").read_text().splitlines()]
    resumed = [json.loads(l) for l in (resume_dir / "history.jsonl").read_text().splitlines()]
    assert resumed == full[2:]


def test_train_resume_echoes_the_checkpoint_network_shape(tmp_path):
    data = run_synth(tmp_path, "data", num_pairs=2, seed=4)
    first = tmp_path / "run"
    assert main(["train", "--data", str(data), "--out", str(first), "--max-steps", "1",
                 "--batch-size", "2", "--match-threshold", "0.3", *TOY_FLAGS]) == 0
    resumed = tmp_path / "run2"
    assert main(["train", "--data", str(data), "--out", str(resumed), "--max-steps", "2",
                 "--resume", str(first / "checkpoint_final.pmc")]) == 0
    before = json.loads((first / "config.json").read_text())
    after = json.loads((resumed / "config.json").read_text())
    hyper = load_checkpoint(resumed / "checkpoint_final.pmc")[0].hyper
    assert (hyper.src_keypoints, hyper.tgt_keypoints, hyper.pillar_points) == (8, 8, 6)
    shape = set(cli._hyper_flags(HyperParams())) - {"keypoints", "pillar_points"}
    assert shape < set(after)
    assert {k: after[k] for k in shape} == {k: before[k] for k in shape}
    # the echo's flag values alone reproduce the resumed run
    flags = {k: v for k, v in after.items() if k not in ("command", "config_version", "data")}
    config = tmp_path / "echo.json"
    config.write_text(json.dumps(flags))
    again = tmp_path / "run3"
    assert main(["train", "--config", str(config), "--data", str(data), "--out", str(again)]) == 0
    assert (again / "history.jsonl").read_text() == (resumed / "history.jsonl").read_text()


def test_train_resume_without_run_flags_continues_the_recorded_run(tmp_path):
    data = run_synth(tmp_path, "data", num_pairs=3, seed=4)
    full = tmp_path / "full"
    assert main(["train", "--data", str(data), "--out", str(full), "--epochs", "3",
                 "--batch-size", "2", "--seed", "3", "--loss", "nll", "--learning-rate", "1e-3",
                 "--checkpoint-every", "1", *TOY_FLAGS]) == 0
    resumed = tmp_path / "resumed"
    assert main(["train", "--data", str(data), "--out", str(resumed),
                 "--resume", str(full / "checkpoint_00000.pmc")]) == 0
    tail = (full / "history.jsonl").read_text().splitlines(keepends=True)[1:]
    assert (resumed / "history.jsonl").read_text() == "".join(tail)
    final = "checkpoint_final.pmc"
    assert (resumed / final).read_bytes() == (full / final).read_bytes()
    echo = json.loads((resumed / "config.json").read_text())
    assert {k: echo[k] for k in ("epochs", "batch_size", "seed", "loss", "learning_rate",
                                 "nllp_penalty")} == {
        "epochs": 3, "batch_size": 2, "seed": 3, "loss": "nll", "learning_rate": 1e-3,
        "nllp_penalty": "with-dustbin"}


def test_train_resume_uses_and_echoes_a_given_batch_size(tmp_path):
    data = run_synth(tmp_path, "data", num_pairs=2, seed=4)
    first = tmp_path / "run"
    assert main(["train", "--data", str(data), "--out", str(first), "--epochs", "1",
                 "--batch-size", "2", *TOY_FLAGS]) == 0
    checkpoint = str(first / "checkpoint_final.pmc")
    for batch_size, flags in ((2, []), (1, ["--batch-size", "1"])):
        out = tmp_path / f"batch{batch_size}"
        assert main(["train", "--data", str(data), "--out", str(out), "--epochs", "2",
                     "--resume", checkpoint, *flags]) == 0
        assert json.loads((out / "config.json").read_text())["batch_size"] == batch_size
        _, meta, _ = load_checkpoint(out / "checkpoint_final.pmc")
        assert meta["run"]["batch_size"] == batch_size
        # epoch 1 takes one step per batch of the 2 pairs, after epoch 0's one
        assert meta["optimizer"]["step"] == 1 + 2 // batch_size


@pytest.mark.parametrize("flag,value", [("--match-threshold", "0.7"), ("--sinkhorn-iters", "50"),
                                        ("--positional-hidden", "8,32")])
def test_train_resume_refuses_a_model_flag_it_would_drop(tmp_path, capsys, flag, value):
    data = run_synth(tmp_path, "data", num_pairs=2, seed=4)
    first = tmp_path / "run"
    assert main(["train", "--data", str(data), "--out", str(first), "--max-steps", "1",
                 "--batch-size", "2", *TOY_FLAGS]) == 0
    checkpoint = str(first / "checkpoint_final.pmc")
    # the checkpoint's own values, in another spelling, are no clash
    same = tmp_path / "same"
    assert main(["train", "--data", str(data), "--out", str(same), "--max-steps", "2",
                 "--resume", checkpoint, "--positional-hidden", "8,16,"]) == 0
    capsys.readouterr()
    resumed = tmp_path / "run2"
    code = main(["train", "--data", str(data), "--out", str(resumed), "--max-steps", "2",
                 "--resume", checkpoint, flag, value])
    assert code == 2
    assert flag in capsys.readouterr().err
    assert not resumed.exists()


@pytest.mark.parametrize("flag,value", [("--sinkhorn-iters", "100"),
                                        ("--positional-hidden", "32,64,128,256")])
def test_train_resume_refuses_a_model_flag_given_at_its_default(tmp_path, capsys, flag, value):
    # each value is the flag's HyperParams() default, and the toy checkpoint's differs
    assert str(cli._hyper_flags(HyperParams())[flag[2:].replace("-", "_")]) == value
    data = run_synth(tmp_path, "data", num_pairs=2, seed=4)
    first = tmp_path / "run"
    assert main(["train", "--data", str(data), "--out", str(first), "--max-steps", "1",
                 "--batch-size", "2", *TOY_FLAGS]) == 0
    capsys.readouterr()
    resumed = tmp_path / "run2"
    code = main(["train", "--data", str(data), "--out", str(resumed), "--max-steps", "2",
                 "--resume", str(first / "checkpoint_final.pmc"), flag, value])
    assert code == 2
    assert flag in capsys.readouterr().err
    assert not resumed.exists()


def test_train_resume_of_unequal_key_point_counts_echoes_a_config_that_reruns(tmp_path, capsys):
    from conftest import toy_hyper, toy_pair
    from pillarmatch import learn

    hyper = toy_hyper(src_keypoints=8, tgt_keypoints=10)
    data = tmp_path / "data"
    pairio.write_dataset(data, [toy_pair(seed=s, hyper=hyper) for s in (3, 4)], {})
    first = tmp_path / "run"
    learn.train(load_dataset(data), learn.TrainRun(epochs=1, batch_size=2, seed=4), hyper,
                run_dir=first)
    checkpoint = str(first / "checkpoint_final.pmc")
    resumed = tmp_path / "run2"
    assert main(["train", "--data", str(data), "--out", str(resumed), "--epochs", "2",
                 "--batch-size", "2", "--resume", checkpoint]) == 0
    echo = json.loads((resumed / "config.json").read_text())
    assert not {"keypoints", "pillar_points"} & set(echo)
    again = tmp_path / "run3"
    assert main(["train", "--config", str(resumed / "config.json"), "--out", str(again)]) == 0
    assert (again / "history.jsonl").read_bytes() == (resumed / "history.jsonl").read_bytes()
    # train takes no key-point count: the flag is a usage error
    capsys.readouterr()
    refused = tmp_path / "run4"
    with pytest.raises(SystemExit) as exc:
        main(["train", "--data", str(data), "--out", str(refused), "--resume", checkpoint,
              "--keypoints", "8"])
    assert exc.value.code == 2
    assert "--keypoints" in capsys.readouterr().err
    assert not refused.exists()


def test_fresh_train_reads_unequal_key_point_counts_from_its_dataset(tmp_path):
    from conftest import toy_hyper, toy_pair

    hyper = toy_hyper(src_keypoints=8, tgt_keypoints=10)
    data = tmp_path / "data"
    pairio.write_dataset(data, [toy_pair(seed=s, hyper=hyper) for s in (3, 4)], {})
    first = tmp_path / "run"
    assert main(["train", "--data", str(data), "--out", str(first), "--epochs", "2",
                 "--batch-size", "2", *TOY_FLAGS]) == 0
    trained = load_checkpoint(first / "checkpoint_final.pmc")[0].hyper
    assert (trained.src_keypoints, trained.tgt_keypoints, trained.pillar_points) == (8, 10, 4)
    again = tmp_path / "again"
    assert main(["train", "--config", str(first / "config.json"), "--out", str(again)]) == 0
    for name in ("checkpoint_final.pmc", "history.jsonl", "config.json"):
        assert (again / name).read_bytes() == (first / name).read_bytes(), name


@pytest.mark.parametrize("extra,reason", [
    (["--num-pairs", "0"], "training dataset is empty"),
    (["--match-radius", "1e-9", "--unmatch-radius", "1e9"], "zero ground-truth cells"),
], ids=["empty-dataset", "no-ground-truth"])
def test_train_refusing_its_dataset_writes_nothing(tmp_path, capsys, extra, reason):
    data = run_synth(tmp_path, "data", extra=extra)
    out = tmp_path / "run"
    assert main(["train", "--data", str(data), "--out", str(out), "--max-steps", "1",
                 *TOY_FLAGS]) == 2
    assert reason in capsys.readouterr().err
    assert not out.exists()


def test_train_reruns_from_its_own_config_echo(tmp_path):
    data = run_synth(tmp_path, "data", num_pairs=2, seed=4)
    first = tmp_path / "run"
    assert main(["train", "--data", str(data), "--out", str(first), "--max-steps", "1",
                 "--batch-size", "2", *TOY_FLAGS]) == 0
    # --data comes from the echo alone
    again = tmp_path / "run3"
    assert main(["train", "--config", str(first / "config.json"), "--out", str(again)]) == 0
    for name in ("history.jsonl", "config.json"):
        assert (again / name).read_bytes() == (first / name).read_bytes(), name


def test_train_refuses_an_older_echo_that_holds_the_data_flags(tmp_path, capsys):
    data = run_synth(tmp_path, "data", num_pairs=2, seed=4)
    first = tmp_path / "run"
    assert main(["train", "--data", str(data), "--out", str(first), "--max-steps", "1",
                 "--batch-size", "2", *TOY_FLAGS]) == 0
    older = tmp_path / "older.json"
    older.write_text(json.dumps({**json.loads((first / "config.json").read_text()),
                                 "keypoints": 8, "pillar_points": 6}))
    capsys.readouterr()
    again = tmp_path / "again"
    assert main(["train", "--config", str(older), "--out", str(again)]) == 2
    assert "unknown config keys for 'train': ['keypoints', 'pillar_points']" in capsys.readouterr().err
    assert not again.exists()


@pytest.mark.parametrize("edit", [{"command": "eval"}, {"command": None},
                                  {"config_version": 2}, {"config_version": True},
                                  {"data": None}],
                         ids=["other-command", "null-command", "version-2", "version-true",
                              "null-required-flag"])
def test_config_echo_of_another_command_or_version_is_usage_error(tmp_path, capsys, edit):
    data = run_synth(tmp_path, "data", num_pairs=2, seed=4)
    first = tmp_path / "run"
    assert main(["train", "--data", str(data), "--out", str(first), "--max-steps", "1",
                 "--batch-size", "2", *TOY_FLAGS]) == 0
    echo = json.loads((first / "config.json").read_text())
    config = tmp_path / "edited.json"
    # the unedited echo is accepted, so the edit alone makes the error
    config.write_text(json.dumps(echo))
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "run2")]) == 0
    config.write_text(json.dumps({**echo, **edit}))
    capsys.readouterr()
    again = tmp_path / "run3"
    try:
        code = main(["train", "--config", str(config), "--out", str(again)])
    except SystemExit as exc:  # argparse's own usage errors exit 2 as well
        code = exc.code
    assert code == 2
    assert "error: " in capsys.readouterr().err
    assert not again.exists()


def _checkpoint_meta_and_weights(path):
    params, meta, _ = load_checkpoint(path)
    return meta, {k: t.data for k, t in params.named_parameters().items()}


def test_train_resume_learning_rate_defaults_to_the_checkpoint_and_a_given_one_is_used(tmp_path):
    data = run_synth(tmp_path, "data", num_pairs=2, seed=4)
    common = ["--data", str(data), "--batch-size", "2", "--seed", "9"]
    first = tmp_path / "run"
    assert main(["train", "--out", str(first), "--max-steps", "1", "--learning-rate", "1e-3",
                 *common, *TOY_FLAGS]) == 0
    checkpoint = first / "checkpoint_final.pmc"
    _, start = _checkpoint_meta_and_weights(checkpoint)
    deltas = {}
    for name, flags in (("kept", []), ("given", ["--learning-rate", "0.5"])):
        out = tmp_path / name
        assert main(["train", "--out", str(out), "--max-steps", "2", "--resume",
                     str(checkpoint), *flags, *common]) == 0
        meta, weights = _checkpoint_meta_and_weights(out / "checkpoint_final.pmc")
        rate = 1e-3 if name == "kept" else 0.5
        assert json.loads((out / "config.json").read_text())["learning_rate"] == rate
        assert meta["run"]["learning_rate"] == meta["optimizer"]["learning_rate"] == rate
        deltas[name] = {k: weights[k].astype(np.float64) - start[k] for k in start}
    # the same Adam moments at step 2: the update scales with the rate Adam used
    for k in start:
        np.testing.assert_allclose(deltas["given"][k], 500.0 * deltas["kept"][k],
                                   rtol=1e-3, atol=1e-4)


def test_preprocess_kitti_fixtures(tmp_path, rng):
    scans = tmp_path / "scans"
    scans.mkdir()
    poses = []
    base = rng.uniform(2.0, 6.0, size=(300, 3))
    for k in range(3):
        rot = rotation_about_axis([0, 0, 1], 0.01 * k)
        pose = RigidTransform.from_rotation_translation(rot, [0.2 * k, 0.0, 0.0])
        poses.append(pose)
        pts = pose.apply(base)  # the same world points seen from each frame
        cloud = PointCloud(pts, rng.uniform(size=len(pts)), frame_id=str(k))
        save_kitti_scan(cloud, scans / f"{k:06d}.bin")
    pose_file = tmp_path / "poses.txt"
    save_kitti_poses(poses, pose_file)

    out = tmp_path / "pre"
    code = main([
        "preprocess", "--scans", str(scans), "--poses", str(pose_file),
        "--out", str(out), "--distances", "1",
        "--keypoints", "6", "--pillar-points", "4", "--neighborhood-size", "6",
    ])
    assert code == 0
    pairs = load_dataset(out)
    assert len(pairs) == 2  # 3 scans at distance 1
    assert all(p.frame_distance == 1 for p in pairs)


PREPROCESS_FLAGS = ["--keypoints", "6", "--pillar-points", "4", "--neighborhood-size", "6"]


def write_scan_sequence(tmp_path, rng, frames=4, points=300, copies=0):
    """KITTI-format scans of the same world points from ``frames`` poses.

    With ``copies``, each scan ends in that many exact copies of its first
    record and a point at the sensor origin.
    """
    scans = tmp_path / "scans"
    scans.mkdir()
    poses = []
    base = rng.uniform(2.0, 6.0, size=(points, 3))
    for k in range(frames):
        pose = RigidTransform.from_rotation_translation(
            rotation_about_axis([0, 0, 1], 0.01 * k), [0.2 * k, 0.0, 0.0])
        poses.append(pose)
        pts = pose.apply(base) + rng.normal(0.0, 0.01, base.shape)
        intensities = rng.uniform(size=len(pts))
        if copies:
            pts = np.vstack([pts, np.repeat(pts[:1], copies, axis=0), [[0.0, 0.0, 0.0]]])
            intensities = np.concatenate([intensities, np.repeat(intensities[:1], copies), [0.5]])
        save_kitti_scan(PointCloud(pts, intensities), scans / f"{k:06d}.bin")
    pose_file = tmp_path / "poses.txt"
    save_kitti_poses(poses, pose_file)
    return scans, pose_file


def run_preprocess(scans, pose_file, out, distances):
    return main(["preprocess", "--scans", str(scans), "--poses", str(pose_file),
                 "--out", str(out), "--distances", distances, *PREPROCESS_FLAGS])


def test_preprocess_reuses_frames_and_matches_per_pair_preprocessing(tmp_path, rng,
                                                                      monkeypatch):
    scans, pose_file = write_scan_sequence(tmp_path, rng)
    selected = []
    original = pairio.select_keypoints

    def counted(cloud, *args, **kwargs):
        selected.append(cloud.frame_id)
        return original(cloud, *args, **kwargs)

    monkeypatch.setattr(pairio, "select_keypoints", counted)
    out = tmp_path / "pre"
    assert run_preprocess(scans, pose_file, out, "1,2") == 0
    # 4 frames in 5 pairs: each frame's key-points are selected once
    assert sorted(selected) == ["000000", "000001", "000002", "000003"]
    monkeypatch.undo()

    # reference: every pair preprocessed on its own, without the memo
    paths = sorted(scans.glob("*.bin"))
    clouds = [load_kitti_scan(p, frame_id=p.stem) for p in paths]
    poses = load_kitti_poses(pose_file)
    hyper = HyperParams(src_keypoints=6, tgt_keypoints=6, pillar_points=4, feature_depth=8,
                        attention_heads=2, attention_layers=2, positional_hidden=(8,))
    names = sorted(p.name for p in out.glob("*.ppair"))
    assert len(names) == 5
    index = 0
    for distance in (1, 2):
        for i in range(len(clouds) - distance):
            j = i + distance
            frame = FramePair(clouds[i], clouds[j], poses[j].inverse().compose(poses[i]),
                              frame_distance=distance)
            reference = tmp_path / f"ref{index}.ppair"
            pairio.write_pair(reference, pairio.preprocess_pair(frame, hyper,
                                                                neighborhood_size=6))
            assert (out / names[index]).read_bytes() == reference.read_bytes()
            index += 1


def test_preprocess_builds_no_frame_that_no_pair_uses(tmp_path, rng, monkeypatch):
    scans, pose_file = write_scan_sequence(tmp_path, rng)
    selected = []
    original = pairio.select_keypoints

    def counted(cloud, *args, **kwargs):
        selected.append(cloud.frame_id)
        return original(cloud, *args, **kwargs)

    monkeypatch.setattr(pairio, "select_keypoints", counted)
    out = tmp_path / "pre"
    # 4 frames 3 apart make one pair, (0, 3): frames 1 and 2 are in none
    assert run_preprocess(scans, pose_file, out, "3") == 0
    assert selected == ["000000", "000003"]
    assert len(load_dataset(out)) == 1


def test_preprocess_writes_the_pairs_a_median_split_tree_gives(tmp_path, rng, monkeypatch):
    # frames large enough for the chunked smoothness field, rounded to float32
    # as scans store them; the copies are the most planar points, so they are
    # key-points and fill each other's pillars
    scans, pose_file = write_scan_sequence(tmp_path, rng, frames=3,
                                           points=PARALLEL_QUERY_POINTS + 500, copies=30)
    assert run_preprocess(scans, pose_file, tmp_path / "sliding", "1,2") == 0
    built = []

    def median_split(cloud):
        built.append(cloud.frame_id)
        return cKDTree(cloud.points)

    balanced = functools.cached_property(median_split)
    balanced.__set_name__(PointCloud, "tree")
    monkeypatch.setattr(PointCloud, "tree", balanced)
    assert run_preprocess(scans, pose_file, tmp_path / "balanced", "1,2") == 0
    assert built == ["000000", "000001", "000002"]
    names = sorted(p.name for p in (tmp_path / "sliding").glob("*.ppair"))
    assert len(names) == 3
    for name in names:
        assert ((tmp_path / "sliding" / name).read_bytes()
                == (tmp_path / "balanced" / name).read_bytes())


@pytest.mark.parametrize("distances", ["1,x", "-1", "", "0", ",", "1,1"])
def test_preprocess_bad_distances_is_config_error(tmp_path, rng, capsys, distances):
    scans, pose_file = write_scan_sequence(tmp_path, rng, frames=3)
    out = tmp_path / "pre"
    assert run_preprocess(scans, pose_file, out, distances) == 2
    assert "--distances" in capsys.readouterr().err
    assert not out.exists()


def test_preprocess_distances_in_list_order_match_per_pair_preprocessing(tmp_path, rng):
    scans, pose_file = write_scan_sequence(tmp_path, rng)
    out = tmp_path / "pre"
    assert run_preprocess(scans, pose_file, out, "2,1") == 0
    paths = sorted(scans.glob("*.bin"))
    clouds = [load_kitti_scan(p, frame_id=p.stem) for p in paths]
    poses = load_kitti_poses(pose_file)
    hyper = HyperParams(src_keypoints=6, tgt_keypoints=6, pillar_points=4, feature_depth=8,
                        attention_heads=2, attention_layers=2, positional_hidden=(8,))
    references = [
        pairio.preprocess_pair(
            FramePair(clouds[i], clouds[i + distance],
                      poses[i + distance].inverse().compose(poses[i]), frame_distance=distance),
            hyper, neighborhood_size=6)
        for distance in (2, 1) for i in range(len(clouds) - distance)
    ]
    names = json.loads((out / "manifest.json").read_text())["pairs"]
    assert names == sorted(p.name for p in out.glob("*.ppair"))
    assert len(names) == len(references) == 5
    for index, (name, reference) in enumerate(zip(names, references)):
        pairio.write_pair(tmp_path / f"ref{index}.ppair", reference)
        assert (out / name).read_bytes() == (tmp_path / f"ref{index}.ppair").read_bytes()


def test_preprocess_keeps_one_cloud_and_a_window_of_frames(tmp_path, rng, monkeypatch):
    scans, pose_file = write_scan_sequence(tmp_path, rng, frames=12)
    clouds, frames, alive = [], [], []
    load_scan, build_frame, build_pair = (
        cli.load_kitti_scan, pairio.preprocess_frame, pairio.preprocess_pair)

    def tracked(into, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            into.append(weakref.ref(result))
            return result
        return wrapper

    def counted(*args, **kwargs):
        alive.append(tuple(sum(ref() is not None for ref in refs) for refs in (clouds, frames)))
        return build_pair(*args, **kwargs)

    monkeypatch.setattr(cli, "load_kitti_scan", tracked(clouds, load_scan))
    monkeypatch.setattr(pairio, "preprocess_frame", tracked(frames, build_frame))
    monkeypatch.setattr(pairio, "preprocess_pair", counted)
    gc.disable()
    try:
        assert run_preprocess(scans, pose_file, tmp_path / "pre", "1,5") == 0
    finally:
        gc.enable()
    assert (len(clouds), len(frames), len(alive)) == (12, 12, 11 + 7)
    # at most one cloud, and the pillars of at most max(d) + 1 frames, at every pair
    assert max(c for c, _ in alive) <= 1
    assert max(f for _, f in alive) <= 6


def test_preprocess_truncated_scan_fails_before_writing(tmp_path, rng, capsys):
    scans, pose_file = write_scan_sequence(tmp_path, rng)
    last = sorted(scans.glob("*.bin"))[-1]
    last.write_bytes(last.read_bytes()[:-3])
    out = tmp_path / "pre"
    assert run_preprocess(scans, pose_file, out, "1") == 3
    assert "not a multiple of 16" in capsys.readouterr().err
    assert not out.exists()


def test_preprocess_failing_part_way_leaves_no_manifest(tmp_path, rng, capsys):
    scans, pose_file = write_scan_sequence(tmp_path, rng)
    out = tmp_path / "pre"
    assert run_preprocess(scans, pose_file, out, "1") == 0
    assert len(load_dataset(out)) == 3
    # a later frame with fewer points than key-points fails after pair 0 is written
    save_kitti_scan(PointCloud(rng.uniform(2.0, 6.0, size=(4, 3)), np.zeros(4)),
                    sorted(scans.glob("*.bin"))[2])
    assert run_preprocess(scans, pose_file, out, "1") == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert not (out / "manifest.json").exists()
    assert main(["eval", "--data", str(out), "--matchers", "nn"]) == 3


def test_synth_matches_per_pair_preprocessing(tmp_path):
    out = run_synth(tmp_path, num_pairs=3, seed=4)
    hyper = HyperParams(src_keypoints=8, tgt_keypoints=8, pillar_points=6, feature_depth=8,
                        attention_heads=2, attention_layers=2, sinkhorn_iterations=10,
                        positional_hidden=(8, 16))
    scene = SceneConfig(point_count=400, overlap=0.9, rotation_bound=0.02,
                        translation_bound=0.1, noise_sigma=0.002)
    manifest = json.loads((out / "manifest.json").read_text())
    references = [
        pairio.preprocess_pair(generate_synthetic_pair(4 + k, scene), hyper,
                               meta={"seed": 4 + k, "generator": "synthetic"})
        for k in range(3)
    ]
    pairio.write_dataset(tmp_path / "ref", references, manifest["config"])
    for name in [*manifest["pairs"], "manifest.json"]:
        assert (out / name).read_bytes() == (tmp_path / "ref" / name).read_bytes(), name


def test_preprocess_missing_pose_is_format_error(tmp_path, rng, capsys):
    scans = tmp_path / "scans"
    scans.mkdir()
    for k in range(2):
        cloud = PointCloud(rng.uniform(2, 5, size=(50, 3)), rng.uniform(size=50))
        save_kitti_scan(cloud, scans / f"{k:06d}.bin")
    pose_file = tmp_path / "poses.txt"
    save_kitti_poses([RigidTransform.identity()], pose_file)  # one pose, two scans
    code = main([
        "preprocess", "--scans", str(scans), "--poses", str(pose_file),
        "--out", str(tmp_path / "pre"), "--distances", "1",
    ])
    assert code == 3


def test_unknown_loss_is_usage_error(capsys):
    # argparse reports bad flag values itself and exits with the usage code
    with pytest.raises(SystemExit) as exc:
        main(["train", "--loss", "bogus", "--data", "x", "--out", "y", "--epochs", "1"])
    assert exc.value.code == 2


def test_missing_dataset_is_data_error(tmp_path):
    assert main(["train", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "o")]) == 3


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_numeric_blowup_is_numeric_error(tmp_path):
    # an absurd learning rate overflows the forward pass on the next epoch
    data = run_synth(tmp_path, "data", num_pairs=1, seed=8)
    code = main([
        "train", "--data", str(data), "--out", str(tmp_path / "run"),
        "--epochs", "3", "--batch-size", "1", "--learning-rate", "1e12",
        *TOY_FLAGS,
    ])
    assert code == 4


@pytest.mark.parametrize("flag,value", [
    ("--learning-rate", "nan"), ("--learning-rate", "-1"), ("--max-steps", "0"),
    ("--checkpoint-every", "-1"), ("--match-threshold", "1.5"),
])
def test_bad_train_setting_is_usage_error_and_writes_nothing(tmp_path, capsys, flag, value):
    data = run_synth(tmp_path, "data", num_pairs=1, seed=8)
    run_dir = tmp_path / "run"
    code = main([
        "train", "--data", str(data), "--out", str(run_dir), "--epochs", "1",
        "--batch-size", "1", *TOY_FLAGS, flag, value,
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not run_dir.exists()


def test_checkpoint_pair_mismatch_is_config_error(tmp_path):
    data = run_synth(tmp_path, "data", num_pairs=1, seed=5)
    run_dir = tmp_path / "run"
    main([
        "train", "--data", str(data), "--out", str(run_dir), "--epochs", "1",
        "--batch-size", "1", *TOY_FLAGS,
    ])
    other = run_synth(tmp_path, "other", num_pairs=1, seed=6,
                      extra=["--keypoints", "8"])
    big = tmp_path / "big"
    code = main([
        "synth", "--out", str(big), "--num-pairs", "1", "--seed", "6",
        *SCENE_FLAGS, "--keypoints", "12", "--pillar-points", "6",
    ])
    assert code == 0
    code = main([
        "match", "--checkpoint", str(run_dir / "checkpoint_final.pmc"),
        "--pair", str(big / "pair_00000.ppair"),
    ])
    assert code == 2


def test_pillar_capacity_mismatch_is_config_error_in_train_and_eval(tmp_path, capsys):
    data = run_synth(tmp_path, "data", num_pairs=1, seed=5)  # capacity 6
    hyper = HyperParams(src_keypoints=8, tgt_keypoints=8, pillar_points=4, feature_depth=8,
                        attention_heads=2, attention_layers=2, sinkhorn_iterations=10,
                        positional_hidden=(8, 16))
    checkpoint = tmp_path / "model.pmc"
    save_checkpoint(checkpoint, ModelParameters.initialize(hyper, seed=0))
    run_dir = tmp_path / "run"
    code = main(["train", "--data", str(data), "--out", str(run_dir), "--epochs", "1",
                 "--batch-size", "1", "--resume", str(checkpoint)])
    assert code == 2
    assert "pair 0 has pillar capacity 6/6" in capsys.readouterr().err
    assert not run_dir.exists()
    code = main(["eval", "--data", str(data), "--checkpoint", str(checkpoint)])
    assert code == 2
    assert "the model expects 4" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["resume", "eval"])
def test_key_point_count_mismatch_is_config_error_and_writes_nothing(tmp_path, capsys, command):
    # the dataset has 8/8 key-points and the model 6/6, at the dataset's pillar capacity
    data = run_synth(tmp_path, "data", num_pairs=2, seed=5)
    hyper = HyperParams(src_keypoints=6, tgt_keypoints=6, pillar_points=6, feature_depth=8,
                        attention_heads=2, attention_layers=2, sinkhorn_iterations=10,
                        positional_hidden=(8, 16))
    checkpoint = tmp_path / "model.pmc"
    save_checkpoint(checkpoint, ModelParameters.initialize(hyper, seed=0))
    out = tmp_path / "out"
    argv = {
        "resume": ["train", "--data", str(data), "--out", str(out), "--epochs", "1",
                   "--resume", str(checkpoint)],
        "eval": ["eval", "--data", str(data), "--checkpoint", str(checkpoint),
                 "--matchers", "ours", "--report", str(out)],
    }[command]
    assert main(argv) == 2
    assert "pair 0 has 8/8 key-points (source/target) but the model expects 6/6" in \
        capsys.readouterr().err
    assert not out.exists()


def test_config_file_provides_defaults(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "num_pairs": 2, "seed": 11, "points": 400, "overlap": 0.9,
        "rotation_bound": 0.02, "translation_bound": 0.1, "noise": 0.002,
        "keypoints": 8, "pillar_points": 6,
    }))
    out = tmp_path / "from_config"
    assert main(["synth", "--config", str(config), "--out", str(out)]) == 0
    assert len(load_dataset(out)) == 2
    echoed = json.loads((out / "config.json").read_text())
    assert echoed["seed"] == 11


@pytest.mark.parametrize("command,values", [
    ("synth", 5), ("synth", [1, 2]), ("synth", "synth"),
    ("synth", {"num_pairs": 1.5}), ("synth", {"num_pairs": True}), ("synth", {"num_pairs": "two"}),
    ("synth", {"seed": None}), ("synth", {"overlap": "high"}),
    # synth takes no network flag, so these three are train's
    ("train", {"positional_hidden": 8}), ("train", {"sinkhorn_mode": "bogus"}),
    ("train", {"post_attention_mlp": 1}),
], ids=["number", "list", "string", "fraction-for-int", "bool-for-int", "word-for-int",
        "null-for-int", "word-for-float", "number-for-str", "outside-choices",
        "number-for-switch"])
def test_config_value_its_flag_would_not_parse_to_is_config_error(tmp_path, capsys, command,
                                                                  values):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(values))
    out = tmp_path / "out"
    argv = {"synth": ["synth", *SCENE_FLAGS, *DATA_FLAGS],
            "train": ["train", "--data", str(run_synth(tmp_path, num_pairs=1)), "--max-steps", "1",
                      "--batch-size", "1", *TOY_FLAGS]}[command]
    code = main([*argv, "--config", str(config), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_config_strings_parse_as_on_the_command_line(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"num_pairs": "0", "overlap": 1, "min_separation": None}))
    out = tmp_path / "data"
    assert main(["synth", "--config", str(config), "--out", str(out), *DATA_FLAGS]) == 0
    echoed = json.loads((out / "config.json").read_text())
    assert (echoed["num_pairs"], echoed["overlap"]) == (0, 1)


def test_match_negative_timing_runs_is_config_error(tmp_path, capsys):
    data = run_synth(tmp_path, "data", num_pairs=1, seed=5)
    checkpoint = tmp_path / "model.pmc"
    hyper = HyperParams(
        src_keypoints=8, tgt_keypoints=8, pillar_points=6, feature_depth=8,
        attention_heads=2, attention_layers=2, sinkhorn_iterations=10,
        positional_hidden=(8, 16),
    )
    save_checkpoint(checkpoint, ModelParameters.initialize(hyper, seed=0))
    report = tmp_path / "match.json"
    flags = ["match", "--checkpoint", str(checkpoint), "--pair", str(data / "pair_00000.ppair"),
             "--report", str(report), "--timing-runs"]
    assert main([*flags, "-1"]) == 2
    assert "--timing-runs" in capsys.readouterr().err
    assert not report.exists()
    assert main([*flags, "0"]) == 0
    assert "mean_forward_ms" not in json.loads(report.read_text())


def test_match_makes_the_directory_of_each_file_it_writes(tmp_path):
    data = run_synth(tmp_path, "data", num_pairs=1, seed=5)
    checkpoint = untrained_checkpoint(tmp_path)
    nested = tmp_path / "a" / "b"
    outputs = {flag: nested / flag[2:] / "out" for flag in
               ("--dump-assignment", "--plot-export", "--report")}
    assert main(["match", "--checkpoint", str(checkpoint), "--pair",
                 str(data / "pair_00000.ppair"),
                 *(v for flag, path in outputs.items() for v in (flag, str(path)))]) == 0
    assert all(path.is_file() for path in outputs.values())


def test_match_overrides_replace_the_checkpoint_hyper_fields(tmp_path):
    from pillarmatch.pipeline import match_pair

    data = run_synth(tmp_path, "data", num_pairs=1, seed=5)
    checkpoint = untrained_checkpoint(tmp_path)
    pair_file = data / "pair_00000.ppair"
    report = tmp_path / "match.json"
    assert main(["match", "--checkpoint", str(checkpoint), "--pair", str(pair_file),
                 "--report", str(report), "--match-threshold", "0.05", "--sinkhorn-iters", "3",
                 "--sinkhorn-mode", "simultaneous"]) == 0
    matches = json.loads(report.read_text())["matches"]
    reported = [(m["i"], m["j"], m["confidence"]) for m in matches]
    params, _, _ = load_checkpoint(checkpoint)
    pair = pairio.read_pair(pair_file)
    default = match_pair(params, pair).matches.pairs
    params.hyper = dataclasses.replace(params.hyper, match_threshold=0.05, sinkhorn_iterations=3,
                                       sinkhorn_mode="simultaneous")
    assert reported == list(match_pair(params, pair).matches.pairs) != list(default)


@pytest.mark.parametrize("flag,value", [
    ("--icp-reject-radius", "-1"), ("--icp-reject-radius", "0"), ("--icp-reject-radius", "nan"),
    ("--matchers", ","),
])
def test_bad_eval_setting_is_usage_error_and_writes_nothing(tmp_path, capsys, flag, value):
    data = run_synth(tmp_path, "data", num_pairs=1, seed=5)
    report = tmp_path / "report"
    assert main(["eval", "--data", str(data), "--matchers", "icp", "--report", str(report),
                 flag, value]) == 2
    assert flag in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("dataset", ["present", "missing"])
def test_eval_refuses_a_repeated_matcher_before_loading_anything(tmp_path, capsys, dataset):
    # a missing dataset would exit 3: the refusal comes before anything is read
    data = run_synth(tmp_path, num_pairs=1, seed=5) if dataset == "present" else tmp_path / "none"
    report = tmp_path / "report"
    assert main(["eval", "--data", str(data), "--matchers", "nn,icp,nn",
                 "--report", str(report)]) == 2
    err = capsys.readouterr().err
    assert "--matchers" in err and err.count("\n") == 1
    assert not report.exists()


def test_eval_ours_without_a_checkpoint_is_refused_before_loading_anything(tmp_path, capsys):
    # a missing dataset would exit 3: the refusal comes before anything is read
    report = tmp_path / "report"
    assert main(["eval", "--data", str(tmp_path / "none"), "--matchers", "ours,nn",
                 "--report", str(report)]) == 2
    assert "requires --checkpoint" in capsys.readouterr().err
    assert not report.exists()


def test_eval_refuses_an_empty_dataset_and_writes_nothing(tmp_path, capsys):
    data = run_synth(tmp_path, "data", num_pairs=0, seed=5)
    capsys.readouterr()
    report = tmp_path / "r"
    assert main(["eval", "--data", str(data), "--matchers", "nn", "--report", str(report)]) == 2
    captured = capsys.readouterr()
    assert "no pairs" in captured.err and captured.out == ""
    assert not report.exists()


def test_eval_table_lists_a_matcher_whose_every_frame_failed(tmp_path, capsys):
    # no ground-truth matches: vm has nothing to fit, and ICP keeps no point in range
    data = run_synth(tmp_path, "data", num_pairs=2, seed=1, extra=["--match-radius", "1e-6"])
    capsys.readouterr()
    assert main(["eval", "--data", str(data), "--matchers", "vm,icp",
                 "--icp-reject-radius", "1e-9"]) == 0
    sections = capsys.readouterr().out.rstrip().split("-- ")[1:]
    assert [section.splitlines()[0] for section in sections] == [
        "Matching Score --", "Translational Error --", "Rotational Error --"]
    rows = [section.splitlines()[1:] for section in sections]
    header, vm, icp = ("matcher".ljust(10) + "d=1".rjust(12),
                       *(name.ljust(10) + "n/a".rjust(12) for name in ("vm", "icp")))
    assert rows[0][:3] == [header, vm, ""]
    for section in rows[1:]:
        assert section[:4] == [header, vm, icp, ""]
    assert rows[-1][-1] == "failures: icp=2, vm=2"


def test_match_self_pair_with_overfit_model(tmp_path):
    # source == target: after a short overfit run, nearly every key-point
    # should match itself
    import numpy as np

    from pillarmatch.cloud import FramePair, SceneConfig, generate_synthetic_pair
    from pillarmatch.learn import TrainRun, train
    from pillarmatch.network import HyperParams
    from pillarmatch.pairio import preprocess_pair, write_pair
    from pillarmatch.pipeline import match_pair

    hyper = HyperParams(
        src_keypoints=8, tgt_keypoints=8, pillar_points=6,
        feature_depth=8, attention_heads=2, attention_layers=2,
        sinkhorn_iterations=10, positional_hidden=(8, 16),
    )
    scene = SceneConfig(point_count=400, overlap=0.9, rotation_bound=0.02,
                        translation_bound=0.1, noise_sigma=0.002, window=6.0,
                        width=4.0, pole_count=6)
    pairs = []
    for seed in range(4):
        cloud = generate_synthetic_pair(seed, scene).source
        self_pair = FramePair(source=cloud, target=cloud,
                              gt_transform=RigidTransform.identity())
        pairs.append(preprocess_pair(self_pair, hyper))
    assert all(len(p.labels.matched) == 8 for p in pairs)

    run = TrainRun(epochs=40, batch_size=2, seed=0, loss_kind="nllp",
                   learning_rate=1e-3)
    result = train(pairs, run, hyper)
    self_matched = []
    for pair in pairs:
        matches = match_pair(result.params, pair).matches
        self_matched.append(
            sum(1 for i, j, _ in matches.pairs if i == j) / len(pair.src_keypoints)
        )
    assert np.mean(self_matched) >= 0.9


def test_dump_assignment_full_scale_grid(tmp_path):
    # default 100 key-points produce the 101x101 augmented assignment
    from pillarmatch.network import HyperParams, ModelParameters, save_checkpoint
    from pillarmatch.pairio import preprocess_pair, write_pair
    from pillarmatch.cloud import SceneConfig, generate_synthetic_pair

    hyper = HyperParams()  # paper-scale defaults
    checkpoint = tmp_path / "model.pmc"
    save_checkpoint(checkpoint, ModelParameters.initialize(hyper, seed=0))
    scene = SceneConfig(point_count=3000)
    pair_file = tmp_path / "pair.ppair"
    write_pair(pair_file, preprocess_pair(generate_synthetic_pair(1, scene), hyper))
    dump = tmp_path / "grid.csv"
    code = main([
        "match", "--checkpoint", str(checkpoint), "--pair", str(pair_file),
        "--dump-assignment", str(dump), "--sinkhorn-iters", "10",
    ])
    assert code == 0
    lines = dump.read_text().strip().splitlines()
    assert len(lines) == 1 + 101  # header + 100 key-points + dustbin
    assert len(lines[0].split(",")) == 1 + 101


def test_run_root_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("PILLARMATCH_RUN_ROOT", str(tmp_path))
    code = main([
        "synth", "--out", "rooted", "--num-pairs", "1", "--seed", "1",
        *SCENE_FLAGS, *DATA_FLAGS,
    ])
    assert code == 0
    assert (tmp_path / "rooted" / "manifest.json").exists()


def untrained_checkpoint(tmp_path):
    """Freshly initialized weights whose hyperparameters match TOY_FLAGS."""
    hyper = HyperParams(src_keypoints=8, tgt_keypoints=8, pillar_points=6, feature_depth=8,
                        attention_heads=2, attention_layers=2, sinkhorn_iterations=10,
                        positional_hidden=(8, 16))
    path = tmp_path / "model.pmc"
    save_checkpoint(path, ModelParameters.initialize(hyper, seed=0))
    return path


def set_first(key, value):
    """A checkpoint edit that sets the first element of array ``key``, stored
    as float64 so that values beyond float32 can be written."""
    def edit(meta, arrays):
        arrays[key] = arrays[key].astype(np.float64)
        arrays[key].flat[0] = value
    return edit


@pytest.mark.parametrize("edit", [
    lambda meta, arrays: meta["hyper"].update(attention_dropout=0.1),
    lambda meta, arrays: meta["hyper"].pop("dustbin_init"),
    lambda meta, arrays: arrays.pop("stat.pillar.norm.running_mean"),
    set_first("param.pillar.weight", np.nan),
    set_first("param.dustbin.score", np.inf),
    set_first("param.positional.0.weight", 1e300),
    set_first("stat.positional.0.norm.running_mean", np.nan),
    set_first("stat.pillar.norm.running_var", -np.inf),
    set_first("stat.pillar.norm.running_var", -0.67),
], ids=["unknown-hyper", "missing-hyper", "missing-stat", "nan-param", "inf-param",
        "param-beyond-float32", "nan-stat", "inf-stat", "negative-variance"])
def test_malformed_checkpoint_is_config_error(tmp_path, capsys, edit):
    data = run_synth(tmp_path, "data", num_pairs=1, seed=5)
    checkpoint = untrained_checkpoint(tmp_path)
    args = ["match", "--checkpoint", str(checkpoint), "--pair", str(data / "pair_00000.ppair")]
    assert main(args) == 0
    rewrite_container(checkpoint, "checkpoint", edit)
    capsys.readouterr()
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("error: ")
    report = tmp_path / "report"
    assert main(["eval", "--data", str(data), "--matchers", "ours,nn",
                 "--checkpoint", str(checkpoint), "--report", str(report)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not report.exists()


@pytest.mark.parametrize("key,value", [
    ("stat.positional.0.norm.running_mean", np.nan),
    ("stat.pillar.norm.running_var", -0.67),
    ("param.pillar.weight", np.nan),
])
def test_resume_from_a_non_finite_checkpoint_writes_nothing(tmp_path, capsys, key, value):
    data = run_synth(tmp_path, "data", num_pairs=2, seed=4)
    first = tmp_path / "run"
    assert main(["train", "--data", str(data), "--out", str(first), "--max-steps", "1",
                 "--batch-size", "2", *TOY_FLAGS]) == 0
    checkpoint = first / "checkpoint_final.pmc"
    rewrite_container(checkpoint, "checkpoint", set_first(key, value))
    capsys.readouterr()
    resumed = tmp_path / "run2"
    assert main(["train", "--data", str(data), "--out", str(resumed), "--max-steps", "2",
                 "--resume", str(checkpoint)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key.split(".", 1)[1] in err
    assert not resumed.exists()


def test_malformed_pair_and_dataset_are_data_errors(tmp_path, capsys):
    data = run_synth(tmp_path, "data", num_pairs=1, seed=5)
    checkpoint = untrained_checkpoint(tmp_path)
    pair = data / "pair_00000.ppair"
    rewrite_container(pair, "pair", lambda meta, arrays: arrays.pop("labels.matched"))
    assert main(["match", "--checkpoint", str(checkpoint), "--pair", str(pair)]) == 3
    (data / "manifest.json").write_text("{not json")
    assert main(["eval", "--data", str(data), "--matchers", "nn"]) == 3
    (data / "manifest.json").write_text('{"kind": "pair-dataset", "version": 1}')
    assert main(["eval", "--data", str(data), "--matchers", "nn"]) == 3


def test_corrupt_container_is_data_error(tmp_path, capsys):
    data = run_synth(tmp_path, "data", num_pairs=1, seed=5)
    checkpoint = untrained_checkpoint(tmp_path)
    pair = data / "pair_00000.ppair"
    raw = pair.read_bytes()
    # drop the first array entry's name: the manifest stays valid JSON of equal length
    pair.write_bytes(raw.replace(b'"name":', b'"nome":', 1))
    assert main(["match", "--checkpoint", str(checkpoint), "--pair", str(pair)]) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_wrong_hyper_type_is_config_error(tmp_path, capsys):
    data = run_synth(tmp_path, "data", num_pairs=1, seed=5)
    checkpoint = untrained_checkpoint(tmp_path)
    rewrite_container(checkpoint, "checkpoint",
                      lambda meta, arrays: meta["hyper"].update(feature_depth="8"))
    args = ["match", "--checkpoint", str(checkpoint), "--pair", str(data / "pair_00000.ppair")]
    assert main(args) == 2
    assert "feature_depth" in capsys.readouterr().err


def test_misshapen_pair_array_is_data_error(tmp_path, capsys):
    data = run_synth(tmp_path, "data", num_pairs=1, seed=5)
    checkpoint = untrained_checkpoint(tmp_path)
    pair = data / "pair_00000.ppair"
    rewrite_container(pair, "pair", lambda meta, arrays: arrays.update(
        {"labels.matched": np.zeros((2, 3), dtype=np.int64)}))
    assert main(["match", "--checkpoint", str(checkpoint), "--pair", str(pair)]) == 3
    assert "labels.matched" in capsys.readouterr().err


def test_resume_without_adam_moments_is_config_error(tmp_path, capsys):
    data = run_synth(tmp_path, "data", num_pairs=2, seed=4)
    part_dir = tmp_path / "part"
    common = ["--data", str(data), "--loss", "nll", "--batch-size", "2", "--seed", "9",
              "--learning-rate", "1e-3", *TOY_FLAGS]
    assert main(["train", "--out", str(part_dir), "--epochs", "1", *common]) == 0
    checkpoint = part_dir / "checkpoint_final.pmc"
    rewrite_container(checkpoint, "checkpoint",
                      lambda meta, arrays: arrays.pop("extra.adam.m.dustbin.score"))
    capsys.readouterr()
    code = main(["train", "--out", str(tmp_path / "resumed"), "--epochs", "2",
                 "--resume", str(checkpoint), *common])
    assert code == 2
    assert "adam.m.dustbin.score" in capsys.readouterr().err


def _set_moment(arrays, key, value):
    arrays[key] = arrays[key].copy()
    arrays[key].flat[0] = value


@pytest.mark.parametrize("edit", [
    lambda meta, arrays: meta["optimizer"].update(beta1=1.0),
    lambda meta, arrays: meta["optimizer"].update(beta2=-0.1),
    lambda meta, arrays: meta["optimizer"].update(learning_rate=-1),
    lambda meta, arrays: meta["optimizer"].update(eps=0.0),
    lambda meta, arrays: _set_moment(arrays, "extra.adam.m.dustbin.score", np.nan),
    lambda meta, arrays: _set_moment(arrays, "extra.adam.v.dustbin.score", -1.0),
    lambda meta, arrays: meta.update(next_epoch="x"),
    lambda meta, arrays: meta.update(next_epoch=None),
    lambda meta, arrays: meta.update(next_epoch=-3),
    lambda meta, arrays: meta.update(next_epoch=-1),
    lambda meta, arrays: meta.update(next_epoch=1.5),
    lambda meta, arrays: meta.update(run=[1]),
    lambda meta, arrays: meta["run"].update(extra=1),
    lambda meta, arrays: meta["run"].update(batch_size="2"),
    lambda meta, arrays: meta["run"].update(batch_size=0),
    lambda meta, arrays: meta["run"].update(loss_kind="bogus"),
    lambda meta, arrays: meta["run"].update(seed=-1),
], ids=["beta1-one", "beta2-negative", "negative-learning-rate", "zero-eps", "nan-moment",
        "negative-second-moment", "next-epoch-string", "next-epoch-null", "next-epoch-negative",
        "next-epoch-minus-one", "next-epoch-fraction", "run-not-an-object", "run-unknown-key",
        "run-batch-size-string", "run-batch-size-zero", "run-loss-bogus", "run-seed-negative"])
def test_resume_from_bad_training_state_is_config_error_and_writes_nothing(tmp_path, capsys,
                                                                           edit):
    data = run_synth(tmp_path, "data", num_pairs=2, seed=4)
    part_dir = tmp_path / "part"
    common = ["--data", str(data), "--batch-size", "2", "--learning-rate", "1e-3", *TOY_FLAGS]
    assert main(["train", "--out", str(part_dir), "--max-steps", "1", *common]) == 0
    checkpoint = part_dir / "checkpoint_final.pmc"
    rewrite_container(checkpoint, "checkpoint", edit)
    capsys.readouterr()
    resumed = tmp_path / "resumed"
    code = main(["train", "--out", str(resumed), "--resume", str(checkpoint),
                 "--max-steps", "2", *common])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not resumed.exists()
