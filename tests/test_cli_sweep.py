"""Boundary sweep of the command line.

Every flag of every subcommand that does not name a file runs at each value
of :data:`EDGE_VALUES`, and each kind of input file runs once corrupted,
through :func:`cli.main` at toy shapes. Whatever the input, a run ends with
a documented exit code and a one-line message, never an escaping exception.
The flags come from :func:`cli.build_parser`, so a new flag is swept
without being listed here.
"""
import json

import numpy as np
import pytest

from test_cli import (DATA_FLAGS, PREPROCESS_FLAGS, SCENE_FLAGS, TOY_FLAGS,
                      untrained_checkpoint, write_scan_sequence)

from pillarmatch import cli, errors
from pillarmatch.cli import main

EDGE_VALUES = ["nan", "inf", "-inf", "-1", "0", "1e308", "abc", ""]

# flags that name a file or directory; the file mutations below cover what they read
PATH_DESTS = {"config", "out", "scans", "poses", "data", "resume", "checkpoint", "pair",
              "dump_assignment", "plot_export", "report"}

# edge values a command must refuse, and the exit code it refuses them with
REFUSED = {
    ("synth", "--seed"): ({"-1"}, 2),
    ("train", "--seed"): ({"-1"}, 2),
    ("synth", "--rotation-bound"): ({"nan", "inf", "-inf", "-1", "1e308"}, 2),
    ("synth", "--translation-bound"): ({"nan", "inf", "-inf", "-1", "1e308"}, 2),
    ("synth", "--match-radius"): ({"nan", "-inf", "-1", "0"}, 2),
    ("match", "--match-threshold"): ({"nan", "inf", "-inf", "-1", "1e308"}, 2),
    ("eval", "--match-threshold"): ({"nan", "inf", "-inf", "-1", "1e308"}, 2),
    ("match", "--sinkhorn-iters"): ({"-1", "0"}, 2),
    ("synth", "--pillar-radius"): ({"-inf", "-1", "0"}, 2),
    ("preprocess", "--pillar-radius"): ({"-inf", "-1", "0"}, 2),
    ("train", "--pillar-radius"): ({"-inf", "-1", "0"}, 2),
    # a float32 network cannot hold these: the first Adam step, or the
    # initialisation, would make a weight infinite
    ("train", "--learning-rate"): ({"1e308"}, 4),
    ("train", "--dustbin-init"): ({"1e308"}, 4),
}

# the exit code cli.main documents for each error class
EXIT_CODES = {
    errors.ConfigError: 2, errors.ArgumentError: 2, errors.FormatError: 3, OSError: 3,
    errors.PillarMatchError: 3, errors.ShapeError: 3, errors.DegeneratePointError: 3,
    errors.InsufficientPointsError: 3, errors.InsufficientCorrespondencesError: 3,
    errors.DegenerateGeometryError: 3, errors.NumericError: 4,
}


def make_inputs(root):
    """A one-pair toy dataset, a checkpoint that fits it, and a scan sequence."""
    data = root / "data"
    assert main(["synth", "--out", str(data), "--num-pairs", "1", *SCENE_FLAGS,
                 *DATA_FLAGS]) == 0
    scans, poses = write_scan_sequence(root, np.random.default_rng(5), frames=3)
    return {"data": data, "pair": data / "pair_00000.ppair", "scans": scans, "poses": poses,
            "checkpoint": untrained_checkpoint(root)}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return make_inputs(tmp_path_factory.mktemp("sweep"))


def base_argv(command, inputs, out):
    """A valid toy run of ``command`` writing under ``out``."""
    data, checkpoint = str(inputs["data"]), str(inputs["checkpoint"])
    return {
        "synth": ["synth", "--out", out, "--num-pairs", "1", *SCENE_FLAGS, *DATA_FLAGS],
        "preprocess": ["preprocess", "--scans", str(inputs["scans"]), "--poses",
                       str(inputs["poses"]), "--out", out, "--distances", "1",
                       *PREPROCESS_FLAGS],
        "train": ["train", "--data", data, "--out", out, "--epochs", "1", "--max-steps", "1",
                  "--batch-size", "1", *TOY_FLAGS],
        "match": ["match", "--checkpoint", checkpoint, "--pair", str(inputs["pair"])],
        "eval": ["eval", "--data", data, "--checkpoint", checkpoint],
    }[command]


def run(argv, capsys):
    """``(exit code, stderr)`` of one ``cli.main`` run; argparse's usage errors count
    by their exit code, and any other exception is reported by its class."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an escaping exception is what the sweep looks for
        code = type(exc).__name__
    captured = capsys.readouterr()
    return code, captured.err


def swept_flags(command):
    """``(flag, takes a value)`` for each option of ``command`` that names no file."""
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    for action in sub.choices[command]._actions:
        if action.option_strings and action.dest not in PATH_DESTS | {"help"}:
            yield action.option_strings[0], action.nargs != 0


@pytest.mark.parametrize("command", ["synth", "preprocess", "train", "match", "eval"])
def test_every_flag_at_every_edge_value_exits_with_a_documented_code(tmp_path, capsys, inputs,
                                                                     command):
    wrong = []
    flags = list(swept_flags(command))
    assert len(flags) >= 3
    for k, (flag, takes_value) in enumerate(flags):
        for n, value in enumerate(EDGE_VALUES if takes_value else [None]):
            argv = base_argv(command, inputs, str(tmp_path / f"{k}_{n}")) + [flag]
            code, err = run(argv + ([value] if takes_value else []), capsys)
            refused, refusal = REFUSED.get((command, flag), ((), None))
            expected = {refusal} if value in refused else {0, 2, 3, 4}
            if code not in expected or "Traceback" in err or (code and "error" not in err):
                wrong.append(f"{flag} {value!r}: exit {code}")
    assert not wrong, f"{len(wrong)} of the {command} runs: " + "; ".join(wrong)


@pytest.mark.parametrize("value", sorted(REFUSED[("eval", "--match-threshold")][0]))
def test_eval_refuses_a_bad_match_threshold_without_a_checkpoint(tmp_path, capsys, inputs, value):
    # no matcher reads the threshold and no checkpoint is loaded; "=" passes
    # "-inf" to the command rather than to argparse as an option
    report = tmp_path / "report"
    argv = ["eval", "--data", str(inputs["data"]), "--matchers", "nn,icp",
            f"--match-threshold={value}", "--report", str(report)]
    code, err = run(argv, capsys)
    assert (code, err.startswith("error: ")) == (2, True), err
    assert not report.exists()


@pytest.mark.parametrize("error,code", EXIT_CODES.items(), ids=lambda v: getattr(v, "__name__", v))
def test_each_error_class_exits_with_its_documented_code(monkeypatch, capsys, error, code):
    def fail(args):
        raise error("boom")

    monkeypatch.setattr(cli, "cmd_synth", fail)
    assert main(["synth", "--out", "unused"]) == code
    assert capsys.readouterr().err == "error: boom\n"


def _nan_scan(inputs, root):
    scan = sorted(inputs["scans"].glob("*.bin"))[1]
    records = np.fromfile(scan, dtype="<f4")
    records[5] = np.nan
    records.tofile(scan)


def _bad_pose_line(inputs, root):
    inputs["poses"].write_text(inputs["poses"].read_text() + "1 2 x\n")


def _manifest_entry(name):
    def edit(inputs, root):
        manifest_path = inputs["data"] / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["pairs"] = [name.format(root=root)]
        manifest_path.write_text(json.dumps(manifest))
    return edit


def _outside_pair(inputs, root):
    (root / "outside.ppair").write_bytes(inputs["pair"].read_bytes())


def _truncate(key):
    def edit(inputs, root):
        path = inputs[key]
        path.write_bytes(path.read_bytes()[:-7])
    return edit


def _bad_config(inputs, root):
    (root / "config.json").write_text('{"seed": ')
    return ["--config", str(root / "config.json")]


def _binary_config(inputs, root):
    (root / "config.json").write_bytes(b'\xff{"seed": 1}')
    return ["--config", str(root / "config.json")]


def _binary_pose_line(inputs, root):
    poses = inputs["poses"]
    poses.write_bytes(poses.read_bytes() + b"1 0 0 0 0 1 0 0 0 0 1 0\xe9\n")


def _binary_manifest(inputs, root):
    manifest_path = inputs["data"] / "manifest.json"
    manifest_path.write_bytes(b"\xff" + manifest_path.read_bytes())


# (mutations, command that reads the file, expected exit code); a mutation
# returns the flags that make the command read its file, if the base run does not
FILE_CASES = {
    "scan-with-nan": ([_nan_scan], "preprocess", 3),
    "pose-non-numeric": ([_bad_pose_line], "preprocess", 3),
    "manifest-parent-entry": ([_outside_pair, _manifest_entry("../outside.ppair")], "eval", 3),
    "manifest-absolute-entry": ([_outside_pair, _manifest_entry("{root}/outside.ppair")],
                                "eval", 3),
    "pair-truncated": ([_truncate("pair")], "match", 3),
    "checkpoint-truncated": ([_truncate("checkpoint")], "match", 3),
    "config-invalid-json": ([_bad_config], "synth", 3),
    "config-not-text": ([_binary_config], "synth", 3),
    "pose-not-text": ([_binary_pose_line], "preprocess", 3),
    "manifest-not-text": ([_binary_manifest], "eval", 3),
}


@pytest.mark.parametrize("case", FILE_CASES)
def test_each_corrupted_file_kind_exits_with_its_documented_code(tmp_path, capsys, case):
    mutations, command, expected = FILE_CASES[case]
    inputs = make_inputs(tmp_path)
    argv = base_argv(command, inputs, str(tmp_path / "out"))
    # the unmutated files pass, so the mutation alone makes the error
    assert run(argv, capsys)[0] == 0
    for mutate in mutations:
        argv += mutate(inputs, tmp_path) or []
    code, err = run(argv, capsys)
    assert (code, err.startswith("error: "), err.count("\n")) == (expected, True, 1), err
