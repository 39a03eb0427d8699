#!/bin/sh
# Runs the command line end to end through its console script, as an installed
# package is run. PILLARMATCH names the command (default: the console script),
# for example PILLARMATCH="python -m pillarmatch.cli" with PYTHONPATH=src in a
# source checkout. Outputs go under RUNNER_TEMP, a new temporary directory when unset.
set -eu
: "${RUNNER_TEMP:=$(mktemp -d)}"
export RUNNER_TEMP

# unquoted where it runs, so a command of several words splits into them
cli=${PILLARMATCH:-pillarmatch}

$cli synth --out "$RUNNER_TEMP/data" --num-pairs 2 --points 600 --keypoints 8 --pillar-points 8
$cli train --data "$RUNNER_TEMP/data" --out "$RUNNER_TEMP/run" --max-steps 1 --batch-size 2
$cli train --data "$RUNNER_TEMP/data" --out "$RUNNER_TEMP/run2" --resume "$RUNNER_TEMP/run/checkpoint_final.pmc" --max-steps 2
# a fresh run takes its key-point counts and pillar capacity from its dataset, 8/8 and 8; the
# resume keeps the checkpoint's network and, left out, its run flags: batch 2, not the default 16
python -c "
import json, os, sys
from pillarmatch.container import read_container
temp = os.environ['RUNNER_TEMP']
shapes = [
    tuple(read_container(os.path.join(temp, run, 'checkpoint_final.pmc'), expect_kind='checkpoint')[0]['hyper'][k]
          for k in ('src_keypoints', 'tgt_keypoints', 'pillar_points'))
    for run in ('run', 'run2')
]
batch_size = json.load(open(os.path.join(temp, 'run2', 'config.json')))['batch_size']
sys.exit(shapes != [(8, 8, 8)] * 2 or batch_size != 2)
"
# --max-steps counts the resumed steps: a resume at the cap trains nothing and adds no history line
lines=$(wc -l < "$RUNNER_TEMP/run2/history.jsonl")
$cli train --data "$RUNNER_TEMP/data" --out "$RUNNER_TEMP/run2" --resume "$RUNNER_TEMP/run2/checkpoint_final.pmc" --max-steps 2
test "$(wc -l < "$RUNNER_TEMP/run2/history.jsonl")" -eq "$lines"
# a resume that leaves out every run flag continues the run its checkpoint records
$cli train --data "$RUNNER_TEMP/data" --out "$RUNNER_TEMP/full" --epochs 3 --batch-size 1 --seed 3 --loss nll --learning-rate 1e-3 --checkpoint-every 1
$cli train --data "$RUNNER_TEMP/data" --out "$RUNNER_TEMP/rest" --resume "$RUNNER_TEMP/full/checkpoint_00000.pmc"
tail -n +2 "$RUNNER_TEMP/full/history.jsonl" | cmp - "$RUNNER_TEMP/rest/history.jsonl"
cmp "$RUNNER_TEMP/full/checkpoint_final.pmc" "$RUNNER_TEMP/rest/checkpoint_final.pmc"
# a run's config.json echo alone repeats it
$cli train --config "$RUNNER_TEMP/run/config.json" --out "$RUNNER_TEMP/run3"
cmp "$RUNNER_TEMP/run/history.jsonl" "$RUNNER_TEMP/run3/history.jsonl"
# a bad setting exits 2 with a one-line message, not a traceback
code=0; $cli synth --out "$RUNNER_TEMP/bad" --seed -1 2> "$RUNNER_TEMP/bad.err" || code=$?
test "$code" -eq 2
if grep -q Traceback "$RUNNER_TEMP/bad.err"; then exit 1; fi
# train reads the key-point count from its dataset and takes no --keypoints: the flag is a
# usage error, refused before writing anything
code=0; $cli train --data "$RUNNER_TEMP/data" --out "$RUNNER_TEMP/flag" --keypoints 8 2> "$RUNNER_TEMP/flag.err" || code=$?
test "$code" -eq 2
if grep -q Traceback "$RUNNER_TEMP/flag.err"; then exit 1; fi
test ! -e "$RUNNER_TEMP/flag"
# a resume refuses a model flag that differs from its checkpoint, before writing anything
code=0; $cli train --data "$RUNNER_TEMP/data" --out "$RUNNER_TEMP/clash" --resume "$RUNNER_TEMP/run/checkpoint_final.pmc" --match-threshold 0.7 2> "$RUNNER_TEMP/clash.err" || code=$?
test "$code" -eq 2
if grep -q Traceback "$RUNNER_TEMP/clash.err"; then exit 1; fi
test ! -e "$RUNNER_TEMP/clash"
# a resume refuses a checkpoint holding a NaN running statistic, before writing anything
python -c "
import os, numpy as np
from pillarmatch.container import read_container, write_container
temp = os.environ['RUNNER_TEMP']
meta, arrays = read_container(os.path.join(temp, 'run', 'checkpoint_final.pmc'), expect_kind='checkpoint')
arrays['stat.positional.0.norm.running_mean'][0] = np.nan
write_container(os.path.join(temp, 'nan.pmc'), 'checkpoint', meta, arrays)
"
code=0; $cli train --data "$RUNNER_TEMP/data" --out "$RUNNER_TEMP/nan" --resume "$RUNNER_TEMP/nan.pmc" 2> "$RUNNER_TEMP/nan.err" || code=$?
test "$code" -eq 2
if grep -q Traceback "$RUNNER_TEMP/nan.err"; then exit 1; fi
test ! -e "$RUNNER_TEMP/nan"
# frames of 12k points take the chunked, threaded smoothness path; 30 exact copies of a
# record, which need not come first in their own neighbor lists, take the general
# own-index path, and a point at the origin has no smoothness; two runs write equal pair files
python -c "
import os, numpy as np
from pillarmatch import cloud
from pillarmatch.transforms import RigidTransform
seq = os.path.join(os.environ['RUNNER_TEMP'], 'seq'); os.makedirs(os.path.join(seq, 'velodyne'))
rng = np.random.default_rng(0); scene = rng.normal(size=(12000, 3)) * 5.0 + [12.0, 0.0, 0.0]
poses = [RigidTransform.from_rotation_translation(np.eye(3), [0.2 * i, 0.0, 0.0]) for i in range(3)]
for i, pose in enumerate(poses):
    points = pose.inverse().apply(scene) + rng.normal(0.0, 0.01, scene.shape)
    intensities = rng.uniform(size=len(scene))
    points = np.vstack([points, np.repeat(points[:1], 30, axis=0), [[0.0, 0.0, 0.0]]])
    intensities = np.concatenate([intensities, np.repeat(intensities[:1], 30), [0.5]])
    cloud.save_kitti_scan(cloud.PointCloud(points, intensities), os.path.join(seq, 'velodyne', f'{i:06d}.bin'))
cloud.save_kitti_poses(poses, os.path.join(seq, 'poses.txt'))
"
for run in pre1 pre2; do
  $cli preprocess --scans "$RUNNER_TEMP/seq/velodyne" --poses "$RUNNER_TEMP/seq/poses.txt" --out "$RUNNER_TEMP/$run" --distances 1,2 --keypoints 8 --pillar-points 8
done
test "$(ls "$RUNNER_TEMP"/pre1/*.ppair | wc -l)" -eq 3
for pair in "$RUNNER_TEMP"/pre1/*.ppair; do cmp "$pair" "$RUNNER_TEMP/pre2/$(basename "$pair")"; done
# two evals of one dataset write equal frames, and every failed frame says why
for run in eval1 eval2; do
  $cli eval --data "$RUNNER_TEMP/data" --matchers nn,icp,vm --report "$RUNNER_TEMP/$run"
done
for name in frames.jsonl summary.json report.txt; do cmp "$RUNNER_TEMP/eval1/$name" "$RUNNER_TEMP/eval2/$name"; done
python -c "import json, os, sys; recs = [json.loads(l) for l in open(os.path.join(os.environ['RUNNER_TEMP'], 'eval1', 'frames.jsonl'))]; sys.exit(not recs or any(r['failed'] != (r['failure_reason'] is not None) for r in recs))"
# a matcher named twice exits 2 with a one-line message and writes no report
code=0; $cli eval --data "$RUNNER_TEMP/data" --matchers nn,nn --report "$RUNNER_TEMP/twice" 2> "$RUNNER_TEMP/twice.err" || code=$?
test "$code" -eq 2
test "$(wc -l < "$RUNNER_TEMP/twice.err")" -eq 1
test ! -e "$RUNNER_TEMP/twice"
# ours without --checkpoint is a usage error before the dataset is read: a missing --data
# would exit 3
code=0; $cli eval --data "$RUNNER_TEMP/nowhere" --matchers ours --report "$RUNNER_TEMP/nockpt" 2> "$RUNNER_TEMP/nockpt.err" || code=$?
test "$code" -eq 2
if grep -q Traceback "$RUNNER_TEMP/nockpt.err"; then exit 1; fi
test ! -e "$RUNNER_TEMP/nockpt"
# a dataset of no pairs has nothing to evaluate: exit 2, and no report
$cli synth --out "$RUNNER_TEMP/empty" --num-pairs 0
code=0; $cli eval --data "$RUNNER_TEMP/empty" --matchers nn --report "$RUNNER_TEMP/emptyr" 2> "$RUNNER_TEMP/empty.err" || code=$?
test "$code" -eq 2
if grep -q Traceback "$RUNNER_TEMP/empty.err"; then exit 1; fi
test ! -e "$RUNNER_TEMP/emptyr"
# inference from the trained checkpoint: two runs write equal assignment grids and frames
for run in 1 2; do
  $cli match --checkpoint "$RUNNER_TEMP/run/checkpoint_final.pmc" --pair "$RUNNER_TEMP/data/pair_00000.ppair" --dump-assignment "$RUNNER_TEMP/assignment$run.csv"
  $cli eval --data "$RUNNER_TEMP/data" --matchers ours,nn --checkpoint "$RUNNER_TEMP/run/checkpoint_final.pmc" --report "$RUNNER_TEMP/ours$run"
done
cmp "$RUNNER_TEMP/assignment1.csv" "$RUNNER_TEMP/assignment2.csv"
cmp "$RUNNER_TEMP/ours1/frames.jsonl" "$RUNNER_TEMP/ours2/frames.jsonl"
