"""The three benchmark workloads: inputs, one unit of work, output checks.

Each workload drives pillarmatch through a public entry point, looked up as a
module attribute at call time so that ``spans.Tracer`` can wrap it:

- ``train-desk``: optimizer steps through ``learn.train`` at desk shape;
  one operation is one step of 8 pairs.
- ``eval-paper``: ``register.evaluate_matchers`` on one frame at paper shape
  with initial weights; one operation is one frame.
- ``preprocess-seq``: ``cli.main(["preprocess", ...])`` over a KITTI-format
  sequence; one operation is one pair file written.

A workload builds its inputs from the seed in ``setup``, runs units of work
in ``unit``, checks the seeded run as a whole in ``check_run`` and computes
``reference_outputs`` on fixed inputs, which the harness compares with the
stored ``reference.json``.
"""
from __future__ import annotations

import dataclasses
import hashlib
import io
import math
import shutil
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from pillarmatch import cli, cloud, learn, network, pairio, pipeline, register
from pillarmatch.transforms import RigidTransform, rotation_about_axis

# Inputs of the reference check; independent of --seed so that the stored
# outputs in reference.json apply to every run.
REFERENCE_SEED = 0


@dataclass
class Op:
    """One operation: its latency, the pairs it completed and why it failed."""

    latency_s: float
    pairs: int
    problem: str | None = None
    counts: dict = field(default_factory=dict)


def _scene_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


# ---------------------------------------------------------------------------
# train-desk
# ---------------------------------------------------------------------------

DESK_HYPER = network.HyperParams(
    src_keypoints=32, tgt_keypoints=32, pillar_points=32, feature_depth=32,
    attention_heads=8, attention_layers=6, sinkhorn_iterations=100,
)
# the 1.5k-point scene of acceptance criterion 6
DESK_SCENE = cloud.SceneConfig(
    point_count=1500, overlap=0.9, rotation_bound=0.02, translation_bound=0.15,
    noise_sigma=0.002, window=10.0, width=6.0, pole_count=10,
)
BATCH = 8
LEARNING_RATE = 1e-4


class TrainDesk:
    name = "train-desk"
    ops_per_unit = 1

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.pair_count = BATCH if smoke else 4 * BATCH
        self.scene = dataclasses.replace(DESK_SCENE, point_count=600) if smoke else DESK_SCENE

    def _dataset(self, seed: int, count: int, scene, directory: Path):
        pairs = [
            pairio.preprocess_pair(cloud.generate_synthetic_pair(_scene_seed(seed, k), scene),
                                   DESK_HYPER)
            for k in range(count)
        ]
        pairio.write_dataset(directory, pairs, {"workload": self.name, "seed": seed})
        return pairio.load_dataset(directory)

    def setup(self, directory: Path) -> int:
        self.pairs = self._dataset(self.seed, self.pair_count, self.scene, directory)
        self.params = network.ModelParameters.initialize(DESK_HYPER, seed=self.seed)
        self.optimizer = learn.AdamState(learning_rate=LEARNING_RATE)
        self.step = 0
        return len(self.pairs)

    def _train_step(self, pairs, params, optimizer, step: int, seed: int):
        """One optimizer step on batch ``step`` of ``pairs``; (seconds, loss)."""
        lo = (step % (len(pairs) // BATCH)) * BATCH
        run = learn.TrainRun(dataset_id=self.name, epochs=step + 1, batch_size=BATCH,
                             seed=seed, loss_kind="nllp", learning_rate=LEARNING_RATE)
        start = perf_counter()
        result = learn.train(pairs[lo : lo + BATCH], run, DESK_HYPER, params=params,
                             optimizer=optimizer, start_epoch=step)
        return perf_counter() - start, result.history[-1]["loss"]

    def warm_up(self) -> None:
        # one epoch: builds and caches every pair's feature stacks and Adam's
        # moments, work a training run does once
        for _ in range(len(self.pairs) // BATCH):
            _, loss = self._train_step(self.pairs, self.params, self.optimizer, self.step,
                                       self.seed)
            if self.step == 0:
                self.first_loss = loss
            self.step += 1

    def unit(self, index: int) -> list[Op]:
        seconds, loss = self._train_step(self.pairs, self.params, self.optimizer, self.step,
                                         self.seed)
        self.step += 1
        problem = None if math.isfinite(loss) else f"step {self.step - 1}: loss {loss}"
        return [Op(seconds, BATCH, problem)]

    def check_run(self) -> list[str]:
        """Replaying the first step from fresh weights gives the same loss."""
        params = network.ModelParameters.initialize(DESK_HYPER, seed=self.seed)
        optimizer = learn.AdamState(learning_rate=LEARNING_RATE)
        _, loss = self._train_step(self.pairs, params, optimizer, 0, self.seed)
        if loss != self.first_loss:
            return [f"replayed first step gave loss {loss!r}, run gave {self.first_loss!r}"]
        return []

    def reference_outputs(self, directory: Path) -> dict:
        """Losses of the first steps from fixed inputs and initial weights."""
        pairs = self._dataset(REFERENCE_SEED, BATCH, DESK_SCENE, directory)
        params = network.ModelParameters.initialize(DESK_HYPER, seed=REFERENCE_SEED)
        optimizer = learn.AdamState(learning_rate=LEARNING_RATE)
        losses = [self._train_step(pairs, params, optimizer, step, REFERENCE_SEED)[1]
                  for step in range(2)]
        return {"losses": [float(v) for v in losses]}


# ---------------------------------------------------------------------------
# eval-paper
# ---------------------------------------------------------------------------

PAPER_HYPER = network.HyperParams()
# about 20k points per cloud
PAPER_SCENE = cloud.SceneConfig(point_count=25_000)
MATCHERS = ("ours", "nn", "icp")


def _fresh(pair):
    """A copy without lazily built feature stacks, as a frame seen first."""
    return pairio.PreprocessedPair(**{
        f.name: getattr(pair, f.name)
        for f in dataclasses.fields(pair)
        if f.init and not f.name.startswith("_")
    })


def _frame_outcome(report) -> tuple:
    return tuple(
        (r.matcher, r.failed, r.num_matches, r.matching_score,
         r.translational_error, r.rotational_error)
        for r in report.records
    )


class EvalPaper:
    name = "eval-paper"
    ops_per_unit = 1

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.frame_count = 2 if smoke else 8
        self.scene = dataclasses.replace(PAPER_SCENE, point_count=3000) if smoke else PAPER_SCENE

    def setup(self, directory: Path) -> int:
        # frames are independent: no cloud is shared between two pairs
        self.pairs = [
            pairio.preprocess_pair(
                cloud.generate_synthetic_pair(_scene_seed(self.seed, k), self.scene),
                PAPER_HYPER)
            for k in range(self.frame_count)
        ]
        self.params = network.ModelParameters.initialize(PAPER_HYPER, seed=self.seed)
        self.outcomes = {}
        return len(self.pairs)

    def warm_up(self) -> None:
        register.evaluate_matchers([_fresh(self.pairs[0])], matchers=MATCHERS,
                                   params=self.params)

    def unit(self, index: int) -> list[Op]:
        frame = index % len(self.pairs)
        pair = _fresh(self.pairs[frame])
        start = perf_counter()
        report = register.evaluate_matchers([pair], matchers=MATCHERS, params=self.params)
        seconds = perf_counter() - start
        # a non-finite assignment raises NumericError inside the program and
        # so fails the operation; here the reported numbers are checked
        outcome = _frame_outcome(report)
        numbers = [v for rec in outcome for v in rec[3:] if v is not None]
        problem = None
        if not all(math.isfinite(v) for v in numbers):
            problem = f"frame {frame}: non-finite metric"
        elif self.outcomes.setdefault(frame, outcome) != outcome:
            problem = f"frame {frame}: result differs from its first evaluation"
        counts = {f"register.frames_failed.{m}": report.failures[m] for m in MATCHERS}
        return [Op(seconds, 1, problem, counts)]

    def check_run(self) -> list[str]:
        return []

    def reference_outputs(self, directory: Path) -> dict:
        """Match sets and transform errors on fixed frames."""
        scene = dataclasses.replace(PAPER_SCENE, point_count=8000)
        params = network.ModelParameters.initialize(PAPER_HYPER, seed=REFERENCE_SEED)
        frames = []
        for k in range(2):
            pair = pairio.preprocess_pair(
                cloud.generate_synthetic_pair(_scene_seed(REFERENCE_SEED, k), scene),
                PAPER_HYPER)
            result = pipeline.match_pair(params, pair)
            nn = register.nn_matcher(*pair.coords)
            report = register.evaluate_matchers([pair], matchers=MATCHERS, params=params)
            frames.append({
                "assignment_finite": bool(np.all(np.isfinite(result.assignment.log_p.data))),
                "ours_matches": sorted([i, j] for i, j in result.matches.index_pairs),
                "nn_matches": sorted([i, j] for i, j in nn.index_pairs),
                "records": [
                    [m, failed, count] + [None if v is None else float(v) for v in values]
                    for m, failed, count, *values in _frame_outcome(report)
                ],
            })
        return {"frames": frames}


# ---------------------------------------------------------------------------
# preprocess-seq
# ---------------------------------------------------------------------------

DISTANCES = (1, 5, 10)
SEQ_STEP_M = 1.0          # sensor travel between frames
SEQ_RANGE_M = 25.0        # scanned half-length of street ahead and behind
STREET_HALF_WIDTH_M = 6.0
POLE_SPACING_M = 4.0
SENSOR_HEIGHT_M = 1.7


def _sample_street(rng, poles, x_lo: float, x_hi: float, count: int):
    """World points on the floor, both walls and the poles in [x_lo, x_hi]."""
    w = STREET_HALF_WIDTH_M
    n_floor, n_wall = count // 2, count * 3 // 10
    n_pole = count - n_floor - n_wall
    floor = np.column_stack([rng.uniform(x_lo, x_hi, n_floor), rng.uniform(-w, w, n_floor),
                             np.zeros(n_floor)])
    floor[:, 2] = 0.15 * np.sin(2.2 * floor[:, 0]) * np.sin(1.7 * floor[:, 1])
    wall_x, wall_z = rng.uniform(x_lo, x_hi, n_wall), rng.uniform(0.0, 3.0, n_wall)
    side = rng.choice([-1.0, 1.0], n_wall)
    walls = np.column_stack([wall_x, side * (w + 0.1 * np.sin(1.9 * wall_x) * np.sin(2.3 * wall_z)),
                             wall_z])
    inside = np.flatnonzero((poles[:, 0] >= x_lo) & (poles[:, 0] <= x_hi))
    which = inside[rng.integers(len(inside), size=n_pole)]
    angle = rng.uniform(0.0, 2.0 * np.pi, n_pole)
    pole_pts = np.column_stack([poles[which, 0] + 0.1 * np.cos(angle),
                                poles[which, 1] + 0.1 * np.sin(angle),
                                rng.uniform(0.0, 2.5, n_pole)])
    points = np.concatenate([floor, walls, pole_pts]) + rng.normal(0.0, 0.01, (count, 3))
    intensity = np.concatenate([np.full(n_floor, 0.2), np.full(n_wall, 0.4),
                                0.55 + 0.4 * (which % 8) / 7.0])
    intensity = np.clip(intensity + rng.normal(0.0, 0.02, count), 0.0, 1.0)
    return points, intensity


def write_sequence(directory: Path, seed: int, frames: int, points: int):
    """KITTI-format scans and poses of a sensor driving down a street."""
    rng = np.random.default_rng(seed)
    x_end = (frames - 1) * SEQ_STEP_M + SEQ_RANGE_M
    pole_x = np.arange(-SEQ_RANGE_M, x_end, POLE_SPACING_M)
    poles = np.column_stack([
        pole_x + rng.uniform(0.0, POLE_SPACING_M, len(pole_x)),
        rng.uniform(-STREET_HALF_WIDTH_M + 0.5, STREET_HALF_WIDTH_M - 0.5, len(pole_x)),
    ])
    scans = directory / "velodyne"
    scans.mkdir(parents=True)
    poses = []
    for i in range(frames):
        position = np.array([i * SEQ_STEP_M, 0.3 * np.sin(0.4 * i), SENSOR_HEIGHT_M])
        pose = RigidTransform.from_rotation_translation(
            rotation_about_axis([0.0, 0.0, 1.0], 0.05 * np.sin(0.7 * i)), position)
        world, intensity = _sample_street(rng, poles, position[0] - SEQ_RANGE_M,
                                          position[0] + SEQ_RANGE_M, points)
        cloud.save_kitti_scan(cloud.PointCloud(pose.inverse().apply(world), intensity),
                              scans / f"{i:06d}.bin")
        poses.append(pose)
    cloud.save_kitti_poses(poses, directory / "poses.txt")
    return scans, directory / "poses.txt"


def _preprocess(scans: Path, poses: Path, out: Path) -> int:
    with redirect_stdout(io.StringIO()):
        return cli.main(["preprocess", "--scans", str(scans), "--poses", str(poses),
                         "--out", str(out), "--distances", ",".join(map(str, DISTANCES))])


def _pair_digests(directory: Path) -> dict:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.glob(f"*{pairio.PAIR_SUFFIX}"))
    }


class PreprocessSeq:
    name = "preprocess-seq"

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.frames = 11
        self.points = 3000 if smoke else 100_000
        self.ops_per_unit = sum(max(0, self.frames - d) for d in DISTANCES)

    def setup(self, directory: Path) -> int:
        self.directory = directory
        self.scans, self.poses = write_sequence(directory, self.seed, self.frames, self.points)
        self.digests = None
        return 0

    def warm_up(self) -> None:
        pass

    def unit(self, index: int) -> list[Op]:
        """One ``cli preprocess`` call; an op ends when its pair is built.

        ``cli preprocess`` builds every pair before it writes any file, so the
        writes at the end are counted in the last op of the call.
        """
        out = self.directory / "out"
        stamps = []
        original = pairio.preprocess_pair

        def stamped(*args, **kwargs):
            result = original(*args, **kwargs)
            stamps.append(perf_counter())
            return result

        pairio.preprocess_pair = stamped
        start = perf_counter()
        try:
            code = _preprocess(self.scans, self.poses, out)
        finally:
            end = perf_counter()
            pairio.preprocess_pair = original
        if code != 0 or len(stamps) != self.ops_per_unit:
            share = (end - start) / self.ops_per_unit
            problem = f"exit code {code}, {len(stamps)} of {self.ops_per_unit} pairs"
            return [Op(share, 0, problem) for _ in range(self.ops_per_unit)]
        bounds = [start] + stamps[:-1] + [end]
        digests = _pair_digests(out)
        shutil.rmtree(out)
        if self.digests is None:
            self.digests = digests
        problem = None if digests == self.digests else "pair files differ from the first call"
        return [Op(b - a, 1, problem) for a, b in zip(bounds, bounds[1:])]

    def check_run(self) -> list[str]:
        return []

    def reference_outputs(self, directory: Path) -> dict:
        """Digests of the pair files of a small fixed sequence."""
        scans, poses = write_sequence(directory, REFERENCE_SEED, self.frames, 4000)
        code = _preprocess(scans, poses, directory / "out")
        return {"exit_code": code, "pair_sha256": _pair_digests(directory / "out")}


WORKLOADS = {w.name: w for w in (TrainDesk, EvalPaper, PreprocessSeq)}
