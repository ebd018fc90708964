"""The three benchmark workloads: set-up, one timed repetition, output checks.

Every workload is a closed loop: one process, one caller, each call waits for
the previous one. A repetition ("rep") is the unit the run loop repeats until
its time is up:

- training workloads: one ``harness.train_toy`` call, then an align loop that
  times ``harness.predict_durations`` on fresh utterances with the trained
  model, in a few passes;
- ``long_align``: one ``predict_durations`` pass and one duration-inference
  pass (encode + ``duration.generate``) over the set-up utterances.

Every rep does identical work (the run checks that each rep's output digest
matches), so a rep records the time of each unit of work in a fixed order:
each optimizer-step interval of a training phase, each utterance of an
align or duration-inference pass. A reference probe runs before every unit
(outside its time; see hostspeed.py), and the run combines each unit's
host-speed-corrected times over its reps (see run.py).

Output checks run after each rep's clocks stop. A failed check or a
``NumericError`` counts as one failed operation; a training run is one
operation and each ``predict_durations`` call or duration inference is one.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import time

import numpy as np

from alignflow import corpus, duration, harness
from alignflow import numerics as nm
from alignflow.alignment import alignment_score, log_prob_grid, mas_search
from alignflow.numerics import NumericError, Rng, Tensor
from hostspeed import Series

# fresh utterances per align pass, unless a workload asks for more: p95 then
# has ten utterances beyond it
ALIGN_UTTERANCES = 200
# acceptance criterion 7 pins these held-out thresholds for its config at seed 7
ACCEPTANCE_MIN_EXACT = 0.95
ACCEPTANCE_MAX_MAE = 0.2
# every this-many-th long_align utterance gets the best_Q / re-search check
ALIGN_SAMPLE_EVERY = 20

# spans (tracing.ENTRY_POINTS names) every workload exercises
_SHARED_SPANS = {"harness.predict_durations", "alignment.mas_search", "alignment.log_prob_grid",
                 "encoder.encode", "flows.forward", "duration.generate", "corpus.generate_corpus"}
_CHECKPOINT_SPANS = {"checkpoint.save_checkpoint", "checkpoint.load_checkpoint"}


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _stratified(spec: corpus.CorpusSpec, root: Rng, count: int, tag: int) -> corpus.ToyCorpus:
    """A corpus of ``count`` training instances whose token counts step evenly
    from ``spec.seq_min`` to ``spec.seq_max``, in a seeded order.

    The seed still draws every token, duration, speaker and frame; fixing the
    mix of lengths keeps a run's amount of work from moving with the seed
    (with 200 lengths drawn at random, the median length alone moves the
    median latency by a few percent from seed to seed). ``tag`` + length
    names each length's stream, so tags must lie more than ``seq_max`` apart.
    """
    lengths = np.rint(np.linspace(spec.seq_min, spec.seq_max, count)).astype(int)
    parts = [
        corpus.generate_corpus(
            dataclasses.replace(spec, seq_min=int(n), seq_max=int(n),
                                n_train=int((lengths == n).sum()), n_eval=0),
            root.child(tag + int(n)))
        for n in np.unique(lengths)
    ]
    instances = [inst for part in parts for inst in part.train]
    order = np.argsort(root.child(tag).uniform(0.0, 1.0, count), kind="stable")
    return dataclasses.replace(parts[0], spec=spec, train=[instances[i] for i in order])


@dataclasses.dataclass
class RepResult:
    """Per-unit times of one rep, in a fixed order, plus what its checks found."""

    # each list holds one Series per pass over the same units
    main_ops: int = 0
    main: list[Series] = dataclasses.field(default_factory=list)
    duration_ops: int = 0
    duration: list[Series] = dataclasses.field(default_factory=list)
    align: list[Series] = dataclasses.field(default_factory=list)  # a unit per utterance
    wall_s: float = 0.0  # timed part of the rep, checks and probes excluded
    attempted: int = 0
    failed: int = 0
    errors: list[str] = dataclasses.field(default_factory=list)
    digest: str = ""
    info: dict = dataclasses.field(default_factory=dict)

    def fail(self, what: str, err: Exception):
        self.failed += 1
        self.errors.append(f"{what}: {type(err).__name__}: {err}")


def _time_alignments(model, utterances, res: RepResult, probe) -> list:
    """One timed pass of predict_durations over the utterances, appended to
    ``res.align``; returns the durations, None where it raised."""
    outputs, series = [], Series()
    res.align.append(series)
    for inst in utterances:
        res.attempted += 1
        probe_s = probe()
        start = time.perf_counter()
        try:
            durations = harness.predict_durations(model, inst)
        except NumericError as e:
            res.fail("predict_durations", e)
            outputs.append(None)
            continue
        series.add(time.perf_counter() - start, probe_s)
        outputs.append(durations)
    return outputs


def _check_alignments(utterances, outputs, res: RepResult, hasher) -> None:
    """Durations >= 1, one per token, summing to the frame count."""
    for inst, durations in zip(utterances, outputs):
        if durations is None:
            continue
        if (durations.shape != inst.tokens.shape or (durations < 1).any()
                or int(durations.sum()) != inst.frames.shape[0]):
            res.fail("alignment", CheckFailed(
                f"durations {durations.tolist()} for {inst.tokens.size} tokens "
                f"and {inst.frames.shape[0]} frames"))
        hasher.update(durations.astype("<i8").tobytes())


class _StepClock:
    """Cuts ``train_toy`` into units at every ``AdamW.step`` return and at the
    entry and exit of its ``train_duration`` call.

    Units before ``train_duration`` entry are the main phase (train_toy entry
    to the first optimizer step, each step to the next with held-out evals
    included, the last step to train_duration entry with target extraction);
    units inside the call are the duration phase. A probe runs before every
    unit, outside it.
    """

    def __init__(self, probe):
        self.probe = probe
        self.series = {"main": Series(), "duration": Series(), "after": Series()}
        self.probe_s = 0.0  # total probe time
        self._phase = "main"

    def _next(self):
        self._probe = self.probe()
        self.probe_s += self._probe
        self._start = time.perf_counter()

    def _cut(self, phase):
        self.series[phase].add(time.perf_counter() - self._start, self._probe)
        self._next()

    def __enter__(self):
        self._train_duration = harness.train_duration
        self._adamw_step = nm.AdamW.__dict__["step"]
        adamw_step, train_duration = self._adamw_step, self._train_duration

        def stamped_step(opt):
            adamw_step(opt)
            self._cut(self._phase)

        def stamped_duration(*args, **kwargs):
            self._cut("main")
            self._phase = "duration"
            try:
                return train_duration(*args, **kwargs)
            finally:
                self._cut("duration")
                self._phase = "after"

        nm.AdamW.step = stamped_step
        harness.train_duration = stamped_duration
        self._next()
        return self

    def __exit__(self, *exc):
        nm.AdamW.step = self._adamw_step
        harness.train_duration = self._train_duration


@dataclasses.dataclass
class TrainState:
    config: harness.TrainConfig
    corpus: corpus.ToyCorpus
    utterances: list


class TrainingWorkload:
    """``harness.train_toy`` on a config, then eval-align latency on fresh utterances."""

    kind = "train"
    required_spans = _SHARED_SPANS | {
        "harness.train_toy", "harness.eval_alignment", "harness.duration_targets",
        "duration.train_duration", "duration.adv_loss_d", "duration.adv_loss_g",
        "duration.mse_loss", "numerics.backward", "numerics.adamw.step"}
    forbidden_spans = _CHECKPOINT_SPANS

    def __init__(self, name: str, default_seed: int, align_passes: int,
                 align_utterances: int = ALIGN_UTTERANCES, acceptance_seed: int | None = None,
                 stratified: bool = True, **config):
        self.name = name
        # passes of the align loop per rep: each utterance's time is taken over
        # reps x passes, and a short loop needs more passes to be steady
        self.align_passes = align_passes
        self.align_utterances = align_utterances
        self.default_seed = default_seed
        self.acceptance_seed = acceptance_seed  # seed at which the config's thresholds hold
        self.stratified = stratified  # training corpus lengths step evenly (see _stratified)
        self.config = config

    def setup(self, seed: int) -> TrainState:
        config = harness.TrainConfig(seed=seed, **self.config)
        config.validate()
        root = Rng(seed)
        spec = config.corpus_spec()
        if self.stratified:
            train = _stratified(spec, root, config.n_train, tag=1000)
            held = _stratified(spec, root, config.n_eval, tag=2000).train
            train_corpus = dataclasses.replace(train, eval=held)
        else:  # the corpus train_toy would draw itself
            train_corpus = corpus.generate_corpus(spec, root.child(1))
        utterances = _stratified(spec, root, self.align_utterances, tag=3000).train
        return TrainState(config, train_corpus, utterances)

    def rep(self, state: TrainState, scope, probe) -> RepResult:
        """One training run and its align loop, timed inside ``scope``; then checks.

        ``probe`` runs before every unit (see _StepClock and hostspeed.py).
        """
        res = RepResult(attempted=1)
        with scope:
            start = time.perf_counter()
            try:
                with _StepClock(probe) as clock:
                    history, model = harness.train_toy(state.config, state.corpus)
            except NumericError as e:
                res.wall_s = time.perf_counter() - start
                res.fail("train_toy", e)
                return res
            trained = time.perf_counter()
            passes = [_time_alignments(model, state.utterances, res, probe)
                      for _ in range(self.align_passes)]
        res.wall_s = (trained - start) - clock.probe_s + sum(sum(a.raw) for a in res.align)
        res.main_ops, res.main = state.config.steps_main, [clock.series["main"]]
        res.duration_ops, res.duration = state.config.steps_duration, [clock.series["duration"]]

        hasher = hashlib.sha256()
        for outputs in passes:
            _check_alignments(state.utterances, outputs, res, hasher)
        try:
            self._check_training(state, history, res)
        except CheckFailed as e:
            res.fail("train_toy outputs", e)
        for row in history["main"] + history["duration"]:
            hasher.update(repr(sorted(row.items())).encode())
        for name, tensor in model.named_params():
            hasher.update(name.encode() + tensor.data.astype("<f8").tobytes())
        res.digest = hasher.hexdigest()
        return res

    def _check_training(self, state: TrainState, history: dict, res: RepResult) -> None:
        config = state.config
        if len(history["main"]) != config.steps_main:
            raise CheckFailed(f"{len(history['main'])} main rows, expected {config.steps_main}")
        if len(history["duration"]) != config.steps_duration:
            raise CheckFailed(
                f"{len(history['duration'])} duration rows, expected {config.steps_duration}"
            )
        for row in history["main"] + history["duration"]:
            for key, value in row.items():
                if key.startswith("loss") and not math.isfinite(value):
                    raise CheckFailed(f"step {row['step']}: {key} = {value}")
        final = history["main"][-1]
        res.info["eval_exact_match"] = final["eval_exact"]
        if config.seed == self.acceptance_seed:
            if final["eval_exact"] < ACCEPTANCE_MIN_EXACT or final["eval_mae"] > ACCEPTANCE_MAX_MAE:
                raise CheckFailed(
                    f"held-out exact match {final['eval_exact']}, MAE {final['eval_mae']} "
                    f"miss the acceptance thresholds"
                )


@dataclasses.dataclass
class AlignState:
    model: harness.ToyModel
    built: harness.ToyModel
    utterances: list
    seed: int


class AlignWorkload:
    """Forward-only inference on a seeded model round-tripped through a checkpoint."""

    kind = "align"
    required_spans = _SHARED_SPANS | _CHECKPOINT_SPANS
    forbidden_spans = {"harness.train_toy", "duration.train_duration", "numerics.backward",
                       "numerics.adamw.step"}

    def __init__(self, name: str, default_seed: int, scratch_dir: str, **config):
        self.name = name
        self.default_seed = default_seed
        self.scratch_dir = scratch_dir
        self.config = config

    def setup(self, seed: int) -> AlignState:
        config = harness.TrainConfig(seed=seed, n_train=ALIGN_UTTERANCES, n_eval=0, **self.config)
        config.validate()
        root = Rng(seed)
        utterances = _stratified(config.corpus_spec(), root, ALIGN_UTTERANCES, tag=3000).train
        built = harness.build_model(config, root.child(3))
        path = os.path.join(self.scratch_dir, f"{self.name}-{os.getpid()}.bin")
        try:
            harness.save_model(path, built)
            model = harness.load_model(path)
        finally:
            if os.path.exists(path):
                os.remove(path)
        return AlignState(model, built, utterances, seed)

    def check_setup(self, state: AlignState) -> None:
        loaded = dict(state.model.named_params())
        for name, tensor in state.built.named_params():
            if not np.array_equal(loaded[name].data, tensor.data):
                raise CheckFailed(f"checkpoint round trip changed {name}")

    def rep(self, state: AlignState, scope, probe) -> RepResult:
        """An align pass and a duration-inference pass, timed inside ``scope``; then checks.

        ``probe`` runs before every utterance (see hostspeed.py).
        """
        res = RepResult()
        model = state.model
        z_rng = Rng(state.seed).child(5)
        predicted, inference = [], Series()
        with scope:
            outputs = _time_alignments(model, state.utterances, res, probe)
            for inst in state.utterances:
                res.attempted += 1
                probe_s = probe()
                start = time.perf_counter()
                try:
                    d_hat = self._infer_durations(model, inst, z_rng)
                except NumericError as e:
                    res.fail("duration inference", e)
                    continue
                inference.add(time.perf_counter() - start, probe_s)
                predicted.append((inst, d_hat))
        res.main_ops, res.main = len(res.align[0].raw), res.align
        res.duration_ops, res.duration = len(inference.raw), [inference]
        res.wall_s = sum(res.align[0].raw) + sum(inference.raw)

        hasher = hashlib.sha256()
        _check_alignments(state.utterances, outputs, res, hasher)
        for inst, d_hat in predicted:
            if d_hat.shape != inst.tokens.shape or not np.isfinite(d_hat).all():
                res.fail("duration inference", CheckFailed(f"bad log-durations {d_hat.shape}"))
            hasher.update(d_hat.astype("<f8").tobytes())
        for inst in state.utterances[::ALIGN_SAMPLE_EVERY]:
            try:
                self._check_search(model, inst)
            except CheckFailed as e:
                res.fail("alignment sample", e)
        res.digest = hasher.hexdigest()
        return res

    @staticmethod
    def _infer_durations(model, inst, z_rng) -> np.ndarray:
        """Text-only duration prediction: encode, then the duration generator."""
        speaker_row, cond = model.speaker_condition(inst.speaker)
        h, _, _ = model.encoder.encode(inst.tokens, speaker_row)
        n = inst.tokens.size
        z = z_rng.normal((1, n, model.dur_gen.z_dim)) if model.dur_gen.z_dim else None
        (d_hat,) = duration.generate(model.dur_gen, h.data[None], z, np.ones((1, n), bool), cond)
        return d_hat.data

    @staticmethod
    def _check_search(model, inst) -> None:
        """best_Q equals the rescored alignment bit for bit; durations match predict_durations."""
        speaker_row, cond = model.speaker_condition(inst.speaker)
        _, mu, sigma = model.encoder.encode(inst.tokens, speaker_row)
        u, _ = model.flows.forward(Tensor(inst.frames.T), cond)
        grid = log_prob_grid(u.data.T, mu.data, sigma.data)
        align, best_q = mas_search(grid, noise_scale=0.0)
        score = alignment_score(grid, align)
        if score != best_q:
            raise CheckFailed(f"alignment_score {score!r} != best_Q {best_q!r}")
        predicted = harness.predict_durations(model, inst)
        if not np.array_equal(predicted, align.durations):
            raise CheckFailed("predict_durations differs from a direct mas_search")


def make_workloads(scratch_dir: str) -> dict:
    long_utterances = dict(seq_min=20, seq_max=40, dur_min=2, dur_max=8)
    return {
        w.name: w
        for w in (
            # the acceptance-7 config (tests/test_acceptance.py::E2E_CONFIG)
            TrainingWorkload("toy_train", 7, align_passes=4, acceptance_seed=7,
                             stratified=False, steps_main=1500, steps_duration=300, eval_every=250,
                             obs_noise=0.0, n_train=16, n_eval=8),
            # 400 utterances: the longest few set p95, and their frame counts
            # move with the seed, so p95 needs more of them to be steady
            TrainingWorkload("long_train", 1, align_passes=1, align_utterances=400,
                             steps_main=240, steps_duration=120, eval_every=120,
                             n_train=32, n_eval=8, **long_utterances),
            AlignWorkload("long_align", 1, scratch_dir,
                          seq_min=40, seq_max=80, dur_min=2, dur_max=8),
        )
    }
