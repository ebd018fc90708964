"""``numerics.run_guarded``: floating-point flags in place of finite scans.

A guarded region must give what the scanned run gives, bit for bit: the same
output and cotangent bytes, the same warnings, or the same ``NumericError``
with the same message. The guard engages only at one OpenBLAS thread and on
finite leaves; everywhere else the region runs scanned.
"""

import json
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alignflow import numerics as nm
from alignflow.duration import (DurationBatch, DurationDiscriminator, adv_loss_d, adv_loss_g,
                                mse_loss)
from alignflow.numerics import NumericError, Tensor

SRC = Path(__file__).resolve().parent.parent / "src"


def _shared(*arrays):
    """Trainable leaves holding ``arrays``, viewing one flat buffer as
    ``AdamW`` leaves its parameters."""
    params = [Tensor(np.asarray(a, dtype=np.float64), requires_grad=True) for a in arrays]
    nm.AdamW(params)
    return params


def _probe(states, out=None):
    """A region that records whether it ran guarded, then returns ``out``."""
    def region():
        states.append(nm._settings.guarded)
        return out
    return region


class TestRunGuarded:
    def test_the_suite_runs_at_one_blas_thread(self):
        # importing alignflow sets one thread in the OpenBLAS numpy already loaded
        assert nm.blas_threads() == 1

    def test_finite_shared_leaves_run_guarded_and_return_the_result(self):
        states = []
        p, q = _shared([1.0, 2.0], [[3.0]])
        assert nm.run_guarded(_probe(states, "out"), [p, q], (np.ones(3),)) == "out"
        assert states == [True]
        assert nm._settings.guarded is False and np.geterr()["over"] != "raise"

    def test_inside_the_guard_flags_raise_and_scans_are_skipped(self, monkeypatch):
        scans = []
        isfinite = np.isfinite
        monkeypatch.setattr(np, "isfinite", lambda a, *r, **k: scans.append(1) or isfinite(a))

        def region():
            err = np.geterr()
            assert (err["over"], err["divide"], err["invalid"]) == ("raise",) * 3
            scans.clear()
            nm.tanh(nm.layer_norm(Tensor([[1.0, 2.0, 4.0]]), axis=1))
            return len(scans)

        assert nm.run_guarded(region, _shared([1.0])) == 0

    @pytest.mark.parametrize("threads", [2, 8, 0, None])
    def test_never_guards_unless_blas_reports_one_thread(self, monkeypatch, threads):
        monkeypatch.setattr(nm, "blas_threads", lambda: threads)
        states = []
        nm.run_guarded(_probe(states), _shared([1.0]))
        assert states == [False]

    def test_an_unreadable_blas_count_is_none(self, monkeypatch):
        monkeypatch.setattr(nm, "_openblas", lambda: None)
        assert nm.blas_threads() is None

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_leaf_runs_scanned(self, bad):
        states = []
        p, q = _shared([1.0, 2.0], [3.0])
        q.data[0] = bad  # in place: the buffer now holds it
        nm.run_guarded(_probe(states), [p, q])
        nm.run_guarded(_probe(states), _shared([1.0]), (np.ones(2), np.array([1.0, bad])))
        assert states == [False, False]

    def test_leaves_that_own_their_data_or_are_not_known_run_scanned(self):
        states = []
        nm.run_guarded(_probe(states), [Tensor(np.ones(2), requires_grad=True)])
        nm.run_guarded(_probe(states), None)
        p, = _shared([1.0])
        p.data = p.data.copy()  # rebound: it owns its data now
        nm.run_guarded(_probe(states), [p])
        assert states == [False, False, False]

    def test_every_buffer_of_two_optimizers_is_scanned(self):
        states = []
        gen, critic = _shared([1.0], [2.0]), _shared([3.0])
        nm.run_guarded(_probe(states), gen + critic)
        critic[0].data[0] = np.nan
        nm.run_guarded(_probe(states), gen + critic)
        assert states == [True, False]

    def test_a_flag_reruns_the_region_scanned_with_its_message_and_warnings(self):
        states = []
        x = Tensor(np.array([1e200, 2.0]))

        def region():
            states.append(nm._settings.guarded)
            return nm.mul(x, x)

        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            with pytest.raises(NumericError, match=r"^mul produced a non-finite value$"):
                nm.run_guarded(region, (), (x.data,))
        assert states == [True, False]
        assert [str(w.message) for w in seen] == ["overflow encountered in multiply"]

    def test_an_absorbed_overflow_reruns_to_the_scanned_bytes(self):
        x = Tensor(np.array([-1000.0, 0.5]))
        with warnings.catch_warnings(record=True) as scanned_warnings:
            warnings.simplefilter("always")
            scanned = nm.sigmoid(x).data.tobytes()
        with warnings.catch_warnings(record=True) as guarded_warnings:
            warnings.simplefilter("always")
            guarded = nm.run_guarded(lambda: nm.sigmoid(x), (), (x.data,)).data.tobytes()
        assert guarded == scanned
        assert ([str(w.message) for w in guarded_warnings]
                == [str(w.message) for w in scanned_warnings] == [])  # sigmoid ignores it

    def test_other_errors_pass_through_once(self):
        states = []

        def region():
            states.append(nm._settings.guarded)
            raise KeyError("boom")

        with pytest.raises(KeyError):
            nm.run_guarded(region, _shared([1.0]))
        assert states == [True] and nm._settings.guarded is False

    def test_a_nested_region_runs_inside_the_outer_guard(self):
        states = []
        outer = nm.run_guarded(lambda: nm.run_guarded(_probe(states, 5), None), _shared([1.0]))
        assert outer == 5 and states == [True]


_GATE_SCRIPT = """
import json
import numpy as np
from alignflow import harness, numerics as nm
from alignflow.corpus import Instance
from alignflow.numerics import Rng

model = harness.build_model(harness.TrainConfig(seed=1), Rng(1).child(3))
nm.AdamW(model.main_params())  # one shared buffer, as training leaves it
wqkv = model.flows.layers[0].wqkv.data
wqkv[1] = -wqkv[0]  # wk = -wq: the corner of the scores overflows to -inf
frames = Rng(2).normal((640, 2))
frames[-5:, 0] = 1e160
inst = Instance(tokens=np.zeros(160, dtype=np.int64), durations=np.full(160, 4),
                frames=frames)
seen = []
make = nm._make

def recording(data, parents, vjp, op):
    seen.append(nm._settings.guarded)
    return make(data, parents, vjp, op)

nm._make = recording
try:
    harness.predict_durations(model, inst)
    error = None
except Exception as e:
    error = f"{type(e).__name__}: {e}"
print(json.dumps({"threads": nm.blas_threads(), "guarded": any(seen), "error": error}))
"""


class TestBlasThreadGate:
    @staticmethod
    def _run(threads: int) -> dict:
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        env.update(OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=str(SRC),
                   PYTHONWARNINGS="ignore")
        proc = subprocess.run([sys.executable, "-c", _GATE_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_two_blas_threads_keep_the_guard_off_and_raise_as_one_does(self):
        """An overflow that only an OpenBLAS worker thread computes: the -inf
        corner of a 640 x 640 attention score matrix. Its flag never reaches
        the calling thread, and the softmax would zero it without a trace, so
        a guard at two threads would return durations; the gate keeps the
        scans there, and both counts raise the scanned run's error."""
        one, two = self._run(1), self._run(2)
        assert one == {"threads": 1, "guarded": True,
                       "error": "NumericError: coupling_conditioner produced a non-finite score"}
        if two["threads"] == 1:
            pytest.skip("OpenBLAS runs one thread on one CPU, whatever is asked")
        assert two == {**one, "threads": 2, "guarded": False}


class TestImportOrder:
    @staticmethod
    def _threads(**variables) -> str:
        """The BLAS thread count a fresh process reads after importing numpy,
        then alignflow, with no thread variable set but ``variables``."""
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        env.update(variables, PYTHONPATH=str(SRC))
        script = "import numpy; from alignflow import numerics as nm; print(nm.blas_threads())"
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    def test_numpy_loaded_first_still_runs_one_thread(self):
        assert self._threads() == "1"

    def test_an_explicit_count_wins(self):
        threads = self._threads(OPENBLAS_NUM_THREADS="2")
        if threads == "1":
            pytest.skip("OpenBLAS runs one thread on one CPU, whatever is asked")
        assert threads == "2"


class TestGuardThreads:
    def test_a_guarded_and_an_unguarded_thread_keep_their_own_settings(self):
        """Two threads in lockstep: one inside a guard, one not. Each sees its
        own setting and error state at every turn, and an overflow raises
        through the flags in the first and through the scans in the second."""
        turns = threading.Barrier(2, timeout=30)
        seen = {}

        def observe(key):
            for turn in range(3):
                turns.wait()
                seen.setdefault(key, []).append((nm._settings.guarded, np.geterr()["over"]))
            try:
                nm.mul(Tensor([1e200]), Tensor([1e200]))
            except FloatingPointError:
                seen[key].append("flag")
            except NumericError as e:
                seen[key].append(str(e))

        def guarded():
            nm.run_guarded(lambda: observe("guarded"), _shared([1.0]))

        def plain():
            with np.errstate(over="ignore"):
                observe("plain")

        threads = [threading.Thread(target=guarded), threading.Thread(target=plain)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert seen["guarded"] == [(True, "raise")] * 3 + ["flag"]
        assert seen["plain"] == [(False, "ignore")] * 3 + ["mul produced a non-finite value"]


# --- differential overflow fuzz: guarded-with-rerun against scanned ----------

def _discriminator(tensors):
    disc = DurationDiscriminator(h_dim=2, hidden=3, rng=nm.Rng(0))
    for p, t in zip(disc.params(), tensors):
        p.data[...] = t.data
    return disc


def _batch(h, d):
    return DurationBatch(h_text=h.data, d=np.abs(d.data), mask=np.ones(d.shape, dtype=bool))


_DISC = [(3, 3, 3), (3,), (3, 3, 3), (3,), (1, 3, 1), (1,)]  # a critic of 2 features, 3 hidden

# op -> (leaf shapes, the op on leaves made from them); every op a guarded step runs
FUZZ_OPS = {
    "encoder_block": ([(3, 4), (6, 4, 2), (4, 4), (4, 5), (5,), (5, 4), (4,)],
                      lambda *t: nm.encoder_block(*t, 2, 0.5)),
    "linear": ([(3, 4), (4, 2), (2,)], nm.linear),
    "scale_head": ([(3, 4), (4, 2), (2,)], nm.scale_head),
    "take_rows": ([(4, 3)], lambda t: nm.take_rows(t, [2, 0, 2])),
    "add": ([(3, 4), (4,)], nm.add),
    "getitem": ([(4, 3)], lambda a: a[::-1]),
    "coupling_conditioner": (
        [(2, 5), (3, 1, 3), (3,), (2, 3, 3), (2,), (3, 1, 2), (2, 1), (3, 2), (2,)],
        lambda x, w1, b1, w2, b2, wqkv, wo, wc, c: nm.coupling_conditioner(
            x, w1, b1, w2, b2, wqkv, wo, 0.7, wc, c)),
    "affine_coupling": ([(2, 5), (3, 5)], nm.affine_coupling),
    "sum_rows": ([(3, 4)], lambda a: nm.sum_rows(a, 2)),
    "aligned_nll": ([(3, 2), (3, 2), (2, 6), ()],
                    lambda mu, s, u, ld: nm.aligned_nll(
                        mu, Tensor(np.abs(s.data), requires_grad=True), u, ld, [0, 0, 1, 1, 2, 2])),
    "conv_tower": ([(4, 3), (4, 2), (5, 5, 3), (5,), (3, 5, 3), (3,), (1, 3, 1), (1,), (5, 2),
                    (2,)], nm.conv_tower),
    "adv_loss_d": ([(1, 4, 2), (1, 4), (4,), *_DISC],
                   lambda h, d, fake, *w: adv_loss_d(_discriminator(w), _batch(h, d), [fake])),
    "adv_loss_g": ([(1, 4, 2), (1, 4), (4,), *_DISC],
                   lambda h, d, fake, *w: adv_loss_g(_discriminator(w), _batch(h, d), [fake])),
    "mse_loss": ([(1, 4, 2), (1, 4), (4,)], lambda h, d, pred: mse_loss(_batch(h, d), [pred])),
}


def _draw(rng, shape, exponent):
    """Finite values of magnitude up to 10**exponent (at most 1e308)."""
    return np.array(rng.uniform(-1.0, 1.0, shape) * 10.0**exponent)  # 0-d too


def _cotangent(rng, shape, exponent):
    """A cotangent with +0.0 and -0.0 entries among values up to 10**exponent."""
    g = _draw(rng, shape, exponent)
    g[rng.random(shape) < 0.25] = 0.0
    g[rng.random(shape) < 0.25] = -0.0
    return g


def _op_bytes(name, arrays, seed, cot_exponent, states):
    """The op's output bytes and its VJP's cotangent bytes (None where a
    parent takes none) under a drawn cotangent, on fresh leaves."""
    states.append(nm._settings.guarded)
    out = FUZZ_OPS[name][1](*(Tensor(a.copy(), requires_grad=True) for a in arrays))
    g = _cotangent(np.random.default_rng(seed + 1), out.shape, cot_exponent)
    return out.data.tobytes(), [None if c is None else np.asarray(c).tobytes()
                                for c in out._vjp(g)]


def _outcome(run):
    """(the result or the NumericError message, the warnings it gave)."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        try:
            result = run()
        except NumericError as e:
            result = str(e)
    return result, [str(w.message) for w in seen]


class TestGuardFuzz:
    @settings(max_examples=400, deadline=None)
    @given(name=st.sampled_from(sorted(FUZZ_OPS)), seed=st.integers(0, 2**32 - 2),
           exponents=st.lists(st.one_of(st.just(0), st.integers(150, 308)), min_size=9,
                              max_size=9),
           cot_exponent=st.one_of(st.just(0), st.integers(150, 308)), expect=st.none())
    @example(name="encoder_block", seed=13, exponents=[0, 0, 0, 0, 0, 160, 0, 0, 0],
             cot_exponent=0, expect="encoder_block produced a non-finite variance")
    def test_guarded_equals_scanned(self, name, seed, exponents, cot_exponent, expect):
        rng = np.random.default_rng(seed)
        shapes = FUZZ_OPS[name][0]
        arrays = [_draw(rng, s, exponents[k % len(exponents)]) for k, s in enumerate(shapes)]
        states = []
        scanned = _outcome(lambda: _op_bytes(name, arrays, seed, cot_exponent, states))
        assert states == [False]
        states.clear()
        guarded = _outcome(lambda: nm.run_guarded(
            lambda: _op_bytes(name, arrays, seed, cot_exponent, states), (), arrays))
        assert states in ([True], [True, False])  # the guard engaged, then maybe reran
        assert guarded == scanned
        if expect is not None:
            assert scanned[0] == expect
