import warnings

import numpy as np
import numpy.testing as npt
import pytest

from alignflow import numerics as nm
from alignflow.numerics import (
    AdamW,
    AdamWConfig,
    NumericError,
    Rng,
    ShapeError,
    Tensor,
    check_grad,
)


def conv1d_oracle(x, w):
    """Direct sliding-window convolution, written independently of the op."""
    cin, length = x.shape
    cout, _, k = w.shape
    pl = (k - 1) // 2
    padded = np.zeros((cin, length + k - 1))
    padded[:, pl : pl + length] = x
    out = np.zeros((cout, length))
    for o in range(cout):
        for t in range(length):
            acc = 0.0
            for c in range(cin):
                for kk in range(k):
                    acc += w[o, c, kk] * padded[c, t + kk]
            out[o, t] = acc
    return out


class TestForwardOps:
    def test_softmax_symmetry(self):
        out = nm.softmax(Tensor([0.0, 0.0, 0.0])).data
        npt.assert_allclose(out, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_softmax_rows_sum_to_one(self):
        rng = Rng(1)
        for _ in range(10):
            x = Tensor(rng.normal((4, 7)) * 3)
            sums = nm.softmax(x, axis=1).data.sum(axis=1)
            npt.assert_allclose(sums, 1.0, atol=1e-12)

    def test_matmul_identity(self):
        rng = Rng(2)
        for k in (1, 3, 5):
            x = rng.normal((3, k))
            out = nm.matmul(Tensor(np.eye(3)), Tensor(x))
            npt.assert_array_equal(out.data, x)

    def test_conv1d_matches_sliding_window_oracle(self):
        x = np.array([[1.0, 2.0, 3.0, 4.0, 5.0]])
        w = np.array([[[1.0, 0.0, 0.0]]])
        expected = conv1d_oracle(x, w)
        npt.assert_allclose(nm.conv1d(Tensor(x), Tensor(w)).data, expected)

        rng = Rng(3)
        for _ in range(10):
            cin = rng.integers(1, 4)
            cout = rng.integers(1, 4)
            k = 1 + 2 * rng.integers(0, 3)
            length = rng.integers(1, 9)
            x = rng.normal((cin, length))
            w = rng.normal((cout, cin, k))
            npt.assert_allclose(
                nm.conv1d(Tensor(x), Tensor(w)).data, conv1d_oracle(x, w), atol=1e-12
            )

    def test_layer_norm_zero_mean(self):
        rng = Rng(4)
        out = nm.layer_norm(Tensor(rng.normal((5, 9)) * 4 + 2), axis=1)
        assert np.abs(out.data.mean(axis=1)).max() <= 1e-9

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
            nm.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            nm.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_non_finite_output_raises(self):
        with pytest.raises(NumericError):
            nm.log(Tensor([0.0]))
        with pytest.raises(NumericError):
            nm.exp(Tensor([1e4]))


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor(np.arange(4.0), requires_grad=True)
        nm.summation(x).backward()
        npt.assert_array_equal(x.grad, np.ones(4))

    def test_mse_singleton_gradient(self):
        x = Tensor([2.0], requires_grad=True)
        nm.mse(x, Tensor([0.0])).backward()
        npt.assert_allclose(x.grad, [4.0])

    def test_three_layer_tanh_network(self):
        rng = Rng(5)
        w1, w2, w3 = (Tensor(rng.normal((4, 4))) for _ in range(3))

        def f(t):
            h = nm.tanh(t @ w1)
            h = nm.tanh(h @ w2)
            return nm.summation(nm.tanh(h @ w3))

        assert check_grad(f, Tensor(rng.normal((2, 4)))) <= 1e-4

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ShapeError, match="scalar"):
            (x * 2.0).backward()

    def test_repeated_backward_accumulates(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = nm.summation(x * x)
        loss.backward()
        first = x.grad.copy()
        loss.backward()
        npt.assert_array_equal(x.grad, 2 * first)

    def test_broadcast_bias_gradient(self):
        x = Tensor(np.ones((3, 4)))
        b = Tensor(np.zeros(4), requires_grad=True)
        nm.summation((x + b) * 2.0).backward()
        npt.assert_array_equal(b.grad, np.full(4, 6.0))

    def test_detach_blocks_flow(self):
        x = Tensor([3.0], requires_grad=True)
        y = (x * 2.0).detach()
        nm.summation(y * 5.0).backward()
        assert x.grad is None

    def test_same_tensor_used_twice(self):
        x = Tensor([3.0], requires_grad=True)
        nm.summation(x * x).backward()
        npt.assert_allclose(x.grad, [6.0])

    def test_frozen_params_get_no_grads(self):
        w = Tensor([2.0], requires_grad=True)
        x = Tensor([1.5], requires_grad=True)
        with nm.frozen([w]):
            nm.summation(x * w).backward()
        assert w.grad is None
        npt.assert_allclose(x.grad, [2.0])
        assert w.requires_grad  # restored


class TestCheckGrad:
    def test_linear_is_exact(self):
        assert check_grad(nm.summation, Tensor(np.array([1.0, -2.0, 0.5]))) <= 1e-10

    def test_quadratic_example(self):
        x = Tensor([1.0, 2.0])
        probe = Tensor(x.data.copy(), requires_grad=True)
        loss = nm.summation(probe * probe)
        loss.backward()
        npt.assert_allclose(probe.grad, [2.0, 4.0])
        assert check_grad(lambda t: nm.summation(t * t), x) <= 1e-4

    def test_softmax_matmul_chain(self):
        rng = Rng(6)
        w = Tensor(rng.normal((5, 3)))
        mixer = rng.normal((2, 3))

        def f(t):
            return nm.summation(nm.softmax(t @ w, axis=1) * mixer)

        assert check_grad(f, Tensor(rng.normal((2, 5)))) <= 1e-4


class TestRng:
    def test_identical_seed_identical_stream(self):
        a, b = Rng(1234), Rng(1234)
        npt.assert_array_equal(a.normal((10,)), b.normal((10,)))
        npt.assert_array_equal(a.uniform(-1, 1, (5,)), b.uniform(-1, 1, (5,)))
        assert a.integers(0, 100) == b.integers(0, 100)

    def test_children_are_independent_and_reproducible(self):
        a = Rng(9).child(3)
        b = Rng(9).child(3)
        c = Rng(9).child(4)
        x, y, z = a.normal((4,)), b.normal((4,)), c.normal((4,))
        npt.assert_array_equal(x, y)
        assert not np.array_equal(x, z)

    def test_bit_identical_forward_runs(self):
        def run():
            rng = Rng(77)
            w = nm.init_uniform(rng, (6, 6), 6)
            x = Tensor(rng.normal((3, 6)))
            return nm.layer_norm(nm.tanh(x @ w), axis=1).data

        npt.assert_array_equal(run(), run())


class TestAdamW:
    def test_lr_schedule_monotone(self):
        opt = AdamW([Tensor([1.0], requires_grad=True)])
        lrs = []
        for e in range(10):
            opt.set_epoch(e)
            lrs.append(opt.lr)
        assert all(a > b for a, b in zip(lrs, lrs[1:]))
        npt.assert_allclose(lrs[3], 2e-4 * (0.999 ** (1 / 8)) ** 3)

    def test_decoupled_weight_decay(self):
        p = Tensor([10.0], requires_grad=True)
        opt = AdamW([p], lr=0.1, weight_decay=0.01)
        p.grad = np.zeros(1)
        opt.step()
        # zero gradient: only the decay term moves the parameter
        npt.assert_allclose(p.data, [10.0 * (1 - 0.1 * 0.01)])

    def test_none_grads_skipped(self):
        p = Tensor([1.0], requires_grad=True)
        opt = AdamW([p], lr=0.1)
        opt.step()
        npt.assert_array_equal(p.data, [1.0])

    def test_step_reduces_simple_quadratic(self):
        p = Tensor([5.0], requires_grad=True)
        opt = AdamW([p], lr=0.05, weight_decay=0.0)
        for _ in range(200):
            opt.zero_grad()
            nm.summation(p * p).backward()
            opt.step()
        assert abs(p.data[0]) < 1.0


def adamw_reference(params, m, v, t: int, lr: float, cfg: AdamWConfig):
    """The per-parameter AdamW loop that the flat-buffer ``AdamW.step`` replaced.

    ``m``/``v`` are per-parameter moment arrays updated in place; params whose
    grad is unset are skipped.
    """
    for p, mi, vi in zip(params, m, v):
        if p.grad is None:
            continue
        g = p.grad
        p.data -= lr * cfg.weight_decay * p.data
        mi[:] = cfg.beta1 * mi + (1.0 - cfg.beta1) * g
        vi[:] = cfg.beta2 * vi + (1.0 - cfg.beta2) * (g * g)
        m_hat = mi / (1.0 - cfg.beta1**t)
        v_hat = vi / (1.0 - cfg.beta2**t)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + cfg.eps)


class TestFlatAdamW:
    SHAPES = [(5,), (3, 4), (4, 3, 5), (1,), (2, 2, 3), (6, 2), (7,)]

    def _pair(self, seed=0):
        rng = Rng(seed)
        init = [rng.normal(s) * 3.0 for s in self.SHAPES]
        flat = [Tensor(x.copy(), requires_grad=True) for x in init]
        ref = [Tensor(x.copy(), requires_grad=True) for x in init]
        return flat, ref

    def test_bit_identical_to_per_parameter_loop(self):
        cfg = AdamWConfig(lr=0.03, weight_decay=0.1)
        flat, ref = self._pair()
        opt = AdamW(flat, **vars(cfg))
        m = [np.zeros(p.shape) for p in ref]
        v = [np.zeros(p.shape) for p in ref]
        rng = Rng(1)
        for step in range(60):
            opt.set_epoch(step // 7)
            unset = {3: {3}, 4: {0, 6}, 5: {2, 3, 4}, 6: set(range(7))}.get(step % 9, set())
            for i, (a, b) in enumerate(zip(flat, ref)):
                if i in unset:
                    a.grad = b.grad = None
                    continue
                g = rng.normal(a.shape) * 10.0 ** rng.integers(-3, 3)
                if g.ndim == 2 and step % 2:
                    g = np.ascontiguousarray(g.T).T  # a Fortran-ordered grad
                a.grad, b.grad = g, g.copy()
            opt.step()
            adamw_reference(ref, m, v, step + 1, cfg.lr * cfg.lr_decay ** (step // 7), cfg)
            for a, b in zip(flat, ref):
                assert a.data.tobytes() == b.data.tobytes(), step
            assert opt._m.tobytes() == np.concatenate(m, axis=None).tobytes(), step
            assert opt._v.tobytes() == np.concatenate(v, axis=None).tobytes(), step

    def test_params_share_one_buffer(self):
        flat, _ = self._pair()
        frozen_param = Tensor([1.0, 2.0])
        opt = AdamW(flat[:2] + [frozen_param] + flat[2:])
        assert opt.params == flat
        for p in flat:
            assert p.data.base is opt._flat
        assert frozen_param.data.base is None
        assert opt._flat.size == sum(p.size for p in flat)

    def test_rebound_param_raises(self):
        flat, _ = self._pair()
        opt = AdamW(flat)
        flat[1].data = np.zeros((3, 4))
        for p in flat:
            p.grad = np.ones(p.shape)
        with pytest.raises(RuntimeError, match=r"parameter 1 \(shape \(3, 4\)\)"):
            opt.step()

    def test_in_place_write_is_kept(self):
        p = Tensor([1.0, 2.0], requires_grad=True)
        opt = AdamW([p], lr=0.1, weight_decay=0.0)
        p.data[...] = [4.0, 5.0]
        assert opt._flat.tolist() == [4.0, 5.0]

    def test_duplicate_param_rejected(self):
        p = Tensor([1.0], requires_grad=True)
        with pytest.raises(ValueError, match="more than once"):
            AdamW([p, p])


class TestNonFiniteCheck:
    """``_make`` catches exactly the arrays holding a NaN or an infinity."""

    @pytest.mark.parametrize("bad", [
        [1.0, np.nan, 2.0],
        [np.inf, 0.0],
        [0.0, -np.inf],
        [np.inf, 1.0, -np.inf],
        [[1.0, 2.0], [3.0, np.nan]],
    ])
    def test_non_finite_raises_naming_the_op(self, bad):
        with pytest.raises(NumericError, match=r"^add produced a non-finite value$"):
            nm.add(Tensor(bad), 0.0)

    @pytest.mark.parametrize("ok", [[1e308, 1e308], [-1e308, -1e308, 5.0], [[1e308], [1e308]]])
    def test_finite_values_whose_sum_overflows_pass(self, ok):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = nm.add(Tensor(ok), 0.0)
        npt.assert_array_equal(out.data, ok)


class TestConcurrency:
    def test_independent_tapes_in_threads(self):
        from concurrent.futures import ThreadPoolExecutor

        def work(seed):
            rng = Rng(seed)
            w = Tensor(rng.normal((6, 6)), requires_grad=True)
            x = Tensor(rng.normal((4, 6)))
            nm.summation(nm.tanh(x @ w)).backward()
            return w.grad.copy()

        serial = [work(s) for s in range(6)]
        with ThreadPoolExecutor(max_workers=3) as pool:
            parallel = list(pool.map(work, range(6)))
        for a, b in zip(serial, parallel):
            npt.assert_array_equal(a, b)


class TestTensorBasics:
    def test_take_rows_bounds(self):
        t = Tensor(np.zeros((3, 2)))
        with pytest.raises(IndexError):
            nm.take_rows(t, [0, 3])

    def test_grad_shape_matches(self):
        x = Tensor(np.zeros((2, 3)), requires_grad=True)
        nm.summation(x * 1.5).backward()
        assert x.grad.shape == x.shape

    def test_value_semantics_of_detach(self):
        x = Tensor([1.0, 2.0])
        y = x.detach()
        y.data[0] = 99.0
        assert x.data[0] == 1.0
