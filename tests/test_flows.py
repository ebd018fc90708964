import math

import numpy as np
import numpy.testing as npt
import pytest

from alignflow import numerics as nm
from alignflow.flows import CouplingLayer, FlowStack
from alignflow.numerics import Rng, ShapeError, Tensor


def dense_jacobian_logdet(forward, x0, h=1e-6):
    """log|det J| of a flattened map via central differences + slogdet."""
    n = x0.size
    J = np.zeros((n, n))
    flat = x0.reshape(-1)
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        fp = forward((flat + e).reshape(x0.shape))
        fm = forward((flat - e).reshape(x0.shape))
        J[:, j] = (fp - fm).reshape(-1) / (2 * h)
    sign, logdet = np.linalg.slogdet(J)
    assert sign > 0, "coupling jacobian must have positive determinant"
    return logdet


def forced_affine_layer():
    """Layer whose conv head always outputs s = log 2, t = 3."""
    layer = CouplingLayer(2, 4, Rng(0), key_dim=4)
    layer.conv2_w.data[:] = 0.0
    layer.conv2_b.data[:] = [math.log(2.0), 3.0]
    return layer


class TestCouplingLayer:
    def test_identity_at_zero_init(self):
        layer = CouplingLayer(4, 8, Rng(1))
        x = Tensor(Rng(2).normal((4, 6)))
        y, logdet = layer.forward(x)
        npt.assert_array_equal(y.data, x.data)
        assert logdet.item() == 0.0

    def test_forced_shift_and_scale(self):
        layer = forced_affine_layer()
        x = Tensor(np.array([[0.7], [-1.2]]))
        y, logdet = layer.forward(x)
        npt.assert_allclose(y.data[0], x.data[0])
        npt.assert_allclose(y.data[1], 2.0 * x.data[1] + 3.0)
        npt.assert_allclose(logdet.item(), math.log(2.0))
        back = layer.inverse(y)
        npt.assert_allclose(back.data, x.data, atol=1e-15)

    def test_logdet_matches_dense_jacobian(self):
        for channels, t_len, seed in [(2, 3, 3), (2, 4, 4), (4, 2, 5)]:
            layer = CouplingLayer(channels, 5, Rng(seed), key_dim=4, head_init="small")
            x0 = Rng(seed + 100).normal((channels, t_len))

            def fwd(arr):
                y, _ = layer.forward(Tensor(arr))
                return y.data

            _, analytic = layer.forward(Tensor(x0))
            numeric = dense_jacobian_logdet(fwd, x0)
            assert abs(analytic.item() - numeric) <= 1e-4

    def test_roundtrip_100_random_cases(self):
        for case in range(100):
            rng = Rng(1000 + case)
            channels = 2 * rng.integers(1, 4)
            t_len = rng.integers(1, 8)
            layer = CouplingLayer(channels, 6, rng, key_dim=4, head_init="small")
            x = Tensor(rng.normal((channels, t_len)))
            y, _ = layer.forward(x)
            back = layer.inverse(y)
            assert np.abs(back.data - x.data).max() <= 1e-8

    def test_identity_layer_inverse_is_identity(self):
        layer = CouplingLayer(4, 8, Rng(6))
        x = Tensor(Rng(7).normal((4, 5)))
        npt.assert_array_equal(layer.inverse(x).data, x.data)

    def test_odd_channels_rejected(self):
        with pytest.raises(ShapeError, match="even"):
            CouplingLayer(3, 8, Rng(8))

    def test_attention_bypass_is_exact(self):
        # attention off must reduce to a pure convolutional coupling layer:
        # scrambling every attention parameter cannot change the output
        rng = Rng(9)
        layer = CouplingLayer(4, 6, rng, attention=False, head_init="small")
        x = Tensor(rng.normal((4, 7)))
        y1, ld1 = layer.forward(x)
        for p in (layer.wqkv, layer.wo):
            p.data[:] = rng.normal(p.shape) * 50.0
        y2, ld2 = layer.forward(x)
        npt.assert_array_equal(y1.data, y2.data)
        assert ld1.item() == ld2.item()

    def test_gradients_flow_to_params(self):
        rng = Rng(10)
        layer = CouplingLayer(2, 5, rng, key_dim=4, head_init="small")
        x = Tensor(rng.normal((2, 4)))
        y, logdet = layer.forward(x)
        (nm.summation(y * rng.normal((2, 4))) + logdet).backward()
        assert layer.conv2_w.grad is not None and np.any(layer.conv2_w.grad)
        assert layer.wqkv.grad is not None and layer.wqkv.grad.shape == (3, 1, 4)


class TestAttentionMap:
    def test_single_position(self):
        layer = CouplingLayer(2, 4, Rng(11), head_init="small")
        amap = layer.attention_map(Tensor(Rng(12).normal((2, 1))))
        npt.assert_array_equal(amap, [[1.0]])

    def test_zero_query_key_gives_uniform(self):
        layer = CouplingLayer(2, 4, Rng(13))
        layer.wqkv.data[:2] = 0.0  # wq and wk
        amap = layer.attention_map(Tensor(Rng(14).normal((2, 5))))
        npt.assert_allclose(amap, np.full((5, 5), 0.2), atol=1e-15)

    def test_rows_stochastic(self):
        rng = Rng(15)
        layer = CouplingLayer(4, 6, rng, head_init="small")
        amap = layer.attention_map(Tensor(rng.normal((4, 9)) * 3))
        assert (amap >= 0).all()
        npt.assert_allclose(amap.sum(axis=1), 1.0, atol=1e-10)

    def test_side_effect_free(self):
        rng = Rng(16)
        layer = CouplingLayer(2, 4, rng, head_init="small")
        x = Tensor(rng.normal((2, 4)))
        before = {n: t.data.copy() for n, t in layer.named_params()}
        m1 = layer.attention_map(x)
        m2 = layer.attention_map(x)
        npt.assert_array_equal(m1, m2)
        for n, t in layer.named_params():
            npt.assert_array_equal(before[n], t.data)
            assert t.grad is None

    @pytest.mark.parametrize("channels, key_dim, length", [(2, 8, 1), (4, 4, 7), (6, 3, 64),
                                                          (2, 8, 300)])
    def test_equals_the_map_inside_the_op_byte_for_byte(self, monkeypatch, channels, key_dim,
                                                         length):
        stack = FlowStack(channels, 3, 6, Rng(length), key_dim=key_dim, head_init="small")
        x = Tensor(Rng(length + 1).normal((channels, length)) * 2.0)
        maps = stack.attention_maps(x)
        inside = []
        probs = nm.attention_probs

        def recording(*args, **kwargs):
            att = probs(*args, **kwargs)
            inside.append(att[0].copy())
            return att

        monkeypatch.setattr(nm, "attention_probs", recording)
        stack.forward(x)
        assert len(inside) == len(maps) == 3
        assert [m.tobytes() for m in maps] == [m.tobytes() for m in inside]


class TestFlowStack:
    def test_depth_guard(self):
        with pytest.raises(ValueError, match=">= 2"):
            FlowStack(2, 1, 4, Rng(17))

    def test_identity_stack_is_channel_flip(self):
        stack = FlowStack(4, 2, 6, Rng(18))
        x = Tensor(Rng(19).normal((4, 5)))
        z, logdet = stack.forward(x)
        npt.assert_array_equal(z.data, x.data[::-1])  # one flip between two layers
        assert logdet.item() == 0.0

    def test_roundtrip_50_seeds(self):
        for seed in range(50):
            rng = Rng(2000 + seed)
            depth = rng.integers(2, 5)
            stack = FlowStack(4, depth, 6, rng, head_init="small")
            x = Tensor(rng.normal((4, 6)))
            z, _ = stack.forward(x)
            back = stack.inverse(z)
            assert np.abs(back.data - x.data).max() <= 1e-8

    def test_total_logdet_is_sum_of_layers(self):
        rng = Rng(20)
        stack = FlowStack(4, 3, 6, rng, head_init="small")
        x = Tensor(rng.normal((4, 5)))
        z, total = stack.forward(x)

        parts = []
        cur = x
        for li, layer in enumerate(stack.layers):
            if li > 0:
                cur = cur[::-1]
            cur, ld = layer.forward(cur)
            parts.append(ld.item())
        assert total.item() == sum(parts)
        # summation order does not matter beyond float noise
        assert abs(total.item() - sum(reversed(parts))) <= 1e-12

    def test_stack_logdet_matches_dense_jacobian(self):
        stack = FlowStack(2, 2, 5, Rng(21), key_dim=4, head_init="small")
        x0 = Rng(22).normal((2, 4))  # total dimension 8

        def fwd(arr):
            z, _ = stack.forward(Tensor(arr))
            return z.data

        _, analytic = stack.forward(Tensor(x0))
        numeric = dense_jacobian_logdet(fwd, x0)
        assert abs(analytic.item() - numeric) <= 1e-4

    def test_base_density_change_of_variables(self):
        # log p(x) under a standard-normal base: order of logdet accumulation
        # cannot matter because it is a pure sum
        rng = Rng(23)
        stack = FlowStack(2, 3, 5, rng, head_init="small")
        x = Tensor(rng.normal((2, 4)))
        z, logdet = stack.forward(x)
        base = -0.5 * (z.data**2).sum() - 0.5 * z.data.size * math.log(2 * math.pi)
        logp = base + logdet.item()
        assert np.isfinite(logp)

    def test_attention_maps_per_layer(self):
        rng = Rng(24)
        stack = FlowStack(4, 3, 6, rng, head_init="small")
        maps = stack.attention_maps(Tensor(rng.normal((4, 7))))
        assert len(maps) == 3
        for amap in maps:
            assert amap.shape == (7, 7)
            npt.assert_allclose(amap.sum(axis=1), 1.0, atol=1e-10)

    def test_conditioned_forward_roundtrip(self):
        rng = Rng(25)
        stack = FlowStack(4, 2, 6, rng, cond_dim=3, head_init="small")
        x = Tensor(rng.normal((4, 5)))
        cond = Tensor(rng.normal(3))
        z, _ = stack.forward(x, cond)
        z_other, _ = stack.forward(x, Tensor(rng.normal(3)))
        assert not np.array_equal(z.data, z_other.data)  # condition matters
        back = stack.inverse(z, cond)
        assert np.abs(back.data - x.data).max() <= 1e-8
