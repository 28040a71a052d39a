import math

import numpy as np
import pytest

from xlmimo.marl.nets import (
    Actor,
    Mlp,
    clip_gradients,
    global_norm,
    sgd_step,
    sigmoid,
    soft_update,
)


def fd_directional(func, params_net, direction, eps=1e-6):
    """Central finite difference of func along a parameter direction."""
    base = [p.copy() for p in params_net.parameters()]
    params_net.set_parameters([p + eps * d for p, d in zip(base, direction)])
    up = func()
    params_net.set_parameters([p - eps * d for p, d in zip(base, direction)])
    down = func()
    params_net.set_parameters(base)
    return (up - down) / (2.0 * eps)


class TestForward:
    def test_zero_parameters_zero_output(self):
        net = Mlp([3, 4, 4, 2], np.random.default_rng(0))
        net.set_parameters([np.zeros_like(p) for p in net.parameters()])
        np.testing.assert_array_equal(net.forward(np.ones(3)), np.zeros(2))

    def test_leaky_slope_on_negative(self):
        net = Mlp([1, 1, 1, 1], np.random.default_rng(0))
        # single path with weight -1 into the first hidden unit
        w = [np.array([[-1.0]]), np.array([[1.0]]), np.array([[1.0]])]
        b = [np.zeros(1)] * 3
        net.set_parameters(w + b)
        out = net.forward(np.array([1.0]))
        # pre-activation -1 -> 0.01 * -1 through two hidden layers
        assert out[0] == pytest.approx(-1.0 * 0.01 * 0.01)

    def test_all_ones_hand_forward(self):
        net = Mlp([1, 1, 1, 1], np.random.default_rng(0))
        net.set_parameters([np.ones((1, 1))] * 3 + [np.zeros(1)] * 3)
        assert net.forward(np.array([1.0]))[0] == pytest.approx(1.0)

    def test_batch_matches_single(self):
        net = Mlp([3, 8, 4, 2], np.random.default_rng(1))
        xs = np.random.default_rng(2).standard_normal((5, 3))
        batch = net.forward(xs)
        for i in range(5):
            np.testing.assert_allclose(batch[i], net.forward(xs[i]), atol=1e-14)

    def test_dimension_check(self):
        net = Mlp([3, 4, 4, 1], np.random.default_rng(0))
        with pytest.raises(ValueError, match="input dim"):
            net.forward(np.ones(5))


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        net = Mlp([2, 4, 3, 2], np.random.default_rng(3))
        grads, in_grad = net.backward(np.ones(2), np.zeros(2))
        assert all(np.all(g == 0) for g in grads)
        assert np.all(in_grad == 0)

    def test_linearity_in_upstream(self):
        net = Mlp([2, 4, 3, 2], np.random.default_rng(3))
        x = np.array([0.3, -0.7])
        g = np.array([0.5, -1.5])
        g1, _ = net.backward(x, g)
        g2, _ = net.backward(x, 2.0 * g)
        for a, b in zip(g1, g2):
            np.testing.assert_allclose(b, 2.0 * a, atol=1e-14)

    @pytest.mark.parametrize("sizes", [[2, 4, 3, 1], [3, 128, 64, 3], [1, 8, 8, 2]])
    def test_directional_fd_probes(self, sizes):
        rng = np.random.default_rng(5)
        net = Mlp(sizes, rng)
        for _ in range(25):
            x = rng.standard_normal(sizes[0])
            up = rng.standard_normal(sizes[-1])
            grads, _ = net.backward(x, up)
            direction = [rng.standard_normal(p.shape) for p in net.parameters()]
            analytic = sum(float(np.sum(g * d)) for g, d in zip(grads, direction))

            def objective():
                return float(np.dot(up, net.forward(x)))

            numeric = fd_directional(objective, net, direction)
            assert analytic == pytest.approx(numeric, rel=1e-4, abs=1e-9)

    def test_input_gradient_fd(self):
        rng = np.random.default_rng(6)
        net = Mlp([3, 6, 5, 2], rng)
        x = rng.standard_normal(3)
        up = rng.standard_normal(2)
        _, in_grad = net.backward(x, up)
        eps = 1e-6
        for j in range(3):
            dx = np.zeros(3)
            dx[j] = eps
            num = (np.dot(up, net.forward(x + dx)) - np.dot(up, net.forward(x - dx))) / (2 * eps)
            assert in_grad[0, j] == pytest.approx(num, rel=1e-4, abs=1e-9)


class TestActor:
    def test_outputs_within_ranges(self):
        rng = np.random.default_rng(7)
        ranges = np.array([0.2, 5.0, 2 * math.pi])
        actor = Actor(Mlp([2, 8, 8, 3], rng), ranges)
        for _ in range(20):
            a = actor.act(rng.standard_normal(2) * 3)
            assert np.all(a >= 0) and np.all(a < ranges)

    def test_backward_through_action_fd(self):
        rng = np.random.default_rng(8)
        ranges = np.array([0.2, 5.0])
        actor = Actor(Mlp([2, 6, 4, 2], rng), ranges)
        x = rng.standard_normal(2)
        up = rng.standard_normal(2)
        grads = actor.backward_through_action(x, up)
        direction = [rng.standard_normal(p.shape) for p in actor.parameters()]
        analytic = sum(float(np.sum(g * d)) for g, d in zip(grads, direction))

        def objective():
            return float(np.dot(up, actor.act(x)))

        numeric = fd_directional(objective, actor.mlp, direction)
        assert analytic == pytest.approx(numeric, rel=1e-4, abs=1e-10)


class TestStack:
    def _stack(self):
        return Mlp([3, 8, 5, 2], [np.random.default_rng(g) for g in range(4)])

    def test_members_match_single_nets_bitwise(self):
        nets = [Mlp([3, 8, 5, 2], np.random.default_rng(g)) for g in range(4)]
        stack = self._stack()
        for g, net in enumerate(nets):
            for a, b in zip(stack.parameters(), net.parameters()):
                np.testing.assert_array_equal(a[g], b)
        rng = np.random.default_rng(9)
        x = rng.standard_normal((4, 6, 3))
        up = rng.standard_normal((4, 6, 2))
        out, cache = stack.forward(x, keep=True)
        grads, in_grad = stack.backward(x, up, cache=cache)
        for g, net in enumerate(nets):
            np.testing.assert_array_equal(out[g], net.forward(x[g]))
            ref, ref_in = net.backward(x[g], up[g])
            np.testing.assert_array_equal(in_grad[g], ref_in)
            for a, b in zip(grads, ref):
                np.testing.assert_array_equal(a[g], b)
        # per-member clipping equals clipping each member on its own
        clipped, fired = clip_gradients(grads, 0.5, lead=1)
        for g, net in enumerate(nets):
            ref, ref_fired = clip_gradients([p[g] for p in grads], 0.5)
            assert fired[g] == ref_fired
            for a, b in zip(clipped, ref):
                np.testing.assert_array_equal(a[g], b)

    def test_member_views_write_through(self):
        stack = self._stack()
        member = stack[2]
        member.set_parameters([np.zeros_like(p) for p in member.parameters()])
        assert all(np.all(p[2] == 0) for p in stack.parameters())
        assert not np.all(stack.weights[0][1] == 0)
        sgd_step(stack, [np.ones_like(p) for p in stack.parameters()], lr=0.5)
        assert all(np.all(p == -0.5) for p in member.parameters())
        gathered = stack[np.array([2, 2])]
        gathered.set_parameters([np.ones_like(p) for p in gathered.parameters()])
        assert all(np.all(p == -0.5) for p in member.parameters())


class TestClipAndSgd:
    def test_clip_fires_exactly_at_threshold(self):
        grads = [np.array([3.0, 4.0])]  # norm 5
        clipped, fired = clip_gradients(grads, 0.5)
        assert fired
        assert global_norm(clipped) == pytest.approx(0.5)

    def test_no_clip_below_threshold(self):
        grads = [np.array([0.1, 0.2])]
        clipped, fired = clip_gradients(grads, 0.5)
        assert not fired
        np.testing.assert_array_equal(clipped[0], grads[0])

    def test_sgd_direction(self):
        net = Mlp([1, 2, 2, 1], np.random.default_rng(0))
        before = [p.copy() for p in net.parameters()]
        grads = [np.ones_like(p) for p in before]
        sgd_step(net, grads, lr=0.1)
        for b, a in zip(before, net.parameters()):
            np.testing.assert_allclose(a, b - 0.1, atol=1e-15)
        sgd_step(net, grads, lr=0.1, maximize=True)
        for b, a in zip(before, net.parameters()):
            np.testing.assert_allclose(a, b, atol=1e-15)


class TestSoftUpdate:
    def _pair(self):
        cur = Mlp([2, 3, 3, 1], np.random.default_rng(1))
        tgt = Mlp([2, 3, 3, 1], np.random.default_rng(2))
        return cur, tgt

    def test_standard_direction(self):
        cur, tgt = self._pair()
        c0 = [p.copy() for p in cur.parameters()]
        t0 = [p.copy() for p in tgt.parameters()]
        soft_update(cur, tgt, 0.01, "standard")
        for c, t, new in zip(c0, t0, tgt.parameters()):
            np.testing.assert_allclose(new, 0.01 * c + 0.99 * t, atol=1e-15)

    def test_reversed_direction(self):
        cur, tgt = self._pair()
        c0 = [p.copy() for p in cur.parameters()]
        t0 = [p.copy() for p in tgt.parameters()]
        soft_update(cur, tgt, 0.01, "reversed")
        for c, t, new in zip(c0, t0, tgt.parameters()):
            np.testing.assert_allclose(new, 0.01 * t + 0.99 * c, atol=1e-15)

    def test_reversed_tau_one_is_fixed_point(self):
        cur, tgt = self._pair()
        t0 = [p.copy() for p in tgt.parameters()]
        soft_update(cur, tgt, 1.0, "reversed")
        for t, new in zip(t0, tgt.parameters()):
            np.testing.assert_array_equal(new, t)

    def test_scalar_hand_values(self):
        cur = Mlp([1, 1], np.random.default_rng(0))
        tgt = Mlp([1, 1], np.random.default_rng(0))
        cur.set_parameters([np.array([[1.0]]), np.zeros(1)])
        tgt.set_parameters([np.array([[0.0]]), np.zeros(1)])
        soft_update(cur, tgt, 0.01, "reversed")
        assert tgt.parameters()[0][0, 0] == pytest.approx(0.99)
        tgt.set_parameters([np.array([[0.0]]), np.zeros(1)])
        soft_update(cur, tgt, 0.01, "standard")
        assert tgt.parameters()[0][0, 0] == pytest.approx(0.01)

    def test_rejects_bad_args(self):
        cur, tgt = self._pair()
        with pytest.raises(ValueError):
            soft_update(cur, tgt, 0.0)
        with pytest.raises(ValueError, match="direction"):
            soft_update(cur, tgt, 0.5, "sideways")


def test_sigmoid_stable():
    z = np.array([-800.0, -10.0, 0.0, 10.0, 800.0])
    s = sigmoid(z)
    assert np.all(np.isfinite(s))
    assert s[0] == pytest.approx(0.0, abs=1e-300)
    assert s[2] == pytest.approx(0.5)
    assert s[4] == pytest.approx(1.0)
