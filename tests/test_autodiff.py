import numpy as np

from sgparse import autodiff as ad
import tape_ops as ops

RNG = np.random.default_rng(0)


def numeric_grad(fn, x, h=1e-6):
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + h
        up = fn()
        flat[i] = saved - h
        down = fn()
        flat[i] = saved
        out[i] = (up - down) / (2 * h)
    return grad


def check(build, *leaves):
    """Compare analytic gradients of a scalar-valued builder against central
    differences for every leaf tensor."""
    root = build()
    ad.backward(root)
    for leaf in leaves:
        analytic = leaf.grad.copy()
        leaf.grad = None
        numeric = numeric_grad(lambda: float(build().data), leaf.data)
        assert np.allclose(analytic, numeric, atol=1e-5), (analytic, numeric)


def scalarize(t):
    # reduce a vector to a scalar with fixed weights so the check has one root
    w = ad.Tensor(np.linspace(0.5, 1.5, t.data.shape[0]))
    return ops.pick(ops.mul(t, w), 0) if t.data.shape[0] == 1 else _dot(t, w)


def _dot(a, b):
    prod = ops.mul(a, b)
    return ops.addsum([ops.pick(prod, i) for i in range(prod.data.shape[0])])


class TestOps:
    def test_matvec(self):
        w = ad.Tensor(RNG.standard_normal((3, 4)))
        x = ad.Tensor(RNG.standard_normal(4))
        check(lambda: scalarize(ops.matvec(w, x)), w, x)

    def test_add_sub_mul(self):
        a = ad.Tensor(RNG.standard_normal(5))
        b = ad.Tensor(RNG.standard_normal(5))
        check(lambda: scalarize(ops.add(a, b)), a, b)
        check(lambda: scalarize(ops.sub(a, b)), a, b)
        check(lambda: scalarize(ops.mul(a, b)), a, b)

    def test_tanh_sigmoid(self):
        a = ad.Tensor(RNG.standard_normal(6))
        check(lambda: scalarize(ops.tanh(a)), a)
        check(lambda: scalarize(ops.sigmoid(a)), a)

    def test_sigmoid_stable_at_extremes(self):
        y = ops.sigmoid(ad.Tensor(np.array([-1000.0, 0.0, 1000.0])))
        assert np.allclose(y.data, [0.0, 0.5, 1.0])
        assert np.all(np.isfinite(y.data))

    def test_concat_narrow_pick(self):
        a = ad.Tensor(RNG.standard_normal(3))
        b = ad.Tensor(RNG.standard_normal(2))
        check(lambda: scalarize(ops.concat([a, b])), a, b)
        check(lambda: scalarize(ops.narrow(ops.concat([a, b]), 1, 4)), a, b)
        check(lambda: ops.pick(a, 2), a)

    def test_row(self):
        m = ad.Tensor(RNG.standard_normal((4, 3)))
        check(lambda: scalarize(ops.row(m, 2)), m)

    def test_rows_accumulate_repeated_ids(self):
        m = ad.Tensor(RNG.standard_normal((4, 3)))
        check(lambda: scalarize(ops.row(ad.rows(m, [2, 0, 2]), 2)), m)
        check(lambda: scalarize(ops.row(ad.rows(m, [2, 0, 2]), 0)), m)

    def test_bilstm(self):
        x = ad.Tensor(RNG.standard_normal((4, 3)))
        fwd = (ad.Tensor(RNG.standard_normal((8, 5)) * 0.5), ad.Tensor(RNG.standard_normal(8)))
        bwd = (ad.Tensor(RNG.standard_normal((8, 5)) * 0.5), ad.Tensor(RNG.standard_normal(8)))
        weights = ad.Tensor(RNG.standard_normal((1, 4 * 4)))

        def build():
            out = ad.bilstm(x, fwd, bwd)
            flat = ops.concat([ops.row(out, t) for t in range(4)])
            return ops.pick(ops.matvec(weights, flat), 0)

        check(build, x, *fwd, *bwd)

    def test_shared_node_accumulates(self):
        a = ad.Tensor(RNG.standard_normal(4))
        check(lambda: scalarize(ops.add(ops.mul(a, a), a)), a)

    def test_addsum(self):
        a = ad.Tensor(RNG.standard_normal(3))
        check(lambda: ops.addsum([ops.pick(a, 0), ops.pick(a, 2), ops.pick(a, 0)]), a)


class TestBackward:
    def test_lstm_like_composite(self):
        w = ad.Tensor(RNG.standard_normal((8, 6)) * 0.3)
        b = ad.Tensor(RNG.standard_normal(8) * 0.1)
        x = ad.Tensor(RNG.standard_normal(4))

        def build():
            h = ad.Tensor(np.zeros(2))
            c = ad.Tensor(np.zeros(2))
            for _ in range(3):
                pre = ops.add(ops.matvec(w, ops.concat([x, h])), b)
                i = ops.sigmoid(ops.narrow(pre, 0, 2))
                f = ops.sigmoid(ops.narrow(pre, 2, 4))
                o = ops.sigmoid(ops.narrow(pre, 4, 6))
                g = ops.tanh(ops.narrow(pre, 6, 8))
                c = ops.add(ops.mul(f, c), ops.mul(i, g))
                h = ops.mul(o, ops.tanh(c))
            return _dot(h, ad.Tensor(np.ones(2)))

        check(build, w, b, x)

    def test_grad_none_until_backward(self):
        a = ad.Tensor(np.ones(3))
        out = ops.tanh(a)
        assert a.grad is None
        ad.backward(_dot(out, ad.Tensor(np.ones(3))))
        assert a.grad is not None
