import numpy as np

from sgparse import autodiff as ad

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
    w = ad.tensor(np.linspace(0.5, 1.5, t.data.shape[0]))
    return ad.pick(ad.mul(t, w), 0) if t.data.shape[0] == 1 else _dot(t, w)


def _dot(a, b):
    prod = ad.mul(a, b)
    return ad.addsum([ad.pick(prod, i) for i in range(prod.data.shape[0])])


class TestOps:
    def test_matvec(self):
        w = ad.tensor(RNG.standard_normal((3, 4)))
        x = ad.tensor(RNG.standard_normal(4))
        check(lambda: scalarize(ad.matvec(w, x)), w, x)

    def test_add_sub_mul(self):
        a = ad.tensor(RNG.standard_normal(5))
        b = ad.tensor(RNG.standard_normal(5))
        check(lambda: scalarize(ad.add(a, b)), a, b)
        check(lambda: scalarize(ad.sub(a, b)), a, b)
        check(lambda: scalarize(ad.mul(a, b)), a, b)

    def test_tanh_sigmoid(self):
        a = ad.tensor(RNG.standard_normal(6))
        check(lambda: scalarize(ad.tanh(a)), a)
        check(lambda: scalarize(ad.sigmoid(a)), a)

    def test_sigmoid_stable_at_extremes(self):
        y = ad.sigmoid(ad.tensor(np.array([-1000.0, 0.0, 1000.0])))
        assert np.allclose(y.data, [0.0, 0.5, 1.0])
        assert np.all(np.isfinite(y.data))

    def test_concat_narrow_pick(self):
        a = ad.tensor(RNG.standard_normal(3))
        b = ad.tensor(RNG.standard_normal(2))
        check(lambda: scalarize(ad.concat([a, b])), a, b)
        check(lambda: scalarize(ad.narrow(ad.concat([a, b]), 1, 4)), a, b)
        check(lambda: ad.pick(a, 2), a)

    def test_row(self):
        m = ad.tensor(RNG.standard_normal((4, 3)))
        check(lambda: scalarize(ad.row(m, 2)), m)

    def test_rows_accumulate_repeated_ids(self):
        m = ad.tensor(RNG.standard_normal((4, 3)))
        check(lambda: scalarize(ad.row(ad.rows(m, [2, 0, 2]), 2)), m)
        check(lambda: scalarize(ad.row(ad.rows(m, [2, 0, 2]), 0)), m)

    def test_bilstm(self):
        x = ad.tensor(RNG.standard_normal((4, 3)))
        fwd = (ad.tensor(RNG.standard_normal((8, 5)) * 0.5), ad.tensor(RNG.standard_normal(8)))
        bwd = (ad.tensor(RNG.standard_normal((8, 5)) * 0.5), ad.tensor(RNG.standard_normal(8)))
        weights = ad.tensor(RNG.standard_normal((1, 4 * 4)))

        def build():
            out = ad.bilstm(x, fwd, bwd)
            flat = ad.concat([ad.row(out, t) for t in range(4)])
            return ad.pick(ad.matvec(weights, flat), 0)

        check(build, x, *fwd, *bwd)

    def test_shared_node_accumulates(self):
        a = ad.tensor(RNG.standard_normal(4))
        check(lambda: scalarize(ad.add(ad.mul(a, a), a)), a)

    def test_addsum(self):
        a = ad.tensor(RNG.standard_normal(3))
        check(lambda: ad.addsum([ad.pick(a, 0), ad.pick(a, 2), ad.pick(a, 0)]), a)


class TestBackward:
    def test_lstm_like_composite(self):
        w = ad.tensor(RNG.standard_normal((8, 6)) * 0.3)
        b = ad.tensor(RNG.standard_normal(8) * 0.1)
        x = ad.tensor(RNG.standard_normal(4))

        def build():
            h = ad.tensor(np.zeros(2))
            c = ad.tensor(np.zeros(2))
            for _ in range(3):
                pre = ad.add(ad.matvec(w, ad.concat([x, h])), b)
                i = ad.sigmoid(ad.narrow(pre, 0, 2))
                f = ad.sigmoid(ad.narrow(pre, 2, 4))
                o = ad.sigmoid(ad.narrow(pre, 4, 6))
                g = ad.tanh(ad.narrow(pre, 6, 8))
                c = ad.add(ad.mul(f, c), ad.mul(i, g))
                h = ad.mul(o, ad.tanh(c))
            return _dot(h, ad.tensor(np.ones(2)))

        check(build, w, b, x)

    def test_grad_none_until_backward(self):
        a = ad.tensor(np.ones(3))
        out = ad.tanh(a)
        assert a.grad is None
        ad.backward(_dot(out, ad.tensor(np.ones(3))))
        assert a.grad is not None
