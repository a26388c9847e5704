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


def select_sigmoid(x):
    """The stable sigmoid as it was written before `_sigmoid` dropped its
    select: `np.where(x >= 0, 1, e) / (1 + e)` with `e = exp(-|x|)`."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


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

    def test_sigmoid_equals_the_select_formula_bit_for_bit(self):
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300, -1e-300, 5e-324, -5e-324,
                   1e-40, -1e-40, 1e-45, -1e-45, 88.7, -88.7, 709.0, -709.0, 745.0, -745.0]
        for dtype in (np.float32, np.float64):
            with np.errstate(under="ignore", over="ignore"):
                values = np.array(special + list(RNG.standard_normal(300) * 30.0), dtype)
            grid = np.concatenate([values, values[::-1]]).reshape(2, -1)
            for x in (grid, grid[:, ::3], grid[::-1, 1::2], grid.T):
                with np.errstate(under="ignore", over="ignore", invalid="ignore"):
                    got, want = ad._sigmoid(x), select_sigmoid(x)
                assert got.dtype == want.dtype == dtype
                assert got.tobytes() == want.tobytes()

    def test_concat_narrow_pick(self):
        a = ad.Tensor(RNG.standard_normal(3))
        b = ad.Tensor(RNG.standard_normal(2))
        check(lambda: scalarize(ops.concat([a, b])), a, b)
        check(lambda: scalarize(ops.narrow(ops.concat([a, b]), 1, 4)), a, b)
        check(lambda: ops.pick(a, 2), a)

    def test_row(self):
        m = ad.Tensor(RNG.standard_normal((4, 3)))
        check(lambda: scalarize(ops.row(m, 2)), m)

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
