"""Tape ops that `sgparse` no longer uses, kept for the tests.  sgparse
builds no tape; the per-token LSTM, the per-step MLP scorer and the tape
hinge loss built from these ops, on `autodiff.Tensor` and `backward`, are
the references that its sequence-level LSTM, its slot-projection scorer and
its direct backward are checked against.
"""

import numpy as np

from sgparse.autodiff import Tensor, _sigmoid


def _acc(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def matvec(w: Tensor, x: Tensor) -> Tensor:
    out = Tensor(w.data @ x.data, parents=(w, x))

    def backprop(g):
        _acc(w, np.outer(g, x.data))
        _acc(x, w.data.T @ g)

    out._backprop = backprop
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data, parents=(a, b))

    def backprop(g):
        _acc(a, g)
        _acc(b, g)

    out._backprop = backprop
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data - b.data, parents=(a, b))

    def backprop(g):
        _acc(a, g)
        _acc(b, -g)

    out._backprop = backprop
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data, parents=(a, b))

    def backprop(g):
        _acc(a, g * b.data)
        _acc(b, g * a.data)

    out._backprop = backprop
    return out


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    out = Tensor(y, parents=(a,))

    def backprop(g):
        _acc(a, g * (1.0 - y * y))

    out._backprop = backprop
    return out


def sigmoid(a: Tensor) -> Tensor:
    y = _sigmoid(a.data)
    out = Tensor(y, parents=(a,))

    def backprop(g):
        _acc(a, g * y * (1.0 - y))

    out._backprop = backprop
    return out


def concat(parts: list[Tensor]) -> Tensor:
    out = Tensor(np.concatenate([p.data for p in parts]), parents=tuple(parts))
    offsets = np.cumsum([0] + [p.data.shape[0] for p in parts])

    def backprop(g):
        for p, lo, hi in zip(parts, offsets, offsets[1:]):
            _acc(p, g[lo:hi])

    out._backprop = backprop
    return out


def narrow(a: Tensor, start: int, stop: int) -> Tensor:
    out = Tensor(a.data[start:stop], parents=(a,))

    def backprop(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        a.grad[start:stop] += g

    out._backprop = backprop
    return out


def pick(a: Tensor, index: int) -> Tensor:
    out = Tensor(a.data[index], parents=(a,))

    def backprop(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        a.grad[index] += g

    out._backprop = backprop
    return out


def row(m: Tensor, index: int) -> Tensor:
    """Row lookup into a matrix, accumulating gradient into that row only."""
    out = Tensor(m.data[index], parents=(m,))

    def backprop(g):
        if m.grad is None:
            m.grad = np.zeros_like(m.data)
        m.grad[index] += g

    out._backprop = backprop
    return out


def addsum(parts: list[Tensor]) -> Tensor:
    """Sum of scalar tensors."""
    out = Tensor(sum(float(p.data) for p in parts), parents=tuple(parts))

    def backprop(g):
        for p in parts:
            _acc(p, g)

    out._backprop = backprop
    return out
