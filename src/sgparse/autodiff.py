"""Minimal reverse-mode automatic differentiation over numpy arrays.

Just enough ops for a BiLSTM stack, an MLP and hinge losses: a fused
bidirectional LSTM layer over a whole sequence, row gathers, matrix-vector
products, elementwise arithmetic, tanh/sigmoid, concatenation, slicing and
scalar picks.  Everything runs in float64; a Tensor records its parents and
a closure that routes the incoming gradient to them.
"""

from __future__ import annotations

import numpy as np


class Tensor:
    __slots__ = ("data", "grad", "_parents", "_backprop")

    def __init__(self, data, parents=(), backprop=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._parents = parents
        self._backprop = backprop

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"


def _acc(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _take(t: Tensor, g: np.ndarray) -> None:
    """`_acc` for a freshly computed gradient that no other node holds, which
    is kept as it is rather than added into a zeroed copy."""
    if t.grad is None:
        t.grad = g
    else:
        t.grad += g


def tensor(data) -> Tensor:
    """A leaf tensor (parameter or constant)."""
    return Tensor(data)


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


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function that overflows for no finite input: `1/(1+e)` where
    x >= 0 and `e/(1+e)` elsewhere, with `e = exp(-|x|)`."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


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


def rows(m: Tensor, ids) -> Tensor:
    """Gather of matrix rows; repeated ids accumulate their gradients."""
    ids = np.asarray(ids, dtype=np.intp)
    out = Tensor(m.data[ids], parents=(m,))

    def backprop(g):
        if m.grad is None:
            m.grad = np.zeros_like(m.data)
        np.add.at(m.grad, ids, g)

    out._backprop = backprop
    return out


def _lstm_forward(xs: np.ndarray, w: np.ndarray, b: np.ndarray, hidden: int):
    """Run one LSTM direction over the rows of xs, in order.

    Each step is `w @ [x; h] + b`, gates input/forget/output/candidate, then
    `c = f*c + i*g` and `h = o*tanh(c)`.  Returns the hidden states and what
    the backward pass needs: the step inputs `[x; h_prev]`, the four gate
    activations, the cell states and their tanh.  Every step writes into
    those arrays directly; the sigmoid runs once over the three sigmoid
    gates.
    """
    steps, in_dim = xs.shape
    three = 3 * hidden
    z = np.empty((steps, in_dim + hidden))
    gates = np.empty((steps, 4 * hidden))
    cells = np.empty((steps, hidden))
    tanh_cells = np.empty((steps, hidden))
    hs = np.empty((steps, hidden))
    z[:, :in_dim] = xs
    h = c = np.zeros(hidden)
    for t in range(steps):
        zt, gt = z[t], gates[t]
        zt[in_dim:] = h
        pre = w @ zt + b
        gt[:three] = _sigmoid(pre[:three])
        np.tanh(pre[three:], out=gt[three:])
        np.add(gt[hidden: 2 * hidden] * c, gt[:hidden] * gt[three:], out=cells[t])
        c = cells[t]
        np.tanh(c, out=tanh_cells[t])
        h = np.multiply(gt[2 * hidden: three], tanh_cells[t], out=hs[t])
    return hs, (z, gates, cells, tanh_cells)


def _lstm_backward(dhs: np.ndarray, w: np.ndarray, saved, hidden: int):
    """Backpropagation through time for one direction of `_lstm_forward`.

    Returns the gradients of the inputs, the weights and the bias; each
    weight gradient is one matmul over the per-step pre-activation
    gradients rather than a sum of per-step outer products.
    """
    z, gates, cells, tanh_cells = saved
    steps = dhs.shape[0]
    in_dim = z.shape[1] - hidden
    w_h = w[:, in_dim:]
    i, f = gates[:, :hidden], gates[:, hidden: 2 * hidden]
    o, g = gates[:, 2 * hidden: 3 * hidden], gates[:, 3 * hidden:]
    dpre = np.empty_like(gates)
    dh_next = np.zeros(hidden)
    dc_next = np.zeros(hidden)
    for t in range(steps - 1, -1, -1):
        dh = dhs[t] + dh_next
        dc = dh * o[t] * (1.0 - tanh_cells[t] * tanh_cells[t]) + dc_next
        c_prev = cells[t - 1] if t > 0 else 0.0
        dpre[t, :hidden] = dc * g[t] * i[t] * (1.0 - i[t])
        dpre[t, hidden: 2 * hidden] = dc * c_prev * f[t] * (1.0 - f[t])
        dpre[t, 2 * hidden: 3 * hidden] = dh * tanh_cells[t] * o[t] * (1.0 - o[t])
        dpre[t, 3 * hidden:] = dc * i[t] * (1.0 - g[t] * g[t])
        dc_next = dc * f[t]
        dh_next = dpre[t] @ w_h
    return dpre @ w[:, :in_dim], dpre.T @ z, dpre.sum(axis=0)


def bilstm(x: Tensor, fwd: tuple[Tensor, Tensor], bwd: tuple[Tensor, Tensor]) -> Tensor:
    """Bidirectional LSTM layer over a whole sequence as one tape node.

    Maps the T x in matrix `x` to a T x 2*hidden matrix whose row t holds the
    forward state after token t followed by the backward state after token
    t, reading right to left.  `fwd` and `bwd` are each `(w, b)` with w of
    shape 4*hidden x (in + hidden), gate rows ordered input, forget, output,
    candidate.
    """
    (w_f, b_f), (w_b, b_b) = fwd, bwd
    hidden = b_f.data.shape[0] // 4
    h_f, saved_f = _lstm_forward(x.data, w_f.data, b_f.data, hidden)
    h_b, saved_b = _lstm_forward(x.data[::-1], w_b.data, b_b.data, hidden)
    out = Tensor(np.concatenate([h_f, h_b[::-1]], axis=1), parents=(x, w_f, b_f, w_b, b_b))

    def backprop(g):
        dx_f, dw_f, db_f = _lstm_backward(g[:, :hidden], w_f.data, saved_f, hidden)
        dx_b, dw_b, db_b = _lstm_backward(g[::-1, hidden:], w_b.data, saved_b, hidden)
        _take(x, dx_f + dx_b[::-1])
        for param, grad in ((w_f, dw_f), (b_f, db_f), (w_b, dw_b), (b_b, db_b)):
            _take(param, grad)

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


def backward(root: Tensor) -> None:
    """Backpropagate from a scalar root, accumulating into .grad fields."""
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    root.grad = np.ones_like(root.data)
    for node in reversed(order):
        if node._backprop is not None and node.grad is not None:
            node._backprop(node.grad)
