"""The parser's LSTM kernel and its backward, over numpy arrays.

`lstm` runs one direction of a BiLSTM layer over a batch of sentences, in
one-thread row-block GEMMs that agree with a batch of one to 1e-12; it runs
in the dtype of its weights, so parsing from a checkpoint's float32 arrays
runs in float32.  `_lstm_backward` is its backpropagation through time for
one sentence, which `sgparse.model` calls for each layer and direction; it
returns the per-step pre-activation gradients, and the caller forms the
weight gradient from them, over a whole batch of sentences at once.

`Tensor` and `backward` are a minimal reverse-mode tape, on which sgparse
itself builds nothing.  They stay only because the tests build their
reference tapes on them and the benchmark under `perfbench/` wraps
`backward`; moving them waits for that benchmark's change (ROADMAP item 1).
"""

from __future__ import annotations

import numpy as np


class Tensor:
    """A tape node: float64 data, its gradient, parents and backward closure."""

    __slots__ = ("data", "grad", "_parents", "_backprop")

    def __init__(self, data, parents=(), backprop=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._parents = parents
        self._backprop = backprop


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function that overflows for no finite input: `1/(1+e)` where
    x >= 0 and `e/(1+e)` elsewhere, with `e = exp(-|x|)`.  Since e <= 1, the
    numerator is `max(e, x >= 0)`, which needs no `np.where` select."""
    e = np.exp(-np.abs(x))
    return np.maximum(e, x >= 0) / (1.0 + e)


def _row_blocks(w: np.ndarray, batch: int) -> np.ndarray:
    """`w` as the row blocks, shape (blocks, rows, in), that a step of `lstm`
    over `batch` sequences multiplies, as a view.

    One sequence takes the whole matrix, the GEMV `w @ z`.  A batch takes
    blocks of 16, 8 or 4 rows (the most that divide the row count and fit
    in 32 KB at `w`'s item size, else 4), each times the running batch in
    one GEMM that OpenBLAS runs on the calling thread.  The whole matrix would take two
    threads: beside one busy process on a 2-core host, `parse-eval` read
    71 items/s with it and 170-202 with the blocks.
    """
    if batch == 1:
        return w[None]
    out_dim, in_dim = w.shape
    rows = next((r for r in (16, 8) if out_dim % r == 0 and r * in_dim * w.itemsize <= 1 << 15), 4)
    return w.reshape(out_dim // rows, rows, in_dim)


def lstm(xs: np.ndarray, lengths: np.ndarray, w: np.ndarray, b: np.ndarray, reverse: bool):
    """One LSTM direction over a batch of sequences, run in lockstep.

    `xs` is steps x batch x in; sequence k is `xs[:lengths[k], k]`, lengths
    descending.  With `reverse` each runs from its last row to its first.
    A step is `w @ [x; h] + b` (gates input, forget, output, candidate),
    `c = f*c + i*g` and `h = o*tanh(c)`, each row block of `w` taking every
    running sequence in one GEMM: states agree with a batch of one (the GEMV
    `w @ z`) to 1e-12 in float64, and bit for bit across batches of two or
    more.  Every array is made in `w`'s dtype.
    Returns the hidden states at their inputs' rows and, in step order, the
    backward pass's `[x; h]`, gates, cells and their tanh, written in place.
    """
    steps, batch, in_dim = xs.shape
    hidden = b.shape[0] // 4
    three = 3 * hidden
    blocks, seqs, dtype = _row_blocks(w, batch), np.arange(batch), w.dtype
    z = np.zeros((steps, batch, in_dim + hidden), dtype)
    gates = np.empty((steps, batch, 4 * hidden), dtype)
    cells = np.empty((steps, batch, hidden), dtype)
    tanh_cells = np.empty((steps, batch, hidden), dtype)
    hs = np.zeros((steps, batch, hidden), dtype)
    h = c = np.zeros((batch, hidden), dtype)
    running = batch
    for t in range(steps):
        while lengths[running - 1] <= t:
            running -= 1
        zt, gt, seq = z[t, :running], gates[t, :running], seqs[:running]
        pos = lengths[:running] - 1 - t if reverse else t
        zt[:, :in_dim], zt[:, in_dim:] = xs[pos, seq], h[:running]
        # two columns at least, so a sequence that outlasts its batch still
        # takes a GEMM, not a GEMV; the finished column reads zeros
        cols = max(running, min(batch, 2))
        pre = np.matmul(blocks, z[t, :cols].T).reshape(4 * hidden, cols)[:, :running].T + b
        gt[:, :three] = _sigmoid(pre[:, :three])
        np.tanh(pre[:, three:], out=gt[:, three:])
        c = np.add(gt[:, hidden: 2 * hidden] * c[:running], gt[:, :hidden] * gt[:, three:],
                   out=cells[t, :running])
        h = gt[:, 2 * hidden: three] * np.tanh(c, out=tanh_cells[t, :running])
        hs[pos, seq] = h
    return hs, (z, gates, cells, tanh_cells)


def _lstm_backward(dhs: np.ndarray, w: np.ndarray, saved, hidden: int):
    """Backpropagation through time for one sequence of `lstm`, given its
    saved arrays and the gradients of its hidden states, both in step order.

    Returns the per-step pre-activation gradients `dpre` and the inputs'
    gradient.  The weights' gradient is `dpre.T @ z` and the bias's is
    `dpre.sum(axis=0)`, with `z` the saved `[x; h]` rows: one matmul over
    the steps rather than a sum of per-step outer products, which the caller
    makes over the stacked rows of every sentence in a batch.
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
    return dpre, dpre @ w[:, :in_dim]


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
