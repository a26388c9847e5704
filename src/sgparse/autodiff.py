"""The parser's LSTM kernel and its backward, over numpy arrays.

`lstm` runs one direction of a BiLSTM layer over a batch of sentences, in
one-thread row-block GEMMs that agree with a batch of one to 1e-12; it runs
in the dtype of its weights, so parsing from a checkpoint's float32 arrays
runs in float32.  `lstm_backward` is its backpropagation through time over
the same batch, in lockstep, which `sgparse.model` calls for each layer and
direction of a training batch; it returns the per-step pre-activation
gradients, and the caller forms the weight gradient from them in one
matmul over every step of every sentence.

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
    backward pass's `[x; h]`, gates and cells, written in place.
    """
    steps, batch, in_dim = xs.shape
    hidden = b.shape[0] // 4
    three = 3 * hidden
    blocks, seqs, dtype = _row_blocks(w, batch), np.arange(batch), w.dtype
    z = np.zeros((steps, batch, in_dim + hidden), dtype)
    gates = np.empty((steps, batch, 4 * hidden), dtype)
    cells = np.empty((steps, batch, hidden), dtype)
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
        h = gt[:, 2 * hidden: three] * np.tanh(c)
        hs[pos, seq] = h
    return hs, (z, gates, cells)


def lstm_backward(dhs: np.ndarray, lengths: np.ndarray, w: np.ndarray, saved, reverse: bool):
    """Backpropagation through time for a batch of `lstm`, in lockstep,
    given the arrays that `lstm` saved, its `[x; h]` rows, gates and cells
    (the cells' tanh is made again, as `lstm` made it), and `dhs`,
    the gradients of its hidden states, steps x batch x hidden at the rows
    where `lstm` returned them.

    Steps run from the last down; at each, the running sequences (a prefix
    of the batch, as lengths descend) take `dh_next` from one GEMM,
    `dpre_t @ w_h`, and a sequence starts from zeros at its last step.  A
    batch of one makes the same products as a GEMV, bit for bit.  Returns
    the pre-activation gradients `dpre`, steps x batch x 4H in step order
    and zero past each sequence's end, written over the saved gates, and
    the inputs' gradient at the inputs' rows, from one GEMM over every
    step.  The weights' gradient is `dpre.T @ z` and the bias's
    `dpre.sum(axis=0)` over the flattened steps, with `z` the saved
    `[x; h]` rows, which are zero where `dpre` is.  Every array is made in
    the saved arrays' dtype.
    """
    z, gates, cells = saved
    steps, batch, hidden = dhs.shape
    in_dim = z.shape[2] - hidden
    w_h = w[:, in_dim:]
    dpre = gates   # a step's gradients replace its gates, which no other step reads
    dh_next = np.zeros((batch, hidden), gates.dtype)
    dc_next = np.zeros((batch, hidden), gates.dtype)
    seqs = np.arange(batch)
    # the row of step t of sequence k: t, or its mirror for `reverse`, which
    # maps each step past the sequence's end to itself
    at = np.arange(steps)[:, None]
    rows = np.where(at < lengths, lengths - 1 - at, at) if reverse else at
    running = 0
    for t in range(steps - 1, -1, -1):
        while running < batch and lengths[running] > t:
            running += 1
        run = slice(0, running)
        i, f, o, g = (gates[t, run, k * hidden:(k + 1) * hidden] for k in range(4))
        dh = dhs[rows[t, run], seqs[run]] + dh_next[run]
        tc = np.tanh(cells[t, run])
        dc = dh * o * (1.0 - tc * tc) + dc_next[run]
        c_prev = cells[t - 1, run] if t > 0 else 0.0
        di = dc * g * i * (1.0 - i)
        df = dc * c_prev * f * (1.0 - f)
        do = dh * tc * o * (1.0 - o)
        dg = dc * i * (1.0 - g * g)
        dc_next[run] = dc * f
        i[...], f[...], o[...], g[...] = di, df, do, dg
        dpre[t, running:] = 0.0
        np.matmul(dpre[t, run], w_h, out=dh_next[run])
    dxs = (dpre.reshape(steps * batch, -1) @ w[:, :in_dim]).reshape(steps, batch, in_dim)
    if reverse:   # each sequence's steps back to their inputs' rows, in place
        for k, n in enumerate(lengths):
            dxs[:n, k] = dxs[n - 1::-1, k]
    return dpre, dxs


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
