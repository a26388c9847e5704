"""The per-sentence greedy decoder that the lockstep `model.parse` replaced,
kept for the tests as its reference: one sentence at a time, its context
vectors projected through the four `mlp_w1` slot blocks once, then at each
step its four slot rows added, `tanh`, a `w2` GEMV and an argmax over the
legal actions, the lowest index among equal scores.
"""

import numpy as np

from sgparse.model import encode_batch
from sgparse.transition import apply, initial, is_terminal, legal_actions


def sentence_scorer(vectors, params):
    """One sentence's slot-projection scorer: `step(c)` gives configuration
    c's score row, from the rows of `[vectors; pad]`."""
    d = params.d_ctx
    w1, b1 = params.tensors["mlp_w1"], params.tensors["mlp_b1"]
    w2, b2 = params.tensors["mlp_w2"], params.tensors["mlp_b2"]
    rows = np.concatenate([vectors, params.tensors["pad"][None]])
    pad = len(vectors)
    p0, p1, p2, p3 = (
        np.concatenate([rows[i: i + 4] @ w1[:, k * d: (k + 1) * d].T
                        for i in range(0, len(rows), 4)])
        for k in range(4)
    )

    def step(c):
        top = [pad] * 3 + [token - 1 for token in c.stack[-3:]]
        hidden = np.tanh(p0[top[-3]] + p1[top[-2]] + p2[top[-1]] + p3[c.buffer[0] - 1] + b1)
        return w2 @ hidden + b2

    return step


def greedy_parse(tokens, params, vectors):
    """One sentence's greedy parse from its context vectors: its actions and
    each step's score row."""
    scores = sentence_scorer(vectors, params)
    c = initial(len(tokens))
    actions, rows = [], []
    while not is_terminal(c):
        legal = legal_actions(c, params.arc_rule)
        row = scores(c)
        rows.append(row)
        data = row.tolist()
        best = None
        for i, a in enumerate(params.actions):
            if a in legal and (best is None or data[i] > data[best]):
                best = i
        actions.append(params.actions[best])
        c = apply(c, params.actions[best])
    return actions, rows


def parse_chunk(token_lists, params):
    """Each sentence of a chunk decoded on its own, from the vectors of one
    `encode_batch` pass over the chunk: per sentence, its actions and score
    rows."""
    return [greedy_parse(tokens, params, vectors)
            for tokens, vectors in zip(token_lists, encode_batch(token_lists, params))]
