"""Independent reference computations the benchmark checks pkt's outputs against.

Nothing here calls into pkt: each quantity is recomputed from its
definition by a different route (vectorized ranking, closed-form or
row-blocked kernel sums, a hand-written MLP forward), so a defect in a
pkt code path does not also corrupt the value it is compared with.
"""

from __future__ import annotations

import numpy as np

NORM_EPS = 1e-8
BLOCK = 512


def _unit_rows(x: np.ndarray) -> np.ndarray:
    return x / np.maximum(np.linalg.norm(x, axis=1), NORM_EPS)[:, None]


def retrieval(db, db_labels, queries, query_labels, ks) -> tuple[float, dict[int, float], int]:
    """Return ``(mAP, {k: top-k precision}, n_skipped)`` by cosine ranking.

    The 11-point interpolated AP of a query is the mean over recall
    levels 0.0..1.0 of the suffix maximum of precision taken at the
    first rank reaching that level (hits never decrease, so the ranks
    reaching a level form a suffix).  Ties in similarity keep ascending
    database order.  Queries without a relevant item are skipped.
    """
    dbu = _unit_rows(np.asarray(db, dtype=float))
    qu = _unit_rows(np.asarray(queries, dtype=float))
    db_labels = np.asarray(db_labels)
    query_labels = np.asarray(query_labels)
    positions = np.arange(1, dbu.shape[0] + 1)
    aps: list[np.ndarray] = []
    topk = {k: 0.0 for k in ks}
    n_skipped = 0
    for lo in range(0, qu.shape[0], BLOCK):
        order = np.argsort(-(qu[lo : lo + BLOCK] @ dbu.T), axis=1, kind="stable")
        rel = db_labels[order] == query_labels[lo : lo + BLOCK, None]
        hits = np.cumsum(rel, axis=1)
        n_rel = hits[:, -1]
        keep = n_rel > 0
        n_skipped += int(np.sum(~keep))
        rel, hits, n_rel = rel[keep], hits[keep], n_rel[keep]
        suffix_max = np.maximum.accumulate((hits / positions)[:, ::-1], axis=1)[:, ::-1]
        rows = np.arange(hits.shape[0])
        total = np.zeros(hits.shape[0])
        for level in range(11):
            first = np.argmax(10 * hits >= level * n_rel[:, None], axis=1)
            total += suffix_max[rows, first]
        aps.append(total / 11.0)
        for k in ks:
            topk[k] += float(np.sum(rel[:, :k].sum(axis=1) / k))
    ap = np.concatenate(aps)
    return float(np.mean(ap)), {k: topk[k] / ap.size for k in ks}, n_skipped


def potentials(feats, labels, family: str, width: float | None = None) -> tuple[float, float, float, float]:
    """Return ``(v_in, v_all, v_btw, qmi)`` with self-pairs included in every sum.

    Cosine uses the closed form over unit rows u and class sums s_p:
    sum_{k,l in p} (u_k.u_l + 1)/2 = (|s_p|^2 + J_p^2)/2.  Gaussian sums
    exact kernel rows block by block, so memory stays O(BLOCK * N).
    """
    x = np.asarray(feats, dtype=float)
    _, inverse = np.unique(np.asarray(labels), return_inverse=True)
    n = x.shape[0]
    onehot = np.zeros((n, inverse.max() + 1))
    onehot[np.arange(n), inverse] = 1.0
    sizes = onehot.sum(axis=0)
    if family == "cosine":
        u = _unit_rows(x)
        class_sums = onehot.T @ u
        total_sum = u.sum(axis=0)
        within = (np.einsum("pd,pd->p", class_sums, class_sums) + sizes**2) / 2.0
        against_all = (class_sums @ total_sum + sizes * n) / 2.0
        total = (total_sum @ total_sum + n * n) / 2.0
    else:
        sq = np.einsum("ij,ij->i", x, x)
        row_class = np.empty((n, onehot.shape[1]))
        for lo in range(0, n, BLOCK):
            d2 = sq[lo : lo + BLOCK, None] + sq[None, :] - 2.0 * (x[lo : lo + BLOCK] @ x.T)
            row_class[lo : lo + BLOCK] = np.exp(-np.clip(d2, 0.0, None) / width) @ onehot
        within = np.einsum("ip,ip->p", onehot, row_class)
        against_all = onehot.T @ row_class.sum(axis=1)
        total = row_class.sum()
    prior = sizes / n
    v_in = within.sum() / (n * n)
    v_all = float(prior @ prior) * total / (n * n)
    v_btw = float(prior @ against_all) / (n * n)
    return float(v_in), float(v_all), float(v_btw), float(v_in + v_all - 2.0 * v_btw)


def parse_model(text: str) -> list[tuple[np.ndarray, np.ndarray]]:
    """Layers ``[(W, b), ...]`` of a ``PKT-MODEL v1`` decimal-text model file."""
    lines = text.splitlines()
    if not lines or lines[0] != "PKT-MODEL v1" or not lines[1].startswith("dims "):
        raise ValueError("not a PKT-MODEL v1 file")
    dims = [int(tok) for tok in lines[1].split()[1:]]
    layers, pos = [], 2
    for fan_in in dims[:-1]:
        rows = [[float(tok) for tok in ln.split()] for ln in lines[pos : pos + fan_in + 1]]
        layers.append((np.array(rows[:fan_in]), np.array(rows[fan_in])))
        pos += fan_in + 1
    return layers


def mlp_forward(layers, x: np.ndarray) -> np.ndarray:
    """ReLU hidden layers, linear output."""
    out = np.asarray(x, dtype=float)
    for i, (w, b) in enumerate(layers):
        out = out @ w + b
        if i < len(layers) - 1:
            out = np.maximum(out, 0.0)
    return out


def batch_count(n: int, batch_size: int) -> int:
    """Batches per epoch: ceil(n / B), less a trailing batch of one sample."""
    full, tail = divmod(n, batch_size)
    return full + (1 if tail >= 2 else 0)
