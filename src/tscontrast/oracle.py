"""Deliberately slow reference implementations, used only by tests.

Nothing here shares code with the production modules: alignments are found by
exhaustive path enumeration or by the textbook scalar DP, losses by nested
scalar loops, gradients by central finite differences.  Sizes are expected to
be tiny.
"""
from __future__ import annotations

import math

import numpy as np


def _paths(ta: int, tb: int):
    """All monotone alignment paths from (0,0) to (ta-1, tb-1)."""
    def walk(i, j, prefix):
        if i == ta - 1 and j == tb - 1:
            yield prefix
            return
        if i + 1 < ta:
            yield from walk(i + 1, j, prefix + [(i + 1, j)])
        if j + 1 < tb:
            yield from walk(i, j + 1, prefix + [(i, j + 1)])
        if i + 1 < ta and j + 1 < tb:
            yield from walk(i + 1, j + 1, prefix + [(i + 1, j + 1)])

    yield from walk(0, 0, [(0, 0)])


def _step_cost(a, b, i, j):
    total = 0.0
    for d in range(len(a[0])):
        diff = a[i][d] - b[j][d]
        total += diff * diff
    return math.sqrt(total)


def _as_rows(x):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    return x.tolist()


def brute_dtw(a, b, band=None) -> float:
    """Minimum cumulative cost over every monotone path (lengths <= ~6).

    With `band`, a path counts only if every cell (i, j) on it satisfies
    |i*tb - j*ta| <= band*max(ta, tb); inf when no path does.
    """
    a, b = _as_rows(a), _as_rows(b)
    ta, tb = len(a), len(b)
    best = math.inf
    for path in _paths(ta, tb):
        if not all(_in_band(i, j, ta, tb, band) for i, j in path):
            continue
        cost = sum(_step_cost(a, b, i, j) for i, j in path)
        best = min(best, cost)
    return best


def _in_band(i, j, ta, tb, band) -> bool:
    return band is None or abs(i * tb - j * ta) <= band * max(ta, tb)


def _dp_table(a, b, band=None):
    """Row-by-row cumulative-cost table acc[i][j] = cost(i, j) + min of the
    three predecessors; cells outside the band stay inf."""
    a, b = _as_rows(a), _as_rows(b)
    ta, tb = len(a), len(b)
    acc = [[math.inf] * tb for _ in range(ta)]
    for i in range(ta):
        for j in range(tb):
            if not _in_band(i, j, ta, tb, band):
                continue
            if i == 0 and j == 0:
                prev = 0.0
            else:
                prev = min(acc[i - 1][j] if i > 0 else math.inf,
                           acc[i][j - 1] if j > 0 else math.inf,
                           acc[i - 1][j - 1] if i > 0 and j > 0 else math.inf)
            acc[i][j] = _step_cost(a, b, i, j) + prev
    return acc


def dp_dtw(a, b, band=None) -> float:
    """Textbook O(ta*tb) DTW with scalar loops, for lengths past `brute_dtw`'s
    reach.  `band` is the Sakoe-Chiba condition of `brute_dtw`; inf when no
    path fits."""
    return _dp_table(a, b, band)[-1][-1]


def dp_dtw_path(a, b):
    """(path, cost) of the optimal alignment from the textbook table, walked
    back from the last cell; at each cell the first strict minimum of
    (diagonal, vertical, horizontal) predecessor wins."""
    acc = _dp_table(a, b)
    i, j = len(acc) - 1, len(acc[0]) - 1
    path = [(i, j)]
    while i > 0 or j > 0:
        if i == 0:
            j -= 1
        elif j == 0:
            i -= 1
        else:
            best = (i - 1, j - 1)
            for cand in ((i - 1, j), (i, j - 1)):
                if acc[cand[0]][cand[1]] < acc[best[0]][best[1]]:
                    best = cand
            i, j = best
        path.append((i, j))
    return path[::-1], acc[-1][-1]


def tam_from_path(path, ta: int, tb: int) -> float:
    """Advance/delay/in-phase proportions of a warping path; two single-step
    series are in phase (0)."""
    if ta == 1 and tb == 1:
        return 0.0
    advance = delay = phase = 0
    for (i0, j0), (i1, j1) in zip(path, path[1:]):
        di, dj = i1 - i0, j1 - j0
        if di == 0 and dj == 1:
            advance += 1
        elif di == 1 and dj == 0:
            delay += 1
        elif di == 1 and dj == 1:
            phase += 1
    p_adv = advance / (tb - 1) if tb > 1 else 0.0
    p_del = delay / (ta - 1) if ta > 1 else 0.0
    p_phase = phase / (min(ta, tb) - 1) if min(ta, tb) > 1 else 0.0
    return p_adv + p_del + (1.0 - p_phase)


def _flat_prefixes(a, b):
    a, b = _as_rows(a), _as_rows(b)
    t = min(len(a), len(b))
    return [x for row in a[:t] for x in row], [y for row in b[:t] for y in row]


def euclidean_prefix(a, b) -> float:
    """L2 distance of the flattened common prefix, by a scalar loop."""
    u, v = _flat_prefixes(a, b)
    return math.sqrt(sum((x - y) * (x - y) for x, y in zip(u, v)))


def cosine_prefix(a, b) -> float:
    """1 - cosine similarity of the flattened common prefixes, both of nonzero
    norm, by scalar loops."""
    u, v = _flat_prefixes(a, b)
    return 1.0 - _scalar_dot(u, v) / math.sqrt(_scalar_dot(u, u) * _scalar_dot(v, v))


def _scalar_dot(u, v):
    return sum(ui * vi for ui, vi in zip(u, v))


def _log_p_pair(rows, anchor: int, other: int) -> float:
    """log of exp(sim(anchor, other)) / sum_{k != anchor} exp(sim(anchor, k)),
    computed with scalar loops (max-shifted for stability)."""
    sims = [_scalar_dot(rows[anchor], rows[k]) for k in range(len(rows)) if k != anchor]
    mx = max(sims)
    denom = sum(math.exp(s - mx) for s in sims)
    return _scalar_dot(rows[anchor], rows[other]) - mx - math.log(denom)


def scalar_loss_eq3(reps, w) -> float:
    """Soft instance-wise loss: positive term plus soft-weighted terms over
    the remaining pairs, averaged over anchors (i, t)."""
    reps = np.asarray(reps, dtype=np.float64)
    two_n, t_len, _ = reps.shape
    n = two_n // 2
    w = np.asarray(w, dtype=np.float64)
    total = 0.0
    for t in range(t_len):
        rows = [reps[i, t].tolist() for i in range(two_n)]
        for i in range(two_n):
            pos = (i + n) % two_n
            li = -_log_p_pair(rows, i, pos)
            for j in range(two_n):
                if j == i or j == pos:
                    continue
                li -= w[i % n, j % n] * _log_p_pair(rows, i, j)
            total += li
    return total / (two_n * t_len)


def scalar_loss_eq6(reps, w_t) -> float:
    """Soft temporal loss on the doubled timestamp axis, averaged over
    anchors (i, t)."""
    reps = np.asarray(reps, dtype=np.float64)
    two_n, t_len, _ = reps.shape
    n = two_n // 2
    w_t = np.asarray(w_t, dtype=np.float64)
    total = 0.0
    for i in range(n):
        rows = [reps[i, t].tolist() for t in range(t_len)] + [
            reps[i + n, t].tolist() for t in range(t_len)
        ]
        for t in range(2 * t_len):
            pos = (t + t_len) % (2 * t_len)
            lt = -_log_p_pair(rows, t, pos)
            for s in range(2 * t_len):
                if s == t or s == pos:
                    continue
                lt -= w_t[t % t_len, s % t_len] * _log_p_pair(rows, t, s)
            total += lt
    return total / (n * 2 * t_len)


def infonce_instance(reps) -> float:
    """Textbook InfoNCE over stacked views: cross-view positives only."""
    reps = np.asarray(reps, dtype=np.float64)
    two_n, t_len, _ = reps.shape
    n = two_n // 2
    total = 0.0
    for t in range(t_len):
        rows = [reps[i, t].tolist() for i in range(two_n)]
        for i in range(two_n):
            total -= _log_p_pair(rows, i, (i + n) % two_n)
    return total / (two_n * t_len)


def infonce_temporal(reps) -> float:
    """Textbook InfoNCE along the doubled timestamp axis per instance."""
    reps = np.asarray(reps, dtype=np.float64)
    two_n, t_len, _ = reps.shape
    n = two_n // 2
    total = 0.0
    for i in range(n):
        rows = [reps[i, t].tolist() for t in range(t_len)] + [
            reps[i + n, t].tolist() for t in range(t_len)
        ]
        for t in range(2 * t_len):
            total -= _log_p_pair(rows, t, (t + t_len) % (2 * t_len))
    return total / (n * 2 * t_len)


def knn_vote(train_reprs, train_labels, query, k: int):
    """The kNN probe's label for one query row: the most common label among
    the k nearest training rows (Euclidean; equal distances keep row order);
    a vote tie goes to the nearest neighbour whose label is among the tied."""
    sq_dists = [sum((float(q) - float(t)) ** 2 for q, t in zip(query, row))
                for row in train_reprs]
    nearest = sorted(range(len(sq_dists)), key=lambda j: sq_dists[j])[:k]
    labels = [train_labels[j] for j in nearest]
    best = max(labels.count(label) for label in labels)
    for label in labels:
        if labels.count(label) == best:
            return label


def conv1d_direct(x, kernel, dilation: int):
    """Same-length dilated 1-D convolution by scalar loops over an explicitly
    zero-padded copy of each series.

    x: [B, L, Cin], kernel: [K, Cin, Cout]; tap K // 2 sits on t, so
    out[b, t, o] = sum over j, c of x[b, t + (j - K // 2) * dilation, c]
    * kernel[j, c, o], reading 0 outside [0, L).
    """
    x = np.asarray(x, dtype=np.float64)
    k = np.asarray(kernel, dtype=np.float64).tolist()
    n_b, n_t, n_in = x.shape
    n_k, n_out = len(k), len(k[0][0])
    zero_row = [0.0] * n_in
    left = [zero_row] * ((n_k // 2) * dilation)
    right = [zero_row] * ((n_k - 1 - n_k // 2) * dilation)
    out = np.zeros((n_b, n_t, n_out))
    for b in range(n_b):
        padded = left + x[b].tolist() + right
        for t in range(n_t):
            acc = [0.0] * n_out
            for j in range(n_k):
                row = padded[t + j * dilation]
                for c in range(n_in):
                    for o in range(n_out):
                        acc[o] += row[c] * k[j][c][o]
            out[b, t] = acc
    return out


def fd_gradient(f, params, h: float = 1e-5):
    """Central-difference gradient of scalar f with respect to a list of
    numpy arrays; mutates copies only."""
    grads = []
    for p in params:
        g = np.zeros_like(p)
        flat_p = p.ravel()
        flat_g = g.ravel()
        for idx in range(flat_p.size):
            orig = flat_p[idx]
            flat_p[idx] = orig + h
            up = f()
            flat_p[idx] = orig - h
            down = f()
            flat_p[idx] = orig
            flat_g[idx] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads
