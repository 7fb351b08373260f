"""Deliberately slow reference implementations, used only by tests.

Nothing here shares code with the production modules: alignments are found by
exhaustive path enumeration or by the textbook scalar DP, losses by nested
scalar loops, gradients by central finite differences.  The one exception is
`anomaly_scores`, which calls the encoder's stages (projection, dilated
blocks, readout) and hides each timestamp itself: what it checks is the
scoring protocol, one full encode per hidden timestamp.  Sizes are expected
to be tiny.
"""
from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from . import encoder as enc


def znormalize(tset) -> np.ndarray:
    """The padded [N, T_max, D] values of a time-series set z-normalized one
    series at a time: each channel of series i's valid prefix to zero mean
    and unit population stdev (constant channels to zeros), padding zero.
    A non-constant channel whose stdev is below 2**-511 gets it again from
    its deviations scaled by 2**-e, e the exponent of the largest, so squares
    that would underflow do not.  Raises the ValueError that names the first
    series whose mean or stdev is not finite."""
    values = np.zeros_like(tset.values)
    for i in range(tset.n):
        li = tset.lengths[i]
        seg = tset.values[i, :li, :]
        with np.errstate(over="ignore", invalid="ignore"):
            mean = seg.mean(axis=0)
            spread = seg.std(axis=0)
        if not (np.isfinite(mean).all() and np.isfinite(spread).all()):
            raise ValueError(f"series {i}: mean or stdev is not finite, so it cannot be "
                             f"z-normalized (mean {mean.tolist()}, stdev {spread.tolist()})")
        dev = seg - mean
        shift = np.zeros(len(spread), dtype=int)
        for c in range(len(spread)):
            peak = float(np.abs(dev[:, c]).max())
            if spread[c] < 2.0 ** -511 and peak > 0:
                shift[c] = -math.frexp(peak)[1]
        if shift.any():
            dev = np.ldexp(dev, shift)
            spread = np.where(shift != 0, np.sqrt(np.square(dev).mean(axis=0)), spread)
        out = dev / np.where(spread > 0, spread, 1.0)
        out[:, spread == 0] = 0.0
        values[i, :li, :] = out
    return values


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


def _dp_table(a, b, inside):
    """Row-by-row cumulative-cost table of the rows `a`, `b`: acc[i][j] =
    cost(i, j) + min of the three predecessors on the cells where
    inside(i, j) holds; every other cell stays inf."""
    ta, tb = len(a), len(b)
    acc = [[math.inf] * tb for _ in range(ta)]
    for i in range(ta):
        for j in range(tb):
            if not inside(i, j):
                continue
            if i == 0 and j == 0:
                prev = 0.0
            else:
                prev = min(acc[i - 1][j] if i > 0 else math.inf,
                           acc[i][j - 1] if j > 0 else math.inf,
                           acc[i - 1][j - 1] if i > 0 and j > 0 else math.inf)
            acc[i][j] = _step_cost(a, b, i, j) + prev
    return acc


def _walk(acc):
    """The path through a cumulative-cost table, walked back from its last
    cell; at each cell the first strict minimum of (diagonal, vertical,
    horizontal) predecessor wins."""
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
    return path[::-1]


def dp_dtw(a, b, band=None) -> float:
    """Textbook O(ta*tb) DTW with scalar loops, for lengths past `brute_dtw`'s
    reach.  `band` is the Sakoe-Chiba condition of `brute_dtw`; inf when no
    path fits."""
    a, b = _as_rows(a), _as_rows(b)
    ta, tb = len(a), len(b)
    return _dp_table(a, b, lambda i, j: _in_band(i, j, ta, tb, band))[-1][-1]


def dp_dtw_path(a, b):
    """(path, cost) of the optimal alignment from the textbook table, walked
    back from the last cell; at each cell the first strict minimum of
    (diagonal, vertical, horizontal) predecessor wins."""
    acc = _dp_table(_as_rows(a), _as_rows(b), lambda i, j: True)
    return _walk(acc), acc[-1][-1]


def _halve(rows):
    """Means of consecutive steps, channel by channel; an odd last step is
    kept as it is."""
    out = [[(u + v) / 2 for u, v in zip(rows[t], rows[t + 1])]
           for t in range(0, len(rows) - 1, 2)]
    return out + rows[len(rows) - len(rows) % 2:]


def _fastdtw_table(a, b, radius: int):
    """The scalar table that `fastdtw` reads its value from."""
    if len(a) <= radius + 2 or len(b) <= radius + 2:
        return _dp_table(a, b, lambda i, j: True)
    path = _walk(_fastdtw_table(_halve(a), _halve(b), radius))
    near = {(r + dr, c + dc) for r, c in path
            for dr in range(-radius, radius + 1) for dc in range(-radius, radius + 1)}
    return _dp_table(a, b, lambda i, j: (i // 2, j // 2) in near)


def fastdtw(a, b, radius: int) -> float:
    """FastDTW (Salvador & Chan, 2007) by scalar loops: while both series are
    longer than radius + 2, halve them, align the halves recursively, and
    fill the scalar table only on the fine cells whose coarse cell lies
    within `radius` (in both directions) of the coarse path; shorter series
    get the full table."""
    return _fastdtw_table(_as_rows(a), _as_rows(b), radius)[-1][-1]


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


def extend_weights(w) -> np.ndarray:
    """[2P, 2P] extended assignments of a [P, P] table by scalar loops: 0 on
    the diagonal, 1 at the cross-view positives (i, i + P) and (i + P, i),
    w[i mod P][j mod P] everywhere else."""
    rows = np.asarray(w, dtype=np.float64).tolist()
    p = len(rows)
    out = np.zeros((2 * p, 2 * p))
    for i in range(2 * p):
        for j in range(2 * p):
            if i == j:
                continue
            out[i, j] = 1.0 if i % p == j % p else rows[i % p][j % p]
    return out


def scaled_kl_loss(reps, w, temporal: bool) -> float:
    """The soft loss in its scaled-KL form, Z * (KL(Q || P) + H(Q)) averaged
    over anchors, by scalar loops.  Each anchor's row of `extend_weights(w)`
    (w >= 0, [N, N] instance or [T, T] temporal) is Q times its sum Z, and P
    is the softmax over the anchor's other items; 0 log 0 = 0.  The items are
    the 2N rows at each timestamp, or with `temporal` each instance's 2T
    timestamps of both views."""
    reps = np.asarray(reps, dtype=np.float64)
    two_n, t_len, _ = reps.shape
    n = two_n // 2
    w_ext = extend_weights(w).tolist()
    if temporal:
        groups = [[reps[v * n + i, t].tolist() for v in range(2) for t in range(t_len)]
                  for i in range(n)]
    else:
        groups = [[reps[i, t].tolist() for i in range(two_n)] for t in range(t_len)]
    total, anchors = 0.0, 0
    for rows in groups:
        for a in range(len(rows)):
            z = sum(w_ext[a])
            kl = entropy = 0.0
            for j, weight in enumerate(w_ext[a]):
                if weight > 0:
                    q = weight / z
                    kl += q * (math.log(q) - _log_p_pair(rows, a, j))
                    entropy -= q * math.log(q)
            total += z * (kl + entropy)
            anchors += 1
    return total / anchors


def pool_ladder_lengths(length: int, m: int) -> list[int]:
    """Time lengths of the levels of the max-pooling ladder by a scalar loop:
    level 0 has `length` steps, each next level one step per window of m
    (a short last window still makes a step), and the ladder ends at the last
    level of at least 2 steps (a level of 1 step stands alone)."""
    lengths = [length]
    while lengths[-1] >= 2:
        steps = 0
        for _ in range(0, lengths[-1], m):
            steps += 1
        if steps < 2:
            break
        lengths.append(steps)
    return lengths


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


def nearest_label(train_reprs, train_labels, query):
    """The 1-NN probe's label for one query row: the label of the nearest
    training row (Euclidean), the first such row on equal distances."""
    sq_dists = [sum((float(q) - float(t)) ** 2 for q, t in zip(query, row))
                for row in train_reprs]
    return train_labels[sq_dists.index(min(sq_dists))]


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


def conv1d_direct_grads(x, kernel, dilation: int, g):
    """Adjoints (gx, gk) of `conv1d_direct` for the output adjoint g, by
    scalar loops over an explicitly zero-padded copy of each series: every
    product x_pad[b, t + j * dilation, c] * kernel[j, c, o] of the forward
    pass sends g[b, t, o] times one factor to the other factor's adjoint;
    what lands on the padding is dropped."""
    x = np.asarray(x, dtype=np.float64)
    k = np.asarray(kernel, dtype=np.float64).tolist()
    g = np.asarray(g, dtype=np.float64)
    n_b, n_t, n_in = x.shape
    n_k, n_out = len(k), len(k[0][0])
    lead = (n_k // 2) * dilation
    trail = (n_k - 1 - n_k // 2) * dilation
    gk = [[[0.0] * n_out for _ in range(n_in)] for _ in range(n_k)]
    gx = np.zeros((n_b, n_t, n_in))
    for b in range(n_b):
        padded = [[0.0] * n_in for _ in range(lead)] + x[b].tolist() \
            + [[0.0] * n_in for _ in range(trail)]
        g_pad = [[0.0] * n_in for _ in range(len(padded))]
        g_b = g[b].tolist()
        for t in range(n_t):
            for j in range(n_k):
                row, g_row = padded[t + j * dilation], g_pad[t + j * dilation]
                for c in range(n_in):
                    for o in range(n_out):
                        gk[j][c][o] += row[c] * g_b[t][o]
                        g_row[c] += k[j][c][o] * g_b[t][o]
        gx[b] = np.asarray(g_pad[lead:lead + n_t]).reshape(n_t, n_in)
    return gx, np.asarray(gk).reshape(n_k, n_in, n_out)


def max_pool_direct(x, m: int):
    """Max-pooling of [B, L, C] values along time by windows of m steps,
    the last one short when m does not divide L: (values [B, S, C], the time
    index of each window's first maximum [B, S, C]), S = ceil(L / m), by a
    scalar scan of each window.  A NaN counts as the maximum, the first NaN
    winning."""
    x = np.asarray(x, dtype=np.float64)
    n_b, n_t, n_c = x.shape
    n_s = -(-n_t // m)
    values = np.empty((n_b, n_s, n_c))
    where = np.empty((n_b, n_s, n_c), dtype=np.intp)
    for b in range(n_b):
        for s in range(n_s):
            for c in range(n_c):
                best_t = s * m
                for t in range(s * m + 1, min(s * m + m, n_t)):
                    best, v = x[b, best_t, c], x[b, t, c]
                    if not math.isnan(best) and (math.isnan(v) or v > best):
                        best_t = t
                values[b, s, c] = x[b, best_t, c]
                where[b, s, c] = best_t
    return values, where


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


def anomaly_scores(model, series) -> np.ndarray:
    """Per-timestamp scores for one [L, D] series by L + 1 full encodes: L1
    distance at position t between the encoding with the observation at t
    hidden (its projection zeroed before the dilated blocks) and the plain
    one."""
    series = np.asarray(series, dtype=np.float64)
    if series.ndim == 1:
        series = series[:, None]
    if series.ndim != 2:
        raise ValueError("series must be [L, D]")
    x = series[None, :, :]
    full = enc.encode(model, x).data[0]
    length = series.shape[0]
    scores = np.empty(length)
    for t in range(length):
        keep = np.ones((1, length, 1))
        keep[0, t, 0] = 0.0
        h = ad.mul(enc.project(model, x), keep)
        masked = enc.readout(model, enc.residual_stream(model, h)).data[0]
        scores[t] = np.abs(masked[t] - full[t]).sum()
    return scores
