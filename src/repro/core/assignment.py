"""Minimum-cost rectangular assignment (the placement pass's Hungarian step).

A port of scipy's ``rectangular_lsap.cpp``, the shortest-augmenting-path
solver of Crouse, "On implementing 2D rectangular assignment
algorithms", IEEE TAES 52(4), 2016.  It keeps the details that decide
*which* optimum comes back when several tie: the reverse-order
``remaining`` list with its swap-with-last removal (a constant matrix
assigns the identity), the tie rule that prefers a column ending the
path, the left-to-right reduced-cost sum and the dual updates.  So it
returns scipy's ``linear_sum_assignment`` answer bit for bit, and
placement needs no scipy.optimize import.

The column scan of each path step runs in numpy over all columns at
once: the reduced costs are the same elementwise sums, columns already
on the path are masked with NaN (no comparison updates or selects
them), and only when several columns tie for the minimum is the
``remaining`` order consulted to pick scipy's one.

Only matrices with no more rows than columns are accepted: placement
never has more clusters than traps (scipy would transpose instead).
"""

from __future__ import annotations

import math

import numpy as np

INF = math.inf


def linear_sum_assignment(cost) -> tuple[list[int], list[int]]:
    """Rows and their columns of a minimum-cost assignment of ``cost``.

    ``cost`` is a 2-D array-like of shape (rows, cols), rows <= cols;
    every row is assigned one distinct column.  Raises ``ValueError``
    for a tall, NaN or -inf matrix, or when no finite assignment exists.
    """
    c = np.ascontiguousarray(cost, dtype=float)
    nr, nc = c.shape
    if nr > nc:
        raise ValueError(f"cost matrix has more rows ({nr}) than columns ({nc})")
    if np.isnan(c).any() or np.isneginf(c).any():
        raise ValueError("matrix contains invalid numeric entries")
    u = [0.0] * nr
    v = np.zeros(nc)
    col4row = [-1] * nr
    row4col = [-1] * nc
    r = np.empty(nc)
    better = np.empty(nc, dtype=bool)
    for cur_row in range(nr):
        # Shortest augmenting path from cur_row (Crouse's Algorithm 1).
        spc = np.full(nc, INF)
        path = np.full(nc, -1)
        sr: list[int] = []
        sc: list[tuple[int, float]] = []
        # Reverse order: a constant matrix then assigns the identity.
        remaining = list(range(nc - 1, -1, -1))
        index_of = remaining[:]  # index_of[j]: j's place in remaining
        min_val = 0.0
        i = cur_row
        sink = -1
        while sink == -1:
            sr.append(i)
            # r = min_val + c[i][j] - u[i] - v[j], summed left to right.
            np.add(c[i], min_val, out=r)
            np.subtract(r, u[i], out=r)
            np.subtract(r, v, out=r)
            np.less(r, spc, out=better)
            np.putmask(spc, better, r)
            np.putmask(path, better, i)
            lowest = np.fmin.reduce(spc)
            if lowest == INF:
                raise ValueError("cost matrix is infeasible")
            ties = (spc == lowest).nonzero()[0].tolist()
            if len(ties) == 1:
                j = ties[0]
            else:
                # scipy's scan over `remaining` keeps the first minimum
                # unless a later one is a free column: it ends the path.
                free = [t for t in ties if row4col[t] == -1]
                if free:
                    j = max(free, key=index_of.__getitem__)
                else:
                    j = min(ties, key=index_of.__getitem__)
            min_val = float(spc[j])
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            sc.append((j, min_val))
            spc[j] = math.nan
            last = remaining.pop()
            if last != j:
                remaining[index_of[j]] = last
                index_of[last] = index_of[j]
        # Dual updates.
        scanned = dict(sc)
        u[cur_row] += min_val
        for i in sr:
            if i != cur_row:
                u[i] += min_val - scanned[col4row[i]]
        for j, s in sc:
            v[j] -= min_val - s
        # Augment along the path back to cur_row.
        j = sink
        while True:
            i = int(path[j])
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    return list(range(nr)), col4row
