"""Row maxima of implicit totally monotone matrices (SMAWK).

``wedge_path_on_arcs`` finds the longest leaf-to-leaf path routed through
the shortcut between two secondary B-sub-trees (a wedge-shortcut-wedge
path) in linear time, without materializing the quadratic pair matrix.
``longest_wedge_path`` asks the same of a tree and a backbone shortcut.
The sweep does not use SMAWK: it reads wedge pairs from
``Caterpillar.pairs``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EmptyMatrix, PointsNotOnTree

__all__ = ["ImplicitMatrix", "row_maxima", "longest_wedge_path",
           "wedge_path_on_arcs"]


@dataclass(frozen=True)
class ImplicitMatrix:
    rows: int
    cols: int
    entry: object  # callable (row, col) -> float


def row_maxima(m: ImplicitMatrix):
    """Per-row (argmax column, value), leftmost column on ties.

    Requires total monotonicity for maxima: within any 2x2 minor, if the
    top row prefers the right column then so does the bottom row.
    """
    if m.rows <= 0 or m.cols <= 0:
        raise EmptyMatrix(f"matrix is {m.rows}x{m.cols}")
    result = [None] * m.rows
    _solve(m.entry, list(range(m.rows)), list(range(m.cols)), result)
    return result


def _reduce(entry, rows, cols):
    """Drop columns that cannot hold any row maximum; keeps <= len(rows)."""
    stack = []
    for c in cols:
        while stack:
            r = rows[len(stack) - 1]
            if entry(r, stack[-1]) < entry(r, c):
                stack.pop()
            else:
                break
        if len(stack) < len(rows):
            stack.append(c)
    return stack


def _solve(entry, rows, cols, result):
    if not rows:
        return
    cols = _reduce(entry, rows, cols)
    _solve(entry, rows[1::2], cols, result)
    # Fill even rows by scanning between the neighbouring odd-row answers.
    pos = {c: i for i, c in enumerate(cols)}
    for i in range(0, len(rows), 2):
        row = rows[i]
        lo = pos[result[rows[i - 1]][0]] if i > 0 else 0
        hi = pos[result[rows[i + 1]][0]] if i + 1 < len(rows) else len(cols) - 1
        best_c, best_v = cols[lo], entry(row, cols[lo])
        for j in range(lo + 1, hi + 1):
            v = entry(row, cols[j])
            if v > best_v:
                best_c, best_v = cols[j], v
        result[row] = (best_c, best_v)


def wedge_path_on_arcs(t, h, e, alpha, beta):
    """Longest wedge-shortcut-wedge path over pendants (t, h) on arcs.

    The shortcut spans backbone arcs [alpha, beta] with chord length e.
    A pair (i, j) qualifies when the shortcut is useful for the ordered
    root pair: |t_i - alpha| + e + |t_j - beta| < |t_j - t_i|.  Returns
    (length, (i, j)) over qualifying pairs or None.

    Ties: among pairs of equal length the smallest j wins, then the
    smallest i.  A pair whose two routes are equal qualifies or not as
    the float comparison above rounds, so where p and q lie on one
    straight run the answer can be a pair or None depending on the last
    bit of e.
    """
    k = len(t)
    if k < 2:
        return None

    def entry(j, i):
        ci = abs(t[i] - alpha)
        cj = abs(t[j] - beta)
        if ci + e + cj < abs(t[j] - t[i]):
            return h[i] + ci + e + cj + h[j]
        return 0.0

    best = None
    for j, (i, v) in enumerate(row_maxima(ImplicitMatrix(k, k, entry))):
        if v > 0.0 and (best is None or v > best[0]):
            best = (v, (i, j))
    return best


def _backbone_arc(decomp, point):
    """Arc position of a backbone TreePoint, measured from a."""
    pos = {vid: arc for vid, arc in zip(decomp.backbone_ids, decomp.arcs)}
    c = point.canonical()
    if c.is_vertex:
        vid = c.vertex_id()
        if vid not in pos:
            raise PointsNotOnTree(f"vertex {vid} is not on the backbone")
        return pos[vid]
    if c.u not in pos or c.v not in pos:
        raise PointsNotOnTree(f"edge {c.u}-{c.v} is not on the backbone")
    return pos[c.u] + c.lam * (pos[c.v] - pos[c.u])


def longest_wedge_path(tree, decomp, shortcut):
    """Longest wedge-shortcut-wedge path for a backbone shortcut.

    Returns (length, (leaf_i, leaf_j)) or None when no pair of secondary
    B-sub-trees is connected more shortly through the shortcut.
    """
    from .tree_model import euclidean_distance
    sec = sorted(decomp.secondary, key=lambda s: s.arc)
    if len(sec) < 2:
        return None
    alpha = _backbone_arc(decomp, shortcut.p)
    beta = _backbone_arc(decomp, shortcut.q)
    if alpha > beta:
        alpha, beta = beta, alpha
    e = euclidean_distance(tree, shortcut.p, shortcut.q)
    got = wedge_path_on_arcs([s.arc for s in sec], [s.height for s in sec],
                             e, alpha, beta)
    if got is None:
        return None
    v, (i, j) = got
    return v, (sec[i].far_leaf, sec[j].far_leaf)
