"""Maximum-weight matching on a dense weight matrix (Edmonds' blossom).

A port of the primal-dual blossom algorithm as networkx implements it
in ``max_weight_matching`` (van Rantwijk's ``mwmatching``, after Galil,
"Efficient Algorithms for Finding Maximum Matching in Graphs", ACM
Computing Surveys 1986), specialised to what the MWPM decoder asks of
it: one dense symmetric ``K x K`` weight matrix, maximum cardinality,
float weights.  Vertices and blossoms are int ids indexing flat lists
(blossom ids start at ``K`` and are never reused), and edge slack is
computed inline from a pre-doubled weight table.

The port keeps networkx's iteration orders, so weight ties break the
same way and the matchings are identical, not merely equal in weight:

- vertices in the order ``Graph.add_edge`` would first insert them when
  the edges are added row-major over the upper triangle (``i < j``);
- each vertex's neighbours in edge-insertion order (ascending);
- non-finite entries are absent edges, and a vertex with no edge is
  not in the graph at all (it stays unmatched);
- blossoms in creation order, dropped when expanded — as the
  ``blossomparent``/``blossomdual`` dicts iterate.

Comments name the Galil/networkx steps; the paper explains the terms.
"""

from __future__ import annotations

import numpy as np


def max_weight_matching(weights: np.ndarray) -> list[int]:
    """Maximum-cardinality, maximum-weight matching of a dense graph.

    ``weights`` is a symmetric ``(K, K)`` matrix read from its upper
    triangle; entry ``(i, j)`` (``i < j``) is the weight of edge
    ``i-j``, and a non-finite entry means no edge.  The diagonal is
    ignored.  Returns ``mate`` with ``mate[v]`` the partner of vertex
    ``v``, or ``-1`` for an unmatched vertex.
    """
    w = np.asarray(weights, dtype=float)
    nvert = w.shape[0]
    upper = np.triu(np.isfinite(w), 1)
    present = upper | upper.T
    # Doubling is exact, so 2*wt matches networkx's slack bit for bit.
    w2 = (2.0 * np.where(upper, w, w.T)).tolist()
    adj = [[w for w, on in enumerate(row) if on] for row in present.tolist()]
    ei, ej = np.nonzero(upper)  # row-major: the add_edge sequence
    mate = [-1] * nvert
    if ei.size == 0:
        return mate
    seen = [False] * nvert
    gnodes: list[int] = []
    for v in np.stack((ei, ej), axis=1).ravel().tolist():
        if not seen[v]:
            seen[v] = True
            gnodes.append(v)
    maxweight = float(w[ei, ej].max())
    if not maxweight > 0:
        maxweight = 0.0

    # Per-id state; vertices are ids 0..nvert-1, blossoms nvert and up.
    # label: 0 free, 1 S, 2 T (5 = S with a scanBlossom breadcrumb).
    label = [0] * nvert
    labeledge: list[tuple[int, int] | None] = [None] * nvert
    bestedge: list[tuple[int, int] | None] = [None] * nvert
    inblossom = list(range(nvert))
    blossomparent: list[int | None] = [None] * nvert
    blossombase = list(range(nvert))
    childs: list[list[int] | None] = [None] * nvert
    bedges: list[list[tuple[int, int]] | None] = [None] * nvert
    mybestedges: list[list[tuple[int, int]] | None] = [None] * nvert
    dualvar = [maxweight] * nvert
    # Live blossoms in creation order -> dual z(b).
    blossomdual: dict[int, float] = {}
    allowed = [bytearray(nvert) for _ in range(nvert)]
    queue: list[int] = []

    def slack(e: tuple[int, int]) -> float:
        # Twice the slack of edge e (not valid inside blossoms).
        return dualvar[e[0]] + dualvar[e[1]] - w2[e[0]][e[1]]

    def leaves(b: int) -> list[int]:
        out = []
        stack = list(childs[b])
        while stack:
            t = stack.pop()
            if t >= nvert:
                stack.extend(childs[t])
            else:
                out.append(t)
        return out

    def assign_label(w: int, t: int, v: int | None) -> None:
        # Label the top-level blossom containing w, reached from v.
        b = inblossom[w]
        label[w] = label[b] = t
        labeledge[w] = labeledge[b] = None if v is None else (v, w)
        bestedge[w] = bestedge[b] = None
        if t == 1:
            if b >= nvert:
                queue.extend(leaves(b))
            else:
                queue.append(b)
        else:
            base = blossombase[b]
            assign_label(mate[base], 1, base)

    def scan_blossom(v: int, w: int | None) -> int | None:
        # Trace back from v and w: the base of a new blossom, or None
        # for an augmenting path.
        path = []
        base = None
        while v is not None:
            b = inblossom[v]
            if label[b] & 4:
                base = blossombase[b]
                break
            path.append(b)
            label[b] = 5
            if labeledge[b] is None:
                v = None
            else:
                v = labeledge[inblossom[labeledge[b][0]]][0]
            if w is not None:
                v, w = w, v
        for b in path:
            label[b] = 1
        return base

    def add_blossom(base: int, v: int, w: int) -> None:
        # New S-blossom with the given base, through S-vertices v and w.
        bb = inblossom[base]
        bv = inblossom[v]
        bw = inblossom[w]
        b = len(label)
        path: list[int] = []
        edgs = [(v, w)]
        label.append(0)
        labeledge.append(None)
        bestedge.append(None)
        blossomparent.append(None)
        blossombase.append(base)
        childs.append(path)
        bedges.append(edgs)
        mybestedges.append(None)
        blossomparent[bb] = b
        while bv != bb:
            blossomparent[bv] = b
            path.append(bv)
            edgs.append(labeledge[bv])
            bv = inblossom[labeledge[bv][0]]
        path.append(bb)
        path.reverse()
        edgs.reverse()
        while bw != bb:
            blossomparent[bw] = b
            path.append(bw)
            le = labeledge[bw]
            edgs.append((le[1], le[0]))
            bw = inblossom[le[0]]
        label[b] = 1
        labeledge[b] = labeledge[bb]
        blossomdual[b] = 0.0
        for v in leaves(b):
            if label[inblossom[v]] == 2:
                queue.append(v)
            inblossom[v] = b
        # Least-slack edges from b to each neighbouring S-blossom.
        bestedgeto: dict[int, tuple[int, int]] = {}
        for bv in path:
            if bv >= nvert:
                if mybestedges[bv] is not None:
                    nblist = mybestedges[bv]
                    mybestedges[bv] = None
                else:
                    nblist = [(v, w) for v in leaves(bv) for w in adj[v]]
            else:
                nblist = [(bv, w) for w in adj[bv]]
            for k in nblist:
                i, j = k
                if inblossom[j] == b:
                    i, j = j, i
                bj = inblossom[j]
                if bj != b and label[bj] == 1 and (
                    bj not in bestedgeto
                    or slack((i, j)) < slack(bestedgeto[bj])
                ):
                    bestedgeto[bj] = k
            bestedge[bv] = None
        mybestedges[b] = list(bestedgeto.values())
        # min() keeps the first least-slack edge, as a strict-< scan does.
        bestedge[b] = min(mybestedges[b], key=slack, default=None)

    def expand_blossom(b: int, endstage: bool) -> None:
        # Turn b's sub-blossoms into top-level blossoms, then drop b.
        for s in childs[b]:
            blossomparent[s] = None
            if s >= nvert:
                if endstage and blossomdual[s] == 0:
                    expand_blossom(s, endstage)
                else:
                    for v in leaves(s):
                        inblossom[v] = s
            else:
                inblossom[s] = s
        if not endstage and label[b] == 2:
            # A T-blossom expanded mid-stage: relabel its sub-blossoms,
            # starting where it got its label, round to the base.
            ch = childs[b]
            ed = bedges[b]
            entrychild = inblossom[labeledge[b][1]]
            j = ch.index(entrychild)
            if j & 1:
                j -= len(ch)
                jstep = 1
            else:
                jstep = -1
            v, w = labeledge[b]
            while j != 0:
                if jstep == 1:
                    p, q = ed[j]
                else:
                    q, p = ed[j - 1]
                label[w] = 0
                label[q] = 0
                assign_label(w, 2, v)
                allowed[p][q] = allowed[q][p] = 1
                j += jstep
                if jstep == 1:
                    v, w = ed[j]
                else:
                    w, v = ed[j - 1]
                allowed[v][w] = allowed[w][v] = 1
                j += jstep
            # The base T-sub-blossom, without stepping to its mate.
            bw = ch[j]
            label[w] = label[bw] = 2
            labeledge[w] = labeledge[bw] = (v, w)
            bestedge[bw] = None
            j += jstep
            while ch[j] != entrychild:
                bv = ch[j]
                if label[bv] == 1:
                    j += jstep
                    continue
                if bv >= nvert:
                    for v in leaves(bv):
                        if label[v]:
                            break
                else:
                    v = bv
                if label[v]:
                    label[v] = 0
                    label[mate[blossombase[bv]]] = 0
                    assign_label(v, 2, labeledge[v][0])
                j += jstep
        del blossomdual[b]  # retires b; its id is never reused

    def augment_blossom(b: int, v: int) -> None:
        # Swap matched/unmatched edges along the path from v to b's base.
        t = v
        while blossomparent[t] != b:
            t = blossomparent[t]
        if t >= nvert:
            augment_blossom(t, v)
        ch = childs[b]
        ed = bedges[b]
        i = j = ch.index(t)
        if i & 1:
            j -= len(ch)
            jstep = 1
        else:
            jstep = -1
        while j != 0:
            j += jstep
            t = ch[j]
            if jstep == 1:
                w, x = ed[j]
            else:
                x, w = ed[j - 1]
            if t >= nvert:
                augment_blossom(t, w)
            j += jstep
            t = ch[j]
            if t >= nvert:
                augment_blossom(t, x)
            mate[w] = x
            mate[x] = w
        childs[b] = ch = ch[i:] + ch[:i]
        bedges[b] = ed[i:] + ed[:i]
        blossombase[b] = blossombase[ch[0]]

    def augment_matching(v: int, w: int) -> None:
        # Augment along the path through S-vertices v and w.
        for s, j in ((v, w), (w, v)):
            while True:
                bs = inblossom[s]
                if bs >= nvert:
                    augment_blossom(bs, s)
                mate[s] = j
                if labeledge[bs] is None:
                    break
                bt = inblossom[labeledge[bs][0]]
                s, j = labeledge[bt]
                if bt >= nvert:
                    augment_blossom(bt, j)
                mate[j] = s

    while True:
        # A stage: find one augmenting path.
        nid = len(label)
        label[:] = [0] * nid
        labeledge[:] = [None] * nid
        bestedge[:] = [None] * nid
        for b in blossomdual:
            mybestedges[b] = None
        for row in allowed:
            row[:] = bytes(nvert)
        queue.clear()
        for v in gnodes:
            if mate[v] < 0 and label[inblossom[v]] == 0:
                assign_label(v, 1, None)

        augmented = False
        while True:
            # A substage: label until an augmenting path turns up, else
            # move the duals.
            # The hot loop: slack is inlined here, not called.
            while queue and not augmented:
                v = queue.pop()
                dv = dualvar[v]
                w2v = w2[v]
                allowv = allowed[v]
                bv = inblossom[v]  # changes only when a blossom forms
                for w in adj[v]:
                    bw = inblossom[w]
                    if bv == bw:
                        continue  # internal to a blossom
                    if not allowv[w]:
                        kslack = dv + dualvar[w] - w2v[w]
                        if kslack <= 0:
                            allowv[w] = allowed[w][v] = 1
                    if allowv[w]:
                        lbw = label[bw]
                        if lbw == 0:
                            # (C1) w is free: T-label it, S-label its mate.
                            assign_label(w, 2, v)
                        elif lbw == 1:
                            # (C2) w is an S-vertex: new blossom or path.
                            base = scan_blossom(v, w)
                            if base is not None:
                                add_blossom(base, v, w)
                                bv = inblossom[v]
                            else:
                                augment_matching(v, w)
                                augmented = True
                                break
                        elif label[w] == 0:
                            # w inside a T-blossom, first reached here.
                            label[w] = 2
                            labeledge[w] = (v, w)
                    elif label[bw] == 1:
                        best = bestedge[bv]
                        if best is None or kslack < (
                            dualvar[best[0]] + dualvar[best[1]]
                            - w2[best[0]][best[1]]
                        ):
                            bestedge[bv] = (v, w)
                    elif label[w] == 0:
                        best = bestedge[w]
                        if best is None or kslack < (
                            dualvar[best[0]] + dualvar[best[1]]
                            - w2[best[0]][best[1]]
                        ):
                            bestedge[w] = (v, w)
            if augmented:
                break

            # No augmenting path under the current duals: pick delta.
            # (Duals and slacks are pre-multiplied by two.)  Maximum
            # cardinality, so there is no delta1.
            deltatype = -1
            delta = 0.0
            deltaedge = None
            deltablossom = -1
            # delta2: least slack from an S-vertex to a free vertex.
            for v in gnodes:
                best = bestedge[v]
                if best is not None and label[inblossom[v]] == 0:
                    d = slack(best)
                    if deltatype == -1 or d < delta:
                        delta = d
                        deltatype = 2
                        deltaedge = best
            # delta3: half the least slack between two S-blossoms,
            # trivial ones first, then blossoms in creation order.
            for b in (*gnodes, *blossomdual):
                best = bestedge[b]
                if (best is not None and blossomparent[b] is None
                        and label[b] == 1):
                    d = slack(best) / 2.0
                    if deltatype == -1 or d < delta:
                        delta = d
                        deltatype = 3
                        deltaedge = best
            # delta4: least z of a top-level T-blossom.
            for b, z in blossomdual.items():
                if (blossomparent[b] is None and label[b] == 2
                        and (deltatype == -1 or z < delta)):
                    delta = z
                    deltatype = 4
                    deltablossom = b
            if deltatype == -1:
                # Maximum-cardinality optimum: one last dual update.
                deltatype = 1
                delta = max(0.0, min(dualvar[v] for v in gnodes))

            for v in gnodes:
                lv = label[inblossom[v]]
                if lv == 1:
                    dualvar[v] -= delta
                elif lv == 2:
                    dualvar[v] += delta
            for b in blossomdual:
                if blossomparent[b] is None:
                    if label[b] == 1:
                        blossomdual[b] += delta
                    elif label[b] == 2:
                        blossomdual[b] -= delta

            if deltatype == 1:
                break
            if deltatype == 4:
                expand_blossom(deltablossom, False)
            else:
                v, w = deltaedge
                allowed[v][w] = allowed[w][v] = 1
                queue.append(v)

        if not augmented:
            return mate
        # End of stage: expand every top-level S-blossom with zero dual.
        for b in list(blossomdual):
            if (b in blossomdual and blossomparent[b] is None
                    and label[b] == 1 and blossomdual[b] == 0):
                expand_blossom(b, True)
