"""Tensor products of inclusions, and the factor flip of A ⊗ A, as test
oracles: the product of A1 ⊂ B1 and A2 ⊂ B2 is A1 ⊗ A2 ⊂ B1 ⊗ B2, whose
blocks, inclusion matrix, index and loop spaces are products of the
factors' (ROADMAP item 14)."""

from __future__ import annotations

from planaralg import BipartiteGraph, GraphAutomorphism, InclusionData, make_automorphism


def tensor_inclusion(first: InclusionData, second: InclusionData) -> InclusionData:
    """Kronecker products of the blocks and of the matrices: the pair (i, i')
    of small blocks is block i * n + i', n the second's small block count,
    and likewise for big blocks."""
    return InclusionData(
        [x * y for x in first.a for y in second.a],
        [[x * y for x in row for y in other] for row in first.m for other in second.m],
    )


def flip(g: BipartiteGraph, inc: InclusionData) -> GraphAutomorphism:
    """The automorphism of the graph g of tensor_inclusion(inc, inc) that
    swaps the two factors.  Its m_ij m_i'j' parallel edges between (i, i')
    and (j, j') are the pairs (c, c') of copies, copy c * m_i'j' + c' in id
    order, and the flip sends (c, c') to (c', c) between (i', i) and (j', j)."""
    rows, cols, m = inc.rows, inc.cols, inc.m
    first = {}  # (product row, product column) -> the id of its first edge
    for edge in g.edges:
        first.setdefault((edge.src, edge.dst), edge.id)
    perm_e = [0] * len(g.edges)
    for (row, col), start in first.items():
        (i, k), (j, l) = divmod(row, rows), divmod(col, cols)
        target = first[k * rows + i, l * cols + j]
        for c in range(m[i][j]):
            for d in range(m[k][l]):
                perm_e[start + c * m[k][l] + d] = target + d * m[i][j] + c
    swap_a = [k * rows + i for i in range(rows) for k in range(rows)]
    swap_b = [l * cols + j for j in range(cols) for l in range(cols)]
    return make_automorphism(g, swap_a, swap_b, perm_e)
