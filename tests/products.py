"""Tensor products and direct sums of inclusions, with the automorphisms
they carry, as test oracles: the product of A1 ⊂ B1 and A2 ⊂ B2 is
A1 ⊗ A2 ⊂ B1 ⊗ B2, whose blocks, inclusion matrix, index and loop spaces
are products of the factors', and the product of two automorphisms acts
on it factorwise; A ⊗ A also carries the flip of its factors, and A ⊕ A
the swap of its two copies (ROADMAP item 14)."""

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


def direct_sum(parts: list[InclusionData]) -> InclusionData:
    """The inclusions side by side: block-diagonal matrix, blocks in order."""
    width, offset, a, m = sum(inc.cols for inc in parts), 0, [], []
    for inc in parts:
        a += inc.a
        m += [[0] * offset + list(row) + [0] * (width - offset - inc.cols) for row in inc.m]
        offset += inc.cols
    return InclusionData(a, m)


def _edge_pairs(first: InclusionData, second: InclusionData) -> list[tuple[int, int]]:
    """The edges of the graph of tensor_inclusion(first, second) in id
    order, each as the pair (e, f) of the factors' edge ids that it joins.
    build_graph numbers edges row by row, columns ascending, parallel copies
    in turn, so the m_ij m'_kl parallel edges between (i, k) and (j, l) are
    the pairs of copies, copy c of e and d of f being copy c * m'_kl + d."""
    copies = []
    for inc in (first, second):
        ids, n = {}, 0
        for i, row in enumerate(inc.m):
            for j, count in enumerate(row):
                ids[i, j] = range(n, n + count)
                n += count
        copies.append(ids)
    return [
        (e, f)
        for i in range(first.rows)
        for k in range(second.rows)
        for j in range(first.cols)
        for l in range(second.cols)
        for e in copies[0][i, j]
        for f in copies[1][k, l]
    ]


def _on_pairs(g, first, second, perm_a, perm_b, image) -> GraphAutomorphism:
    """The automorphism of the graph g of tensor_inclusion(first, second)
    with the given vertex maps that sends the edge (e, f) to image(e, f)."""
    pairs = _edge_pairs(first, second)
    ids = {pair: n for n, pair in enumerate(pairs)}
    return make_automorphism(g, perm_a, perm_b, [ids[image(e, f)] for e, f in pairs])


def product_automorphism(
    g: BipartiteGraph, first: InclusionData, second: InclusionData, h1: GraphAutomorphism, h2: GraphAutomorphism
) -> GraphAutomorphism:
    """h1 x h2 on the graph g of tensor_inclusion(first, second), h1 and h2
    automorphisms of the factors' graphs: (i, k) goes to (h1(i), h2(k)) and
    the edge (e, f) to (h1(e), h2(f)).  An automorphism keeps
    multiplicities, so the image pairs are numbered by the same copy rule."""
    return _on_pairs(
        g,
        first,
        second,
        [x * second.rows + y for x in h1.perm_a for y in h2.perm_a],
        [x * second.cols + y for x in h1.perm_b for y in h2.perm_b],
        lambda e, f: (h1.perm_e[e], h2.perm_e[f]),
    )


def flip(g: BipartiteGraph, inc: InclusionData) -> GraphAutomorphism:
    """The automorphism of the graph g of tensor_inclusion(inc, inc) that
    swaps the two factors: (i, k) goes to (k, i) and the edge (e, f) to
    (f, e)."""
    rows, cols = inc.rows, inc.cols
    swap_a = [k * rows + i for i in range(rows) for k in range(rows)]
    swap_b = [l * cols + j for j in range(cols) for l in range(cols)]
    return _on_pairs(g, inc, inc, swap_a, swap_b, lambda e, f: (f, e))


def component_swap(g: BipartiteGraph, inc: InclusionData) -> GraphAutomorphism:
    """The automorphism of the graph g of direct_sum([inc, inc]) that swaps
    the two copies of inc: the second copy's vertices and edges follow the
    first's, in the same order."""
    rows, cols, half = inc.rows, inc.cols, len(g.edges) // 2
    return make_automorphism(
        g,
        [*range(rows, 2 * rows), *range(rows)],
        [*range(cols, 2 * cols), *range(cols)],
        [*range(half, 2 * half), *range(half)],
    )
