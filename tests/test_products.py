"""Tensor products and direct sums of corpus inclusions: the index and the
loop dimensions multiply, the Temperley-Lieb relations hold on the product
graphs, the product G1 x G2 of two groups has the products of the factors'
fixed dimensions, the flip of the two factors of A ⊗ A fixes
(d_k^2 + d_k) / 2 loops in degree k, d_k the loop dimension of A, the
fixed-subgraph count of both groups agrees with the row counts, and on
A ⊕ A the loop dimensions double and the swap of the two copies fixes d_k
(ROADMAP item 14)."""

from __future__ import annotations

from collections import Counter
from itertools import islice

from planaralg import (
    NotMarkovError,
    analyze,
    build_graph,
    close_group,
    make_automorphism,
    fixed_dims_report,
    fixed_space_basis,
    markov_index,
    verify_temperley_lieb,
)
from planaralg.cli import DEFAULT_LOOP_LIMIT
from planaralg.markov import loop_space_dims
import element_oracle as oracle
from element_oracle import identity_automorphism
from conftest import CORPUS, CORPUS_GROUPS, MARKOV_CORPUS, corpus_entry
from products import component_swap, direct_sum, flip, product_automorphism, tensor_inclusion
from test_symmetry import row_burnside_count, stabiliser_orbit_count

# The flip's orbit sums are formed where A ⊗ A has at most this many loops;
# C-in-M3 ⊗ C-in-M3 has 531,441 in degree 3.
BASIS_LOOPS = 10_000


def test_index_and_loop_dimensions_multiply():
    # Over every ordered pair of corpus inclusions: the product is Markov
    # exactly when both factors are, with the product of their ratios.
    outcomes = Counter()
    for first in CORPUS:
        for second in CORPUS:
            inc = tensor_inclusion(first.inclusion(), second.inclusion())
            factors = zip(loop_space_dims(first.inclusion()), loop_space_dims(second.inclusion()))
            assert list(islice(loop_space_dims(inc), 4)) == [x * y for x, y in islice(factors, 4)]
            report = analyze(inc)
            assert (report.is_markov, report.r) == (first.markov and second.markov, first.r * second.r)
            try:
                assert markov_index(inc) == first.r * second.r
                outcomes["markov"] += 1
            except NotMarkovError:
                outcomes["refused"] += 1
    assert outcomes == {"markov": 121, "refused": 75}


def test_temperley_lieb_relations_hold_on_products():
    # On the graph of every Markov product, each relation among e_0 .. e_k
    # passes at k = 1, and the checks are 2 (k + 1) idempotents and traces,
    # 2k bounces and k (k - 1) / 2 far commutes, the same list that the
    # relations checked as written give; build_graph refuses the products
    # that are not Markov.  k = 2 would add about 6 s to the suite.
    kmax = 1
    outcomes = Counter()
    for first in CORPUS:
        for second in CORPUS:
            try:
                g = build_graph(tensor_inclusion(first.inclusion(), second.inclusion()))
            except NotMarkovError:
                outcomes["refused"] += 1
                continue
            checks = verify_temperley_lieb(g, kmax)
            assert all(c.passed for c in checks)
            assert len(checks) == 2 * (kmax + 1) + 2 * kmax + kmax * (kmax - 1) // 2
            assert checks == oracle.verify_temperley_lieb(g, kmax)
            outcomes["checked"] += 1
    assert outcomes == {"checked": 121, "refused": 75}


def test_temperley_lieb_blocks_match_the_full_check_on_products():
    # On the graphs of the Markov products of index at most 12, the checks
    # on one prefix block per endpoint give the same list at k = 2 as the
    # checks on whole elements, and every relation passes; all 121 would
    # add about 2.7 s to the suite.
    outcomes = Counter()
    for first in MARKOV_CORPUS:
        for second in MARKOV_CORPUS:
            g = build_graph(tensor_inclusion(first.inclusion(), second.inclusion()))
            if g.r > 12:
                outcomes["skipped"] += 1
                continue
            checks = verify_temperley_lieb(g, 2)
            assert all(c.passed for c in checks)
            assert checks == oracle.verify_temperley_lieb_full(g, 2)
            outcomes["checked"] += 1
    assert outcomes == {"checked": 62, "skipped": 59}


def test_flip_fixes_the_symmetric_pairs_of_loops():
    # The flip sends the loop (l, l') of A ⊗ A to (l', l): it fixes the d_k
    # loops (l, l), and its other orbits are pairs.  Burnside's count holds
    # at every degree 0-3, all under the CLI's default loop budget, and the
    # orbit sums, formed where A ⊗ A has at most BASIS_LOOPS loops, are d_k
    # single loops and (d_k^2 - d_k) / 2 pairs.
    outcomes = Counter()
    for entry in MARKOV_CORPUS:
        inc = entry.inclusion()
        g = build_graph(tensor_inclusion(inc, inc))
        group = close_group(g, [flip(g, inc)])
        fixed = fixed_dims_report(group, 3)
        for k, d in enumerate(islice(loop_space_dims(inc), 4)):
            assert d * d <= DEFAULT_LOOP_LIMIT and fixed[k] == (d * d + d) // 2
            if d * d > BASIS_LOOPS:
                outcomes["count only"] += 1
                continue
            sizes = Counter(len(x.terms) for x in fixed_space_basis(group, k))
            assert sizes == Counter({1: d, 2: (d * d - d) // 2})
            outcomes["basis"] += 1
    assert outcomes == {"basis": 39, "count only": 5}


def product_groups():
    """(G1, G2, G1 x G2) for each ordered pair of the corpus groups: (h1, id)
    and (id, h2) over the generators, closed on the product graph."""
    factors = []
    for name, _, gens in CORPUS_GROUPS:
        inc = corpus_entry(name).inclusion()
        g = build_graph(inc)
        factors.append((inc, close_group(g, [make_automorphism(g, *gen) for gen in gens])))
    for inc1, group1 in factors:
        for inc2, group2 in factors:
            g = build_graph(tensor_inclusion(inc1, inc2))
            one1, one2 = identity_automorphism(group1.graph), identity_automorphism(group2.graph)
            gens = [product_automorphism(g, inc1, inc2, h, one2) for h in group1.generators]
            gens += [product_automorphism(g, inc1, inc2, one1, h) for h in group2.generators]
            yield group1, group2, close_group(g, gens)


def test_product_group_fixes_the_products_of_fixed_dimensions():
    # G1 x G2 has order |G1| |G2|, and its fixed space in degree k is the
    # tensor product of the factors' (degrees 0-2).
    checked = 0
    for group1, group2, group in product_groups():
        assert group.order == group1.order * group2.order
        dims1, dims2 = fixed_dims_report(group1, 2), fixed_dims_report(group2, 2)
        assert fixed_dims_report(group, 2) == [x * y for x, y in zip(dims1, dims2)]
        checked += 1
    assert checked == 36


def test_orbit_merge_matches_the_row_counts():
    # fixed_dims_report walks one fixed subgraph per orbit of them
    # (`_fixed_subgraphs`).  On the 36 product groups and the 11 flips,
    # which fix only the diagonal edges of A ⊗ A, it agrees with Burnside's
    # count on rows and with the stabiliser orbit count at degrees 0-2.
    # Every product group merges the fixed subgraphs of some elements into
    # one orbit; a flip has one orbit per element.
    groups = [group for _, _, group in product_groups()]
    for entry in MARKOV_CORPUS:
        inc = entry.inclusion()
        g = build_graph(tensor_inclusion(inc, inc))
        groups.append(close_group(g, [flip(g, inc)]))
    compared = merged = 0
    for group in groups:
        for k, dim in enumerate(fixed_dims_report(group, 2)):
            assert dim == row_burnside_count(group, k) == stabiliser_orbit_count(group, k)
            compared += 1
        merged += len(group._fixed) < group.order
    assert (compared, len(groups)) == (141, 47)
    assert merged == 36


def test_component_swap_fixes_one_copy_of_each_loop():
    # The loops of A ⊕ A are those of either copy, 2 d_k in degree k; the
    # swap of the copies fixes none of them and pairs the rest, so its
    # group fixes d_k (degrees 0-4).
    checked = 0
    for entry in MARKOV_CORPUS:
        inc = entry.inclusion()
        union = direct_sum([inc, inc])
        dims = list(islice(loop_space_dims(inc), 5))
        assert list(islice(loop_space_dims(union), 5)) == [2 * d for d in dims]
        g = build_graph(union)
        assert fixed_dims_report(close_group(g, [component_swap(g, inc)]), 4) == dims
        checked += 1
    assert checked == 11
