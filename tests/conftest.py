"""Shared inclusion corpus and cached graphs for the test suite."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import pytest

from planaralg import InclusionData, analyze, build_graph


@dataclass(frozen=True)
class CorpusEntry:
    """One inclusion with its hand-computed classification."""

    name: str
    a: tuple[int, ...]
    m: tuple[tuple[int, ...], ...]
    markov: bool
    r: Fraction
    abelian: bool

    def inclusion(self) -> InclusionData:
        return InclusionData(list(self.a), [list(row) for row in self.m])


# Expected values computed by hand from the defining arithmetic:
# b = m^t a, r = |b|^2 / |a|^2, Markov iff m b = r a entrywise, abelian iff
# every small block is a line and hits exactly one big block.
CORPUS = (
    CorpusEntry("C-in-C", (1,), ((1,),), True, Fraction(1), True),
    CorpusEntry("C-in-C2", (1,), ((1, 1),), True, Fraction(2), True),
    CorpusEntry("C-in-C3", (1,), ((1, 1, 1),), True, Fraction(3), True),
    CorpusEntry("C-in-C4", (1,), ((1, 1, 1, 1),), True, Fraction(4), True),
    CorpusEntry("C-in-C5", (1,), ((1, 1, 1, 1, 1),), True, Fraction(5), True),
    CorpusEntry("C-in-M2", (1,), ((2,),), True, Fraction(4), True),
    CorpusEntry("C-in-M3", (1,), ((3,),), True, Fraction(9), True),
    CorpusEntry("central-C2-in-M2xM2", (1, 1), ((2, 0), (0, 2)), True, Fraction(4), True),
    # Two components of index 4 with unequal weights: swapping them keeps
    # every edge and loop but no weight, so it is not an automorphism.
    CorpusEntry("C-M2-in-M2xM4", (1, 2), ((2, 0), (0, 2)), True, Fraction(4), False),
    CorpusEntry("C2-in-M2", (1, 1), ((1,), (1,)), True, Fraction(2), False),
    CorpusEntry("C-in-C2xM2", (1,), ((1, 1, 2),), True, Fraction(6), True),
    CorpusEntry("skew-C2-in-M2xC", (1, 1), ((1, 1), (1, 0)), False, Fraction(5, 2), False),
    CorpusEntry("C-C2-in-M3", (1, 2), ((1,), (1,)), False, Fraction(9, 5), False),
    CorpusEntry("uneven-C2-in-M2xC", (1, 1), ((2, 0), (0, 1)), False, Fraction(5, 2), True),
)

MARKOV_CORPUS = tuple(e for e in CORPUS if e.markov)
NON_MARKOV_CORPUS = tuple(e for e in CORPUS if not e.markov)

# Generators of one automorphism group of each of six corpus graphs, as
# make_automorphism arguments (perm_a, perm_b, perm_e), with the degree to
# which the graph's checks run.
CORPUS_GROUPS = (
    ("C-in-C2", 3, [([0], [1, 0], None)]),
    ("C-in-C3", 3, [([0], [1, 2, 0], None), ([0], [1, 0, 2], None)]),
    ("C-in-M2", 3, [([0], [0], [1, 0])]),
    ("C2-in-M2", 3, [([1, 0], [0], None)]),
    ("C-in-C2xM2", 2, [([0], [1, 0, 2], [1, 0, 2, 3]), ([0], [0, 1, 2], [0, 1, 3, 2])]),
    ("central-C2-in-M2xM2", 2, [([1, 0], [1, 0], [2, 3, 0, 1])]),
)

# Graphs small enough for exhaustive idempotent-relation checks.
TL_TRIO = ("C-in-C2", "C-in-C3", "C-in-M2")


def generated_markov_inclusions() -> list[InclusionData]:
    """Every Markov inclusion with integer index of 1-2 small blocks of
    dimension 1-3 into 1-3 big blocks, with entries 0-2 and no zero row or
    column, in the order of a fixed enumeration."""
    found = []
    for rows, cols in itertools.product((1, 2), (1, 2, 3)):
        for a in itertools.product((1, 2, 3), repeat=rows):
            for flat in itertools.product((0, 1, 2), repeat=rows * cols):
                m = [list(flat[i * cols : (i + 1) * cols]) for i in range(rows)]
                if not all(map(any, m)) or not all(map(any, zip(*m))):
                    continue
                inc = InclusionData(list(a), m)
                report = analyze(inc)
                if report.is_markov and report.r.denominator == 1:
                    found.append(inc)
    return found


def corpus_entry(name: str) -> CorpusEntry:
    return next(e for e in CORPUS if e.name == name)


@pytest.fixture(scope="session")
def graphs():
    """Graph cache keyed by corpus name; built once per session."""
    cache = {}

    def get(name: str):
        if name not in cache:
            cache[name] = build_graph(corpus_entry(name).inclusion())
        return cache[name]

    return get
