"""Inclusion analysis: classification, towers, loop space dimensions, word norms."""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import element_oracle as dense
from planaralg import (
    AlgebraDims,
    InclusionData,
    NotMarkovError,
    ResourceLimitError,
    ValidationError,
    analyze,
    build_graph,
    canonical_trace_weights,
    close_group,
    fixed_dims_report,
    is_centrally_ergodic,
    jones_tower,
    loop_space_dim,
    make_automorphism,
    markov_index,
    word_norm,
)
from planaralg import markov
from planaralg.markov import loop_space_dims
from conftest import (
    CORPUS,
    MARKOV_CORPUS,
    NON_MARKOV_CORPUS,
    corpus_entry,
    generated_markov_inclusions,
)
from products import direct_sum, tensor_inclusion


def embedding_matrices(inc: InclusionData, j: int) -> list[np.ndarray]:
    """Images of the matrix-unit basis of the small algebra in big block j.

    Block i of the small algebra sits inside big block j as m[i][j]
    diagonally stacked copies; everything else in the block is zero.
    """
    size = inc.b[j]
    slots = []
    offset = 0
    for i in range(inc.rows):
        for _ in range(inc.m[i][j]):
            slots.append((i, offset))
            offset += inc.a[i]
    assert offset == size
    images = []
    for i in range(inc.rows):
        n = inc.a[i]
        for p in range(n):
            for q in range(n):
                mat = np.zeros((size, size), dtype=np.int64)
                for block, off in slots:
                    if block == i:
                        mat[off + p, off + q] = 1
                images.append(mat)
    return images


def dense_word_norm(inc: InclusionData, length: int, starts_with: str) -> float:
    """word_norm's numeric value from the dense float matrix
    np.array(inc.m, dtype=float): the same word, products and power
    iteration, in the same order, so the two agree bit for bit."""
    m = np.array(inc.m, dtype=float)
    factors = [m if (n % 2 == 0) == (starts_with == "m") else m.T for n in range(length)]
    word = factors[0]
    for f in factors[1:]:
        word = word @ f
    gram = word @ word.T
    v = np.ones(gram.shape[0])
    top = 0.0
    for _ in range(markov.POWER_ITERATIONS):
        w = gram @ v
        scale = float(np.linalg.norm(w))
        if scale == 0.0:
            top = 0.0
            break
        v = w / scale
        estimate = float(v @ (gram @ v))
        if top and abs(estimate - top) <= markov.POWER_TOLERANCE * abs(estimate):
            top = estimate
            break
        top = estimate
    return math.sqrt(top)


def basic_construction(inc: InclusionData) -> InclusionData:
    """The tower's oracle: reflect the inclusion, the big algebra paired
    with the transposed matrix.

    The derived top dimensions come out as r times the original small ones,
    and the result is Markov with the same index.
    """
    markov_index(inc)
    return InclusionData(inc.b, tuple(zip(*inc.m)))


def brute_force_is_abelian(inc: InclusionData) -> bool:
    """Check the small algebra lands in the center by explicit matrices.

    Independent of the structural shortcut in analyze(): builds the literal
    block-diagonal embedding and tests commutators against every matrix unit
    of every big block.
    """
    for j in range(inc.cols):
        size = inc.b[j]
        units = []
        for u in range(size):
            for v in range(size):
                f = np.zeros((size, size), dtype=np.int64)
                f[u, v] = 1
                units.append(f)
        for image in embedding_matrices(inc, j):
            for f in units:
                if not np.array_equal(image @ f, f @ image):
                    return False
    return True


class TestAlgebraDims:
    def test_total_dim(self):
        assert AlgebraDims((1, 2, 3)).total_dim == 14

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            AlgebraDims((1, 0))
        with pytest.raises(ValidationError):
            AlgebraDims(())

    def test_rejects_noninteger(self):
        with pytest.raises(ValidationError):
            AlgebraDims((1, 2.5))


class TestInclusionData:
    def test_derived_b(self):
        inc = InclusionData([1, 2], [[1, 0], [1, 1]])
        assert inc.b == (3, 2)

    def test_b_is_built_once(self, monkeypatch):
        built = []

        class CountingDims(AlgebraDims):
            def __new__(cls, blocks):
                built.append(blocks)
                return super().__new__(cls, blocks)

        monkeypatch.setattr(markov, "AlgebraDims", CountingDims)
        inc = InclusionData([1, 2], [[1, 0], [1, 1]])
        built.clear()
        assert [inc.b for _ in range(4)] == [(3, 2)] * 4
        assert len(built) == 1
        # The cached value is not a field: equality, hashing and repr see a and m only.
        fresh = InclusionData([1, 2], [[1, 0], [1, 1]])
        assert inc == fresh and hash(inc) == hash(fresh) and repr(inc) == repr(fresh)

    def test_rejects_ragged_matrix(self):
        with pytest.raises(ValidationError):
            InclusionData([1, 1], [[1, 0], [1]])

    def test_rejects_negative_entry(self):
        with pytest.raises(ValidationError):
            InclusionData([1], [[-1, 2]])

    def test_rejects_zero_row(self):
        with pytest.raises(ValidationError):
            InclusionData([1, 1], [[0, 0], [1, 1]])

    def test_rejects_zero_column(self):
        with pytest.raises(ValidationError):
            InclusionData([1, 1], [[1, 0], [1, 0]])

    @pytest.mark.parametrize(
        "m, message",
        [
            # Entries first, row by row, then zero rows, then zero columns.
            ([[0, 0, 0], [1, 0, -1]], "matrix entry -1 is not a nonnegative integer"),
            ([[1, 2.5, -1], [1, 1]], "matrix entry 2.5 is not a nonnegative integer"),
            ([[1, -1, 2.5], [1, 1, 1]], "matrix entry -1 is not a nonnegative integer"),
            ([[1, 0, 0], [1, True, 0], [1]], "matrix entry True is not a nonnegative integer"),
            ([[1, 0, 0], [1, 0], [1, True, 0]], "inclusion matrix rows have unequal lengths"),
            ([[1, 0, 0], [0, 0, 0], [0, 0, 0]], "row 1 of the inclusion matrix is zero"),
            ([[1, 0, 0, 0], [1, 0, 1, 0], [1, 0, 0, 0]], "column 1 of the inclusion matrix is zero"),
        ],
    )
    def test_refusal_order(self, m, message):
        with pytest.raises(ValidationError) as caught:
            InclusionData([1] * len(m), m)
        assert str(caught.value) == message

    def test_readers_touch_no_zero_entry(self):
        # Work count, not timing: validation reads every entry of the
        # 2,000 x 2,000 identity once; after it, classifying, the tower, the
        # loop dimensions, the graph, an automorphism check and central
        # ergodicity read only the n nonzero entries, so no operation of any
        # kind reaches one of the n^2 - n zeros; nor do the word norms' float
        # matrix on the 200 x 200 identity.
        n, touched = 2000, Counter()

        def counted(name):
            method = getattr(int, name)

            def wrapper(self, *args):
                touched[name] += 1
                return method(self, *args)

            return wrapper

        class Zero(int):
            pass

        zero = Zero(0)
        inc = InclusionData([1] * n, [[1 if i == j else zero for j in range(n)] for i in range(n)])
        # The word norms multiply dense n x n words, so they run on a smaller identity.
        small = InclusionData([1] * 200, [[1 if i == j else zero for j in range(200)] for i in range(200)])
        # Counting starts here: methods set on the class reach every zero.
        for op in "add radd sub rsub mul rmul floordiv truediv eq ne lt le gt ge bool hash int float index".split():
            setattr(Zero, f"__{op}__", counted(f"__{op}__"))
        assert not inc.m[0][1] and touched == {"__bool__": 1}
        touched.clear()
        assert analyze(inc) == (True, 1, True, False) and markov_index(inc) == 1
        assert jones_tower(inc, 1) == [(1,) * n] * 4
        assert list(islice(loop_space_dims(inc), 4)) == [n] * 4
        g = build_graph(inc)
        identity = tuple(range(n))
        assert make_automorphism(g, identity, identity).perm_e == identity
        assert is_centrally_ergodic(close_group(g, [])) == (False, False)
        assert [word_norm(small, 2, start)[0] for start in ("m", "mt")] == [1.0, 1.0]
        assert touched == Counter()

    def test_from_dict_roundtrip(self):
        inc = InclusionData([1, 1], [[2, 0], [0, 2]])
        assert InclusionData.from_dict(inc.to_dict()) == inc

    def test_from_dict_rejects_supplied_b(self):
        with pytest.raises(ValidationError):
            InclusionData.from_dict({"a": [1], "m": [[1]], "b": [1]})

    def test_from_dict_rejects_unknown_key(self):
        with pytest.raises(ValidationError):
            InclusionData.from_dict({"a": [1], "m": [[1]], "colour": "red"})


class TestTraceWeights:
    def test_two_block_example(self):
        weights = canonical_trace_weights(AlgebraDims((1, 2)))
        assert weights == [Fraction(1, 5), Fraction(4, 5)]

    def test_three_block_example(self):
        weights = canonical_trace_weights(AlgebraDims((2, 3)))
        assert weights == [Fraction(4, 13), Fraction(9, 13)]

    @pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
    def test_weights_sum_to_one(self, entry):
        inc = entry.inclusion()
        for dims in (inc.a, inc.b):
            assert sum(canonical_trace_weights(dims)) == 1

    @pytest.mark.parametrize("entry", MARKOV_CORPUS, ids=lambda e: e.name)
    def test_markov_weight_compatibility(self, entry):
        # tau_i / n_i on the small side must match the m-weighted sum of
        # tau_j / n_j on the big side exactly when the inclusion is Markov.
        inc = entry.inclusion()
        wa = canonical_trace_weights(inc.a)
        wb = canonical_trace_weights(inc.b)
        for i, row in enumerate(inc.m):
            lhs = wa[i] / inc.a[i]
            rhs = sum(row[j] * wb[j] / inc.b[j] for j in range(len(row)))
            assert lhs == rhs

    @pytest.mark.parametrize("entry", NON_MARKOV_CORPUS, ids=lambda e: e.name)
    def test_non_markov_breaks_compatibility(self, entry):
        inc = entry.inclusion()
        wa = canonical_trace_weights(inc.a)
        wb = canonical_trace_weights(inc.b)
        rows_ok = []
        for i, row in enumerate(inc.m):
            lhs = wa[i] / inc.a[i]
            rhs = sum(row[j] * wb[j] / inc.b[j] for j in range(len(row)))
            rows_ok.append(lhs == rhs)
        assert not all(rows_ok)


class TestAnalyze:
    @pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
    def test_classification(self, entry):
        report = analyze(entry.inclusion())
        assert report.is_markov == entry.markov
        assert report.r == entry.r
        assert report.is_abelian == entry.abelian

    @pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
    def test_index_violation_never_fires(self, entry):
        # A Markov inclusion always has integer ratio; the flag exists to
        # catch internal inconsistency and must stay False on real inputs.
        report = analyze(entry.inclusion())
        assert report.index_violation is False
        if report.is_markov:
            assert report.r.denominator == 1

    @pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
    def test_abelian_against_matrix_model(self, entry):
        report = analyze(entry.inclusion())
        assert report.is_abelian == brute_force_is_abelian(entry.inclusion())

    def test_markov_index_requires_markov(self):
        entry = corpus_entry("skew-C2-in-M2xC")
        with pytest.raises(NotMarkovError):
            markov_index(entry.inclusion())

    def test_markov_index_value(self):
        assert markov_index(corpus_entry("C-in-C2xM2").inclusion()) == 6


class TestTower:
    def test_basic_construction_swaps_and_reflects(self):
        inc = corpus_entry("C-in-C2").inclusion()
        up = basic_construction(inc)
        assert up.a == (1, 1)
        assert up.m == ((1,), (1,))
        assert up.b == (2,)
        up2 = basic_construction(up)
        assert up2.a == (2,)
        assert up2.b == (2, 2)

    def test_basic_construction_rejects_non_markov(self):
        with pytest.raises(NotMarkovError):
            basic_construction(corpus_entry("uneven-C2-in-M2xC").inclusion())

    @pytest.mark.parametrize("entry", MARKOV_CORPUS, ids=lambda e: e.name)
    def test_tower_dims_scale_by_index(self, entry):
        inc = entry.inclusion()
        tower = jones_tower(inc, 4)
        assert len(tower) == 10
        r = entry.r
        for k in range(5):
            small = tower[2 * k]
            big = tower[2 * k + 1]
            assert Fraction(big.total_dim, small.total_dim) == r
            if k > 0:
                prev = tower[2 * (k - 1)]
                assert Fraction(small.total_dim, prev.total_dim) == r * r

    def test_tower_rejects_non_markov(self):
        with pytest.raises(NotMarkovError):
            jones_tower(corpus_entry("C-C2-in-M3").inclusion(), 2)

    def test_tower_depth_zero(self):
        inc = corpus_entry("C-in-M2").inclusion()
        tower = jones_tower(inc, 0)
        assert len(tower) == 2
        assert tower[0] == inc.a
        assert tower[1] == inc.b

    @pytest.mark.parametrize("entry", MARKOV_CORPUS, ids=lambda e: e.name)
    def test_matches_iterated_basic_construction(self, entry):
        inc = entry.inclusion()
        for depth in range(5):
            oracle, current = [inc.a, inc.b], inc
            for _ in range(2 * depth):
                current = basic_construction(current)
                oracle.append(current.b)
            assert jones_tower(inc, depth) == oracle

    @pytest.mark.parametrize("depth, calls", [(0, 0), (4, 1)])
    def test_one_index_computation(self, monkeypatch, depth, calls):
        seen = []

        def counting(inc):
            seen.append(inc)
            return markov_index(inc)

        monkeypatch.setattr(markov, "markov_index", counting)
        jones_tower(corpus_entry("C-in-C2xM2").inclusion(), depth)
        assert len(seen) == calls


class TestLoopSpaceDim:
    def test_known_values(self):
        inc = corpus_entry("C-in-C2").inclusion()
        assert [loop_space_dim(inc, k) for k in range(5)] == [1, 2, 4, 8, 16]
        inc = corpus_entry("C-in-M2").inclusion()
        assert [loop_space_dim(inc, k) for k in range(4)] == [1, 4, 16, 64]

    @pytest.mark.parametrize("entry", MARKOV_CORPUS, ids=lambda e: e.name)
    def test_markov_growth_is_geometric(self, entry):
        # m m^t has the small-block vector as eigenvector with eigenvalue r,
        # so repeated application scales it by exact powers of the index.
        inc = entry.inclusion()
        r = int(entry.r)
        vec = list(inc.a)
        for _ in range(8):
            mid = [
                sum(inc.m[i][j] * vec[i] for i in range(inc.rows))
                for j in range(inc.cols)
            ]
            nxt = [
                sum(inc.m[i][j] * mid[j] for j in range(inc.cols))
                for i in range(inc.rows)
            ]
            assert nxt == [r * v for v in vec]
            vec = nxt

    @pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
    def test_matches_numpy_trace(self, entry):
        inc = entry.inclusion()
        mmt = np.array(inc.m, dtype=np.int64) @ np.array(inc.m, dtype=np.int64).T
        for k in range(1, 6):
            oracle = int(np.trace(np.linalg.matrix_power(mmt, k)))
            assert loop_space_dim(inc, k) == oracle


    def test_matches_dense_path_counts(self):
        # The closed-walk counter against the dense path counts at degrees
        # 0-6: every corpus inclusion, Markov or not, every generated Markov
        # inclusion and the product of every ordered pair of corpus inclusions.
        products = [tensor_inclusion(x.inclusion(), y.inclusion()) for x in CORPUS for y in CORPUS]
        cases = [entry.inclusion() for entry in CORPUS] + generated_markov_inclusions() + products
        assert len(cases) == 14 + 300 + 196
        for inc in cases:
            assert list(islice(loop_space_dims(inc), 7)) == list(islice(dense.loop_space_dims(inc), 7))


@cache
def _generated_by_index() -> dict[Fraction, list[InclusionData]]:
    found = {}
    for inc in generated_markov_inclusions():
        found.setdefault(analyze(inc).r, []).append(inc)
    return found


@st.composite
def _shaped_inclusions(draw) -> tuple[str, InclusionData, bool]:
    """(shape, inclusion, whether its graph is small enough to build)."""
    shape = draw(st.sampled_from(("permutation", "parallel", "blocks", "product")))
    if shape == "permutation":
        perm = draw(st.permutations(range(draw(st.integers(1, 8)))))
        return shape, InclusionData([1] * len(perm), [[int(p == j) for j in range(len(perm))] for p in perm]), True
    if shape == "parallel":
        # One block with n parallel edges: multiplicities are never expanded.
        n = draw(st.integers(1, 12) | st.integers(13, 10**6) | st.just(10**6))
        return shape, InclusionData([1], [[n]]), n <= 12
    if shape == "blocks":
        # Generated Markov inclusions of one index side by side: their direct
        # sum is Markov with that index.
        by_index = _generated_by_index()
        r = draw(st.sampled_from(sorted(by_index)))
        return shape, direct_sum(draw(st.lists(st.sampled_from(by_index[r]), min_size=2, max_size=8))), True
    first, second = draw(st.sampled_from(MARKOV_CORPUS)), draw(st.sampled_from(MARKOV_CORPUS))
    return shape, tensor_inclusion(first.inclusion(), second.inclusion()), True


def test_counter_matches_dense_oracle_on_drawn_shapes():
    # loop_space_dims and the trivial group's fixed_dims_report, both closed
    # walks of a Gram matrix, against the dense path counts at degrees 0-6.
    drawn, built = Counter(), Counter()

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(case=_shaped_inclusions())
    def agree(case):
        shape, inc, buildable = case
        expected = list(islice(dense.loop_space_dims(inc), 7))
        assert list(islice(loop_space_dims(inc), 7)) == expected
        drawn[shape] += 1
        drawn["a million parallel edges"] += inc.m == ((10**6,),)
        if buildable:
            assert fixed_dims_report(close_group(build_graph(inc), []), 6) == expected
            built[shape] += 1

    agree()
    assert drawn.pop("a million parallel edges") >= 1
    assert drawn.keys() == built.keys() == {"permutation", "parallel", "blocks", "product"}
    assert min(drawn.values()) >= 10 and min(built.values()) >= 5, (drawn, built)


class TestWordNorm:
    @pytest.mark.parametrize("entry", MARKOV_CORPUS, ids=lambda e: e.name)
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("starts_with", ["m", "mt"])
    def test_markov_norm_is_power_of_index(self, entry, k, starts_with):
        inc = entry.inclusion()
        numeric, exact = word_norm(inc, k, starts_with=starts_with)
        r = int(entry.r)
        assert exact * exact == r**k
        expected = exact.to_float()
        assert abs(numeric - expected) <= 1e-9 * max(1.0, expected)

    @pytest.mark.parametrize("entry", MARKOV_CORPUS, ids=lambda e: e.name)
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_numeric_matches_svd_oracle(self, entry, k):
        inc = entry.inclusion()
        m = np.array(inc.m, dtype=float)
        for starts_with in ("m", "mt"):
            use_m = starts_with == "m"
            prod = None
            for _ in range(k):
                factor = m if use_m else m.T
                prod = factor if prod is None else prod @ factor
                use_m = not use_m
            oracle = np.linalg.norm(prod, 2)
            numeric, _ = word_norm(inc, k, starts_with=starts_with)
            assert numeric == pytest.approx(oracle, rel=1e-9)

    def test_matches_dense_oracle_bit_for_bit(self):
        # The float matrix built from the sparse map is the dense one, so
        # every product and every norm is the same float: lengths 1-6, both
        # starts, on the Markov corpus, the generated Markov inclusions and
        # the product of every ordered pair of Markov corpus inclusions.
        products = [tensor_inclusion(x.inclusion(), y.inclusion()) for x in MARKOV_CORPUS for y in MARKOV_CORPUS]
        cases = [entry.inclusion() for entry in MARKOV_CORPUS] + generated_markov_inclusions() + products
        assert len(cases) == 11 + 300 + 121
        for inc in cases:
            for length in range(1, 7):
                for start in ("m", "mt"):
                    numeric, _ = word_norm(inc, length, start)
                    assert numeric.hex() == dense_word_norm(inc, length, start).hex(), (inc, length, start)

    def test_rejects_non_markov(self):
        inc = corpus_entry("skew-C2-in-M2xC").inclusion()
        with pytest.raises(NotMarkovError):
            word_norm(inc, 2)

    def test_start_vector_counts_toward_float_range(self):
        # r = 2 a^2 ~ 4.7e25: r^12 alone fits in a float, but the squared
        # norm of W W^t (1, 1) is about 2 r^12, which does not.
        a = 4_850_000_000_000
        inc = InclusionData([1, 1], [[a], [a]])
        assert markov_index(inc) == 2 * a * a
        assert float(2 * a * a) ** 12 < 1.8e308
        with pytest.raises(ResourceLimitError):
            word_norm(inc, 6)
        numeric, exact = word_norm(inc, 5)
        assert numeric == pytest.approx(exact.to_float(), rel=1e-9)

    def test_rejects_bad_args(self):
        inc = corpus_entry("C-in-C2").inclusion()
        with pytest.raises(ValidationError):
            word_norm(inc, 0)
        with pytest.raises(ValidationError):
            word_norm(inc, 1, starts_with="q")
