"""Command line behavior: schemas, formats, exit codes, determinism."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planaralg import EigenvectorViolationError, GroupTooLargeError, PlanarAlgError, markov
from planaralg.cli import main
from conftest import corpus_entry


@pytest.fixture
def write_inclusion(tmp_path):
    def _write(name, payload=None):
        if payload is None:
            payload = corpus_entry(name).inclusion().to_dict()
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    return _write


@pytest.fixture
def write_group(tmp_path):
    def _write(generators):
        path = tmp_path / "group.json"
        path.write_text(json.dumps({"generators": generators}), encoding="utf-8")
        return str(path)

    return _write


@pytest.fixture
def digit_limit():
    """Sets the interpreter's int-to-str digit limit for one test."""
    saved = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(saved)


class TestAnalyze:
    def test_markov_document(self, write_inclusion, capsys):
        assert main(["analyze", "--input", write_inclusion("C-in-C2")]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["markov"] is True
        assert document["r"] == 2
        assert document["abelian"] is True
        assert document["index_violation"] is False
        assert document["dims"] == {
            "a_blocks": [1],
            "b_blocks": [1, 1],
            "dim_a": 1,
            "dim_b": 2,
        }
        assert document["trace_weights"]["a"] == [{"exact": "1", "value": 1.0}]
        assert document["trace_weights"]["b"] == [
            {"exact": "1/2", "value": 0.5},
            {"exact": "1/2", "value": 0.5},
        ]
        norms = document["word_norms"]
        assert len(norms) == 12
        assert {row["length"] for row in norms} == {1, 2, 3, 4, 5, 6}
        for row in norms:
            assert row["rel_error"] <= 1e-9

    def test_non_markov_document(self, write_inclusion, capsys):
        assert main(["analyze", "--input", write_inclusion("skew-C2-in-M2xC")]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["markov"] is False
        assert document["r"] == "5/2"
        assert document["word_norms"] == []

    def test_missing_file(self, tmp_path, capsys):
        assert main(["analyze", "--input", str(tmp_path / "absent.json")]) == 2
        assert "input error" in capsys.readouterr().err

    def test_malformed_json_reports_position(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"a": [1], "m": [[1,]]}', encoding="utf-8")
        assert main(["analyze", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert "broken.json:1:" in err

    def test_supplied_b_rejected(self, tmp_path, capsys):
        path = tmp_path / "overdetermined.json"
        path.write_text('{"a": [1], "m": [[1, 1]], "b": [1, 1]}', encoding="utf-8")
        assert main(["analyze", "--input", str(path)]) == 2
        assert '"b" is derived' in capsys.readouterr().err

    def test_csv_not_offered(self, write_inclusion, capsys):
        # argparse refuses the choice, for verify-tl as for analyze.
        for command in (["analyze"], ["verify-tl", "--kmax", "1"]):
            with pytest.raises(SystemExit) as err:
                main([*command, "--input", write_inclusion("C-in-C2"), "--format", "csv"])
            assert err.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "invalid choice: 'csv'" in captured.err


class TestTower:
    def test_json_document(self, write_inclusion, capsys):
        assert main(["tower", "--input", write_inclusion("C-in-C2"), "--depth", "2"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["r"] == 2
        assert document["depth"] == 2
        assert document["levels"] == [
            {
                "k": 0,
                "a_blocks": [1],
                "a_dim": 1,
                "b_blocks": [1, 1],
                "b_dim": 2,
                "b_tilde_blocks": [1, 1],
            },
            {
                "k": 1,
                "a_blocks": [2],
                "a_dim": 4,
                "b_blocks": [2, 2],
                "b_dim": 8,
                "b_tilde_blocks": [2, 2],
            },
            {
                "k": 2,
                "a_blocks": [4],
                "a_dim": 16,
                "b_blocks": [4, 4],
                "b_dim": 32,
                "b_tilde_blocks": [4, 4],
            },
        ]

    def test_csv_frozen(self, write_inclusion, capsys):
        args = ["tower", "--input", write_inclusion("C-in-C2"), "--depth", "1", "--format", "csv"]
        assert main(args) == 0
        assert capsys.readouterr().out == (
            "k,algebra,total_dim,blocks\n"
            "0,A,1,1\n"
            "0,B,2,1 1\n"
            "0,B~,2,1 1\n"
            "1,A,4,2\n"
            "1,B,8,2 2\n"
            "1,B~,8,2 2\n"
        )

    def test_non_markov_is_precondition_failure(self, write_inclusion, capsys):
        assert main(["tower", "--input", write_inclusion("C-C2-in-M3"), "--depth", "1"]) == 3
        assert "precondition error" in capsys.readouterr().err

    def test_negative_depth(self, write_inclusion, capsys):
        assert main(["tower", "--input", write_inclusion("C-in-C2"), "--depth", "-1"]) == 2

    def test_classifies_the_inclusion_twice(self, write_inclusion, capsys, monkeypatch):
        # Work count: one `tower` run calls analyze twice, for its Markov
        # check and in jones_tower, each reading the nonzero entries once.
        calls = []
        real = markov.analyze

        def counting(inc):
            calls.append(inc)
            return real(inc)

        monkeypatch.setattr(markov, "analyze", counting)
        monkeypatch.setattr("planaralg.cli.analyze", counting)
        assert main(["tower", "--input", write_inclusion("C-in-C2"), "--depth", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["levels"][3]["b_dim"] == 2 * 4**3
        assert len(calls) == 2


class TestDims:
    def test_json(self, write_inclusion, capsys):
        assert main(["dims", "--input", write_inclusion("C-in-C2"), "--kmax", "4"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document == {"kmax": 4, "dims": [1, 2, 4, 8, 16]}

    def test_csv_frozen(self, write_inclusion, capsys):
        args = ["dims", "--input", write_inclusion("C-in-C2"), "--kmax", "4", "--format", "csv"]
        assert main(args) == 0
        assert capsys.readouterr().out == "k,dim\n0,1\n1,2\n2,4\n3,8\n4,16\n"

    def test_loop_budget_enforced(self, write_inclusion, capsys):
        args = [
            "dims",
            "--input",
            write_inclusion("C-in-M3"),
            "--kmax",
            "6",
            "--limit-loops",
            "10",
        ]
        assert main(args) == 4
        err = capsys.readouterr().err
        assert "resource limit" in err
        assert "degree 2 needs 81 loops, over the limit of 10" in err

    def test_one_pass_over_degrees(self, write_inclusion, capsys, monkeypatch):
        # One sparse product for every two degrees, not a fresh count for
        # each: the Gram matrix G of C-in-C2 is the 1 x 1 matrix (2), each
        # product reads its one row once, and kmax 12 takes the 5 products
        # that form G^2, ..., G^6 (trace G^12 is the sum of squares of G^6).
        reads = []
        gram = markov._gram

        class CountedGram(dict):
            def __getitem__(self, x):
                reads.append(x)
                return dict.__getitem__(self, x)

        monkeypatch.setattr(markov, "_gram", lambda rows: CountedGram(gram(rows)))
        assert main(["dims", "--input", write_inclusion("C-in-C2"), "--kmax", "12"]) == 0
        assert json.loads(capsys.readouterr().out)["dims"] == [2**k for k in range(13)]
        assert reads == [0] * 5

    def test_counts_paths_from_the_smaller_side(self, write_inclusion, capsys, monkeypatch):
        # Work property, not timing: on C^N in M_N the budget counts closed
        # walks on the one upper vertex, so its Gram matrix is the 1 x 1
        # matrix (N), not N x N, and degree 0 still counts the N lower vertices.
        n, grams = 64, []
        gram = markov._gram

        def recording(rows):
            grams.append(gram(rows))
            return grams[-1]

        monkeypatch.setattr(markov, "_gram", recording)
        document = write_inclusion("C64-in-M64", {"a": [1] * n, "m": [[1]] * n})
        assert main(["dims", "--input", document, "--kmax", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["dims"] == [n, n, n**2, n**3]
        assert grams == [{0: ((0, n),)}]

    def test_perfect_matching_prelude_is_linear(self, write_inclusion, capsys, monkeypatch):
        # Work count, not timing: on the n x n identity (C^n in C^n, a
        # perfect matching) the loop budget's Gram matrix is the identity,
        # with n entries, and the counter does 4n multiply-adds to degree 3:
        # n to form it, n for trace G^2, n for its one product G^2 and n for
        # trace G^3 (trace G adds the diagonal).  A dense product of path
        # counts took n^3 steps per degree.
        n, work = 2000, Counter()

        class Counted(int):
            def __mul__(self, other):
                work["multiply-adds"] += 1
                return Counted(int(self) * int(other))

            def __add__(self, other):
                return Counted(int(self) + int(other))

            __rmul__, __radd__ = __mul__, __add__

        grams = []
        gram = markov._gram

        def counting(rows):
            grams.append(gram({i: {j: Counted(m) for j, m in row.items()} for i, row in rows.items()}))
            return grams[-1]

        monkeypatch.setattr(markov, "_gram", counting)
        document = write_inclusion("Cn-in-Cn", {"a": [1] * n, "m": [[int(i == j) for j in range(n)] for i in range(n)]})
        assert main(["dims", "--input", document, "--kmax", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["dims"] == [n, n, n, n]
        assert len(grams) == 1 and sum(map(len, grams[0].values())) == n
        assert work == {"multiply-adds": 4 * n}

    def test_negative_kmax(self, write_inclusion, capsys):
        assert main(["dims", "--input", write_inclusion("C-in-C2"), "--kmax", "-1"]) == 2

    @pytest.mark.parametrize("command", ["dims", "verify-tl", "fixed"])
    def test_negative_loop_limit_is_bad_input(self, write_inclusion, write_group, capsys, command):
        args = [command, "--input", write_inclusion("C-in-C2"), "--kmax", "2", "--limit-loops", "-1"]
        if command == "fixed":
            args += ["--group", write_group([{"perm_a": [0], "perm_b": [1, 0]}])]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "limit-loops must be nonnegative\n"

    def test_works_for_non_markov(self, write_inclusion, capsys):
        # Loop counting needs no Markov structure.
        assert main(["dims", "--input", write_inclusion("skew-C2-in-M2xC"), "--kmax", "2"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["dims"] == [2, 3, 7]


class TestVerifyTl:
    def test_relations_pass(self, write_inclusion, capsys):
        assert main(["verify-tl", "--input", write_inclusion("C-in-C2"), "--kmax", "1"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["kmax"] == 1
        assert document["r"] == 2
        assert document["all_passed"] is True
        assert len(document["relations"]) == 6
        assert {row["relation"] for row in document["relations"]} == {
            "idempotent",
            "trace",
            "bounce-low",
            "bounce-high",
        }

    def test_non_markov_is_precondition_failure(self, write_inclusion, capsys):
        assert main(["verify-tl", "--input", write_inclusion("C-C2-in-M3"), "--kmax", "1"]) == 3
        # The refusal names the first small block off the Markov condition:
        # a = (1, 2), m = ((1,), (1,)), b = (3,) and r = 9/5.
        assert capsys.readouterr() == (
            "",
            "precondition error: inclusion is not Markov at small block 0: (m b)_0 = 3, r a_0 = 9/5\n",
        )

    def test_non_markov_refusal_is_a_witness_not_the_matrix(self, write_inclusion, capsys):
        # The 1,000 x 1,000 identity with one more edge, a0 -- b1: b_1 = 2,
        # so r = 1003/1000 and (m b)_0 = 3.  The stderr line stays short
        # where the matrix alone prints in about 3 MB.
        n = 1000
        m = [[int(i == j) for j in range(n)] for i in range(n)]
        m[0][1] = 1
        document = write_inclusion("near-identity", {"a": [1] * n, "m": m})
        assert main(["verify-tl", "--input", document, "--kmax", "0"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err) < 200
        assert captured.err == (
            "precondition error: inclusion is not Markov at small block 0: (m b)_0 = 3, r a_0 = 1003/1000\n"
        )


class TestFixed:
    def test_swap_group_document(self, write_inclusion, write_group, capsys):
        group = write_group([{"perm_a": [0], "perm_b": [1, 0]}])
        args = ["fixed", "--input", write_inclusion("C-in-C2"), "--group", group, "--kmax", "2"]
        assert main(args) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["group_order"] == 2
        assert document["dims"] == [1, 1, 2]
        assert document["centrally_ergodic"] == {"on_a": True, "on_b": True}
        assert document["all_passed"] is True
        assert all(row["passed"] for row in document["checks"])

    def test_csv_dims(self, write_inclusion, write_group, capsys):
        group = write_group([{"perm_a": [0], "perm_b": [1, 0]}])
        args = [
            "fixed",
            "--input",
            write_inclusion("C-in-C2"),
            "--group",
            group,
            "--kmax",
            "2",
            "--format",
            "csv",
        ]
        assert main(args) == 0
        assert capsys.readouterr().out == "k,dim\n0,1\n1,1\n2,2\n"

    def test_csv_dims_of_many_parallel_edges(self, write_inclusion, write_group, capsys):
        # 200,000 parallel edges under the trivial group: one fixed loop at
        # degree 0, read without an edge record per edge.
        group = write_group([])
        path = write_inclusion("bundle", {"a": [1], "m": [[200000]]})
        assert main(["fixed", "--input", path, "--group", group, "--kmax", "0", "--format", "csv"]) == 0
        assert capsys.readouterr().out == "k,dim\n0,1\n"

    def test_noncentral_inclusion_reports_null_ergodicity(
        self, write_inclusion, write_group, capsys
    ):
        group = write_group([])
        args = ["fixed", "--input", write_inclusion("C2-in-M2"), "--group", group, "--kmax", "1"]
        assert main(args) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["group_order"] == 1
        assert document["centrally_ergodic"] is None
        assert document["all_passed"] is True

    def test_explicit_edge_permutation(self, write_inclusion, write_group, capsys):
        group = write_group([{"perm_a": [0], "perm_b": [0], "perm_e": [1, 0]}])
        args = ["fixed", "--input", write_inclusion("C-in-M2"), "--group", group, "--kmax", "2"]
        assert main(args) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["dims"] == [1, 2, 8]

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"generators": [{"perm_a": [0]}]}', 'generator 0 needs "perm_a" and "perm_b"'),
            ("[]", 'group document needs a "generators" list'),
            ('{"order": 2}', 'group document needs a "generators" list'),
            ('{"generators": [[0]]}', "generator 0 must be an object"),
            ('{"generators": [{"perm_a": [0], "perm_b": [0], "k": 1}]}', "generator 0 has unknown keys: ['k']"),
            ('{"generators": [{"perm_a": [0], "perm_b": [0], "perm_e": 3}]}', 'generator 0: "perm_e" must be a list or null'),
        ],
        ids=[
            "missing-perm_b",
            "not-an-object",
            "no-generators",
            "generator-not-an-object",
            "generator-unknown-keys",
            "perm_e-not-a-list",
        ],
    )
    def test_bad_group_schema(self, write_inclusion, tmp_path, capsys, text, message):
        path = tmp_path / "group.json"
        path.write_text(text, encoding="utf-8")
        args = ["fixed", "--input", write_inclusion("C-in-C2"), "--group", str(path), "--kmax", "1"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: {message}\n"

    def test_unknown_group_keys(self, write_inclusion, tmp_path, capsys):
        path = tmp_path / "group.json"
        path.write_text('{"generators": [], "order": 2}', encoding="utf-8")
        args = ["fixed", "--input", write_inclusion("C-in-C2"), "--group", str(path), "--kmax", "1"]
        assert main(args) == 2

    def test_invalid_permutation(self, write_inclusion, write_group, capsys):
        group = write_group([{"perm_a": [0], "perm_b": [0, 0]}])
        args = ["fixed", "--input", write_inclusion("C-in-C2"), "--group", group, "--kmax", "1"]
        assert main(args) == 2

    def test_generators_are_checked_in_document_order(self, write_inclusion, write_group, capsys):
        # Each generator's shape is read, then it is checked as an
        # automorphism, before the next is read: the first generator breaks
        # incidence and the second lacks perm_b, and the first is reported.
        group = write_group([{"perm_a": [0], "perm_b": [0, 1], "perm_e": [1, 0]}, {"perm_a": [0]}])
        args = ["fixed", "--input", write_inclusion("C-in-C2"), "--group", group, "--kmax", "1"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: edge 0 maps to edge 1 with incompatible endpoints\n"
        group = write_group([{"perm_a": [0], "perm_b": [1, 0]}, {"perm_a": [0]}])
        assert main(["fixed", "--input", write_inclusion("C-in-C2"), "--group", group, "--kmax", "1"]) == 2
        assert capsys.readouterr().err == 'input error: generator 1 needs "perm_a" and "perm_b"\n'

    def test_vertex_maps_without_an_edge_image(self, write_inclusion, write_group, capsys):
        # Edge 0 joins a0 and b0; swapping the small blocks alone sends it to
        # the pair (a1, b0), which has no edge, so perm_e cannot be derived.
        path = write_inclusion("mixed", {"a": [1, 1], "m": [[1, 0, 1], [0, 1, 1]]})
        group = write_group([{"perm_a": [1, 0], "perm_b": [0, 1, 2]}])
        assert main(["fixed", "--input", path, "--group", group, "--kmax", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: vertex permutations send edge 0 to the pair (a1, b0) which has no edge\n"

    @pytest.mark.parametrize(
        "generator",
        [
            {"perm_a": [0], "perm_b": [1.0, 0.0]},
            {"perm_a": [0.0], "perm_b": [1, 0]},
            {"perm_a": [0], "perm_b": [1, 0], "perm_e": [1.0, 0]},
            {"perm_a": 0, "perm_b": [1, 0]},
        ],
        ids=["float-perm-b", "float-perm-a", "float-perm-e", "int-perm-a"],
    )
    def test_malformed_permutation_values(self, write_inclusion, write_group, capsys, generator):
        group = write_group([generator])
        args = ["fixed", "--input", write_inclusion("C-in-C2"), "--group", group, "--kmax", "1"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "input error" in captured.err

    def test_null_perm_e_still_works(self, write_inclusion, write_group, capsys):
        group = write_group([{"perm_a": [0], "perm_b": [1, 0], "perm_e": None}])
        args = ["fixed", "--input", write_inclusion("C-in-C2"), "--group", group, "--kmax", "1"]
        assert main(args) == 0
        assert json.loads(capsys.readouterr().out)["group_order"] == 2

    def test_non_markov_is_precondition_failure(self, write_inclusion, write_group, capsys):
        group = write_group([])
        args = [
            "fixed",
            "--input",
            write_inclusion("skew-C2-in-M2xC"),
            "--group",
            group,
            "--kmax",
            "1",
        ]
        assert main(args) == 3


class TestExitCodeMapping:
    def test_internal_error(self, write_inclusion, monkeypatch, capsys):
        def boom(args):
            raise PlanarAlgError("invariant broken")

        monkeypatch.setattr("planaralg.cli.cmd_analyze", boom)
        assert main(["analyze", "--input", write_inclusion("C-in-C2")]) == 5
        assert "internal error" in capsys.readouterr().err

    def test_eigenvector_violation(self, write_inclusion, monkeypatch, capsys):
        def boom(args):
            raise EigenvectorViolationError("weights broken")

        monkeypatch.setattr("planaralg.cli.cmd_analyze", boom)
        assert main(["analyze", "--input", write_inclusion("C-in-C2")]) == 5
        assert "internal invariant" in capsys.readouterr().err

    def test_group_too_large(self, write_inclusion, write_group, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise GroupTooLargeError("closure exceeds limit")

        monkeypatch.setattr("planaralg.symmetry.close_group", boom)
        group = write_group([])
        args = ["fixed", "--input", write_inclusion("C-in-C2"), "--group", group, "--kmax", "1"]
        assert main(args) == 4

    def test_unexpected_exception(self, write_inclusion, monkeypatch, capsys):
        def boom(args):
            raise RuntimeError("not a package error\nsecond line")

        monkeypatch.setattr("planaralg.cli.cmd_analyze", boom)
        assert main(["analyze", "--input", write_inclusion("C-in-C2")]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal error: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err


class TestHardenedInput:
    """Documents that once escaped the exit-code contract."""

    @pytest.mark.parametrize(
        "payload",
        [{"a": [True], "m": [[1, 1]]}, {"a": [1], "m": [[True, 1]]}, {"a": [1, 1], "m": [[1], [False]]}],
    )
    def test_json_booleans_are_not_integers(self, write_inclusion, capsys, payload):
        args = ["tower", "--input", write_inclusion("bool", payload), "--depth", "2", "--format", "csv"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "input error" in captured.err

    @pytest.mark.parametrize(
        "generator, label",
        [
            ({"perm_a": [0], "perm_b": [True, False]}, "perm_b"),
            ({"perm_a": [False], "perm_b": [1, 0]}, "perm_a"),
            ({"perm_a": [0], "perm_b": [1, 0], "perm_e": [True, 0]}, "perm_e"),
        ],
        ids=["perm_b", "perm_a", "perm_e"],
    )
    def test_json_booleans_are_not_permutation_entries(
        self, write_inclusion, write_group, capsys, generator, label
    ):
        # Read as 1 and 0 they would be permutations; like inclusion
        # documents, group documents refuse them.
        inclusion = write_inclusion("C-in-C2")
        args = ["fixed", "--input", inclusion, "--group", write_group([generator]), "--kmax", "1"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        entries = tuple(generator[label])
        assert captured.err == f"input error: {label} has an entry that is not an integer: {entries}\n"
        as_ints = {key: [int(x) for x in value] for key, value in generator.items()}
        assert main(["fixed", "--input", inclusion, "--group", write_group([as_ints]), "--kmax", "1"]) == 0

    @pytest.mark.parametrize("entry", [10**200, 10**13])
    def test_word_norms_out_of_float_range_refused(self, write_inclusion, capsys, entry):
        # r = entry^2; the length-6 word needs r^12 in float range.
        path = write_inclusion("huge", {"a": [1], "m": [[entry]]})
        assert main(["analyze", "--input", path]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "resource limit" in captured.err
        assert "Traceback" not in captured.err

    def test_largest_in_range_index_still_reported(self, write_inclusion, capsys):
        path = write_inclusion("large", {"a": [1], "m": [[10**12]]})
        assert main(["analyze", "--input", path]) == 0
        norms = json.loads(capsys.readouterr().out)["word_norms"]
        assert len(norms) == 12
        assert all(row["rel_error"] <= 1e-9 for row in norms)

    def test_unprovable_prime_dimension_refused(self, write_inclusion, capsys):
        # The big block has dimension p = u^2 + v^2, a prime above 3.3e24,
        # where the fixed Miller-Rabin bases give no proof; the index is
        # p^2, and the odd word norms need its root.
        u, v = 1080733131607, 1679200834282
        path = write_inclusion("big-prime", {"a": [1], "m": [[u * u + v * v]]})
        assert main(["analyze", "--input", path]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Miller-Rabin" in captured.err

    # Disconnected graphs: each component keeps its own scale, so dim A =
    # a_0^2 + a_1^2 has factors that no squared spin b_j / (a_i gamma)
    # carries.  Each exited 4 while the graph factored dim A: the first and
    # third after about 5 s of rho steps on 61764652208965337 x
    # 379765231507651621, the second at once, since 1080733131607^2 +
    # 1679200834282^2 is a prime above the Miller-Rabin bound.
    @pytest.mark.parametrize(
        "a, m, tail, digest",
        [
            (
                [2005404244037659, 153140607935796386],
                [[1, 0], [0, 1]],
                ["verify-tl", "--kmax", "1"],
                "3bf9377ea1d5533c35b770d8ccf95d8e4c581e5e8411cd796bb5c19639df134f",
            ),
            (
                [1080733131607, 1679200834282],
                [[1, 0], [0, 1]],
                ["verify-tl", "--kmax", "1"],
                "3bf9377ea1d5533c35b770d8ccf95d8e4c581e5e8411cd796bb5c19639df134f",
            ),
            (
                [2005404244037659, 153140607935796386],
                [[2, 0], [0, 2]],
                ["fixed", "--kmax", "6"],
                "7e9c8ec20d4cf5fa604aaf98f46cd600823f78913eca64be668ef0fb8af31111",
            ),
        ],
        ids=["verify-tl-disconnected-hard", "verify-tl-disconnected-prime", "fixed-disconnected-hard"],
    )
    def test_total_dimension_of_disconnected_graph_is_not_factored(
        self, write_inclusion, write_group, capsys, a, m, tail, digest
    ):
        path = write_inclusion("disconnected", {"a": a, "m": m})
        if tail[0] == "fixed":
            tail = [*tail, "--group", write_group([])]
        assert main([tail[0], "--input", path, *tail[1:]]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert hashlib.sha256(captured.out.encode()).hexdigest() == digest

    # a = [x, x] under one upper block: the two lower blocks swap, and x
    # cancels from every weight a_i^2 / dim A, so x is never factored.  The
    # first x = p q, with p the first prime above 10^16 + 12345 and q the
    # first above 10^17 + 54321, was refused (exit 4) while dim A = 2 x^2
    # was factored; the second printed the same bytes then, after about 1 s
    # of factoring.
    @pytest.mark.parametrize(
        "x, tail, digest",
        [
            (
                10000000000012411 * 100000000000054333,
                ["fixed", "--kmax", "6"],
                "fedafaef18175e9a4341c79c266d234284aa909dbff106264a1f3f1cfdf0f408",
            ),
            (
                10000000000012411 * 100000000000054333,
                ["verify-tl", "--kmax", "2"],
                "8fd6026cb0f5681c6b80c72e18a4ba8cad2e6f4d0253451299bfdd671bebd3fe",
            ),
            (
                1000000000039 * 10000000000000061,
                ["fixed", "--kmax", "6"],
                "fedafaef18175e9a4341c79c266d234284aa909dbff106264a1f3f1cfdf0f408",
            ),
        ],
        ids=["fixed-factor-hard", "verify-tl-factor-hard", "fixed-factor-slow"],
    )
    def test_common_factor_of_block_dimensions_is_not_factored(
        self, write_inclusion, write_group, capsys, x, tail, digest
    ):
        path = write_inclusion("scaled", {"a": [x, x], "m": [[1], [1]]})
        if tail[0] == "fixed":
            tail = [*tail, "--group", write_group([{"perm_a": [1, 0], "perm_b": [0]}])]
        assert main([tail[0], "--input", path, *tail[1:]]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert hashlib.sha256(captured.out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "tail", [["analyze"], ["tower", "--depth", "0"], ["tower", "--depth", "0", "--format", "csv"]]
    )
    @pytest.mark.parametrize("exponent, code", [(2149, 0), (2150, 4)])
    def test_report_integers_over_digit_limit_refused(
        self, write_inclusion, capsys, digit_limit, tail, exponent, code
    ):
        # dim A = 10^(2 exponent) and dim B = 2 dim A: 4299 digits print,
        # 4301 do not.
        digit_limit(4300)
        path = write_inclusion("wide", {"a": [10**exponent], "m": [[1, 1]]})
        assert main([tail[0], "--input", path] + tail[1:]) == code
        captured = capsys.readouterr()
        assert bool(captured.out) == (code == 0)
        assert ("resource limit" in captured.err) == bool(code)
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("depth, code", [(1062, 0), (1063, 4)])
    def test_deep_tower_over_digit_limit_refused(self, write_inclusion, capsys, digit_limit, depth, code):
        # C-in-C2: the last level has dimension 2 * 4^depth, 640 digits at
        # depth 1062 and 641 at depth 1063.
        digit_limit(640)
        args = ["tower", "--input", write_inclusion("C-in-C2"), "--depth", str(depth), "--format", "csv"]
        assert main(args) == code
        captured = capsys.readouterr()
        assert bool(captured.out) == (code == 0)
        assert ("more than 640 digits" in captured.err) == bool(code)

    def test_very_deep_tower_refused_before_building(self, write_inclusion, capsys, digit_limit):
        digit_limit(4300)
        assert main(["tower", "--input", write_inclusion("C-in-C2"), "--depth", "15000"]) == 4
        assert "more than 4300 digits" in capsys.readouterr().err

    def test_no_digit_limit_prints_everything(self, write_inclusion, capsys, digit_limit):
        digit_limit(0)
        path = write_inclusion("wide", {"a": [10**2150], "m": [[1, 1]]})
        assert main(["analyze", "--input", path]) == 0
        assert json.loads(capsys.readouterr().out)["dims"]["dim_a"] == 10**4300

    @pytest.mark.parametrize("kmax, code", [(0, 0), (1, 4)])
    def test_loop_count_over_digit_limit_refused(self, write_inclusion, capsys, digit_limit, kmax, code):
        # Degree 1 has 10^4400 loops: over the budget, and too long to name.
        digit_limit(4300)
        path = write_inclusion("wide", {"a": [1], "m": [[10**2200]]})
        assert main(["dims", "--input", path, "--kmax", str(kmax)]) == code
        assert ("more than 4300 digits" in capsys.readouterr().err) == bool(code)

    @pytest.mark.parametrize(
        "raw",
        [b"\xff\xfe{}", b'{"a": [1], "m": [[' + b"1" * 5000 + b"]]}", b"[" * 100000 + b"]" * 100000],
        ids=["not-utf8", "over-digit-limit", "deep-nesting"],
    )
    def test_undecodable_documents_are_input_errors(self, tmp_path, capsys, raw):
        path = tmp_path / "raw.json"
        path.write_bytes(raw)
        assert main(["analyze", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "input error" in captured.err


_json_leaf = (
    st.none()
    | st.booleans()
    | st.integers(-2, 6)
    | st.integers(0, 10**6)
    | st.sampled_from([10**13, 10**200, 10**2200])
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=3)
)
_json_value = st.recursive(
    _json_leaf,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=12,
)


@st.composite
def _inclusion_like(draw):
    """Mostly well-formed documents, so that many pass validation and reach
    the exact and numeric code; one in ten entries and one in five
    documents is arbitrary JSON."""
    if not draw(st.integers(0, 4)):
        return draw(_json_value)

    def entry(least):
        return draw(st.integers(least, 3) if draw(st.integers(0, 9)) else _json_leaf)

    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    document = {"a": [entry(1) for _ in range(rows)], "m": [[entry(0) for _ in range(cols)] for _ in range(rows)]}
    if not draw(st.integers(0, 4)):
        document[draw(st.sampled_from(["a", "m", "b", "extra"]))] = draw(_json_value)
    return document


_argv_tail = st.one_of(
    st.just(["analyze"]),
    st.tuples(st.integers(-1, 3), st.sampled_from(["json", "csv"])).map(
        lambda t: ["tower", "--depth", str(t[0]), "--format", t[1]]
    ),
    st.tuples(st.integers(-1, 6), st.sampled_from(["json", "csv"])).map(
        lambda t: ["dims", "--kmax", str(t[0]), "--format", t[1]]
    ),
)


class TestFuzzContract:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(document=_inclusion_like(), argv_tail=_argv_tail)
    def test_exit_codes_and_no_traceback(self, tmp_path_factory, document, argv_tail):
        path = tmp_path_factory.getbasetemp() / "fuzz.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        argv = [argv_tail[0], "--input", str(path)] + argv_tail[1:]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in range(6)
        assert "Traceback" not in err.getvalue()
        # No document, however malformed, may reach an internal error.
        assert code != 5, err.getvalue()


@st.composite
def _perm_like(draw, size):
    """A permutation of 0..size-1 with some entries written as floats, or
    arbitrary JSON."""
    if draw(st.booleans()):
        return draw(_json_value)
    return [float(x) if draw(st.booleans()) else x for x in draw(st.permutations(range(size)))]


@st.composite
def _generators_like(draw):
    """Mostly lists of generator objects for C-in-C2 with fuzzed values,
    perm_e present in half of them; one in five is arbitrary JSON."""
    if not draw(st.integers(0, 4)):
        return draw(_json_value)
    sizes = {"perm_a": 1, "perm_b": 2, "perm_e": 2}
    keys = list(sizes)[: draw(st.integers(2, 3))]
    return [{key: draw(_perm_like(sizes[key])) for key in keys} for _ in range(draw(st.integers(1, 2)))]


class TestFuzzGroupDocument:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(generators=_generators_like())
    def test_exit_codes_and_no_traceback(self, tmp_path_factory, generators):
        base = tmp_path_factory.getbasetemp()
        inclusion = base / "fuzz-inclusion.json"
        inclusion.write_text(json.dumps(corpus_entry("C-in-C2").inclusion().to_dict()), encoding="utf-8")
        group = base / "fuzz-group.json"
        group.write_text(json.dumps({"generators": generators}), encoding="utf-8")
        argv = ["fixed", "--input", str(inclusion), "--group", str(group), "--kmax", "1"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in range(5), err.getvalue()
        assert "Traceback" not in err.getvalue()


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv_tail",
        [
            ["analyze"],
            ["tower", "--depth", "3"],
            ["tower", "--depth", "2", "--format", "csv"],
            ["dims", "--kmax", "5"],
            ["verify-tl", "--kmax", "1"],
        ],
    )
    def test_repeat_runs_are_identical(self, write_inclusion, capsys, argv_tail):
        argv = [argv_tail[0], "--input", write_inclusion("C-in-C2xM2")] + argv_tail[1:]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert first.endswith("\n")

    def test_fixed_repeat_runs_are_identical(self, write_inclusion, write_group, capsys):
        group = write_group([{"perm_a": [0], "perm_b": [1, 2, 0]}])
        argv = ["fixed", "--input", write_inclusion("C-in-C3"), "--group", group, "--kmax", "2"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize(
        "fmt, digest",
        [
            ("json", "133493644732c1c3ebd1b6a4134e16efec0b384cb5628f1db5c5bd33155e5b0c"),
            ("csv", "57a1ce3d029210d953068238fcf6711c0264fe8dc4064a43529434bcfa19613d"),
        ],
    )
    def test_fixed_bytes_are_pinned(self, write_inclusion, write_group, capsys, fmt, digest):
        # S4 on C-in-C4 at kmax 5.  The digests were recorded when
        # closure-multiply formed every product of two orbit sums and the
        # Burnside count visited every loop; faster checks keep the bytes.
        group = write_group(
            [{"perm_a": [0], "perm_b": [1, 0, 2, 3]}, {"perm_a": [0], "perm_b": [1, 2, 3, 0]}]
        )
        argv = ["fixed", "--input", write_inclusion("C-in-C4"), "--group", group, "--kmax", "5"]
        assert main(argv + ["--format", fmt]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "name, generators, kmax, digest",
        [
            # Z2 moving the base of C2-in-M2.
            (
                "C2-in-M2",
                [{"perm_a": [1, 0], "perm_b": [0]}],
                "6",
                "fedafaef18175e9a4341c79c266d234284aa909dbff106264a1f3f1cfdf0f408",
            ),
            # Z2xZ2 on C-in-C2xM2, one factor swapping the parallel edges.
            (
                "C-in-C2xM2",
                [
                    {"perm_a": [0], "perm_b": [1, 0, 2], "perm_e": [1, 0, 2, 3]},
                    {"perm_a": [0], "perm_b": [0, 1, 2], "perm_e": [0, 1, 3, 2]},
                ],
                "3",
                "05434610fc45ddd48c2b3868e6e007396feed0d29062a730fb5dcbe944a1a972",
            ),
            # S4 on C-in-C4, and Z2xZ2 on C-in-C2xM2 one degree higher.
            (
                "C-in-C4",
                [{"perm_a": [0], "perm_b": [1, 0, 2, 3]}, {"perm_a": [0], "perm_b": [1, 2, 3, 0]}],
                "7",
                "7b9ff6eebc3abf3bbbcb99443dc154911f57ae213c087c18ff1dd75780324ca5",
            ),
            (
                "C-in-C2xM2",
                [
                    {"perm_a": [0], "perm_b": [1, 0, 2], "perm_e": [1, 0, 2, 3]},
                    {"perm_a": [0], "perm_b": [0, 1, 2], "perm_e": [0, 1, 3, 2]},
                ],
                "4",
                "e7a132ffb7a22c29eb4df407319e4be2d81831ab468dc66556abbea3505eee84",
            ),
        ],
    )
    def test_fixed_json_bytes_are_pinned(self, write_inclusion, write_group, capsys, name, generators, kmax, digest):
        # The first two were recorded when closure-include and closure-shift
        # applied include and shift to every orbit sum, the last two when
        # closure-expect and projection-invariant were tested on elements and
        # fixed_dims_report counted orbits on loops; the checks on paths,
        # rows and weighted loops keep the bytes.
        argv = ["fixed", "--input", write_inclusion(name), "--group", write_group(generators), "--kmax", kmax]
        assert main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "name, argv_tail, digest",
        [
            ("C-in-C2xM2", ["tower", "--depth", "5"], "0632d998143902befe8e315bf2e7f1b9ab74a9a7a685478ceab90890e2607833"),
            (
                "C-in-C2xM2",
                ["tower", "--depth", "5", "--format", "csv"],
                "15857967d355803f7999a10aff19a5b41b46c6e0e6191ed94bff0778a34ec588",
            ),
            (
                "C-in-C2xM2",
                ["dims", "--kmax", "18", "--limit-loops", str(10**15)],
                "da7832a2668d0d2aea17736a311664ab84b365d7b2921051844c846eb58ef218",
            ),
            (
                "C-in-C2xM2",
                ["dims", "--kmax", "18", "--limit-loops", str(10**15), "--format", "csv"],
                "ce75f708536f00ace8115a0fb6ef47b43d77b60821d27b9d1fca705fd3724d72",
            ),
            ("C-in-C2", ["tower", "--depth", "5"], "c4be17bdeebeca108fbd178547e579cca7e7ac69d418686d9a8eb68c10ea5757"),
            (
                "C-in-C2",
                ["tower", "--depth", "5", "--format", "csv"],
                "8eb772ae28ca53b3c30d3531d741ffd357841c8bdeaceb2fc90a3ec5bf6aba87",
            ),
            (
                "C-in-C2",
                ["dims", "--kmax", "18", "--limit-loops", str(10**15)],
                "feff4d755cf15e3d6f9169332bfdb59e389d251aafb594281994099b180505f3",
            ),
            (
                "C-in-C2",
                ["dims", "--kmax", "18", "--limit-loops", str(10**15), "--format", "csv"],
                "ccac5f4e961126ae42bd3d737356134a96afbfe184eeef1d4ace2af7a1aed37f",
            ),
        ],
    )
    def test_tower_and_dims_bytes_are_pinned(self, write_inclusion, capsys, name, argv_tail, digest):
        # Recorded when the tower iterated the basic construction and each
        # degree's loop count was a fresh power of m m^t.
        argv = [argv_tail[0], "--input", write_inclusion(name)] + argv_tail[1:]
        assert main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("C-in-C", "8e613e6af07a0e24596dcd32acbd1a72436b2681dd1e2bc84e7de95a0fe7987e"),
            ("C-in-C2", "4265f949cd15eaecb7cb2b5333ce907d3f649ed8dfa2b6997a2ec51eb07c8ab3"),
            ("C-in-C3", "29f06884526e85cef88631bbcaad97f44ab568fe9f32e6d1bff77047555da7cd"),
            ("C-in-C4", "caac62c0718eeda110bc4e8e167da4ca26804f5a2c7692aea3006d7e49380c8e"),
            ("C-in-C5", "3b1268a9f6a5289f60c2577175d64fa5a4674535e5746529390f88e07e5ab2c9"),
            ("C-in-M2", "f4c020eabda80651168d57969854fb0725a639de7475ffd517893a0f42e43d9f"),
            ("C-in-M3", "183e6dd7df3eb1c174e316a9fd3c26958c0c8f6c19560401049dd9f94825e421"),
            ("central-C2-in-M2xM2", "3f911bca78ab68b9e8d2b04c5c9d5b719a70f50bbd438f935b97da3b3a0b3c69"),
            ("C2-in-M2", "0d68bafc9c98b3dada1f2c6ff05786860206d9896e7a824073bc0f9620827626"),
            ("C-in-C2xM2", "d5efdca2be371e425195e12c12deecdf7c3ea6a85ee6bdbd8b3bb11d8ef0d5ce"),
            ("skew-C2-in-M2xC", "50fdbd9f4f1b2a4e22cedd5920155369ca91378060641d7849a3fa1f1080bb5e"),
            ("C-C2-in-M3", "331e580690eb74edaec30ccb3f3e3206e507790d7d9eed43daf93113fd27ca1e"),
            ("uneven-C2-in-M2xC", "b9b3adf8783c8007d1b20d99a23f7ebf299e77329a04af54ff93b2950888be61"),
        ],
    )
    def test_analyze_bytes_are_pinned(self, write_inclusion, capsys, name, digest):
        # Every corpus inclusion, the non-Markov ones included; recorded when
        # the package imported every module at start-up.
        assert main(["analyze", "--input", write_inclusion(name)]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("C-in-C2", "8fd6026cb0f5681c6b80c72e18a4ba8cad2e6f4d0253451299bfdd671bebd3fe"),
            ("C-in-C3", "402cff384931c27177e71b49e30cbf1d49c8c62e925e5263be23dbf2d76164bf"),
            ("C-in-M2", "f880c3b7868b5daa6a0d64a9b1345ed6a8e76932358fd0c54b000bf5db7eaddc"),
        ],
    )
    def test_verify_tl_bytes_are_pinned(self, write_inclusion, capsys, name, digest):
        # TL_TRIO at kmax 2; recorded when the package imported every module
        # at start-up.
        assert main(["verify-tl", "--input", write_inclusion(name), "--kmax", "2"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
