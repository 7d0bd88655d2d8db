"""Acceptance gate: one timed end-to-end test per shipped guarantee.

Each test prints a single PASS line with its elapsed time; the stated time
budget and tolerance are asserted, so a regression in either fails loudly.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import planaralg
from planaralg import (
    EigenvectorViolationError,
    PlanarElement,
    RadicalScalar,
    analyze,
    build_graph,
    close_group,
    expect,
    fixed_dims_report,
    include,
    jones_tower,
    loop_space_dim,
    make_automorphism,
    shift,
    sqrt_of_int,
    trace,
    verify_planar_subalgebra,
    verify_temperley_lieb,
    word_norm,
)
from planaralg import graph
from planaralg.cli import main as cli_main
from planaralg.markov import markov_index
from conftest import (
    CORPUS,
    MARKOV_CORPUS,
    TL_TRIO,
    corpus_entry,
)

COEFF_POOL = (
    RadicalScalar.one(),
    RadicalScalar.from_rational(Fraction(-1)),
    RadicalScalar.from_rational(Fraction(1, 2)),
    RadicalScalar.from_rational(Fraction(-2, 3)),
    sqrt_of_int(2),
    RadicalScalar.monomial(Fraction(1, 2), {2: 1}),
)


def _finish(number: int, label: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s, budget {budget:.0f}s"
    print(f"ACCEPTANCE {number} ({label}): PASS in {elapsed:.2f}s")


def _random_element(rng: random.Random, loops) -> PlanarElement:
    terms = {}
    for _ in range(rng.randint(1, 3)):
        terms[rng.choice(loops)] = rng.choice(COEFF_POOL)
    return PlanarElement(loops[0].degree, terms)


def test_criterion_1_markov_classification():
    started = time.perf_counter()
    for entry in CORPUS:
        report = analyze(entry.inclusion())
        assert report.is_markov == entry.markov, entry.name
        assert report.r == entry.r, entry.name
        assert report.is_abelian == entry.abelian, entry.name
        assert report.index_violation is False, entry.name
        if report.is_markov:
            assert report.r.denominator == 1, entry.name
    _finish(1, "exact classification of the frozen corpus", started, 1.0)


def test_criterion_2_word_norms():
    started = time.perf_counter()
    for entry in MARKOV_CORPUS:
        inc = entry.inclusion()
        r = int(entry.r)
        for length in range(1, 7):
            for starts_with in ("m", "mt"):
                numeric, exact = word_norm(inc, length, starts_with=starts_with)
                assert exact * exact == r**length
                reference = exact.to_float()
                assert abs(numeric - reference) <= 1e-9 * max(1.0, reference)
    _finish(2, "word norms within 1e-9 of exact index powers", started, 5.0)


def test_criterion_3_eigenvector_identity(monkeypatch):
    started = time.perf_counter()
    for entry in MARKOV_CORPUS:
        g = build_graph(entry.inclusion())
        for i in range(g.num_a):
            total = RadicalScalar.zero()
            for eid in g.edges_up(i):
                total = total + g.weights_b[g.edge(eid).dst]
            assert total == g.gamma * g.weights_a[i]
        for j in range(g.num_b):
            total = RadicalScalar.zero()
            for eid in g.step(1).attach[j]:
                total = total + g.weights_a[g.edge(eid).src]
            assert total == g.gamma * g.weights_b[j]
    # Negative control: under a wrong index (2r) the squared spins out of a
    # vertex miss gamma, and the build fails at zero tolerance.
    monkeypatch.setattr(graph, "markov_index", lambda inc: 2 * markov_index(inc))
    with pytest.raises(EigenvectorViolationError):
        build_graph(corpus_entry("C-in-C2").inclusion())
    _finish(3, "weight vector is an exact graph eigenvector", started, 5.0)


def test_criterion_4_loop_counts():
    started = time.perf_counter()
    for entry in MARKOV_CORPUS:
        inc = entry.inclusion()
        g = build_graph(inc)
        for k in range(7):
            expected = loop_space_dim(inc, k)
            assert sum(1 for _ in g.iter_loops(k)) == expected, (entry.name, k)
    _finish(4, "enumerated loop counts match the trace formula up to degree 6", started, 10.0)


def test_criterion_5_diagram_relations():
    started = time.perf_counter()
    for name in TL_TRIO:
        g = build_graph(corpus_entry(name).inclusion())
        checks = verify_temperley_lieb(g, 3)
        assert len(checks) == 17
        failed = [c for c in checks if not c.passed]
        assert not failed, (name, failed)
    _finish(5, "projection relations hold exactly for the trio at kmax 3", started, 30.0)


def test_criterion_6_operation_laws_fuzz():
    started = time.perf_counter()
    g = build_graph(corpus_entry("C-in-C2").inclusion())
    loops = {k: g.enumerate_loops(k) for k in range(5)}
    rng = random.Random(2024)
    checks = 0
    for _ in range(100):
        d = rng.randint(0, 3)
        x = _random_element(rng, loops[d])
        y = _random_element(rng, loops[d])
        z = _random_element(rng, loops[d])
        assert (x * y) * z == x * (y * z)
        checks += 1
        d = rng.randint(0, 2)
        x = _random_element(rng, loops[d])
        y = _random_element(rng, loops[d])
        assert include(g, x * y) == include(g, x) * include(g, y)
        checks += 1
        d = rng.randint(0, 1)
        x = _random_element(rng, loops[d])
        y = _random_element(rng, loops[d])
        assert shift(g, x * y) == shift(g, x) * shift(g, y)
        checks += 1
        d = rng.randint(0, 2)
        a = _random_element(rng, loops[d])
        b = _random_element(rng, loops[d])
        y = _random_element(rng, loops[d + 1])
        assert expect(g, include(g, a) * y * include(g, b)) == a * expect(g, y) * b
        checks += 1
        d = rng.randint(0, 3)
        x = _random_element(rng, loops[d])
        y = _random_element(rng, loops[d])
        assert trace(g, x * y) == trace(g, y * x)
        checks += 1
    assert checks == 500
    _finish(6, "500 randomized exact operation-law checks", started, 60.0)


def test_criterion_7_fixed_point_subalgebras():
    started = time.perf_counter()
    g2 = build_graph(corpus_entry("C-in-C2").inclusion())
    swap = make_automorphism(g2, [0], [1, 0])
    group2 = close_group(g2, [swap])
    assert fixed_dims_report(group2, 3) == [1, 1, 2, 4]
    report2 = verify_planar_subalgebra(group2, 3)
    assert report2.all_passed

    g3 = build_graph(corpus_entry("C-in-C3").inclusion())
    cycle = make_automorphism(g3, [0], [1, 2, 0])
    group3 = close_group(g3, [cycle])
    assert fixed_dims_report(group3, 3) == [1, 1, 3, 9]
    report3 = verify_planar_subalgebra(group3, 3)
    assert report3.all_passed
    _finish(7, "fixed-space dimensions and subalgebra checks", started, 60.0)


def test_criterion_8_tower_consistency():
    started = time.perf_counter()
    for entry in MARKOV_CORPUS:
        inc = entry.inclusion()
        r = entry.r
        tower = jones_tower(inc, 4)
        for k in range(5):
            assert Fraction(tower[2 * k + 1].total_dim, tower[2 * k].total_dim) == r
    _finish(8, "tower dimensions agree", started, 1.0)


def test_criterion_9_cli_determinism(tmp_path, capsys):
    started = time.perf_counter()
    inclusion_path = tmp_path / "inclusion.json"
    inclusion_path.write_text(
        json.dumps(corpus_entry("C-in-C2xM2").inclusion().to_dict()), encoding="utf-8"
    )
    small_path = tmp_path / "two-point.json"
    small_path.write_text(
        json.dumps(corpus_entry("C-in-C2").inclusion().to_dict()), encoding="utf-8"
    )
    group_path = tmp_path / "group.json"
    group_path.write_text(
        json.dumps({"generators": [{"perm_a": [0], "perm_b": [1, 0]}]}), encoding="utf-8"
    )

    command_table = [
        ["analyze", "--input", str(inclusion_path)],
        ["tower", "--input", str(inclusion_path), "--depth", "3"],
        ["tower", "--input", str(inclusion_path), "--depth", "2", "--format", "csv"],
        ["dims", "--input", str(inclusion_path), "--kmax", "5"],
        ["dims", "--input", str(inclusion_path), "--kmax", "5", "--format", "csv"],
        ["verify-tl", "--input", str(small_path), "--kmax", "2"],
        ["fixed", "--input", str(small_path), "--group", str(group_path), "--kmax", "3"],
    ]
    for argv in command_table:
        assert cli_main(argv) == 0
        first = capsys.readouterr().out
        assert cli_main(argv) == 0
        second = capsys.readouterr().out
        assert first == second, argv
        assert first.endswith("\n")

    # Fresh interpreter runs must also agree byte for byte.  They import the
    # package this process imported, also when only pytest's `pythonpath`
    # setting put it on sys.path.
    argv = [sys.executable, "-m", "planaralg", "analyze", "--input", str(inclusion_path)]
    package_root = str(Path(planaralg.__file__).resolve().parents[1])
    paths = [package_root, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    runs = [subprocess.run(argv, capture_output=True, timeout=120, env=env) for _ in range(2)]
    assert all(run.returncode == 0 for run in runs)
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout
    _finish(9, "byte-identical reports across repeated runs", started, 60.0)
