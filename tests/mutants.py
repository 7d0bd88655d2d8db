"""Mutation runner: does each listed mutation of `src/` fail its tests?

    python tests/mutants.py            # every mutation
    python tests/mutants.py NAME ...   # the named ones

Each mutation replaces one exact text in one file with another.  The
runner copies the repository (without `.git` and build outputs) to a
temporary directory, checks that every selected text occurs exactly once,
runs the union of the named test modules once on the unmutated copy, and
then applies one mutation at a time and runs `pytest -x -q` on its test
modules, one process at a time.  It prints "killed" when the tests fail and
"survived" when they pass.  A mutation whose text no longer occurs exactly
once fails the runner, so the list follows the code: a change that moves
the text updates its mutation here.

Exit status: 0 when every mutation is killed, 1 when one survives, 2 when
the list does not match the code or the unmutated tests fail.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutation(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # occurs exactly once in the file
    new: str
    tests: tuple[str, ...]  # test modules, one of which must fail


GRAPH, SYMMETRY, TANGLES = "src/planaralg/graph.py", "src/planaralg/symmetry.py", "src/planaralg/tangles.py"
MARKOV, RADICAL = "src/planaralg/markov.py", "src/planaralg/radical.py"
T = "tests/test_{}.py".format

MUTATIONS = (
    # -- elements: normal form and products ----------------------------------
    Mutation("store-keeps-zeros", GRAPH, "if not all(entries.values()):", "if False:", (T("elements"),)),
    Mutation("store-no-common-factor", GRAPH, "    if g != 1:\n        den //= g", "    if False:\n        den //= g", (T("elements"),)),
    Mutation(
        "store-keeps-one-entry-dicts",
        GRAPH,
        "if len(entries) == 1:\n                rows[row] = entries.popitem()",
        "if False:\n                rows[row] = entries.popitem()",
        (T("elements"),),
    ),
    Mutation("store-pair-undivided", GRAPH, "(entries[0], entries[1] // g)", "(entries[0], entries[1])", (T("elements"),)),
    Mutation(
        "store-divides-pairs-only",
        GRAPH,
        "for c, n in entries.items():\n                        entries[c] = n // g",
        "for c, n in entries.items():\n                        pass",
        (T("elements"),),
    ),
    Mutation("compose-ignores-key-factor", GRAPH, "n1 *= factor", "n1 *= 1", (T("elements"), T("tangles"))),
    Mutation(
        "compose-index-other-key-factor",
        GRAPH,
        "target, factor = slots[slot]",
        "target, factor = slots[slot][0], slots[0][1]",
        (T("elements"),),
    ),
    Mutation("add-scales-by-left-denominator", GRAPH, "scale = den // part._den", "scale = den // self._den", (T("elements"),)),
    Mutation("terms-bottom-unreversed", GRAPH, "tail = ord(row[0]), row[:0:-1]", "tail = ord(row[0]), row[1:]", (T("elements"), T("graph"))),
    Mutation(
        "eq-ignores-denominator",
        GRAPH,
        "self.degree == other.degree and self._den == other._den and self._num == other._num",
        "self.degree == other.degree and self._num == other._num",
        (T("elements"),),
    ),
    Mutation("relabel-pairs-reversed", GRAPH, "image[col[i]] = n\n", "image[col[-1 - i]] = n\n", (T("elements"), T("symmetry"))),
    Mutation("relabel-overwrites", GRAPH, "acc[c] = acc.get(c, 0) + n\n", "acc[c] = n\n", (T("elements"), T("symmetry"))),
    Mutation(
        "relabel-collision-overwrites",
        GRAPH,
        "image[col[i]] = image.get(col[i], 0) + n",
        "image[col[i]] = n",
        (T("elements"), T("symmetry")),
    ),
    Mutation(
        "relabel-meet-unflagged",
        GRAPH,
        "image = (c, n)\n                        if out.setdefault(target, image) is not image:\n                            met = True\n",
        "image = (c, n)\n                        if out.setdefault(target, image) is not image:\n",
        (T("elements"), T("symmetry")),
    ),
    Mutation(
        "relabel-empty-image-unnormalized",
        GRAPH,
        "if not targets:\n                    met = True",
        "if not targets:\n                    pass",
        (T("elements"),),
    ),
    Mutation(
        "contract-keeps-other-columns",
        GRAPH,
        "for col, n in _pairs(entries) if col[-1] == last]",
        "for col, n in _pairs(entries)]",
        (T("elements"), T("tangles")),
    ),
    Mutation("contract-reads-second-last", GRAPH, "last = row[-1]", "last = row[-2]", (T("elements"), T("tangles"))),
    Mutation(
        "self-adjoint-compares-entry-with-itself",
        GRAPH,
        "(mirror != (row, n) if mirror.__class__ is tuple else mirror.get(row) != n)",
        "(entries != (col, n) if entries.__class__ is tuple else entries.get(col) != n)",
        (T("elements"), T("tangles")),
    ),
    Mutation(
        "symmetric-reads-zero-entries",
        GRAPH,
        "if not n:\n                    continue\n",
        "if False:\n                    continue\n",
        (T("elements"), T("tangles")),
    ),
    Mutation("symmetric-one-direction", GRAPH, "if not n:\n", "if not n or col < row:\n", (T("elements"), T("tangles"))),
    Mutation(
        "quotient-drops-denominator-test",
        GRAPH,
        "other._den == self._den // r and other._num == self._num",
        "other._num == self._num",
        (T("elements"), T("tangles")),
    ),
    Mutation(
        "quotient-in-place-when-r-does-not-divide",
        GRAPH,
        "if self._den % r:\n",
        "if not self._den:\n",
        (T("elements"), T("tangles")),
    ),
    Mutation(
        "compose-keeps-pair-when-met",
        GRAPH,
        "                            if acc.__class__ is tuple:\n                                acc = target[row] = dict((acc,))",
        "                            if acc.__class__ is tuple:\n                                acc = dict((acc,))",
        (T("elements"),),
    ),
    Mutation(
        "compose-index-keeps-pair-when-met",
        GRAPH,
        "                        if acc.__class__ is tuple:\n                            acc = target[row] = dict((acc,))",
        "                        if acc.__class__ is tuple:\n                            acc = dict((acc,))",
        (T("elements"),),
    ),
    Mutation("diagonal-sums-read-first-column", GRAPH, "else entries.get(row, 0)", "else next(iter(entries.values()))", (T("elements"), T("tangles"))),
    Mutation("shared-table-per-call", GRAPH, "shared = _SHARED\n", "shared = {}\n", (T("elements"),)),
    Mutation("shares-paths-not-numerators", GRAPH, "[col] = shared.setdefault(n, n)", "[col] = n", (T("elements"),)),
    # -- the path encoding -----------------------------------------------------
    Mutation("init-bottom-unreversed", GRAPH, "ids[0] + ids[:degree:-1]", "ids[0] + ids[degree + 1 :]", (T("elements"),)),
    Mutation("encode-path-unchecked", GRAPH, "except (TypeError, ValueError, OverflowError):", "except ():", (T("elements"),)),
    Mutation("rows-no-id-check", GRAPH, "        check_path_ids(self.num_a, len(self._steps[0].end))\n", "", (T("elements"),)),
    Mutation("include-prepends-edge", TANGLES, "[p + e for e in attach", "[e + p for e in attach", (T("elements"), T("tangles"))),
    Mutation(
        "act-translates-base",
        SYMMETRY,
        "[a[ord(p[0])] + p[1:].translate(e) for a, e in maps]",
        "[p.translate(e) for a, e in maps]",
        (T("symmetry"), T("elements")),
    ),
    Mutation("loop-make-unchecked", GRAPH, "def _make(cls, values) -> Loop:\n        return cls(*values)", "def _make(cls, values) -> Loop:\n        return tuple.__new__(cls, values)", (T("records"),)),
    # -- the graph: spins, steps and paths -------------------------------------
    Mutation(
        "spin-without-inverse-gamma",
        GRAPH,
        "Fraction(inclusion.b[j], inclusion.a[i])) * inv_gamma",
        "Fraction(inclusion.b[j], inclusion.a[i]))",
        (T("graph"), T("acceptance")),
    ),
    Mutation("no-spin-sum-check", GRAPH, "if total != self.gamma:", "if False:", (T("graph"),)),
    Mutation(
        "weights-formed-in-init",
        GRAPH,
        "        self.gamma = sqrt_of_int(self.r)\n",
        "        self.gamma = sqrt_of_int(self.r)\n"
        "        self._weights = tuple(RadicalScalar.from_rational(w).sqrt() for w in canonical_trace_weights(inclusion.a))\n",
        (T("graph"),),
    ),
    Mutation(
        "down-step-reads-up-spins",
        GRAPH,
        "(j, up, up_sq, i, up.invert(), down_sq)",
        "(j, up, up_sq, i, up.invert(), up_sq)",
        (T("graph"), T("tangles")),
    ),
    Mutation(
        "down-attach-descending",
        GRAPH,
        "Step(tuple(map(tuple, downs)),",
        "Step(tuple(tuple(d[::-1]) for d in downs),",
        (T("graph"),),
    ),
    Mutation("down-attach-from-lower-end", GRAPH, "downs[j] += ids", "downs[i % self.num_b] += ids", (T("graph"),)),
    Mutation(
        "loop-classes-descending",
        GRAPH,
        "table.where, table.paths))",
        "table.where, table.paths), reverse=True)",
        (T("graph"), T("symmetry")),
    ),
    Mutation(
        "paths-from-no-base-check",
        GRAPH,
        '        if not 0 <= base < self.num_a:\n            raise ValidationError(f"no lower vertex {base}")\n',
        "",
        (T("graph"),),
    ),
    Mutation("paths-from-other-bases", GRAPH, "if ord(p[0]) == base]", "if ord(p[0]) <= base]", (T("graph"),)),
    Mutation(
        "iter-loops-pairs-every-row",
        GRAPH,
        "            for bottom in bottoms[key]:\n                yield",
        "            for bottom in [b for rows in bottoms.values() for b in rows]:\n                yield",
        (T("graph"),),
    ),
    Mutation("cup-cap-spin-t-t", GRAPH, "spin[t] * spin[u] * scale", "spin[t] * spin[t] * scale", (T("graph"), T("tangles"), T("cli"))),
    Mutation(
        "shift-drops-bounce-prefix",
        GRAPH,
        "for w in down.attach[up.end[d]]]",
        "for w in down.attach[up.end[d]] if w != d]",
        (T("tangles"), T("symmetry")),
    ),
    # -- generators ----------------------------------------------------------
    Mutation(
        "shift-prefixes-keyed-by-last",
        TANGLES,
        "for prefix in prefixes(p[0])]",
        "for prefix in prefixes(p[-1])]",
        (T("elements"), T("tangles")),
    ),
    Mutation("include-wrong-direction", TANGLES, "for out in g.step(k).attach]", "for out in g.step(k + 1).attach]", (T("tangles"),)),
    Mutation("expect-wrong-weights", TANGLES, "g.step(x.degree - 1).spin_sq", "g.step(x.degree).spin_sq", (T("tangles"),)),
    Mutation(
        "far-commute-embeds-from-scratch",
        TANGLES,
        "            chain = include(g, chain)\n",
        "            chain = proj[k]\n            for _ in range(l - k):\n                chain = include(g, chain)\n",
        (T("tangles"),),
    ),
    Mutation("trace-weight-at-base", TANGLES, "Fraction(dims[z], a[v] * power)", "Fraction(dims[v], a[v] * power)", (T("tangles"),)),
    Mutation("trace-power-rounded-down", TANGLES, "power = g.r ** ((k + 1) // 2)", "power = g.r ** (k // 2)", (T("tangles"),)),
    Mutation(
        "bounce-high-as-shared-high",
        TANGLES,
        "(high * shared)._is_quotient(high, g.r)",
        "(shared * high)._is_quotient(high, g.r)",
        (T("tangles"),),
    ),
    # -- Temperley-Lieb checks on one prefix block per endpoint ---------------
    Mutation(
        "tl-blocks-one-endpoint",
        TANGLES,
        "    return set(first.values())\n",
        "    return set(list(first.values())[:1])\n",
        (T("tangles"),),
    ),
    Mutation("restricted-prefix-k-code-points", GRAPH, "if row[: k + 1] in prefixes", "if row[:k] in prefixes", (T("tangles"),)),
    Mutation(
        "restricted-skips-normal-form",
        GRAPH,
        "return PlanarElement._normal(self.degree, self._den, num)",
        "return _fill(_new(PlanarElement), self.degree, self._den, num)",
        (T("tangles"),),
    ),
    Mutation(
        "restricted-shares-source-rows",
        GRAPH,
        "row: entries if entries.__class__ is tuple else dict(entries)",
        "row: entries",
        (T("tangles"),),
    ),
    Mutation(
        "bounce-high-against-unrestricted",
        TANGLES,
        "(high * shared)._is_quotient(high, g.r)",
        "(high * shared)._is_quotient(proj[k + 1], g.r)",
        (T("tangles"),),
    ),
    # -- groups and fixed dimensions -------------------------------------------
    Mutation("fixed-dims-while-true", SYMMETRY, "        if gram:\n", "        if True:\n", (T("symmetry"),)),
    Mutation(
        "fixed-dims-counts-paths",
        SYMMETRY,
        "matrix.setdefault(i, {})[j] = c",
        "matrix.setdefault(i, {})[j] = 1",
        (T("symmetry"), T("graph")),
    ),
    Mutation(
        "fixed-dims-no-divisibility-check",
        SYMMETRY,
        "if [dim * order for dim in dims] != totals:",
        "if False:",
        (T("symmetry"),),
    ),
    Mutation(
        "fixed-dims-walks-loops",
        SYMMETRY,
        "    totals = [0] * (kmax + 1)\n",
        "    totals = [0] * (kmax + 1)\n    list(group.graph.iter_loops(0))\n",
        (T("symmetry"),),
    ),
    Mutation(
        "fixed-subgraphs-read-rows",
        SYMMETRY,
        "    table = []\n",
        "    paths, where = g.rows(0)\n    table = []\n",
        (T("symmetry"),),
    ),
    Mutation(
        "bundle-count-with-moved-upper-end",
        SYMMETRY,
        "if a[i] == i and b[j] == j]",
        "if a[i] == i]",
        (T("symmetry"),),
    ),
    Mutation(
        "fixed-key-image-keeps-upper-end",
        SYMMETRY,
        "(a[i], b[j], c) for i, j, c in fixed]",
        "(a[i], j, c) for i, j, c in fixed]",
        (T("symmetry"),),
    ),
    Mutation(
        "basis-orbit-top-bottom-swapped",
        SYMMETRY,
        "zip(images(bottom), images(top))",
        "zip(images(top), images(bottom))",
        (T("symmetry"),),
    ),
    Mutation(
        "basis-orbit-from-generators",
        SYMMETRY,
        "cache(_path_images(group.elements))",
        "cache(_path_images(group.generators))",
        (T("symmetry"),),
    ),
    Mutation("basis-seen-not-updated", SYMMETRY, "                seen.update(orbit)\n", "", (T("symmetry"),)),
    Mutation(
        "perm-e-keyed-upper-lower",
        SYMMETRY,
        "between = {pair: e for e, pair",
        "between = {pair[::-1]: e for e, pair",
        (T("symmetry"),),
    ),
    Mutation(
        "incidence-compares-upper-ends-only",
        SYMMETRY,
        "if pairs[f] != (perm_a[i], perm_b[j]):",
        "if pairs[f][1] != perm_b[j]:",
        (T("symmetry"),),
    ),
    Mutation(
        "fixed-subgraphs-ends-swapped",
        SYMMETRY,
        "matrix.setdefault(i, {})[j] = c",
        "matrix.setdefault(j, {})[i] = c",
        (T("symmetry"),),
    ),
    Mutation(
        "basis-walks-rows-twice",
        SYMMETRY,
        "    (paths, where), classes = group.graph._loop_rows(k)\n",
        "    group.graph.rows(k)\n    (paths, where), classes = group.graph._loop_rows(k)\n",
        (T("symmetry"),),
    ),
    Mutation(
        "verifier-reads-rows",
        SYMMETRY,
        "    closure, equivariance = [], []\n",
        "    closure, equivariance = [], []\n    group.graph.rows(kmax)\n",
        (T("symmetry"),),
    ),
    Mutation(
        "verifier-builds-an-element",
        SYMMETRY,
        "    closure, equivariance = [], []\n",
        "    closure, equivariance = [], []\n    PlanarElement(kmax)\n",
        (T("symmetry"),),
    ),
    Mutation(
        "automorphism-compares-weights",
        SYMMETRY,
        '(("a", g.inclusion.a, perm_a), ("b", g.inclusion.b, perm_b))',
        '(("a", g.weights_a, perm_a), ("b", g.weights_b, perm_b))',
        (T("symmetry"),),
    ),
    Mutation(
        "act-ignores-perm-a",
        SYMMETRY,
        "[a[ord(p[0])] + p[1:].translate(e) for a, e in maps]",
        "[p[0] + p[1:].translate(e) for a, e in maps]",
        (T("symmetry"), T("elements")),
    ),
    Mutation(
        "path-images-first-element-only",
        SYMMETRY,
        "p[1:].translate(e) for a, e in maps]",
        "p[1:].translate(e) for a, e in maps[:1]]",
        (T("symmetry"),),
    ),
    Mutation("reynolds-no-graph-check", SYMMETRY, "    check_path_ids(g.num_a, len(g.step(0).end))\n", "", (T("elements"),)),
    Mutation(
        "group-copy-drops-generators",
        SYMMETRY,
        "return close_group, (self.graph, self.generators, self.order)",
        "return close_group, (self.graph, (), self.order)",
        (T("symmetry"),),
    ),
    Mutation(
        "group-copy-default-limit",
        SYMMETRY,
        "return close_group, (self.graph, self.generators, self.order)",
        "return close_group, (self.graph, self.generators)",
        (T("symmetry"),),
    ),
    Mutation("closure-limit-unchecked", SYMMETRY, "    if limit < 1:\n", "    if False:\n", (T("symmetry"),)),
    Mutation("closure-limit-off-by-one", SYMMETRY, "if len(seen) + 1 > limit:", "if len(seen) > limit:", (T("symmetry"),)),
    Mutation(
        "group-direct-constructor",
        SYMMETRY,
        "    def __new__(cls, *args, **kwargs):\n        raise TypeError(\"GroupAction is built only by close_group(graph, generators)\")\n\n",
        "",
        (T("symmetry"),),
    ),
    # -- inclusions and the tower --------------------------------------------
    Mutation(
        "algebra-dims-unchecked",
        MARKOV,
        '        for n in blocks:\n            if isinstance(n, bool) or not isinstance(n, int) or n < 1:\n'
        '                raise ValidationError(f"block dimension {n!r} is not a positive integer")\n',
        "",
        (T("markov"), T("records")),
    ),
    Mutation(
        "inclusion-make-unchecked",
        MARKOV,
        "def _make(cls, values) -> InclusionData:\n        return cls(*values)",
        "def _make(cls, values) -> InclusionData:\n        return tuple.__new__(cls, values)",
        (T("records"),),
    ),
    Mutation(
        "loop-dims-from-larger-side",
        MARKOV,
        "for star in upper.values() if len(rows) <= len(upper) else [row.items() for row in rows.values()]:",
        "for star in [row.items() for row in rows.values()] if len(rows) <= len(upper) else upper.values():",
        (T("cli"),),
    ),
    Mutation("gram-from-larger-side", MARKOV, "if len(rows) <= len(upper) else", "if len(rows) > len(upper) else", (T("cli"), T("symmetry"))),
    Mutation(
        "closed-walks-odd-degree-as-square",
        MARKOV,
        "yield sum([h * product[x].get(y, 0) for",
        "yield sum([h * h for",
        (T("markov"), T("graph")),
    ),
    Mutation("loop-dims-degree-0-other-side", MARKOV, "chain([inc.rows],", "chain([inc.cols],", (T("graph"), T("markov"))),
    Mutation("b-plain-property", MARKOV, "    @cached_property\n    def b(self)", "    @property\n    def b(self)", (T("markov"),)),
    Mutation("tower-classifies-at-depth-0", MARKOV, "r = markov_index(inc) if depth > 0 else 1", "r = markov_index(inc)", (T("markov"),)),
    # -- the sparse map and its readers ------------------------------------------
    Mutation("plain-rows-unsigned", MARKOV, "<= {int} or min(row) < 0:", "<= {int}:", (T("markov"), T("records"))),
    Mutation("zero-column-reports-last", MARKOV, "column {min(zero_columns)} of", "column {max(zero_columns)} of", (T("markov"),)),
    Mutation("b-reads-column-block", MARKOV, "b[j] += count * self.a[i]", "b[j] += count * self.a[j % self.rows]", (T("markov"),)),
    Mutation("markov-defect-never-found", MARKOV, "            return i, mb, r * inc.a[i]\n", "            pass\n", (T("markov"),)),
    Mutation("word-norm-entries-transposed", MARKOV, "m[i, list(columns)] =", "m[list(columns), i] =", (T("markov"),)),
    Mutation("markov-witness-last-block", MARKOV, "for i, row in inc._sparse.items():", "for i, row in reversed(inc._sparse.items()):", (T("cli"),)),
    Mutation(
        "centrality-count-off-by-one",
        MARKOV,
        "sum(map(len, inc._sparse.values())) == inc.cols",
        "sum(map(len, inc._sparse.values())) == inc.cols + 1",
        (T("markov"),),
    ),
    Mutation("edge-ids-columns-descending", GRAPH, "for j, count in row.items():", "for j, count in reversed(row.items()):", (T("graph"),)),
    Mutation(
        "parallel-test-misses-doubles",
        SYMMETRY,
        "for count in row.values()):",
        "for count in row.values() if count > 2):",
        (T("symmetry"),),
    ),
    Mutation("tower-squares-the-index", MARKOV, "r**k * n for n in dims", "r**(2 * k) * n for n in dims", (T("markov"), T("cli"))),
    # -- scalars -------------------------------------------------------------
    Mutation("sqrt-ignores-denominator", RADICAL, "for sign, m in ((2, n), (-2, self._den)):", "for sign, m in ((2, n),):", (T("radical"),)),
    Mutation(
        "invert-loses-sign",
        RADICAL,
        "{new_key: (1 if n > 0 else -1) * self._den * num}",
        "{new_key: self._den * num}",
        (T("radical"),),
    ),
    Mutation("mapping-constructor-reads-fraction", RADICAL, "term = cls.monomial(coeff, {})", "term = cls.monomial(Fraction(coeff), {})", (T("radical"),)),
    Mutation(
        "monomial-no-exponent-check",
        RADICAL,
        '            if isinstance(e, bool) or not isinstance(e, int):\n'
        '                raise ValidationError(f"radical exponent {e!r} is not an integer")\n',
        "",
        (T("radical"),),
    ),
    Mutation("reduced-no-gcd", RADICAL, "    g = gcd(den, *num.values())\n", "    g = 1\n", (T("radical"),)),
    Mutation("key-product-no-cache", RADICAL, "@lru_cache(maxsize=4096)\ndef _key_product", "def _key_product", (T("tangles"),)),
    Mutation(
        "scalar-add-keeps-zeros",
        RADICAL,
        "            if total:\n                num[k] = total\n            else:\n                del num[k]\n        return _reduced(da * sa, num)",
        "            num[k] = total\n        return _reduced(da * sa, num)",
        (T("radical"),),
    ),
)


def run_tests(tree: Path, tests) -> int:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main(names: list[str]) -> int:
    selected = [m for m in MUTATIONS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTATIONS}
    stale = [m.name for m in selected if (ROOT / m.path).read_text(encoding="utf-8").count(m.old) != 1]
    missing = sorted({t for m in selected for t in m.tests if not (ROOT / t).is_file()})
    if unknown or stale or missing:
        print(f"unknown mutations {sorted(unknown)}, stale texts {stale}, missing test modules {missing}")
        return 2
    with tempfile.TemporaryDirectory(prefix="planaralg-mutants-") as scratch:
        tree = Path(scratch) / "repo"
        ignore = shutil.ignore_patterns(".git", ".bench_build", "__pycache__", ".hypothesis", ".pytest_cache")
        shutil.copytree(ROOT, tree, ignore=ignore)
        every = sorted({t for m in selected for t in m.tests})
        if run_tests(tree, every) != 0:
            print(f"the unmutated tests fail: {' '.join(every)}")
            return 2
        survived = 0
        for m in selected:
            target = tree / m.path
            original = target.read_text(encoding="utf-8")
            target.write_text(original.replace(m.old, m.new), encoding="utf-8")
            start = time.perf_counter()
            try:
                code = run_tests(tree, m.tests)
            finally:
                target.write_text(original, encoding="utf-8")
            if code not in (0, 1, 2):
                print(f"pytest exit {code} on {m.name}")
                return 2
            survived += code == 0
            verdict = "survived" if code == 0 else "killed"
            print(f"{verdict:8}  {m.name}  ({' '.join(m.tests)}, {time.perf_counter() - start:.1f} s)", flush=True)
    print(f"{len(selected) - survived} of {len(selected)} killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
