"""The four benchmark workloads: seeded inputs, jobs, and answer checks.

A job is one verification call or one CLI process.  Each workload lists a
fixed set of job kinds; one *round* runs every kind once, in an order and
on inputs drawn from the seed, so every complete round has the same
composition whatever the seed.  Each job checks its answer against
something the code under test did not compute: a theorem (every relation
and subalgebra verdict is true, `gamma**2 == r`), a closed form (relation
counts, `r == 2`, weights), or a golden recorded in `goldens.json`.

Why these workloads:

* tl-exact   -- `verify_temperley_lieb` and seeded algebra-law checks on
  graphs with irrational index: the radical ring and large sparse element
  products.  Never touches `symmetry` or `cli`.
* fixed-sym  -- `fixed_dims_report` plus `verify_planar_subalgebra`: many
  one-term element products, `act`, `==` and the quadratic equivariance
  loop, mostly on rational coefficients.
* cli-batch  -- fresh `python -m planaralg` processes across the whole exit
  code contract: interpreter start, import, parse and report, with almost
  no loop algebra.
* factor     -- `build_graph`, `analyze` and `word_norm` on a=[x, x] with a
  fresh semiprime x: exact square roots whose cost is integer factoring.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDENS_PATH = os.path.join(HERE, "goldens.json")


@dataclass
class Outcome:
    ok: bool
    note: str = ""
    stdout_bytes: int = 0
    exit_code: int | None = None
    trace: dict | None = None  # tracer snapshot of a traced child process
    kernel: tuple[float, int] | None = None  # speed samples of a child: (s, calls)


@dataclass
class Job:
    kind: str
    sizes: dict
    run: Callable[[bool], Outcome]  # argument: traced run
    known_defect: str | None = None
    expected_exit: int | None = None  # CLI jobs with a golden


def load_goldens() -> dict:
    with open(GOLDENS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


# -- inputs shared by several workloads ----------------------------------------

# Inclusions by the names the test corpus uses: (a, m).
INCLUSIONS = {
    "C-in-C2": ([1], [[1, 1]]),
    "C-in-C3": ([1], [[1, 1, 1]]),
    "C-in-C4": ([1], [[1, 1, 1, 1]]),
    "C-in-C5": ([1], [[1, 1, 1, 1, 1]]),
    "C-in-M2": ([1], [[2]]),
    "C2-in-M2": ([1, 1], [[1], [1]]),
    "C-in-C2xM2": ([1], [[1, 1, 2]]),
    "skew-C2-in-M2xC": ([1, 1], [[1, 1], [1, 0]]),
}


def relabel_columns(m, perm):
    """Matrix with column j moved to position perm[j]."""
    out = [[0] * len(row) for row in m]
    for i, row in enumerate(m):
        for j, v in enumerate(row):
            out[i][perm[j]] = v
    return out


def automorphism(m, perm_a, perm_b, bundle_perms=None) -> dict:
    """Group-document generator from vertex permutations.

    Edge ids follow the documented input convention: row-major over the
    matrix, the m_ij parallel copies of (i, j) consecutive.  `bundle_perms`
    maps (i, j) to a permutation of its copies (identity when absent).
    """
    offsets = {}
    nxt = 0
    for i, row in enumerate(m):
        for j, count in enumerate(row):
            offsets[(i, j)] = nxt
            nxt += count
    perm_e = [0] * nxt
    for (i, j), start in offsets.items():
        copies = (bundle_perms or {}).get((i, j), list(range(m[i][j])))
        for c in range(m[i][j]):
            perm_e[start + c] = offsets[(perm_a[i], perm_b[j])] + copies[c]
    return {"perm_a": list(perm_a), "perm_b": list(perm_b), "perm_e": perm_e}


def _relation_count(kmax: int) -> int:
    # idempotent + trace per index, two bounce relations per adjacent pair,
    # one far-commute relation per pair of indices at least two apart
    return 2 * (kmax + 1) + 2 * kmax + kmax * (kmax - 1) // 2


# -- deterministic primes for the factor workload ------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; the twelve prime bases are proven
    correct for n < 3.3 * 10**24, far above the 17-digit primes used here."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng: random.Random, digits: int) -> int:
    while True:
        candidate = rng.randrange(10 ** (digits - 1), 10**digits) | 1
        if is_prime(candidate):
            return candidate


# -- workloads -------------------------------------------------------------------


class Workload:
    name = ""
    in_process = True
    # Seconds one round takes on the reference machine (two cores, Python
    # 3.11); it fixes how many rounds a run of a given length measures.
    round_seconds = 1.0

    def setup(self, seed: int, scratch: str) -> tuple[float, int] | None:
        """Build the inputs; an out-of-process workload returns the host
        speed samples (kernel seconds, calls) its children took meanwhile."""
        raise NotImplementedError

    def round(self, index: int) -> list[Job]:
        raise NotImplementedError


class TlExact(Workload):
    """Relation checks among the Jones idempotents, plus algebra laws."""

    name = "tl-exact"
    round_seconds = 7.0
    # (graph, kmax): C-in-C2xM2 at 5 and 6, C-in-C5 at 5, C-in-C3 at 6.
    TL_CASES = (("C-in-C2xM2", 5), ("C-in-C2xM2", 6), ("C-in-C5", 5), ("C-in-C3", 6))
    # Five laws in three jobs, each cheaper than the cheapest relation job,
    # so the median job of a round is always a relation check.
    LAWS = (
        ("associativity+trace", ("associativity", "trace-cyclic")),
        ("morphisms", ("include-morphism", "shift-morphism")),
        ("expect-bimodule", ("expect-bimodule",)),
    )
    LAW_GRAPH = "C-in-C2xM2"
    LAW_DEGREE = 4
    LAW_TERMS = 100

    def setup(self, seed, scratch):
        import planaralg as P

        self.P = P
        self.seed = seed
        rng = random.Random(f"tl-exact:{seed}")
        self.graphs = {}
        self.matrices = {}
        for name in sorted({c[0] for c in self.TL_CASES} | {self.LAW_GRAPH}):
            a, m = INCLUSIONS[name]
            perm = list(range(len(m[0])))
            rng.shuffle(perm)
            self.matrices[name] = relabel_columns(m, perm)
            self.graphs[name] = P.build_graph(P.InclusionData(a, self.matrices[name]))
        g = self.graphs[self.LAW_GRAPH]
        self.loops = {k: g.enumerate_loops(k) for k in (self.LAW_DEGREE, self.LAW_DEGREE + 1)}
        # Radical monomials in the graph's own field: the index root and spins.
        self.radicals = [P.RadicalScalar.one(), g.gamma] + [
            g.spin_factor(e.id, d) for e in g.edges for d in ("up", "down")
        ]

    def _element(self, rng, degree):
        P = self.P
        loops = rng.sample(self.loops[degree], self.LAW_TERMS)
        terms = {}
        for loop in loops:
            q = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
            terms[loop] = rng.choice(self.radicals) * q
        return P.PlanarElement(degree, terms)

    def round(self, index):
        P = self.P
        rng = random.Random(f"tl-exact:{self.seed}:{index}")
        jobs = []
        for name, kmax in self.TL_CASES:
            g = self.graphs[name]

            def run(traced, g=g, kmax=kmax):
                checks = P.verify_temperley_lieb(g, kmax)
                failed = [c for c in checks if not c.passed]
                if failed:
                    return Outcome(False, f"relation {failed[0].relation}{failed[0].indices} failed")
                if len(checks) != _relation_count(kmax):
                    return Outcome(False, f"{len(checks)} relations, expected {_relation_count(kmax)}")
                return Outcome(True)

            jobs.append(Job(f"tl:{name}:k{kmax}", {"graph": self.matrices[name], "kmax": kmax}, run))
        g = self.graphs[self.LAW_GRAPH]
        k = self.LAW_DEGREE
        for job_name, laws in self.LAWS:
            x, y, z = (self._element(rng, k) for _ in range(3))
            w = self._element(rng, k + 1)

            def run(traced, laws=laws, x=x, y=y, z=z, w=w):
                holds = {
                    "associativity": lambda: (x * y) * z == x * (y * z),
                    "trace-cyclic": lambda: P.trace(g, x * y) == P.trace(g, y * x),
                    "include-morphism": lambda: P.include(g, x * y) == P.include(g, x) * P.include(g, y),
                    "shift-morphism": lambda: P.shift(g, x * y) == P.shift(g, x) * P.shift(g, y),
                    "expect-bimodule": lambda: P.expect(g, P.include(g, x) * w * P.include(g, y))
                    == x * P.expect(g, w) * y,
                }
                for law in laws:
                    if not holds[law]():
                        return Outcome(False, f"law {law} does not hold")
                return Outcome(True)

            sizes = {"graph": self.matrices[self.LAW_GRAPH], "degree": k, "terms": self.LAW_TERMS}
            jobs.append(Job(f"law:{job_name}", sizes, run))
        rng.shuffle(jobs)
        return jobs


def fixed_sym_generators(case, m, col_of):
    """Generators on the relabeled matrix; col_of maps an original
    column index to its relabeled position."""
    if case == "S4":
        cols = [col_of[j] for j in range(4)]
        transposition = list(range(4))
        transposition[cols[0]], transposition[cols[1]] = cols[1], cols[0]
        cycle = list(range(4))
        for t in range(4):
            cycle[cols[t]] = cols[(t + 1) % 4]
        return [automorphism(m, [0], transposition), automorphism(m, [0], cycle)]
    if case == "Z2xZ2":
        single_a, single_b, double = col_of[0], col_of[1], col_of[2]
        swap = list(range(3))
        swap[single_a], swap[single_b] = single_b, single_a
        return [
            automorphism(m, [0], swap),
            automorphism(m, [0], [0, 1, 2], {(0, double): [1, 0]}),
        ]
    if case == "Z2":
        return [automorphism(m, [1, 0], [0])]
    raise ValueError(case)


class FixedSym(Workload):
    """Fixed-space dimensions and subalgebra verification under symmetries."""

    name = "fixed-sym"
    round_seconds = 7.0
    # (case, graph, kmax); `fixed_sym_generators` builds the group of each case.
    CASES = (
        ("S4", "C-in-C4", 3),
        ("S4", "C-in-C4", 4),
        ("Z2xZ2", "C-in-C2xM2", 3),
        ("Z2", "C2-in-M2", 6),
    )

    def setup(self, seed, scratch):
        import planaralg as P

        self.P = P
        self.seed = seed
        self.goldens = load_goldens()["fixed-sym"]
        rng = random.Random(f"fixed-sym:{seed}")
        self.groups = {}
        self.inputs = {}
        for case, name, _ in self.CASES:
            if (case, name) in self.groups:
                continue
            a, m = INCLUSIONS[name]
            col_of = list(range(len(m[0])))
            rng.shuffle(col_of)
            m = relabel_columns(m, col_of)
            gens = fixed_sym_generators(case, m, col_of)
            g = P.build_graph(P.InclusionData(a, m))
            autos = [P.make_automorphism(g, d["perm_a"], d["perm_b"], d["perm_e"]) for d in gens]
            self.groups[(case, name)] = P.close_group(g, autos)
            self.inputs[(case, name)] = {"a": a, "m": m, "generators": gens}

    def round(self, index):
        P = self.P
        rng = random.Random(f"fixed-sym:{self.seed}:{index}")
        jobs = []
        for case, name, kmax in self.CASES:
            key = f"{case}:{name}:k{kmax}"
            golden = self.goldens[key]
            group = self.groups[(case, name)]

            def run(traced, group=group, kmax=kmax, golden=golden):
                dims = P.fixed_dims_report(group, kmax)
                report = P.verify_planar_subalgebra(group, kmax)
                if group.order != golden["group_order"]:
                    return Outcome(False, f"group order {group.order} != {golden['group_order']}")
                if dims != golden["dims"]:
                    return Outcome(False, f"dims {dims} != {golden['dims']}")
                failed = [c for c in report.checks if not c.passed]
                if failed:
                    return Outcome(False, f"check {failed[0].name} at degree {failed[0].degree} failed")
                if len(report.checks) != golden["checks"]:
                    return Outcome(False, f"{len(report.checks)} checks != {golden['checks']}")
                return Outcome(True)

            sizes = dict(self.inputs[(case, name)], kmax=kmax, group_order=golden["group_order"])
            jobs.append(Job(key, sizes, run))
        rng.shuffle(jobs)
        return jobs


class Factor(Workload):
    """Graph construction whose exact square roots factor fresh semiprimes."""

    name = "factor"
    round_seconds = 2.0
    SMALL_DIGITS = 11
    LARGE_DIGITS = (13, 14, 15, 16, 17)
    WORD_LENGTH = 3
    # Warms the factoring code paths; far below the timed sizes.
    WARMUP = 1000003 * 1000033

    def setup(self, seed, scratch):
        import planaralg as P

        self.P = P
        self.rng = random.Random(f"factor:{seed}")
        self.used = set()
        self._run_one(self.WARMUP)

    def _run_one(self, x):
        P = self.P
        inc = P.InclusionData([x, x], [[1], [1]])
        g = P.build_graph(inc)
        report = P.analyze(inc)
        numeric, exact = P.word_norm(inc, self.WORD_LENGTH)
        return g, report, numeric, exact

    def _fresh_prime(self, digits):
        while True:
            p = random_prime(self.rng, digits)
            if p not in self.used:
                self.used.add(p)
                return p

    def round(self, index):
        P = self.P
        jobs = []
        digits = list(self.LARGE_DIGITS)
        self.rng.shuffle(digits)
        for d in digits:
            p, q = self._fresh_prime(self.SMALL_DIGITS), self._fresh_prime(d)
            x = p * q

            def run(traced, x=x):
                g, report, numeric, exact = self._run_one(x)
                # a = (x, x) inside b = (2x): dim A = 2x^2, dim B = 4x^2, so r = 2,
                # the squared weights are 1/2 and 1, and the word norm is 2^(3/2).
                half = Fraction(1, 2)
                if not (report.is_markov and report.r == 2 and not report.is_abelian):
                    return Outcome(False, f"analyze gave {report}")
                if g.gamma * g.gamma != 2:
                    return Outcome(False, "gamma**2 != r")
                if any(w * w != half for w in g.weights_a) or g.weights_b[0] * g.weights_b[0] != 1:
                    return Outcome(False, "vertex weights differ from the closed form")
                for i in range(g.num_a):
                    total = P.sum_scalars(g.weights_b[g.edge(e).dst] for e in g.edges_up(i))
                    if total != g.gamma * g.weights_a[i]:
                        return Outcome(False, f"eigenvector identity fails at a{i}")
                expected = 2 ** (self.WORD_LENGTH / 2)
                if exact * exact != 2**self.WORD_LENGTH or exact.to_float() <= 0:
                    return Outcome(False, f"exact word norm {exact}")
                if abs(numeric - expected) > 1e-9 * expected:
                    return Outcome(False, f"numeric word norm {numeric}")
                return Outcome(True)

            jobs.append(Job(f"factor:{self.SMALL_DIGITS}x{d}", {"x_digits": len(str(x)), "factor_digits": [self.SMALL_DIGITS, d]}, run))
        return jobs


# -- cli-batch ------------------------------------------------------------------

BAD_DOCUMENTS = {
    "truncated": '{"a": [1], "m": [[1, 1]',
    "b-supplied": '{"a": [1], "m": [[1, 1]], "b": [1, 1]}',
    "zero-block": '{"a": [0], "m": [[1]]}',
}

GROUPS = {
    "swap-C-in-C2": ("C-in-C2", [{"perm_a": [0], "perm_b": [1, 0]}]),
    "Z2-C2-in-M2": ("C2-in-M2", [{"perm_a": [1, 0], "perm_b": [0]}]),
    "S4-C-in-C4": ("C-in-C4", [{"perm_a": [0], "perm_b": [1, 0, 2, 3]}, {"perm_a": [0], "perm_b": [1, 2, 3, 0]}]),
}

# Kinds of CLI job; a round runs one seeded variant of each.  A variant is
# (id, argv with {doc} placeholders).  Goldens hold exit code and stdout.
CLI_KINDS = {
    "analyze": [
        (f"analyze:{n}", ["analyze", "--input", f"{{inc:{n}}}"])
        for n in ("C-in-C2", "C-in-C2xM2", "C2-in-M2", "skew-C2-in-M2xC")
    ],
    "tower-json": [
        (f"tower-json:{n}:d{d}", ["tower", "--input", f"{{inc:{n}}}", "--depth", str(d)])
        for n, d in (("C-in-C3", 3), ("C2-in-M2", 4), ("C-in-C2xM2", 2))
    ],
    "tower-csv": [
        (f"tower-csv:{n}:d{d}", ["tower", "--input", f"{{inc:{n}}}", "--depth", str(d), "--format", "csv"])
        for n, d in (("C-in-C3", 3), ("C2-in-M2", 4), ("C-in-C2xM2", 2))
    ],
    "dims-18": [
        ("dims-18:C-in-C2:json", ["dims", "--input", "{inc:C-in-C2}", "--kmax", "18"]),
        ("dims-18:C-in-C2:csv", ["dims", "--input", "{inc:C-in-C2}", "--kmax", "18", "--format", "csv"]),
    ],
    "verify-tl": [
        (f"verify-tl:{n}:k2", ["verify-tl", "--input", f"{{inc:{n}}}", "--kmax", "2"])
        for n in ("C-in-C2", "C-in-C3", "C-in-M2")
    ],
    "fixed": [
        (f"fixed:{grp}:k3", ["fixed", "--input", f"{{inc:{GROUPS[grp][0]}}}", "--group", f"{{group:{grp}}}", "--kmax", "3"])
        for grp in GROUPS
    ],
    "fixed-csv": [
        (f"fixed-csv:{grp}:k4", ["fixed", "--input", f"{{inc:{GROUPS[grp][0]}}}", "--group", f"{{group:{grp}}}", "--kmax", "4", "--format", "csv"])
        for grp in GROUPS
    ],
    "dims-small": [
        (f"dims-small:{n}:k6", ["dims", "--input", f"{{inc:{n}}}", "--kmax", "6"])
        for n in ("C-in-C5", "C-in-C2xM2", "C2-in-M2")
    ],
    "refuse-input": [
        (f"refuse-input:{b}", ["analyze", "--input", f"{{bad:{b}}}"]) for b in BAD_DOCUMENTS
    ],
    "refuse-precondition": [
        ("refuse-precondition:tower", ["tower", "--input", "{inc:skew-C2-in-M2xC}", "--depth", "2"]),
        ("refuse-precondition:verify-tl", ["verify-tl", "--input", "{inc:skew-C2-in-M2xC}", "--kmax", "1"]),
    ],
    "refuse-resource": [
        ("refuse-resource:json", ["dims", "--input", "{inc:C-in-C2xM2}", "--kmax", "18"]),
        ("refuse-resource:csv", ["dims", "--input", "{inc:C-in-C2xM2}", "--kmax", "18", "--format", "csv"]),
    ],
    # Inputs that break the exit-code contract at the time the benchmark was
    # written.  They stay in the mix and count as failed jobs until fixed.
    "defect-overflow": [("defect-overflow", ["analyze", "--input", "{raw:overflow}"])],
    "defect-bool": [("defect-bool", ["tower", "--input", "{raw:bool}", "--depth", "2", "--format", "csv"])],
}

# Exit codes the contract gives each kind; every other non-defect kind exits 0.
KIND_EXIT = {"refuse-input": 2, "refuse-precondition": 3, "refuse-resource": 4}

RAW_DOCUMENTS = {
    "overflow": '{"a": [1], "m": [[' + "1" + "0" * 200 + "]]}",
    "bool": '{"a": [true], "m": [[1, 1]]}',
}

KNOWN_DEFECTS = {
    "defect-overflow": "a 10^200 matrix entry overflows a float in analyze: traceback, exit 1",
    "defect-bool": "JSON true is accepted as the block dimension 1",
}


def _defect_check(case: str, code: int, stdout: bytes, stderr: bytes) -> bool:
    """The contract: refuse with exit 2-4 or succeed, never a traceback."""
    if b"Traceback" in stderr:
        return False
    if case == "defect-overflow":
        if code in (2, 4):
            return not stdout
        if code == 0:
            try:
                return json.loads(stdout)["r"] == 10**400
            except (ValueError, KeyError, TypeError):
                return False
        return False
    if case == "defect-bool":
        return code == 2 and not stdout
    raise ValueError(case)


def write_cli_documents(directory: str) -> dict:
    """Write every document the CLI jobs read; returns placeholder -> path."""
    os.makedirs(directory, exist_ok=True)
    paths = {}

    def put(key, text):
        path = os.path.join(directory, key.replace(":", "_") + ".json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        paths["{" + key + "}"] = path

    for name, (a, m) in INCLUSIONS.items():
        put(f"inc:{name}", json.dumps({"a": a, "m": m}))
    for name, (_, gens) in GROUPS.items():
        put(f"group:{name}", json.dumps({"generators": gens}))
    for name, text in BAD_DOCUMENTS.items():
        put(f"bad:{name}", text)
    for name, text in RAW_DOCUMENTS.items():
        put(f"raw:{name}", text)
    return paths


def cli_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("PYTHONSTARTUP", None)
    return env


def run_cli(argv: list[str], root: str, env: dict, launcher_out: str | None = None, probe_out: str | None = None):
    """One fresh interpreter; returns (exit code, stdout, stderr, wall s).

    With `launcher_out`, the traced launcher runs instead of
    `python -m planaralg`, under `-X importtime`; with `probe_out`, the
    launcher that samples the host's speed (`cli_probe.py`)."""
    if launcher_out is not None:
        cmd = [sys.executable, "-X", "importtime", os.path.join(HERE, "cli_launcher.py"), launcher_out, *argv]
    elif probe_out is not None:
        cmd = [sys.executable, os.path.join(HERE, "cli_probe.py"), probe_out, *argv]
    else:
        cmd = [sys.executable, "-m", "planaralg", *argv]
    for out in (launcher_out, probe_out):
        if out is not None and os.path.exists(out):
            os.remove(out)
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, timeout=60)
    wall = time.perf_counter() - start
    return proc.returncode, proc.stdout, proc.stderr, wall


def read_kernel(path: str) -> tuple[float, int]:
    """The speed samples `cli_probe.py` wrote: (kernel seconds, calls)."""
    with open(path, encoding="utf-8") as handle:
        samples = json.load(handle)
    return samples["kernel_s"], samples["kernel_calls"]


def parse_importtime(stderr: bytes) -> dict:
    """Cumulative import seconds of the top-level packages from -X importtime."""
    out = {}
    for line in stderr.decode("utf-8", "replace").splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        module = parts[2].strip()
        if module in ("planaralg", "sympy", "numpy") and module not in out:
            out[module] = int(parts[1]) / 1e6
    return out


class CliBatch(Workload):
    """Fresh CLI processes across the exit-code contract."""

    name = "cli-batch"
    in_process = False
    round_seconds = 11.5
    # Untraced jobs run through `cli_probe.py`, which samples the host's
    # speed inside the child; off for the traced run's untraced rounds, so
    # that they match the traced ones but for the tracing.
    sample_speed = True

    def setup(self, seed, scratch):
        self.root = os.getcwd()
        self.seed = seed
        self.scratch = scratch
        self.goldens = load_goldens()["cli-batch"]
        self.paths = write_cli_documents(os.path.join(scratch, "cli-docs"))
        self.env = cli_env(self.root)
        # One call before timing so bytecode and file caches are warm.
        probe_path = os.path.join(scratch, "probe.json")
        run_cli(self._argv(CLI_KINDS["dims-18"][0][1]), self.root, self.env, probe_out=probe_path)
        return read_kernel(probe_path)

    def _argv(self, template):
        return [self.paths.get(t, t) for t in template]

    def round(self, index):
        rng = random.Random(f"cli-batch:{self.seed}:{index}")
        jobs = []
        for kind, variants in CLI_KINDS.items():
            case, template = rng.choice(variants)
            argv = self._argv(template)
            defect = KNOWN_DEFECTS.get(case)
            golden = self.goldens.get(case)

            def run(traced, case=case, argv=argv, golden=golden, defect=defect):
                out_path = os.path.join(self.scratch, "launcher.json") if traced else None
                probe_path = os.path.join(self.scratch, "probe.json") if self.sample_speed and not traced else None
                code, stdout, stderr, wall = run_cli(argv, self.root, self.env, out_path, probe_path)
                trace = kernel = None
                if probe_path is not None:
                    try:
                        kernel = read_kernel(probe_path)
                    except (OSError, ValueError, KeyError):
                        pass
                if traced:
                    trace = {"wall_s": wall, "imports": parse_importtime(stderr)}
                    try:
                        with open(out_path, encoding="utf-8") as handle:
                            trace.update(json.load(handle))
                    except (OSError, ValueError):
                        pass
                    stderr = b"\n".join(l for l in stderr.splitlines() if not l.startswith(b"import time:"))
                outcome = Outcome(True, stdout_bytes=len(stdout), exit_code=code, trace=trace, kernel=kernel)
                if defect is not None:
                    outcome.ok = _defect_check(case, code, stdout, stderr)
                    outcome.note = "" if outcome.ok else defect
                elif code != golden["exit"]:
                    outcome.ok, outcome.note = False, f"exit {code} != {golden['exit']}"
                elif hashlib.sha256(stdout).hexdigest() != golden["stdout_sha256"]:
                    outcome.ok, outcome.note = False, "stdout differs from the golden report"
                elif b"Traceback" in stderr:
                    outcome.ok, outcome.note = False, "traceback on stderr"
                return outcome

            expected = None if golden is None else golden["exit"]
            jobs.append(Job(case, {"argv": template}, run, known_defect=defect, expected_exit=expected))
        rng.shuffle(jobs)
        return jobs


WORKLOADS = {w.name: w for w in (TlExact, FixedSym, CliBatch, Factor)}
