"""Record `goldens.json`: the answers the benchmark checks its jobs against.

    python3 perfbench/record_goldens.py

Run from the repository root at a commit whose answers are trusted.  It
records, for each fixed-sym case, the group order, the fixed-space
dimensions and the number of subalgebra checks (the dimensions do not
depend on how the benchmark relabels the graph), and for each cli-batch
case the exit code and the SHA-256 of stdout.  The known contract breaks
are checked against the contract itself and get no golden.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

from workloads import (
    CLI_KINDS,
    GOLDENS_PATH,
    INCLUSIONS,
    KIND_EXIT,
    KNOWN_DEFECTS,
    FixedSym,
    cli_env,
    fixed_sym_generators,
    run_cli,
    write_cli_documents,
)


def fixed_sym_goldens() -> dict:
    import planaralg as P

    out = {}
    for case, name, kmax in FixedSym.CASES:
        a, m = INCLUSIONS[name]
        gens = fixed_sym_generators(case, m, list(range(len(m[0]))))
        g = P.build_graph(P.InclusionData(a, m))
        group = P.close_group(g, [P.make_automorphism(g, d["perm_a"], d["perm_b"], d["perm_e"]) for d in gens])
        report = P.verify_planar_subalgebra(group, kmax)
        if not report.all_passed:
            raise SystemExit(f"{case} on {name}: subalgebra checks fail; not recording")
        out[f"{case}:{name}:k{kmax}"] = {
            "group_order": group.order,
            "dims": P.fixed_dims_report(group, kmax),
            "checks": len(report.checks),
        }
    return out


def cli_goldens(root: str) -> dict:
    out = {}
    env = cli_env(root)
    with tempfile.TemporaryDirectory(dir=os.path.join(root, ".bench_build")) as tmp:
        paths = write_cli_documents(tmp)
        for kind, variants in CLI_KINDS.items():
            for case, template in variants:
                if case in KNOWN_DEFECTS:
                    continue
                argv = [paths.get(t, t) for t in template]
                code, stdout, stderr, _ = run_cli(argv, root, env)
                if b"Traceback" in stderr or code != KIND_EXIT.get(kind, 0):
                    raise SystemExit(f"{case}: exit {code}, which the contract does not give it; not recording")
                out[case] = {"exit": code, "stdout_sha256": hashlib.sha256(stdout).hexdigest(), "stdout_len": len(stdout)}
    return out


def main() -> int:
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    os.makedirs(os.path.join(root, ".bench_build"), exist_ok=True)
    goldens = {"fixed-sym": fixed_sym_goldens(), "cli-batch": cli_goldens(root)}
    with open(GOLDENS_PATH, "w", encoding="utf-8") as handle:
        json.dump(goldens, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDENS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
