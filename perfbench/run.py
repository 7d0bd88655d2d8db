"""planaralg benchmark: one command, four seeded job workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the package from `src/`.  The
workloads are `tl-exact`, `fixed-sym`, `cli-batch` and `factor` (see
`workloads.py` for what each one exercises and why).  The loop is closed
and single-process: one client, no threads, at most one child process at a
time.  It runs whole rounds (every job kind of the workload once), as
many as take S seconds on the reference machine, so every run measures
the same job mix (see `run_rounds`).

With `--trace 0` it reports the end-to-end metrics with tracing off:

    jobs_per_s   jobs finished per second of job wall time
    job_p50_s    median job wall time
    job_tail_s   highest job-time percentile with at least ten samples above it
    fail_ratio   failed / attempted jobs (printed; also the JSON counts)
    setup_s      median time of SETUP_REPEATS set-ups (import, graphs,
                 groups, inputs and goldens), each before any timing loop
    peak_rss_mb  peak resident memory: this process for the in-process
                 workloads, the largest child for cli-batch

The four times are given at the reference host speed: `speed.SpeedProbe`
times a fixed kernel during every job and set-up (inside the child for a
CLI call), and each time as measured, less those samples, is scaled by
the reference kernel time over the mean kernel time it saw (see `speed.py`
for why).  The printed lines show every time as measured beside it, and
the results file keeps both.

With `--trace 1` it alternates untraced and traced rounds and reports the
per-layer metrics (`tracing.py`), the tracing overhead and the share of job
time outside every wrapped layer.

The last stdout line is one JSON object {"correct", "attempted", "failed",
"metrics"}.  `failed` counts every job whose answer was wrong, including the
known contract breaks of cli-batch; `correct` is false only when some other
job failed.  Per-job results with input sizes and the run context go to
`.bench_build/perfbench/results/`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from speed import REF_S, SpeedProbe, at_reference
from tracing import MODULES, Totals, Tracer, write_spans
from workloads import WORKLOADS, Outcome

perf = time.perf_counter

MIN_JOBS = 11  # the tail percentile needs ten samples above it
SETUP_REPEATS = 5
OUT_DIR = os.path.join(".bench_build", "perfbench")

END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- context -----------------------------------------------------------------------


def _git_commit(root: str) -> str | None:
    """HEAD of the checkout when it is a git work tree; never looks above it."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def context(root: str, seed: int) -> dict:
    lines = 0
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as handle:
                    data = handle.read()
                lines += data.count(b"\n")
                digest.update(name.encode() + b"\0" + data)
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": _git_commit(root),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "seed": seed,
    }


# -- set-up ------------------------------------------------------------------------


def timed_setup(workload, seed, scratch) -> tuple[float, float]:
    """Set the workload up; (seconds as measured, seconds at reference
    speed).  A CLI workload's set-up mostly waits for a child, so it is
    scaled by the samples that child took, as a CLI job is."""
    if not workload.in_process:
        t0 = perf()
        kernel_s, kernel_calls = workload.setup(seed, scratch)
        return at_reference(perf() - t0 - kernel_s, kernel_s, kernel_calls)
    with SpeedProbe() as probe:
        mark = probe.start()
        workload.setup(seed, scratch)
        return probe.stop(mark)


def setup_in_child(args) -> tuple[float, float]:
    cmd = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", "0",
        "--setup-only",
    ]
    proc = subprocess.run(cmd, capture_output=True, timeout=60, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed with exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return tuple(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


# -- the timed loop ----------------------------------------------------------------


def run_rounds(workload, seconds, tracer=None, probe=None):
    """Run whole rounds; return the job records, the wall time and, with
    a probe, every job's time at the reference speed.

    The number of rounds is fixed by `seconds` and the workload's
    reference round time, not by the clock, so a machine that runs
    faster or slower for a while still measures the same job mix and the
    same percentiles.  The loop goes on past that count only while less
    than half of `seconds` has passed (a much faster program) or fewer
    than MIN_JOBS jobs have run.  With a tracer, even rounds run untraced
    and odd rounds traced, at least one of each.  With a probe, a job's
    time leaves out the speed samples: the probe's own for an in-process
    job, the child's for a CLI job."""
    rounds = max(2 if tracer else 1, round(seconds / workload.round_seconds))
    records = []
    references = []
    start = perf()
    index = 0
    with probe if probe is not None and workload.in_process else contextlib.nullcontext():
        while True:
            index = _run_round(workload, index, tracer, probe, records, references)
            if index >= rounds and perf() - start >= seconds / 2 and len(records) >= MIN_JOBS:
                break
    return records, perf() - start, references


def _run_round(workload, index, tracer, probe, records, references):
    """Run round `index`, appending to `records` and `references`."""
    traced = tracer is not None and index % 2 == 1
    if traced and workload.in_process:
        tracer.install(sys.modules["planaralg"])
    try:
        for job in workload.round(index):
            if traced and workload.in_process:
                tracer.enter("job")
            in_probe = probe is not None and workload.in_process
            mark = probe.start() if in_probe else perf()
            try:
                outcome = job.run(traced)
            except Exception as exc:  # a crash of the program is a failed job
                outcome = Outcome(False, f"{type(exc).__name__}: {exc}")
            if in_probe:
                elapsed, reference = probe.stop(mark)
            else:
                elapsed = reference = perf() - mark
                if probe is not None and outcome.kernel:  # a child that sampled the host's speed
                    probe.add(*outcome.kernel)
                    elapsed, reference = at_reference(elapsed - outcome.kernel[0], *outcome.kernel)
            if probe is not None:
                references.append(reference)
            if traced and workload.in_process:
                tracer.exit("job")
            records.append((job, outcome, elapsed, traced))
    finally:
        if traced and workload.in_process:
            tracer.uninstall()
    return index + 1


def tail(times):
    """(value, percentile, samples above) of the highest percentile that has
    at least ten samples above it, by nearest rank."""
    ordered = sorted(times)
    n = len(ordered)
    rank = n - 10  # 1-based rank with exactly ten samples above
    return ordered[rank - 1], 100.0 * rank / n, n - rank


# -- per-layer metrics -------------------------------------------------------------

PER_LAYER = {
    "radical.mul_calls": "count/job",
    "radical.mul_self_s": "s/job",
    "radical.mul_rational_share": "ratio",
    "radical.add_calls": "count/job",
    "radical.add_self_s": "s/job",
    "radical.sqrt_calls": "count/job",
    "radical.sqrt_self_s": "s/job",
    "graph.build_s": "s/call",
    "graph.loops": "count/job",
    "graph.enumerate_self_s": "s/job",
    "graph.elem_mul_calls": "count/job",
    "graph.elem_mul_self_s": "s/job",
    "graph.elem_mul_terms_out": "count/job",
    "graph.elem_add_calls": "count/job",
    "graph.elem_add_self_s": "s/job",
    "graph.elem_eq_calls": "count/job",
    "graph.elem_eq_self_s": "s/job",
    "tangles.jones_self_s": "s/job",
    "tangles.include_self_s": "s/job",
    "tangles.shift_self_s": "s/job",
    "tangles.expect_self_s": "s/job",
    "tangles.trace_self_s": "s/job",
    "tangles.gen_calls": "count/job",
    "tangles.gen_terms_out": "count/job",
    "tangles.checks": "count/job",
    "tangles.checks_failed": "count/job",
    "symmetry.close_group_s": "s/call",
    "symmetry.act_calls": "count/job",
    "symmetry.act_self_s": "s/job",
    "symmetry.fixed_dims_s": "s/call",
    "symmetry.verify_self_s": "s/job",
    "symmetry.verify_products": "count/job",
    "symmetry.checks": "count/job",
    "symmetry.checks_failed": "count/job",
    "markov.analyze_s": "s/call",
    "markov.word_norm_s": "s/call",
    "markov.tower_s": "s/call",
    "markov.loop_space_dim_s": "s/call",
    "cli.interpreter_s": "s/job",
    "cli.import_s": "s/job",
    "cli.import_sympy_s": "s/job",
    "cli.import_numpy_s": "s/job",
    "cli.main_self_s": "s/job",
    "cli.stdout_bytes": "count/job",
    "cli.exit_mismatches": "count/job",
    "cli.refusals": "count/job",
    "trace.overhead_ratio": "ratio",
    "trace.outside_share": "ratio",
    **{f"{m}.self_share": "ratio" for m in ("radical", "graph", "tangles", "symmetry", "markov", "cli")},
}

# metric -> (kind, span names); kinds: calls / self per job, inclusive s per call.
SPAN_METRICS = {
    "radical.mul_calls": ("calls", ["radical.mul"]),
    "radical.mul_self_s": ("self", ["radical.mul"]),
    "radical.add_calls": ("calls", ["radical.add"]),
    "radical.add_self_s": ("self", ["radical.add"]),
    "radical.sqrt_calls": ("calls", ["radical.sqrt"]),
    "radical.sqrt_self_s": ("self", ["radical.sqrt"]),
    "graph.build_s": ("per_call", ["graph.build_graph"]),
    "graph.enumerate_self_s": ("self", ["graph.enumerate"]),
    "graph.elem_mul_calls": ("calls", ["graph.elem_mul"]),
    "graph.elem_mul_self_s": ("self", ["graph.elem_mul"]),
    "graph.elem_add_calls": ("calls", ["graph.elem_add"]),
    "graph.elem_add_self_s": ("self", ["graph.elem_add"]),
    "graph.elem_eq_calls": ("calls", ["graph.elem_eq"]),
    "graph.elem_eq_self_s": ("self", ["graph.elem_eq"]),
    "tangles.jones_self_s": ("self", ["tangles.jones_projection", "tangles.jones_projection_raw"]),
    "tangles.include_self_s": ("self", ["tangles.include"]),
    "tangles.shift_self_s": ("self", ["tangles.shift"]),
    "tangles.expect_self_s": ("self", ["tangles.expect"]),
    "tangles.trace_self_s": ("self", ["tangles.trace"]),
    "tangles.gen_calls": ("calls", [f"tangles.{g}" for g in ("include", "shift", "expect", "jones_projection", "trace")]),
    "symmetry.close_group_s": ("per_call", ["symmetry.close_group"]),
    "symmetry.act_calls": ("calls", ["symmetry.act"]),
    "symmetry.act_self_s": ("self", ["symmetry.act"]),
    "symmetry.fixed_dims_s": ("per_call", ["symmetry.fixed_dims_report"]),
    "symmetry.verify_self_s": ("self", ["symmetry.verify_planar_subalgebra"]),
    "markov.analyze_s": ("per_call", ["markov.analyze"]),
    "markov.word_norm_s": ("per_call", ["markov.word_norm"]),
    "markov.tower_s": ("per_call", ["markov.jones_tower"]),
    "markov.loop_space_dim_s": ("per_call", ["markov.loop_space_dim"]),
    "cli.main_self_s": ("self", ["cli.main"]),
}

# Counters kept by the wrappers: metric -> (counter, span that must exist).
COUNT_METRICS = {
    "graph.loops": ("graph.loops", "graph.enumerate"),
    "graph.elem_mul_terms_out": ("graph.elem_mul_terms_out", "graph.elem_mul"),
    "tangles.gen_terms_out": ("tangles.gen_terms_out", "tangles.include"),
    "tangles.checks": ("tangles.checks", "tangles.verify_temperley_lieb"),
    "tangles.checks_failed": ("tangles.checks_failed", "tangles.verify_temperley_lieb"),
    "symmetry.verify_products": ("symmetry.verify_products", "symmetry.verify_planar_subalgebra"),
    "symmetry.checks": ("symmetry.checks", "symmetry.verify_planar_subalgebra"),
    "symmetry.checks_failed": ("symmetry.checks_failed", "symmetry.verify_planar_subalgebra"),
}


def layer_metrics(job_totals, setup_totals, records, untraced_mean):
    """Per-layer metrics of the traced jobs; absent targets are left out."""
    traced = [(job, out, t) for job, out, t, tr in records if tr]
    jobs = len(traced)
    job_time = job_totals.total["job"]
    absent = job_totals.absent | setup_totals.absent
    metrics = {}
    for name, (kind, spans) in SPAN_METRICS.items():
        if any(s in absent for s in spans):
            continue
        if kind == "calls":
            value = sum(job_totals.calls[s] for s in spans) / jobs
        elif kind == "self":
            value = sum(job_totals.self_time[s] for s in spans) / jobs
        else:
            calls = sum(job_totals.calls[s] + setup_totals.calls[s] for s in spans)
            total = sum(job_totals.total[s] + setup_totals.total[s] for s in spans)
            value = total / calls if calls else 0.0
        metrics[name] = value
    for name, (counter, needs) in COUNT_METRICS.items():
        if needs not in absent:
            metrics[name] = job_totals.counts[counter] / jobs
    if "radical.mul" not in absent:
        calls = job_totals.calls["radical.mul"]
        metrics["radical.mul_rational_share"] = job_totals.counts["radical.mul_rational"] / calls if calls else 0.0

    cli = [out.trace for _, out, _ in traced if out.trace]

    def cli_mean(value):
        return sum(value(c) for c in cli) / len(cli) if cli else 0.0

    # Interpreter start and exit: the child's wall time outside the launcher script.
    metrics["cli.interpreter_s"] = cli_mean(lambda c: c["wall_s"] - c.get("script_s", c["wall_s"]))
    metrics["cli.import_s"] = cli_mean(lambda c: c["imports"].get("planaralg", 0.0))
    metrics["cli.import_sympy_s"] = cli_mean(lambda c: c["imports"].get("sympy", 0.0))
    metrics["cli.import_numpy_s"] = cli_mean(lambda c: c["imports"].get("numpy", 0.0))
    cli_jobs = [(job, out) for job, out, _ in traced if out.exit_code is not None]
    per = len(cli_jobs) or 1
    metrics["cli.stdout_bytes"] = sum(out.stdout_bytes for _, out in cli_jobs) / per
    metrics["cli.exit_mismatches"] = sum(
        1 for job, out in cli_jobs if job.expected_exit not in (None, out.exit_code) or (job.known_defect and not out.ok)
    ) / per
    metrics["cli.refusals"] = sum(1 for _, out in cli_jobs if out.exit_code in (2, 3, 4)) / per

    for module in MODULES:
        metrics[f"{module}.self_share"] = job_totals.module_self(module) / job_time
    metrics["trace.outside_share"] = job_totals.self_time["job"] / job_time
    traced_mean = sum(t for _, _, t in traced) / jobs
    metrics["trace.overhead_ratio"] = traced_mean / untraced_mean
    return metrics


def time_metrics(times, setup_samples):
    """Timing metrics of job and set-up times; `tail` extras for the notes."""
    value, pct, beyond = tail(times)
    metrics = {
        "jobs_per_s": len(times) / sum(times),
        "job_p50_s": statistics.median(times),
        "job_tail_s": value,
        "setup_s": statistics.median(setup_samples),
    }
    return metrics, pct, beyond


def end_to_end(records, reference_times, setup_samples, in_process, probe):
    """End-to-end metrics with units, the printed lines and the same
    timings as measured, before scaling to the reference speed."""
    times = [t for _, _, t, _ in records]
    failed = sum(1 for _, out, _, _ in records if not out.ok)
    host, _, _ = time_metrics(times, [measured for measured, _ in setup_samples])
    metrics, pct, beyond = time_metrics(reference_times, [reference for _, reference in setup_samples])
    usage = resource.getrusage(resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN)
    metrics["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    notes = {
        "job_tail_s": f"p{pct:.1f} of {len(records)} jobs, {beyond} above it",
        "setup_s": f"median of {len(setup_samples)} set-ups",
        "peak_rss_mb": "this process" if in_process else "largest child process",
    }
    for name, v in host.items():
        notes[name] = (notes[name] + "; " if name in notes else "") + f"{v:.6g} {END_TO_END_UNITS[name]} as measured"
    lines = [
        f"fail_ratio {failed / len(records):.6f} ratio ({failed} of {len(records)} jobs)",
        f"host speed: probe kernel {probe.mean_s * 1e3:.4f} ms over {probe.calls} calls "
        f"(reference {REF_S * 1e3:.4f} ms); times are given at the reference speed",
    ]
    for name, v in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"{name} {v:.6g} {END_TO_END_UNITS[name]}{note}")
    return metrics, END_TO_END_UNITS, lines, host


def per_layer(records, tracer, setup_tracer, spans_path):
    """Per-layer metrics with units and the printed lines; writes the spans."""
    job_totals, setup_totals = Totals(), Totals()
    job_totals.add(tracer.snapshot())
    setup_totals.add(setup_tracer.snapshot())
    span_sets = [(None, tracer.spans)]
    for index, (_, out, _, traced) in enumerate(records):
        if traced and out.trace and "snapshot" in out.trace:
            # A CLI job is the whole child process; what its spans do not
            # cover is interpreter start and exit.
            snap = out.trace["snapshot"]
            job_totals.add(snap)
            job_totals.calls["job"] += 1
            job_totals.total["job"] += out.trace["wall_s"]
            job_totals.self_time["job"] += out.trace["wall_s"] - sum(snap["self"].values())
            span_sets.append((index, out.trace["spans"]))
    write_spans(spans_path, span_sets)

    untraced = [t for _, _, t, tr in records if not tr]
    metrics = layer_metrics(job_totals, setup_totals, records, sum(untraced) / len(untraced))
    shares = {m: metrics[f"{m}.self_share"] for m in MODULES}
    top_module = max(shares, key=shares.get)
    top_span = max(job_totals.self_time, key=job_totals.self_time.get)
    lines = [
        f"largest self time: module {top_module} ({shares[top_module]:.1%} of traced job time), "
        f"span {top_span}; outside every layer {metrics['trace.outside_share']:.1%}"
    ]
    absent = sorted(job_totals.absent | setup_totals.absent)
    if absent:
        lines.append("absent wrapper targets: " + ", ".join(absent))
    lines.extend(f"{name} {metrics[name]:.6g} {PER_LAYER[name]}" for name in sorted(metrics))
    return metrics, PER_LAYER, lines


# -- main ----------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "planaralg", "__init__.py")):
        print("perfbench: src/planaralg not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    scratch = os.path.abspath(os.path.join(OUT_DIR, f"{args.workload}-{args.seed}"))
    results = os.path.join(OUT_DIR, "results", f"{args.workload}-seed{args.seed}")
    os.makedirs(scratch, exist_ok=True)
    os.makedirs(os.path.dirname(results), exist_ok=True)
    workload = WORKLOADS[args.workload]()

    if args.setup_only:
        print(json.dumps({"setup_s": timed_setup(workload, args.seed, scratch)}))
        return 0

    tracer = setup_tracer = probe = None
    setup_samples = []
    if args.trace:
        workload.sample_speed = False
        tracer, setup_tracer = Tracer(), Tracer()
        if workload.in_process:
            import planaralg

            setup_tracer.install(planaralg)
        workload.setup(args.seed, scratch)
        setup_tracer.uninstall()
    else:
        setup_samples = [setup_in_child(args) for _ in range(SETUP_REPEATS - 1)]
        setup_samples.append(timed_setup(workload, args.seed, scratch))
        probe = SpeedProbe()

    records, wall, reference_times = run_rounds(workload, args.seconds, tracer, probe)

    ctx = context(root, args.seed)
    lines = [
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}",
        "context " + json.dumps(ctx, sort_keys=True),
    ]
    host = speed = None
    if args.trace:
        metrics, units, metric_lines = per_layer(records, tracer, setup_tracer, results + "-spans.jsonl")
    else:
        metrics, units, metric_lines, host = end_to_end(records, reference_times, setup_samples, workload.in_process, probe)
        speed = {"kernel_mean_s": probe.mean_s, "kernel_calls": probe.calls, "reference_s": REF_S}
    lines.extend(metric_lines)
    failed = [(job, out) for job, out, _, _ in records if not out.ok]
    for job, out in failed:
        lines.append(f"{'known defect' if job.known_defect else 'FAILED'}: {job.kind}: {out.note}")

    result = {
        "correct": all(job.known_defect for job, _ in failed),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    with open(f"{results}-trace{args.trace}.json", "w", encoding="utf-8") as handle:
        json.dump(
            {
                "context": ctx,
                "workload": args.workload,
                "seconds": args.seconds,
                "wall_s": wall,
                "result": result,
                "setup_samples_s": setup_samples,
                "speed": speed,
                "metrics_as_measured": host,
                "jobs": [
                    {"kind": job.kind, "sizes": job.sizes, "seconds": t, "seconds_at_reference": ref,
                     "ok": out.ok, "note": out.note, "traced": tr}
                    for (job, out, t, tr), ref in itertools.zip_longest(records, reference_times)
                ],
            },
            handle,
            indent=1,
        )
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
