#!/usr/bin/env python3
"""wagedyn benchmark.

Run from the repository root:

    python3 bench/run.py --workload reproduce --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

One run sets the workload up, then repeats the workload's timed body,
gating every iteration's outputs, until the next iteration would end past
``--seconds``. Between iterations it times ``setup_s`` in fresh child
processes. With ``--trace 1`` it alternates untraced and traced iterations
and reports the per-layer metrics instead of the end-to-end ones. The last
line of standard output is one JSON object: correct, attempted, failed,
metrics. Everything the run writes goes under ``bench_out/`` in the
repository root.
"""
from __future__ import annotations

import os

# single-threaded numerics; must be set before numpy is imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench_out"
SETUP_SAMPLES = 25
MIN_ITERATIONS = 3  # untraced iterations behind run_s, when not tracing

# metric names and units come from BENCHMARK.json, the benchmark's contract
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="reproduce, contract_search, distributions, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="(internal) set up, print 'ready', exit")
    return parser.parse_args(argv)


def fail(message: str) -> int:
    sys.stderr.write(f"bench: {message}\n")
    return 2


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wagedyn" / "__init__.py").is_file():
        return fail(f"no wagedyn sources at {SRC.relative_to(ROOT)}/wagedyn; "
                    "run from a full checkout")
    sys.path.insert(0, str(SRC))
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # criterion 10 makes a temporary directory; keep it inside the checkout
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)

    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from "
                    f"{', '.join(WORKLOADS)} or all")
    workload = WORKLOADS[args.workload]
    if args.setup_only:
        setup(workload, args.seed)
        print("ready", flush=True)
        return 0
    return run_one(workload, args)


def setup(workload, seed: int):
    """Set-up as timed by setup_s: import wagedyn, validate the bundled
    scenarios, generate the seeded inputs."""
    import wagedyn  # noqa: F401
    from wagedyn import checks, cli, employer, report  # noqa: F401
    from workloads import load_bundled

    return workload.prepare(seed, load_bundled())


def time_setup(workload_name: str, seed: int) -> float:
    """Seconds from process start to the end of set-up, in a fresh child."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
           "--seed", str(seed), "--setup-only"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
        code = child.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up child failed (exit {code}, said {line!r})")
    return elapsed


def run_one(workload, args) -> int:
    from tracer import RUN, Tracer, self_sum_residual, summarize, wagedyn_targets, write_spans

    started = time.perf_counter()
    # one tracer for the whole run: a root span for set-up, one per traced iteration
    targets = wagedyn_targets() if args.trace else None
    tracer = Tracer()
    if targets:
        tracer.install(targets)
    with tracer.root("bench.setup") as setup_root:
        inputs = setup(workload, args.seed)
    tracer.uninstall()

    setup_samples: list[float] = []
    plain_times: list[float] = []
    traced_times: list[float] = []
    traced_runs: list[int] = []
    warning_counts: list[int] = []
    attempted = failed = 0
    wrong: list[str] = []
    values: dict[str, list[float]] = {}
    i = 0
    while True:
        cycle_start = time.perf_counter()
        workdir = OUT / "work" / f"{workload.name}-{i}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        if targets and i % 2 == 1:
            tracer.install(targets)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                with tracer.root("bench.run") as root:
                    raw = workload.run(inputs, workdir)
            tracer.uninstall()
            traced_times.append(root[2] - root[1])
            traced_runs.append(root[RUN])
            warning_counts.append(_additive_warnings(caught))
        else:
            t0 = time.perf_counter()
            raw = workload.run(inputs, workdir)
            plain_times.append(time.perf_counter() - t0)
        outcome = workload.check(inputs, raw, workdir)
        del raw
        shutil.rmtree(workdir, ignore_errors=True)
        attempted += outcome.attempted
        failed += outcome.failed
        wrong += outcome.wrong
        for key, val in outcome.values.items():
            values.setdefault(key, []).append(val)
        i += 1
        # set-up samples are spread over the run, between iterations, so that
        # setup_s and run_s see the same machine
        elapsed = time.perf_counter() - started
        while len(setup_samples) < SETUP_SAMPLES * min(1.0, elapsed / args.seconds):
            setup_samples.append(time_setup(workload.name, args.seed))
        # stop when the next cycle would end past --seconds
        cycle = time.perf_counter() - cycle_start
        enough = plain_times and traced_times if targets \
            else len(plain_times) >= MIN_ITERATIONS
        if enough and time.perf_counter() - started + cycle > args.seconds:
            break
    while len(setup_samples) < SETUP_SAMPLES:
        setup_samples.append(time_setup(workload.name, args.seed))
    shutil.rmtree(OUT / "tmp", ignore_errors=True)

    run_s = statistics.median(plain_times)
    figures = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "run_s": (run_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ops_failed_share": (failed / max(attempted, 1), "1"),
    }
    if "cells" in values:
        figures["contracts_per_s"] = (statistics.median(values["cells"]) / run_s, "1/s")
    if "phi_max_err" in values:
        figures["phi_max_err"] = (max(values["phi_max_err"]), "1")
    if targets:
        spans = tracer.spans
        residual = self_sum_residual(spans)
        print(f"trace self times sum to their root spans within {residual:.3g} s")
        if residual > 1e-9:
            wrong.append(f"self times miss their root by {residual} s")
        table = function_table(summarize(spans, setup_root[RUN]),
                               [summarize(spans, r) for r in traced_runs])
        traced_s = statistics.median(traced_times)
        extra = {
            "additive.solve_backward_induction.runtime_warnings":
                statistics.mean(warning_counts),
            "trace.spans": sum(sp[RUN] in traced_runs for sp in spans) / len(traced_runs),
            "trace.traced_run_s": traced_s,
            "trace.overhead_share": traced_s / run_s - 1.0,
        }
        if "artifacts_identical" in values:
            extra["report.artifacts_identical"] = statistics.median(
                values["artifacts_identical"])
        metrics = per_layer_metrics(table, extra)
        trace_dir = OUT / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        write_spans(trace_dir / f"{workload.name}-seed{args.seed}-spans.json", spans)
        (trace_dir / f"{workload.name}-seed{args.seed}-summary.json").write_text(
            json.dumps(table, indent=2, sort_keys=True), encoding="utf-8")
        for name in sorted(table, key=lambda k: -table[k]["self_s"]):
            print(f"trace {name:52s} calls {table[name]['calls']:10.1f} "
                  f"self {table[name]['self_s']:.6f} s")
    else:
        metrics = {m["name"]: {"value": figures[m["name"]][0], "unit": m["unit"]}
                   for m in SPEC["end_to_end"]}

    provenance_record = provenance(args, len(setup_samples), len(plain_times),
                                   len(traced_times))
    for key, (val, unit) in figures.items():
        print(f"{workload.name:16s} {key:22s} {val:.6g} {unit}")
    for key, vals in sorted(values.items()):
        if key not in figures:
            print(f"{workload.name:16s} {key:22s} {statistics.median(vals):.6g}")
    for problem in wrong[:20]:
        print(f"{workload.name:16s} WRONG {problem}")
    print("provenance " + json.dumps(provenance_record, sort_keys=True))
    result = {"correct": not wrong, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "figures": {k: {"value": v, "unit": u}
                                          for k, (v, u) in figures.items()},
                    "values": values, "wrong": wrong, "provenance": provenance_record,
                    "setup_samples_s": setup_samples, "run_samples_s": plain_times,
                    "traced_samples_s": traced_times}, indent=2),
        encoding="utf-8")
    print(json.dumps(result))
    return 0


def _additive_warnings(caught) -> int:
    return sum(1 for w in caught
               if issubclass(w.category, RuntimeWarning)
               and Path(w.filename).name == "additive.py")


def function_table(setup_summary, traced_summaries) -> dict[str, dict[str, float]]:
    """calls, self_s, failed and sizes of every traced function: the set-up
    spans once plus the mean over the traced iterations."""
    n = len(traced_summaries)
    table: dict[str, dict[str, float]] = {}
    for summary, weight in [(setup_summary, 1.0)] + [(s, 1.0 / n) for s in traced_summaries]:
        for name, st in summary.items():
            row = table.setdefault(name, {})
            for key, val in (("calls", st.calls), ("self_s", st.self_s),
                             ("failed", st.raised), *st.sizes.items()):
                row[key] = row.get(key, 0.0) + weight * val
    return table


def per_layer_metrics(table: dict[str, dict[str, float]], extra: dict[str, float]) -> dict:
    """The result line's per-layer metrics (BENCHMARK.json per_layer) from the
    function table; a function a workload never calls reads 0."""
    from tracer import layer_of

    flat = {f"{name}.{key}": val for name, row in table.items() for key, val in row.items()}
    for name, row in table.items():
        key = "trace.unattributed_s" if name.startswith("bench.") \
            else f"layer.{layer_of(name)}.self_s"
        flat[key] = flat.get(key, 0.0) + row["self_s"]
    flat.update(extra)
    for share, part, whole in (
            ("employer.worker_policy.fallback_share", "employer.worker_policy.additive_fallback",
             "employer.worker_policy.additive_calls"),
            ("distribution.WageDistribution.from_pairs.merge_ratio",
             "distribution.WageDistribution.from_pairs.points_out",
             "distribution.WageDistribution.from_pairs.pairs_in")):
        flat[share] = flat.get(part, 0.0) / flat[whole] if flat.get(whole) else 0.0
    return {name: {"value": flat.get(name, 0.0), "unit": unit}
            for name, unit in PER_LAYER.items()}


def provenance(args, n_setup: int, n_plain: int, n_traced: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "unset (random per process)"),
        "runs_behind_median": {"setup_s": n_setup, "run_s": n_plain,
                               "traced_run_s": n_traced},
    }


def git_commit() -> str:
    # the ceiling stops git from finding a repository that encloses the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def run_all(args, names: list[str]) -> int:
    """Every workload in its own fresh process, one after another."""
    results = {}
    code = 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=600)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        if proc.returncode != 0 or not lines:
            code = proc.returncode or 2
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return code


if __name__ == "__main__":
    sys.exit(main())
