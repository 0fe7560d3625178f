"""Run one fdkit benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload kernel --seed 1 --seconds 15 --trace 0

The workload's inputs come from ``--seed``.  The run answers whole passes
over the workload's question list, checks every answer, and prints as its
last line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` the run first asks untraced passes for half the time,
then installs the tracer and asks one traced pass, and the metrics are
the per-layer ones.
A report with the machine's ``nproc``, Python version and load average
goes to ``perfbench/out/``, raw spans too when tracing.

Exit status: 0 with a result line, 2 when fdkit cannot be found (the
checkout has no ``src/fdkit``) or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from harness import SRC, child_env, percentile, run_passes
from tracer import Tracer, layer_metrics

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

WORKLOADS = {"kernel": "wl_kernel", "lattice": "wl_lattice", "lab": "wl_lab", "cli": "wl_cli"}
SETUP_REPEATS = 5
MIN_ANSWERS = 100  # so that at least ten answers lie beyond the p90
MIN_PASSES = 3  # so that each question's median is a median
IMPORT_PROBE = "import time; t = time.perf_counter(); import fdkit; print(time.perf_counter() - t)"


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg": list(os.getloadavg()),
    }


def import_seconds() -> float:
    """Time to import fdkit in a fresh interpreter, measured inside it."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=child_env(), capture_output=True, text=True, check=True, timeout=60,
    )
    return float(done.stdout.strip())


def measure_setup(wl, plan) -> tuple:
    """Set-up time: importing fdkit plus building every input object of
    the workload, each the median of several repetitions."""
    imports = [import_seconds() for _ in range(SETUP_REPEATS)]
    builds = []
    objs = None
    for _ in range(SETUP_REPEATS):
        objs = None
        gc.collect()
        start = time.perf_counter()
        objs = wl.build(plan)
        builds.append(time.perf_counter() - start)
    return statistics.median(imports) + statistics.median(builds), objs


def settle() -> None:
    """Move everything alive now (inputs, plan, reference answers) out of
    the collector's reach, so full collections during the questions cost
    what the questions allocate, not what the benchmark holds."""
    gc.collect()
    gc.freeze()


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(wl, plan, seconds: float, report: dict) -> tuple:
    setup_s, objs = measure_setup(wl, plan)
    questions = wl.questions(plan, objs)
    settle()
    warmup = run_passes(questions, 0, 1)  # fills fdkit's lazy caches; checked, not timed
    out = run_passes(questions, seconds, max(MIN_PASSES, -(-MIN_ANSWERS // len(questions))))
    out.absorb(warmup)
    rss = resource.getrusage(resource.RUSAGE_CHILDREN if wl.CHILD_PROCESSES else resource.RUSAGE_SELF)
    latencies, typical = out.pooled(), out.typical()
    report.update(
        passes=out.passes,
        pass_seconds=out.pass_seconds,
        questions_per_pass=len(questions),
        answers_measured=len(latencies),
        latency_ms_by_class={
            label: {"count": len(v), "p50": 1000 * statistics.median(v), "max": 1000 * max(v)}
            for label, v in sorted(out.by_label.items())
        },
        latency_ms_around_p90={p: 1000 * percentile(latencies, p) for p in (80, 85, 90, 95)},
    )
    return out, {
        "questions_per_s": metric(len(typical) / sum(typical), "1/s"),
        "latency_p50_ms": metric(1000 * statistics.median(latencies), "ms"),
        "latency_p90_ms": metric(1000 * percentile(latencies, 90), "ms"),
        "peak_rss_mb": metric(rss.ru_maxrss / 1024.0, "MB"),
        "setup_s": metric(setup_s, "s"),
    }


def import_ms() -> tuple:
    """Median time a fresh interpreter needs to import ``fdkit.cli``,
    minus the median start time of a bare interpreter; and that bare
    start time.  Both in ms."""
    def median_run(code):
        times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=child_env(), check=True, timeout=60)
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    bare = median_run("pass")
    return 1000 * (median_run("import fdkit.cli") - bare), 1000 * bare


def per_layer(wl, plan, seconds: float, seed: int, report: dict) -> tuple:
    objs = wl.build(plan)
    questions = wl.questions(plan, objs)
    settle()
    plain = run_passes(questions, seconds / 2, 1)
    tracer = Tracer()
    if not wl.CHILD_PROCESSES:
        tracer.install()
    try:
        tracer.qid = "setup"
        objs = wl.build(plan)
        questions = wl.questions(plan, objs, tracer) if wl.CHILD_PROCESSES else wl.questions(plan, objs)
        settle()
        traced = run_passes(questions, 0, 1, on_question=lambda qid: setattr(tracer, "qid", qid))
    finally:
        tracer.uninstall()
    layers = layer_metrics(tracer.spans, traced.passes)
    layers["cli.import_ms"], bare_ms = 0.0, None
    if wl.CHILD_PROCESSES:
        layers["cli.import_ms"], bare_ms = import_ms()
    layers["trace.overhead_pct"] = 100.0 * (1 - traced.median_questions_per_s / plain.median_questions_per_s)
    report.update(
        untraced_passes=plain.passes,
        traced_passes=traced.passes,
        untraced_questions_per_s=plain.median_questions_per_s,
        traced_questions_per_s=traced.median_questions_per_s,
        bare_interpreter_ms=bare_ms,
        spans=len(tracer.spans),
    )
    path = os.path.join(OUT, f"trace-{wl.NAME}-seed{seed}.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(span) + "\n")
    plain.absorb(traced)
    return plain, {name: metric(value, _unit(name)) for name, value in sorted(layers.items())}


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("per_question") or name.endswith("per_verdict"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fdkit", "__init__.py")):
        print(f"perfbench: no fdkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    report.update(environment())
    os.makedirs(OUT, exist_ok=True)

    wl = importlib.import_module(WORKLOADS[args.workload])
    plan = wl.prepare(args.seed)
    try:
        if args.trace:
            out, metrics = per_layer(wl, plan, args.seconds, args.seed, report)
        else:
            out, metrics = end_to_end(wl, plan, args.seconds, report)
    finally:
        wl.cleanup(plan)

    for message in (out.failures + out.wrong)[:20]:
        print(f"perfbench: {message}", file=sys.stderr)
    report.update(attempted=out.attempted, failed=out.failed, wrong=len(out.wrong), metrics=metrics)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
    print("report " + json.dumps({k: report[k] for k in ("workload", "nproc", "python", "loadavg", "attempted", "failed")}))
    result = {"correct": not out.wrong, "attempted": out.attempted, "failed": out.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
