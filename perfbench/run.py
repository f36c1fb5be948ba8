"""Layered benchmark for weylnf.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload of ``workloads.py`` in this process, with no threads or
pools, from the checkout that holds this directory (``src/weylnf`` is imported
from there; nothing is installed). Why each workload exists, and which
metric each planned change should move or leave flat, is in
``predictions.json``.

``--trace 0`` repeats the workload (a "pass": every op once) until
``--seconds`` have passed and measures the end-to-end metrics:

* ``wall_s``: median pass wall time, less the reference chunks below;
* ``wall_rel``: median over passes of the pass time divided by the mean
  time of a fixed stdlib ``Fraction`` loop (``reference_chunk``) that
  ``ReferenceSampler`` runs every 25 ms during that pass; machine speed
  cancels out of the ratio;
* ``setup_s``: median over fresh processes of importing weylnf and building
  the workload's inputs (``setup_probe.py``);
* ``peak_rss_mib``: ``ru_maxrss`` of this process after the passes;
* ``fail_frac``: failed / attempted ops;
* ``case_p50_s`` and ``case_p90_s``: per-case latency, filtration-suite
  only, each reported only when at least 10 samples lie above it.

The result line carries the metrics BENCHMARK.json names; the others are
printed above it. ``wall_s`` is left out of BENCHMARK.json because the speed
of the shared 2-CPU host it was defined on drifts by 20% from run to run,
which ``wall_rel`` cancels and a bound on seconds cannot; ``fail_frac`` is
``failed`` / ``attempted`` in the result line; the case percentiles exist on
one workload only.

``--trace 1`` runs untraced passes for a third of ``--seconds`` and traced
passes (``layertrace.py``) for the rest, and reports the per-layer metrics:
counts from the first traced pass, times as the median over traced passes,
and ``trace.overhead_frac`` = traced / untraced median pass time - 1. The
traced outputs must equal the untraced ones.

An op fails when it raises, when a verification flag is false, or when its
output differs from the expected one or from the first pass. A failure is
counted, never raised. The last line of standard output is the result JSON;
the full result, with the run context, is written to ``.bench_out/``. Exit code
0 when a result was printed, 2 when the benchmark cannot run here.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_PROBES = 9
REF_CHUNK_ITERATIONS = 100
REF_INTERVAL_S = 0.025
# Workloads whose ops are samples of one distribution, so per-case latency
# percentiles mean something; the others run a few distinct fixed problems.
CASE_LATENCY_WORKLOADS = ("filtration-suite",)
# Metrics measured and printed but not named in BENCHMARK.json, so not gated.
UNGATED_UNITS = {"wall_s": "s", "fail_frac": "ratio", "case_p50_s": "s", "case_p90_s": "s"}

perf = time.perf_counter


def reference_chunk() -> float:
    """Seconds for a fixed stdlib Fraction loop with no weylnf code in it."""
    t0 = perf()
    acc = Fraction(0)
    for i in range(REF_CHUNK_ITERATIONS):
        x = Fraction(i % 89 + 1, i % 97 + 2)
        acc = acc * x + x
        if i % 32 == 31:
            acc = Fraction(0)
    return perf() - t0


class ReferenceSampler:
    """Runs ``reference_chunk`` every ``REF_INTERVAL_S`` of wall time while active.

    The chunks run from a SIGALRM handler in this thread, between the
    workload's own bytecodes, so they see the same machine speed as the
    workload at the same moments. On a shared host whose speed drifts by
    tens of percent within seconds, a reference timed only before and after
    the workload does not. ``total`` is the time spent in chunks, which the
    pass timing subtracts. An instance that is never entered samples nothing.
    """

    def __init__(self):
        self.count = 0
        self.total = 0.0

    def _tick(self, signum, frame):
        self.total += reference_chunk()
        self.count += 1

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def tail_percentile(samples: list[float], pct: int) -> float | None:
    """Nearest-rank ``pct`` percentile, or None when fewer than 10 samples lie above it."""
    ordered = sorted(samples)
    rank = -(-pct * len(ordered) // 100)
    if rank < 1 or len(ordered) - rank < 10:
        return None
    return ordered[rank - 1]


def probe_setup(workload: str, seed: int) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"),
                               workload, str(seed)],
                              capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
        times.append(float(proc.stdout.split()[-1]))
    return times


def run_pass(ops, sampler: ReferenceSampler) -> tuple[float, list[float], list]:
    """Run every op once; return the pass time, per-op times and outputs.

    Times exclude the sampler's reference chunks.
    """
    times, outputs = [], []
    start, start_ref = perf(), sampler.total
    for _, fn in ops:
        t0, ref0 = perf(), sampler.total
        try:
            out = fn()
        except Exception as exc:  # a failed op is counted, and the run goes on
            out = exc
        times.append(perf() - t0 - (sampler.total - ref0))
        outputs.append(out)
    return perf() - start - (sampler.total - start_ref), times, outputs


class Tally:
    """Checks each pass's outputs and counts attempted and failed ops."""

    def __init__(self, labels: list[str], check):
        self.labels, self.check = labels, check
        self.reference: list[str] | None = None
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def add(self, outputs: list, traced: bool = False):
        fingerprints = []
        for label, out in zip(self.labels, outputs):
            if isinstance(out, Exception):
                fp, problems = f"raised {out!r}", [f"{label}: raised {out!r}"]
            else:
                try:
                    fp, problems = self.check(label, out)
                except Exception as exc:  # a malformed output is a failed op
                    fp, problems = f"check raised {exc!r}", [f"{label}: check raised {exc!r}"]
            fingerprints.append(fp)
            if self.reference is not None and fp != self.reference[len(fingerprints) - 1]:
                kind = "traced" if traced else "repeated"
                problems = problems + [f"{label}: {kind} output differs from the first pass"]
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.extend(problems)
        if self.reference is None:
            self.reference = fingerprints


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "weylnf")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown: not a git checkout"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              timeout=30, cwd=ROOT)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown: {exc!r}"
    return proc.stdout.strip() or f"unknown: git exited {proc.returncode}"


def measure(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    import layertrace
    import workloads

    setup_times = probe_setup(workload, seed)
    setup_fn, check = workloads.WORKLOADS[workload]
    ops = setup_fn(seed)
    tally = Tally([label for label, _ in ops], check)

    untraced_budget = seconds / 3 if trace else seconds
    walls, case_times, refs, rels = [], [], [], []
    sampler = ReferenceSampler()
    start = perf()
    while True:
        count0, total0 = sampler.count, sampler.total
        with sampler:
            wall, times, outputs = run_pass(ops, sampler)
        if sampler.count == count0:  # a pass shorter than the interval
            sampler._tick(None, None)
        ref = (sampler.total - total0) / (sampler.count - count0)
        tally.add(outputs)
        walls.append(wall)
        refs.append(ref)
        rels.append(wall / ref)
        case_times.extend(times)
        if perf() - start >= untraced_budget:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall_s = statistics.median(walls)

    result = {
        "context": {
            "commit": git_commit(),
            "source_sha256": source_digest(),
            "python": f"{platform.python_implementation()} {platform.python_version()}",
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "reference_chunk_s": {"per_pass_mean": refs, "chunks": sampler.count,
                                  "iterations": REF_CHUNK_ITERATIONS,
                                  "interval_s": REF_INTERVAL_S},
        },
        "passes": {"untraced": len(walls), "untraced_walls_s": walls, "untraced_rel": rels},
        "setup_probes_s": setup_times,
    }

    if not trace:
        metrics = {
            "wall_s": wall_s,
            "wall_rel": statistics.median(rels),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mib": peak_rss_mib,
            "fail_frac": tally.failed / tally.attempted,
        }
        if workload in CASE_LATENCY_WORKLOADS:
            metrics["case_p50_s"] = tail_percentile(case_times, 50)
            metrics["case_p90_s"] = tail_percentile(case_times, 90)
            result["case_samples"] = len(case_times)
        section = "end_to_end"
    else:
        tracer = layertrace.Tracer()
        traced_walls, per_pass = [], []
        start = perf()
        while True:
            tracer.reset()
            with tracer.installed():
                wall, _, outputs = run_pass(ops, ReferenceSampler())
            traced_walls.append(wall)
            per_pass.append(tracer.layer_metrics())
            if len(per_pass) == 1:
                per_pass[0]["scalars.max_bits"] = max(
                    (layertrace.max_bits(o) for o in outputs), default=0)
                spans = tracer.span_dump()
            tally.add(outputs, traced=True)
            if perf() - start >= seconds - untraced_budget:
                break
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {}
        for name, value in per_pass[0].items():
            if units.get(name) == "s":
                value = statistics.median(p[name] for p in per_pass)
            metrics[name] = value
        metrics["trace.overhead_frac"] = statistics.median(traced_walls) / wall_s - 1
        result["passes"].update(traced=len(traced_walls), traced_walls_s=traced_walls)
        result["spans_file"] = write_spans(workload, seed, spans)
        section = "per_layer"

    wanted = {m["name"]: m["unit"] for m in spec[section]}
    if not set(wanted) <= set(metrics):
        raise RuntimeError(f"BENCHMARK.json {section} names metrics "
                           f"{sorted(set(wanted) - set(metrics))} that are not measured")
    result["metrics"] = {name: {"value": metrics[name], "unit": unit}
                         for name, unit in wanted.items()}
    result["ungated"] = {name: {"value": value, "unit": UNGATED_UNITS[name]}
                         for name, value in metrics.items() if name not in wanted}
    result["attempted"], result["failed"] = tally.attempted, tally.failed
    result["problems"] = tally.problems[:50]
    return result


def write_spans(workload: str, seed: int, spans: dict) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{workload}-seed{seed}-spans.json.gz")
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(spans, fh)
    return os.path.relpath(path, ROOT)


def report(result: dict) -> None:
    """Print the human-readable summary lines."""
    ctx, passes = result["context"], result["passes"]
    print("context: " + json.dumps(ctx, sort_keys=True))
    print(f"{ctx['workload']} seed={ctx['seed']} trace={ctx['trace']}: "
          f"{passes['untraced']} untraced passes"
          + (f", {passes['traced']} traced passes" if ctx["trace"] else "")
          + f", {result['attempted']} ops attempted, {result['failed']} failed")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']!r} {m['unit']}")
    for name, m in result["ungated"].items():
        value = ("not reported: fewer than 10 samples above it" if m["value"] is None
                 else f"{m['value']!r} {m['unit']}")
        print(f"  {name:40s} {value} (printed, not in BENCHMARK.json)")
    if not ctx["trace"]:
        walls = passes["untraced_walls_s"]
        print(f"  (wall_s over {len(walls)} passes: min {min(walls):.4f}, max {max(walls):.4f};"
              f" setup_s over {len(result['setup_probes_s'])} fresh processes;"
              f" {result['failed']}/{result['attempted']} ops failed)")
        if "case_samples" in result:
            print(f"  (case percentiles over {result['case_samples']} cases)")
        else:
            print(f"  {'case_p50_s, case_p90_s':40s} not applicable: defined on "
                  "filtration-suite only")
    print("  wait time: not recorded; no layer has a queue or a lock")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")


def parse_args(argv, spec: dict):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    args = parse_args(argv, spec)
    if not os.path.isfile(os.path.join(SRC, "weylnf", "__init__.py")):
        print(f"error: no weylnf sources at {os.path.relpath(SRC)}/weylnf; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    report(result)
    print(f"  full result: {os.path.relpath(out_path, ROOT)}")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
