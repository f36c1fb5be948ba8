"""Self-test of the benchmark itself, not of weylnf.

    python3 perfbench/selftest.py        (a few minutes; exit code 0 when every check passes)

Checks that:

1. the percentile rule reports a percentile only when at least 10 samples lie
   above it;
2. a planted wrong output is counted as a failed op (fail_frac above 0) and
   every end-to-end metric is still reported;
3. the tracer puts back every name it patched, also when the traced code raises;
4. on each workload, two traced runs in fresh processes are correct (traced
   outputs equal untraced ones), reach every counter ``predictions.json``
   expects on that workload and leave at zero the ones it expects at zero,
   and repeat every integer count exactly.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402

INTEGER_UNITS = ("count", "bits")


def load(name: str) -> dict:
    with open(os.path.join(ROOT if name == "BENCHMARK.json" else HERE, name),
              encoding="utf-8") as fh:
        return json.load(fh)


def check_percentile_rule():
    assert run.tail_percentile([float(i) for i in range(1, 101)], 90) == 90.0
    assert run.tail_percentile([float(i) for i in range(1, 100)], 90) is None
    assert run.tail_percentile([float(i) for i in range(1, 21)], 50) == 10.0
    assert run.tail_percentile([float(i) for i in range(1, 20)], 50) is None
    assert run.tail_percentile([], 50) is None


def check_planted_failure(spec: dict):
    from weylnf import schur
    original = schur.normal_form_report

    def planted(*args, **kwargs):
        res = original(*args, **kwargs)
        res.escalated_orders = [2]
        return res

    schur.normal_form_report = planted
    try:
        result = run.measure("nf-k3", seed=1, seconds=0, trace=False, spec=spec)
    finally:
        schur.normal_form_report = original
    assert result["failed"] > 0 and result["ungated"]["fail_frac"]["value"] > 0, result
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}


def _snapshot():
    import layertrace
    from weylnf import gform, operators, scalars
    owners = layertrace.weylnf_modules() + [scalars.CycloScalar, operators.GradedOp,
                                              gform.HcpSeries]
    return {(repr(o), attr): value for o in owners for attr, value in vars(o).items()}


def check_restore():
    import layertrace
    from weylnf import scalars
    before = _snapshot()
    tracer = layertrace.Tracer()
    try:
        with tracer.installed():
            assert vars(scalars.CycloScalar)["__mul__"] is not before[
                (repr(scalars.CycloScalar), "__mul__")]
            raise KeyError("planted")
    except KeyError:
        pass
    after = _snapshot()
    changed = [key for key in before if after.get(key) is not before[key]]
    assert not changed and set(after) == set(before), changed


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "0", "--trace", "1"],
                          capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def check_traced_runs(spec: dict):
    reached = load("predictions.json")["reached"]
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload, expect in reached.items():
        first, second = traced_run(workload, 3), traced_run(workload, 3)
        for res in (first, second):
            assert res["correct"] and res["failed"] == 0, (workload, res)
        values = {name: m["value"] for name, m in first["metrics"].items()}
        for name in expect["positive"]:
            assert values[name] > 0, (workload, name, values[name])
        for name in expect["zero"]:
            assert values[name] == 0, (workload, name, values[name])
        for name, unit in units.items():
            if unit in INTEGER_UNITS:
                assert second["metrics"][name]["value"] == values[name], (workload, name)
        print(f"  {workload}: traced runs correct, counters as predicted and repeatable")


def main() -> int:
    if not __debug__:
        sys.exit("selftest: the checks are asserts; run without -O")
    spec = load("BENCHMARK.json")
    check_percentile_rule()
    print("  percentile rule: ok")
    check_planted_failure(spec)
    print("  planted wrong output counted as failed: ok")
    check_restore()
    print("  tracer restores every patched name: ok")
    check_traced_runs(spec)
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
