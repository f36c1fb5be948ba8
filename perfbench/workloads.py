"""The three benchmark workloads: how each builds its inputs, runs, and is checked.

A workload is a list of ops. Each op is one call into the public ``weylnf``
API; its output is turned into a fingerprint (a string that must be identical
on every pass, traced or not) and a list of problems (empty when the output is
correct). Importing this module imports ``weylnf``, so the set-up probe times
the import by importing this module.

Calls go through module attributes (``criterion.classify_pair``, not a name
bound here) so that the traced run's wrappers see them.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os

from weylnf import criterion, fixtures, parsing, schur, suites

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
    EXPECTED = json.load(fh)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cli_json(data) -> str:
    """The bytes ``weylnf.cli`` prints for a JSON result."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


# -- nf-k3 ---------------------------------------------------------------------------

NF_P, NF_Q, NF_DEPTH = "d^5 + x^2*d", "d^3 + x*d + x^2", 8


def nf_setup(seed: int):
    P = parsing.parse_operator(NF_P)
    Q = parsing.parse_operator(NF_Q)
    return [("normal_form_report", lambda: schur.normal_form_report(P, Q, depth=NF_DEPTH))]


def nf_check(label: str, res) -> tuple[str, list[str]]:
    exp = EXPECTED["nf-k3"]
    digest = sha256(json.dumps(res.series.to_dict(), sort_keys=True))
    problems = []
    if not res.schur.verified:
        problems.append("schur.verified is false")
    if not res.aqk.ok:
        problems.append("aqk.ok is false")
    if res.fitted_orders != exp["fitted_orders"]:
        problems.append(f"fitted orders {res.fitted_orders} != {exp['fitted_orders']}")
    if res.escalated_orders:
        problems.append(f"escalated orders {res.escalated_orders}")
    if digest != exp["series_sha256"]:
        problems.append(f"series digest {digest} != pinned {exp['series_sha256']}")
    fingerprint = json.dumps([digest, res.schur.verified, res.aqk.ok,
                              res.fitted_orders, res.escalated_orders])
    return fingerprint, problems


# -- classify-fixtures ---------------------------------------------------------------

# (fixture, depth, wmax), in the order they run.
CLASSIFY_CASES = (("generic", 10, None), ("airy-like", 10, None), ("powers", 10, None),
                  ("kdv24", 8, 6), ("kdv48", 16, 6))
GOLDEN_FILES = {"generic": "classify_generic.json", "kdv24": "classify_kdv.json"}


def classify_setup(seed: int):
    ops = []
    for name, depth, wmax in CLASSIFY_CASES:
        P, Q = fixtures.named_pair(name)
        ops.append((name, lambda P=P, Q=Q, depth=depth, wmax=wmax:
                    criterion.classify_pair(P, Q, depth=depth, wmax=wmax)))
    return ops


@functools.cache
def _golden(name: str) -> str:
    path = os.path.join(ROOT, "tests", "golden", GOLDEN_FILES[name])
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


def classify_check(label: str, rep) -> tuple[str, list[str]]:
    text = cli_json(rep.to_dict())
    problems = []
    if label in GOLDEN_FILES:
        if text != _golden(label):
            problems.append(f"{label}: output differs from tests/golden/{GOLDEN_FILES[label]}")
    else:
        digest = sha256(text)
        pinned = EXPECTED["classify-fixtures"][label]
        if digest != pinned:
            problems.append(f"{label}: output digest {digest} != pinned {pinned}")
    if label == "kdv48":
        cert = rep.certificate
        if cert is None or str(cert.poly) != "X^2 - Y^3 - 1/16" or not cert.reverified:
            problems.append("kdv48: no re-verified certificate X^2 - Y^3 - 1/16")
    return text, problems


# -- filtration-suite ----------------------------------------------------------------

# 400 rather than 100 cases: the cost of a case depends on its random draws,
# so the work of a pass differs from seed to seed: over seeds 41..45 its
# standard deviation was 10% of the mean with 100 cases and 5% with 400.
FILTRATION_CASES = 400


def filtration_setup(seed: int):
    return [(f"case{i}", lambda i=i: suites.filtration_case(i, seed))
            for i in range(FILTRATION_CASES)]


def filtration_check(label: str, failures) -> tuple[str, list[str]]:
    return json.dumps(failures), list(failures)


WORKLOADS = {
    "nf-k3": (nf_setup, nf_check),
    "classify-fixtures": (classify_setup, classify_check),
    "filtration-suite": (filtration_setup, filtration_check),
}
