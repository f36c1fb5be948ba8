"""Shared fixtures for the test suite."""

import importlib.util
import os

import pytest

import weylnf


@pytest.fixture
def cli_env():
    """Environment for a ``python -m weylnf.cli`` subprocess.

    Prepends the absolute directory this process imported ``weylnf`` from to
    ``PYTHONPATH``, so the child imports the same package whatever its working
    directory and however the parent's ``PYTHONPATH`` was spelled (a relative
    ``PYTHONPATH=src`` does not resolve from ``tests/``).
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(weylnf.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _perfbench_module(name: str):
    """``perfbench/<name>.py``, loaded from its file (``perfbench`` is not a package)."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def layertrace():
    """``perfbench/layertrace.py``: the benchmark's per-layer tracer."""
    return _perfbench_module("layertrace")


@pytest.fixture(scope="session")
def workloads():
    """``perfbench/workloads.py``: the benchmark's workloads and their checks."""
    return _perfbench_module("workloads")
