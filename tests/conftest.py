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


@pytest.fixture(scope="session")
def layertrace():
    """``perfbench/layertrace.py``, loaded from its file (it is not a package)."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "layertrace.py")
    spec = importlib.util.spec_from_file_location("layertrace", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
