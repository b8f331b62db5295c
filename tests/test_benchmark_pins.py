"""Each benchmark workload once, with its pinned checks.

The benchmark in ``perfbench/`` checks every result it times against pinned
values (the paper report's digest, the census counts, the identity
verdicts).  Running each workload here catches a changed result before a
benchmark run does.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_its_pinned_checks(name, monkeypatch):
    modules = workloads.import_reslat()
    cli = modules["cli"]
    for attr in ("bounded_amalgam_search", "bounded_one_amalgam_search"):
        monkeypatch.setattr(cli, attr, getattr(cli, attr))  # the paper workload wraps them
    workload = workloads.WORKLOADS[name]
    inputs = workload.build(modules, 1)
    checks = workload.check(inputs, workload.run(modules, inputs))
    assert checks
    assert [op for op, ok in checks if not ok] == []


def test_names_the_benchmark_binds_exist():
    """The benchmark traces the entry points in ``spans.ENTRY_POINTS``, binds
    ``iter_completions``' ``stats`` parameter to count engine nodes, and
    wraps both searches on ``reslat.cli``; a rename of any of them breaks it
    without failing a workload's checks."""
    import importlib
    import inspect

    import spans

    for module, name in spans.ENTRY_POINTS:
        assert callable(getattr(importlib.import_module(f"reslat.{module}"), name, None)), (module, name)
    iter_completions = workloads.import_reslat()["completion"].iter_completions
    assert "stats" in inspect.signature(iter_completions).parameters
    cli = importlib.import_module("reslat.cli")
    for attr in ("bounded_amalgam_search", "bounded_one_amalgam_search"):
        assert callable(getattr(cli, attr, None)), attr
