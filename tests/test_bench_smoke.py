"""A short run of every benchmark workload, with the benchmark's own checks.

The workloads module reads the names it traces (such as
``dyadic.tree_averages``) when it is imported, so a renamed or deleted traced
name fails here, as does an output the benchmark would count as failed.
"""

import sys
from pathlib import Path

import pytest

BENCH = str(Path(__file__).resolve().parents[1] / "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_first_items_pass_their_checks(name):
    workload = workloads.WORKLOADS[name](0)
    workload.warm_up()
    for item in workload.round[:2]:
        assert workload.check(item, workload.run(item)) == []


# the search workload's quality needs every one of its seeds run first
@pytest.mark.parametrize("name", ["verify", "exact", "kernel"])
def test_quality_has_no_problems(name):
    assert workloads.WORKLOADS[name](0).quality().problems == []
