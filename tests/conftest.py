"""Shared fixtures plus a PASS/FAIL summary line per acceptance criterion."""

from __future__ import annotations

import os
from collections import defaultdict
from pathlib import Path

import pytest

import kmap_ecc
from kmap_ecc import Placement, census, min_parity_search, reference_placements

FIXTURES = Path(__file__).parent / "fixtures"

_criterion_results: dict[tuple[int, str], list[bool]] = defaultdict(list)


def pytest_configure(config):
    # CLI subprocesses import the same kmap_ecc as this session, installed or not
    src = str(Path(kmap_ecc.__file__).resolve().parents[1])
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))
    config.addinivalue_line(
        "markers", "criterion(num, name): acceptance criterion this test checks")


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    marker = None
    for m in getattr(report, "_criterion_marks", ()):
        marker = m
    if marker:
        _criterion_results[marker].append(report.passed)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    mark = item.get_closest_marker("criterion")
    if mark:
        report._criterion_marks = [(mark.args[0], mark.args[1])]


def pytest_terminal_summary(terminalreporter):
    if not _criterion_results:
        return
    terminalreporter.section("acceptance criteria")
    for (num, name) in sorted(_criterion_results):
        results = _criterion_results[(num, name)]
        status = "PASS" if all(results) else "FAIL"
        terminalreporter.write_line(
            f"criterion {num:2d} [{status}] {name} ({sum(results)}/{len(results)} checks)")


@pytest.fixture(scope="session")
def refs():
    return reference_placements()


@pytest.fixture(scope="session")
def survey_placements():
    """Every census(7|8, full=True) class, the n=10 covering witness and the
    reference placements."""
    out = [r.placement for n in (7, 8) for r in census(n, full=True)]
    assert len(out) == 104
    return out + [Placement(10, (63, 455, 729))] + list(reference_placements().values())


@pytest.fixture(scope="session")
def fixture_dir():
    return FIXTURES


@pytest.fixture(scope="session")
def min_parity_10():
    """The pruned n=10 min-parity sweep, run once for every test that reads it."""
    return min_parity_search(10)
