"""Behaviour lock: every FuzzReport fingerprint in `fingerprint_cases` holds."""

from __future__ import annotations

import ast
import dataclasses
import math
from pathlib import Path

import pytest

import balmat
from balmat import _kernels, algebra, genfuzz
from balmat.genfuzz import PROPERTIES

from fingerprint_cases import CASES, EXPECTED, case_id, fingerprint, run_case


def test_cases_cover_every_property():
    assert {case[0] for case in CASES} == set(PROPERTIES)


def test_case_ids_unique():
    ids = [case_id(c) for c in CASES]
    assert len(set(ids)) == len(ids)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_fuzz_report_fingerprint(case):
    assert fingerprint(run_case(case)) == EXPECTED[case_id(case)]


def test_fingerprint_sees_one_bit():
    report = run_case(CASES[0])
    assert report.worst_slack is not None
    nudged = dataclasses.replace(report, worst_slack=math.nextafter(report.worst_slack, math.inf))
    assert fingerprint(nudged) != fingerprint(report)


def test_no_version_dependent_summation():
    # Since Python 3.12 builtin sum() adds floats with compensated summation,
    # so it rounds differently from 3.11 and would change fingerprints. The
    # generated kernels are checked with the files: every Householder and
    # determinant n, and the shape kernels at the smallest shapes and at the
    # bound (their source differs between shapes only in length).
    k = _kernels._SHAPE_KERNEL_MAX_N
    sources = [(path.name, path.read_text()) for path in sorted(Path(balmat.__file__).parent.glob("*.py"))]
    sources += [(f"<householder_{n}>", genfuzz._householder_source(n)) for n in range(2, genfuzz._KERNEL_MAX_N + 1)]
    sources += [
        (f"<{build.__name__}({n}, {m})>", build(n, m))
        for build in (_kernels._balance_source, _kernels._line_stats_source)
        for n in (1, 2, 3, k)
        for m in (1, 2, 3, k)
    ]
    sources += [(f"<det_{n}>", algebra._det_source(n)) for n in range(1, k + 1)]
    found = []
    for name, source in sources:
        for node in ast.walk(ast.parse(source, name)):
            if isinstance(node, ast.Call):
                f = node.func
                if isinstance(f, ast.Name) and f.id in ("sum", "fsum"):
                    found.append(f"{name}:{node.lineno}: {f.id}()")
                elif isinstance(f, ast.Attribute) and f.attr == "fsum":
                    found.append(f"{name}:{node.lineno}: fsum()")
            elif isinstance(node, ast.Import) and any(a.name == "statistics" for a in node.names):
                found.append(f"{name}:{node.lineno}: import statistics")
            elif isinstance(node, ast.ImportFrom) and node.module == "statistics":
                found.append(f"{name}:{node.lineno}: from statistics import")
    assert found == []


def test_checks_never_return_none():
    # A trial is not applicable exactly when its check raises
    # HypothesisError, so no registered check, nor any function of
    # `genfuzz` that one calls, returns None.
    tree = ast.parse(Path(genfuzz.__file__).read_text(), "genfuzz.py")
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    todo = [getattr(p.check, "func", p.check).__name__ for p in PROPERTIES.values()]
    seen = set()
    found = []
    while todo:
        name = todo.pop()
        if name in seen or name not in defs:
            continue
        seen.add(name)
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Return) and (node.value is None or (
                isinstance(node.value, ast.Constant) and node.value.value is None
            )):
                found.append(f"{name}:{node.lineno}: return None")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                todo.append(node.func.id)
    assert {"_check_closure", "_estimator_error"} <= seen
    assert found == []
