"""Behaviour lock: every FuzzReport fingerprint in `fingerprint_cases` holds."""

from __future__ import annotations

import ast
import dataclasses
import math
from pathlib import Path

import pytest

import balmat
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
    # so it rounds differently from 3.11 and would change fingerprints.
    found = []
    for path in sorted(Path(balmat.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                f = node.func
                if isinstance(f, ast.Name) and f.id in ("sum", "fsum"):
                    found.append(f"{path.name}:{node.lineno}: {f.id}()")
                elif isinstance(f, ast.Attribute) and f.attr == "fsum":
                    found.append(f"{path.name}:{node.lineno}: fsum()")
            elif isinstance(node, ast.Import) and any(a.name == "statistics" for a in node.names):
                found.append(f"{path.name}:{node.lineno}: import statistics")
            elif isinstance(node, ast.ImportFrom) and node.module == "statistics":
                found.append(f"{path.name}:{node.lineno}: from statistics import")
    assert found == []
