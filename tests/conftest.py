"""Session fixtures shared by more than one test module."""

from __future__ import annotations

from math import factorial

import pytest

from corpus import enumerate_valid_schedules, implication_corpus_workloads
from oracles import conflict_serializable_oracle, level_reports_oracle, view_serializable_oracle

from mvsched import IsolationLevel, allowed_at_levels, is_conflict_serializable, is_view_serializable


@pytest.fixture(scope="session")
def corpus_scan():
    """One pass over every valid schedule of the criterion-3 corpus for the
    checks that need all of them: the conflict verdict and cycle against the
    graph oracle, conflict- implying view-serializability, the view search
    against the permutation oracle, and every transaction's RC, SI and SSI
    reports from one clause pass against the clause oracle.  It keeps counts
    and the first schedule the conflict oracle disagrees on, never the
    schedules."""
    stats = {
        "schedules": 0,
        "conflict_serializable": 0,
        "conflict_mismatches": 0,
        "first_conflict_mismatch": None,
        "implication_failures": 0,
        "oracle_mismatches": 0,
        "level_report_mismatches": 0,
    }
    levels = tuple(IsolationLevel)
    for txns in implication_corpus_workloads():
        for s in enumerate_valid_schedules(txns):
            stats["schedules"] += 1
            conflict = is_conflict_serializable(s)
            expected = conflict_serializable_oracle(s)
            if conflict != expected:
                stats["conflict_mismatches"] += 1
                stats["first_conflict_mismatch"] = stats["first_conflict_mismatch"] or (s, conflict, expected)
            witness = is_view_serializable(s)
            oracle = view_serializable_oracle(s)
            if conflict[0]:
                stats["conflict_serializable"] += 1
                if not witness.verdict:
                    stats["implication_failures"] += 1
            if witness.verdict != (oracle is not None):
                stats["oracle_mismatches"] += 1
            elif witness.verdict and witness.witness != oracle:
                stats["oracle_mismatches"] += 1
            elif not witness.verdict and witness.exhausted != factorial(len(s.txns)):
                stats["oracle_mismatches"] += 1
            if allowed_at_levels(s, [levels] * len(s.txns)) != level_reports_oracle(s):
                stats["level_report_mismatches"] += 1
    return stats
