import pytest

from hochschild_kit.ledger import Ledger
from hochschild_kit.verify import SuiteResult


def test_checks_keep_the_order_of_first_record():
    ledger = Ledger()
    ledger.record("b", True)
    ledger.record("a", True)
    ledger.record("b", False, "late")
    ledger.record("c", False, "x")
    assert [name for name, _, _ in ledger.checks] == ["b", "a", "c"]
    assert list(ledger.verdicts()) == ["b", "a", "c"]


def test_the_first_failed_record_of_a_name_fixes_its_detail():
    ledger = Ledger()
    ledger.record("a", True, "fine")
    ledger.record("a", False, "first")
    ledger.record("a", False, "second")
    ledger.record("a", True, "passes again")
    assert ledger.checks == [("a", False, "first")]
    assert not ledger.ok


def test_the_first_failure_is_taken_across_names_in_run_order():
    ledger = Ledger()
    ledger.record("early", True)
    ledger.record("late", True)
    ledger.record("late", False, "fails first")
    ledger.record("early", False, "fails second")
    assert ledger.first_failure() == "late: fails first"
    assert [name for name, _, _ in ledger.checks] == ["early", "late"]


def test_a_passing_record_keeps_its_detail():
    ledger = Ledger()
    ledger.record("semidistributivity", True, "meetSD=True joinSD=True")
    ledger.record("semidistributivity", True, "ignored")
    assert ledger.checks == [("semidistributivity", True, "meetSD=True joinSD=True")]
    assert ledger.ok and ledger.first_failure() is None


def test_records_coerce_verdicts_and_details():
    ledger = Ledger()
    ledger.record("count", 0, ValueError("boom"))
    assert ledger.checks == [("count", False, "boom")]
    assert ledger.first_failure() == "count: boom"


def test_verdicts_are_read_only():
    ledger = Ledger()
    ledger.record("a", True)
    with pytest.raises(TypeError):
        ledger.verdicts()["a"] = False
    assert Ledger().ok and Ledger().verdicts() == {}


def test_a_suite_result_is_a_ledger_with_the_same_document():
    res = SuiteResult("lattice", 2)
    res.record("x", True, "kept")
    res.record("y", False, "why")
    res.observe("note")
    assert res.first_failure() == "y: why"
    assert res.to_json_obj() == {
        "suite": "lattice",
        "bound": 2,
        "ok": False,
        "checks": [
            {"name": "x", "ok": True, "detail": "kept"},
            {"name": "y", "ok": False, "detail": "why"},
        ],
        "observations": ["note"],
    }
    assert res.summary().splitlines() == [
        "suite lattice (bound 2)",
        "  ok   x",
        "  FAIL y [why]",
        "  note note",
        "suite lattice: FAIL",
    ]
