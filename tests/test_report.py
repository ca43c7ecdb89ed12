"""Error metrics and report/trace/CSV serialization."""
import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpsynth.domain import DataError, Dataset, Domain
from dpsynth.privacy import Accountant
from dpsynth.queries import build_workloads
from dpsynth.report import (
    build_report,
    canonical_json,
    errors,
    per_workload_errors,
    write_errors_csv,
    write_report,
    write_trace,
)


def test_errors_frozen_example():
    mx, mn, rmse = errors(np.array([0.5, 0.2]), np.array([0.4, 0.5]))
    assert mx == pytest.approx(0.3, abs=1e-15)
    assert mn == pytest.approx(0.2, abs=1e-15)
    assert rmse == pytest.approx(np.sqrt(0.05), abs=1e-15)


def test_errors_identical_vectors_zero():
    v = np.array([0.1, 0.4, 0.5])
    assert errors(v, v.copy()) == (0.0, 0.0, 0.0)


def test_errors_single_query_all_coincide():
    mx, mn, rmse = errors(np.array([0.9]), np.array([0.2]))
    assert mx == mn == rmse == pytest.approx(0.7, abs=1e-15)


def test_errors_rejects_bad_shapes():
    with pytest.raises(DataError):
        errors(np.array([0.1, 0.2]), np.array([0.1]))
    with pytest.raises(DataError):
        errors(np.array([]), np.array([]))
    with pytest.raises(DataError):
        errors(np.ones((2, 2)), np.ones((2, 2)))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
    st.data(),
)
def test_errors_ordering_invariants(true_vals, data):
    # max >= rmse >= 0 and max >= mean >= 0.  rmse >= mean is NOT required.
    synth_vals = data.draw(
        st.lists(st.floats(0.0, 1.0), min_size=len(true_vals), max_size=len(true_vals))
    )
    mx, mn, rmse = errors(np.array(true_vals), np.array(synth_vals))
    assert mx >= rmse - 1e-12 >= -1e-12
    assert mx >= mn - 1e-12 >= -1e-12


def test_mean_can_exceed_rmse_is_not_asserted():
    # sanity: for a constant error vector mean == rmse, and no vector has
    # mean > rmse (Jensen), so the invariant list above is the right one.
    mx, mn, rmse = errors(np.array([0.5, 0.5]), np.array([0.2, 0.2]))
    assert mn == pytest.approx(rmse, abs=1e-15)


def _toy_queryset():
    dom = Domain(("a", "b"), (2, 3))
    return dom, build_workloads(dom, 1)


def test_per_workload_errors_structure():
    dom, qs = _toy_queryset()
    true = np.array([0.5, 0.5, 0.2, 0.3, 0.5])
    synth = np.array([0.4, 0.6, 0.2, 0.3, 0.5])
    rows = per_workload_errors(qs, true, synth)
    assert [r["features"] for r in rows] == [["a"], ["b"]]
    assert [r["queries"] for r in rows] == [2, 3]
    assert rows[0]["max"] == pytest.approx(0.1, abs=1e-15)
    assert rows[1]["max"] == 0.0 and rows[1]["rmse"] == 0.0


ACCT = Accountant(rho=0.5, T=10, k=1, alpha=0.67, n=4)


def _report(wall=1.5, seed=0):
    dom, qs = _toy_queryset()
    data = Dataset(dom, np.array([[0, 0], [1, 2], [1, 1], [0, 0]]))
    true = qs.answers_records(data)
    synth = np.full_like(true, 0.0)
    synth[:2] = 0.5
    synth[2:] = 1 / 3
    return build_report(
        method="mwem",
        queries=qs,
        true_answers=true,
        synth_answers=synth,
        acct=ACCT,
        epsilon=None,
        delta=1e-6,
        seed=seed,
        private=True,
        wall_time_sec=wall,
        config={"cycles": 50},
    )


def test_build_report_fields():
    rep = _report()
    assert rep["schema_version"] == 1
    assert rep["method"] == "mwem"
    assert rep["budget"] == {"rho": 0.5, "epsilon": None, "delta": 1e-6, "eps0": ACCT.eps0}
    assert (rep["T"], rep["k"], rep["alpha"], rep["n"]) == (10, 1, 0.67, 4)
    assert rep["marginal_k"] == 1
    assert rep["workload_count"] == 2
    assert rep["query_count"] == 5
    assert rep["private"] is True
    assert set(rep["errors"]) == {"max", "mean", "rmse"}
    assert len(rep["workloads"]) == 2
    assert rep["config"] == {"cycles": 50}
    assert rep["wall_time_sec"] == 1.5


def test_canonical_json_drops_wall_time_only():
    a = canonical_json(_report(wall=1.5))
    b = canonical_json(_report(wall=99.0))
    assert a == b
    assert "wall_time_sec" not in a
    # different seed must change the canonical form
    assert canonical_json(_report(seed=1)) != a


def test_canonical_json_is_sorted_and_compact():
    s = canonical_json(_report())
    parsed = json.loads(s)
    assert json.dumps(parsed, sort_keys=True, separators=(",", ":")) == s
    assert ": " not in s and ", " not in s


def test_write_load_round_trip(tmp_path):
    rep = _report()
    path = tmp_path / "report.json"
    write_report(rep, path)
    assert json.loads(path.read_text()) == rep
    text = path.read_text()
    assert text.endswith("\n")
    # stable file bytes for the same report
    write_report(rep, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_text() == text


def test_write_report_missing_directory_errors(tmp_path):
    with pytest.raises(OSError):
        write_report(_report(), tmp_path / "nope" / "report.json")


def test_write_trace_jsonl(tmp_path):
    trace = [
        {"round": 1, "selected": [3], "max_err_measured": 0.25},
        {"round": 2, "selected": [0], "max_err_measured": None},
    ]
    path = tmp_path / "trace.jsonl"
    write_trace(trace, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert [json.loads(ln) for ln in lines] == trace
    # keys sorted within each line
    assert lines[0].index("max_err_measured") < lines[0].index("round")


def test_write_errors_csv(tmp_path):
    dom, qs = _toy_queryset()
    data = Dataset(dom, np.array([[0, 0], [1, 2], [1, 1], [0, 0]]))
    true = qs.answers_records(data)
    synth = np.linspace(0.0, 1.0, true.size)
    path = tmp_path / "errors.csv"
    write_errors_csv(qs, true, synth, path)
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["features", "targets", "true", "synthetic", "abs_error"]
    assert len(rows) == 1 + qs.total_queries
    feats = [r[0] for r in rows[1:]]
    assert feats == ["a", "a", "b", "b", "b"]
    for i, r in enumerate(rows[1:]):
        assert float(r[2]) == pytest.approx(true[i], abs=0)
        assert float(r[3]) == pytest.approx(synth[i], abs=0)
        assert float(r[4]) == pytest.approx(abs(true[i] - synth[i]), abs=0)
    # repr() serialization is round-trip exact
    assert rows[1][2] == repr(float(true[0]))
