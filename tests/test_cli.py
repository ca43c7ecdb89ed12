"""CLI surface: exit codes, file round trips, determinism."""
import csv
import json
import math

import numpy as np
import pytest

from dpsynth import cli
from dpsynth.cli import main
from dpsynth.domain import Dataset, Domain
from dpsynth.gem import init_params, save_checkpoint
from dpsynth.methods import CONFIGS
from dpsynth.report import canonical_json

from cli_process import run_dpsynth


def _write_domain(path, names_sizes):
    path.write_text(
        json.dumps({"attributes": [{"name": n, "size": s} for n, s in names_sizes]}) + "\n"
    )


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


@pytest.fixture
def toy(tmp_path):
    """gen-toy produced domain + data files: (domain_path, data_path)."""
    dom = tmp_path / "domain.json"
    dat = tmp_path / "data.csv"
    rc = main(
        [
            "gen-toy",
            "--attrs", "2",
            "--sizes", "3",
            "--n", "120",
            "--seed", "0",
            "--out", str(dat),
            "--domain-out", str(dom),
        ]
    )
    assert rc == 0
    return dom, dat


def _synth(toy, tmp_path, *extra, method="mwem", budget=("--rho", "0.05")):
    dom, dat = toy
    return main(
        [
            "synth",
            "--domain", str(dom),
            "--data", str(dat),
            "--method", method,
            *budget,
            "--marginal-k", "2",
            "--T", "3",
            "--seed", "0",
            *map(str, extra),
        ]
    )


def test_gen_toy_writes_files(toy):
    dom, dat = toy
    obj = json.loads(dom.read_text())
    assert [a["name"] for a in obj["attributes"]] == ["a0", "a1"]
    with open(dat, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["a0", "a1"]
    assert len(rows) == 121


def test_synth_evaluate_round_trip(toy, tmp_path, capsys):
    dom, dat = toy
    out_csv = tmp_path / "synthetic.csv"
    report = tmp_path / "report.json"
    rc = _synth(toy, tmp_path, "--out", out_csv, "--report", report, "--samples", "500")
    assert rc == 0
    rep = json.loads(report.read_text())
    assert rep["method"] == "mwem" and rep["private"] is True
    assert rep["budget"]["rho"] == 0.05
    assert 0.0 <= rep["errors"]["max"] <= 1.0
    capsys.readouterr()

    rc = main(
        [
            "evaluate",
            "--domain", str(dom),
            "--data", str(dat),
            "--synthetic", str(out_csv),
            "--marginal-k", "2",
        ]
    )
    assert rc == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("max=")
    mx = float(line.split()[0].split("=")[1])
    # 500 samples from the fitted histogram should stay in the ballpark of
    # the reported distribution error
    assert mx <= rep["errors"]["max"] + 0.15


def test_budget_conflict_exits_2(toy, tmp_path):
    assert _synth(toy, tmp_path, budget=("--rho", "0.1", "--epsilon", "1", "--delta", "1e-6")) == 2
    assert _synth(toy, tmp_path, budget=()) == 2
    assert _synth(toy, tmp_path, budget=("--epsilon", "1")) == 2


def test_option_conflicts_exit_2(toy, tmp_path):
    assert _synth(toy, tmp_path, "--public", "whatever.csv") == 2  # mwem has no public variant
    assert _synth(toy, tmp_path, "--output-average", method="rap-softmax") == 2
    assert _synth(toy, tmp_path, "--gem-init", "ck.json") == 2
    assert _synth(toy, tmp_path, "--workloads", "abc") == 2
    assert _synth(toy, tmp_path, "--pretrain-steps", "0") == 2
    assert _synth(toy, tmp_path, "--samples", "0", "--out", tmp_path / "s.csv") == 2
    assert _synth(toy, tmp_path, "--samples", "-5", "--out", tmp_path / "s.csv") == 2
    # dualquery and fem measure no answers, so the flag would be silently ignored
    assert _synth(toy, tmp_path, "--marginal-trick", method="dualquery") == 2
    assert _synth(toy, tmp_path, "--marginal-trick", method="fem") == 2
    assert main(["gen-toy", "--sizes", "a,b", "--out", str(tmp_path / "t.csv")]) == 2


def test_budget_error_exits_2(toy, tmp_path):
    # T=0 rounds is a budget violation, not a crash
    dom, dat = toy
    rc = main(
        ["synth", "--domain", str(dom), "--data", str(dat), "--method", "mwem",
         "--rho", "0.1", "--T", "0", "--marginal-k", "2"]
    )
    assert rc == 2


def test_capacity_exits_3(toy, tmp_path):
    assert _synth(toy, tmp_path, "--cell-cap", "4") == 3  # 3x3 domain > 4 cells


def test_missing_files_exit_4(toy, tmp_path):
    dom, dat = toy
    rc = main(
        ["synth", "--domain", str(tmp_path / "absent.json"), "--data", str(dat),
         "--method", "mwem", "--rho", "0.1"]
    )
    assert rc == 4
    rc = main(
        ["evaluate", "--domain", str(dom), "--data", str(tmp_path / "absent.csv"),
         "--synthetic", str(dat)]
    )
    assert rc == 4


def test_bad_data_exits_4(toy, tmp_path, capsys):
    dom, _ = toy
    bad = tmp_path / "bad.csv"
    _write_csv(bad, ["a0", "a1"], [[0, 7]])  # 7 out of range for size 3
    rc = main(
        ["synth", "--domain", str(dom), "--data", str(bad), "--method", "mwem", "--rho", "0.1"]
    )
    assert rc == 4
    assert capsys.readouterr().err.startswith("error: ")


# (subcommand or synth method, flag, out-of-range value)
BAD_SETTINGS = [
    ("mwem", "--mwem-eta", "0"),
    ("mwem", "--mwem-cycles", "0"),
    ("pep", "--pep-gamma", "-1"),
    ("pep", "--pep-tmax", "0"),
    ("gem", "--gem-hidden", "0"),
    ("gem", "--gem-hidden", "4,0"),
    ("gem", "--gem-hidden", "-3"),
    ("gem", "--gem-zdim", "0"),
    ("gem", "--gem-batch", "0"),
    ("gem", "--gem-lr", "-1"),
    ("gem", "--gem-ema-beta", "1.5"),
    ("rap-softmax", "--rap-rows", "0"),
    ("rap-softmax", "--rap-lr", "0"),
    ("dualquery", "--dq-samples", "0"),
    ("fem", "--fem-sigma", "0"),
    ("fem", "--fem-samples", "0"),
    ("mwem", "--marginal-k", "0"),
    ("mwem", "--workloads", "0"),
    ("mwem", "--workloads", "99"),
    ("evaluate", "--gem-batch", "0"),
    ("pretrain", "--gem-hidden", "0"),
    ("pretrain", "--gem-hidden", "4,0"),
    ("pretrain", "--gem-hidden", "-3"),
    ("pretrain", "--lr", "0"),
    ("gen-toy", "--attrs", "0"),
    ("gen-toy", "--sizes", "1"),
    # float settings must be finite, and exp of the largest step they allow must not overflow
    ("gem", "--gem-lr", "inf"),
    ("gem", "--pretrain-lr", "inf"),
    ("pretrain", "--lr", "inf"),
    ("rap-softmax", "--rap-lr", "inf"),
    ("fem", "--fem-sigma", "inf"),
    ("fem", "--fem-sigma", "1e308"),  # finite, but Exp(sigma) sums over the attributes overflow
    ("mwem", "--mwem-eta", "inf"),
    ("mwem", "--mwem-eta", "1e-300"),
    ("pep", "--pep-gamma", "inf"),
    # numpy takes only non-negative seeds: every subcommand with a seed rejects a negative one
    ("mwem", "--seed", "-1"),
    ("mwem", "--workload-seed", "-1"),
    ("evaluate", "--seed", "-1"),
    ("evaluate", "--workload-seed", "-1"),
    ("pretrain", "--seed", "-1"),
    ("pretrain", "--workload-seed", "-1"),
    ("best-mixture-error", "--seed", "-1"),
    ("best-mixture-error", "--workload-seed", "-1"),
    ("gen-toy", "--seed", "-1"),
]


@pytest.mark.parametrize("command,flag,value", BAD_SETTINGS, ids=[" ".join(c) for c in BAD_SETTINGS])
def test_out_of_range_setting_exits_2(toy, tmp_path, capsys, command, flag, value):
    # one "error:" line, never a traceback
    dom, dat = toy
    if command == "pretrain":
        argv = ["pretrain", "--domain", str(dom), "--public", str(dat), "--out", str(tmp_path / "ck.json"),
                "--marginal-k", "2"]
    elif command == "evaluate":
        argv = ["evaluate", "--domain", str(dom), "--data", str(dat), "--synthetic", str(dat)]
    elif command == "best-mixture-error":
        argv = ["best-mixture-error", "--domain", str(dom), "--data", str(dat), "--public", str(dat),
                "--marginal-k", "2"]
    elif command == "gen-toy":
        argv = ["gen-toy", "--out", str(tmp_path / "t.csv")]
    else:
        argv = ["synth", "--domain", str(dom), "--data", str(dat), "--method", command, "--rho", "0.05",
                "--marginal-k", "2", "--T", "3"]
    assert main([*argv, flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


# case -> flags after a valid synth command line (None: --domain and --data left out)
ARGPARSE_REJECTIONS = {
    "not-an-integer": ["--T", "x"],
    "unknown-flag": ["--no-such-flag"],
    "missing-required": None,
    "retired-em-halved": ["--em-halved"],
}


@pytest.mark.parametrize("case", sorted(ARGPARSE_REJECTIONS))
def test_argparse_rejection_prints_one_error_line(toy, capsys, case):
    dom, dat = toy
    argv = ["synth", "--method", "mwem", "--rho", "0.05"]
    if ARGPARSE_REJECTIONS[case] is not None:
        argv += ["--domain", str(dom), "--data", str(dat), *ARGPARSE_REJECTIONS[case]]
    with pytest.raises(SystemExit) as ei:
        main(argv)
    assert ei.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_no_noise_warns_and_marks_report(toy, tmp_path, capsys):
    report = tmp_path / "report.json"
    rc = _synth(toy, tmp_path, "--no-noise", "--report", report)
    assert rc == 0
    err = capsys.readouterr().err
    assert "NOT private" in err
    rep = json.loads(report.read_text())
    assert rep["private"] is False
    assert '"private": false' in report.read_text()


def test_audit_errors_marks_report_not_private(toy, tmp_path, capsys):
    # the trace then carries errors against the private answers
    report, trace = tmp_path / "report.json", tmp_path / "trace.jsonl"
    rc = _synth(toy, tmp_path, "--audit-errors", "--report", report, "--trace", trace)
    assert rc == 0
    assert "NOT private" in capsys.readouterr().err
    assert json.loads(report.read_text())["private"] is False
    rows = [json.loads(line) for line in trace.read_text().splitlines()]
    assert rows and all("max_err_all" in r for r in rows)


def test_same_seed_same_outputs(toy, tmp_path, capsys):
    reports, csvs = [], []
    for tag in ("x", "y"):
        rep = tmp_path / f"rep_{tag}.json"
        out = tmp_path / f"out_{tag}.csv"
        assert _synth(toy, tmp_path, "--report", rep, "--out", out) == 0
        reports.append(json.loads(rep.read_text()))
        csvs.append(out.read_bytes())
    assert canonical_json(reports[0]) == canonical_json(reports[1])
    assert csvs[0] == csvs[1]
    capsys.readouterr()


def test_accountant_frozen_values(capsys):
    rc = main(
        ["accountant", "--rho", "0.5", "--T", "10", "--k", "1", "--alpha", "0.5", "--n", "1000"]
    )
    assert rc == 0
    out = dict(ln.split("=", 1) for ln in capsys.readouterr().out.splitlines())
    assert float(out["eps0"]) == pytest.approx(0.4472135954999579, abs=1e-12)
    assert float(out["sigma_single"]) == pytest.approx(0.004472135954999579, abs=1e-12)
    assert float(out["sigma_workload"]) == pytest.approx(0.006324555320336759, abs=1e-12)

    rc = main(
        ["accountant", "--rho", "1", "--delta", repr(math.exp(-9)), "--T", "1", "--n", "10"]
    )
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    eps_line = [ln for ln in lines if ln.startswith("epsilon(")][0]
    assert float(eps_line.split("=")[-1]) == pytest.approx(7.0, abs=1e-9)


def test_accountant_selection_only_prints_no_sigma(capsys):
    rc = main(["accountant", "--rho", "0.5", "--T", "10", "--alpha", "1.0", "--n", "100"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "sigma" not in out
    assert "eps0=" in out


def test_evaluate_uniform_vs_point_mass(tmp_path, capsys):
    dom = tmp_path / "d.json"
    _write_domain(dom, [("a", 2)])
    priv = tmp_path / "priv.csv"
    _write_csv(priv, ["a"], [[0]] * 10)
    synth = tmp_path / "synth.csv"
    _write_csv(synth, ["a"], [[0]] * 5 + [[1]] * 5)
    rc = main(
        ["evaluate", "--domain", str(dom), "--data", str(priv), "--synthetic", str(synth),
         "--marginal-k", "1"]
    )
    assert rc == 0
    assert capsys.readouterr().out.strip() == "max=0.5 mean=0.5 rmse=0.5"


def test_evaluate_requires_one_source(toy, tmp_path):
    dom, dat = toy
    rc = main(["evaluate", "--domain", str(dom), "--data", str(dat)])
    assert rc == 2
    rc = main(
        ["evaluate", "--domain", str(dom), "--data", str(dat),
         "--synthetic", str(dat), "--dist", "x.npz"]
    )
    assert rc == 2
    rc = main(["evaluate", "--domain", str(dom), "--data", str(dat), "--dist", "x.npz", "--gem-batch", "0"])
    assert rc == 2


def test_save_dist_average_then_evaluate(toy, tmp_path, capsys):
    dom, dat = toy
    dist = tmp_path / "dist.npz"
    report = tmp_path / "report.json"
    rc = _synth(toy, tmp_path, "--output-average", "--save-dist", dist, "--report", report)
    assert rc == 0
    capsys.readouterr()
    eval_report = tmp_path / "eval_report.json"
    rc = main(
        ["evaluate", "--domain", str(dom), "--data", str(dat), "--dist", str(dist),
         "--marginal-k", "2", "--report", str(eval_report)]
    )
    assert rc == 0
    capsys.readouterr()
    # evaluating the saved distribution reproduces the report's error exactly
    assert json.loads(eval_report.read_text())["errors"]["max"] == pytest.approx(
        json.loads(report.read_text())["errors"]["max"], abs=1e-12
    )


def test_pep_public_output_average_past_the_cell_cap(tmp_path, capsys):
    # 2^23 cells, over the default cap: averaging runs on the public support
    dom, dat, pub = tmp_path / "domain.json", tmp_path / "data.csv", tmp_path / "public.csv"
    gen = ["gen-toy", "--attrs", "23", "--sizes", "2", "--domain-out", str(dom)]
    assert main(gen + ["--n", "300", "--seed", "0", "--out", str(dat)]) == 0
    assert main(gen + ["--n", "100", "--seed", "1", "--out", str(pub)]) == 0
    dist = tmp_path / "dist.npz"
    rc = main(
        ["synth", "--domain", str(dom), "--data", str(dat), "--method", "pep",
         "--public", str(pub), "--output-average", "--workloads", "5", "--T", "3",
         "--rho", "0.05", "--seed", "0", "--save-dist", str(dist)]
    )
    assert rc == 0, capsys.readouterr().err
    public = Dataset.from_csv(pub, Domain.load(dom))
    with np.load(dist) as z:
        assert np.array_equal(z["cells"], np.unique(public.cells()))


@pytest.mark.parametrize("method", ["mwem", "pep"])
def test_full_domain_artifact_with_a_cell_list_evaluates_the_same(toy, tmp_path, capsys, method):
    # a full-domain artifact holds probs and domain alone; one that also
    # lists every cell (the older layout) still loads and scores the same
    dom, dat = toy
    new, old = tmp_path / "new.npz", tmp_path / "old.npz"
    assert _synth(toy, tmp_path, "--save-dist", new, method=method) == 0
    with np.load(new) as z:
        assert sorted(z.files) == ["domain", "probs"]
        np.savez(old, cells=np.arange(z["probs"].size), probs=z["probs"], domain=z["domain"])
    lines = []
    for dist in (new, old):
        capsys.readouterr()
        assert main(["evaluate", "--domain", str(dom), "--data", str(dat), "--dist", str(dist),
                     "--marginal-k", "2"]) == 0
        lines.append(capsys.readouterr().out)
    assert lines[0] == lines[1] and lines[0].startswith("max=")


def test_dist_domain_mismatch_exits_4(toy, tmp_path, capsys):
    dom, dat = toy
    dist = tmp_path / "dist.npz"
    assert _synth(toy, tmp_path, "--output-average", "--save-dist", dist) == 0
    other_dom = tmp_path / "other.json"
    _write_domain(other_dom, [("a0", 3), ("zz", 3)])
    other_dat = tmp_path / "other.csv"
    _write_csv(other_dat, ["a0", "zz"], [[0, 0], [1, 2]])
    rc = main(
        ["evaluate", "--domain", str(other_dom), "--data", str(other_dat), "--dist", str(dist),
         "--marginal-k", "2"]
    )
    assert rc == 4
    assert capsys.readouterr().err == f"error: {dist}: artifact domain does not match --domain\n"


def test_saved_generator_evaluates_to_the_reported_error(toy, tmp_path, capsys):
    # evaluate runs the checkpoint through the float32 network the fit trained
    # and answered with, on the same noise: the report's error, exactly
    dom, dat = toy
    ck, report = tmp_path / "gen.json", tmp_path / "report.json"
    rc = _synth(toy, tmp_path, "--save-dist", ck, "--report", report, method="gem", budget=("--rho", "0.5"))
    assert rc == 0
    eval_report = tmp_path / "eval_report.json"
    rc = main(["evaluate", "--domain", str(dom), "--data", str(dat), "--dist", str(ck), "--marginal-k", "2",
               "--seed", "0", "--report", str(eval_report)])
    assert rc == 0
    capsys.readouterr()
    assert json.loads(eval_report.read_text())["errors"] == json.loads(report.read_text())["errors"]


def test_checkpoint_domain_mismatch_exits_4(toy, tmp_path, capsys):
    # evaluate --dist and synth --gem-init share one checkpoint loader
    dom, dat = toy
    ck = tmp_path / "gen.json"
    rc = main(
        ["pretrain", "--domain", str(dom), "--public", str(dat), "--out", str(ck),
         "--marginal-k", "2", "--steps", "5", "--gem-hidden", "8", "--gem-zdim", "4"]
    )
    assert rc == 0
    capsys.readouterr()
    other_dom = tmp_path / "other.json"
    _write_domain(other_dom, [("a0", 3), ("zz", 3)])
    other_dat = tmp_path / "other.csv"
    _write_csv(other_dat, ["a0", "zz"], [[0, 0], [1, 2]])
    common = ["--domain", str(other_dom), "--data", str(other_dat), "--marginal-k", "2"]
    for argv in (
        ["evaluate", *common, "--dist", str(ck)],
        ["synth", *common, "--method", "gem", "--rho", "0.1", "--gem-init", str(ck)],
    ):
        assert main(argv) == 4
        assert capsys.readouterr().err == f"error: {ck}: checkpoint domain does not match --domain\n"


def _checkpoint(path, dom):
    """A valid generator checkpoint over the domain file `dom`, as a JSON object."""
    domain = Domain.load(dom)
    save_checkpoint(init_params(np.random.default_rng(0), 4, (8,), domain.onehot_width), domain, path)
    return json.loads(path.read_text())


def _malformed_checkpoint(path, dom, edit):
    obj = _checkpoint(path, dom)
    edit(obj)
    path.write_text(json.dumps(obj))


def _npz(path, dom, **arrays):
    np.savez(path, domain=Domain.load(dom).to_json(), **arrays)


MALFORMED = {
    "domain-size-not-an-integer": lambda p, dom: _write_domain(p, [("a0", "x"), ("a1", 3)]),
    "checkpoint-not-json": lambda p, dom: p.write_text("{not json"),
    "checkpoint-a-json-list": lambda p, dom: p.write_text("[1, 2]"),
    "checkpoint-without-layers": lambda p, dom: _malformed_checkpoint(p, dom, lambda o: o.pop("layers")),
    "checkpoint-weights-unlike-shape": lambda p, dom: _malformed_checkpoint(
        p, dom, lambda o: o["layers"][0].update(shape=[5, 8])
    ),
    "checkpoint-not-chaining-to-domain": lambda p, dom: _malformed_checkpoint(
        p, dom, lambda o: o["layers"].pop()
    ),
    "npz-not-an-archive": lambda p, dom: p.write_text("not a zip archive"),
    "npz-object-arrays": lambda p, dom: _npz(p, dom, cells=np.arange(2).astype(object), probs=np.ones(2)),
    "npz-without-domain": lambda p, dom: np.savez(p, cells=np.array([0, 1]), probs=np.ones(2) / 2),
    "npz-rows-of-another-width": lambda p, dom: _npz(p, dom, P=np.full((2, 5), 0.5)),
    "npz-rows-outside-unit-interval": lambda p, dom: _npz(p, dom, P=np.full((2, 6), 1.5)),
    "npz-no-rows": lambda p, dom: _npz(p, dom, P=np.empty((0, 6))),
    "npz-cells-outside-domain": lambda p, dom: _npz(p, dom, cells=np.array([100, -3]), probs=np.ones(2) / 2),
    "npz-negative-probs": lambda p, dom: _npz(p, dom, cells=np.array([0, 1]), probs=np.array([5.0, -4.0])),
    "npz-repeated-cells": lambda p, dom: _npz(p, dom, cells=np.array([0, 0]), probs=np.ones(2) / 2),
    "npz-probs-only-of-another-length": lambda p, dom: _npz(p, dom, probs=np.ones(8) / 8),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_file_exits_4(toy, tmp_path, capsys, case):
    # one "error:" line, never a traceback
    dom, dat = toy
    common = ["--data", str(dat), "--marginal-k", "2"]
    if case.startswith("domain"):
        bad = tmp_path / "domain.json"
        runs = [["synth", "--domain", str(bad), *common, "--method", "mwem", "--rho", "0.1"]]
    elif case.startswith("checkpoint"):
        bad = tmp_path / "gen.json"
        runs = [
            ["evaluate", "--domain", str(dom), *common, "--dist", str(bad)],
            ["synth", "--domain", str(dom), *common, "--method", "gem", "--rho", "0.1",
             "--gem-init", str(bad)],
        ]
    else:
        bad = tmp_path / "dist.npz"
        runs = [["evaluate", "--domain", str(dom), *common, "--dist", str(bad)]]
    MALFORMED[case](bad, dom)
    for argv in runs:
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_checkpoint_architecture_is_read_off_the_weights(toy, tmp_path, capsys):
    # the file's z_dim and hidden fields are written for readers, never trusted
    dom, dat = toy
    ck, edited = tmp_path / "gen.json", tmp_path / "edited.json"
    obj = _checkpoint(ck, dom)
    edited.write_text(json.dumps({**obj, "z_dim": 3, "hidden": [99, 7]}))
    common = ["--domain", str(dom), "--data", str(dat), "--marginal-k", "2"]
    lines = []
    for path in (ck, edited):
        assert main(["evaluate", *common, "--dist", str(path)]) == 0
        lines.append(capsys.readouterr().out)
    assert lines[0] == lines[1]
    rc = main(["synth", *common, "--method", "gem", "--rho", "0.1", "--T", "2", "--gem-tmax", "2",
               "--gem-init", str(edited)])
    assert rc == 0, capsys.readouterr().err


def test_search_methods_run(toy, tmp_path, capsys):
    report = tmp_path / "report.json"
    rc = _synth(
        toy, tmp_path, "--dq-samples", "30", "--report", report,
        method="dualquery", budget=("--rho", "0.2"),
    )
    assert rc == 0
    rep = json.loads(report.read_text())
    assert rep["method"] == "dualquery"
    assert rep["alpha"] == 1.0  # self-selecting methods spend everything on selection
    rc = _synth(
        toy, tmp_path, "--fem-samples", "30", method="fem", budget=("--rho", "0.2")
    )
    assert rc == 0
    capsys.readouterr()


def test_pretrain_zero_steps_exits_2(toy, tmp_path, capsys):
    dom, dat = toy
    ck = tmp_path / "gen.json"
    rc = main(["pretrain", "--domain", str(dom), "--public", str(dat), "--out", str(ck), "--steps", "0"])
    assert rc == 2
    assert capsys.readouterr().err == "error: --steps must be >= 1, got 0\n"
    assert not ck.exists()


def test_pretrain_has_no_training_flags(toy, tmp_path, capsys):
    # pretraining takes its step size from --lr; the synth loop's --gem-lr is not its flag
    dom, dat = toy
    argv = ["pretrain", "--domain", str(dom), "--public", str(dat), "--out", str(tmp_path / "gen.json")]
    with pytest.raises(SystemExit) as ei:
        main([*argv, "--gem-lr", "5"])
    assert ei.value.code == 2
    assert "unrecognized arguments: --gem-lr 5" in capsys.readouterr().err


def test_pretrain_then_gem_init(toy, tmp_path, capsys):
    dom, dat = toy
    ck = tmp_path / "gen.json"
    gem_flags = [
        "--gem-hidden", "8", "--gem-zdim", "4", "--gem-batch", "20",
    ]
    rc = main(
        [
            "pretrain",
            "--domain", str(dom),
            "--public", str(dat),
            "--out", str(ck),
            "--marginal-k", "2",
            "--steps", "300",
            "--lr", "0.01",
            *gem_flags,
        ]
    )
    assert rc == 0
    assert json.loads(ck.read_text())["format"] == "generator-checkpoint"
    report = tmp_path / "report.json"
    # no shape flags here: the checkpoint's architecture must override the
    # --gem-zdim/--gem-hidden defaults or the weights cannot be loaded
    rc = _synth(
        toy, tmp_path, "--gem-init", ck, "--gem-tmax", "5", "--report", report,
        method="gem",
    )
    assert rc == 0
    assert json.loads(report.read_text())["method"] == "gem"
    capsys.readouterr()


def test_best_mixture_error_subcommand(toy, tmp_path, capsys):
    dom, dat = toy
    rc = main(
        [
            "best-mixture-error",
            "--domain", str(dom),
            "--data", str(dat),
            "--public", str(dat),
            "--marginal-k", "2",
            "--iterations", "500",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("best_mixture_error=")
    val = float(out.split("=")[1])
    # reweighting the private support itself can reproduce it (near-)exactly
    assert 0.0 <= val < 0.02


@pytest.mark.parametrize("iterations", ["0", "-3"])
def test_best_mixture_error_non_positive_iterations_exits_2(toy, capsys, iterations):
    dom, dat = toy
    rc = main(
        ["best-mixture-error", "--domain", str(dom), "--data", str(dat), "--public", str(dat),
         "--iterations", iterations]
    )
    assert rc == 2
    assert capsys.readouterr().err == f"error: --iterations must be >= 1, got {iterations}\n"


def test_best_mixture_error_past_int64_cells_exits_3(tmp_path, capsys):
    # 25 attributes of size 10: 10^25 cells, past int64 flat cell indices
    dom, dat = tmp_path / "domain.json", tmp_path / "data.csv"
    rc = main(
        ["gen-toy", "--attrs", "25", "--sizes", "10", "--n", "50", "--seed", "0",
         "--out", str(dat), "--domain-out", str(dom)]
    )
    assert rc == 0
    rc = main(
        ["best-mixture-error", "--domain", str(dom), "--data", str(dat), "--public", str(dat),
         "--marginal-k", "1", "--iterations", "5"]
    )
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_module_entry_point_subprocess():
    proc = run_dpsynth(
        ["accountant", "--rho", "0.5", "--T", "10", "--alpha", "0.5", "--n", "1000"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "eps0=0.4472135954999579" in proc.stdout
    # argparse usage failures come back as exit 2
    proc = run_dpsynth(["synth"], capture_output=True, text=True)
    assert proc.returncode == 2


@pytest.fixture
def toy3(tmp_path):
    """A 3x3x3 gen-toy table: (domain_path, data_path)."""
    dom, dat = tmp_path / "domain3.json", tmp_path / "data3.csv"
    rc = main(["gen-toy", "--attrs", "3", "--sizes", "3", "--n", "120", "--seed", "0",
               "--out", str(dat), "--domain-out", str(dom)])
    assert rc == 0
    return dom, dat


def _synth3(toy3, method, *extra):
    dom, dat = toy3
    argv = ["synth", "--domain", str(dom), "--data", str(dat), "--method", method, "--rho", "0.5", "--T", "2"]
    try:
        return main([*argv, *map(str, extra)])
    except SystemExit as e:  # argparse's rejection of a value its type cannot parse
        return e.code


@pytest.mark.parametrize("method", ["gem", "mwem", "pep"])
def test_alpha_one_rejected_for_a_measuring_method_before_pretraining(toy3, capsys, method):
    # alpha = 1 leaves no budget to measure with; gem must not pretrain first
    extra = ("--public", toy3[1]) if method == "gem" else ()
    rc = _synth3(toy3, method, "--alpha", "1", *extra)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "pretrained" not in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("subcommand", ["synth", "synth-last-step", "pretrain"])
def test_diverged_generator_exits_2(toy3, tmp_path, capsys, subcommand):
    # a learning rate this large sends the weights to inf and the answers to
    # NaN; that is a bad setting, not bad data. It is past float32's range
    # too, and the float32 step overflows without a warning: the one error
    # line is all a run prints. In synth-last-step the only step is the
    # fit's last, and no later pass reports it
    dom, dat = toy3
    if subcommand == "synth":
        rc = _synth3(toy3, "gem", "--T", "3", "--gem-lr", "1e300")
    elif subcommand == "synth-last-step":
        rc = _synth3(toy3, "gem", "--T", "1", "--gem-tmax", "1", "--gem-lr", "1e300")
    else:
        rc = main(["pretrain", "--domain", str(dom), "--public", str(dat), "--out", str(tmp_path / "g.json"),
                   "--lr", "1e300"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "learning rate" in err, err


def _partial_public(tmp_path, toy3):
    """The private table without its last attribute, as a public CSV."""
    with open(toy3[1], newline="") as f:
        rows = list(csv.reader(f))
    path = tmp_path / "partial.csv"
    _write_csv(path, rows[0][:-1], [r[:-1] for r in rows[1:]])
    return path


def test_pep_public_without_every_private_attribute_exits_4(toy3, tmp_path, capsys):
    rc = _synth3(toy3, "pep", "--public", _partial_public(tmp_path, toy3))
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "['a2']" in err, err


def test_best_mixture_error_public_without_every_private_attribute_exits_4(toy3, tmp_path, capsys):
    dom, dat = toy3
    rc = main(["best-mixture-error", "--domain", str(dom), "--data", str(dat),
               "--public", str(_partial_public(tmp_path, toy3)), "--iterations", "5"])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "['a2']" in err, err


# flag -> the methods that read it; --pretrain-steps is checked for every method
METHOD_FLAGS = {
    "--mwem-eta": ("mwem",),
    "--mwem-cycles": ("mwem",),
    "--pep-gamma": ("pep",),
    "--pep-tmax": ("pep",),
    "--gem-hidden": ("gem",),
    "--gem-zdim": ("gem",),
    "--gem-batch": ("gem",),
    "--gem-lr": ("gem",),
    "--gem-tmax": ("gem",),
    "--gem-ema-beta": ("gem",),
    "--gem-loss": ("gem",),
    "--rap-rows": ("rap-softmax",),
    "--rap-lr": ("rap-softmax",),
    "--rap-steps": ("rap-softmax",),
    "--dq-samples": ("dualquery",),
    "--fem-sigma": ("fem",),
    "--fem-samples": ("fem",),
    "--cell-cap": ("mwem", "pep", "dualquery", "fem"),
    "--pretrain-steps": ("mwem", "pep", "gem", "rap-softmax", "dualquery", "fem"),
}
# (flag, value) pairs that are in range: a zero PEP tolerance, or no inner steps
VALID_AT_ZERO = {("--pep-gamma", "0"), ("--gem-tmax", "0"), ("--rap-steps", "0")}
FLAG_CASES = [(flag, owners[0], v) for flag, owners in METHOD_FLAGS.items() for v in ("0", "-1", "nan")]


@pytest.mark.parametrize("flag,method,value", FLAG_CASES, ids=[" ".join(c) for c in FLAG_CASES])
def test_method_flag_out_of_range(toy3, capsys, flag, method, value):
    # exit 0 or the documented code, never a traceback, one error line on failure
    extra = ("--public", toy3[1]) if flag == "--pretrain-steps" else ()
    rc = _synth3(toy3, method, flag, value, *extra)
    if (flag, value) in VALID_AT_ZERO:
        want = 0
    elif flag == "--cell-cap" and value != "nan":
        want = 3  # a cap below the 27 cells
    else:
        want = 2
    err = capsys.readouterr().err
    assert rc == want, err
    if rc:
        assert err.startswith("error: ") and err.count("\n") == 1, err


OTHER_METHOD = {
    "mwem": "gem", "pep": "mwem", "gem": "mwem", "rap-softmax": "pep", "dualquery": "fem", "fem": "dualquery"
}
CROSS_CASES = [
    (flag, method, v)
    for flag, owners in METHOD_FLAGS.items()
    if flag != "--gem-loss"  # argparse checks its choices whatever the method
    for method in {OTHER_METHOD[owners[0]]} - set(owners)
    for v in ("0", "-1")
]


@pytest.mark.parametrize("flag,method,value", CROSS_CASES, ids=[" ".join(c) for c in CROSS_CASES])
def test_method_flag_of_another_method_is_not_checked(toy3, capsys, flag, method, value):
    rc = _synth3(toy3, method, flag, value)
    assert rc == 0, capsys.readouterr().err


def test_every_method_flag_with_a_value_has_out_of_range_rows():
    # the switches (--gem-resample-z, --rap-original) take no value
    valued = {f for f, (m, field) in cli.METHOD_FLAGS.items() if not isinstance(getattr(CONFIGS[m], field), bool)}
    assert valued <= set(METHOD_FLAGS)


@pytest.mark.parametrize("method", list(CONFIGS))
def test_default_flags_build_the_default_config(method):
    args = cli.build_parser().parse_args(["synth", "--domain", "d", "--data", "x", "--method", method])
    assert cli._method_config(args, method) == CONFIGS[method]()


def test_default_pretrain_flags_build_the_default_generator_config():
    args = cli.build_parser().parse_args(["pretrain", "--domain", "d", "--public", "p", "--out", "o"])
    assert cli._method_config(args, "gem") == CONFIGS["gem"]()
