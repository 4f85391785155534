"""Output bytes: every JSON document and curve CSV the CLI writes is the
reference rendering of what it encodes.

The references (``helpers.reference_json_text``, ``reference_csv_text``)
are the plain writers: the json module's indented encoder, and one
``"%.17g"`` row at a time.  The CLI lays out witness lists and CSV columns
with template calls instead; these tests hold it to the same bytes.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stochorder import cli

from helpers import reference_csv_text, reference_json_text

HEADER = ("p", "value_x", "value_y", "functional")


def _read(path) -> str:
    with open(path, "r", encoding="utf-8", newline="") as fp:
        return fp.read()


def _assert_json_file(path) -> dict:
    """The file is the reference rendering of the document it holds: floats
    read back exactly, so this is the document the writer was given."""
    text = _read(path)
    doc = json.loads(text)
    assert text == reference_json_text(doc)
    return doc


@pytest.fixture
def written(monkeypatch):
    """What check-order renders: each doc with its JSON text, and the
    verdicts of each request."""
    seen = {"docs": [], "verdicts": []}
    render, check = cli._verdicts_text, cli.orders_mod.check_orders

    def spy_render(doc):
        text = render(doc)
        seen["docs"].append((doc, text))
        return text

    def spy_check(*args, **kwargs):
        verdicts = check(*args, **kwargs)
        seen["verdicts"].append(verdicts)
        return verdicts

    monkeypatch.setattr(cli, "_verdicts_text", spy_render)
    monkeypatch.setattr(cli.orders_mod, "check_orders", spy_check)
    return seen


# ---------------------------------------------------------------------------
# JSON


class TestJsonBytes:
    def test_reversed_pair_with_witnesses(self, tmp_path, written):
        out = tmp_path / "v.json"
        assert cli.main(["check-order", "--x", "exp:1", "--y", "exp:2",
                         "--order", "ttt", "--order", "ew", "--order", "star",
                         "--distort", "power:2.5", "--grid-count", "64",
                         "--out-json", str(out)]) == 1
        [(doc, text)] = written["docs"]
        assert text == reference_json_text(doc)
        assert [len(r["witnesses"]) for r in doc["results"]] == [64, 64, 0]
        assert _assert_json_file(out) == doc

    def test_scenario_name_with_quotes_and_nul(self, tmp_path, written):
        # user text is escaped by json, so nothing in it can be mistaken
        # for the layout around it
        name = 'a "quoted" \x00 and \\u0000 "witnesses": [] \n end'
        out = tmp_path / "v.json"
        assert cli.main(["check-order", "--x", "exp:1", "--y", "exp:2",
                         "--order", "ttt", "--order", "dmrl", "--grid-count", "32",
                         "--scenario", name, "--out-json", str(out)]) == 1
        [(doc, text)] = written["docs"]
        assert text == reference_json_text(doc)
        assert _assert_json_file(out)["scenario"] == name
        assert all(r["scenario"] == name for r in doc["results"])

    def test_verdict_json_on_stdout(self, capsys, written):
        assert cli.main(["check-order", "--x", "exp:2", "--y", "exp:1",
                         "--order", "qmit", "--grid-count", "32"]) == 0
        [(doc, text)] = written["docs"]
        assert capsys.readouterr().out == text == reference_json_text(doc)

    def test_classify_documents(self, tmp_path):
        for i, argv in enumerate((
                ["classify", "--h", "p^2"],
                ["classify", "--signature", "0,1,1,-1",
                 "--copula", "durante: f=p^0.5, n=4"],
                ["classify", "--signature", "0,0,2,-1", "--copula",
                 "diagonal: d=1 - 7/4*(1-p) + 3/2*(1-p)^2 - 3/4*(1-p)^3, n=4"])):
            out = tmp_path / f"c{i}.json"
            assert cli.main(argv + ["--out-json", str(out)]) == 0
            _assert_json_file(out)

    def test_system_document(self, tmp_path):
        out = tmp_path / "h.json"
        assert cli.main(["system", "--signature", "0,6,-8,3", "--copula",
                         "diagonal: d=2*p^2 - p^3, n=4", "--grid-count", "17",
                         "--out-csv", str(tmp_path / "h.csv"),
                         "--out-json", str(out)]) == 0
        _assert_json_file(out)

    def test_sweep_summary(self, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps(
            {"trials": 2, "suites": ["convex_star_invariance"]}))
        out = tmp_path / "summary.json"
        assert cli.main(["sweep", "--config", str(config), "--out", str(out)]) == 0
        _assert_json_file(out)

    def test_reproduce_classification(self, tmp_path, capsys):
        assert cli.main(["reproduce", "ex_3of4", "--out-dir", str(tmp_path)]) == 0
        _assert_json_file(tmp_path / "classification.json")


EDGE_FLOATS = st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0,
                               0.0, 5e-324, -5e-324, 1e300, -1e300])
FLOATS = st.one_of(EDGE_FLOATS, st.floats(allow_nan=True, allow_infinity=True))
WITNESSES = st.lists(st.fixed_dictionaries({"p": FLOATS, "margin": FLOATS}),
                     max_size=12)
NOTES = st.lists(st.text(max_size=8), max_size=3)


@given(witness_lists=st.lists(st.tuples(WITNESSES, NOTES), min_size=0, max_size=3),
       scenario=st.text(max_size=12), distortion=st.one_of(st.none(), st.text(max_size=6)))
def test_check_order_doc_matches_the_json_module(witness_lists, scenario, distortion):
    doc = {
        "scenario": scenario, "x": "exp(1)", "y": "exp(2)",
        "distortion": distortion,
        "holds": not any(ws for ws, _ in witness_lists),
        "results": [{"scenario": scenario, "order": "ttt", "holds": not ws,
                     "witnesses": ws, "grid": "512:0.001:0.999",
                     "tolerances": {"abs_tol": 1e-8, "rel_tol": 1e-8},
                     "notes": notes} for ws, notes in witness_lists],
    }
    assert cli._verdicts_text(doc) == reference_json_text(doc)


@pytest.mark.parametrize("value", [1, True, np.float64(0.25), None])
def test_a_witness_that_is_not_a_float_falls_back(value):
    doc = {"results": [{"witnesses": [{"p": 0.5, "margin": -1.0},
                                      {"p": value, "margin": -2.0}]}]}
    assert cli._verdicts_text(doc) == reference_json_text(doc)


# ---------------------------------------------------------------------------
# CSV


def _csv_paths(base: str, verdicts) -> list:
    if len(verdicts) == 1:
        return [base]
    stem, ext = os.path.splitext(base)
    return [f"{stem}_{v.kind.value}{ext or '.csv'}" for v in verdicts]


def _assert_curve_files(base, verdicts) -> None:
    for path, v in zip(_csv_paths(str(base), verdicts), verdicts):
        rows = zip(*(v.curve[key] for key in HEADER))
        assert _read(path) == reference_csv_text(HEADER, rows), path


class TestCsvBytes:
    def test_reversed_pair_all_six_orders(self, tmp_path, written):
        out = tmp_path / "curve.csv"
        argv = ["check-order", "--x", "exp:1", "--y", "exp:2",
                "--distort", "power:2.5", "--grid-count", "96", "--out-csv", str(out)]
        for kind in cli.OrderKind:
            argv += ["--order", kind.value]
        assert cli.main(argv) == 1
        [verdicts] = written["verdicts"]
        assert sorted(os.listdir(tmp_path)) == sorted(
            f"curve_{kind.value}.csv" for kind in cli.OrderKind)
        _assert_curve_files(out, verdicts)

    def test_single_order(self, tmp_path, written):
        out = tmp_path / "curve"
        assert cli.main(["check-order", "--x", "exp:2", "--y", "exp:1",
                         "--order", "dmrl", "--grid-count", "40",
                         "--out-csv", str(out)]) == 0
        [verdicts] = written["verdicts"]
        assert os.listdir(tmp_path) == ["curve"]
        _assert_curve_files(out, verdicts)

    def test_exclusions_shorten_the_columns(self, tmp_path, written):
        out = tmp_path / "curve.dat"
        assert cli.main(["check-order", "--x", "q: min(p, 0.5)", "--y", "exp:1",
                         "--order", "convex_transform", "--order", "star",
                         "--order", "dmrl", "--grid-count", "64",
                         "--out-csv", str(out), "--out-json",
                         str(tmp_path / "v.json")]) in (0, 1)
        [verdicts] = written["verdicts"]
        assert any(len(v.curve["p"]) < 64 for v in verdicts)
        _assert_curve_files(out, verdicts)

    def test_zeros_of_either_sign_keep_their_own_text(self, tmp_path):
        # one memo across files, as check-order shares it: 0.0 and -0.0
        # compare equal but must not share text
        texts = {}
        columns = {"plus": ([0.0, 0.5, 0.0], [0.0, 0.0, 1.0]),
                   "minus": ([0.0, 0.5, 0.0], [-0.0, -0.0, 1.0])}
        for name, cols in columns.items():
            path = tmp_path / f"{name}.csv"
            cli._write_csv(str(path), ("a", "b"), cols, texts=texts)
            assert _read(path) == reference_csv_text(("a", "b"), zip(*cols))
        assert _read(tmp_path / "minus.csv").splitlines()[1] == "0,-0"
        assert len(texts) == 3

    def test_no_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        cli._write_csv(str(path), ("a", "b"), ([], []), comment="none")
        assert _read(path) == reference_csv_text(("a", "b"), [], comment="none")
