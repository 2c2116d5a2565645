import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import spinaf
from spinaf import catalog as cat
from spinaf import fp
from spinaf.cli import main
from spinaf.clifford import CliffordElement
from spinaf.qsqrt2 import QSqrt2

ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}


def test_preimage_diag(cli):
    result = cli("preimage", "diag:1,1,-1,-1")
    assert result.exit_code == 0
    assert "e3e4" in result.output
    assert "-e3e4" in result.output


def test_preimage_identity(cli):
    result = cli("preimage", "identity")
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert any(line.startswith("+") and line.split()[-1] == "1" for line in lines)
    assert any(line.startswith("-") and line.split()[-1] == "-1" for line in lines)


def test_preimage_det_minus_one_exit_2(cli):
    result = cli("preimage", "diag:1,1,1,-1")
    assert result.exit_code == 2
    assert "SO(4)" in result.output


def test_preimage_malformed_literal(cli):
    result = cli("preimage", "nonsense")
    assert result.exit_code == 2


def test_preimage_json_exact_coefficients(cli):
    result = cli("preimage", "mat:1,-1,0,0,1,1,0,0,0,0,2,0,0,0,0,2", "--format", "json")
    # that matrix is not orthogonal -> invalid input
    assert result.exit_code == 2
    result = cli("preimage", "diag:-1,-1,1,1", "--format", "json")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    terms = payload["preimages"][0]["terms"]
    assert terms == [
        {"blade": "e1e2", "coeff": {"a_num": 1, "a_den": 1, "b_num": 0, "b_den": 1}}
    ]


def test_classify_family_27(cli):
    result = cli("classify", "--family", "27", "--params", "k4=1")
    assert result.exit_code == 0
    assert "16" in result.output


def test_classify_bold_row_B5b(cli):
    result = cli("classify", "--family", "B5b",
                 "--params", "k1=1,k2=1,k5=1", "--format", "json")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload == [{
        "family": "B5b", "holonomy": "C2", "params": [1, 1, 0, 0, 1],
        "count": 0, "parallelizable": False,
    }]


def test_classify_reduces_mod2(cli):
    result = cli("classify", "--family", "1", "--params", "k1=2",
                 "--format", "json")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload[0]["params"] == [0, 0, 0]
    assert payload[0]["count"] == 16


def test_classify_unknown_family(cli):
    result = cli("classify", "--family", "zz")
    assert result.exit_code == 2


def test_classify_unknown_parameter(cli):
    result = cli("classify", "--family", "1", "--params", "k9=1")
    assert result.exit_code == 2


@pytest.mark.parametrize("command", ["classify", "export"])
def test_repeated_parameter_rejected(cli, command):
    result = cli(command, "--family", "1", "--params", "k1=1, k1 =0")
    assert result.exit_code == 2
    assert result.output == "error: parameter k1 is given more than once\n"


def test_classify_params_without_family(cli):
    result = cli("classify", "--params", "k1=1")
    assert result.exit_code == 2


def test_verify_bundled_passes(cli):
    result = cli("verify")
    assert result.exit_code == 0
    assert "0 failures" in result.output
    assert "15 rows with zero spin structures" in result.output


def test_verify_json_deterministic(cli):
    a = cli("verify", "--format", "json")
    b = cli("verify", "--format", "json")
    assert a.exit_code == b.exit_code == 0
    assert a.output == b.output
    payload = json.loads(a.output)
    assert payload["summary"] == {"total": 127, "failures": 0, "zero_rows": 15}


def _stdout_and_stderr(*args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(list(args)) == 0
    return out.getvalue(), err.getvalue()


def test_verify_csv_stdout_is_only_csv():
    out, err = _stdout_and_stderr("verify", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 128 and all(len(row) == 6 for row in rows)
    assert rows[0] == ["family", "holonomy", "params", "expected", "computed", "status"]
    assert err == "127 rows, 0 failures, 15 rows with zero spin structures\n"


def test_verify_altered_expectation_exit_1(cli, tmp_path):
    with open(cat.bundled_path("expectations.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    data["rows"][0]["count"] += 1
    p = tmp_path / "alt.json"
    p.write_text(json.dumps(data), encoding="utf-8")
    result = cli("verify", "--expected", str(p))
    assert result.exit_code == 1
    assert "1 failures" in result.output


def test_verify_empty_expectations_warns(cli, tmp_path):
    p = tmp_path / "empty.json"
    p.write_text(json.dumps({"format_version": 1, "rows": []}), encoding="utf-8")
    result = cli("verify", "--expected", str(p))
    assert result.exit_code == 0
    assert "warning" in result.output


def test_verify_missing_catalog_exit_3(cli, tmp_path):
    result = cli("verify", "--catalog", str(tmp_path / "none.json"))
    assert result.exit_code == 3


def test_verify_malformed_catalog_exit_2(cli, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{\"format_version\": 1, \"records\": [{}]}", encoding="utf-8")
    result = cli("verify", "--catalog", str(p))
    assert result.exit_code == 2


def test_lift_group_examples(cli):
    for family, name in [("103", "Q16"), ("1", "C2"), ("184", "C3:Q8")]:
        result = cli("lift-group", "--family", family, "--format", "json")
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["name"] == name


def test_char_examples(cli):
    for family, decomposition in [("75", "2χ1+χ3+χ4"), ("1", "4χ1"),
                                  ("158", "χ1+χ2+χ3")]:
        result = cli("char", "--family", family)
        assert result.exit_code == 0
        assert decomposition in result.output


@pytest.mark.parametrize("family, holonomy, decomposition", [
    ("1", "C1", "4χ1"), ("27", "C2xC2", "χ1+χ2+χ3+χ4"), ("143", "C3", "2χ1+χ2+χ3"),
])
def test_char_csv_and_markdown_are_tables(family, holonomy, decomposition):
    out, _ = _stdout_and_stderr("char", "--family", family)
    assert out == f"{family}: {decomposition}\n"
    out, err = _stdout_and_stderr("char", "--family", family, "--format", "csv")
    assert err == ""
    assert list(csv.reader(io.StringIO(out))) == [
        ["family", "holonomy", "decomposition"], [family, holonomy, decomposition]]
    out, _ = _stdout_and_stderr("char", "--family", family, "--format", "markdown")
    assert out == (f"| family | holonomy | decomposition |\n| --- | --- | --- |\n"
                   f"| {family} | {holonomy} | {decomposition} |\n")


@pytest.mark.parametrize("family, elements", [("1", 2), ("27", 8), ("143", 0)])
def test_lift_group_csv_stdout_is_only_csv(family, elements):
    text, _ = _stdout_and_stderr("lift-group", "--family", family)
    summary = text.splitlines()[0]
    out, err = _stdout_and_stderr("lift-group", "--family", family, "--format", "csv")
    assert err == summary + "\n"
    rows = list(csv.reader(io.StringIO(out)))
    if elements:
        assert rows[0] == ["#", "element"]
        assert [row[0] for row in rows[1:]] == [str(i) for i in range(elements)]
    else:
        assert rows == [["family", "holonomy", "preimage", "order", "realization"],
                        [family, "C3", "C6", "6", "abstract"]]


def test_lift_group_csv_and_markdown_print_a_table_for_every_family():
    for record in cat.load_catalog(cat.bundled_path("catalog.json")).records:
        out, err = _stdout_and_stderr("lift-group", "--family", record.family, "--format", "csv")
        assert len(list(csv.reader(io.StringIO(out)))) >= 2, record.family
        markdown, markdown_err = _stdout_and_stderr(
            "lift-group", "--family", record.family, "--format", "markdown")
        assert markdown.startswith("| ") and markdown_err == err, record.family


@pytest.mark.parametrize("args", [["lift-group", "--family", "27"], ["verify"]])
def test_closed_stdout_exits_3_without_a_traceback(args):
    # the read end is closed before the command starts, as ``| head -c 10``
    # closes it after ten bytes: every write to stdout fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "spinaf.cli", *args],
                              stdout=write_end, stderr=subprocess.PIPE, env=ENV)
    finally:
        os.close(write_end)
    assert done.returncode == 3
    assert done.stderr == b""


def test_export(cli):
    result = cli("export", "--family", "4", "--params", "k1=1")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["count"] == 8
    assert payload["strategy"] == "direct"
    assert len(payload["assignments"]) == 8
    assert "base_preimages" in payload
    for term in payload["base_preimages"]["al"]["terms"]:
        assert set(term["coeff"]) == {"a_num", "a_den", "b_num", "b_den"}


def test_export_sylow_family(cli):
    # the signs are relative to the lifts in Ĝ; there are no spin preimages
    # over Q(sqrt 2) to print
    result = cli("export", "--family", "143", "--params", "k1=1")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["count"] == 2
    assert payload["strategy"] == "direct"
    assert payload["assignments"] == [
        {"a": -1, "al": 1, "b": 1, "c": 1, "d": 1},
        {"a": 1, "al": -1, "b": 1, "c": 1, "d": 1},
    ]
    assert "base_preimages" not in payload


def _spin_element(payload):
    """The CliffordElement written by ``export``'s ``base_preimages``."""
    terms = {}
    for term in payload["terms"]:
        blade = term["blade"]
        mask = sum(1 << int(i) - 1 for i in blade.split("e")[1:]) if blade != "1" else 0
        c = term["coeff"]
        terms[mask] = QSqrt2(Fraction(c["a_num"], c["a_den"]), Fraction(c["b_num"], c["b_den"]))
    return CliffordElement(fp.DIM, terms)


def test_export_assignments_make_every_relator_one():
    # each listed assignment, applied to the payload's own spin preimages,
    # is checked with the honest Clifford product on every signed-permutation row
    catalog, expectations = cat.load_bundled()
    one = CliffordElement.scalar(fp.DIM, 1)
    rows = [e for e in expectations if catalog.find(e.family).signed_perm_holonomy]
    assert len(rows) == 106
    for e in rows:
        record = catalog.find(e.family)
        params = ",".join(f"{n}={v}" for n, v in zip(record.presentation.parameters, e.params))
        out, _ = _stdout_and_stderr("export", "--family", e.family, "--params", params)
        payload = json.loads(out)
        base = {name: _spin_element(x) for name, x in payload["base_preimages"].items()}
        relators = fp.instantiate_relators(record.presentation, payload["params"])
        assert len(payload["assignments"]) == e.count
        for assignment in payload["assignments"]:
            for rel in relators:
                assert fp.evaluate_word(rel, assignment, base) == one, (e.family, e.params)


def test_formats_render(cli):
    for fmt in ["text", "csv", "markdown"]:
        result = cli("classify", "--family", "27", "--format", fmt)
        assert result.exit_code == 0
        assert "27" in result.output


def test_version(cli):
    result = cli("--version")
    assert result.exit_code == 0
    assert result.output == f"spinaf {spinaf.__version__}\n"


@pytest.mark.parametrize("args", [
    pytest.param(["bogus"], id="unknown-command"),
    pytest.param(["classify", "--format", "bogus"], id="format-bogus"),
    pytest.param(["lift-group"], id="lift-group-without-family"),
    pytest.param(["char"], id="char-without-family"),
    pytest.param(["export"], id="export-without-family"),
    pytest.param(["classify", "--fam", "27"], id="abbreviated-option"),
])
def test_usage_error_exits_2_with_nothing_on_stdout(args):
    done = subprocess.run([sys.executable, "-m", "spinaf.cli", *args], capture_output=True, env=ENV)
    assert done.returncode == 2, done.stderr
    assert done.stdout == b""
    assert done.stderr


def test_cli_import_leaves_click_out():
    code = "import sys, spinaf.cli; assert 'click' not in sys.modules, 'click was imported'"
    subprocess.run([sys.executable, "-c", code], check=True, env=ENV)


def test_classify_char_and_verify_leave_the_spin_modules_out():
    # only preimage, export and lift-group make spin elements
    code = ("import contextlib, io, sys; from spinaf.cli import main\n"
            "for args in (['classify', '--family', '1'], ['char', '--family', '1'], ['verify']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(args) == 0, args\n"
            "loaded = {'spinaf.spin', 'spinaf.clifford'} & set(sys.modules)\n"
            "assert not loaded, f'{sorted(loaded)} imported'")
    subprocess.run([sys.executable, "-c", code], check=True, env=ENV)


def test_cli_import_leaves_dataclasses_and_inspect_out():
    # dataclasses imports inspect, ast, dis and tokenize, which cost every query start-up
    code = ("import sys; import spinaf.cli; from spinaf import catalog; "
            "loaded = {'dataclasses', 'inspect'} & set(sys.modules); "
            "assert not loaded, f'{sorted(loaded)} imported'")
    subprocess.run([sys.executable, "-c", code], check=True, env=ENV)
