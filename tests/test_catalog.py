import copy
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hypothesis import given, settings, strategies as st

from spinaf import catalog as cat
from spinaf import chartables, fp, holonomy, intmat, oracles, spin
from spinaf.clifford import CliffordElement
from spinaf.errors import CatalogFormatError, InconsistentRecord


def test_bundled_catalog_loads(bundled):
    catalog, expectations = bundled
    assert len(catalog.records) == 43
    assert len(expectations) == 127


def test_record_json_roundtrip(bundled):
    catalog, _ = bundled
    for r in catalog.records:
        assert cat.record_from_json(cat.record_to_json(r)) == r


def test_records_and_results_are_read_only(bundled):
    catalog, expectations = bundled
    record = catalog.find("4")
    targets = [
        (record, "family"),
        (fp.count_lifts(record, (0,) * len(record.presentation.parameters)), "count"),
        (expectations[0], "count"),
        (chartables.TABLES["C2"], "name"),
    ]
    for obj, name in targets:
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))


def _cached(record):
    return {"relator_signs", "parity_system"} & set(vars(record))


def test_record_equality_ignores_cached_values(bundled):
    catalog, _ = bundled
    r = catalog.find("4")
    assert r.relator_signs is not None and r.parity_system is not None
    assert _cached(r) == {"relator_signs", "parity_system"}
    copy_ = cat.record_from_json(cat.record_to_json(r))
    assert _cached(copy_) == set()
    assert copy_ == r and r == copy_


def test_replace_gives_a_record_with_no_cached_values(bundled):
    catalog, _ = bundled
    r = catalog.find("4")
    assert r.relator_signs is not None and r.parity_system is not None
    renamed = r._replace(holonomy_name="C6")
    assert type(renamed) is fp.AlmostBieberbachRecord
    assert renamed.holonomy_name == "C6" and renamed.family == "4"
    assert _cached(renamed) == set()


def test_find_missing_family(bundled):
    catalog, _ = bundled
    with pytest.raises(CatalogFormatError):
        catalog.find("no-such-family")


def _bundled_json():
    with open(cat.bundled_path("catalog.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_corrupted_relator_rejected(tmp_path):
    data = _bundled_json()
    # break a relator of the first record that mentions a holonomy generator
    rec = next(d for d in data["records"] if d["matrices"])
    hol = next(iter(rec["matrices"]))
    rec["relators"].append([[hol, {"const": 1}]])  # alpha = 1 cannot hold
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(InconsistentRecord):
        cat.load_catalog(p)


def test_parameter_in_holonomy_exponent_rejected_at_load(tmp_path, cli):
    # family 4 with its relator al^2 a^-1 turned into al^(2+k1) a^-1: a
    # relator's spin sign would then depend on k1, not only on k1 mod 2
    data = _bundled_json()
    rec = next(d for d in data["records"] if d["family"] == "4")
    rel = next(r for r in rec["relators"] if r == [["al", {"const": 2}], ["a", {"const": -1}]])
    rel[0][1]["coeffs"] = {"k1": 1}
    p = tmp_path / "holonomy_parameter.json"
    p.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(InconsistentRecord, match="holonomy generator 'al'"):
        cat.load_catalog(p)
    for k1 in (0, 1, 2):
        result = cli("classify", "--catalog", str(p), "--family", "4", "--params", f"k1={k1}")
        assert result.exit_code == 2
        assert "al^(2 +1*k1)*a^(-1)" in result.output


def _record(data, family):
    return next(d for d in data["records"] if d["family"] == family)


def _al_power(family, old, new):
    """Turn the relator al^old * ... of ``family`` into al^new * ...."""
    def mutate(data):
        rel = next(r for r in _record(data, family)["relators"] if r[0] == ["al", {"const": old}])
        rel[0][1]["const"] = new
    return mutate


_MUTANTS = [
    pytest.param("143", lambda d: _record(d, "143")["matrices"].update(
        zz=[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]), id="143-undeclared-generator"),
    pytest.param("4", lambda d: _record(d, "4")["matrices"].update(
        a=[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]), id="4-matrix-on-lattice-generator"),
    pytest.param("169", _al_power("169", 6, 2), id="169-power-2"),
    pytest.param("4", lambda d: _record(d, "4")["matrices"].update(
        al=[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]]), id="4-non-orientable"),
    pytest.param("4", lambda d: _record(d, "4").update(
        relators=[], matrices={"al": [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}),
        id="4-infinite-holonomy"),
]


@pytest.mark.parametrize("family, mutate", _MUTANTS)
def test_mutant_rejected_at_load_with_exit_2(tmp_path, cli, family, mutate):
    data = _bundled_json()
    mutate(data)
    p = tmp_path / "mutant.json"
    p.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(InconsistentRecord, match=f"family {family}:"):
        cat.load_catalog(p)
    result = cli("classify", "--catalog", str(p), "--family", family)
    assert result.exit_code == 2
    assert f"error: family {family}:" in result.output


@pytest.mark.parametrize("family, mutate", _MUTANTS)
def test_mutant_built_in_code_is_refused_by_every_command(tmp_path, family, mutate):
    # the checks run where F is built, so a record that never went through
    # load_catalog is refused by the count, lift-group and char paths with
    # the message the loader gives
    data = _bundled_json()
    mutate(data)
    p = tmp_path / "mutant.json"
    p.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(InconsistentRecord) as loaded:
        cat.load_catalog(p)
    message = f"^{re.escape(str(loaded.value))}$"
    for run in (lambda r: fp.count_lifts(r, [0] * len(r.presentation.parameters)),
                fp.lift_group, holonomy.character_of_record):
        with pytest.raises(InconsistentRecord, match=message):
            run(cat.record_from_json(_record(data, family)))


@pytest.mark.parametrize("family, al", [
    # family 4's half turn diag(1, 1, -1, -1), conjugated over Q only
    pytest.param("4", [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
                 id="4-conjugate-over-Q"),
    # family 168's al conjugated by the shear a -> a + c: the only signed
    # permutation in the C6 it generates is the identity
    pytest.param("168", [[1, -1, 0, 0], [0, 0, 1, 0], [0, -1, 1, 0], [0, 0, 0, 1]],
                 id="168-conjugate-over-Z"),
])
def test_matrix_that_is_no_signed_permutation_loads_and_counts_alike(
        tmp_path, cli, bundled, family, al):
    data = _bundled_json()
    _record(data, family)["matrices"]["al"] = al
    p = tmp_path / "conjugate.json"
    p.write_text(json.dumps(data), encoding="utf-8")
    record = cat.load_catalog(p).find(family)
    catalog, expectations = bundled
    original = catalog.find(family)
    assert not record.signed_perm_holonomy
    rows = [e for e in expectations if e.family == family]
    assert rows
    for e in rows:
        result, bundled_result = fp.count_lifts(record, e.params), fp.count_lifts(original, e.params)
        assert result.count == bundled_result.count == e.count, e.params
        assert result.valid_assignments == bundled_result.valid_assignments, e.params
    result = cli("verify", "--catalog", str(p))
    assert result.exit_code == 0, result.output
    assert "127 rows, 0 failures" in result.output


def test_sheared_quarter_turn_loads_and_counts_0(tmp_path, cli, sheared_quarter_turn):
    # a record whose holonomy matrices hold no signed permutation but the
    # identity loads; its quarter turn lifts to x with x^4 = -1
    record = sheared_quarter_turn
    assert not record.signed_perm_holonomy
    cat.check_record(record)
    p = tmp_path / "shear.json"
    p.write_text(json.dumps({"format_version": cat.FORMAT_VERSION,
                             "records": [cat.record_to_json(record)]}), encoding="utf-8")
    assert cat.load_catalog(p).records == (record,)
    result = cli("classify", "--catalog", str(p), "--family", "C4-shear", "--format", "json")
    assert result.exit_code == 0, result.output
    assert json.loads(result.output) == [{"family": "C4-shear", "holonomy": "C4", "params": [],
                                          "count": 0, "parallelizable": False}]
    result = cli("lift-group", "--catalog", str(p), "--family", "C4-shear")
    assert result.exit_code == 0, result.output
    assert result.output == ("family C4-shear: holonomy C4, preimage C8 of order 8 "
                             "(abstract realization)\n")


def test_relator_failing_only_through_a_negative_power_rejected(tmp_path, cli):
    # al has order 4 on family 75: al^3 al^-1 = al^2 is not 1, though al^3 al is
    data = _bundled_json()
    record = data["records"][_INDEX["75"]]
    al = tuple(map(tuple, record["matrices"]["al"]))
    assert intmat.int_mat_pow(al, 2) != intmat.int_identity(4) == intmat.int_mat_pow(al, 4)
    record["relators"].append([["al", {"const": 3}], ["al", {"const": -1}]])
    p = tmp_path / "negative_power.json"
    p.write_text(json.dumps(data), encoding="utf-8")
    message = "family 75: relator al^(3)*al^(-1) does not hold for the holonomy matrices"
    with pytest.raises(InconsistentRecord, match=f"^{re.escape(message)}$"):
        cat.load_catalog(p)
    result = cli("classify", "--catalog", str(p), "--family", "75")
    assert result.exit_code == 2
    assert result.output == f"error: {message}\n"


_MUTATIONS = ("coefficient", "matrix_entry", "role", "relator_exponent")


@st.composite
def _mutated_record_json(draw):
    """One bundled record dict with one small random mutation."""
    d = copy.deepcopy(draw(st.sampled_from(_bundled_json()["records"])))
    kinds = [k for k in _MUTATIONS
             if (k != "coefficient" or d["parameters"])
             and (k != "matrix_entry" or d["matrices"])]
    kind = draw(st.sampled_from(kinds))
    small = st.integers(-2, 2).filter(bool)
    if kind in ("coefficient", "relator_exponent"):
        rel = draw(st.sampled_from([r for r in d["relators"] if r]))
        letter = rel[draw(st.integers(0, len(rel) - 1))]
        if kind == "coefficient":
            letter[1].setdefault("coeffs", {})[draw(st.sampled_from(d["parameters"]))] = draw(small)
        else:
            letter[1]["const"] += draw(small)
    elif kind == "matrix_entry":
        row = d["matrices"][draw(st.sampled_from(sorted(d["matrices"])))][draw(st.integers(0, 3))]
        row[draw(st.integers(0, 3))] += draw(st.sampled_from([-1, 1]))
    else:
        gen = draw(st.sampled_from(d["generators"]))
        gen["role"] = "lattice" if gen["role"] == "holonomy" else "holonomy"
    return d


@settings(max_examples=100, deadline=None)
@given(d=_mutated_record_json(), data=st.data())
def test_mutated_record_is_rejected_or_fully_usable(d, data):
    # a record either fails at load, or every command's computation runs
    try:
        record = cat.record_from_json(d)
        cat.check_record(record)
    except InconsistentRecord:
        return
    params = [data.draw(st.integers(0, 1), label=n) for n in record.presentation.parameters]
    assert fp.count_lifts(record, params) == fp.count_lifts(record, [v + 2 for v in params])
    assert fp.lift_group(record).order == 2 * holonomy.matrix_group_closure(record).order
    holonomy.character_of_record(record)


def test_spin_work_is_lazy_and_shared_per_record(monkeypatch):
    calls = []
    original = fp.lifted_holonomy

    def counting(record):
        calls.append(record.family)
        return original(record)

    monkeypatch.setattr(fp, "lifted_holonomy", counting)
    catalog = cat.load_catalog(cat.bundled_path("catalog.json"))
    assert calls == []
    # a process that counts one row pays for one record's signs and table
    assert [r.family for r in catalog.records if _cached(r)] == []
    rows = [r for r in cat.load_expectations(cat.bundled_path("expectations.json"))
            if r.family == "4"]
    assert len(rows) == 3
    assert cat.verify(catalog, rows).failures == 0
    assert calls == ["4"]


def test_verify_makes_no_clifford_product_and_no_sylow_pullback(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("called while counting")

    monkeypatch.setattr(spin, "preimage", refuse)
    monkeypatch.setattr(CliffordElement, "__mul__", refuse)
    monkeypatch.setattr(oracles, "sylow_strategy", refuse)
    monkeypatch.setattr(oracles, "sylow_pullback_record", refuse)
    catalog, expectations = cat.load_bundled()  # fresh records: no sign computed yet
    report = cat.verify(catalog, expectations)
    assert (report.total, report.failures) == (127, 0)


def test_verify_counts_each_row_through_the_module_attributes(bundled, monkeypatch):
    # tracers wrap fp.count_lifts and fp.enumerate_lifts where they are looked
    # up, count their calls and read each result's count; verify must reach
    # both through those names, once per row
    catalog, expectations = bundled
    results = {"count_lifts": [], "enumerate_lifts": []}
    for name, seen in results.items():
        def counting(record, params, _original=getattr(fp, name), _seen=seen):
            result = _original(record, params)
            _seen.append(result)
            return result
        monkeypatch.setattr(fp, name, counting)
    assert cat.verify(catalog, expectations).failures == 0
    for name, seen in results.items():
        assert len(seen) == len(expectations) == 127, name
        assert [r.count for r in seen] == [e.count for e in sorted(
            expectations, key=lambda e: (e.family, e.params))], name


def _bundled_expectations_json():
    with open(cat.bundled_path("expectations.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _put(path, value):
    def mutate(data):
        for key in path[:-1]:
            data = data[key]
        data[path[-1]] = value
    return mutate


def _drop(path):
    def mutate(data):
        for key in path[:-1]:
            data = data[key]
        del data[path[-1]]
    return mutate


_INDEX = {d["family"]: i for i, d in enumerate(_bundled_json()["records"])}
_REC = ["records", _INDEX["3"]]  # family 3: one holonomy generator al, parameters k1..k4
_EXP = _REC + ["relators", 1, 4, 1]  # the exponent {"const": 0, "coeffs": {"k1": -1}}
_LET = _REC + ["relators", 0, 0]  # the letter ["b", {"const": 1}]
_MAT = _REC + ["matrices", "al"]
_R143 = ["records", _INDEX["143"]]
_ROW = ["rows", 0]  # family 1, params [0, 0, 0]
_7B = ["records", _INDEX["7b"]]


@pytest.mark.parametrize("kind, path, mutate", [
    pytest.param("catalog", [], _drop(["records"]), id="top-missing-key"),
    pytest.param("catalog", [], _put(["extra"], 1), id="top-extra-key"),
    pytest.param("catalog", ["format_version"], _put(["format_version"], 2), id="format-version-2"),
    pytest.param("catalog", _REC, _drop(_REC + ["source"]), id="record-missing-key"),
    pytest.param("catalog", _REC, _put(_REC + ["extra"], 1), id="record-extra-key"),
    # F's presentation comes from its character table and the Sylow subgroup
    # from the matrices; a record that still carries them is malformed
    pytest.param("catalog", _R143, _put(_R143 + ["holonomy_presentation"], {
        "generators": ["al"], "power_relators": [{"word": [["al", 1]], "power": 3}],
        "sylow_generators": []}), id="holonomy-presentation-extra-key"),
    pytest.param("catalog", _EXP, _drop(_EXP + ["const"]), id="exponent-missing-key"),
    pytest.param("catalog", _EXP, _put(_EXP + ["extra"], 1), id="exponent-extra-key"),
    pytest.param("catalog", _REC + ["holonomy"], _put(_REC + ["holonomy"], "Q8"), id="holonomy-Q8"),
    pytest.param("catalog", _REC + ["generators", 0, "role"],
                 _put(_REC + ["generators", 0, "role"], "fibre"), id="role-fibre"),
    pytest.param("catalog", _REC + ["nilpotency_class"], _put(_REC + ["nilpotency_class"], 0),
                 id="nilpotency-class-0"),
    pytest.param("catalog", _MAT, _drop(_MAT + [3]), id="matrix-3-rows"),
    pytest.param("catalog", _MAT + [3], _put(_MAT + [3], [0, 0, 0, 1, 0]), id="matrix-row-5-entries"),
    pytest.param("catalog", _MAT + [0, 0], _put(_MAT + [0, 0], "1"), id="matrix-entry-string"),
    pytest.param("catalog", _MAT + [0, 0], _put(_MAT + [0, 0], True), id="matrix-entry-boolean"),
    pytest.param("catalog", _LET, _put(_LET, ["b", {"const": 1}, 0]), id="letter-3-elements"),
    # shapes next to the reader's shortcut for ["b", {"const": 1}]
    pytest.param("catalog", _LET, _put(_LET, ["b"]), id="letter-1-element"),
    pytest.param("catalog", _LET + [0], _put(_LET, [3, {"const": 1}]), id="letter-generator-3"),
    pytest.param("catalog", _LET + [1], _put(_LET + [1], 2), id="exponent-bare-integer"),
    pytest.param("catalog", _LET + [1, "const"], _put(_LET + [1, "const"], True), id="const-true"),
    pytest.param("catalog", _LET + [1, "const"], _put(_LET + [1, "const"], "1"), id="const-string"),
    pytest.param("catalog", _EXP + ["coeffs", "k1"], _put(_EXP + ["coeffs", "k1"], "-1"),
                 id="coeff-string"),
    pytest.param("catalog", _7B, _put(_7B + ["relators", 0, 0, 0], "zz"),
                 id="relator-undeclared-generator"),
    pytest.param("catalog", _7B, _put(_7B + ["generators", 1, "name"], "a"),
                 id="duplicate-generator"),
    pytest.param("catalog", _REC, _put(_EXP + ["coeffs"], {"zz": -1}),
                 id="exponent-undeclared-parameter"),
    pytest.param("catalog", _REC, _put(_REC + ["parameters"], ["k1", "k2", "k3", "k4", "k1"]),
                 id="duplicate-parameter"),
    pytest.param("expectations", _ROW + ["params", 1], _put(_ROW + ["params", 1], 2),
                 id="params-2"),
    pytest.param("expectations", _ROW + ["params", 1], _put(_ROW + ["params", 1], True),
                 id="params-true"),
    pytest.param("expectations", _ROW + ["count"], _put(_ROW + ["count"], -1), id="count-negative"),
    # JSON numbers with a fraction part, even when it is zero, are not integers
    pytest.param("catalog", ["format_version"], _put(["format_version"], 1.0),
                 id="float-format-version"),
    pytest.param("catalog", _MAT + [0, 0], _put(_MAT + [0, 0], 1.0), id="float-matrix-entry"),
    pytest.param("catalog", _EXP + ["const"], _put(_EXP + ["const"], 2.0), id="float-const"),
    pytest.param("catalog", _REC + ["nilpotency_class"], _put(_REC + ["nilpotency_class"], 2.0),
                 id="float-nilpotency-class"),
    pytest.param("expectations", _ROW + ["params", 0], _put(_ROW + ["params"], [0.0, 0.0, 0.0]),
                 id="float-params"),
])
def test_format_rule_rejected_with_path_and_exit_2(tmp_path, cli, kind, path, mutate):
    data = _bundled_json() if kind == "catalog" else _bundled_expectations_json()
    mutate(data)
    p = tmp_path / f"{kind}.json"
    p.write_text(json.dumps(data), encoding="utf-8")
    load = cat.load_catalog if kind == "catalog" else cat.load_expectations
    with pytest.raises(CatalogFormatError) as info:
        load(p)
    assert str(path) in str(info.value)
    if kind == "catalog":
        args = ["classify", "--catalog", str(p), "--family", "143"]
    else:
        args = ["verify", "--expected", str(p)]
    result = cli(*args)
    assert result.exit_code == 2, result.output
    assert str(path) in result.output


@pytest.mark.parametrize("letter, message", [
    (["b", {"const": True}], "expected an integer, got true at ['r', 1, 'const']"),
    (["b", {"const": "1"}], 'expected an integer, got "1" at [\'r\', 1, \'const\']'),
    (["b", {"const": 2.0}], "expected an integer, got 2.0 at ['r', 1, 'const']"),
    (["b", {"const": [1]}], "expected an integer, got an array at ['r', 1, 'const']"),
    (["b", {"coeffs": {}}], "missing key 'const' at ['r', 1]"),
    (["b", {"cnst": 1}], "missing key 'const' at ['r', 1]"),
    (["b", 2], "expected an object, got 2 at ['r', 1]"),
    ([3, {"const": 1}], "expected a string, got 3 at ['r', 0]"),
    (["b"], "expected 2 items, got 1 at ['r']"),
    (["b", {"const": 1}, 0], "expected 2 items, got 3 at ['r']"),
    ({"b": 1}, "expected an array, got an object at ['r']"),
])
def test_reader_shortcut_leaves_error_messages_unchanged(letter, message):
    with pytest.raises(CatalogFormatError) as info:
        cat._letter(letter, ("r",), cat._expr_from_json)
    assert str(info.value) == message


def test_bundled_constant_exponents_read_as_make():
    consts = [e for d in _bundled_json()["records"] for rel in d["relators"] for _, e in rel
              if list(e) == ["const"]]
    assert len(consts) > 2000
    for e in consts:
        assert cat._expr_from_json(e, ()) == fp.ExponentExpr.make(e["const"])
    for c in (-100, 0, 100):
        assert cat._expr_from_json({"const": c}, ()) == fp.ExponentExpr.make(c)


def test_expectations_row_of_wrong_length_is_an_error_not_missing_data(tmp_path, cli):
    data = _bundled_expectations_json()
    del data["rows"][0]["params"][-1]  # family 1 takes three parameters
    p = tmp_path / "short_row.json"
    p.write_text(json.dumps(data), encoding="utf-8")
    catalog = cat.load_catalog(cat.bundled_path("catalog.json"))
    message = "expectations row for family 1 has 2 parameters, but the family takes 3"
    with pytest.raises(CatalogFormatError, match=message):
        cat.verify(catalog, cat.load_expectations(p))
    result = cli("verify", "--expected", str(p))
    assert result.exit_code == 2
    assert message in result.output


def test_expectations_row_with_the_wrong_holonomy_is_an_error(tmp_path, cli):
    data = _bundled_expectations_json()
    rows = [row for row in data["rows"] if row["family"] == "27"]
    assert rows and all(row["holonomy"] == "C2xC2" for row in rows)
    rows[0]["holonomy"] = "C4"
    p = tmp_path / "wrong_holonomy.json"
    p.write_text(json.dumps(data), encoding="utf-8")
    catalog = cat.load_catalog(cat.bundled_path("catalog.json"))
    message = "expectations row for family 27 has holonomy C4, but the family's holonomy is C2xC2"
    with pytest.raises(CatalogFormatError, match=message):
        cat.verify(catalog, cat.load_expectations(p))
    result = cli("verify", "--expected", str(p))
    assert result.exit_code == 2
    assert message in result.output


def test_verify_loads_no_clifford_module():
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, spinaf.catalog as c; assert c.verify(*c.load_bundled()).failures == 0; "
            "loaded = {'spinaf.clifford', 'spinaf.spin'} & set(sys.modules); "
            "assert not loaded, f'{sorted(loaded)} imported'")
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": str(src)})


def test_loading_needs_no_jsonschema():
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, spinaf.cli, spinaf.catalog; spinaf.catalog.load_bundled(); "
            "assert 'jsonschema' not in sys.modules, 'jsonschema was imported'")
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": str(src)})


def test_duplicate_family_rejected(tmp_path):
    data = _bundled_json()
    data["records"].append(copy.deepcopy(data["records"][0]))
    p = tmp_path / "dup.json"
    p.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(CatalogFormatError):
        cat.load_catalog(p)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(CatalogFormatError):
        cat.load_catalog(tmp_path / "absent.json")


def test_file_that_is_not_utf8_rejected(tmp_path):
    p = tmp_path / "latin1.json"
    p.write_bytes(b'{"format_version": 1, "records": [], "note": "\xe9"}')
    with pytest.raises(CatalogFormatError, match="is not valid JSON"):
        cat.load_catalog(p)


def test_verify_full_table(bundled):
    catalog, expectations = bundled
    report = cat.verify(catalog, expectations)
    assert report.total == 127
    assert report.failures == 0
    assert report.zero_rows == 15


def test_verify_detects_altered_count(bundled):
    catalog, expectations = bundled
    altered = list(expectations)
    row = altered[0]
    altered[0] = cat.ExpectationRow(row.family, row.holonomy, row.params, row.count + 1)
    report = cat.verify(catalog, altered)
    assert report.failures == 1


def test_verify_missing_record_is_failure_not_crash(bundled):
    catalog, _ = bundled
    rows = [cat.ExpectationRow("no-such-family", "C2", (0, 0, 0, 0), 8)]
    report = cat.verify(catalog, rows)
    assert report.failures == 1
    assert report.rows[0].computed is None


def test_verify_empty_expectations(bundled):
    catalog, _ = bundled
    report = cat.verify(catalog, [])
    assert report.total == 0
    assert report.failures == 0


def test_classify_stable_under_record_permutation(bundled):
    catalog, expectations = bundled
    reversed_catalog = cat.Catalog(tuple(reversed(catalog.records)))
    a = cat.verify(catalog, expectations)
    b = cat.verify(reversed_catalog, expectations)
    assert a == b


def test_classify_reduces_params_mod2(bundled):
    catalog, _ = bundled
    r = catalog.find("1")
    result = fp.count_lifts(r, (2, 0, 0))
    assert result.params == (0, 0, 0)
    assert result.count == 16


def test_report_json_summary_consistent(bundled):
    catalog, expectations = bundled
    report = cat.verify(catalog, expectations[:5])
    payload = report.to_json()
    assert payload["summary"]["total"] == len(payload["rows"])
    assert payload["summary"]["failures"] == sum(
        1 for r in payload["rows"] if not r["passed"]
    )
