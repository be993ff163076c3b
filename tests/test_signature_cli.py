from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from refsys.cli import main
from refsys.signature import SignatureError, load_signature

from conftest import DATA, data_file

BUNDLED = {
    "classifier.json": "subset",
    "continuation.json": "subset",
    "day_z2.json": "presheaf",
    "day_z3.json": "presheaf",
    "hoare4.json": "subset",
    "presheaf_arrow.json": "presheaf",
    "squaring.json": "subset",
    "trivial2.json": "trivial",
    "z4.json": "subset",
}


def write_sig(tmp_path, doc, name="sig.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# --- loading the bundled signatures --------------------------------------------------


def test_bundled_signatures_load():
    assert sorted(p.name for p in DATA.glob("*.json")) == sorted(BUNDLED)
    for fname, kind in BUNDLED.items():
        sig = load_signature(data_file(fname))
        assert sig.kind == kind
        assert sig.name
        assert sig.system.e_types()


def test_unknown_names_are_rejected(squaring):
    with pytest.raises(SignatureError, match="unknown type"):
        squaring.etype("missing")
    with pytest.raises(SignatureError, match="unknown expression"):
        squaring.expr("missing")


# --- validation failures ---------------------------------------------------------------


def test_unknown_top_level_key(tmp_path):
    doc = {"model": "subset", "sets": {"A": [1]}, "bogus": 1}
    with pytest.raises(SignatureError, match="unknown key 'bogus'"):
        load_signature(write_sig(tmp_path, doc))


def test_missing_sets(tmp_path):
    with pytest.raises(SignatureError, match="missing key 'sets'"):
        load_signature(write_sig(tmp_path, {"model": "subset"}))


def test_bad_model(tmp_path):
    with pytest.raises(SignatureError, match="model must be"):
        load_signature(write_sig(tmp_path, {"model": "fancy", "sets": {}}))


def test_top_level_must_be_object(tmp_path):
    with pytest.raises(SignatureError, match="top level must be an object"):
        load_signature(write_sig(tmp_path, [1, 2]))


def test_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(SignatureError, match="invalid JSON"):
        load_signature(str(path))


def test_missing_file(tmp_path):
    with pytest.raises(SignatureError, match="cannot read"):
        load_signature(str(tmp_path / "absent.json"))


def test_empty_carrier_rejected(tmp_path):
    doc = {"model": "subset", "sets": {"A": []}}
    with pytest.raises(SignatureError, match="nonempty list"):
        load_signature(write_sig(tmp_path, doc))


def test_duplicate_elements_rejected(tmp_path):
    doc = {"model": "subset", "sets": {"A": [1, 1]}}
    with pytest.raises(SignatureError, match="duplicate elements"):
        load_signature(write_sig(tmp_path, doc))


def test_text_identical_elements_rejected(tmp_path):
    doc = {"model": "subset", "sets": {"A": ["1", 1]}}
    with pytest.raises(SignatureError, match="identical text forms"):
        load_signature(write_sig(tmp_path, doc))


def test_non_total_function_table(tmp_path):
    doc = {
        "model": "subset",
        "sets": {"A": [1, 2]},
        "functions": {"f": {"dom": "A", "cod": "A", "table": {"1": 1}}},
    }
    with pytest.raises(SignatureError, match="not total"):
        load_signature(write_sig(tmp_path, doc))


def test_table_value_outside_codomain(tmp_path):
    doc = {
        "model": "subset",
        "sets": {"A": [1, 2]},
        "functions": {"f": {"dom": "A", "cod": "A", "table": {"1": 1, "2": 9}}},
    }
    with pytest.raises(SignatureError, match="not an element of A"):
        load_signature(write_sig(tmp_path, doc))


def test_subset_of_unknown_carrier(tmp_path):
    doc = {
        "model": "subset",
        "sets": {"A": [1]},
        "subsets": {"s": {"of": "B", "elements": [1]}},
    }
    with pytest.raises(SignatureError, match="unknown carrier"):
        load_signature(write_sig(tmp_path, doc))


def test_monoid_rows_must_cover(tmp_path):
    doc = {
        "model": "subset",
        "sets": {"A": [0, 1]},
        "monoid": {"carrier": "A", "unit": 0, "table": {"0": {"0": 0, "1": 1}}},
    }
    with pytest.raises(SignatureError, match="rows must cover"):
        load_signature(write_sig(tmp_path, doc))


def test_continuation_needs_answers(tmp_path):
    doc = {
        "model": "subset",
        "sets": {"A": [1]},
        "adjunction": {"kind": "continuation"},
    }
    with pytest.raises(SignatureError, match="needs an answers type"):
        load_signature(write_sig(tmp_path, doc))


def test_unknown_adjunction_kind(tmp_path):
    doc = {
        "model": "subset",
        "sets": {"A": [1]},
        "adjunction": {"kind": "galois"},
    }
    with pytest.raises(SignatureError, match="identity or continuation"):
        load_signature(write_sig(tmp_path, doc))


def test_presheaf_missing_action_arrow(tmp_path):
    doc = {
        "model": "presheaf",
        "categories": {"C": {"objects": ["x", "y"],
                             "arrows": {"u": {"dom": "x", "cod": "y"}}}},
        "presheaves": {"P": {"cat": "C", "at": {"x": ["a"], "y": ["b"]},
                             "action": {}}},
    }
    with pytest.raises(SignatureError, match="missing arrow 'u'"):
        load_signature(write_sig(tmp_path, doc))


def test_presheaf_action_must_be_functorial(tmp_path):
    # the generator of Z2 squares to the unit, so its action must be an involution
    doc = {
        "model": "presheaf",
        "categories": {"M": {"monoid": {
            "elements": [0, 1], "unit": 0,
            "table": {"0": {"0": 0, "1": 1}, "1": {"0": 1, "1": 0}},
        }}},
        "presheaves": {"P": {"cat": "M", "at": {"*": ["a", "b"]},
                             "action": {"1": {"a": "b", "b": "b"}}}},
    }
    with pytest.raises(SignatureError, match="not functorial"):
        load_signature(write_sig(tmp_path, doc))


def test_missing_composite_rejected(tmp_path):
    doc = {
        "model": "presheaf",
        "categories": {"C": {"objects": ["x", "y", "z"],
                             "arrows": {"u": {"dom": "x", "cod": "y"},
                                        "v": {"dom": "y", "cod": "z"}}}},
    }
    with pytest.raises(SignatureError, match="missing composite"):
        load_signature(write_sig(tmp_path, doc))


def test_composite_must_be_an_arrow_name(tmp_path, capsys):
    doc = {
        "model": "presheaf",
        "categories": {"M": {"objects": ["x"],
                             "arrows": {"f": {"dom": "x", "cod": "x"}},
                             "compose": {"f;f": ["f"]}}},
    }
    path = write_sig(tmp_path, doc)
    with pytest.raises(SignatureError, match=r"compose.f;f: unknown arrow \['f'\]"):
        load_signature(path)
    rc, out, err = run(capsys, "check", path, "P <= P")
    assert (rc, out) == (3, "")
    assert "unknown arrow" in err


def test_ill_formed_tables_rejected_under_optimize(tmp_path):
    # validation raises explicitly, so `python -O` (which strips asserts) still refuses
    z2_not_functorial = {
        "model": "presheaf",
        "categories": {"M": {"monoid": {
            "elements": [0, 1], "unit": 0,
            "table": {"0": {"0": 0, "1": 1}, "1": {"0": 1, "1": 0}},
        }}},
        "presheaves": {"P": {"cat": "M", "at": {"*": ["a", "b"]},
                             "action": {"1": {"a": "b", "b": "b"}}}},
    }
    # unit laws hold, but (a*a)*a = b*a = b while a*(a*a) = a*b = a
    not_associative = {
        "model": "presheaf",
        "categories": {"M": {"monoid": {
            "elements": ["e", "a", "b"], "unit": "e",
            "table": {"e": {"e": "e", "a": "a", "b": "b"},
                      "a": {"e": "a", "a": "b", "b": "a"},
                      "b": {"e": "b", "a": "b", "b": "a"}},
        }}},
        "presheaves": {"P": {"cat": "M", "at": {"*": ["x"]},
                             "action": {"a": {"x": "x"}, "b": {"x": "x"}}}},
    }
    env = dict(os.environ, PYTHONPATH=str(DATA.parent.parent))
    for doc, name, message in ((z2_not_functorial, "z2.json", "not functorial"),
                               (not_associative, "m3.json", "not a monoid")):
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "refsys.cli", "check",
             write_sig(tmp_path, doc, name), "P <= P"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 3, proc.stdout + proc.stderr
        assert message in proc.stderr
        assert proc.stdout == ""


def test_non_commutative_monoid_skipped_under_optimize(tmp_path):
    # left-zero monoid with a unit: x*y = x for x, y != e, so the Day
    # multiplication is not a functor and the monoidal suite must skip it
    left_zero = {
        "model": "presheaf",
        "categories": {"LZ": {"monoid": {
            "elements": ["e", "a", "b"], "unit": "e",
            "table": {"e": {"e": "e", "a": "a", "b": "b"},
                      "a": {"e": "a", "a": "a", "b": "a"},
                      "b": {"e": "b", "a": "b", "b": "b"}},
        }}},
        "presheaves": {"P": {"cat": "LZ", "at": {"*": ["x"]},
                             "action": {"a": {"x": "x"}, "b": {"x": "x"}}}},
    }
    path = write_sig(tmp_path, left_zero)
    env = dict(os.environ, PYTHONPATH=str(DATA.parent.parent))
    runs = [
        subprocess.run(
            [sys.executable, *flags, "-m", "refsys.cli", "laws", path, "monoidal", "--json"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        for flags in ((), ("-O",))
    ]
    plain, optimized = runs
    assert plain.returncode == optimized.returncode == 0, plain.stderr + optimized.stderr
    assert plain.stdout == optimized.stdout
    assert "category LZ: functor: INVALID" in optimized.stdout


def test_functor_must_satisfy_the_laws(tmp_path):
    doc = {
        "model": "presheaf",
        "categories": {"C": {"objects": ["x", "y"],
                             "arrows": {"u": {"dom": "x", "cod": "y"}}}},
        "functors": {"bad": {"dom": "C", "cod": "C",
                             "ob": {"x": "x", "y": "y"},
                             "ar": {"u": "id_x"}}},
    }
    with pytest.raises(SignatureError, match="functors.bad"):
        load_signature(write_sig(tmp_path, doc))


# --- judging judgments from the command line ----------------------------------------------


def test_check_derivable(capsys):
    rc, out, _ = run(capsys, "check", data_file("squaring.json"),
                     "negative =[sq]=> positive")
    assert rc == 0
    assert out == "negative =[sq]=> positive: derivable\n"


def test_check_underivable(capsys):
    rc, out, _ = run(capsys, "check", data_file("squaring.json"),
                     "whole =[sq]=> big")
    assert rc == 1
    assert out == "whole =[sq]=> big: underivable\n"


def test_check_ill_formed(capsys):
    rc, out, _ = run(capsys, "check", data_file("squaring.json"),
                     "positive =[sq]=> positive")
    assert rc == 2
    assert out == "positive =[sq]=> positive: ill-formed\n"


def test_check_subtyping_shorthand(capsys):
    rc, out, _ = run(capsys, "check", data_file("squaring.json"),
                     "negative <= whole")
    assert rc == 0
    assert out == "negative <= whole: derivable\n"


def test_check_alternate_arrow(capsys):
    rc, out, _ = run(capsys, "check", data_file("squaring.json"),
                     "negative <=[sq] positive")
    assert rc == 0
    assert "derivable" in out


def test_judgment_parse_error(capsys):
    rc, _, err = run(capsys, "check", data_file("squaring.json"), "gibberish")
    assert rc == 3
    assert "cannot parse judgment" in err


def test_unknown_type_name(capsys):
    rc, _, err = run(capsys, "check", data_file("squaring.json"),
                     "missing =[sq]=> positive")
    assert rc == 3
    assert "unknown type 'missing'" in err


def test_missing_subcommand(capsys):
    rc, _, err = run(capsys)
    assert rc == 3
    assert "missing subcommand" in err


# --- computing structure from the command line ---------------------------------------------


def test_pull(capsys):
    rc, out, _ = run(capsys, "pull", data_file("squaring.json"), "sq", "positive")
    assert rc == 0
    assert out == "pullback of positive along sq: {-3,-2,-1,1,2,3}:A\n"


def test_push(capsys):
    rc, out, _ = run(capsys, "push", data_file("squaring.json"), "nonzero", "sq")
    assert rc == 0
    assert out == "pushforward of nonzero along sq: {1,4,9}:B\n"


def test_star(capsys):
    rc, out, _ = run(capsys, "star", data_file("z4.json"), "one", "two")
    assert rc == 0
    assert out == "one * two: {3}:H\n"


def test_wand_right(capsys):
    rc, out, _ = run(capsys, "wand", data_file("z4.json"), "two", "three")
    assert rc == 0
    assert out == "two -* three: {1}:H\n"


def test_wand_left(capsys):
    rc, out, _ = run(capsys, "wand", data_file("z4.json"), "one", "three",
                     "--side", "left")
    assert rc == 0
    assert out == "one *- three: {2}:H\n"


def test_star_needs_a_monoid(capsys):
    rc, _, err = run(capsys, "star", data_file("squaring.json"), "whole", "whole")
    assert rc == 3
    assert "no monoid stanza" in err


def test_hoare_two_step_triple_holds(capsys):
    rc, out, _ = run(capsys, "hoare", data_file("hoare4.json"),
                     "{low} inc;inc {high}")
    assert rc == 0
    assert out.splitlines() == [
        "triple: {low} inc;inc {high}",
        "wp[inc]: {s1,s2,s3}:State",
        "wp[inc]: {s0,s1,s2,s3}:State",
        "sp[inc]: {s1,s2}:State",
        "sp[inc]: {s2,s3}:State",
        "holds",
    ]


def test_hoare_failing_triple(capsys):
    rc, out, _ = run(capsys, "hoare", data_file("hoare4.json"), "{low} inc {high}")
    assert rc == 1
    assert out.splitlines()[-1] == "fails"


def test_hoare_unknown_command(capsys):
    rc, _, err = run(capsys, "hoare", data_file("hoare4.json"), "{low} jmp {high}")
    assert rc == 3
    assert "unknown command 'jmp'" in err


def test_hoare_parse_error(capsys):
    rc, _, err = run(capsys, "hoare", data_file("hoare4.json"), "low inc high")
    assert rc == 3
    assert "cannot parse triple" in err


# --- law suites ----------------------------------------------------------------------------


def test_laws_sep_on_a_group(capsys):
    rc, out, _ = run(capsys, "laws", data_file("z4.json"), "sep")
    assert rc == 0
    assert out.splitlines()[0].startswith("suite sep: ok")
    assert out.splitlines()[-1] == "all laws hold"


def test_laws_all_on_trivial(capsys):
    rc, out, _ = run(capsys, "laws", data_file("trivial2.json"), "all")
    assert rc == 0
    lines = out.splitlines()
    assert lines[-1] == "all laws hold"
    assert any(l.startswith("suite kernel: ok") for l in lines)
    assert any(l.startswith("suite sep: skipped") for l in lines)
    assert any("section at two = {1,2}: fails" in l for l in lines)


def test_laws_monadrep_reports_capability_notes(capsys):
    rc, out, _ = run(capsys, "laws", data_file("continuation.json"), "monadrep")
    assert rc == 0
    assert "encodings of {b}:B: 16 found" in out
    assert "exceeding the bound" in out


def test_laws_unknown_suite(capsys):
    rc, _, err = run(capsys, "laws", data_file("z4.json"), "bogus")
    assert rc == 3
    assert "unknown suite 'bogus'" in err


def test_broken_associativity_is_reported(tmp_path, capsys):
    doc = json.loads((DATA / "z4.json").read_text())
    doc["monoid"]["table"]["2"]["2"] = 1
    path = write_sig(tmp_path, doc)
    rc, out, _ = run(capsys, "laws", path, "sep")
    assert rc == 1
    assert "suite sep: FAIL" in out
    assert "associativity fails at" in out
    assert out.splitlines()[-1] == "law violations found"
    rc, out, _ = run(capsys, "laws", path, "sep", "--json")
    assert rc == 1
    assert json.loads(out) == {"ok": False, "signature": "z4", "suites": [{
        "suite": "sep", "applicable": True, "reason": "", "instances": 823, "notes": [],
        "failures": [
            "associativity fails at (1,1,2): (1*1)*2 = 1 but 1*(1*2) = 0",
            "associativity fails at (1,2,2): (1*2)*2 = 1 but 1*(2*2) = 2",
            "associativity fails at (2,1,1): (2*1)*1 = 0 but 2*(1*1) = 1",
            "associativity fails at (2,2,1): (2*2)*1 = 2 but 2*(2*1) = 1",
            "associativity fails at (2,2,3): (2*2)*3 = 0 but 2*(2*3) = 3",
        ],
    }]}


# --- machine-readable output -----------------------------------------------------------------


def test_json_output_is_deterministic(capsys):
    first = run(capsys, "laws", data_file("trivial2.json"), "all", "--json")
    second = run(capsys, "laws", data_file("trivial2.json"), "all", "--json")
    assert first == second
    payload = json.loads(first[1])
    assert payload["ok"] is True
    assert {s["suite"] for s in payload["suites"]} == {
        "kernel", "structures", "monoidal", "sep", "monadrep"}


def test_json_star_payload(capsys):
    rc, out, _ = run(capsys, "star", data_file("z4.json"), "one", "two", "--json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["result"] == {"kind": "subset", "carrier": "H", "elements": ["3"]}


def test_json_check_payload(capsys):
    rc, out, _ = run(capsys, "check", data_file("squaring.json"),
                     "negative =[sq]=> positive", "--json")
    assert rc == 0
    assert json.loads(out) == {
        "judgment": "negative =[sq]=> positive", "status": "derivable"}


# --- the law reports, pinned to the recorded answers ---------------------------------------

GOLDEN = DATA.parent.parent.parent / "perfbench" / "golden"


@pytest.mark.parametrize("sig", ["trivial2", "classifier", "hoare4", "continuation", "z4",
                                 "presheaf_arrow", "day_z2", "squaring"])
def test_laws_all_matches_the_recorded_report(capsys, sig):
    rc, out, _ = run(capsys, "laws", data_file(f"{sig}.json"), "all", "--json")
    assert rc == 0
    assert json.loads(out) == json.loads((GOLDEN / f"{sig}.json").read_text())
