import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import omegacalc.derham as derham
from omegacalc import cli
from omegacalc.bimodule import action_closed
from omegacalc.cli import main
from omegacalc.fodc import _kernel, universal_calculus
from omegacalc.io import algebra_from_json

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "src" / "omegacalc" / "fixtures"
ALL_FIXTURE_ALGEBRAS = sorted(
    p.name for p in FIXTURES.glob("*.json") if p.name != "y_to_x2.json"
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


@pytest.mark.parametrize("name", ALL_FIXTURE_ALGEBRAS)
def test_every_fixture_passes_check(capsys, name):
    code, out = run_cli(capsys, "check", str(FIXTURES / name), "--format", "json")
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_universal_m2q_dim(capsys):
    code, out = run_cli(capsys, "universal", str(FIXTURES / "m2q.json"), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 12
    assert len(doc["kernel_basis"]) == 12
    assert len(doc["kernel_basis"][0]) == 16


def test_kahler_on_noncommutative_exits_2(capsys):
    code, out = run_cli(capsys, "kahler", str(FIXTURES / "m2q.json"))
    assert code == 2
    assert "not commutative" in out


def test_kahler_qx3(capsys):
    code, out = run_cli(capsys, "kahler", str(FIXTURES / "qx3.json"), "--format", "json")
    assert code == 0
    assert json.loads(out)["dim"] == 2


def test_check_invalid_algebra_exits_1(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "field": "Q", "dim": 2, "basis": ["1", "x"],
        "mult": [[["1", "0"], ["0", "1"]], [["0", "1"], ["1", "0"]]],
        "unit": ["0", "1"],
    }))
    code, out = run_cli(capsys, "check", str(bad), "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["valid"] is False and doc["violations"]


@pytest.mark.parametrize("argv", [
    ["check"],
    ["universal"],
    ["kahler"],
    ["prolong", "--max-degree", "2"],
    ["cohomology", "--flavor", "universal", "--max-degree", "2"],
    ["compare", "--max-degree", "2"],
], ids=lambda a: a[0])
@pytest.mark.parametrize("basis", [3, ["1"], "ab"], ids=["int", "short", "string"])
def test_check_rejects_what_the_loader_rejects(capsys, tmp_path, argv, basis):
    doc = json.loads((FIXTURES / "qx2.json").read_text())
    doc["basis"] = basis
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main([argv[0], str(bad), *argv[1:], "--format", "json"])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out)["error"].startswith("bad algebra file:")
    assert "Traceback" not in captured.err


def test_usage_error_is_64(capsys):
    assert main(["no-such-command"]) == 64


def test_missing_file_is_usage_error(capsys):
    code, _ = run_cli(capsys, "check", "no/such/file.json")
    assert code == 64


def test_bicovariant_missing_file_is_usage_error(capsys):
    code, out = run_cli(
        capsys, "bicovariant", "no/such/file.json", "--relations", "r.json", "--format", "json",
    )
    assert code == 64
    assert "error" in json.loads(out)


def test_fractional_dimension_exits_1(capsys, tmp_path):
    # a dim of 2.7 was read as 2, and the command exited 0
    doc = json.loads((FIXTURES / "qx2.json").read_text())
    doc["dim"] = 2.7
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "universal", str(bad), "--format", "json")
    assert code == 1
    assert json.loads(out)["error"] == 'bad algebra file: "dim" must be an integer, not 2.7'


def test_extend_calculus_without_algebra_is_usage_error(capsys, tmp_path):
    calc = tmp_path / "calc.json"
    calc.write_text(json.dumps({"kind": "universal"}))
    code, out = run_cli(
        capsys, "extend", "--map", str(FIXTURES / "y_to_x2.json"),
        "--calculus", str(calc), "--format", "json",
    )
    assert code == 64
    assert "error" in json.loads(out)


def test_restrict_map_without_source_is_usage_error(capsys, tmp_path):
    fmap = json.loads((FIXTURES / "y_to_x2.json").read_text())
    del fmap["source"]
    no_source = tmp_path / "map.json"
    no_source.write_text(json.dumps(fmap))
    calc = tmp_path / "calc.json"
    calc.write_text(json.dumps({"algebra": fmap["target"], "kind": "universal"}))
    code, out = run_cli(
        capsys, "restrict", "--map", str(no_source), "--calculus", str(calc), "--format", "json",
    )
    assert code == 64
    assert "error" in json.loads(out)


@pytest.mark.parametrize("command", ["extend", "restrict"])
@pytest.mark.parametrize("end,key,value,code", [
    ("source", "dim", "abc", 1),
    ("target", "dim", "abc", 1),
    ("source", "field", {"Fp": "x"}, 1),
    ("target", "field", {"Fp": "x"}, 1),
    (None, "matrix", [["1"]], 1),
    (None, "matrix", 5, 64),
], ids=["source-dim", "target-dim", "source-field", "target-field", "matrix-shape",
        "matrix-int"])
def test_malformed_map_is_json_error(capsys, tmp_path, command, end, key, value, code):
    # an endpoint is read by the one algebra resolver, so its defect is an
    # algebra's; the matrix is the map's own
    fmap = json.loads((FIXTURES / "y_to_x2.json").read_text())
    calc = tmp_path / "calc.json"
    calc_end = "source" if command == "extend" else "target"
    calc.write_text(json.dumps({"algebra": fmap[calc_end], "kind": "universal"}))
    (fmap[end] if end else fmap)[key] = value
    bad = tmp_path / "map.json"
    bad.write_text(json.dumps(fmap))
    got = main([command, "--map", str(bad), "--calculus", str(calc), "--format", "json"])
    captured = capsys.readouterr()
    assert got == code
    prefix = ("bad algebra file" if end else "bad map file" if code == 1
              else "malformed map file")
    error = json.loads(captured.out)["error"]
    assert error.startswith(prefix + ("" if end else f" {bad}") + ": ")
    assert "missing" not in error
    assert "Traceback" not in captured.err


def map_run(capsys, tmp_path, fmap, command="extend"):
    """Exit code and JSON output of command on the map document fmap, with
    the y_to_x2 endpoint as the calculus's inline algebra."""
    fixture = json.loads((FIXTURES / "y_to_x2.json").read_text())
    calc = tmp_path / "calc.json"
    end = "source" if command == "extend" else "target"
    calc.write_text(json.dumps({"algebra": fixture[end], "kind": "universal"}))
    path = tmp_path / "map.json"
    path.write_text(json.dumps(fmap))
    code, out = run_cli(capsys, command, "--map", str(path), "--calculus", str(calc),
                        "--format", "json")
    return code, json.loads(out)


def test_an_endpoint_failing_its_unit_law_is_an_algebra_axiom_failure(capsys, tmp_path):
    fmap = json.loads((FIXTURES / "y_to_x2.json").read_text())
    fmap["source"]["unit"] = ["0", "1"]
    code, out = map_run(capsys, tmp_path, fmap)
    assert code == 1
    assert out["error"] == "algebra axioms fail"
    assert "left unit law fails at e0" in out["violations"]


@pytest.mark.parametrize("text", [None, "{not json", b"\xff\xfe"],
                         ids=["missing", "not-json", "not-utf8"])
@pytest.mark.parametrize("end", ["source", "target"])
def test_an_unreadable_endpoint_file_is_named(capsys, tmp_path, end, text):
    endpoint = tmp_path / "endpoint.json"
    if isinstance(text, str):
        endpoint.write_text(text)
    elif text is not None:
        endpoint.write_bytes(text)
    fmap = json.loads((FIXTURES / "y_to_x2.json").read_text())
    fmap[end] = "endpoint.json"
    code, out = map_run(capsys, tmp_path, fmap)
    assert code == 64
    assert out["error"].startswith(f"cannot read {endpoint}: ")


def test_an_inline_endpoint_with_a_missing_key_is_a_bad_algebra(capsys, tmp_path):
    # as a calculus file's inline algebra is: exit 1, not the map's 64
    fmap = json.loads((FIXTURES / "y_to_x2.json").read_text())
    del fmap["target"]["mult"]
    code, out = map_run(capsys, tmp_path, fmap, "restrict")
    assert (code, out) == (1, {"error": "bad algebra file: 'mult'"})


def test_paths_in_files_resolve_against_their_own_directory(capsys, tmp_path, monkeypatch):
    # endpoints next to the map, and the calculus's algebra next to it, read
    # from a working directory that holds neither
    fixture = json.loads((FIXTURES / "y_to_x2.json").read_text())
    maps, calcs, elsewhere = (tmp_path / name for name in ("maps", "calcs", "elsewhere"))
    for d in (maps, calcs, elsewhere):
        d.mkdir()
    (maps / "src.json").write_text(json.dumps(fixture["source"]))
    (maps / "tgt.json").write_text(json.dumps(fixture["target"]))
    (maps / "map.json").write_text(json.dumps({**fixture, "source": "src.json",
                                               "target": "tgt.json"}))
    (calcs / "alg.json").write_text(json.dumps(fixture["source"]))
    (calcs / "calc.json").write_text(json.dumps({"algebra": "alg.json", "kind": "kahler"}))
    monkeypatch.chdir(elsewhere)
    code, out = run_cli(capsys, "extend", "--map", "../maps/map.json",
                        "--calculus", "../calcs/calc.json", "--format", "json")
    inline_calc = calcs / "inline.json"
    inline_calc.write_text(json.dumps({"algebra": fixture["source"], "kind": "kahler"}))
    assert (code, out) == run_cli(capsys, "extend", "--map", str(FIXTURES / "y_to_x2.json"),
                                  "--calculus", str(inline_calc), "--format", "json")
    assert code == 0


def test_non_integer_max_dim_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("OMEGA_MAX_DIM", "lots")
    code, out = run_cli(
        capsys, "prolong", str(FIXTURES / "qx2.json"), "--max-degree", "2", "--format", "json",
    )
    assert code == 64
    assert "OMEGA_MAX_DIM" in json.loads(out)["error"]


def test_prolong_dims(capsys):
    code, out = run_cli(
        capsys, "prolong", str(FIXTURES / "qx3.json"),
        "--calculus", "kahler", "--max-degree", "3", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["dims"] == [3, 2, 0, 0]


@pytest.mark.parametrize("argv", [
    ["prolong", "--calculus", "kahler"],
    ["cohomology", "--flavor", "kahler"],
], ids=["prolong", "cohomology"])
def test_max_degree_zero_is_precondition_error(capsys, argv):
    code, out = run_cli(
        capsys, argv[0], str(FIXTURES / "qx2.json"), *argv[1:],
        "--max-degree", "0", "--format", "json",
    )
    assert code == 2
    assert json.loads(out)["error"] == "max degree must be at least 1"


def test_prolong_guardrail(capsys, monkeypatch):
    monkeypatch.setenv("OMEGA_MAX_DIM", "10")
    code, out = run_cli(
        capsys, "prolong", str(FIXTURES / "qx3.json"),
        "--calculus", "universal", "--max-degree", "4", "--format", "json",
    )
    assert code == 2
    assert "exceeds" in out
    monkeypatch.setenv("OMEGA_MAX_DIM", "1000000")
    code, _ = run_cli(
        capsys, "prolong", str(FIXTURES / "qx2.json"),
        "--calculus", "universal", "--max-degree", "4", "--format", "json",
    )
    assert code == 0


def test_cohomology_report_schema(capsys):
    code, out = run_cli(
        capsys, "cohomology", str(FIXTURES / "qx2.json"),
        "--flavor", "universal", "--max-degree", "3", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert [d["dim_H"] for d in doc["degrees"]] == [1, 0, 0]
    assert [d["n"] for d in doc["degrees"]] == [0, 1, 2]
    assert all(set(d) == {"n", "dim_omega", "dim_H", "representatives"} for d in doc["degrees"])


def test_compare_subcommand(capsys):
    code, out = run_cli(
        capsys, "compare", str(FIXTURES / "f2x2.json"),
        "--max-degree", "2", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"degrees", "comparison"}
    assert all(set(d) == {"n", "dim_omega", "dim_H", "representatives"} for d in doc["degrees"])
    # characteristic 2: the comparison in degree 0 is a square identity block
    assert doc["comparison"][0] == [["1"]]


def test_hopf_check(capsys):
    code, out = run_cli(capsys, "hopf-check", str(FIXTURES / "qz3.json"), "--format", "json")
    assert code == 0 and json.loads(out)["valid"] is True
    code, _ = run_cli(capsys, "hopf-check", str(FIXTURES / "qx2.json"))
    assert code == 2  # no comult in the file


def test_bicovariant_subcommand(capsys, tmp_path):
    rel = tmp_path / "rel.json"
    # span{v1 + v2} inside Omega_u(QZ2), written in A (x) A coordinates
    rel.write_text(json.dumps({"generators": [["1", "1", "-1", "-1"]]}))
    code, out = run_cli(
        capsys, "bicovariant", str(FIXTURES / "qz2.json"),
        "--relations", str(rel), "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["bicovariant"] is False and doc["witnesses"]
    rel2 = tmp_path / "rel2.json"
    rel2.write_text(json.dumps({"generators": []}))
    code, out = run_cli(
        capsys, "bicovariant", str(FIXTURES / "qz2.json"),
        "--relations", str(rel2), "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["bicovariant"] is True


def test_extend_restrict_roundtrip(capsys, tmp_path):
    calc = tmp_path / "calc.json"
    calc.write_text(json.dumps({
        "algebra": json.loads((FIXTURES / "qx4.json").read_text()),
        "kind": "kahler",
    }))
    code, out = run_cli(
        capsys, "restrict",
        "--map", str(FIXTURES / "y_to_x2.json"),
        "--calculus", str(calc), "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["input_dim"] == 3 and doc["passes_calculus_check"]

    srccalc = tmp_path / "src.json"
    src_alg = json.loads((FIXTURES / "y_to_x2.json").read_text())["source"]
    srccalc.write_text(json.dumps({"algebra": src_alg, "kind": "universal"}))
    code, out = run_cli(
        capsys, "extend",
        "--map", str(FIXTURES / "y_to_x2.json"),
        "--calculus", str(srccalc), "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["input_dim"] == 2


@pytest.mark.parametrize("rel_doc", [
    {"generators": 5},
    {"generators": [5]},
    {"generators": [["1", "0"]]},
    {"generators": [["x", "0", "0", "0"]]},
    [["1", "1", "-1", "-1"]],
], ids=["int", "list-of-int", "short-vector", "bad-scalar", "not-an-object"])
def test_malformed_relations_are_compute_errors(capsys, tmp_path, rel_doc):
    rel = tmp_path / "rel.json"
    rel.write_text(json.dumps(rel_doc))
    code, out = run_cli(
        capsys, "bicovariant", str(FIXTURES / "qz2.json"),
        "--relations", str(rel), "--format", "json",
    )
    assert code == 1
    assert "error" in json.loads(out)


def test_boolean_relation_entry_is_compute_error(capsys, tmp_path):
    # JSON true is not the scalar 1
    rel = tmp_path / "rel.json"
    rel.write_text(json.dumps({"generators": [[True, "0", "0", "-1"]]}))
    code, out = run_cli(
        capsys, "bicovariant", str(FIXTURES / "qz2.json"),
        "--relations", str(rel), "--format", "json",
    )
    assert code == 1
    assert "boolean" in json.loads(out)["error"]


@pytest.mark.parametrize("command,fixture,field", [
    ("universal", "qx2.json", "unit"),
    ("hopf-check", "qz2.json", "counit"),
])
def test_unparsable_scalar_is_compute_error(capsys, tmp_path, command, fixture, field):
    doc = json.loads((FIXTURES / fixture).read_text())
    doc[field] = ["1/0"] + doc[field][1:]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out = run_cli(capsys, command, str(bad), "--format", "json")
    assert code == 1
    assert "cannot coerce '1/0'" in json.loads(out)["error"]


@pytest.mark.parametrize("command", ["check", "hopf-check", "bicovariant"])
@pytest.mark.parametrize("field,value", [
    ("comult", 5),
    ("comult", [[["1", "0"], ["0", "0"]], [["0", "1"]]]),
    ("counit", 7),
], ids=["comult-int", "comult-ragged", "counit-int"])
def test_malformed_bimonoid_is_compute_error(capsys, tmp_path, command, field, value):
    doc = json.loads((FIXTURES / "qz2.json").read_text())
    doc[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rel = tmp_path / "rel.json"
    rel.write_text(json.dumps({"generators": []}))
    extra = ["--relations", str(rel)] if command == "bicovariant" else []
    code = main([command, str(bad), *extra, "--format", "json"])
    captured = capsys.readouterr()
    assert code == 1
    assert field in json.loads(captured.out)["error"]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["universal"],
    ["kahler"],
    ["check"],
    ["prolong", "--max-degree", "2"],
    ["cohomology", "--flavor", "kahler", "--max-degree", "2"],
], ids=["universal", "kahler", "check", "prolong", "cohomology"])
@pytest.mark.parametrize("mult", [
    [[["1", "0"], ["0", "1"]], [["0", "1"]]],
    [[["1", "0"], ["0", "1"]], [["0", "1"], ["0"]]],
    [[["1", "0"], ["0", "1"]], 5],
], ids=["short-block", "short-row", "int-block"])
def test_ragged_mult_is_compute_error(capsys, tmp_path, argv, mult):
    doc = json.loads((FIXTURES / "qx2.json").read_text())
    doc["mult"] = mult
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main([argv[0], str(bad), *argv[1:], "--format", "json"])
    captured = capsys.readouterr()
    assert code == 1
    assert "mult must be 2 blocks of 2 rows of 2 scalars" in json.loads(captured.out)["error"]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv,code", [
    (["prolong", "--calculus", "kahler"], 0),
    (["cohomology", "--flavor", "kahler"], 0),
    (["prolong", "--calculus", "universal"], 2),
    (["cohomology", "--flavor", "universal"], 2),
    (["compare"], 2),
], ids=["prolong-kahler", "cohomology-kahler", "prolong-universal",
        "cohomology-universal", "compare"])
def test_dim_guard_projects_per_calculus(capsys, monkeypatch, argv, code):
    # Kaehler on Q[x]/x^4 has dim 3 in degree 1, so Omega^12 has dim at most
    # 3^12 = 531441; the universal Omega^12 has dim 4 * 3^12 = 2125764
    monkeypatch.delenv("OMEGA_MAX_DIM", raising=False)
    got, out = run_cli(capsys, argv[0], str(FIXTURES / "qx4.json"), *argv[1:],
                       "--max-degree", "12", "--format", "json")
    assert got == code
    if code == 2:
        assert json.loads(out)["error"] == (
            "projected component dimension 2125764 exceeds limit 1000000")
    else:
        assert "error" not in json.loads(out)


def test_dim_guard_on_a_quotient_uses_its_degree_one_dim(capsys, monkeypatch, tmp_path):
    # [dx, x] = 1 (x) x^2 - 2 x (x) x + x^2 (x) 1 generates the Kaehler relations
    # of Q[x]/x^3: Omega^1 has dim 2, so Omega^4 has dim at most 2^4 = 16,
    # where the universal Omega^4 has dim 3 * 2^4 = 48
    rel = tmp_path / "rel.json"
    rel.write_text(json.dumps({"generators": [["0", "0", "1", "0", "-2", "0", "1", "0", "0"]]}))
    argv = ["prolong", str(FIXTURES / "qx3.json"), "--calculus", f"quotient:{rel}",
            "--max-degree", "4", "--format", "json"]
    monkeypatch.setenv("OMEGA_MAX_DIM", "15")
    code, out = run_cli(capsys, *argv)
    assert code == 2
    assert json.loads(out)["error"] == "projected component dimension 16 exceeds limit 15"
    monkeypatch.setenv("OMEGA_MAX_DIM", "16")
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)["dims"] == [3, 2, 0, 0, 0]


@pytest.mark.parametrize("argv", [
    ["prolong"],
    ["prolong", "--calculus", "kahler"],
    ["cohomology", "--flavor", "universal"],
    ["compare"],
], ids=["prolong", "prolong-kahler", "cohomology", "compare"])
def test_dim_guard_projects_the_wedge_map_count(capsys, monkeypatch, argv):
    # every component of Q above degree 0 is zero, but a graded calculus to
    # degree N still has (N+1)(N+2)/2 wedge maps
    monkeypatch.delenv("OMEGA_MAX_DIM", raising=False)
    start = time.perf_counter()
    code, out = run_cli(capsys, argv[0], str(FIXTURES / "q.json"), *argv[1:],
                        "--max-degree", "100000", "--format", "json")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert json.loads(out) == {
        "error": "projected wedge map count 5000150001 exceeds limit 1000000",
        "hint": "pass --force or raise OMEGA_MAX_DIM",
    }


@pytest.mark.parametrize("degree", [10 ** 4, 10 ** 9])
@pytest.mark.parametrize("argv,bound", [
    (["prolong"], "4*3^{}"),
    (["prolong", "--calculus", "kahler"], "min(3^{0}, 4*3^{0})"),
    (["cohomology", "--flavor", "universal"], "4*3^{}"),
    (["compare"], "4*3^{}"),
], ids=["prolong", "prolong-kahler", "cohomology", "compare"])
def test_dim_guard_builds_no_huge_power(capsys, monkeypatch, argv, bound, degree):
    # 4 * 3^N has over 4,300 digits at N = 10^4, more than int() writes out,
    # and takes minutes to build at N = 10^9: each bound is built only up to
    # one factor past the limit and shown as its formula beyond that
    monkeypatch.delenv("OMEGA_MAX_DIM", raising=False)
    start = time.perf_counter()
    code, out = run_cli(capsys, argv[0], str(FIXTURES / "qx4.json"), *argv[1:],
                        "--max-degree", str(degree), "--format", "json")
    assert time.perf_counter() - start < 2
    assert code == 2
    assert json.loads(out) == {
        "error": f"projected component dimension {bound.format(degree)} exceeds limit 1000000",
        "hint": "pass --force or raise OMEGA_MAX_DIM",
    }


def test_force_overrides_the_wedge_map_count(capsys, monkeypatch):
    monkeypatch.setenv("OMEGA_MAX_DIM", "5")
    argv = ["prolong", str(FIXTURES / "q.json"), "--max-degree", "2", "--format", "json"]
    code, out = run_cli(capsys, *argv)
    assert code == 2
    assert json.loads(out)["error"] == "projected wedge map count 6 exceeds limit 5"
    code, out = run_cli(capsys, *argv, "--force")
    assert code == 0
    assert json.loads(out)["dims"] == [1, 0, 0]


def test_inline_calculus_algebra_is_checked(capsys, tmp_path):
    calc = tmp_path / "calc.json"
    calc.write_text(json.dumps({"algebra": {}, "kind": "universal"}))
    code, out = run_cli(
        capsys, "restrict", "--map", str(FIXTURES / "y_to_x2.json"),
        "--calculus", str(calc), "--format", "json",
    )
    assert code == 1
    assert json.loads(out)["error"].startswith("bad algebra file:")


def test_relation_not_in_kernel_is_compute_error(capsys, tmp_path):
    rel = tmp_path / "rel.json"
    rel.write_text(json.dumps({"generators": [["1", "0", "0", "0"]]}))
    code, out = run_cli(
        capsys, "bicovariant", str(FIXTURES / "qz2.json"),
        "--relations", str(rel), "--format", "json",
    )
    assert code == 1


GOLDEN_INVOCATIONS = [
    ["universal", "qx3.json"],
    ["cohomology", "qz2.json", "--flavor", "universal", "--max-degree", "3"],
    ["kahler", "qx4.json"],
    ["compare", "qx2.json", "--max-degree", "3"],
    ["check", "qs3.json"],
]


@pytest.mark.parametrize("argv", GOLDEN_INVOCATIONS, ids=lambda a: a[0])
def test_json_output_is_byte_identical_across_runs(argv):
    cmd = [sys.executable, "-m", "omegacalc.cli", argv[0], str(FIXTURES / argv[1])]
    cmd += argv[2:] + ["--format", "json"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    json.loads(first.stdout)  # valid JSON


def test_text_format_default(capsys):
    code, out = run_cli(capsys, "check", str(FIXTURES / "qx2.json"))
    assert code == 0
    assert "valid: True" in out


def test_relation_quotients_are_action_closed(tmp_path):
    # _quotient_of_universal skips the closure witness on a saturation, under
    # saturate_subspace's certificate; this is the witness it skips, on every
    # relations file of the golden snapshot (tools/gen_goldens.py): one per
    # fixture, and two more on qz3
    spec = importlib.util.spec_from_file_location("gen_goldens", ROOT / "tools" / "gen_goldens.py")
    gen_goldens = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_goldens)
    gen_goldens.write_inputs(tmp_path)
    rels = sorted(tmp_path.glob("rel_*.json"))
    assert len(rels) == len(ALL_FIXTURE_ALGEBRAS) + 2
    for rel in rels:
        name = rel.stem[len("rel_"):]
        path = FIXTURES / f"{name}.json"
        alg = algebra_from_json(json.loads((path if path.exists() else FIXTURES / "qz3.json")
                                           .read_text()))
        calc = cli._quotient_of_universal(alg, json.loads(rel.read_text()))
        assert action_closed(universal_calculus(alg).omega, _kernel(calc)) is None, rel.name


def test_prolong_quotient_calculus_spec(capsys, tmp_path):
    rel = tmp_path / "rel.json"
    # kill x (x) x inside Omega_u(Q[x]/(x^2)); written in A (x) A coordinates
    rel.write_text(json.dumps({"generators": [["0", "0", "0", "1"]]}))
    code, out = run_cli(
        capsys, "prolong", str(FIXTURES / "qx2.json"),
        "--calculus", f"quotient:{rel}", "--max-degree", "3", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["dims"] == [2, 1, 0, 0]


def test_internal_invariant_failure_exits_70(capsys, monkeypatch):
    # break a kept invariant of compare from outside: every canonical class
    # of a cochain complex lifts to a cycle
    monkeypatch.setattr(derham, "solve", lambda *args: None)
    code = main(["compare", str(FIXTURES / "qx2.json"), "--max-degree", "2", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 70
    error = json.loads(captured.out)["error"]
    assert error.startswith("internal invariant failed: ")
    assert "canonical class fails to lift to a cycle" in error
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("prime", [1e400, 5.5, "7", True, 7.0], ids=str)
@pytest.mark.parametrize("loader", ["algebra", "map-source", "calculus-algebra"])
def test_a_prime_that_is_not_a_json_integer_is_refused(capsys, tmp_path, loader, prime):
    # int() read 5.5 as GF(5), accepted "7", true and 7.0, and overflowed on 1e400
    doc = json.loads((FIXTURES / "f3x3.json").read_text())
    bad = dict(doc, field={"Fp": prime})
    ident = [["1" if i == j else "0" for j in range(3)] for i in range(3)]
    fmap, calc = {"source": doc, "target": doc, "matrix": ident}, {"algebra": doc}
    if loader == "algebra":
        argv = ["check", "{alg}"]
        files = {"alg": bad}
    else:
        argv = ["extend", "--map", "{map}", "--calculus", "{calc}"]
        files = {"map": dict(fmap, source=bad) if loader == "map-source" else fmap,
                 "calc": dict(calc, algebra=bad) if loader == "calculus-algebra" else calc}
    names = {}
    for key, content in files.items():
        (tmp_path / f"{key}.json").write_text(json.dumps(content))
        names[key] = str(tmp_path / f"{key}.json")
    code = main([arg.format(**names) for arg in argv] + ["--format", "json"])
    captured = capsys.readouterr()
    assert code == 1
    assert '"Fp" must be an integer' in json.loads(captured.out)["error"]


@pytest.mark.parametrize("text", [b"\xff\xfe{", b'{"dim": ' + b"1" * 5000 + b"}"],
                         ids=["not-utf8", "long-integer"])
def test_unreadable_json_is_usage_error(capsys, tmp_path, text):
    bad = tmp_path / "bad.json"
    bad.write_bytes(text)
    code, out = run_cli(capsys, "check", str(bad), "--format", "json")
    assert code == 64
    assert json.loads(out)["error"].startswith(f"cannot read {bad}: ")


@pytest.mark.parametrize("command", ["extend", "restrict"])
@pytest.mark.parametrize("fields,error", [
    ({"kind": "bogus", "relations_file": "rel.json"}, "unknown calculus kind 'bogus'"),
    ({"kind": 5}, "unknown calculus kind 5"),
    ({"kind": "universal", "relations": [["0", "0", "0", "0"]]},
     "a universal calculus takes no relations"),
    ({"kind": "kahler", "relations_file": "rel.json"}, "a kahler calculus takes no relations_file"),
    ({"relations": [["0", "0", "0", "0"]]}, "a universal calculus takes no relations"),
    ({"kind": "quotient", "relations_file": 5}, "relations file must be a path, not 5"),
    ({"kind": "quotient", "relations": [], "relations_file": "missing.json"},
     "give relations or relations_file, not both"),
], ids=["unknown", "not-a-string", "universal-relations", "kahler-relations-file",
        "default-kind-relations", "relations-file-int", "both-relations"])
def test_calculus_file_kind_is_checked(capsys, tmp_path, command, fields, error):
    # a bogus kind was read as a quotient, relations given with universal
    # were dropped and a relations_file given next to relations was never
    # opened, each exiting 0; kind 5 asked for relations
    fmap = json.loads((FIXTURES / "y_to_x2.json").read_text())
    end = "source" if command == "extend" else "target"
    rows = fmap[end]["dim"] ** 2
    fields = {k: [["0"] * rows] if k == "relations" else v for k, v in fields.items()}
    (tmp_path / "rel.json").write_text(json.dumps({"generators": [["0"] * rows]}))
    calc = tmp_path / "calc.json"
    calc.write_text(json.dumps({"algebra": fmap[end], **fields}))
    code, out = run_cli(capsys, command, "--map", str(FIXTURES / "y_to_x2.json"),
                        "--calculus", str(calc), "--format", "json")
    assert code == 64
    assert json.loads(out)["error"] == error


def test_a_calculus_file_and_a_quotient_spec_read_one_relations_file(capsys, tmp_path):
    # extend reads relations_file through the helper that prolong's
    # --calculus quotient:<file> reads
    fmap = json.loads((FIXTURES / "y_to_x2.json").read_text())
    source = tmp_path / "source.json"
    source.write_text(json.dumps(fmap["source"]))
    (tmp_path / "rel.json").write_text(json.dumps({"generators": [["0", "0", "0", "1"]]}))
    calc = tmp_path / "calc.json"
    calc.write_text(json.dumps({"algebra": "source.json", "kind": "quotient",
                                "relations_file": "rel.json"}))
    code, out = run_cli(capsys, "extend", "--map", str(FIXTURES / "y_to_x2.json"),
                        "--calculus", str(calc), "--format", "json")
    assert code == 0
    code, prolonged = run_cli(capsys, "prolong", str(source), "--calculus", "quotient:rel.json",
                              "--max-degree", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["input_dim"] == json.loads(prolonged)["dims"][1]


@pytest.mark.parametrize("unit", ["10", {"1": 0, "0": 1}], ids=["string", "object"])
def test_a_unit_that_is_not_a_list_is_refused(capsys, tmp_path, unit):
    # a string unit was read character by character and an object by its keys
    doc = dict(json.loads((FIXTURES / "qx2.json").read_text()), unit=unit)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "check", str(bad), "--format", "json")
    assert code == 1
    assert json.loads(out)["error"] == "bad algebra file: unit must be a list of scalars"


def test_map_rows_that_are_strings_are_refused(capsys, tmp_path):
    # ["10", "00", "01", "00"] has the shape of the matrix and was read
    # character by character
    fmap = json.loads((FIXTURES / "y_to_x2.json").read_text())
    bad = tmp_path / "map.json"
    bad.write_text(json.dumps(dict(fmap, matrix=["".join(row) for row in fmap["matrix"]])))
    calc = tmp_path / "calc.json"
    calc.write_text(json.dumps({"algebra": fmap["source"], "kind": "universal"}))
    code, out = run_cli(capsys, "extend", "--map", str(bad), "--calculus", str(calc),
                        "--format", "json")
    assert code == 1
    assert json.loads(out)["error"] == f"bad map file {bad}: matrix must be 4 lists of 2 scalars"
