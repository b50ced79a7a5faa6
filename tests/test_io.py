import json
from pathlib import Path

import pytest

from omegacalc.fodc import universal_calculus
from omegacalc.io import (
    algebra_from_json,
    algebra_to_json,
    bimodule_from_json,
    bimonoid_from_json,
    dump_json,
    load_json,
    morphism_from_json,
    relations_from_json,
)
from omegacalc.linalg import GF, QQ, LinAlgError

from oracles import bimodule_to_json, free_bimodule, regular_bimodule

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "omegacalc" / "fixtures"


def test_algebra_roundtrip(qs3):
    doc = algebra_to_json(qs3)
    back = algebra_from_json(json.loads(dump_json(doc)))
    assert back == qs3


def test_gf_algebra_roundtrip(f3x3):
    back = algebra_from_json(algebra_to_json(f3x3))
    assert back == f3x3 and back.field == GF(3)


def test_bimodule_roundtrip(qx2):
    u = universal_calculus(qx2)
    for m in (regular_bimodule(qx2), u.omega, free_bimodule(qx2, 2, qx2)):
        back = bimodule_from_json(bimodule_to_json(m))
        assert back.dim == m.dim
        assert back.left_mat == m.left_mat and back.right_mat == m.right_mat


def test_morphism_fixture_loads():
    f = morphism_from_json(load_json(FIXTURES / "y_to_x2.json"))
    assert (f.source.dim, f.target.dim) == (2, 4)


def test_bimonoid_requires_fields(qx2):
    with pytest.raises(LinAlgError):
        bimonoid_from_json(algebra_to_json(qx2))


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=repr)
def test_a_json_boolean_is_not_a_scalar(field, value):
    # bool is a subclass of int, so true/false must be refused explicitly
    with pytest.raises(LinAlgError, match="boolean"):
        field.coerce(value)
    assert field.coerce(1) == 1 and field.coerce(0) == 0


@pytest.mark.parametrize("fixture", ["qx2", "f2x2", "f3x3"])
def test_boolean_unit_is_rejected(fixture):
    doc = load_json(FIXTURES / f"{fixture}.json")
    doc["unit"] = [True] + doc["unit"][1:]
    with pytest.raises(LinAlgError, match="boolean"):
        algebra_from_json(doc)


def test_boolean_counit_is_rejected():
    doc = load_json(FIXTURES / "qz2.json")
    doc["counit"] = [True, "1"]
    with pytest.raises(LinAlgError, match="boolean"):
        bimonoid_from_json(doc)


@pytest.mark.parametrize("field", [QQ, GF(2)], ids=repr)
def test_boolean_relation_entry_is_rejected(field):
    with pytest.raises(LinAlgError, match="boolean"):
        relations_from_json({"generators": [[True, "0", "0", "-1"]]}, field, 4)
    assert relations_from_json({"generators": [[1, "0", "0", "-1"]]}, field, 4)


@pytest.mark.parametrize("dim", [2.7, 2.0, True, "2", None], ids=repr)
def test_a_dimension_that_is_not_an_integer_is_rejected(dim, qx2):
    # int() would read 2.7 as 2 and true as 1
    doc = load_json(FIXTURES / "qx2.json")
    doc["dim"] = dim
    with pytest.raises(LinAlgError, match='"dim" must be an integer'):
        algebra_from_json(doc)
    doc = bimodule_to_json(free_bimodule(qx2, 1, qx2))
    doc["dim"] = dim
    with pytest.raises(LinAlgError, match='"dim" must be an integer'):
        bimodule_from_json(doc)


def test_grouplike_fixture_has_comultiplication():
    h = bimonoid_from_json(load_json(FIXTURES / "qz2.json"))
    # Delta(g) = g (x) g on the non-identity group element
    col = h.comult.column(1)
    assert col[3] == h.alg.field.one() and sum(1 for v in col if v != 0) == 1


def test_dump_json_sorted_and_stable(qz3):
    doc = algebra_to_json(qz3)
    assert dump_json(doc) == dump_json(json.loads(dump_json(doc)))
