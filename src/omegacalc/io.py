"""JSON formats for algebras, morphisms, bimodules, and relation files.

Scalars travel as canonical strings ("a/b" reduced with positive denominator
over Q, decimal in [0, p) over GF(p)); all dumps sort keys so identical
inputs produce byte-identical output.  Only `load_json` reads a file; the
CLI decides which file a path inside a document names.
"""

from __future__ import annotations

import json
from pathlib import Path

from . import bimodule, hopf
from .algebra import Algebra, AlgMap, _tensor, is_cube
from .linalg import Field, LinAlgError, Mat, field_from_json, field_to_json


def mat_to_lists(m: Mat) -> list[list[str]]:
    return [[m.field.format(x) for x in row] for row in m.dense_rows()]


def _mat_from_lists(field: Field, rows: list[list], nrows: int, ncols: int) -> Mat:
    if len(rows) != nrows or any(not isinstance(r, list) or len(r) != ncols for r in rows):
        raise LinAlgError(f"matrix must be {nrows} lists of {ncols} scalars")
    if nrows == 0 or ncols == 0:
        return Mat.zeros(field, nrows, ncols)
    return Mat(field, rows)


def algebra_to_json(a: Algebra, comult: Mat | None = None, counit: Mat | None = None) -> dict:
    doc = {
        "field": field_to_json(a.field),
        "dim": a.dim,
        "basis": list(a.basis_labels),
        "mult": [
            [[a.field.format(x) for x in col] for col in block]
            for block in _tensor(a.mult_mat)
        ],
        "unit": [a.field.format(x) for x in a.unit],
    }
    if comult is not None:
        n = a.dim
        doc["comult"] = [
            [[a.field.format(comult[j * n + k, i]) for k in range(n)] for j in range(n)]
            for i in range(n)
        ]
    if counit is not None:
        doc["counit"] = mat_to_lists(counit)[0]
    return doc


def _dim_from_json(doc: dict) -> int:
    """The "dim" field, which must be a JSON integer: int() would truncate
    2.7 to 2 and read true as 1."""
    dim = doc["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise LinAlgError(f'"dim" must be an integer, not {json.dumps(dim)}')
    return dim


def algebra_from_json(doc: dict) -> Algebra:
    field = field_from_json(doc["field"])
    if not isinstance(doc["unit"], list):
        raise LinAlgError("unit must be a list of scalars")
    return Algebra(field, _dim_from_json(doc), doc["mult"], doc["unit"], doc.get("basis"))


def bimonoid_from_json(doc: dict, alg: Algebra | None = None) -> hopf.Bimonoid:
    """Reads the optional comult/counit fields; comult[i][j][k] is the
    coefficient of e_j (x) e_k in the image of e_i."""
    a = alg or algebra_from_json(doc)
    if "comult" not in doc or "counit" not in doc:
        raise LinAlgError("algebra file carries no comultiplication/counit")
    n = a.dim
    raw = doc["comult"]
    if not is_cube(raw, n):
        raise LinAlgError(f"comult must be {n} blocks of {n}x{n} scalars")
    if not isinstance(doc["counit"], list):
        raise LinAlgError("counit must be a list of scalars")
    comult = Mat.from_entries(a.field, n * n, n, (
        (j * n + k, i, raw[i][j][k]) for i in range(n) for j in range(n) for k in range(n)
    ))
    counit = Mat(a.field, [[a.field.coerce(x) for x in doc["counit"]]])
    return hopf.Bimonoid(a, comult, counit)


def morphism_from_json(doc: dict) -> AlgMap:
    """A map document with inline source and target algebras."""
    return morphism_from_matrix(algebra_from_json(doc["source"]),
                                algebra_from_json(doc["target"]), doc["matrix"])


def morphism_from_matrix(source: Algebra, target: Algebra, rows) -> AlgMap:
    """The algebra map source -> target whose matrix has the given rows."""
    return AlgMap(source, target, _mat_from_lists(target.field, rows, target.dim, source.dim))


def bimodule_from_json(doc: dict) -> bimodule.Bimodule:
    left_alg = algebra_from_json(doc["left_alg"])
    right_alg = algebra_from_json(doc["right_alg"])
    return bimodule.Bimodule.from_tensors(left_alg, right_alg, _dim_from_json(doc),
                                          doc["left"], doc["right"])


def relations_from_json(doc: dict, field: Field, expected_dim: int) -> list[list]:
    gens = doc.get("generators", []) if isinstance(doc, dict) else None
    if not isinstance(gens, list) or not all(isinstance(g, list) for g in gens):
        raise LinAlgError('"generators" must be a list of relation vectors (lists of scalars)')
    out = []
    for g in gens:
        if len(g) != expected_dim:
            raise LinAlgError(
                f"relation vector has length {len(g)}, expected {expected_dim}"
            )
        out.append([field.coerce(x) for x in g])
    return out


def load_json(path) -> dict:
    """The JSON document in a file.  Text that is not UTF-8, or an integer
    longer than int() reads, is malformed JSON like any other."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError:
        raise
    except ValueError as exc:
        raise json.JSONDecodeError(str(exc), "", 0) from None


def dump_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
