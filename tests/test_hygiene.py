"""Static checks on the library source, parsed with ast.

One scan, `facts`, lists what a function or a whole module does, and one
table, `PINS`, says for a function (or a module) what it must do, what it
must not do and why; `test_pin` checks every row.  What a row cannot say
(dead imports, `check` switches, the `_certified` and `__new__` call sites,
counts, raw text and the public surface) is a test of its own below the
table.
"""

import ast
import re
from functools import cache
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "omegacalc"
ORACLES = Path(__file__).resolve().parent / "oracles.py"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    loaded = {n.id for n in ast.walk(tree)
              if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(imported - loaded)


def test_modules_are_found():
    assert {"linalg.py", "bimodule.py", "cli.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_seen():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from .linalg import Mat, rank as r, solve\n"
        "def f(m: Mat):\n"
        "    from .fodc import check_fodc\n"
        "    return solve(m, m)\n"
    )
    assert unused_imports(source) == ["check_fodc", "os", "r"]


# No constructor or function has a switch to skip its check: input from
# outside is always checked, and the library builds the values it certifies
# through linalg._certified (CERTIFIED_CALCULI below).  See the README.
KEPT_CHECK_SWITCHES = set()


def check_switches(source: str) -> set[str]:
    """Qualified names of the functions and methods with a `check` parameter."""
    found = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            elif isinstance(child, ast.FunctionDef):
                a = child.args
                if "check" in {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}:
                    found.add(prefix + child.name)
                visit(child, prefix + child.name + ".")

    visit(ast.parse(source), "")
    return found


def test_check_switches_are_the_kept_ones():
    found = set().union(*(check_switches(p.read_text()) for p in SRC.glob("*.py")))
    assert found == KEPT_CHECK_SWITCHES


def test_a_check_switch_is_seen():
    source = ("class Bimodule:\n"
              "    def __init__(self, dim, check=True):\n"
              "        pass\n"
              "def build(a, *, check=False):\n"
              "    def inner(check):\n"
              "        return check\n"
              "    return inner\n")
    assert check_switches(source) == {"Bimodule.__init__", "build", "build.inner"}


# ---------------------------------------------------------------------------
# one scan, one table
# ---------------------------------------------------------------------------

def facts(node) -> set[str]:
    """What node does, as names a row can require or ban: the name of each
    function or method it calls, `.x` for each attribute it reads,
    `import x` for each name it imports, `@d` for each decorator, `*` for a
    product, `loop` for a for or while loop, and `kronecker*` for a product
    or difference whose left operand is a kronecker(...) call or a name
    bound to one."""
    def is_kronecker(e):
        return isinstance(e, ast.Call) and getattr(e.func, "id", None) == "kronecker"

    bound = {t.id for a in ast.walk(node) if isinstance(a, ast.Assign) and is_kronecker(a.value)
             for t in a.targets if isinstance(t, ast.Name)}
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Call):
            f = n.func
            found.add(f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None))
        elif isinstance(n, ast.Attribute):
            found.add("." + n.attr)
        elif isinstance(n, ast.alias):
            found.add("import " + n.name)
        elif isinstance(n, (ast.For, ast.While)):
            found.add("loop")
        elif isinstance(n, (ast.FunctionDef, ast.ClassDef)):
            found.update("@" + ast.unparse(d) for d in n.decorator_list)
        elif isinstance(n, ast.BinOp) and isinstance(n.op, (ast.Mult, ast.Sub)):
            if isinstance(n.op, ast.Mult):
                found.add("*")
            if is_kronecker(n.left) or (isinstance(n.left, ast.Name) and n.left.id in bound):
                found.add("kronecker*")
    return found


@cache
def parsed(module) -> ast.Module:
    """A library module by its file name, or a file by its path, parsed."""
    return ast.parse((SRC / module).read_text())


def function_node(tree: ast.Module, name: str) -> ast.FunctionDef | None:
    return next((n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name), None)


# Every value built past its constructor, through linalg._certified, as
# (module, function, class), under the certificate written next to each
# call.  The public constructors of these classes check, and
# UniversalCalculus and MaximalProlongation have no public constructor.
CERTIFIED_CALCULI = {
    ("bimodule.py", "zero_bimodule", "Bimodule"),
    ("bimodule.py", "sub_bimodule", "Bimodule"),
    ("bimodule.py", "sub_bimodule", "BimodMap"),
    ("bimodule.py", "_quotient_by_maps", "Bimodule"),
    ("bimodule.py", "_quotient_by_maps", "BimodMap"),
    ("bimodule.py", "_closed_basis", "_ClosedBasis"),
    ("bimodule.py", "tensor_over_algebra", "Bimodule"),
    ("fodc.py", "universal_calculus", "Bimodule"),
    ("fodc.py", "universal_calculus", "UniversalCalculus"),
    ("fodc.py", "zero_calculus", "FirstOrderCalculus"),
    ("fodc.py", "induced_map", "BimodMap"),
    ("fodc.py", "quotient_calculus", "FirstOrderCalculus"),
    ("kahler.py", "kahler_calculus", "Bimodule"),
    ("kahler.py", "kahler_calculus", "FirstOrderCalculus"),
    ("prolong.py", "universal_prolongation", "GradedCalculus"),
    ("prolong.py", "trivial_extension", "GradedCalculus"),
    ("prolong.py", "maximal_prolongation", "MaximalProlongation"),
    ("derham.py", "CochainComplex.from_graded", "CochainComplex"),
}
CALCULI = {"FirstOrderCalculus", "UniversalCalculus"}

CLOSED_DE_RHAM = {"universal_prolongation", "_prolongation", "kernel_basis", "image_basis",
                  "solve"}
UNIVERSAL_DE_RHAM = ("the universal de Rham theory is H^0 = k.1 and H^k = 0, built without a "
                     "prolongation")
CLOSED_FORM = ("read off its formula; the kernel route and the bimodule-map check it "
               "replaced are test oracles")
KERNEL_ROUTE = {"solve", "kernel_basis", "bimod_map_report"}
TOWER = {"universal_calculus", "quotient_calculus", "saturate_subspace"}
SUBSPACE_TAKER = ("takes a canonical basis, which quotient_maps checks in O(nnz), and reads a "
                  "containment off the quotient map: no echelon form or solve")
PERMUTATION = "a 0/1 section picks columns and a swap relabels them: no product"

# (module, top-level function or None for the whole module, facts it must
# have, facts it must not have, why).  A name in RETIRED is banned from
# every library module by its text, so no row repeats it.
PINS = [
    ("hopf.py", "universal_coactions", {"@_memo"}, {"solve", "kronecker"},
     "the coactions of Omega_u are read back through the retraction once per bimonoid, "
     "factor by factor on the columns of iota with no map on A^(x)4"),
    ("hopf.py", "bicovariance_check", {"universal_coactions"},
     {"subspace_leq", "factor_through_surjection", "_codiagonal_coactions", "kronecker",
      "_prolongation", "universal_prolongation", "_unit_complement", "from_entries",
      "kernel_basis", "Bimodule", "universal_calculus"},
     "a calculus applies 1 (x) phi and phi (x) 1 to the memoized coactions of Omega_u: no "
     "codiagonal chain per calculus, and neither Omega_u, its splitting nor a report rebuilt"),
    ("hopf.py", "_coacted", set(), {"_codiagonal_coactions", "kronecker"},
     "the quotient coactions are right products on the memoized ones"),
    ("hopf.py", "_codiagonal_coactions", set(), {"kronecker"},
     "identity factors are applied blockwise"),
    (ORACLES, "unique_dg_morphism", {"generator_map"},
     {"kron_all", "kronecker", ".wedge", ".diff"},
     "the dg morphism is factored one degree at a time through Omega^(n-1) (x) A and reads "
     "each calculus only through g_n: both are generated in degree 0 by d and wedge"),
    ("derham.py", None, set(), {"import universal_prolongation"},
     "derham reads the universal theory off its closed form"),
    ("derham.py", "de_rham_comparison", set(),
     {"factor_through_surjection", "generator_map",
      "universal_prolongation", "_prolongation", ".from_universal"},
     "H_u is k.1 in degree 0 and zero above and h^0 = I, so the comparison is the Kaehler "
     "class of the unit: no prolongation, no chain map above degree 0, no solve and no g_n"),
    ("derham.py", "de_rham", set(), CLOSED_DE_RHAM, UNIVERSAL_DE_RHAM),
    ("derham.py", "_universal_de_rham", {"_unit_pivot"}, CLOSED_DE_RHAM,
     UNIVERSAL_DE_RHAM + "; its unit class is read at the pivot fodc._unit_pivot picks for "
     "A-bar, so the two cannot drift apart"),
    ("fodc.py", "_unit_complement", {"_unit_pivot"}, set(),
     "A-bar is the complement of the one unit pivot, the one the universal de Rham theory reads"),
    ("cli.py", "_cmd_cohomology", {"de_rham", "kahler_calculus"},
     {"cohomology", "maximal_prolongation", "_load_calculus"},
     "the CLI names a flavour and de_rham builds its theory; the guard reads the memoized "
     "Kaehler calculus that de_rham then uses"),
    ("cli.py", "_transport", {"_algebra_at", "morphism_from_matrix"},
     {"load_json", "_load_algebra", "_parse_algebra", "algebra_from_json", "morphism_from_json"},
     "both endpoints and the calculus's algebra go through the one resolver, relative to the "
     "file that names them, and the map's own defects are the matrix's and its keys'"),
    ("io.py", "morphism_from_json", {"morphism_from_matrix"}, {"load_json", "Path"},
     "a map document carries its endpoints inline; which file a path names is the CLI's "
     "decision"),
    *(("linalg.py", name, set(), {"*"},
       "solve reads consistency off its elimination, and a right inverse of a square matrix "
       "is two-sided: neither multiplies its answer out") for name in ("solve", "inverse")),
    ("linalg.py", "kernel_basis", {"_rref_sparse"}, {"rref", "image_basis", "rank"},
     "the reversed column order leaves the null vectors in reduced column echelon form, so "
     "no second elimination brings them into it"),
    ("linalg.py", "preimage_basis", set(), {"image_basis", "solve"}, SUBSPACE_TAKER),
    ("linalg.py", "subspace_leq", set(), {"image_basis", "solve"}, SUBSPACE_TAKER),
    ("linalg.py", "image_basis", {"_row_span"}, set(),
     "one canonical form, one route: the row span of the columns"),
    ("bimodule.py", "quotient_bimodule", {"_basis_quotient", "_closure_witness"},
     {"mul_id_kron", "mul_kron_id", "solve"},
     "a certified basis reads the quotient kept on it, and any other input runs the closure "
     "witness, read off the quotient map, and keeps nothing"),
    ("bimodule.py", "_basis_quotient", {"@_memo", "_quotient_by_maps", "_basis_maps"},
     {"_closure_witness", "quotient_maps", "mul_id_kron", "mul_kron_id", "solve"},
     "the quotient by a certified basis is built once per basis, with no witness, on the "
     "quotient maps kept on it"),
    ("bimodule.py", "_basis_maps", {"@_memo", "quotient_maps"},
     {"_quotient_by_maps", "_mul_section"},
     "the quotient maps of a certified basis are built once per basis and build no action"),
    ("bimodule.py", "_quotient_by_maps", {"_mul_section"},
     {"quotient_maps", "mul_id_kron", "mul_kron_id", "solve"}, PERMUTATION),
    ("bimodule.py", "saturate_subspace", set(), {"solve", "loop"},
     "A . V . A is two products; the fixpoint loop it replaced is a test oracle"),
    *(("bimodule.py", name, set(), {"solve"},
       "the closure check is read off the quotient map; the per-element solves it replaced "
       "are a test oracle") for name in ("_closure_witness", "action_closed")),
    ("algebra.py", "is_commutative", {"commutativity_witness"}, {"mul_swap", "swap_matrix"},
     "one commutativity test: the witness, which compares the columns of m"),
    ("algebra.py", "commutativity_witness", {".mult_mat"}, {"columns", "dense_rows"},
     "the products e_i e_j and e_j e_i are compared as sparse columns of m; the dense loop "
     "it replaced is the test oracle"),
    ("kahler.py", "kahler_calculus", {"commutativity_witness"},
     {"is_commutative", "swap_matrix", *TOWER},
     PERMUTATION + "; one commutativity test, whose witness the refusal names; "
     "Omega^1 = I / I^2 is written from the structure constants, and the saturated quotient "
     "of Omega_u it replaced is the test oracle"),
    ("kahler.py", "kahler_relations", {"_row_span"}, {"image_basis", *TOWER},
     "the relations I^2 are written from the structure constants and eliminated as rows"),
    ("kahler.py", "centrality_check", set(), {"swap_matrix"}, PERMUTATION),
    ("prolong.py", "_prolongation", {"kron_id_mul"}, {"mul_id_kron", "mul_kron_id", "kronecker*"},
     "(x (x) I)(I (x) m) is kron_id_mul: a Kronecker product is formed only where it is the "
     "answer, and never multiplied or subtracted from the left"),
    ("prolong.py", "_right_action", set(), {"kronecker"},
     "the right action is written entry by entry"),
    ("scalars.py", None, set(), {"quotient_maps", "import quotient_maps"},
     "transport builds every quotient map inside bimodule, which keeps the quotient maps of "
     "a certified kernel on it (_basis_maps): no second quotient map of one pulled kernel"),
    ("scalars.py", "verify_poset_adjunction",
     {"_pushed_kernel", "_pulled_kernel", "_basis_maps"},
     {"calc_pushforward", "calc_pullback", "quotient_calculus", "quotient_bimodule",
      "_basis_quotient", "universal_map", "saturate_subspace", "preimage_basis"},
     "the adjunction compares the kept pushed and pulled kernels through phi of t and the "
     "quotient map kept on each pulled kernel, builds no calculus and no quotient action, "
     "and builds no f_u, saturation or preimage itself"),
    *(("scalars.py", name, {"@_memo"}, {"quotient_bimodule", "quotient_calculus"},
       "a pushed or pulled kernel is built once per (map, calculus) pair and read by the "
       "push or pull and by the adjunction; it is the kernel alone, and no projection is "
       "kept beside it") for name in ("_pushed_kernel", "_pulled_kernel")),
    ("scalars.py", "calc_pushforward", {"@_memo", "_pushed_kernel", "quotient_calculus"}, set(),
     "push quotients by the kernel the adjunction compares, once per (map, calculus) pair"),
    ("scalars.py", "calc_pullback", {"@_memo", "_pulled_kernel", "quotient_calculus"}, set(),
     "pull quotients by the kernel the adjunction compares, on the quotient kept on it, once "
     "per (map, calculus) pair"),
    ("scalars.py", "universal_map", {"@_memo"}, KERNEL_ROUTE,
     "f_u is " + CLOSED_FORM + ", built once per map for every pushed and pulled kernel"),
    ("fodc.py", None, set(), {"kronecker"},
     "iota and the retraction are written entry by entry, and the kernel-counit comparison "
     "applies 1 (x) mu blockwise"),
    ("fodc.py", "universal_calculus", set(), KERNEL_ROUTE,
     "Omega_u = A (x) A-bar is " + CLOSED_FORM),
    ("fodc.py", "induced_map", set(), KERNEL_ROUTE, "the induced map is " + CLOSED_FORM),
    ("fodc.py", "_phi", set(), KERNEL_ROUTE, "phi is " + CLOSED_FORM),
    ("fodc.py", "quotient_calculus", set(), {"image_basis", "solve"}, SUBSPACE_TAKER),
    ("fodc.py", "sub_calculus_correspondence", set(), {"image_basis", "solve"}, SUBSPACE_TAKER),
    ("fodc.py", "_closed_subspaces", {"@_memo"},
     {"saturate_subspace", "action_closed", "image_basis", "_closure_witness"},
     "every member is a saturation A . v . A or a sum of two members, one elimination each "
     "and once per bimodule, with no closure witness; the per-candidate saturation and the "
     "subset search are the test oracle"),
    ("fodc.py", "enumerate_action_closed_subspaces", {"_closed_subspaces", "list"},
     {"_row_span", "_closed_basis"},
     "the public enumeration copies the memoized lattice and eliminates nothing itself"),
    *((module, name, set(), {"check_fodc", *CALCULI},
       "a certified calculus is built through _certified under its written certificate, "
       "with no calculus check")
      for module, name in sorted({(m, f) for m, f, cls in CERTIFIED_CALCULI if cls in CALCULI})),
]


def row_id(row) -> str:
    return Path(row[0]).name + (f"-{row[1]}" if row[1] else "")


def violations(row, tree: ast.Module | None = None) -> list[str]:
    """What a row finds wrong in its module, or in tree when one is given."""
    module, function, must, must_not, reason = row
    where = row_id(row)
    if not reason:
        return [f"{where}: the row gives no reason"]
    tree = tree or parsed(module)
    node = tree if function is None else function_node(tree, function)
    if node is None:
        return [f"{where}: stale row, no top-level function {function}"]
    found = facts(node)
    return ([f"{where} lacks {x}" for x in sorted(must - found)]
            + [f"{where} has {x}" for x in sorted(must_not & found)])


@pytest.mark.parametrize("row", PINS, ids=row_id)
def test_pin(row):
    assert violations(row) == []


@pytest.mark.parametrize("row,seen", [
    (("x.py", "f", {"h"}, set(), "why"), ["x.py-f lacks h"]),
    (("x.py", "f", set(), {"g", "*"}, "why"), ["x.py-f has g"]),
    (("x.py", "gone", set(), {"g"}, "why"), ["x.py-gone: stale row, no top-level function gone"]),
    (("x.py", "f", set(), {"g"}, ""), ["x.py-f: the row gives no reason"]),
], ids=["must", "must_not", "stale", "no_reason"])
def test_a_broken_row_is_seen(row, seen):
    assert violations(row, ast.parse("def f(a):\n    return g(a) - a\n")) == seen


@pytest.mark.parametrize("source,fact,seen", [
    ("g(a)", "g", True),
    ("a.g(b)", "g", True),
    ("a.rows", ".rows", True),
    ("import os.path", "import os.path", True),
    ("from .linalg import kronecker as k", "import kronecker", True),
    ("@_memo\ndef f():\n    pass", "@_memo", True),
    ("a * b", "*", True),
    ("a - b", "*", False),
    ("for x in a:\n    pass", "loop", True),
    ("while a:\n    pass", "loop", True),
    ("kronecker(a, b) * c", "kronecker*", True),
    ("kronecker(a, a) - c", "kronecker*", True),
    ("e = kronecker(a, c)\ne * c", "kronecker*", True),
    ("c * kronecker(b, c)", "kronecker*", False),
    ("d = f(kronecker(a, b))\nd - e", "kronecker*", False),
])
def test_each_fact_is_seen(source, fact, seen):
    assert (fact in facts(ast.parse(source))) == seen


# ---------------------------------------------------------------------------
# what a row cannot say
# ---------------------------------------------------------------------------

def test_the_dg_morphism_oracle_has_one_loop():
    # the degreewise factoring is the whole answer: no loop re-checks d or a wedge
    node = function_node(parsed(ORACLES), "unique_dg_morphism")
    assert len([n for n in ast.walk(node) if isinstance(n, (ast.For, ast.While))]) == 1


def test_nothing_is_stacked_on_the_coaction_memo():
    # its row requires @_memo; a second decorator could change what is cached
    node = function_node(parsed("hopf.py"), "universal_coactions")
    assert len(node.decorator_list) == 1


def test_the_kernel_of_phi_is_eliminated_only_in_kernel():
    # every other caller reads the memoized ker(Omega_u -> c), which a
    # quotient of the universal calculus records when it is built
    found = {path.name: path.read_text().count("kernel_basis(_phi(") for path in MODULES}
    assert {name: k for name, k in found.items() if k} == {"fodc.py": 1}
    assert "kernel_basis(_phi(" in ast.unparse(function_node(parsed("fodc.py"), "_kernel"))
    for path in MODULES:
        for node in ast.walk(parsed(path.name)):
            if isinstance(node, ast.FunctionDef) and node.name != "_kernel":
                assert not {"kernel_basis", "_phi"} <= facts(node), (path.name, node.name)


def test_no_function_takes_the_universal_calculus():
    # universal_calculus(a) is the only constructor of a UniversalCalculus and
    # is memoized per algebra, so a function works it out from its inputs
    for path in MODULES:
        for node in ast.walk(parsed(path.name)):
            if isinstance(node, ast.FunctionDef):
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                annotated = [p.arg for p in params
                             if p is not None and p.annotation is not None
                             and "UniversalCalculus" in ast.unparse(p.annotation)]
                assert annotated == [], (path.name, node.name)


# Gone from the library's text: retired helpers and switches, and the
# reference implementations and proposition checks that live in
# tests/oracles.py.
RETIRED = [
    "kernel_from_universal", "max_generators", "_splitting", "_certified_dg", "_dg_certified",
    "self.check", "_closed_quotient", "_closed_quotient_calculus", "_descend", "_quotient_on",
    "surjectivity_maps", "amitsur_differential", "amitsur_wedge", "UniversalProlongation",
    "validation_report", "kron_all", "unique_dg_morphism", "check_hopf_module",
    "d_comodule_report", "truncation_adjoints_check", "rank_identity_report",
    "square_zero_unit_check", "calc1_category_adjoints_check", "kernel_counit_comparison",
    "bimodule_to_json", "_resolve_algebra", "_cmd_extend", "_cmd_restrict",
]


@pytest.mark.parametrize("name", RETIRED)
def test_retired_names_are_gone(name):
    for path in SRC.glob("*.py"):
        assert name not in path.read_text(), path.name


def test_io_reads_files_only_in_load_json():
    # every other reader takes a document; the CLI decides which file a path
    # inside a document names
    readers = {n.name for n in parsed("io.py").body if isinstance(n, ast.FunctionDef)
               and facts(n) & {"read_text", "open", "load_json", "Path"}}
    assert readers == {"load_json"}


def test_no_module_reads_a_dense_structure_tensor():
    # Algebra keeps the multiplication matrix alone
    assert [path.name for path in MODULES if ".mult" in facts(parsed(path.name))] == []


def test_hopf_raises_no_engine_error():
    assert "EngineError" not in (SRC / "hopf.py").read_text()


def certified_calls(source: str) -> list[tuple[str, str]]:
    """(function, class) for each _certified(cls, ...) call, the function
    qualified by its class where it is a method."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            elif isinstance(child, ast.FunctionDef):
                found.extend((prefix + child.name, ast.unparse(call.args[0]))
                             for call in ast.walk(child) if isinstance(call, ast.Call)
                             and getattr(call.func, "id", None) == "_certified")

    visit(ast.parse(source), "")
    return found


def test_only_the_certified_calculi_skip_the_calculus_check():
    found = [(path.name, *call) for path in MODULES for call in certified_calls(path.read_text())]
    assert sorted(found) == sorted(CERTIFIED_CALCULI)


def test_a_certified_call_is_seen():
    source = ("class CochainComplex:\n"
              "    def from_graded(g):\n"
              "        return _certified(CochainComplex, dims=g.dims)\n"
              "def f(a):\n"
              "    return _certified(Bimodule, left_alg=a), g(a)\n")
    assert certified_calls(source) == [("CochainComplex.from_graded", "CochainComplex"),
                                       ("f", "Bimodule")]


def test_only_the_private_constructors_skip_a_constructor():
    # linalg._certified is the one way past a constructor's check, and
    # linalg._mat builds a matrix on finished rows
    found = [(path.name, node.name) for path in SRC.glob("*.py")
             for node in ast.walk(parsed(path.name))
             if isinstance(node, ast.FunctionDef) and "__new__" in facts(node)]
    assert sorted(found) == [("linalg.py", "_certified"), ("linalg.py", "_mat")]


def test_only_the_closure_proving_constructions_certify_a_sub_bimodule_basis():
    # a basis that skips quotient_bimodule's closure witness is built by
    # bimodule._closed_basis, called only next to a proof of closure
    callers = {(path.name, getattr(node, "name", "<module>")) for path in MODULES
               for node in parsed(path.name).body if "_closed_basis" in facts(node)}
    assert callers == {("bimodule.py", "saturate_subspace"),
                       ("fodc.py", "_closed_subspaces"),
                       ("scalars.py", "_pulled_kernel")}


def test_the_enumeration_eliminates_rows():
    # both branches share one route: each saturation and each sum is one
    # elimination of rows of w^T or of members (linalg._row_span), with no
    # column selection and no transpose pair around an elimination
    done = facts(function_node(parsed("fodc.py"), "_closed_subspaces"))
    assert "_row_span" in done
    assert not done & {"image_basis", "select_cols"}


# The functions that put a value on an instance other than self, with what
# they put there: _certified the fields of the value it builds, _mat the
# four slots of the matrix it builds, and _memo, the one memo, its kept
# values and the name of each wrapper's slot.  Every other kept value goes
# through _memo.
KEEPERS = {("linalg.py", "_certified"), ("linalg.py", "_mat"), ("linalg.py", "_memo")}


def hand_kept(source: str) -> list[tuple[str, str]]:
    """(function, what) for each attribute a top-level function or a method
    assigns on anything but self, each setattr call and each read of a
    __dict__, a nested function counted with the one it is in."""
    found = []
    tree = ast.parse(source)
    functions = [(n.name, n) for n in tree.body if isinstance(n, ast.FunctionDef)]
    functions += [(f"{c.name}.{n.name}", n) for c in tree.body if isinstance(c, ast.ClassDef)
                  for n in c.body if isinstance(n, ast.FunctionDef)]
    for name, fn in functions:
        for n in ast.walk(fn):
            if (isinstance(n, ast.Attribute) and isinstance(n.ctx, (ast.Store, ast.Del))
                    and not (isinstance(n.value, ast.Name) and n.value.id == "self")):
                found.append((name, ast.unparse(n)))
            elif isinstance(n, ast.Attribute) and n.attr == "__dict__":
                found.append((name, ast.unparse(n)))
            elif isinstance(n, ast.Call) and "setattr" in ast.unparse(n.func):
                found.append((name, ast.unparse(n.func)))
    return found


def test_no_value_is_kept_by_hand():
    found = [(path.name, fn, what) for path in MODULES for fn, what in hand_kept(path.read_text())
             if (path.name, fn) not in KEEPERS]
    assert found == []
    keepers = {(path.name, fn) for path in MODULES for fn, _what in hand_kept(path.read_text())}
    assert keepers == KEEPERS


def test_a_value_kept_by_hand_is_seen():
    source = ("def f(basis, q):\n"
              "    basis.quotient = q\n"
              "    setattr(basis, 'q', q)\n"
              "    object.__setattr__(basis, 'q', q)\n"
              "    basis.__dict__['q'] = q\n"
              "class C:\n"
              "    def g(self, x):\n"
              "        self.x = x\n"
              "        del x.y\n")
    assert hand_kept(source) == [("f", "basis.quotient"), ("f", "setattr"),
                                 ("f", "object.__setattr__"), ("f", "basis.__dict__"),
                                 ("C.g", "x.y")]


def memoized(tree: ast.Module, module: str) -> set[str]:
    """module.function for each top-level @_memo function and
    module.Class.name for each functools.cached_property."""
    def decorated(nodes, name):
        return [n.name for n in nodes if isinstance(n, ast.FunctionDef)
                and any(ast.unparse(d).split(".")[-1] == name for d in n.decorator_list)]

    return ({f"{module}.{f}" for f in decorated(tree.body, "_memo")}
            | {f"{module}.{c.name}.{f}" for c in tree.body if isinstance(c, ast.ClassDef)
               for f in decorated(c.body, "cached_property")})


def memo_table(text: str) -> list[str]:
    """The code span of the function column of each row of the README's
    memo table, the one whose header starts `| value | function |`."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| value | function |"))
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        rows += re.findall(r"`([^`]+)`", line.split("|")[2])
    return rows


def test_every_memo_has_its_row_in_the_readme():
    # a memo added or removed without its row in the table fails
    table = memo_table(README)
    found = set().union(*(memoized(parsed(path.name), path.stem) for path in MODULES))
    assert len(table) == len(set(table))
    assert set(table) == found
    assert {"bimodule._basis_quotient", "hopf.HopfCalculus._transposes",
            "prolong.MaximalProlongation.from_universal"} <= found


def test_a_memo_missing_from_the_table_is_seen():
    source = ("@_memo\ndef kept(a):\n    pass\n"
              "def plain(a):\n    pass\n"
              "class C:\n    @functools.cached_property\n    def lazy(self):\n        pass\n")
    assert memoized(ast.parse(source), "m") == {"m.kept", "m.C.lazy"}
    text = ("| value | function | owner instance | key | lifetime |\n|---|---|---|---|---|\n"
            "| x | `m.kept` | `A` | it | its |\n\nprose `m.C.lazy`\n")
    assert memo_table(text) == ["m.kept"]


def test_every_mutant_text_occurs_once():
    # tools/mutants.py runs the mutants in CI; this catches a drifted text early
    import importlib.util

    path = SRC.parent.parent / "tools" / "mutants.py"
    spec = importlib.util.spec_from_file_location("mutants", path)
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert mutants.MUTANTS
    assert mutants.texts_not_found_once() == []


# ---------------------------------------------------------------------------
# one public surface
# ---------------------------------------------------------------------------

ROOT = SRC.parent.parent
README = (ROOT / "README.md").read_text()

# Kept on purpose although only the tests call them: the paper's chain-level
# comparison Omega_u -> Omega_max(c) (MaximalProlongation.from_universal),
# the trivial extension, the sub-calculus correspondence and the centrality
# check.  README documents all four.
KEPT_WITHOUT_A_CALLER = {"MaximalProlongation", "trivial_extension",
                         "sub_calculus_correspondence", "centrality_check"}


def readme_code_names(text: str) -> set[str]:
    """The names in the README's code: fenced blocks and inline spans."""
    fenced = re.findall(r"```.*?```", text, flags=re.S)
    inline = re.findall(r"`[^`]+`", re.sub(r"```.*?```", "", text, flags=re.S))
    return set(re.findall(r"\w+", " ".join(fenced + inline)))


def attribute_reads(tree) -> set[str]:
    """The attributes a module reads, and the parts of its dotted string
    constants, which is how the benchmark looks functions up
    (`lib("fodc", "universal_calculus")`): the ways a method is reached."""
    found = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Attribute):
            found.add(n.attr)
        elif (isinstance(n, ast.Constant) and isinstance(n.value, str)
              and all(part.isidentifier() for part in n.value.split("."))):
            found.update(n.value.split("."))
    return found


def name_reads(tree) -> set[str]:
    """attribute_reads and the imported names: the ways a top-level name is
    reached from another module.  A local variable or a word of prose that
    happens to share the name is no reader."""
    return attribute_reads(tree) | {n.name.rsplit(".", 1)[-1] for n in ast.walk(tree)
                                    if isinstance(n, ast.alias)}


def public_definitions(tree) -> set[str]:
    return {n.name for n in tree.body
            if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and not n.name.startswith("_")}


def public_methods(tree) -> list[tuple[str, str]]:
    """(class, method) for each public method of a public top-level class."""
    return sorted((c.name, n.name) for c in tree.body
                  if isinstance(c, ast.ClassDef) and not c.name.startswith("_")
                  for n in c.body
                  if isinstance(n, ast.FunctionDef) and not n.name.startswith("_"))


def package_exports(init: ast.Module) -> list[str]:
    """The names of the `_EXPORTS` table of `__init__.py`, which maps each
    module to the names the package resolves from it on first read."""
    table = next(n.value for n in init.body if isinstance(n, ast.Assign)
                 and [ast.unparse(t) for t in n.targets] == ["_EXPORTS"])
    return [name.value for names in table.values for name in names.elts]


def surface_offenders() -> list[str]:
    """Each exported name, and each public top-level def or class, without a
    reader, and each public method of a public class without one.  A name is
    read where another library module, the CLI, the benchmark or the tools
    import it, read it as an attribute or name it in a dotted string
    constant, or where the README names it in its code (for an export, in
    the code of its Library section); a method is read as an attribute or
    a dotted string part anywhere in the library, the benchmark or the
    tools, or in the README's code."""
    outside_paths = [SRC / "cli.py", *(ROOT / "perfbench").rglob("*.py"),
                     *(ROOT / "tools").glob("*.py")]
    outside = set().union(*(name_reads(ast.parse(p.read_text())) for p in outside_paths))
    readme_code = readme_code_names(README)
    library = readme_code_names(README[README.index("## Library"):])
    exported = package_exports(ast.parse((SRC / "__init__.py").read_text()))
    offenders = [f"__init__.py exports {name}" for name in exported
                 if name not in outside | library]
    trees = {p.name: ast.parse(p.read_text()) for p in MODULES}
    reads = {name: name_reads(tree) for name, tree in trees.items()}
    paths = [*MODULES, *outside_paths[1:]]
    method_readers = readme_code.union(*(attribute_reads(ast.parse(p.read_text())) for p in paths))
    for name, tree in sorted(trees.items()):
        others = set().union(*(r for other, r in reads.items() if other != name))
        offenders += [f"{name}: {d}" for d in sorted(public_definitions(tree))
                      if d not in others | outside | readme_code | KEPT_WITHOUT_A_CALLER]
        # a definition is no read, so the method's own module may read it
        offenders += [f"{name}: {cls}.{method}" for cls, method in public_methods(tree)
                      if method not in method_readers]
    return offenders


def test_every_public_name_has_a_reader():
    # oracles and checks of the paper's propositions live in tests/oracles.py;
    # a name or a method only the tests read does not belong to the
    # library's surface, and no method is kept without a reader
    assert surface_offenders() == []


def test_the_kept_names_are_defined_and_documented():
    defined = set().union(*(public_definitions(ast.parse(p.read_text())) for p in MODULES))
    assert KEPT_WITHOUT_A_CALLER <= defined
    assert "from_universal" in {n.name for n in ast.walk(ast.parse((SRC / "prolong.py").read_text()))
                                if isinstance(n, ast.FunctionDef)}
    assert all(f"`{name}" in README for name in KEPT_WITHOUT_A_CALLER | {"from_universal"})


def test_a_name_without_a_reader_is_seen(monkeypatch):
    # a public helper no one reads, an export no one reads, and a helper
    # that only README prose names, next to a local variable of the same
    # name in the tools, are listed
    real_read = Path.read_text

    def read_text(path, *args, **kwargs):
        text = real_read(path, *args, **kwargs)
        if path == SRC / "linalg.py":
            text += ("\n\ndef helper_nobody_reads():\n    return 0\n"
                     "\n\ndef helper_in_prose():\n    return 0\n")
            text = text.replace("    # constructors ---", "    def method_nobody_reads(self):\n"
                                "        return 0\n\n    # constructors ---", 1)
        if path == SRC / "__init__.py":
            text = text.replace('"linalg": (', '"linalg": ("swap_matrix", ', 1)
        if path == ROOT / "tools" / "bench.py":
            text += "\n\ndef _shadow():\n    helper_in_prose = 0\n    return helper_in_prose\n"
        return text

    monkeypatch.setattr(Path, "read_text", read_text)
    monkeypatch.setitem(globals(), "README", README + "\nThe helper_in_prose is prose.\n")
    assert surface_offenders() == ["__init__.py exports swap_matrix",
                                   "linalg.py: helper_in_prose",
                                   "linalg.py: helper_nobody_reads",
                                   "linalg.py: Mat.method_nobody_reads"]

