"""Static checks on the library source, parsed with ast.

Every name a library module imports is used in that module: each
src/omegacalc/*.py except the package's __init__.py (whose imports are its
public surface) is parsed, and an imported name that is never read is a dead
import.  No function takes a `check` switch; every value built past its
constructor is built by `linalg._certified`, at a call pinned by module,
function and class, and no other function but `linalg._mat` calls `__new__`.
The constructions certified in the README's verification policy call no full
axiom report, only the universal, zero, quotient and Kaehler calculi skip
the calculus check, and the universal calculus, its induced maps, f_u,
saturation and the closure check are closed forms that solve nothing.  The
Hopf coactions solve nothing, re-check nothing and build no Kronecker
product, bicovariance_check reads the coactions of Omega_u memoized per
bimonoid and runs no codiagonal chain, verify_poset_adjunction compares the
pushed and pulled kernels with f_u built once and builds no calculus, the
lattice enumeration saturates no candidate on its own, and the dg morphism
oracle (tests/oracles.py) builds no Kronecker product and reads each
calculus only through g_n, with no loop that re-checks d or a wedge.  The
test-only oracles and the checks of the paper's propositions live in
tests/oracles.py, every public name of the package is imported, read as an
attribute or named in a dotted string outside its module, in the CLI, the
benchmark or the tools, or named in the README's code, and every public
method of a public class is read as an attribute or named in the README's
code (the public surface guard). The prolongation applies every identity
factor blockwise: it calls neither whiskered product, and no Kronecker
product it forms is multiplied or subtracted from the left.  The functions
handed a subspace take its canonical basis and neither re-derive it nor
solve for a containment.  fodc.py builds no Kronecker product, and
ker(Omega_u -> c) is eliminated in one place, the memoized `_kernel`. The
universal calculus is a value of its algebra: no function takes one as a
parameter, and the helper and the option that did are gone.  The Kaehler
calculus is the closed form I / I^2 and builds neither Omega_u, nor a
saturation, nor a generic quotient.  The rational lattice enumeration
eliminates rows of the sandwich map and calls neither image_basis nor
select_cols, and image_basis and the Kaehler relations share one row-span
step (`linalg._row_span`). There is one quotient route: `quotient_calculus`
builds on `quotient_bimodule`, and only saturation, the lattice enumeration
and the pulled-back kernel certify a basis that skips its closure witness.
"""

import ast
import re
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


def called_names(node) -> set[str]:
    """The names of the functions and methods called anywhere inside node."""
    found = set()
    for call in ast.walk(node):
        if isinstance(call, ast.Call):
            f = call.func
            found.add(f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None))
    return found


def function_node(module, name: str) -> ast.FunctionDef:
    """The top-level function name of a library module, or of a file given
    by its path."""
    tree = ast.parse((SRC / module).read_text())
    return next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name)


def test_certified_constructions_call_no_full_report():
    # the report runs in the tests (tests/oracles.py), and the library
    # builds its graded calculi under certificates
    for path in SRC.glob("*.py"):
        assert "validation_report" not in called_names(ast.parse(path.read_text())), path.name


@pytest.mark.parametrize("module,name,banned", [
    ("hopf.py", "universal_coactions", {"solve", "check_hopf_module", "d_comodule_report",
                                        "kronecker"}),
    ("hopf.py", "bicovariance_check", {"check_hopf_module", "d_comodule_report",
                                       "subspace_leq", "factor_through_surjection",
                                       "_codiagonal_coactions", "kronecker"}),
    ("hopf.py", "_coacted", {"_codiagonal_coactions", "kronecker"}),
    ("hopf.py", "_codiagonal_coactions", {"kronecker"}),
    (ORACLES, "unique_dg_morphism", {"kron_all", "kronecker"}),
])
def test_coactions_and_dg_morphisms_are_closed_forms(module, name, banned):
    # the coactions of Omega_u are read back through the retraction once per
    # bimonoid, applied factor by factor to the columns of iota with no map
    # on A^(x)4, and a calculus applies 1 (x) phi and phi (x) 1 to them with
    # no codiagonal chain run per calculus; the dg
    # morphism is factored one degree at a time through Omega^(n-1) (x) A;
    # the Hopf reports run in the tests
    assert not called_names(function_node(module, name)) & banned


def test_dg_morphism_reads_each_calculus_only_through_g_n():
    # both calculi are generated in degree 0 by d and wedge, so the degreewise
    # factoring is the whole answer: no loop re-checks d or a wedge
    node = function_node(ORACLES, "unique_dg_morphism")
    read = {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
    assert "generator_map" in called_names(node)
    assert not read & {"wedge", "diff"}
    assert len([n for n in ast.walk(node) if isinstance(n, (ast.For, ast.While))]) == 1


def test_de_rham_comparison_reads_the_universal_theory_off_its_closed_form():
    # H_u is k.1 in degree 0 and zero above, and h^0 = I, so the comparison
    # is the Kaehler class of the unit: no universal prolongation, no chain
    # map above degree 0, no solve for one and no g_n
    node = function_node("derham.py", "de_rham_comparison")
    assert not called_names(node) & {"unique_dg_morphism",
                                     "factor_through_surjection", "generator_map",
                                     "universal_prolongation", "_prolongation"}
    assert "from_universal" not in {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def test_the_universal_de_rham_theory_builds_no_prolongation():
    # derham reads the universal theory off its closed form and imports no
    # constructor of the universal prolongation; the CLI's universal
    # cohomology goes through de_rham
    source = (SRC / "derham.py").read_text()
    assert "universal_prolongation" not in {
        a.name for n in ast.walk(ast.parse(source)) if isinstance(n, ast.ImportFrom)
        for a in n.names}
    for name in ("de_rham", "_universal_de_rham"):
        assert not called_names(function_node("derham.py", name)) & {
            "universal_prolongation", "_prolongation", "kernel_basis", "image_basis", "solve"}
    assert "de_rham" in called_names(function_node("cli.py", "_cmd_cohomology"))


@pytest.mark.parametrize("name", ["solve", "inverse"])
def test_solve_and_inverse_form_no_product(name):
    # solve reads consistency off its elimination and inverse trusts that a
    # right inverse of a square matrix is two-sided: neither multiplies out
    node = function_node("linalg.py", name)
    assert not [n for n in ast.walk(node) if isinstance(n, ast.BinOp)
                and isinstance(n.op, ast.Mult)]


def test_kernel_basis_eliminates_once():
    # the reversed column order leaves the null vectors in reduced column
    # echelon form, so no second elimination brings them into it
    called = called_names(function_node("linalg.py", "kernel_basis"))
    assert "_rref_sparse" in called
    assert not called & {"rref", "image_basis", "rank"}


@pytest.mark.parametrize("module,name,banned", [
    ("bimodule.py", "quotient_bimodule", {"mul_id_kron", "mul_kron_id"}),
    ("algebra.py", "is_commutative", {"swap_matrix"}),
    ("kahler.py", "kahler_calculus", {"swap_matrix"}),
])
def test_permutation_products_are_column_relabels(module, name, banned):
    # the 0/1 section picks columns and the swap relabels them: no product
    assert not called_names(function_node(module, name)) & banned


def kronecker_left_operands(node) -> list[str]:
    """The products and differences inside node whose left operand is a
    kronecker(...) call, or a name bound to one."""
    bound = {t.id for a in ast.walk(node) if isinstance(a, ast.Assign)
             and isinstance(a.value, ast.Call) and getattr(a.value.func, "id", None) == "kronecker"
             for t in a.targets if isinstance(t, ast.Name)}

    def is_kronecker(e):
        return ((isinstance(e, ast.Call) and getattr(e.func, "id", None) == "kronecker")
                or (isinstance(e, ast.Name) and e.id in bound))

    return [ast.unparse(b) for b in ast.walk(node) if isinstance(b, ast.BinOp)
            and isinstance(b.op, (ast.Mult, ast.Sub)) and is_kronecker(b.left)]


def test_prolongation_applies_identity_factors_blockwise():
    # (x (x) I)(I (x) m) is kron_id_mul and the right action is written entry
    # by entry; a Kronecker product is formed only where it is the answer
    node = function_node("prolong.py", "_prolongation")
    assert not called_names(node) & {"mul_id_kron", "mul_kron_id"}
    assert "kron_id_mul" in called_names(node)
    assert kronecker_left_operands(node) == []
    assert "kronecker" not in called_names(function_node("prolong.py", "_right_action"))


def test_a_kronecker_left_operand_is_seen():
    source = ("def f(a, b, c):\n"
              "    d = kronecker(a, b) * c\n"
              "    e = kronecker(a, c)\n"
              "    return d - e, e * c, c * kronecker(b, c), kronecker(a, a) - c\n")
    assert kronecker_left_operands(ast.parse(source)) == [
        "kronecker(a, b) * c", "e * c", "kronecker(a, a) - c"]


def test_bicovariance_check_reads_the_memoized_coactions():
    # lam_u and rho_u are built once per bimonoid by the memoized
    # universal_coactions; a check reads them, and rebuilds neither Omega_u,
    # its splitting nor a Hopf report
    node = function_node("hopf.py", "bicovariance_check")
    called = called_names(node)
    assert "universal_coactions" in called
    memo = function_node("hopf.py", "universal_coactions").decorator_list
    assert [ast.unparse(d) for d in memo] == ["_memo"]
    assert not called & {"_prolongation", "universal_prolongation", "_unit_complement",
                         "from_entries", "kernel_basis", "Bimodule", "universal_calculus",
                         "_codiagonal_coactions", "kronecker", "check_hopf_module",
                         "d_comodule_report"}


def test_the_adjunction_compares_kernels_and_builds_no_calculus():
    # the pushed and pulled kernels come from the helpers calc_pushforward
    # and calc_pullback quotient by, with f_u built once for all of them
    node = function_node("scalars.py", "verify_poset_adjunction")
    called = called_names(node)
    assert not called & {"calc_pushforward", "calc_pullback", "quotient_calculus"}
    assert [ast.unparse(c.func) for c in ast.walk(node) if isinstance(c, ast.Call)
            ].count("universal_map") == 1
    for name, helper in (("calc_pushforward", "_pushed_kernel"),
                         ("calc_pullback", "_pulled_kernel")):
        assert helper in called and helper in called_names(function_node("scalars.py", name))


@pytest.mark.parametrize("module,name", [
    ("fodc.py", "quotient_calculus"),
    ("fodc.py", "sub_calculus_correspondence"),
    ("linalg.py", "preimage_basis"),
    ("linalg.py", "subspace_leq"),
])
def test_subspace_takers_rederive_nothing(module, name):
    # each takes a canonical basis, which quotient_maps checks in O(nnz);
    # the echelon form is not recomputed and a containment is read off the
    # quotient map, not solved for
    assert not called_names(function_node(module, name)) & {"image_basis", "solve"}


def test_no_amitsur_surjections_and_no_engine_error_in_hopf():
    for path in SRC.glob("*.py"):
        assert "surjectivity_maps" not in path.read_text(), path.name
    assert "EngineError" not in (SRC / "hopf.py").read_text()


@pytest.mark.parametrize("module,name", [
    ("fodc.py", "universal_calculus"),
    ("fodc.py", "induced_map"),
    ("fodc.py", "_phi"),
    ("scalars.py", "universal_map"),
])
def test_universal_constructions_are_closed_forms(module, name):
    # Omega_u = A (x) A-bar, phi and f_u are read off their formulas; the
    # kernel route and the bimodule-map check they replaced are test oracles
    banned = {"solve", "kernel_basis", "bimod_map_report"}
    assert not called_names(function_node(module, name)) & banned


def test_fodc_builds_no_kronecker_product():
    # iota and the retraction are written entry by entry, and the
    # kernel-counit comparison applies 1 (x) mu blockwise
    assert "kronecker" not in called_names(ast.parse((SRC / "fodc.py").read_text()))


def test_the_kernel_of_phi_is_eliminated_only_in_kernel():
    # every other caller reads the memoized ker(Omega_u -> c), which a
    # quotient of the universal calculus records when it is built
    found = {path.name: path.read_text().count("kernel_basis(_phi(") for path in MODULES}
    assert {name: k for name, k in found.items() if k} == {"fodc.py": 1}
    assert "kernel_basis(_phi(" in ast.unparse(function_node("fodc.py", "_kernel"))
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name != "_kernel":
                assert not {"kernel_basis", "_phi"} <= called_names(node), (path.name, node.name)


def test_no_function_takes_the_universal_calculus():
    # universal_calculus(a) is the only constructor of a UniversalCalculus and
    # is memoized per algebra, so a function works it out from its inputs
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                annotated = [p.arg for p in params
                             if p is not None and p.annotation is not None
                             and "UniversalCalculus" in ast.unparse(p.annotation)]
                assert annotated == [], (path.name, node.name)


@pytest.mark.parametrize("name", ["kernel_from_universal", "max_generators", "_splitting",
                                  "_certified_dg", "_dg_certified", "self.check",
                                  "_closed_quotient", "_closed_quotient_calculus", "_descend",
                                  "_quotient_on"])
def test_retired_names_are_gone(name):
    for path in SRC.glob("*.py"):
        assert name not in path.read_text(), path.name


# Every value built past its constructor, through linalg._certified, as
# (module, function, class), under the certificate written next to each
# call.  The public constructors of these classes check, and
# UniversalCalculus and MaximalProlongation have no public constructor.
CERTIFIED_CALCULI = {
    ("bimodule.py", "zero_bimodule", "Bimodule"),
    ("bimodule.py", "sub_bimodule", "Bimodule"),
    ("bimodule.py", "sub_bimodule", "BimodMap"),
    ("bimodule.py", "quotient_bimodule", "Bimodule"),
    ("bimodule.py", "quotient_bimodule", "BimodMap"),
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
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.FunctionDef) and "__new__" in called_names(node)]
    assert sorted(found) == [("linalg.py", "_certified"), ("linalg.py", "_mat")]


def test_only_the_closure_proving_constructions_certify_a_sub_bimodule_basis():
    # a basis that skips quotient_bimodule's closure witness is built by
    # bimodule._closed_basis, called only next to a proof of closure
    callers = {(path.name, getattr(node, "name", "<module>")) for path in MODULES
               for node in ast.parse(path.read_text()).body
               if "_closed_basis" in called_names(node)}
    assert callers == {("bimodule.py", "saturate_subspace"),
                       ("fodc.py", "enumerate_action_closed_subspaces"),
                       ("scalars.py", "_pulled_kernel")}


CALCULI = {"FirstOrderCalculus", "UniversalCalculus"}


@pytest.mark.parametrize("module,name", sorted(
    {(module, name) for module, name, cls in CERTIFIED_CALCULI if cls in CALCULI}))
def test_certified_calculi_run_no_calculus_check(module, name):
    banned = {"check_fodc", "FirstOrderCalculus", "UniversalCalculus"}
    assert not called_names(function_node(module, name)) & banned


@pytest.mark.parametrize("name", ["kahler_calculus", "kahler_relations"])
def test_kahler_is_built_without_the_universal_tower(name):
    # Omega^1 = I / I^2 is written from the structure constants; the
    # saturated quotient of Omega_u it replaced is the test oracle
    banned = {"universal_calculus", "quotient_calculus", "saturate_subspace"}
    assert not called_names(function_node("kahler.py", name)) & banned


@pytest.mark.parametrize("name", [
    "saturate_subspace", "_closure_witness", "action_closed", "quotient_bimodule",
])
def test_sub_bimodule_closure_solves_nothing(name):
    # A . V . A is two products and the closure check is read off the
    # quotient map; the fixpoint loop and the per-element solves they
    # replaced are test oracles
    assert "solve" not in called_names(function_node("bimodule.py", name))


def test_enumeration_saturates_through_one_sandwich_map():
    # each basis vector is saturated once, pairs are sums of those, and each
    # diagonal is one elimination on w; the per-candidate saturation it
    # replaced is the test oracle
    node = function_node("fodc.py", "enumerate_action_closed_subspaces")
    assert "saturate_subspace" not in called_names(node)


def test_the_rational_enumeration_eliminates_rows():
    # outside the exhaustive GF(p) branch each candidate is one elimination
    # of rows of w^T (linalg._row_span): no column selection, and no
    # transpose pair around an elimination per candidate
    node = function_node("fodc.py", "enumerate_action_closed_subspaces")
    branch = next(n for n in ast.walk(node) if isinstance(n, ast.If)
                  and "is_rational" in ast.unparse(n.test))
    called = set().union(*(called_names(n) for n in branch.orelse))
    assert "_row_span" in called
    assert not called & {"image_basis", "select_cols"}


def test_image_basis_is_the_row_span_on_the_columns():
    # one canonical form, one route: image_basis is linalg._row_span on the
    # columns of its argument, and the Kaehler relations are eliminated as
    # rows through it
    assert "_row_span" in called_names(function_node("linalg.py", "image_basis"))
    called = called_names(function_node("kahler.py", "kahler_relations"))
    assert "_row_span" in called and "image_basis" not in called


def test_saturation_has_no_loop():
    node = function_node("bimodule.py", "saturate_subspace")
    assert not [n for n in ast.walk(node) if isinstance(n, (ast.For, ast.While))]


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
    init = ast.parse((SRC / "__init__.py").read_text())
    exported = [a.asname or a.name for n in init.body if isinstance(n, ast.ImportFrom)
                for a in n.names]
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
            text += "\nfrom .linalg import swap_matrix\n"
        if path == ROOT / "tools" / "bench.py":
            text += "\n\ndef _shadow():\n    helper_in_prose = 0\n    return helper_in_prose\n"
        return text

    monkeypatch.setattr(Path, "read_text", read_text)
    monkeypatch.setitem(globals(), "README", README + "\nThe helper_in_prose is prose.\n")
    assert surface_offenders() == ["__init__.py exports swap_matrix",
                                   "linalg.py: helper_in_prose",
                                   "linalg.py: helper_nobody_reads",
                                   "linalg.py: Mat.method_nobody_reads"]


@pytest.mark.parametrize("name", [
    "amitsur_differential", "amitsur_wedge", "UniversalProlongation", "validation_report",
    "kron_all", "unique_dg_morphism", "check_hopf_module", "d_comodule_report",
    "truncation_adjoints_check", "rank_identity_report", "square_zero_unit_check",
    "calc1_category_adjoints_check", "kernel_counit_comparison", "bimodule_to_json",
])
def test_test_only_code_is_not_in_the_library(name):
    # reference implementations and proposition checks live in tests/oracles.py
    for path in SRC.glob("*.py"):
        assert not re.search(rf"\b{name}\b", path.read_text()), path.name
