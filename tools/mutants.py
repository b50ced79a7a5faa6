#!/usr/bin/env python3
"""Mutation check: break each certified construction, and the test oracles
in tests/oracles.py that stand in for the checks it replaced, and see a
test fail.

Each mutant is a tuple (file, exact text, replacement, pytest selection).
The tool copies src/, tests/, pyproject.toml and README.md into a
temporary directory, runs every selection once on the unmutated copy (each
must pass), then for each mutant replaces the text in the copy, runs its
selection there and puts the text back.  A mutant is killed when its selection fails.  The working
tree is only read, never written.

Exits 1 if a text does not occur exactly once in its file, if a selection
fails on the unmutated copy, or if any mutant survives.  Run from anywhere:

    python tools/mutants.py
"""

from __future__ import annotations

import os
import shlex
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FULL_VALIDATION = ("tests/test_prolong.py -k "
                   "maximal_prolongation_and_trivial_extension_pass_full_validation")
COACTION_ORACLE = "tests/test_hopf.py -k universal_coactions_pass_axioms"
CODIAGONAL_ORACLE = "tests/test_hopf.py -k codiagonal_coactions_match_the_materialized_ones"
ENUMERATION_ORACLE = "tests/test_fodc.py -k enumeration_matches_saturation_per_candidate"
AD_STABLE_ORACLE = "tests/test_hopf.py -k function_algebra_calculi_are_bicovariant_iff_ad_stable"
QUOTIENT_HOPF_ORACLE = "tests/test_hopf.py -k bicovariance_agrees_with_brute_force"
DG_MORPHISM_ORACLE = "tests/test_prolong.py -k unique_dg_morphism_matches_the_amitsur_route"
AMITSUR_ORACLE = "tests/test_prolong.py -k amitsur_compatible"
ORDER_ORACLE = "tests/test_prolong.py -k wedges_do_not_depend_on_the_order_they_are_read"
KERNEL_ORACLE = "tests/test_fodc.py -k universal_calculus_is_the_kernel_of_multiplication"
PHI_ORACLE = "tests/test_fodc.py -k induced_map_passes_its_certificate_oracles"
RESTRICTION_ORACLE = "tests/test_scalars.py -k universal_map_is_the_restriction_of_f_tensor_f"
SATURATION_ORACLE = "tests/test_bimodule.py -k saturation_is_the_fixpoint_of_the_actions"
CLOSURE_ORACLE = "tests/test_bimodule.py -k closure_witness_matches_one_solve_per_basis_element"
CERTIFIED_CALCULUS_ORACLE = "tests/test_fodc.py -k check_fodc"
MEMO_ORACLE = "tests/test_fodc.py -k memo_keeps_equal_instances_apart"
CONTAINMENT_ORACLE = "tests/test_fodc.py -k subspace_leq_matches_the_solve_oracle"
KRON_ID_MUL_ORACLE = "tests/test_linalg_kernels.py -k kron_id_mul"
KERNEL_SHORTCUT_ORACLE = ("tests/test_fodc.py -k "
                          "quotient_of_a_calculus_in_another_basis_computes_its_kernel")
KAHLER_ORACLE = "tests/test_kahler.py -k matches_the_saturated_quotient_of_omega_u"
PROJECTION_ORACLE = ("tests/test_prolong.py -k "
                     "maps_from_the_universal_prolongation_match_unique_dg_morphism")
UNIVERSAL_DE_RHAM_ORACLE = "tests/test_derham.py -k universal_de_rham_matches_the_generic_route"
SOLVE_ORACLE = "tests/test_linalg_kernels.py -k solve_matches_its_product_check_oracle"
KERNEL_BASIS_ORACLE = "tests/test_linalg_kernels.py -k kernel_basis_matches_its_two_elimination_oracle"
D_SQUARED_PIN = "tests/test_derham.py -k user_built_graded_calculus_keeps_the_d_squared_check"
BIMODULE_REFUSAL = "tests/test_bimodule.py -k refuses_every_corruption_that_check_fodc_accepts"
QUOTIENT_MAPS_ORACLE = "tests/test_linalg_kernels.py -k quotient_maps_matches_its_column_oracle"
LARGER_PRIMES = "tests/test_linalg_kernels.py -k larger_primes"
MILLER_RABIN = "tests/test_linalg.py -k past_the_trial_divisors"
RANK_IDENTITY = "tests/test_derham.py -k rank_identity_all_interior_degrees"
PHI_RECORD_ORACLE = ("tests/test_fodc.py -k "
                     "quotients_of_the_universal_calculus_record_phi_by_its_formula")
ADJUNCTION_ORACLE = "tests/test_scalars.py -k adjunction_matches_the_calculus_building_route"
CHAIN_ORACLE = "tests/test_hopf.py -k bicovariance_matches_the_codiagonal_chain"
UNCERTIFIED_WITNESS = ("tests/test_fodc.py -k "
                       "closure_witness_runs_exactly_on_uncertified_input")
FOREIGN_CERTIFICATE = "tests/test_fodc.py -k basis_certified_for_another_bimodule_is_checked"
FOREIGN_QUOTIENT = ("tests/test_bimodule.py -k "
                    "foreign_member_is_checked_and_keeps_only_its_own_quotient")
QUOTIENT_MEMO = "tests/test_bimodule.py -k quotient_by_a_certified_member_is_built_once"
CHECK_FODC_RANK = "tests/test_fodc.py -k test_generalized_calculus_type"
LATTICE_MEMO = "tests/test_fodc.py -k lattice_is_built_once_per_bimodule"
GALOIS_NUMBER = "tests/test_fodc.py -k exhaustive_enumeration_is_every_subspace_of_a_vector_space"
PIN_TABLE = "tests/test_hygiene.py::test_pin"
PAIR_KEY = "tests/test_scalars.py -k calculi_of_one_algebra_pushed_along_one_map_are_kept_apart"
PAIR_WEAK = "tests/test_scalars.py -k pair_memo_keeps_neither_the_calculus_nor_the_map_alive"
PAIR_PER_MAP = "tests/test_scalars.py -k maps_do_not_share_a_transport"
OWN_DIRECTORY = "tests/test_cli.py -k paths_in_files_resolve_against_their_own_directory"
WEDGE_CHAIN = "tests/test_prolong.py -k a_wedge_far_from_the_actions_is_read_first"
WITNESS_ORACLE = "tests/test_algebra.py -k commutativity_witness_matches_the_dense_loop"
LOADER_PATHS = "tests/test_loader.py -k runs_only_the_bodies_it_reads"
CONCURRENT_TOUCH = "tests/test_loader.py -k waits_for_a_load_in_progress"

MUTANTS = [
    # the prolongation builder: the sign of the right-action recursion, the
    # unit correction of pi, the slot of the unit in d0, and the relations
    # Omega^(k-2) ^ dN of the maximal prolongation
    ("src/omegacalc/prolong.py",
     "acc[t] = get(t, 0) - z * y",
     "acc[t] = get(t, 0) + z * y",
     AMITSUR_ORACLE),
    ("src/omegacalc/fodc.py",
     "(r, pivot, f.mul(lead, a.unit[j]))",
     "(r, pivot, 0)",
     AMITSUR_ORACLE),
    ("src/omegacalc/prolong.py",
     "kronecker(a.unit_mat, pi)",
     "kronecker(pi, a.unit_mat)",
     AMITSUR_ORACLE),
    ("src/omegacalc/prolong.py",
     "image_basis(acted.hstack(wedged))",
     "image_basis(acted)",
     FULL_VALIDATION),
    # the lazy wedges: (i, j) built with the section of degree 1 in place of
    # that of degree j
    ("src/omegacalc/prolong.py",
     "wedge_d(i + j, wedge[(i, j - 1)], dims[i], j)",
     "wedge_d(i + j, wedge[(i, j - 1)], dims[i], 1)",
     ORDER_ORACLE),
    # the maximal prolongation with the left and right actions of c swapped
    # where degree 1 is seeded with c itself
    ("src/omegacalc/prolong.py",
     "built = {(0, 0): a.mult_mat, (0, 1): c.omega.left_mat, (1, 0): c.omega.right_mat}",
     "built = {(0, 0): a.mult_mat, (0, 1): c.omega.right_mat, (1, 0): c.omega.left_mat}",
     FULL_VALIDATION),
    # trivial_extension: its left action on Omega^1
    ("src/omegacalc/prolong.py",
     "    wedge = {(0, 0): a.mult_mat, (0, 1): c.omega.left_mat, (1, 0): c.omega.right_mat}\n"
     "    for i in range(max_degree + 1):",
     "    wedge = {(0, 0): a.mult_mat, (0, 1): c.omega.left_mat + c.omega.left_mat,"
     " (1, 0): c.omega.right_mat}\n"
     "    for i in range(max_degree + 1):",
     FULL_VALIDATION),
    # the codiagonal coactions, shared by universal_coactions and
    # bicovariance_check: lambda, rho, and lambda's Delta applied to the
    # first leg instead of the second
    ("src/omegacalc/hopf.py",
     "    lam = mul_id_kron(mul_kron_id(mul_id_kron(xt, n, dt), h.s_t, n), n, gt)",
     "    lam = -mul_id_kron(mul_kron_id(mul_id_kron(xt, n, dt), h.s_t, n), n, gt)",
     COACTION_ORACLE),
    ("src/omegacalc/hopf.py",
     "    rho = mul_kron_id(mul_id_kron(mul_kron_id(xt, dt, n), n, h.t_t), gt, n)",
     "    rho = mul_kron_id(mul_id_kron(mul_kron_id(xt + xt, dt, n), n, h.t_t), gt, n)",
     COACTION_ORACLE),
    ("src/omegacalc/hopf.py",
     "mul_id_kron(xt, n, dt), h.s_t",
     "mul_kron_id(xt, dt, n), h.s_t",
     CODIAGONAL_ORACLE),
    # bicovariance_check: the right-side subcomodule test, the legs 1 (x) phi
    # and phi (x) 1 swapped, and the solved section the quotient coactions
    # descend through
    ("src/omegacalc/hopf.py",
     "    if not rho_n.is_zero():",
     "    if False:",
     AD_STABLE_ORACLE),
    ("src/omegacalc/hopf.py",
     "return mul_id_kron(xt * lam_t, n, pt), mul_kron_id(xt * rho_t, pt, n)",
     "return mul_kron_id(xt * lam_t, pt, n), mul_id_kron(xt * rho_t, n, pt)",
     CHAIN_ORACLE),
    ("src/omegacalc/fodc.py",
     "    return solve(_phi(c), Mat.identity(c.alg.field, c.dim))",
     "    return _phi(c).transpose()",
     QUOTIENT_HOPF_ORACLE),
    # the dg morphism oracle of the tests: the f0 factor of the right-hand
    # side, and the degrees that factor returned, in place of None, when one
    # does not
    ("tests/oracles.py",
     "        rhs = mul_id_kron(g_h, src.dims[n - 1], f0.matrix)\n",
     "        rhs = g_h\n",
     DG_MORPHISM_ORACLE),
    ("tests/oracles.py",
     "        if h_n is None:\n            return None\n",
     "        if h_n is None:\n            break\n",
     DG_MORPHISM_ORACLE),
    # the universal calculus: the sign of iota's a0 b (x) 1 term, and the
    # sign of phi, shared by induced_map and maximal_prolongation
    ("src/omegacalc/fodc.py",
     "ones - one_unit * ",
     "ones + one_unit * ",
     KERNEL_ORACLE),
    ("src/omegacalc/fodc.py",
     "    return mul_id_kron(c.omega.left_mat, a.dim, c.d.select_cols(bar))",
     "    return -mul_id_kron(c.omega.left_mat, a.dim, c.d.select_cols(bar))",
     PHI_ORACLE),
    # universal_map: pi_B replaced by the plain coordinates at B-bar, which
    # drops its unit correction
    ("src/omegacalc/scalars.py",
     "kronecker(f.matrix, pi_b * f.matrix.select_cols(bar))",
     "kronecker(f.matrix, Mat.identity(pi_b.field, pi_b.cols).select_cols(_bar).transpose()"
     " * f.matrix.select_cols(bar))",
     RESTRICTION_ORACLE),
    # verify_poset_adjunction comparing ker(c) where the pushed kernel belongs
    ("src/omegacalc/scalars.py",
     "lhs = (to_ts[ti] * pushed[ci]).is_zero()",
     "lhs = (to_ts[ti] * ker_cs[ci]).is_zero()",
     ADJUNCTION_ORACLE),
    # saturate_subspace without its right-action step, and the closure check
    # without its right products
    ("src/omegacalc/bimodule.py",
     "    return _closed_basis(m, image_basis(mul_kron_id(m.right_mat, left, m.right_alg.dim)))",
     "    return _closed_basis(m, left)",
     SATURATION_ORACLE),
    ("src/omegacalc/bimodule.py",
     "    j = min((c % nb for row in right.data for c in row), default=None)",
     "    j = None",
     CLOSURE_ORACLE),
    # the certified calculi: quotient_calculus with a zero differential,
    # universal_calculus with its left action in place of the right one,
    # and with -d (still a calculus, so the kernel oracle catches it)
    ("src/omegacalc/fodc.py",
     "    d_new = proj.matrix * c.d\n",
     "    d_new = Mat.zeros(c.alg.field, quo.dim, c.alg.dim)\n",
     CERTIFIED_CALCULUS_ORACLE),
    ("src/omegacalc/fodc.py",
     "left_mat=wedge[(0, 1)], right_mat=wedge[(1, 0)])",
     "left_mat=wedge[(0, 1)], right_mat=wedge[(0, 1)])",
     CERTIFIED_CALCULUS_ORACLE),
    ("src/omegacalc/fodc.py",
     "_certified(UniversalCalculus, alg=a, omega=omega, d=diff[0],",
     "_certified(UniversalCalculus, alg=a, omega=omega, d=-diff[0],",
     KERNEL_ORACLE),
    # the lattice enumeration on rows: a sum of two members taken as its
    # first term only, the diagonal e_i - e_j replaced by e_i + e_j, and the
    # sums stopped after one round, which the exhaustive case needs more of
    ("src/omegacalc/fodc.py",
     "record(_row_span(f, spans[x] + spans[y]))",
     "record(_row_span(f, spans[x]))",
     ENUMERATION_ORACLE),
    ("src/omegacalc/fodc.py",
     "                saturation({i: 1, j: sign})",
     "                saturation({i: 1, j: 1})",
     ENUMERATION_ORACLE),
    ("src/omegacalc/fodc.py",
     "        fresh = range(known, len(spans)) if exhaustive else ()",
     "        fresh = ()",
     GALOIS_NUMBER),
    # quotient_bimodule skipping the closure witness for a basis certified
    # for any bimodule (the ambient identity test dropped), and for a bare
    # Mat (the witness run on no Mat at all); returning, once the witness
    # passes, the quotient kept on a certified basis without asking whether
    # it is this bimodule's; and keeping the quotient by a certified basis
    # in a table on its ambient instead of on the basis
    ("src/omegacalc/bimodule.py",
     "isinstance(sub_canonical, _ClosedBasis) and sub_canonical.ambient is m",
     "isinstance(sub_canonical, _ClosedBasis)",
     FOREIGN_CERTIFICATE),
    ("src/omegacalc/bimodule.py",
     "    witness = _closure_witness(",
     "    witness = None if isinstance(sub_canonical, Mat) else _closure_witness(",
     UNCERTIFIED_WITNESS),
    ("src/omegacalc/bimodule.py",
     "    return _quotient_by_maps(m, q, s, q_left, q_right)\n",
     "    if isinstance(sub_canonical, _ClosedBasis):\n"
     "        return _basis_quotient(sub_canonical)\n"
     "    return _quotient_by_maps(m, q, s, q_left, q_right)\n",
     FOREIGN_QUOTIENT),
    ("src/omegacalc/bimodule.py",
     "        return _basis_quotient(sub_canonical)\n    q, s =",
     "        kept = m.__dict__.setdefault(_basis_quotient.slot, {})\n"
     "        if id(sub_canonical) not in kept:\n"
     "            kept[id(sub_canonical)] = _basis_quotient.__wrapped__(sub_canonical)\n"
     "        return kept[id(sub_canonical)]\n    q, s =",
     QUOTIENT_MEMO),
    # the public enumeration handing out the memoized lattice itself
    ("src/omegacalc/fodc.py",
     "    return list(_closed_subspaces(m))\n",
     "    return _closed_subspaces(m)\n",
     LATTICE_MEMO),
    # check_fodc: the left-surjectivity rank
    ("src/omegacalc/fodc.py",
     "    left_rank = rank(one_d)",
     "    left_rank = omega.dim",
     CHECK_FODC_RANK),
    # the memo: one module-level slot per function instead of one per
    # instance, the recorded kernel taken for a quotient of any calculus, and
    # the identity recorded as phi of a quotient of the universal calculus
    ("src/omegacalc/linalg.py",
     "        kept = x.__dict__\n",
     "        kept = _memo.__dict__\n",
     MEMO_ORACLE),
    # the pair memo of transport keyed by the calculus's algebra instead of
    # the calculus, in a plain dict instead of the weak table, and in one
    # module-level table instead of one per map
    ("src/omegacalc/linalg.py",
     "            (key,) = y\n",
     "            key = y[0].alg\n",
     PAIR_KEY),
    ("src/omegacalc/linalg.py",
     "kept[slot] = WeakKeyDictionary()",
     "kept[slot] = {}",
     PAIR_WEAK),
    ("src/omegacalc/linalg.py",
     "            if slot not in kept:\n"
     "                kept[slot] = WeakKeyDictionary()\n"
     "            kept = kept[slot]\n",
     "            kept = _memo.__dict__.setdefault(slot, WeakKeyDictionary())\n",
     PAIR_PER_MAP),
    ("src/omegacalc/fodc.py",
     "if isinstance(c, UniversalCalculus) else",
     "if True else",
     KERNEL_SHORTCUT_ORACLE),
    ("src/omegacalc/fodc.py",
     "split = {_phi.slot: proj.matrix,",
     "split = {_phi.slot: Mat.identity(c.alg.field, c.dim),",
     PHI_RECORD_ORACLE),
    # kron_id_mul with the offset l inside a block of x (x) I_q dropped
    ("src/omegacalc/linalg.py",
     "divmod(c * q + l, mr)\n                base = i * mc\n",
     "divmod(c * q, mr)\n                base = i * mc\n",
     KRON_ID_MUL_ORACLE),
    # the Kaehler calculus as I / I^2: the relations without x de_i de_i,
    # and the right action without the swap
    ("src/omegacalc/kahler.py",
     "for j in bar[k:]:",
     "for j in bar[k + 1:]:",
     KAHLER_ORACLE),
    ("src/omegacalc/kahler.py",
     "rm = mul_swap(lm, q.rows, n)",
     "rm = lm",
     KAHLER_ORACLE),
    # the maps from the universal prolongation with the Kronecker factors
    # swapped, I (x) h^(k-1) in place of h^(k-1) (x) I
    ("src/omegacalc/prolong.py",
     "maps.append(mul_kron_id(q, maps[k - 1], nb))",
     "maps.append(mul_id_kron(q, nb, maps[k - 1]))",
     PROJECTION_ORACLE),
    # subspace_leq reading the quotient map of sup off sup itself, which
    # makes every containment true
    ("src/omegacalc/linalg.py",
     "    return (q * sub).is_zero()",
     "    return (q * sup).is_zero()",
     CONTAINMENT_ORACLE),
    # the universal de Rham theory in closed form, with the unit not scaled
    # to 1 at its pivot
    ("src/omegacalc/derham.py",
     "unit = Mat.col_vector(f, [f.mul(lead, x) for x in a.unit])",
     "unit = Mat.col_vector(f, a.unit)",
     UNIVERSAL_DE_RHAM_ORACLE),
    # cohomology with the empty boundary basis of degree 0 given the height
    # of degree 1, which quotient_maps refuses
    ("src/omegacalc/derham.py",
     "boundaries = Mat.zeros(field, c.dims[0], 0)",
     "boundaries = Mat.zeros(field, c.dims[1], 0)",
     RANK_IDENTITY),
    # solve with the inconsistency flag of its elimination ignored
    ("src/omegacalc/linalg.py",
     "    if inconsistent:\n        return None\n",
     "    if False:\n        return None\n",
     SOLVE_ORACLE),
    # kernel_basis read off the elimination in the given column order: the
    # null space, but not in reduced column echelon form
    ("src/omegacalc/linalg.py",
     "    flipped = [{last - c: v for c, v in row.items()} for row in m.data]\n"
     "    prows, pcols, _ = _rref_sparse(m.field, flipped)\n"
     "    vecs = _null_vectors(m.field, prows, pcols, n)\n"
     "    data = [{} for _ in range(n)]\n"
     "    for a, vec in enumerate(reversed(vecs)):\n"
     "        for c, v in vec.items():\n"
     "            data[last - c][a] = v\n",
     "    prows, pcols, _ = _rref_sparse(m.field, m.data)\n"
     "    vecs = _null_vectors(m.field, prows, pcols, n)\n"
     "    data = [{} for _ in range(n)]\n"
     "    for a, vec in enumerate(vecs):\n"
     "        for c, v in vec.items():\n"
     "            data[c][a] = v\n",
     KERNEL_BASIS_ORACLE),
    # the public GradedCalculus constructor without its d.d check, which
    # from_graded relies on; and Bimodule without its axiom report
    ("src/omegacalc/prolong.py",
     "        for k in range(max_degree - 1):\n"
     "            if not (diff[k + 1] * diff[k]).is_zero():\n"
     "                raise LinAlgError(f\"d.d != 0 at degree {k}\")\n",
     "",
     D_SQUARED_PIN),
    ("src/omegacalc/bimodule.py",
     "        report = bimodule_axiom_report(left_alg, right_alg, dim, left_mat, right_mat)\n",
     "        report = []\n",
     BIMODULE_REFUSAL),
    # quotient_maps read row by row, taking a row with an entry right of
    # the next pivot column for a quotient coordinate
    ("src/omegacalc/linalg.py",
     "        elif row and max(row) >= l:\n",
     "        elif row and max(row) > l:\n",
     QUOTIENT_MAPS_ORACLE),
    # cost, not answers, so only the pin table sees them: the enumeration
    # running the closure witness on each member it certifies, and inverse
    # multiplying its answer back out
    ("src/omegacalc/fodc.py",
     "    return tuple(sorted(members, key=lambda s: (\n",
     "    from .bimodule import action_closed\n"
     "    assert all(action_closed(m, s) is None for s in members)\n"
     "    return tuple(sorted(members, key=lambda s: (\n",
     PIN_TABLE),
    ("src/omegacalc/linalg.py",
     "    if x is None:\n        raise LinAlgError(\"matrix is not invertible\")\n",
     "    if x is None or m * x != Mat.identity(m.field, m.rows):\n"
     "        raise LinAlgError(\"matrix is not invertible\")\n",
     PIN_TABLE),
    # the field: Fermat's inverse with the wrong exponent, and Miller-Rabin
    # missing a witness square that reaches p - 1
    ("src/omegacalc/linalg.py",
     "return pow(a, self.p - 2, self.p)",
     "return pow(a, self.p + 2, self.p)",
     LARGER_PRIMES),
    ("src/omegacalc/linalg.py",
     "            if x == p - 1:",
     "            if x == p + 1:",
     MILLER_RABIN),
    # the one algebra resolver reading a relative path against the working
    # directory, a wedge chain that skips the right actions it starts from,
    # and a commutativity witness that compares a product with itself
    ("src/omegacalc/cli.py",
     "_read(base / spec)",
     "_read(Path(spec))",
     OWN_DIRECTORY),
    ("src/omegacalc/prolong.py",
     "read = (i, j - 1) if j else (i - 1, 0)",
     "read = (i, j - 1) if j else (0, 0)",
     WEDGE_CHAIN),
    ("src/omegacalc/algebra.py",
     "products[i * n + j] != products[j * n + i]",
     "products[i * n + j] != products[i * n + j]",
     WITNESS_ORACLE),
    # the loader marking a module loaded before its body has run, as the
    # stdlib's lazy loader does, and the CLI importing the prolongations at
    # its top, so that every subcommand compiles them
    ("src/omegacalc/__init__.py",
     """            try:
                module.__spec__.loader.exec_module(module)
            finally:
                _RUNNING.discard(module.__name__)
            types.ModuleType.__setattr__(module, "__class__", types.ModuleType)
""",
     """            types.ModuleType.__setattr__(module, "__class__", types.ModuleType)
            try:
                module.__spec__.loader.exec_module(module)
            finally:
                _RUNNING.discard(module.__name__)
""",
     CONCURRENT_TOUCH),
    ("src/omegacalc/cli.py",
     "from . import bimodule, derham, fodc, hopf, kahler, prolong, scalars\n",
     "from . import bimodule, derham, fodc, hopf, kahler, prolong, scalars\n"
     "from .prolong import maximal_prolongation, universal_prolongation\n",
     LOADER_PATHS),
]


def texts_not_found_once(root: Path = ROOT) -> list[str]:
    """One line per mutant whose text does not occur exactly once."""
    bad = []
    for path, text, _new, _sel in MUTANTS:
        count = (root / path).read_text().count(text)
        if count != 1:
            bad.append(f"{path}: text found {count} times: {text!r}")
    return bad


def passes(tree: Path, selection: str) -> bool:
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           *shlex.split(selection)]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(cmd, cwd=tree, env=env, capture_output=True).returncode == 0


def main() -> int:
    bad = texts_not_found_once()
    if bad:
        print("\n".join(bad))
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tree / name, ignore=ignore)
        # tests/test_hygiene.py, which holds the pin table, reads the README
        for name in ("pyproject.toml", "README.md"):
            shutil.copy(ROOT / name, tree / name)
        for selection in dict.fromkeys(sel for *_rest, sel in MUTANTS):
            if not passes(tree, selection):
                print(f"unmutated copy fails: {selection}")
                return 1
        survivors = 0
        total = 0.0
        for path, text, new, selection in MUTANTS:
            target = tree / path
            original = target.read_text()
            target.write_text(original.replace(text, new))
            start = time.perf_counter()
            killed = not passes(tree, selection)
            seconds = time.perf_counter() - start
            total += seconds
            target.write_text(original)
            survivors += not killed
            first_line = text.strip().splitlines()[0]
            print(f"{'killed ' if killed else 'SURVIVED'} {seconds:5.1f} s {path}: {first_line}")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed, "
          f"{total:.1f} s in their selections")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
