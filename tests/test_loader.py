"""The package's loading rule, each check in a child process.

`import omegacalc` registers every library module and runs none of their
bodies; a body runs on the first touch of an attribute its module lacks,
under one lock.  So a CLI child compiles only what its subcommand reads
(the table below), the benchmark can look any function up through
`sys.modules`, and a second thread that touches a module while its body
runs waits for it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = SRC / "omegacalc" / "fixtures"

# The 47 exports, by defining module.
EXPORTS = {
    "algebra": ["Algebra", "AlgMap", "AxiomError", "build_group_algebra",
                "build_matrix_algebra", "build_truncated_poly"],
    "bimodule": ["BimodMap", "Bimodule", "tensor_over_algebra"],
    "derham": ["CochainComplex", "CohomologyReport", "cohomology", "de_rham",
               "de_rham_comparison"],
    "fodc": ["FirstOrderCalculus", "PreconditionError", "UniversalCalculus", "check_fodc",
             "enumerate_action_closed_subspaces", "induced_map", "quotient_calculus",
             "sub_calculus_correspondence", "universal_calculus", "zero_calculus"],
    "hopf": ["Bimonoid", "bicovariance_check", "group_like_bimonoid", "universal_coactions"],
    "kahler": ["centrality_check", "kahler_calculus"],
    "linalg": ["GF", "QQ", "EngineError", "Field", "LinAlgError", "Mat", "image_basis",
               "kernel_basis", "rank", "solve"],
    "prolong": ["GradedCalculus", "maximal_prolongation", "trivial_extension",
                "universal_prolongation"],
    "scalars": ["calc_pullback", "calc_pushforward", "verify_poset_adjunction"],
}

# Prints, at exit, the library modules whose bodies ran.
LOADED = """
import atexit, json, sys, types

def _report():
    ran = sorted(n.split(".", 1)[1] for n, m in sys.modules.items()
                 if n.startswith("omegacalc.") and n != "omegacalc.cli"
                 and type(m) is types.ModuleType)
    sys.stderr.write(json.dumps(ran) + "\\n")

atexit.register(_report)
"""

# `python -m omegacalc.cli`, with the report at exit.
CLI = LOADED + """
import runpy
sys.argv = ["omegacalc", *sys.argv[1:]]
runpy.run_module("omegacalc.cli", run_name="__main__", alter_sys=True)
"""


def child(script: str, *argv: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, "-c", script, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


# ---------------------------------------------------------------------------
# what each path runs
# ---------------------------------------------------------------------------

START = {"algebra", "io", "linalg"}   # the CLI's own imports

# path, argv (files in the work directory), bodies run beyond START, exit code
PATHS = [
    ("check", ["check", "qs3.json"], set(), 0),
    ("check a bimonoid", ["check", "qz3.json"], {"bimodule", "fodc", "hopf"}, 0),
    ("an unreadable file", ["universal", "missing.json"], set(), 64),
    ("universal", ["universal", "qx2.json"], {"bimodule", "fodc", "prolong"}, 0),
    ("kahler", ["kahler", "qx2.json"], {"bimodule", "fodc", "kahler"}, 0),
    ("prolong universal", ["prolong", "qx2.json", "--max-degree", "2"],
     {"bimodule", "fodc", "prolong"}, 0),
    ("prolong kahler", ["prolong", "qx2.json", "--calculus", "kahler", "--max-degree", "2"],
     {"bimodule", "fodc", "kahler", "prolong"}, 0),
    ("cohomology universal",
     ["cohomology", "qx2.json", "--flavor", "universal", "--max-degree", "2"],
     {"bimodule", "derham", "fodc"}, 0),
    ("cohomology kahler", ["cohomology", "qx2.json", "--flavor", "kahler", "--max-degree", "2"],
     {"bimodule", "derham", "fodc", "kahler", "prolong"}, 0),
    ("compare", ["compare", "qx2.json", "--max-degree", "2"],
     {"bimodule", "derham", "fodc", "kahler", "prolong"}, 0),
    ("extend universal",
     ["extend", "--map", "y_to_x2.json", "--calculus", "source_universal.json"],
     {"bimodule", "fodc", "prolong", "scalars"}, 0),
    ("restrict kahler", ["restrict", "--map", "y_to_x2.json", "--calculus", "target_kahler.json"],
     {"bimodule", "fodc", "kahler", "prolong", "scalars"}, 0),
    ("hopf-check", ["hopf-check", "qz3.json"], {"bimodule", "fodc", "hopf"}, 0),
    ("bicovariant", ["bicovariant", "qz3.json", "--relations", "rel_none.json"],
     {"bimodule", "fodc", "hopf", "prolong"}, 0),
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """The fixtures, two calculus files on the ends of the shipped map and an
    empty relations file, side by side."""
    out = tmp_path_factory.mktemp("paths")
    for path in FIXTURES.glob("*.json"):
        (out / path.name).write_text(path.read_text())
    fmap = json.loads((FIXTURES / "y_to_x2.json").read_text())
    (out / "source_universal.json").write_text(
        json.dumps({"algebra": fmap["source"], "kind": "universal"}))
    (out / "target_kahler.json").write_text(
        json.dumps({"algebra": fmap["target"], "kind": "kahler"}))
    (out / "rel_none.json").write_text(json.dumps({"generators": []}))
    return out


@pytest.mark.parametrize("argv,beyond,code", [row[1:] for row in PATHS],
                         ids=[row[0] for row in PATHS])
def test_a_subcommand_runs_only_the_bodies_it_reads(workdir, argv, beyond, code):
    proc = child(CLI, *argv, "--format", "json", cwd=workdir)
    assert proc.returncode == code, proc.stderr
    assert set(json.loads(proc.stderr.splitlines()[-1])) == START | beyond


def test_importing_the_package_runs_no_body():
    proc = child(LOADED + "import omegacalc\n")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stderr.splitlines()[-1]) == []


# ---------------------------------------------------------------------------
# what the benchmark relies on
# ---------------------------------------------------------------------------

CONTRACT = """
import json, pkgutil, sys, types
import omegacalc

names = sorted(m.name for m in pkgutil.iter_modules(omegacalc.__path__))
out = {
    "names": names,
    "registered": [n for n in names
                   if sys.modules.get("omegacalc." + n) is getattr(omegacalc, n, None) is not None],
    "ran": [n for n in names if type(sys.modules.get("omegacalc." + n)) is types.ModuleType],
    "cli": "omegacalc.cli" in sys.modules,
}
exports = json.loads(sys.argv[1])
out["missing"] = [name for home, found in exports.items() for name in found
                  if not hasattr(sys.modules["omegacalc." + home], name)]
star = {}
exec("from omegacalc import *", star)
out["star"] = sorted(k for k in star if k != "__builtins__")
out["star_same"] = all(star[name] is getattr(sys.modules["omegacalc." + home], name)
                       for home, found in exports.items() for name in found)
out["all"] = sorted(omegacalc.__all__)
out["dir"] = sorted(set(dir(omegacalc)) & set(out["all"]))
print(json.dumps(out))
"""


def test_every_module_is_registered_and_every_export_resolves():
    proc = child(CONTRACT, json.dumps(EXPORTS))
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    library = [n for n in out["names"] if n != "cli"]
    assert {"linalg", "io", "scalars"} <= set(library)
    assert out["registered"] == library
    assert out["ran"] == []
    assert not out["cli"]
    assert out["missing"] == []
    names = sorted(name for found in EXPORTS.values() for name in found)
    assert len(names) == 47
    assert out["star"] == out["all"] == out["dir"] == names
    assert out["star_same"]


WRITES = """
import json, sys, types
import omegacalc

kahler, hopf = sys.modules["omegacalc.kahler"], sys.modules["omegacalc.hopf"]
sentinel = object()
kahler.kahler_calculus = sentinel
kahler.marker = 1
del hopf.universal_coactions
print(json.dumps({
    "ran": [type(m) is types.ModuleType for m in (kahler, hopf)],
    "kept": kahler.kahler_calculus is sentinel and omegacalc.kahler_calculus is sentinel,
    "marker": kahler.marker,
    "body": callable(kahler.kahler_relations),
    "deleted": not hasattr(hopf, "universal_coactions") and callable(hopf.bicovariance_check),
}))
"""


def test_a_value_written_before_the_load_is_there_after_it():
    # a write or a deletion runs the body first, so the body cannot undo it
    proc = child(WRITES)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"ran": [True, True], "kept": True, "marker": 1,
                                       "body": True, "deleted": True}


FAILING = """
import json, sys, types
import omegacalc

derham = sys.modules["omegacalc.derham"]
loader = derham.__spec__.loader
real, calls = loader.exec_module, []

def once_broken(module):
    calls.append(1)
    if len(calls) == 1:
        raise RuntimeError("broken body")
    real(module)

loader.exec_module = once_broken
try:
    derham.de_rham
    first = "no error"
except RuntimeError as exc:
    first = str(exc)
unloaded = type(derham) is not types.ModuleType
print(json.dumps({"first": first, "unloaded": unloaded, "then": callable(derham.de_rham),
                  "runs": len(calls)}))
"""


def test_a_body_that_raises_leaves_its_module_unloaded():
    proc = child(FAILING)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"first": "broken body", "unloaded": True, "then": True,
                                       "runs": 2}


# ---------------------------------------------------------------------------
# concurrent first touch
# ---------------------------------------------------------------------------

# The first thread's load of kahler is held inside exec_module until the
# main thread releases it.  The second thread reads the same module
# meanwhile; the package lock is wrapped so that the second thread says
# when it reaches it.  Its read must then still be pending, whatever the
# scheduling: it has either not finished acquiring the lock, which the
# first thread holds, or (when the loader lets it past) it has already
# failed, and the `reached` event is set in its `finally` too, so the main
# thread never waits on a read that went wrong.
CONCURRENT = """
import json, sys, threading
import omegacalc

kahler = sys.modules["omegacalc.kahler"]
loader = kahler.__spec__.loader
real = loader.exec_module
started, release, reached = threading.Event(), threading.Event(), threading.Event()

def held(module):
    started.set()
    release.wait()
    real(module)

loader.exec_module = held


class Watched:
    def __init__(self, lock):
        self.lock = lock

    def __enter__(self):
        if threading.current_thread().name == "second":
            reached.set()
        return self.lock.__enter__()

    def __exit__(self, *exc):
        return self.lock.__exit__(*exc)


omegacalc._LOCK = Watched(omegacalc._LOCK)
results = {}

def read():
    name = threading.current_thread().name
    try:
        results[name] = kahler.kahler_calculus
    except BaseException as exc:
        results[name] = exc
    finally:
        if name == "second":
            reached.set()

first = threading.Thread(target=read, name="first")
first.start()
assert started.wait(60)
second = threading.Thread(target=read, name="second")
second.start()
assert reached.wait(60)
pending = "second" not in results
release.set()
for thread in (first, second):
    thread.join(60)
    assert not thread.is_alive()
print(json.dumps({"pending": pending, "errors": [repr(r) for r in results.values()
                                                 if isinstance(r, BaseException)],
                  "same": results["first"] is results["second"] is kahler.kahler_calculus}))
"""


def test_a_second_thread_waits_for_a_load_in_progress():
    proc = child(CONCURRENT)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"pending": True, "errors": [], "same": True}


# Eight threads behind a barrier read names of five modules, whose bodies
# load each other, in a fresh package each round, with thread switches as
# often as the interpreter allows; each thread starts at another module.
STRESS = """
import json, sys, threading

NAMES = [("kahler", "kahler_calculus"), ("derham", "de_rham"),
         ("prolong", "maximal_prolongation"), ("scalars", "calc_pullback"),
         ("hopf", "Bimonoid")]
errors, distinct = [], set()
interval = sys.getswitchinterval()
sys.setswitchinterval(1e-6)
try:
    for _ in range(10):
        for name in [n for n in sys.modules if n.split(".")[0] == "omegacalc"]:
            del sys.modules[name]
        import omegacalc

        barrier = threading.Barrier(8)
        seen = []

        def read(start):
            barrier.wait(60)
            try:
                got = {m: getattr(sys.modules["omegacalc." + m], name)
                       for m, name in NAMES[start:] + NAMES[:start]}
                seen.append(tuple(id(got[m]) for m, _name in NAMES))
            except Exception as exc:
                errors.append(repr(exc))

        threads = [threading.Thread(target=read, args=(i % len(NAMES),)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
            assert not thread.is_alive()
        distinct.add(len(set(seen)))
finally:
    sys.setswitchinterval(interval)
print(json.dumps({"errors": errors, "distinct": sorted(distinct)}))
"""


def test_threads_touching_unloaded_modules_at_once_see_them_whole():
    proc = child(STRESS)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"errors": [], "distinct": [1]}
