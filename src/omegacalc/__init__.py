"""Exact computation of differential calculi over finite-dimensional algebras.

Loading rule: `import omegacalc` registers every library module in
`sys.modules` and as an attribute of the package, and runs none of their
bodies.  A module's body runs on the first read, write or deletion of an
attribute it does not have yet, once, under one package-wide lock: a
thread that touches the module meanwhile waits, then sees it whole, and a
body that raises leaves its module unloaded and propagates the error.  The
exports resolve on first read (PEP 562) to their defining module's objects.
So a process compiles only the modules its path reads.  `cli` is not
registered: `python -m omegacalc.cli` runs it as `__main__`.
"""

import importlib.util
import sys
import threading
import types

__version__ = "0.1.0"

_EXPORTS = {
    "algebra": ("Algebra", "AlgMap", "AxiomError", "build_group_algebra",
                "build_matrix_algebra", "build_truncated_poly"),
    "bimodule": ("BimodMap", "Bimodule", "tensor_over_algebra"),
    "derham": ("CochainComplex", "CohomologyReport", "cohomology", "de_rham",
               "de_rham_comparison"),
    "fodc": ("FirstOrderCalculus", "PreconditionError", "UniversalCalculus", "check_fodc",
             "enumerate_action_closed_subspaces", "induced_map", "quotient_calculus",
             "sub_calculus_correspondence", "universal_calculus", "zero_calculus"),
    "hopf": ("Bimonoid", "bicovariance_check", "group_like_bimonoid", "universal_coactions"),
    "kahler": ("centrality_check", "kahler_calculus"),
    "linalg": ("GF", "QQ", "EngineError", "Field", "LinAlgError", "Mat", "image_basis",
               "kernel_basis", "rank", "solve"),
    "prolong": ("GradedCalculus", "maximal_prolongation", "trivial_extension",
                "universal_prolongation"),
    "scalars": ("calc_pullback", "calc_pushforward", "verify_poset_adjunction"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)

_LOCK = threading.RLock()
_RUNNING = set()


class _Unloaded(types.ModuleType):
    """A registered library module whose body has not run yet."""

    def __getattr__(self, name):
        if not _load(self):
            raise AttributeError(
                f"partially initialized module {self.__name__!r} has no attribute {name!r}")
        return getattr(self, name)

    def __setattr__(self, name, value):
        _load(self)
        types.ModuleType.__setattr__(self, name, value)

    def __delattr__(self, name):
        _load(self)
        types.ModuleType.__delattr__(self, name)


def _load(module) -> bool:
    """Run module's body if it has not run, under the lock; False only
    while that body is running in this thread (an import cycle).  The class
    is switched after the body, not before as `importlib.util.LazyLoader`
    does, so another thread never reads a half-run module as a loaded one."""
    with _LOCK:
        if type(module) is _Unloaded and module.__name__ not in _RUNNING:
            _RUNNING.add(module.__name__)
            try:
                module.__spec__.loader.exec_module(module)
            finally:
                _RUNNING.discard(module.__name__)
            types.ModuleType.__setattr__(module, "__class__", types.ModuleType)
        return type(module) is not _Unloaded


for _name in (*_EXPORTS, "io"):
    _module = importlib.util.module_from_spec(importlib.util.find_spec(f"{__name__}.{_name}"))
    _module.__class__ = _Unloaded
    sys.modules[_module.__name__] = globals()[_name] = _module
del _name, _module


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__():
    return sorted({*globals(), *__all__})
