"""gcdcensus: exact-gcd condition systems on integer tuples.

Decide whether a system of conditions of the form
gcd{n_i : i in T} == f(T) has any solution, construct the canonical
witness, count solutions in a box exactly, and evaluate the asymptotic
density constant as an Euler product, an exact head over the small primes
times a prime-zeta tail, with an interval certified to hold it.

Importing the package runs none of its modules.  Each is registered in
sys.modules through importlib.util.LazyLoader and runs on first attribute
access, so a command runs only the modules it uses; the public names
below resolve on first use through the module's __getattr__ (PEP 562).
"""

import importlib.util
import sys

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "admissibility": "AdmissibilityReport brute_force_find is_admissible witness",
    "counting": "CountReport convergence_table count empirical_report nymann_count",
    "density": "DensityResult FactorPolynomial constant generic_factor_polynomial local_factor"
    " rwise_constant toth_pairwise_constant",
    "errors": "CutoffTooSmallError InadmissibleError ResourceLimitError",
    "model": "Condition ConditionSet condition_set delta enumerate_independent_subsets find_cover"
    " is_cover is_independent isolated_indices neighbors",
    "padic": "LocalView local_view relevant_primes valuations z_set",
    "primes": "",
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_OWNER)


def _register(name: str) -> None:
    """Put gcdcensus.<module> in sys.modules and here, its code not yet run.

    The cli is left out: `python -m gcdcensus.cli` warns when it finds its
    module already in sys.modules.
    """
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = globals()[name] = module
    spec.loader.exec_module(module)


for _name in _EXPORTS:
    _register(_name)
del _name


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[_OWNER[name]], name)  # later lookups skip this
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
