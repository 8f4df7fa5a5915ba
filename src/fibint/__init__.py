"""fibint: numerical verification of Fibonacci-Lucas integral identities.

The public names are resolved on first access (PEP 562), so `import
fibint` loads no submodule, and `fibint list` never loads the quadrature
or the verifier.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOME = {
    "fib": "exact_seq",
    "lucas": "exact_seq",
    "golden_powers": "exact_seq",
    "GoldenPair": "exact_seq",
    "fib_fn": "fib_complex",
    "lucas_fn": "fib_complex",
    "fib_fn_deriv": "fib_complex",
    "lucas_fn_deriv": "fib_complex",
    "li2_real": "specfun",
    "cl2": "specfun",
    "constants": "specfun",
    "Integrand": "registry",
    "QuadResult": "quad",
    "integrate_finite": "quad",
    "integrate_half_line": "quad",
    "integrate_tan_halfpi": "quad",
    "ParamSpec": "registry",
    "IdentityCase": "registry",
    "BoundInstance": "registry",
    "catalog": "registry",
    "instantiate": "registry",
    "default_grid": "registry",
    "run": "verifier",
    "verify_instance": "verifier",
    "lemma2_check": "fib_complex",
    "Report": "verifier",
    "VerificationResult": "verifier",
}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
