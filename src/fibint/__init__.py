"""fibint: numerical verification of Fibonacci-Lucas integral identities."""

from .exact_seq import GoldenPair, fib, golden_powers, lucas
from .fib_complex import fib_fn, fib_fn_deriv, lucas_fn, lucas_fn_deriv
from .quad import Integrand, QuadResult, integrate_finite, integrate_half_line, integrate_tan_halfpi
from .registry import BoundInstance, IdentityCase, ParamSpec, catalog, default_grid, instantiate
from .specfun import cl2, constants, li2_complex, li2_real
from .verifier import Report, VerificationResult, lemma2_check, run, verify_instance

__version__ = "0.1.0"

__all__ = [
    "fib",
    "lucas",
    "golden_powers",
    "GoldenPair",
    "fib_fn",
    "lucas_fn",
    "fib_fn_deriv",
    "lucas_fn_deriv",
    "li2_real",
    "li2_complex",
    "cl2",
    "constants",
    "Integrand",
    "QuadResult",
    "integrate_finite",
    "integrate_half_line",
    "integrate_tan_halfpi",
    "ParamSpec",
    "IdentityCase",
    "BoundInstance",
    "catalog",
    "instantiate",
    "default_grid",
    "run",
    "verify_instance",
    "lemma2_check",
    "Report",
    "VerificationResult",
    "__version__",
]
