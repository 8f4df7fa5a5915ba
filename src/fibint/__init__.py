"""fibint: numerical verification of Fibonacci-Lucas integral identities.

`import fibint` loads no submodule and holds only __version__.  The
public API lives in the submodules (exact_seq, specfun, registry, quad,
verifier and cli) and is imported from them, so that
`fibint list` never loads the quadrature or the verifier.
"""

__version__ = "0.1.0"
