"""Exception hierarchy shared by all qsp modules.

How the CLI reports each class:

* InputError, and an --out file that cannot be written: one
  ``input error: ...`` line on stderr, exit 2;
* ResourceError, an OverflowError of double precision and a MemoryError:
  one ``resource error: ...`` line on stderr, exit 3;
* every other QspError (NumericalDegeneracyError, ConsistencyError,
  NoKMatrixError, AmbiguityError, ResonanceError, AccuracyError,
  UnsupportedOracleError): the JSON report
  ``{"pass": false, "error": {"type": <class name>, "message": ...}}`` on
  stdout (or the --out file), nothing on stderr, exit 1.
"""


class QspError(Exception):
    """Base class for all qsp errors."""


class InputError(QspError):
    """Malformed or out-of-contract input (bad type/rank, invalid parameters)."""


class ResourceError(QspError):
    """A configured resource cap was exceeded (e.g. module dimension)."""


class NumericalDegeneracyError(QspError):
    """A rank / threshold decision was too close to call; carries diagnostics."""

    def __init__(self, msg, diagnostics=None):
        super().__init__(msg)
        self.diagnostics = diagnostics or {}


class ConsistencyError(QspError):
    """An internal cross-check failed (e.g. a built R-matrix misses its
    extremal normalization or does not intertwine the coproducts)."""


class NoKMatrixError(QspError):
    """The K-matrix constraint system has no nonzero solution."""


class AmbiguityError(QspError):
    """The K-matrix constraint system has a solution space of dimension > 1."""

    def __init__(self, msg, basis=None):
        super().__init__(msg)
        self.basis = basis


class ResonanceError(QspError):
    """Eigenvalues of a residue matrix differ by a nonzero integer."""


class AccuracyError(QspError):
    """A numerical result failed its a-posteriori accuracy control."""


class UnsupportedOracleError(QspError):
    """An independent oracle was asked for a case outside its guarantee."""
