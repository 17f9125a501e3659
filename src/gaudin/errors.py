"""Exception types shared across the engine.

Every failure mode that a caller can reasonably branch on gets its own
class; all of them derive from :class:`EngineError`.
"""


class EngineError(Exception):
    pass


class DegenerateInput(EngineError):
    """An argument is zero / empty where a nonzero value is required."""


class NonRationalAntiderivative(EngineError):
    """The rational function has a logarithmic part; no rational primitive."""


class DegenerateSwap(EngineError):
    """First-order exchange attempted with equal coefficients."""


class InvalidSwap(EngineError):
    """Coordinate swap requested at a position with equal parities."""


class InvalidPartition(EngineError):
    """Partition violates the (M|N)-hook condition."""


class UnsupportedWeight(EngineError):
    """Operation defined only for polynomial weights."""


class InvalidInput(EngineError):
    """Malformed or inconsistent input data."""


class InvalidPoints(InvalidInput):
    """Evaluation points must be pairwise distinct."""


class InternalInconsistency(EngineError):
    """A division or identity guaranteed by theory failed; signals a bug."""


class NotGeneric(InvalidInput):
    """Tuple fails the genericity conditions required by the operation."""


class CriterionFailed(EngineError):
    """No polynomial solution of the reproduction relation exists."""


class DegenerateReproduction(EngineError):
    """Fermionic step undefined: the logarithmic-derivative argument is constant."""


class NotAdmissible(EngineError):
    """Eigenvalue requested at a site where the tuple has a forbidden zero."""

    def __init__(self, site, message=None):
        self.site = site
        super().__init__(message or f"tuple is not admissible at site {site}")


class AtypicalUnsupported(EngineError):
    """Kernel-space construction requires a typical weight sequence."""


class NonRationalKernel(EngineError):
    """Operator kernel is not spanned by rational functions."""


class InvalidConfiguration(InvalidInput):
    """Bethe-root configuration violates the non-coincidence conditions."""


class InvalidFlag(EngineError):
    """Flag basis is linearly dependent."""


class TheoremViolation(EngineError):
    """A verified theorem failed on concrete data; signals a bug."""


class UnsupportedFactorization(EngineError):
    """Polynomial has an irreducible factor of degree >= 3."""


class TooLarge(EngineError):
    """Problem size exceeds the guard for exact summation."""


class UnsupportedIrrationalRamification(EngineError):
    """Ramification data escaped the exactly-representable places."""


class InconclusiveGeneric(EngineError):
    """A genericity-dependent comparison met a zero vector."""
