"""Exception types for parameter-domain and consistency failures."""


class DomainError(ValueError):
    """Invalid model parameters, regimes or inputs; base class of the two below."""


class ExceptionalPoint(DomainError):
    """eta = 1: the eigenvalues merge and the eigenvector basis degenerates.

    The merged squared mass is attached when known, since eigenvalue-only
    queries remain well defined at this point while eigenvectors do not.
    """

    def __init__(self, message: str, m_sq: float | None = None):
        super().__init__(message)
        self.m_sq = m_sq


class BrokenPTPhase(DomainError):
    """eta > 1: the squared-mass eigenvalues form a complex-conjugate pair."""


class NonRealTrace(RuntimeError):
    """A probability trace has a non-negligible imaginary part.

    This signals an implementation bug in the operator construction, not a
    property of the model, and is therefore not a DomainError.
    """
