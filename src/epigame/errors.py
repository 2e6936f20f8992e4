"""Exception hierarchy shared by the whole engine."""


class EngineError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(EngineError):
    """Syntactic problem in an input file."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


class ValidationError(EngineError):
    """Structurally well-formed input that violates a semantic invariant."""


class UnsupportedNotion(EngineError):
    """Optimality notion not evaluable for this game (independent beliefs, n > 2)."""


class EmptyOpponentSet(EngineError):
    """LP operation called with no joint opponent strategies."""


class EmptySupport(EngineError):
    """Dominance LP called with an empty dominator support."""


class NonContractingStep(EngineError):
    """Operator produced a stage that is not included in its predecessor."""

    def __init__(self, stage: int, before, after):
        self.stage = stage
        self.before = before
        self.after = after
        super().__init__(f"operator expanded the restriction at stage {stage}")


class BudgetExceeded(EngineError):
    """Exhaustive enumeration would exceed the configured budget."""


class PremiseViolated(EngineError):
    """A checked lemma premise failed; carries the witnessing restriction."""

    def __init__(self, premise: str, witness):
        self.premise = premise
        self.witness = witness
        super().__init__(f"premise violated: {premise}")


class InvalidModel(EngineError):
    """Epistemic operation on a model whose correspondences are not valid."""


class EmptyStateSpace(EngineError):
    """Standard model requested for a restriction with an empty component."""


class HypothesisNotMet(EngineError):
    """A verification hypothesis failed; lists the failing clauses."""

    def __init__(self, clauses: list[str]):
        self.clauses = list(clauses)
        super().__init__("; ".join(self.clauses))


class NonMonotonicProfile(EngineError):
    """Profile contains a notion outside the monotonic set where one is required."""


class InvariantViolated(EngineError):
    """An internal invariant of the engine failed: a bug, not bad input."""
