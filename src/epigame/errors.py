"""The engine's exceptions. Bad input is a ParseError or a ValidationError."""


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
    """Input that parses but violates a semantic invariant, a hypothesis or a budget."""


class HypothesisNotMet(ValidationError):
    """A verification hypothesis failed; lists the failing clauses."""

    def __init__(self, clauses: list[str]):
        self.clauses = list(clauses)
        super().__init__("; ".join(self.clauses))


class NonContractingStep(EngineError):
    """Operator produced a stage that is not included in its predecessor."""

    def __init__(self, stage: int, before, after):
        self.stage = stage
        self.before = before
        self.after = after
        super().__init__(f"operator expanded the restriction at stage {stage}")


class InvariantViolated(EngineError):
    """An internal invariant of the engine failed: a bug, not bad input."""
