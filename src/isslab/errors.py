"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ValidationError(ValueError):
    """A constructed object violates one of its structural invariants."""


class ScenarioError(ValueError):
    """A scenario file failed to parse or validate.

    Carries the 1-based line and column of the offending token when the
    failure is syntactic, and the offending key when it is semantic.
    """

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None, key: str | None = None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column
        self.key = key
