"""Exception types shared across the package."""


class NumericalError(RuntimeError):
    """A computation produced non-finite values or failed to converge."""


class LowerSolveError(NumericalError):
    """Lower-level solve failed; carries the iterate index where it happened."""

    def __init__(self, message, iterate_index=None):
        super().__init__(message)
        self.iterate_index = iterate_index


class EstimatorError(NumericalError):
    """Hypergradient estimation failed; carries the offending sample index."""

    def __init__(self, message, sample_index=None):
        super().__init__(message)
        self.sample_index = sample_index


class ConfigError(ValueError):
    """Invalid configuration; carries the full list of validation messages.

    A config dataclass begins each message with the name of the field at fault.
    """

    def __init__(self, messages):
        if isinstance(messages, str):
            messages = [messages]
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))
