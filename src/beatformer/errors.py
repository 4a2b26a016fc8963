"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Tensor shapes are incompatible for the requested operation."""


class ConfigError(ValueError):
    """A configuration value (or several) violates its constraints."""

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class DataError(ValueError):
    """A data file or dataset violates the expected format."""


class CheckpointError(ValueError):
    """A checkpoint file is corrupt or malformed."""

    def __init__(self, message, offset=None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)


class OutputError(RuntimeError):
    """An output file or directory could not be written; the message names its path."""

    def __init__(self, what: str, path: str, err: OSError):
        super().__init__(f"cannot {what} {path}: {err.strerror or err}")


class NumericalError(RuntimeError):
    """A non-finite value appeared where finite math was required."""
