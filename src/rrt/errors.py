"""Exception types shared across the toolkit.

The CLI maps these onto exit codes: ConfigError -> 2, DataFormatError and
IntegrityError -> 3, TrainingDiverged -> 4.

Unreadable bytes in a persisted artifact raise DataFormatError, carrying the
offset of the first failing byte in the binary formats (``rrt.wire``); so do
records and neighbour lists with unusable values.  A file that parses but
disagrees with its own config, such as a checkpoint whose tensor table does
not match the config's layout, raises IntegrityError.
"""

import math


class ConfigError(ValueError):
    """Invalid or inconsistent configuration (bad flag, unknown key, ...)."""


class DataFormatError(ValueError):
    """Malformed bytes in a persisted artifact; carries the failing offset."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class IntegrityError(ValueError):
    """Artifact parsed but is internally inconsistent (shape/config mismatch)."""


class TrainingDiverged(RuntimeError):
    """Non-finite loss or gradient norm during training; carries diagnostics."""

    def __init__(self, step: int, lr: float, loss: float, grad_norm: float):
        what = "gradient norm" if math.isfinite(loss) else "loss"
        super().__init__(
            f"non-finite {what} at step {step} (lr={lr}, loss={loss}, gradient norm={grad_norm})"
        )
        self.step = step
        self.loss = loss
        self.lr = lr
        self.grad_norm = grad_norm
