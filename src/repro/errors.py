"""Exception hierarchy shared by every subsystem of the reproduction.

Keeping all exceptions in one module lets callers catch coarse categories
(``ReproError``) or precise conditions (``DeviceOutOfMemoryError``) without
importing implementation modules.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this package."""


class DeviceError(ReproError):
    """Base class for errors raised by the simulated device."""


class DeviceOutOfMemoryError(DeviceError):
    """Raised when an allocation exceeds the simulated device memory capacity.

    Mirrors a CUDA ``cudaErrorMemoryAllocation``; the comparison engines use
    it to reproduce the paper's OOM entries in Tables 2 and 3.
    """

    def __init__(self, requested_bytes: int, in_use_bytes: int, capacity_bytes: int):
        self.requested_bytes = int(requested_bytes)
        self.in_use_bytes = int(in_use_bytes)
        self.capacity_bytes = int(capacity_bytes)
        super().__init__(
            f"device out of memory: requested {requested_bytes} B with "
            f"{in_use_bytes} B in use of {capacity_bytes} B capacity"
        )


class DeviceBufferError(DeviceError):
    """Raised on invalid buffer operations (double free, use after free)."""


#: Deprecated alias kept for backward compatibility; the trailing-underscore
#: name used to leak into user-facing tracebacks.  New code should catch
#: :class:`DeviceBufferError`.
BufferError_ = DeviceBufferError


class TransientDeviceError(DeviceError):
    """A retryable kernel-launch failure (the simulated analogue of a CUDA
    ``cudaErrorLaunchFailure`` that a driver-level retry would clear).

    Raised only by an installed :class:`~repro.device.faults.FaultPlan`; the
    evaluator retries the failed operator with exponential backoff.
    """

    def __init__(self, message: str, *, kernel: str = ""):
        self.kernel = kernel
        super().__init__(message)


class ExchangeError(DeviceError):
    """A device<->device interconnect transfer failed mid-exchange.

    The fixpoint driver treats this as the crash of the *receiving* shard:
    with checkpointing enabled it rebuilds that shard's device and restores
    every partition from the last iteration-boundary checkpoint.  ``device``
    is the peer whose receive failed (``None`` for a broadcast source fault).
    """

    def __init__(self, message: str, *, device=None):
        self.device = device
        super().__init__(message)


class CheckpointError(ReproError):
    """Raised when a checkpoint cannot be saved, loaded, or applied."""


class BackendError(ReproError):
    """Base class for array-backend errors."""


class BackendContractError(BackendError):
    """Raised by the guard backend when a primitive outside the
    :data:`~repro.backend.base.ARRAY_BACKEND_CONTRACT` is requested."""


class BackendUnavailableError(BackendError):
    """Raised when a requested backend (e.g. ``cupy``) is not importable."""


class RelationError(ReproError):
    """Base class for errors in the relational substrate."""


class SchemaError(RelationError):
    """Raised when tuples do not match a relation's declared schema."""


class HisaStateError(RelationError):
    """Raised when a HISA is used before its index layers are built."""


class DatalogError(ReproError):
    """Base class for Datalog front-end errors."""


class ParseError(DatalogError):
    """Raised on malformed Datalog source text."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        location = ""
        if line is not None:
            location = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(message + location)


class SafetyError(DatalogError):
    """Raised when a rule is unsafe (head variable not bound in a positive body atom)."""


class PlanningError(DatalogError):
    """Raised when a rule cannot be compiled into a relational-algebra plan."""


class EvaluationError(DatalogError):
    """Raised when fixpoint evaluation fails for a reason other than OOM."""


class FixpointInterrupted(EvaluationError):
    """Fixpoint evaluation stopped after exhausting its fault-recovery budget.

    ``checkpoint`` is the last :class:`~repro.relational.checkpoint.
    EvaluationCheckpoint` taken before the failure (``None`` when
    checkpointing was disabled); pass it to ``GPULogEngine.resume`` to
    continue from the last iteration boundary instead of restarting.
    """

    def __init__(self, message: str, *, checkpoint=None, cause: Exception | None = None):
        self.checkpoint = checkpoint
        self.cause = cause
        super().__init__(message)


class EpochAborted(EvaluationError):
    """A serving epoch exhausted its fault-recovery budget and was rolled back.

    The engine restored every relation (and all snapshot versions) to the
    last committed epoch before raising, so the database is exactly as if
    the epoch had never started; only the aborted epoch's tickets see this
    error.  ``cause`` is the final fault that exhausted the ladder and
    ``attempts`` how many whole-epoch replays were tried.
    """

    def __init__(self, message: str, *, epoch: int = 0, attempts: int = 0,
                 cause: "Exception | None" = None):
        self.epoch = int(epoch)
        self.attempts = int(attempts)
        self.cause = cause
        super().__init__(message)


class ServingError(ReproError):
    """Base class for serving-engine admission/lifecycle errors."""


class AdmissionRejected(ServingError):
    """A mutation was refused by the serving engine's admission controller.

    Raised to the submitter under the ``reject`` policy (queue full) and the
    ``block`` policy (deadline expired), and set on a queued ticket's future
    under ``shed-oldest`` (the batch was dropped to admit newer work).
    ``policy`` names the admission policy that refused the batch.
    """

    def __init__(self, message: str, *, policy: str = "", pending: int = 0):
        self.policy = policy
        self.pending = int(pending)
        super().__init__(message)


class EngineClosed(ServingError, RuntimeError):
    """The serving engine is closed (or failed to close cleanly).

    Subclasses :class:`RuntimeError` for backward compatibility with callers
    that caught ``RuntimeError`` around ``submit`` on a closed engine.
    """


class WalError(ServingError):
    """Raised when a write-ahead-log record cannot be appended or replayed."""


class DatasetError(ReproError):
    """Raised for unknown dataset names or invalid generator parameters."""
