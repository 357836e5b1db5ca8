"""Exception hierarchy shared by all csskit layers.

Every exception carries a stable ``code`` string; the wire protocol and the
CLI report errors by that code, so renaming a class must not change it.
"""

from __future__ import annotations


class CssError(Exception):
    """Base class for all csskit domain errors."""

    code = "Error"

    def __init__(self, message: str = ""):
        super().__init__(message or self.code)
        self.message = message or self.code


# --- model / lookup ---------------------------------------------------------

class NotFoundError(CssError):
    code = "NotFound"


class ModelInvalidError(CssError):
    """Raised when an operation requires a clean validation report."""

    code = "ModelInvalid"


# --- expression language ----------------------------------------------------

class ExpressionSyntaxError(CssError):
    code = "SyntaxError"

    def __init__(self, message: str, position: int, expected: tuple[str, ...] = ()):
        detail = f"at position {position}: {message}"
        if expected:
            detail += " (expected " + ", ".join(expected) + ")"
        super().__init__(detail)
        self.position = position
        self.expected = expected


class UnknownClassError(CssError):
    code = "UnknownClass"


class UnknownPropertyError(CssError):
    code = "UnknownProperty"


class TypeMismatchError(CssError):
    code = "TypeMismatch"


class UnitMismatchError(CssError):
    code = "UnitMismatch"


class UnknownUnitError(UnitMismatchError):
    code = "UnknownUnit"


# --- skill runtime ----------------------------------------------------------

class DuplicateSkillIdError(CssError):
    code = "DuplicateSkillId"


class DescriptorInvalidError(CssError):
    code = "DescriptorInvalid"


class UnknownSkillError(CssError):
    code = "UnknownSkill"


class InvalidTransitionError(CssError):
    code = "InvalidTransition"

    def __init__(self, state: str, command: str):
        super().__init__(f"command {command} is not valid in state {state}")
        self.state = state
        self.command = command


class PreconditionViolatedError(CssError):
    code = "PreconditionViolated"


class WrongStateError(CssError):
    code = "WrongState"


class UnknownParameterError(CssError):
    code = "UnknownParameter"


class NotWritableError(CssError):
    code = "NotWritable"


class UnsupportedCheckError(CssError):
    code = "UnsupportedCheck"


# --- wire protocol ----------------------------------------------------------

class ParseError(CssError):
    """A line or document that is not the JSON expected; ``offset`` is the
    fault's UTF-8 byte offset where it is known, else None."""

    code = "ParseError"

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message if offset is None else f"{message} (byte offset {offset})")
        self.offset = offset


class BindFailureError(CssError):
    code = "BindFailure"


class TimeoutError(CssError):  # noqa: A001 - deliberate, scoped to protocol calls
    code = "Timeout"


class RemoteError(CssError):
    """Server-side error relayed to a protocol client, with the server's code."""

    def __init__(self, remote_code: str, message: str):
        super().__init__(f"{remote_code}: {message}")
        self.code = self.remote_code = remote_code


class ConnectionLostError(CssError):
    code = "ConnectionLost"


class BadResponseError(CssError):
    """A server's answer lacks a field the client reads."""

    code = "BadResponse"


# --- service market ---------------------------------------------------------

class UnknownCapKeyError(CssError):
    code = "UnknownCapKey"


class NoFeasibleCombinationError(CssError):
    code = "NoFeasibleCombination"


class OfferExpiredError(CssError):
    code = "OfferExpired"

    def __init__(self, offer_id: str, message: str = ""):
        super().__init__(message or f"offer {offer_id} has expired")
        self.offer_id = offer_id


# --- orchestration ----------------------------------------------------------

class NoMatchForStepError(CssError):
    code = "NoMatchForStep"

    def __init__(self, step_id: str, message: str = ""):
        super().__init__(message or f"no provider qualifies for step {step_id}")
        self.step_id = step_id


class UnboundRequiredParameterError(CssError):
    code = "UnboundRequiredParameter"

    def __init__(self, param_id: str):
        super().__init__(f"input parameter {param_id} has no bound value and no default")
        self.param_id = param_id


class StepFailedNoAlternativeError(CssError):
    """Terminal step failure; carries the partial execution trace."""

    code = "StepFailedNoAlternative"

    def __init__(self, step_id: str, trace=None):
        super().__init__(f"step {step_id} failed on every ranked candidate")
        self.step_id = step_id
        self.trace = trace


# --- documents --------------------------------------------------------------

class DocumentInvalidError(CssError):
    code = "DocumentInvalid"
