"""Domain errors. Exit-code mapping: all of these are "domain errors" (exit 2)."""


class LogSurfError(Exception):
    """Base class for every error raised by this package."""


class DuplicateId(LogSurfError):
    pass


class DanglingEdge(LogSurfError):
    pass


class SelfLoop(LogSurfError):
    pass


class CoeffOutOfRange(LogSurfError):
    pass


class UnknownVertex(LogSurfError):
    pass


class InvalidSite(LogSurfError):
    pass


class NotNegativeDefinite(LogSurfError):
    pass


class NotAChain(LogSurfError):
    pass


class NotAdmissible(LogSurfError):
    pass


class NotPeelable(LogSurfError):
    pass


class NotMinimal(LogSurfError):
    pass


class NotApplicable(LogSurfError):
    pass


class NotLogTerminal(LogSurfError):
    pass


class TooLarge(LogSurfError):
    pass


class ParseError(LogSurfError):
    pass


class ValidationError(LogSurfError):
    pass
