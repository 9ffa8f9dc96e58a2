"""Exception types shared across the toolkit."""


class DdmnetError(Exception):
    """Base class for all toolkit errors."""


class GraphValidationError(DdmnetError):
    """Raised for malformed graph input (self-loop, bad weight, bad index, duplicate edge)."""


class NotNormalError(DdmnetError):
    """Raised when an operation requires a normal Laplacian and the graph fails the test."""


class NotStronglyConnectedError(DdmnetError):
    """Raised when an operation requires strong connectivity."""


class DisconnectedGraphError(DdmnetError):
    """Raised when an undirected graph (or mirror) is not connected."""


class PathCapExceededError(DdmnetError):
    """Raised when path enumeration would exceed the configured node or path caps."""


class OverlapMatrixSingularError(DdmnetError):
    """Raised when the path-overlap matrix is numerically singular."""


class UnstableStepError(DdmnetError):
    """Raised when an integration step is too large for the stability guard."""


class StepCapError(DdmnetError, ValueError):
    """Raised when a simulation asks for more steps per trajectory than the cap."""


class GraphFormatError(DdmnetError):
    """Raised when a graph file does not parse against the JSON schema."""
