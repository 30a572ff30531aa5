"""Exception hierarchy shared by all cubegroups modules."""


class CubeGroupError(Exception):
    """Base class for all library errors."""


class UnknownLabelError(CubeGroupError):
    def __init__(self, label):
        super().__init__(f"unknown generator label: {label!r}")
        self.label = label


class DuplicateLabelError(CubeGroupError):
    def __init__(self, label):
        super().__init__(f"duplicate generator label: {label!r}")
        self.label = label


class DistinctLabelsRequiredError(CubeGroupError):
    def __init__(self, label):
        super().__init__(f"trajectory seed requires two distinct labels, got {label!r} twice")
        self.label = label


class NotFourPeriodicError(CubeGroupError):
    def __init__(self, seed):
        super().__init__(f"trajectory seeded at {seed} is not 4-periodic; holonomy undefined")
        self.seed = seed


class NotAdmissibleError(CubeGroupError):
    def __init__(self, report):
        kinds = sorted({f.kind for f in report.failures})
        super().__init__(f"decorated graph is not admissible (failure kinds: {', '.join(kinds)})")
        self.report = report


class LabelSetMismatchError(CubeGroupError):
    def __init__(self, left, right):
        super().__init__(f"label sets differ: {left} vs {right}")


class RankTooSmallError(CubeGroupError):
    def __init__(self, rank, needed):
        super().__init__(f"rank {rank} too small; need at least {needed}")


class RankCapExceededError(CubeGroupError):
    def __init__(self, rank, cap):
        super().__init__(f"rank {rank} exceeds cap {cap}")


class NotInvolutionError(CubeGroupError):
    def __init__(self, label):
        super().__init__(f"generator {label!r} is not a nontrivial involution")
        self.label = label


class NotACubeGroupError(CubeGroupError):
    def __init__(self, reason):
        super().__init__(f"not a cube group: {reason}")
        self.reason = reason


class NotStandardError(CubeGroupError):
    def __init__(self, subset, evidence):
        super().__init__(f"subgroup generated by {sorted(subset)} is not standard: {evidence}")
        self.subset = frozenset(subset)
        self.evidence = evidence


class NotADecompositionError(CubeGroupError):
    def __init__(self, ordering, collision):
        super().__init__(
            f"ordering {list(ordering)} is not a product decomposition; "
            f"bit vectors {collision[0]} and {collision[1]} give the same element"
        )
        self.ordering = tuple(ordering)
        self.collision = collision


class InternalConsistencyError(CubeGroupError):
    """A structural guarantee failed; indicates a bug, never expected for valid inputs."""


class ParseError(CubeGroupError):
    def __init__(self, message, line=None):
        loc = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{loc}")
        self.line = line


class SelfCycleError(ParseError):
    pass


class NonDisjointCyclesError(ParseError):
    pass
