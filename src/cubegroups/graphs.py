"""Decorated graphs: involution data, trajectories, admissibility, edge partitions, relators.

A decorated graph assigns to each generator label s an involution j_s of the
label set with j_s(s) = s.  Seeding the recurrence s3 = j_{s2}(s1),
s4 = j_{s3}(s2), ... with two distinct labels produces a trajectory; the graph
is admissible when every trajectory closes up with period 4 and the composite
of the four involutions along one period is the identity permutation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter

from .errors import (
    DistinctLabelsRequiredError,
    DuplicateLabelError,
    InternalConsistencyError,
    NotAdmissibleError,
    NotFourPeriodicError,
    RankCapExceededError,
    RankTooSmallError,
    UnknownLabelError,
)

Permutation = dict[str, str]

# Characters the text formats give a meaning: comments, cycles, the
# "<label>:" prefix, and DOT string quoting and escapes.
_RESERVED_LABEL_CHARS = '#():"\\'


def validate_label(s: str) -> None:
    """Raise ValueError unless `s` can be a generator label.

    A label is a nonempty `str` and holds no whitespace and none of
    ``#():"\\``, so every accepted label round-trips through the text formats
    and is safe inside a quoted DOT string.
    """
    if (not isinstance(s, str) or not s
            or any(ch.isspace() or ch in _RESERVED_LABEL_CHARS for ch in s)):
        raise ValueError(
            f"bad label {s!r}: must be a nonempty str, without whitespace or any of "
            f"{_RESERVED_LABEL_CHARS}"
        )


def validate_labels(labels) -> None:
    """Raise `validate_label`'s ValueError or DuplicateLabelError for the
    first label, in order, that is bad or repeats an earlier one."""
    seen = set()
    for s in labels:
        validate_label(s)
        if s in seen:
            raise DuplicateLabelError(s)
        seen.add(s)


def check_rank(rank, cap: int) -> None:
    """Bound a rank before any work: TypeError unless it is an int (a bool is
    not), RankTooSmallError below 1 and RankCapExceededError above `cap`."""
    if isinstance(rank, bool) or not isinstance(rank, int):
        raise TypeError(f"rank must be an int, not {type(rank).__name__}")
    if rank < 1:
        raise RankTooSmallError(rank, 1)
    if rank > cap:
        raise RankCapExceededError(rank, cap)


def _check_label(labels, s):
    if s not in labels:
        raise UnknownLabelError(s)


@dataclass(frozen=True)
class DecoratedGraph:
    """An ordered label set plus one label-fixing involution per label.

    ``involutions[s]`` is a total self-map of the label set, stored as a dict.
    The label order is significant: it fixes basis order, serialization order,
    and the deterministic order of every sweep.  The constructor takes the
    labels as any sequence of `str` and stores a tuple; it validates and
    keeps its own copy of each involution dict, so mutating the dicts passed
    to it leaves the graph unchanged.
    """

    labels: tuple[str, ...]
    involutions: dict[str, Permutation]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))  # any sequence
        validate_labels(self.labels)
        label_set = set(self.labels)
        object.__setattr__(
            self, "involutions", {s: dict(j) for s, j in self.involutions.items()}
        )
        if set(self.involutions) != label_set:
            raise ValueError("involutions must be keyed by exactly the label set")
        for s, j in self.involutions.items():
            if set(j) != label_set or set(j.values()) != label_set:
                raise ValueError(f"involution for {s!r} is not a self-map of the label set")
            for u, v in j.items():
                if j[v] != u:
                    raise ValueError(f"map for {s!r} is not an involution ({u}->{v}->{j[v]})")
            if j[s] != s:
                raise ValueError(f"involution for {s!r} must fix {s!r}")

    @classmethod
    def _trusted(cls, labels, involutions) -> "DecoratedGraph":
        """Construct without validation, for callers that build valid labels
        and label-fixing involutions by construction (the sweep's enumeration)."""
        self = object.__new__(cls)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "involutions", involutions)
        return self

    @property
    def rank(self) -> int:
        return len(self.labels)

    def apply(self, s: str, t: str) -> str:
        """Image of t under the involution attached to s."""
        _check_label(self.involutions, s)
        _check_label(self.involutions, t)
        return self.involutions[s][t]

    def restricted(self, subset) -> "DecoratedGraph":
        """Restriction to an invariant label subset, preserving label order.

        Raises UnknownLabelError, naming the sorted unknown labels, when the
        subset holds a label the graph lacks.  Each kept involution must map
        the subset into itself; raises ValueError otherwise.  The result is
        built without re-validation: its labels and involutions are
        restrictions of this graph's, so they inherit every checked property.
        """
        keep = set(subset)
        unknown = keep.difference(self.involutions)
        if unknown:
            raise UnknownLabelError(sorted(unknown))
        labels = tuple(s for s in self.labels if s in keep)
        invs = {}
        for s in labels:
            j = self.involutions[s]
            if any(j[t] not in keep for t in keep):
                raise ValueError(f"subset {sorted(keep)} is not invariant under j_{s}")
            invs[s] = {t: j[t] for t in keep}
        # type(self), not the module name: a traced run replaces that with a function
        return type(self)._trusted(labels, invs)


def j_getters(g: DecoratedGraph) -> list:
    """One getter per label s, in label order: a sequence indexed by label
    position goes to the tuple of its entries at j_s(t), t in label order.
    On a permutation part p it gives the permutation part p∘j_s."""
    labels = g.labels
    if len(labels) == 1:
        return [lambda seq: (seq[0],)]  # itemgetter(0) returns the item itself
    pos = {t: k for k, t in enumerate(labels)}
    return [itemgetter(*[pos[g.involutions[s][t]] for t in labels]) for s in labels]


class TrajectoryKind(Enum):
    FOUR_CYCLE = "four-cycle"
    ANGLE = "angle"
    SINGLE_EDGE = "single-edge"
    NOT_PERIODIC = "not-periodic"


_PERIODIC_KINDS = {  # by the number of distinct labels one period visits
    2: TrajectoryKind.SINGLE_EDGE, 3: TrajectoryKind.ANGLE, 4: TrajectoryKind.FOUR_CYCLE}


@dataclass(frozen=True)
class Trajectory:
    seed: tuple[str, str]
    terms: tuple[str, str, str, str, str, str]
    kind: TrajectoryKind

    @property
    def period(self) -> tuple[str, str, str, str]:
        return self.terms[:4]

    @property
    def is_periodic(self) -> bool:
        return self.kind is not TrajectoryKind.NOT_PERIODIC


def trajectory(g: DecoratedGraph, s1: str, s2: str) -> Trajectory:
    """First six terms of the recurrence seeded at (s1, s2), with classification.

    The recurrence is a deterministic map on ordered pairs of labels, so the
    sequence is 4-periodic exactly when the pair state (s5, s6) returns to
    (s1, s2); no further unrolling is needed.
    """
    _check_label(g.involutions, s1)
    _check_label(g.involutions, s2)
    if s1 == s2:
        raise DistinctLabelsRequiredError(s1)
    inv = g.involutions
    s3 = inv[s2][s1]
    s4 = inv[s3][s2]
    s5 = inv[s4][s3]
    terms = (s1, s2, s3, s4, s5, inv[s5][s4])
    if terms[4:6] != (s1, s2):
        kind = TrajectoryKind.NOT_PERIODIC
    else:
        kind = _PERIODIC_KINDS[len(set(terms[:4]))]
    return Trajectory((s1, s2), terms, kind)


def holonomy(g: DecoratedGraph, s1: str, s2: str) -> Permutation:
    """Composite j_{s4} o j_{s3} o j_{s2} o j_{s1} along one period of the seed.

    Only defined for 4-periodic trajectories.
    """
    traj = trajectory(g, s1, s2)
    if not traj.is_periodic:
        raise NotFourPeriodicError(traj.seed)
    inv = g.involutions
    j1, j2, j3, j4 = (inv[s] for s in traj.period)
    return {t: j4[j3[j2[j1[t]]]] for t in g.labels}


@dataclass(frozen=True)
class AdmissibilityFailure:
    seed: tuple[str, str]
    kind: str  # "NotFourPeriodic" or "Holonomy"
    witness: Permutation | None = None


@dataclass(frozen=True)
class AdmissibilityReport:
    admissible: bool
    failures: tuple[AdmissibilityFailure, ...]


def _failing_seeds(labels, inv, seeds=None, undecided=None):
    """Yield ``(seed, witness)`` for each failing seed that the involution
    table `inv` decides, in the order of `seeds` (default: every ordered pair
    of distinct labels, in label order); the seeds are not checked.

    `inv` maps every label to its involution, or to None while that
    involution is not assigned yet (the sweep's label-by-label search fills
    in ``dict.fromkeys(labels)``); a full table decides every seed.  Seed
    (u, v) is decided once j_v, j_{s3}, j_{s4} and j_{s5} are assigned: its
    period and holonomy need no other label, as a periodic seed has s5 = u.
    Until then it is skipped, and appended to `undecided` if that is a list;
    assigning more labels never changes a decided verdict, so the search
    hands each branch only the seeds its parent left undecided.  A label
    missing from `inv` raises KeyError.  The witness is None when the
    trajectory is not 4-periodic, and the nontrivial holonomy otherwise.
    """
    for seed in itertools.permutations(labels, 2) if seeds is None else seeds:
        u, v = seed
        j2 = inv[v]
        if (j2 is None or (j3 := inv[s3 := j2[u]]) is None
                or (j4 := inv[s4 := j3[v]]) is None or (j1 := inv[s5 := j4[s3]]) is None):
            if undecided is not None:
                undecided.append(seed)
            continue
        if s5 != u or j1[s4] != v:
            yield seed, None
            continue
        images = tuple([j4[j3[j2[j1[t]]]] for t in labels])
        if images != labels:
            yield seed, dict(zip(labels, images))


def is_admissible(g: DecoratedGraph) -> AdmissibilityReport:
    """Check every trajectory for 4-periodicity and trivial holonomy.

    Failures are reported as data, one entry per failing seed, in label order.
    """
    failures = tuple(
        AdmissibilityFailure(seed, "NotFourPeriodic" if witness is None else "Holonomy", witness)
        for seed, witness in _failing_seeds(g.labels, g.involutions)
    )
    return AdmissibilityReport(not failures, failures)


def admissible_quick(g: DecoratedGraph) -> bool:
    """Short-circuit admissibility test: stops at the first failing seed."""
    return next(_failing_seeds(g.labels, g.involutions), None) is None


def require_admissible(g: DecoratedGraph) -> None:
    report = is_admissible(g)
    if not report.admissible:
        raise NotAdmissibleError(report)


@dataclass(frozen=True)
class EdgeGroup:
    """One block of the edge partition.

    For a four-cycle, ``vertices`` is the cyclic vertex sequence (canonical
    rotation/reversal); for an angle it is (end, apex, end); for a single edge
    the sorted pair.
    """

    kind: TrajectoryKind
    vertices: tuple[str, ...]

    @property
    def edges(self) -> frozenset[frozenset[str]]:
        v = self.vertices
        if self.kind is TrajectoryKind.FOUR_CYCLE:
            pairs = [(v[i], v[(i + 1) % 4]) for i in range(4)]
        elif self.kind is TrajectoryKind.ANGLE:
            pairs = [(v[0], v[1]), (v[1], v[2])]
        else:
            pairs = [(v[0], v[1])]
        return frozenset(frozenset(p) for p in pairs)


def _canonical_cycle(cycle):
    return min(seq[r:] + seq[:r] for seq in (cycle, cycle[::-1]) for r in range(4))


def _trajectory_classes(g: DecoratedGraph) -> list[tuple[str, str, str, str]]:
    """The canonical period of each trajectory class, in the order first seen
    over the unordered label pairs in label order.

    A seed's reversal runs its orbit backwards, as (a, b) -> (b, j_b(a)) is
    inverted by reversing the pair, so the unordered pairs meet every class.
    Raises NotAdmissibleError, reporting the seed, at the first pair that is
    not 4-periodic.
    """
    classes = {}
    for u, v in itertools.combinations(g.labels, 2):
        traj = trajectory(g, u, v)
        if not traj.is_periodic:
            raise NotAdmissibleError(
                AdmissibilityReport(False, (AdmissibilityFailure((u, v), "NotFourPeriodic"),))
            )
        classes.setdefault(_canonical_cycle(traj.period))
    return list(classes)


def edge_partition(g: DecoratedGraph) -> tuple[EdgeGroup, ...]:
    """Partition the unordered label pairs into 4-cycles, angles, and single
    edges: one block per trajectory class (`_trajectory_classes`).

    Requires only 4-periodicity, not trivial holonomy.  Raises
    InternalConsistencyError if the blocks' edges outnumber the pairs, that
    is, if two blocks share an edge, which periodic input cannot produce.
    """
    groups = []
    for p in _trajectory_classes(g):  # a canonical period leads with its least label
        kind = _PERIODIC_KINDS[len(set(p))]
        if kind is TrajectoryKind.SINGLE_EDGE:
            p = p[:2]
        elif kind is TrajectoryKind.ANGLE:  # so the apex is p0 or else p1
            p = (p[1], p[0], p[3]) if p[0] == p[2] else p[:3]
        groups.append(EdgeGroup(kind, p))
    n = g.rank
    if sum(len(group.edges) for group in groups) != n * (n - 1) // 2:
        raise InternalConsistencyError("a trajectory block overlaps another")
    return tuple(groups)


def presentation_relators(g: DecoratedGraph) -> list[tuple[str, ...]]:
    """Relator words: one square per generator plus one 4-letter word per
    trajectory class, its canonical period: the least of the rotations and
    reversals of any of its trajectories, which all give the same relation."""
    require_admissible(g)
    return [(s, s) for s in g.labels] + sorted(_trajectory_classes(g))
