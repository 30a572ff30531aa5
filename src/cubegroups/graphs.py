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

from .errors import (
    DistinctLabelsRequiredError,
    DuplicateLabelError,
    InternalConsistencyError,
    NotAdmissibleError,
    NotFourPeriodicError,
    UnknownLabelError,
)

Permutation = dict[str, str]

# Characters the text formats give a meaning: comments, cycles, the
# "<label>:" prefix, and DOT string quoting and escapes.
_RESERVED_LABEL_CHARS = '#():"\\'


def validate_label(s: str) -> None:
    """Raise ValueError unless `s` can be a generator label.

    A label is nonempty and holds no whitespace and none of ``#():"\\``, so
    every accepted label round-trips through the text formats and is safe
    inside a quoted DOT string.
    """
    if not s or any(ch.isspace() or ch in _RESERVED_LABEL_CHARS for ch in s):
        raise ValueError(
            f"bad label {s!r}: must be nonempty, without whitespace or any of "
            f"{_RESERVED_LABEL_CHARS}"
        )


def _check_label(labels, s):
    if s not in labels:
        raise UnknownLabelError(s)


@dataclass(frozen=True)
class DecoratedGraph:
    """An ordered label set plus one label-fixing involution per label.

    ``involutions[s]`` is a total self-map of the label set, stored as a dict.
    The label order is significant: it fixes basis order, serialization order,
    and the deterministic order of every sweep.  The constructor validates
    and keeps its own copy of each involution dict, so mutating the dicts
    passed to it leaves the graph unchanged.
    """

    labels: tuple[str, ...]
    involutions: dict[str, Permutation]

    def __post_init__(self):
        seen = set()
        for s in self.labels:
            validate_label(s)
            if s in seen:
                raise DuplicateLabelError(s)
            seen.add(s)
        object.__setattr__(
            self, "involutions", {s: dict(j) for s, j in self.involutions.items()}
        )
        if set(self.involutions) != seen:
            raise ValueError("involutions must be keyed by exactly the label set")
        for s, j in self.involutions.items():
            if set(j) != seen or set(j.values()) != seen:
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
        the subset into itself; raises ValueError otherwise.
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
        return DecoratedGraph(labels, invs)


class TrajectoryKind(Enum):
    FOUR_CYCLE = "four-cycle"
    ANGLE = "angle"
    SINGLE_EDGE = "single-edge"
    NOT_PERIODIC = "not-periodic"


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
    terms = _terms(g.involutions, s1, s2)
    if terms[4:6] != (s1, s2):
        kind = TrajectoryKind.NOT_PERIODIC
    else:
        distinct = len(set(terms[:4]))
        if distinct == 2:
            kind = TrajectoryKind.SINGLE_EDGE
        elif distinct == 3:
            kind = TrajectoryKind.ANGLE
        else:
            kind = TrajectoryKind.FOUR_CYCLE
    return Trajectory((s1, s2), terms, kind)


def _terms(inv, s1, s2) -> tuple[str, str, str, str, str, str]:
    """First six terms of the recurrence, by direct lookups in the involution
    table `inv`; the seed labels are not checked."""
    s3 = inv[s2][s1]
    s4 = inv[s3][s2]
    s5 = inv[s4][s3]
    return (s1, s2, s3, s4, s5, inv[s5][s4])


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


def identity_permutation(labels) -> Permutation:
    return {s: s for s in labels}


@dataclass(frozen=True)
class AdmissibilityFailure:
    seed: tuple[str, str]
    kind: str  # "NotFourPeriodic" or "Holonomy"
    witness: Permutation | None = None


@dataclass(frozen=True)
class AdmissibilityReport:
    admissible: bool
    failures: tuple[AdmissibilityFailure, ...]


def seed_pairs(g: DecoratedGraph):
    """All ordered pairs of distinct labels, in label order."""
    return ((u, v) for u, v in itertools.product(g.labels, repeat=2) if u != v)


def _failing_seeds(labels, inv):
    """Yield ``(seed, witness)`` for each failing seed that the involution
    table `inv` decides, in label order.

    `inv` maps every label to its involution, or to None while that
    involution is not assigned yet (the sweep's label-by-label search fills
    in ``dict.fromkeys(labels)``); a full table decides every seed.  Seed
    (u, v) is decided once j_v, j_{s3}, j_{s4} and j_{s5} are assigned, and
    skipped until then.  Its period and holonomy need no other label: a
    periodic seed has s5 = u.  A label missing from `inv` raises KeyError.
    The witness is None when the trajectory is not 4-periodic, and the
    nontrivial holonomy otherwise.  The seeds come from `labels`, so their
    labels need no check.
    """
    for u, v in itertools.permutations(labels, 2):
        j2 = inv[v]
        if j2 is None:
            continue
        s3 = j2[u]
        j3 = inv[s3]
        if j3 is None:
            continue
        s4 = j3[v]
        j4 = inv[s4]
        if j4 is None:
            continue
        s5 = j4[s3]
        j1 = inv[s5]
        if j1 is None:
            continue
        if s5 != u or j1[s4] != v:
            yield (u, v), None
            continue
        images = tuple([j4[j3[j2[j1[t]]]] for t in labels])
        if images != labels:
            yield (u, v), dict(zip(labels, images))


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
    variants = []
    for seq in (cycle, cycle[::-1]):
        for r in range(4):
            variants.append(seq[r:] + seq[:r])
    return min(variants)


def edge_partition(g: DecoratedGraph) -> tuple[EdgeGroup, ...]:
    """Partition the unordered label pairs into 4-cycles, angles, and single edges.

    Requires 4-periodicity of every trajectory (checked seed by seed); raises
    InternalConsistencyError if two blocks share an edge, which periodic input
    cannot produce.
    """
    covered = set()
    groups = []
    for u, v in itertools.combinations(g.labels, 2):
        edge = frozenset((u, v))
        if edge in covered:
            continue
        traj = trajectory(g, u, v)
        if not traj.is_periodic:
            raise NotAdmissibleError(
                AdmissibilityReport(False, (AdmissibilityFailure((u, v), "NotFourPeriodic"),))
            )
        s1, s2, s3, s4 = traj.period
        if traj.kind is TrajectoryKind.SINGLE_EDGE:
            group = EdgeGroup(traj.kind, tuple(sorted((s1, s2))))
        elif traj.kind is TrajectoryKind.ANGLE:
            if s1 == s3:
                apex, ends = s1, (s2, s4)
            else:  # s2 == s4
                apex, ends = s2, (s1, s3)
            lo, hi = sorted(ends)
            group = EdgeGroup(traj.kind, (lo, apex, hi))
        else:
            group = EdgeGroup(traj.kind, _canonical_cycle((s1, s2, s3, s4)))
        new_edges = group.edges
        if new_edges & covered:
            # (a, b) -> (b, j_b(a)) is invertible, and a periodic orbit read
            # backwards is an orbit too, so blocks of periodic input are disjoint
            raise InternalConsistencyError(f"trajectory block at seed {(u, v)} overlaps another")
        covered |= new_edges
        groups.append(group)
    return tuple(groups)


def presentation_relators(g: DecoratedGraph) -> list[tuple[str, ...]]:
    """Relator words: one square per generator plus one 4-letter word per
    trajectory class.

    Trajectories related by cyclic rotation or reversal give the same relation,
    so each class contributes its lexicographically least representative.
    """
    require_admissible(g)
    squares = [(s, s) for s in g.labels]
    classes = {_canonical_cycle(trajectory(g, u, v).period) for u, v in seed_pairs(g)}
    return squares + sorted(classes)
