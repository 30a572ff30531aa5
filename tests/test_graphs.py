import importlib
import itertools

import pytest

from cubegroups import graphs
from cubegroups.errors import (
    DistinctLabelsRequiredError,
    DuplicateLabelError,
    InternalConsistencyError,
    NotAdmissibleError,
    NotFourPeriodicError,
    UnknownLabelError,
)
from cubegroups.graphs import (
    AdmissibilityFailure,
    DecoratedGraph,
    EdgeGroup,
    Trajectory,
    TrajectoryKind,
    admissible_quick,
    edge_partition,
    holonomy,
    is_admissible,
    presentation_relators,
    trajectory,
)
from cubegroups.sweep import enumerate_decorated_graphs

from conftest import graph_from

sweep_module = importlib.import_module("cubegroups.sweep")


class TestTrajectory:
    def test_four_cycle(self, rank5):
        t = trajectory(rank5, "a", "b")
        assert t.terms == ("a", "b", "c", "d", "a", "b")
        assert t.kind is TrajectoryKind.FOUR_CYCLE

    def test_angle(self, d4):
        t = trajectory(d4, "a", "b")
        assert t.terms == ("a", "b", "a", "c", "a", "b")
        assert t.kind is TrajectoryKind.ANGLE

    def test_single_edge(self, rank5):
        t = trajectory(rank5, "a", "c")
        assert t.terms == ("a", "c", "a", "c", "a", "c")
        assert t.kind is TrajectoryKind.SINGLE_EDGE

    def test_not_periodic(self, bad_rank3):
        t = trajectory(bad_rank3, "b", "a")
        assert t.kind is TrajectoryKind.NOT_PERIODIC

    def test_equal_seed_rejected(self, d4):
        with pytest.raises(DistinctLabelsRequiredError):
            trajectory(d4, "a", "a")

    def test_unknown_label_rejected(self, d4):
        with pytest.raises(UnknownLabelError):
            trajectory(d4, "a", "z")


class TestHolonomy:
    def test_four_cycle_identity(self, rank5):
        assert holonomy(rank5, "a", "b") == {s: s for s in rank5.labels}

    def test_all_identity_involutions(self, d4):
        # j_b = j_c = id, so the composite along (b, c) is trivially the identity
        assert holonomy(d4, "b", "c") == {s: s for s in d4.labels}

    def test_undefined_for_nonperiodic(self, bad_rank3):
        with pytest.raises(NotFourPeriodicError):
            holonomy(bad_rank3, "b", "a")


class TestAdmissibility:
    def test_d4_admissible(self, d4):
        assert is_admissible(d4).admissible

    def test_rank5_admissible(self, rank5):
        assert is_admissible(rank5).admissible

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_report_matches_unrolled_reference(self, rank):
        # reference: unroll the recurrence with the public g.apply and compose
        # the four involutions along the period by hand
        def reference(g):
            failures = []
            for u in g.labels:
                for v in g.labels:
                    if u == v:
                        continue
                    terms = [u, v]
                    for _ in range(4):
                        terms.append(g.apply(terms[-1], terms[-2]))
                    if terms[4:] != [u, v]:
                        failures.append(AdmissibilityFailure((u, v), "NotFourPeriodic"))
                        continue
                    composite = {}
                    for t in g.labels:
                        image = t
                        for s in terms[:4]:
                            image = g.apply(s, image)
                        composite[t] = image
                    if any(composite[t] != t for t in g.labels):
                        failures.append(AdmissibilityFailure((u, v), "Holonomy", composite))
            return tuple(failures)

        for g in enumerate_decorated_graphs(rank):
            assert is_admissible(g).failures == reference(g)

    def test_bad_rank3_fails_with_witness(self, bad_rank3):
        report = is_admissible(bad_rank3)
        assert not report.admissible
        assert any(f.kind == "NotFourPeriodic" for f in report.failures)

    @pytest.mark.parametrize("rank", [3, 4])
    def test_quick_check_agrees_with_full_report(self, rank):
        for g in enumerate_decorated_graphs(rank):
            report = is_admissible(g)
            assert admissible_quick(g) == report.admissible
            for f in report.failures:
                if f.kind == "Holonomy":
                    assert f.witness == holonomy(g, *f.seed)


class TestPartialTable:
    """The admissibility core on a table whose unassigned involutions are None."""

    @pytest.mark.parametrize("rank", [3, 4])
    def test_reports_exactly_the_decided_failures(self, rank):
        for g in enumerate_decorated_graphs(rank):
            full = list(graphs._failing_seeds(g.labels, g.involutions))
            # seed (u, v) is decided by j_v, j_{s3}, j_{s4} and j_{s5}
            needs = {seed: set(trajectory(g, *seed).terms[1:5]) for seed, _ in full}
            for k in range(rank + 1):
                for assigned in itertools.combinations(g.labels, k):
                    inv = dict.fromkeys(g.labels)
                    inv.update((s, g.involutions[s]) for s in assigned)
                    expected = [(seed, w) for seed, w in full if needs[seed] <= set(assigned)]
                    assert list(graphs._failing_seeds(g.labels, inv)) == expected

    def test_seed_subsets_on_the_search_tables(self, monkeypatch):
        """On every partial table of the rank-4 search, the core given a seed
        list yields that list's failing seeds from the all-seed output, and
        receives exactly the listed seeds it does not decide."""
        tables = []

        def record(labels, inv, seeds, undecided):
            tables.append((dict(inv), list(seeds)))
            return graphs._failing_seeds(labels, inv, seeds, undecided)

        monkeypatch.setattr(sweep_module, "_failing_seeds", record)
        assert len(list(sweep_module._admissible_graphs(4))) == 22
        labels = tuple("abcd")
        every = list(itertools.permutations(labels, 2))
        for inv, handed in tables:
            assigned = {s for s, j in inv.items() if j is not None}
            # any completion runs each seed through the same first unassigned label
            g = DecoratedGraph._trusted(labels, {
                s: {t: t for t in labels} if j is None else j for s, j in inv.items()})
            decided = {seed for seed in every
                       if set(trajectory(g, *seed).terms[1:5]) <= assigned}
            full = list(graphs._failing_seeds(labels, inv))
            for subset in (handed, every, every[::2], every[1::2], []):
                undecided = []
                found = list(graphs._failing_seeds(labels, inv, subset, undecided))
                assert found == [(seed, w) for seed, w in full if seed in subset]
                assert undecided == [seed for seed in subset if seed not in decided]
        assert len(tables) > 22

    def test_missing_label_raises(self, bad_rank3):
        inv = dict(bad_rank3.involutions)
        del inv["c"]
        with pytest.raises(KeyError):
            list(graphs._failing_seeds(bad_rank3.labels, inv))
        with pytest.raises(KeyError):
            admissible_quick(DecoratedGraph._trusted(bad_rank3.labels, inv))


class TestEdgePartition:
    def test_rank5_partition(self, rank5):
        groups = {(g.kind, g.vertices) for g in edge_partition(rank5)}
        assert groups == {
            (TrajectoryKind.FOUR_CYCLE, ("a", "b", "c", "d")),
            (TrajectoryKind.ANGLE, ("a", "e", "c")),
            (TrajectoryKind.ANGLE, ("b", "e", "d")),
            (TrajectoryKind.SINGLE_EDGE, ("a", "c")),
            (TrajectoryKind.SINGLE_EDGE, ("b", "d")),
        }

    def test_d4_partition(self, d4):
        groups = {(g.kind, g.vertices) for g in edge_partition(d4)}
        assert groups == {
            (TrajectoryKind.ANGLE, ("b", "a", "c")),
            (TrajectoryKind.SINGLE_EDGE, ("b", "c")),
        }

    def test_rank2_partition(self, klein):
        (group,) = edge_partition(klein)
        assert group.kind is TrajectoryKind.SINGLE_EDGE
        assert group.vertices == ("a", "b")

    def test_rejects_nonperiodic(self, bad_rank3):
        with pytest.raises(NotAdmissibleError):
            edge_partition(bad_rank3)

    def test_overlapping_blocks_are_internal_errors(self, monkeypatch):
        # every seed (s1, s2) reads as the angle s1-s2-x through the third
        # label x, so the blocks of (a, b) and (a, c) share the edge {b, c}
        def fake_trajectory(g, s1, s2):
            (x,) = set(g.labels) - {s1, s2}
            return Trajectory((s1, s2), (s1, s2, x, s2, s1, s2), TrajectoryKind.ANGLE)

        monkeypatch.setattr(graphs, "trajectory", fake_trajectory)
        with pytest.raises(InternalConsistencyError, match="overlaps"):
            edge_partition(graph_from("abc"))

    @pytest.mark.parametrize("rank", [3, 4])
    def test_covers_every_pair_once(self, rank):
        for g in enumerate_decorated_graphs(rank):
            if not admissible_quick(g):
                continue
            seen = []
            for group in edge_partition(g):
                seen.extend(group.edges)
            expected = {frozenset(p) for p in itertools.combinations(g.labels, 2)}
            assert len(seen) == len(expected)
            assert set(seen) == expected


def _least_rotation(cycle):
    """The least of the four rotations and four reversed rotations of a cycle."""
    n = len(cycle)
    rotations = [tuple(seq[(r + i) % n] for i in range(n)) for r in range(n)
                 for seq in (cycle, tuple(reversed(cycle)))]
    return min(rotations)


def reference_edge_partition(g):
    """The seed-by-seed construction: over the unordered pairs in label order,
    skip a pair whose edge an earlier block covers, else build the block of
    its trajectory, the ends sorted around an angle's apex.  Returns
    ``(blocks, None)``, or ``(None, seed)`` at the first uncovered seed that
    is not 4-periodic."""
    covered, blocks = set(), []
    for u, v in itertools.combinations(g.labels, 2):
        if frozenset((u, v)) in covered:
            continue
        traj = trajectory(g, u, v)
        if not traj.is_periodic:
            return None, (u, v)
        s1, s2, s3, s4 = traj.period
        if traj.kind is TrajectoryKind.SINGLE_EDGE:
            block = EdgeGroup(traj.kind, tuple(sorted((s1, s2))))
        elif traj.kind is TrajectoryKind.ANGLE:
            apex, ends = (s1, (s2, s4)) if s1 == s3 else (s2, (s1, s3))
            lo, hi = sorted(ends)
            block = EdgeGroup(traj.kind, (lo, apex, hi))
        else:
            block = EdgeGroup(traj.kind, _least_rotation(traj.period))
        assert not block.edges & covered
        covered |= block.edges
        blocks.append(block)
    return tuple(blocks), None


def reference_relators(g):
    """Squares, then the least rotation of every seed's period over the
    ordered pairs, sorted and without repeats."""
    classes = {_least_rotation(trajectory(g, u, v).period)
               for u, v in itertools.permutations(g.labels, 2)}
    return [(s, s) for s in g.labels] + sorted(classes)


class TestOneWalk:
    """`edge_partition` and `presentation_relators` read the trajectory
    classes off one walk; the seed-by-seed construction is the oracle."""

    @pytest.mark.parametrize("rank,periodic,admissible", [
        (1, 1, 1), (2, 1, 1), (3, 4, 4), (4, 54, 22)])
    def test_matches_the_seed_by_seed_construction(self, rank, periodic, admissible):
        counts = [0, 0]
        for g in enumerate_decorated_graphs(rank):
            blocks, seed = reference_edge_partition(g)
            if seed is None:
                assert edge_partition(g) == blocks  # order included
                counts[0] += 1
            else:
                with pytest.raises(NotAdmissibleError) as exc:
                    edge_partition(g)
                assert exc.value.report.failures == (AdmissibilityFailure(seed, "NotFourPeriodic"),)
            if admissible_quick(g):
                assert presentation_relators(g) == reference_relators(g)
                counts[1] += 1
            else:
                with pytest.raises(NotAdmissibleError) as exc:
                    presentation_relators(g)
                assert exc.value.report == is_admissible(g)
        # at rank 4, 32 graphs are 4-periodic with nontrivial holonomy: partitioned, no relators
        assert counts == [periodic, admissible]


class TestRelators:
    def test_d4_relators(self, d4):
        assert presentation_relators(d4) == [
            ("a", "a"),
            ("b", "b"),
            ("c", "c"),
            ("a", "b", "a", "c"),
            ("b", "c", "b", "c"),
        ]

    def test_rank5_contains_four_cycle_relator(self, rank5):
        canon = {r for r in presentation_relators(rank5) if len(r) == 4}
        assert ("a", "b", "c", "d") in canon

    def test_rank1_only_square(self, rank1):
        assert presentation_relators(rank1) == [("a", "a")]

    def test_rejects_not_admissible(self, bad_rank3):
        with pytest.raises(NotAdmissibleError):
            presentation_relators(bad_rank3)


class TestInvariants:
    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_periodic_seeds_close_up(self, rank):
        for g in enumerate_decorated_graphs(rank):
            if not admissible_quick(g):
                continue
            for u, v in itertools.permutations(g.labels, 2):
                t = trajectory(g, u, v)
                assert t.terms[4] == u and t.terms[5] == v

    @pytest.mark.parametrize("rank", [3, 4])
    def test_reversal_closure(self, rank):
        for g in enumerate_decorated_graphs(rank):
            for u, v in itertools.permutations(g.labels, 2):
                fwd = trajectory(g, u, v)
                rev = trajectory(g, v, u)
                assert fwd.is_periodic == rev.is_periodic
                if fwd.is_periodic:
                    assert fwd.kind == rev.kind

    @pytest.mark.parametrize("rank", [3, 4])
    def test_admissible_holonomy_trivial_everywhere(self, rank):
        for g in enumerate_decorated_graphs(rank):
            if not admissible_quick(g):
                continue
            ident = {s: s for s in g.labels}
            for u, v in itertools.permutations(g.labels, 2):
                assert holonomy(g, u, v) == ident


def test_restriction_requires_invariance(d4):
    with pytest.raises(ValueError):
        d4.restricted({"a", "b"})  # j_a maps b out of the subset


@pytest.mark.parametrize("subset", [{"a", "z"}, {"z"}, {"y", "b", "z"}])
def test_restriction_rejects_unknown_labels(d4, subset):
    with pytest.raises(UnknownLabelError) as exc:
        d4.restricted(subset)
    assert exc.value.label == sorted(subset - set(d4.labels))


def test_restriction_of_invariant_subset(d4):
    sub = d4.restricted({"b", "c"})
    assert sub.labels == ("b", "c")
    assert is_admissible(sub).admissible


def _identities(labels, **maps):
    return {s: maps.get(s, {t: t for t in labels}) for s in labels}


@pytest.mark.parametrize(
    "labels,involutions,error",
    [
        (("a", "a"), {"a": {"a": "a"}}, DuplicateLabelError),
        (("a", "b"), {"a": {"a": "a", "b": "b"}}, ValueError),  # no j_b
        (("a", "b"), _identities("ab", a={"a": "a"}), ValueError),  # not total
        (("a", "b"), _identities("ab", a={"a": "a", "b": "a"}), ValueError),  # not onto
        (("a", "b", "c", "d"),  # a 3-cycle, not an involution
         _identities("abcd", a={"a": "a", "b": "c", "c": "d", "d": "b"}), ValueError),
        (("a", "b"), _identities("ab", a={"a": "b", "b": "a"}), ValueError),  # moves a
    ],
)
def test_public_constructor_validates(labels, involutions, error):
    with pytest.raises(error):
        DecoratedGraph(labels, involutions)


def test_public_constructor_copies_the_involutions():
    inv = _identities("ab")
    g = DecoratedGraph(("a", "b"), inv)
    inv["a"].update(a="b", b="a")
    inv["b"] = {"a": "b", "b": "a"}
    assert g.involutions == _identities("ab")
    assert is_admissible(g).admissible


@pytest.mark.parametrize("label", ["", "a b", "a\tb", "a#", "(a", "a)", "a:", 'a"', "a\\"])
def test_bad_labels_rejected(label):
    with pytest.raises(ValueError, match="bad label"):
        graph_from((label, "z"))


def test_list_labels_are_stored_as_a_tuple():
    # admissibility compares each holonomy's image tuple with the labels
    g = DecoratedGraph(["a", "b"], _identities("ab"))
    assert g.labels == ("a", "b")
    assert g == DecoratedGraph(("a", "b"), _identities("ab"))
    assert is_admissible(g).admissible


@pytest.mark.parametrize("labels", [(1, 2), ("a", 2), (b"a", "b"), (("a",), "b"), (0, "a")])
def test_labels_that_are_not_str_raise_value_error(labels):
    involutions = {s: {t: t for t in labels} for s in labels}
    with pytest.raises(ValueError, match="bad label"):
        DecoratedGraph(labels, involutions)


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_restriction_equals_the_validated_graph(rank):
    """`restricted` skips re-validation; its result must equal the validated
    construction of the restricted maps and own its involution dicts."""
    restricted = 0
    for g in enumerate_decorated_graphs(rank):
        if not admissible_quick(g):
            continue
        for size in range(rank + 1):
            for T in itertools.combinations(g.labels, size):
                invariant = all(g.involutions[s][t] in T for s in T for t in T)
                if not invariant:
                    with pytest.raises(ValueError, match="is not invariant under"):
                        g.restricted(T)
                    continue
                sub = g.restricted(T)
                assert sub == DecoratedGraph(T, {s: {t: g.involutions[s][t] for t in T} for s in T})
                mine = {id(j) for j in sub.involutions.values()} | {id(sub.involutions)}
                theirs = {id(j) for j in g.involutions.values()} | {id(g.involutions)}
                assert not mine & theirs
                restricted += 1
    assert restricted > 0
