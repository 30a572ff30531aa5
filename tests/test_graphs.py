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
    Trajectory,
    TrajectoryKind,
    admissible_quick,
    edge_partition,
    holonomy,
    identity_permutation,
    is_admissible,
    presentation_relators,
    seed_pairs,
    trajectory,
)
from cubegroups.sweep import enumerate_decorated_graphs

from conftest import graph_from


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
        assert holonomy(rank5, "a", "b") == identity_permutation(rank5.labels)

    def test_all_identity_involutions(self, d4):
        # j_b = j_c = id, so the composite along (b, c) is trivially the identity
        assert holonomy(d4, "b", "c") == identity_permutation(d4.labels)

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
            for u, v in seed_pairs(g):
                t = trajectory(g, u, v)
                assert t.terms[4] == u and t.terms[5] == v

    @pytest.mark.parametrize("rank", [3, 4])
    def test_reversal_closure(self, rank):
        for g in enumerate_decorated_graphs(rank):
            for u, v in seed_pairs(g):
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
            ident = identity_permutation(g.labels)
            for u, v in seed_pairs(g):
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
