import dataclasses
import pickle

import pytest
from hypothesis import given, strategies as st

from cubegroups.errors import DuplicateLabelError, LabelSetMismatchError, UnknownLabelError
from cubegroups.group import generator_rho
from cubegroups.signedperm import Perm, SignedPermutation

LABELS = ("a", "b", "c")


def matmul(A, B):
    n = len(A)
    return [
        [sum(A[r][k] * B[k][c] for k in range(n)) for c in range(n)]
        for r in range(n)
    ]


@st.composite
def signed_perms(draw, labels=LABELS):
    n = len(labels)
    perm = tuple(draw(st.permutations(range(n))))
    signs = tuple(draw(st.sampled_from([-1, 1])) for _ in range(n))
    return SignedPermutation(labels, perm, signs)


def test_identity_is_neutral():
    ident = SignedPermutation.identity(LABELS)
    assert ident.is_identity
    assert ident.as_matrix() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


@given(signed_perms())
def test_identity_law(x):
    ident = SignedPermutation.identity(LABELS)
    assert ident.compose(x) == x
    assert x.compose(ident) == x


@given(signed_perms(), signed_perms(), signed_perms())
def test_associativity(x, y, z):
    assert x.compose(y).compose(z) == x.compose(y.compose(z))


@given(signed_perms(), signed_perms())
def test_compose_matches_matrix_product(x, y):
    # independent oracle: dense integer matrix multiplication
    assert x.compose(y).as_matrix() == matmul(x.as_matrix(), y.as_matrix())


@given(signed_perms())
def test_inverse(x):
    assert x.compose(x.inverse()).is_identity
    assert x.inverse().compose(x).is_identity


@given(signed_perms())
def test_orthogonality(x):
    m = x.as_matrix()
    n = len(m)
    transpose = [[m[c][r] for c in range(n)] for r in range(n)]
    assert matmul(m, transpose) == SignedPermutation.identity(LABELS).as_matrix()


@pytest.mark.parametrize("perm, signs", [
    ((0, 0, 2), (1, 1, 1)),  # repeated image
    ((0, 1, 3), (1, 1, 1)),  # image out of range
    ((0, 1), (1, 1, 1)),  # too short
    ((0, 1, 2), (1, 0, 1)),  # sign not +-1
    ((0, 1, 2), (1, -1)),  # too few signs
])
def test_public_constructor_validates(perm, signs):
    with pytest.raises(ValueError):
        SignedPermutation(LABELS, perm, signs)


@pytest.mark.parametrize("perm, signs", [
    ((1.0, 0), (1, 1)),
    ((0, 1.0), (1, 1)),
    ((1, 0), (1.0, 1)),
    ((1, 0), (-1.0, 1)),
])
def test_public_constructor_rejects_floats(perm, signs):
    # sorted() and `in` compare 1.0 equal to 1; the entries index tuples
    with pytest.raises(ValueError):
        SignedPermutation(("a", "b"), perm, signs)


@pytest.mark.parametrize("labels, error, message", [
    # with repeated labels a swap would print as [a->+a, a->-a]
    (("a", "a"), DuplicateLabelError, "duplicate generator label: 'a'"),
    ((1, 2), ValueError, "bad label 1"),
    (("a", "b c"), ValueError, "bad label 'b c'"),
    (("", "b"), ValueError, "bad label ''"),
])
def test_public_constructor_checks_labels(labels, error, message):
    with pytest.raises(error, match=message):
        SignedPermutation(labels, (1, 0), (1, -1))
    with pytest.raises(error, match=message):
        SignedPermutation.identity(labels)


def test_label_check_comes_first():
    with pytest.raises(DuplicateLabelError):
        SignedPermutation(("a", "a"), (0, 0), (1, 2))


@pytest.mark.parametrize("perm_map, sign_map", [
    ({"a": "b", "b": "b", "c": "c"}, {"a": 1, "b": 1, "c": 1}),  # not injective
    ({"a": "a", "b": "b", "c": "c"}, {"a": 1, "b": 2, "c": 1}),  # sign not +-1
])
def test_from_maps_validates(perm_map, sign_map):
    with pytest.raises(ValueError):
        SignedPermutation.from_maps(LABELS, perm_map, sign_map)


@given(signed_perms(), signed_perms())
def test_arithmetic_results_equal_validated_construction(x, y):
    for result in (x.compose(y), x * y, x.inverse()):
        validated = SignedPermutation(result.labels, result.perm, result.signs)
        assert result == validated
        assert hash(result) == hash(validated)
        assert {result: 1}[validated] == 1


def copied(x, labels=None):
    """The same signed permutation built anew from fresh, equal tuples."""
    labels = tuple(list(x.labels)) if labels is None else labels
    return SignedPermutation(labels, tuple(list(x.perm)), tuple(list(x.signs)))


@given(signed_perms(("a", "b")), signed_perms(("a", "b")))
def test_equal_values_hash_equal(x, y):
    assert x == copied(x)
    assert hash(x) == hash(copied(x))
    if x == y:
        assert hash(x) == hash(y)


@given(signed_perms(("a", "b")), signed_perms(("a", "b")), st.sampled_from(
    [None, 0, "ab", (), ("a", "b"), Perm((0, 1)), [[1, 0], [0, 1]]]))
def test_list_twins_are_equal_and_hash_equal(x, y, other):
    # the generated __eq__ and __hash__ read the fields, so they must be tuples
    twin = SignedPermutation(list(x.labels), list(x.perm), list(x.signs))
    assert twin == x and hash(twin) == hash(x)
    assert (twin.labels, twin.perm, twin.signs) == (x.labels, x.perm, x.signs)
    assert (x == y) == ((x.perm, x.signs) == (y.perm, y.signs))
    if x == y:
        assert hash(x) == hash(y)
    assert x != other and other != x
    assert x != (x.labels, x.perm, x.signs)


@given(signed_perms())
def test_labels_take_part_in_equality(x):
    other = copied(x, ("x", "y", "z"))
    assert x != other
    assert x != (x.labels, x.perm, x.signs)
    assert x.__eq__((x.labels, x.perm, x.signs)) is NotImplemented


@given(signed_perms(), signed_perms(("x", "y", "z")))
def test_compose_across_label_sets_raises(x, y):
    with pytest.raises(LabelSetMismatchError):
        x.compose(y)
    with pytest.raises(LabelSetMismatchError):
        y * x


@given(signed_perms(), signed_perms())
def test_compose_over_equal_label_tuples(x, y):
    # equal label sets held in distinct tuple objects compose as one
    result = x.compose(copied(y))
    assert result == x.compose(y) == copied(result)


@given(signed_perms())
def test_pickle_round_trip(x):
    y = pickle.loads(pickle.dumps(x))
    assert y == x
    assert hash(y) == hash(x)
    with pytest.raises(dataclasses.FrozenInstanceError):
        y.perm = x.perm


def test_label_set_mismatch():
    x = SignedPermutation.identity(("a", "b"))
    y = SignedPermutation.identity(("a", "c"))
    with pytest.raises(LabelSetMismatchError):
        x.compose(y)


def test_generator_square_is_identity(d4):
    for s in d4.labels:
        rho = generator_rho(d4, s)
        assert rho.compose(rho).is_identity


def test_d4_compose_example(d4):
    # rho_a after rho_b sends e_b to -e_c; checked against the matrix oracle
    m = generator_rho(d4, "a").compose(generator_rho(d4, "b"))
    assert m.image_label("b") == "c"
    assert m.sign_of("b") == -1
    oracle = matmul(generator_rho(d4, "a").as_matrix(), generator_rho(d4, "b").as_matrix())
    assert m.as_matrix() == oracle
    assert [row[LABELS.index("b")] for row in oracle] == [0, 0, -1]


@pytest.mark.parametrize("label", ["d", "ab", ""])
def test_unknown_label_lookups(d4, label):
    m = generator_rho(d4, "a")
    for lookup in (m.image_label, m.sign_of):
        with pytest.raises(UnknownLabelError) as exc:
            lookup(label)
        assert exc.value.label == label


def test_apply_to_vector(d4):
    rho_a = generator_rho(d4, "a")
    assert rho_a.apply_to_vector({"a": 1, "b": 2, "c": 3}) == {"a": -1, "b": 3, "c": 2}


@given(signed_perms(), signed_perms())
def test_point_images(x, y):
    # decoding gives x back; composing matrices composes the point maps
    images = x.point_images()
    assert sorted(images) == list(range(2 * len(LABELS)))
    assert SignedPermutation._from_point_images(LABELS, images, {}) == x
    composed = tuple(images[q] for q in y.point_images())
    assert x.compose(y).point_images() == composed


def test_point_images_of_a_generator(d4):
    # rho_a sends e_a to -e_a and swaps e_b with e_c
    assert generator_rho(d4, "a").point_images() == (1, 0, 4, 5, 2, 3)


class TestPerm:
    # sorted() alone passes (1.0, 0), and its first product then fails on a
    # float tuple index
    @pytest.mark.parametrize("images", [(0, 0, 1), (0, 2), (1,), (1.0, 0), (0, 1.0),
                                        (0.0, 2, 1), ("1", 0), (None,)])
    def test_constructor_validates(self, images):
        with pytest.raises(ValueError, match="not a permutation"):
            Perm(images)

    @given(st.permutations(range(5)), st.permutations(range(5)))
    def test_product_equals_validated_construction(self, a, b):
        product = Perm(tuple(a)) * Perm(tuple(b))
        assert product == Perm(tuple(a[x] for x in b))
        assert hash(product) == hash(Perm(product.images))

    @given(st.permutations(range(4)))
    def test_list_images_are_stored_as_a_tuple(self, images):
        p = Perm(list(images))
        assert p.images == tuple(images) and p == Perm(tuple(images))
        assert hash(p) == hash(Perm(tuple(images)))

    def test_from_cycles_and_mul(self):
        a = Perm.from_cycles(4, [(0, 2)])
        b = Perm.from_cycles(4, [(0, 1), (2, 3)])
        assert (a * a).is_identity
        assert (a * b).images != (b * a).images  # d4 generators do not commute

    def test_mul_rejects_mismatched_degrees(self):
        with pytest.raises(ValueError, match="degree mismatch"):
            Perm((1, 0, 2)) * Perm((0, 1))
        with pytest.raises(ValueError, match="degree mismatch"):
            Perm((0, 1)) * Perm((1, 0, 2))

    def test_cycles_roundtrip(self):
        p = Perm.from_cycles(5, [(0, 3), (1, 4)])
        assert Perm.from_cycles(5, p.cycles()) == p
