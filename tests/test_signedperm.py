import pytest
from hypothesis import given, strategies as st

from cubegroups.errors import LabelSetMismatchError
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


def test_apply_to_vector(d4):
    rho_a = generator_rho(d4, "a")
    assert rho_a.apply_to_vector({"a": 1, "b": 2, "c": 3}) == {"a": -1, "b": 3, "c": 2}


class TestPerm:
    def test_from_cycles_and_mul(self):
        a = Perm.from_cycles(4, [(0, 2)])
        b = Perm.from_cycles(4, [(0, 1), (2, 3)])
        assert (a * a).is_identity
        assert (a * b).images != (b * a).images  # d4 generators do not commute

    def test_cycles_roundtrip(self):
        p = Perm.from_cycles(5, [(0, 3), (1, 4)])
        assert Perm.from_cycles(5, p.cycles()) == p
