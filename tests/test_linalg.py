"""The straight-line 3x3 kernel, ``linalg.invariants`` and ``linalg.rank_at_most_one``,
against two oracles: sympy 1.14's ``DomainMatrix`` over ZZ_I, and the generator-based
``char_coefficients`` and ``minors`` that the kernel replaced, kept here as they were."""

from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import QQ_I, ZZ_I
from sympy.polys.matrices import DomainMatrix

from chnoids import linalg
from chnoids.linalg import gmul, gsub
from chnoids.nnoid import nilpotency_profile

_PAIRS = ((0, 1), (0, 2), (1, 2))  # the row or column pairs of a 2x2 minor


def gsum(xs):
    re = im = 0
    for x, y in xs:
        re += x
        im += y
    return re, im


def minor(m, i, j, k, l):  # rows i, j; columns k, l
    return gsub(gmul(m[i][k], m[j][l]), gmul(m[i][l], m[j][k]))


def minors(m):
    """Every 2x2 minor of a 3x3 matrix, each only when asked for."""
    return (minor(m, *rows, *cols) for rows in _PAIRS for cols in _PAIRS)


def char_coefficients(m):
    """T, E and D of m's characteristic polynomial w^3 - T w^2 + E w - D, each
    only when asked for: tr m, the sum of its principal 2x2 minors, and det m."""
    yield gsum(m[i][i] for i in range(3))
    yield gsum(minor(m, i, j, i, j) for i, j in _PAIRS)
    yield gsum(gmul(m[0][c], minor(m, 1, 2, k, l))  # along row 0, skipping its zeros
               for c, k, l in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) if any(m[0][c]))


TALL = 10**4299  # the smallest part of 4,300 digits
part = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.integers(-(10**12), 10**12),
    st.builds(lambda sign, k: sign * (TALL + k), st.sampled_from((1, -1)),
              st.integers(0, 9 * TALL - 1)),
)
gauss = st.tuples(part, part)
zero = (0, 0)


@st.composite
def matrices(draw):
    """3x3 Gaussian-integer matrices: generic ones, ones with a zero row or
    column, rank-one outer products, and the n-noid residue shape
    [[0, 0, b], [0, 0, b'], [c, c', 0]], nilpotent when c b + c' b' = 0."""
    kind = draw(st.sampled_from(("generic", "zero-row", "zero-column", "outer", "nnoid",
                                 "nilpotent-nnoid")))
    if kind == "outer":
        u, v = (draw(st.lists(gauss, min_size=3, max_size=3)) for _ in range(2))
        return tuple(tuple(gmul(x, y) for y in v) for x in u)
    if kind in ("nnoid", "nilpotent-nnoid"):
        b, b1, c, c1 = (draw(gauss) for _ in range(4))
        if kind == "nilpotent-nnoid":  # C B = c b + c' b' = 0 for B = (-c' x, c x)
            x = draw(gauss)
            b, b1 = gsub(zero, gmul(c1, x)), gmul(c, x)
        return ((zero, zero, b), (zero, zero, b1), (c, c1, zero))
    m = [[draw(gauss) for _ in range(3)] for _ in range(3)]
    k = draw(st.integers(0, 2))
    for i in range(3):
        if kind == "zero-row":
            m[k][i] = zero
        elif kind == "zero-column":
            m[i][k] = zero
    return tuple(map(tuple, m))


def domain_matrix(m):
    return DomainMatrix([[ZZ_I(*x) for x in row] for row in m], (3, 3), ZZ_I)


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_kernel_matches_sympy(m):
    """T, E, D are sympy's characteristic coefficients, up to their signs, and the
    rank test is sympy's rank over Q(i) against 1; the profile is the first k with
    m^k = 0 by sympy's products."""
    dm = domain_matrix(m)
    _, t, e, d = ((c.x, c.y) for c in dm.charpoly())
    assert linalg.invariants(m) == (gsub(zero, t), e, gsub(zero, d))
    assert linalg.rank_at_most_one(m) == (dm.convert_to(QQ_I).rank() <= 1)
    power, profile = dm, None
    for k in (1, 2, 3):
        if power.is_zero_matrix:
            profile = k
            break
        power = power * dm
    assert nilpotency_profile(m) == profile


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_kernel_matches_generators(m):
    """The kernel against the generator-based code it replaced."""
    assert linalg.invariants(m) == tuple(char_coefficients(m))
    assert linalg.rank_at_most_one(m) == (not any(map(any, minors(m))))
