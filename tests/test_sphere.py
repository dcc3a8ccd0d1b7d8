import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from chnoids.exactnum import GQ, ZERO
from chnoids.sphere import SphereError, make_log_form


def punctures(*zs):
    return [GQ(z) for z in zs]


def test_make_log_form_valid():
    P = punctures(0, 1, 2, 3, 4)
    omega = make_log_form(P, [GQ(1)] * 4 + [GQ(-4)])
    assert omega.punctures == tuple(P)
    assert omega.residues == (GQ(1),) * 4 + (GQ(-4),)


def test_make_log_form_rejects():
    with pytest.raises(SphereError):
        make_log_form(punctures(0, 1), [GQ(1), GQ(1)])  # sum nonzero
    with pytest.raises(SphereError):
        make_log_form(punctures(0, 1, 2), [GQ(1), GQ(0), GQ(-1)])  # zero residue
    with pytest.raises(SphereError):
        make_log_form([GQ(0)] * 2, [GQ(1), GQ(-1)])  # duplicates


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.integers(min_value=-8, max_value=8), min_size=2, max_size=6, unique=True
    ),
    st.data(),
)
def test_residues_sum_zero_and_match(points, data):
    rs = [
        GQ(data.draw(st.integers(-5, 5)), data.draw(st.integers(-3, 3)))
        for _ in range(len(points) - 1)
    ]
    if any(r.is_zero for r in rs):
        return
    last = ZERO
    for r in rs:
        last = last - r
    if last.is_zero:
        return
    P = punctures(*points)
    omega = make_log_form(P, rs + [last])
    assert omega.punctures == tuple(P)
    assert omega.residues == tuple(rs + [last])
    total = ZERO
    for r in omega.residues:
        total = total + r
    assert total.is_zero
