import pytest
from hypothesis import given, strategies as st

from hochschild_kit.posets import build_refinement_poset
from hochschild_kit.preposets import Preposet, transitive_closure_pairs


def test_chain():
    p = Preposet.chain(3, [2, 1, 3])
    assert p.le(2, 1) and p.le(1, 3) and p.le(2, 3)
    assert not p.le(3, 1)


def test_contains():
    big = Preposet.from_pairs(3, [(1, 2), (2, 3)])
    small = Preposet.from_pairs(3, [(1, 3)])
    assert big.contains(small)
    assert not small.contains(big)
    assert big.contains(big)


def test_classes_and_hasse():
    p = Preposet.from_pairs(4, [(1, 2), (2, 1), (1, 3), (3, 4)])
    assert p.classes == (frozenset({1, 2}), frozenset({3}), frozenset({4}))
    assert p.hasse_edges == ((0, 1), (1, 2))
    assert p.hasse_is_forest


def test_diamond_is_not_forest():
    p = Preposet.from_pairs(4, [(1, 2), (1, 3), (2, 4), (3, 4)])
    assert not p.hasse_is_forest


def test_contract_hasse_edge():
    p = Preposet.from_pairs(3, [(1, 2), (2, 3)])
    q = p.contract_hasse_edge(0)
    assert q.le(1, 2) and q.le(2, 1)
    assert q.le(1, 3) and not q.le(3, 1)


@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda d: st.tuples(
            st.just(d),
            st.lists(
                st.tuples(
                    st.integers(min_value=1, max_value=d),
                    st.integers(min_value=1, max_value=d),
                ),
                max_size=10,
            ),
        )
    )
)
def test_closure_matches_naive_oracle(data):
    d, pairs = data
    fast = Preposet.from_pairs(d, pairs)
    naive = transitive_closure_pairs(d, pairs)
    assert frozenset(fast.pairs()) == naive


def test_ground_set_mismatch():
    with pytest.raises(ValueError):
        Preposet.from_pairs(2, []).contains(Preposet.from_pairs(3, []))
    with pytest.raises(ValueError):
        Preposet.from_pairs(3, []).contains(Preposet.from_pairs(2, []))


@pytest.mark.parametrize("kind, m, n", [("painted", 1, 2), ("shade", 1, 2), ("painted", 0, 3)])
def test_packed_contains_matches_row_oracle(kind, m, n):
    pres = [o.preposet for o in build_refinement_poset(kind, m, n).elements]
    for s in pres:
        for o in pres:
            rowwise = all(b & ~a == 0 for a, b in zip(s.rows, o.rows))
            assert s.contains(o) == rowwise, (s, o)
