"""``sorted_ids`` puts ids in exactly the order of ``sorted(ids, key=id_sort_key)``."""

from hypothesis import example, given
from hypothesis import strategies as st

from roadrules.ids import id_sort_key, sorted_ids

# JSON ids: strings and numbers, including equal numbers of two spellings
# (1 and 1.0, 0.0 and -0.0) and integers beyond the range of a float.
IDS = st.one_of(
    st.text(max_size=3),
    st.integers(),
    st.integers(min_value=2**1024, max_value=2**1100).flatmap(lambda n: st.sampled_from([n, -n])),
    st.floats(allow_nan=False),
    st.sampled_from([1, 1.0, 0, 0.0, -0.0, "1", ""]),
)


def spelled(ids):
    """Each id with its type and repr, so that equal ids of two spellings differ."""
    return [(type(value), repr(value)) for value in ids]


@given(st.lists(IDS, max_size=30))
@example([1.0, 1, "b", 1, 1.0, "a"])
@example([0.0, -0.0, 0, -0.0, 0.0])
@example([10**400, -10**400, 1e308, -1e308, float("inf"), "x"])
def test_matches_the_keyed_sort(ids):
    assert spelled(sorted_ids(ids)) == spelled(sorted(ids, key=id_sort_key))


@given(st.frozensets(IDS, max_size=30))
def test_matches_the_keyed_sort_of_a_set(ids):
    assert spelled(sorted_ids(ids)) == spelled(sorted(ids, key=id_sort_key))
