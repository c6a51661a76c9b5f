"""The one lookup from a name to a family: either name of a family gives its
record, and every public function that takes a kind rejects any other name
with the lookup's one error."""

import pytest

from hochschild_kit.cubic import verify_cubic_realization
from hochschild_kit.families import family
from hochschild_kit.geometry import (
    barycenter,
    certify_polytope,
    minkowski_data,
    oriented_skeleton,
)
from hochschild_kit.posets import build_refinement_poset, build_rotation_poset
from hochschild_kit.series import count_facet_objects, face_generating_function, gf_face_count

TAKE_A_KIND = [
    build_rotation_poset,
    build_refinement_poset,
    certify_polytope,
    minkowski_data,
    oriented_skeleton,
    barycenter,
    verify_cubic_realization,
    face_generating_function,
    gf_face_count,
    count_facet_objects,
]


@pytest.mark.parametrize("fn", TAKE_A_KIND, ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("name", ["freehedron", "word"])
def test_an_unknown_kind_raises_the_lookup_error(fn, name):
    with pytest.raises(ValueError, match=f"^unknown kind '{name}'"):
        fn(name, 1, 2)


@pytest.mark.parametrize(
    "objects, polytope, simple",
    [("painted", "multiplihedron", False), ("shade", "hochschild", True)],
)
def test_both_names_give_one_record(objects, polytope, simple):
    record = family(objects)
    assert record == family(polytope)
    assert (record.objects, record.polytope, record.simple) == (objects, polytope, simple)
