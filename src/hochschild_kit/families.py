"""The two object families and the one lookup from a name to a family.

Painted trees index the faces of the (m,n)-multiplihedron and lighted shades
the faces of the (m,n)-Hochschild polytope.  Each family answers to two
names, its objects' (``painted``, ``shade``) and its polytope's
(``multiplihedron``, ``hochschild``); `family` resolves either one to the
family's `Family` record and is the only place that decides what a name
means.  Callers keep the name they were given for their caches and reports.

The record is built per call, not once at import: every field is read off
its module when the lookup runs, so a function rebound on its module (a
tracing wrapper, or a fault injected by a test) is the one every caller
runs.  geometry, cubic and series import `family` themselves, so they (and
tables, which imports series) are imported inside the function.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

from . import painted, shades


class Family(NamedTuple):
    objects: str  # the objects' name: "painted" or "shade"
    polytope: str  # the polytope's name: "multiplihedron" or "hochschild"
    enum: Callable  # (m, n, rank=None) -> the objects, all or of one rank
    vertices: Callable  # (m, n) -> the rank-0 objects, the polytope's vertices
    rotation_covers: Callable  # (vertices) -> their rotation covers as index pairs, from shape moves
    refinement_covers: Callable  # (objects) -> their refinement covers as index pairs, from moves
    vertices_of: Callable  # (vertices) -> their points, in order
    labeling: Callable  # a vertex -> (its label-free form, its labels in reading order)
    facet_of: Callable
    z: Callable
    y: Callable
    cubic_vector: Callable
    face_row: Callable  # (m, oy, oz) -> the face series row of m
    face_tower: Callable  # (top, oz) -> the terms of every face row with m + oy <= top
    row_shift: int  # an object with parameter n sits in y-degree n + row_shift
    rank_histogram: Callable  # (m, n) -> object count per rank, counted, not built
    facet_count: Callable  # (m, n) -> closed count of the rank m+n-2 objects
    simple: bool  # the polytope is simple: (d-1)-regular, simplicial cones


def family(name: str) -> Family:
    """The record of the family that ``name`` names; ValueError for any other name."""
    from . import cubic, geometry, series, tables

    if name in ("painted", "multiplihedron"):
        return Family(
            "painted", "multiplihedron",
            painted.enum_painted_trees, painted.binary_painted_trees, painted.rotation_covers,
            painted.refinement_covers,
            geometry.vertices_of_painted_trees, painted.labeling, geometry.facet_of_painted_tree,
            geometry.z_multiplihedron, geometry.y_multiplihedron,
            cubic.cubic_vector_painted, series.painted_face_row, series._painted_tower, 1,
            tables._painted_rank_histogram, series._painted_facet_count, False,
        )
    if name in ("shade", "hochschild"):
        return Family(
            "shade", "hochschild",
            shades.enum_lighted_shades, shades.unary_lighted_shades, shades.rotation_covers,
            shades.refinement_covers,
            geometry.vertices_of_lighted_shades, shades.labeling, geometry.facet_of_lighted_shade,
            geometry.z_hochschild, geometry.y_hochschild,
            cubic.cubic_vector_shade, series.shade_face_row, series._shade_tower, 0,
            tables._shade_rank_histogram, series._shade_facet_count, True,
        )
    raise ValueError(
        f"unknown kind {name!r}: expected 'painted' or 'multiplihedron', "
        "'shade' or 'hochschild'"
    )
