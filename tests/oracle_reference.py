"""The even-n octahedron grid that refines every face, kept as a test reference.

``brute_min_over_octahedron`` minimises at even n over the capped simplex in
one certified step. This module keeps the even-n grid loop it replaced, which
refines all eight faces in every round on the same lattices as the odd-n
grid, so tests can check that the certified value never lies above a grid
value. Import it with ``from oracle_reference import refine_every_face,
refined_faces``.
"""

from __future__ import annotations

import numpy as np

from entbound._linalg import chunks
from entbound.measures import classical_distance, octahedron_excess
from entbound.oracle import _FACES, _face_windows
from entbound.qstate import _even_signs


def refined_faces(state, kind, cfg) -> list:
    """[value, signs, barycentric (u, v, w) of the value's point] of all eight faces
    of an even-n state, each refined in every round."""
    s = _even_signs(state.n)
    p, quarter = (1 + s @ state.c.as_array()) / 4, s / 4

    def distances(pts):
        return classical_distance(p, (0.25 + quarter @ pts.T).T, kind)

    lattice, _ = _face_windows([(0.5, 0.5)], 0.5, cfg.grid_resolution)
    faces = []
    for signs in _FACES:
        vals = distances((lattice * signs[:, None]).T)
        g = int(np.argmin(vals))
        faces.append([float(vals[g]), signs, lattice[:, g].copy()])
    del lattice
    refining, halfwidth, window_points = faces, 0.5, (cfg.grid_resolution + 1) ** 2
    for _ in range(cfg.refine_rounds):
        halfwidth /= 4.0
        batches = [refining[chunk] for chunk in chunks(len(refining), window_points)]
        refining = []
        for batch in batches:
            lattice, windows = _face_windows([f[2][:2] for f in batch], halfwidth,
                                             cfg.grid_resolution)
            for face, window in zip(batch, windows):
                if window.start == window.stop:
                    continue
                vals = distances((lattice[:, window] * face[1][:, None]).T)
                g = int(np.argmin(vals))
                if vals[g] < face[0]:
                    face[0], face[2] = float(vals[g]), lattice[:, window.start + g].copy()
                refining.append(face)
            del lattice
    return faces


def refine_every_face(state, kind, cfg) -> float:
    """The even-n octahedron oracle's value with every face refined in every round."""
    if octahedron_excess(state.c) <= 0:
        return 0.0
    return min(f[0] for f in refined_faces(state, kind, cfg))
