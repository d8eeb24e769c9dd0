"""Seeded input generators for the benchmark.

Everything here is built from ``numpy.random.default_rng(seed)`` and plain
IEEE arithmetic, and is written as text with fixed formatting, so one seed
gives byte-identical files on any machine.  Nothing is downloaded and
nothing from ``persvec`` is used: the program only ever sees the files.
"""

from __future__ import annotations

import os

import numpy as np

JITTER = 0.02  # per-coordinate jitter of a class's template points
NOISE_BAND = 0.05  # how far above the diagonal noise points lie
SPHERE_NOISE = 0.03  # per-vertex radial noise of the sphere grids


def synth_points(rng, classes, per_class, base_points, noise_points):
    """Class-structured diagrams as ``[(model_id, label, [(b, d), ...])]``.

    Each class has ``base_points`` template points (births in [0, 0.5],
    gaps in [0.2, 0.5]); every member jitters them by up to ``JITTER`` per
    coordinate and adds ``noise_points`` points within ``NOISE_BAND`` of the
    diagonal, the low-persistence noise the S and T maps suppress.
    """
    models = []
    for ci in range(classes):
        births = rng.uniform(0.0, 0.5, base_points)
        deaths = births + rng.uniform(0.2, 0.5, base_points)
        for mi in range(per_class):
            b = births + rng.uniform(-JITTER, JITTER, base_points)
            d = deaths + rng.uniform(-JITTER, JITTER, base_points)
            nb = rng.uniform(0.0, 1.0, noise_points)
            nd = nb + rng.uniform(0.0, NOISE_BAND, noise_points)
            pts = list(zip(np.concatenate([b, nb]).tolist(),
                           np.concatenate([d, nd]).tolist()))
            pts = [(u, v if v > u else u + 1e-9) for u, v in pts]
            models.append((f"c{ci:02d}m{mi:02d}", f"class{ci:02d}", pts))
    return models


def write_diagram_db(directory, models):
    """One ``<id>.csv`` per model plus ``labels.csv``, as the CLI reads them."""
    os.makedirs(directory, exist_ok=True)
    for model_id, _, pts in models:
        rows = "".join(f"{u!r},{v!r}\n" for u, v in pts)
        with open(os.path.join(directory, f"{model_id}.csv"), "w") as fh:
            fh.write("# birth,death\n" + rows)
    with open(os.path.join(directory, "labels.csv"), "w") as fh:
        fh.write("id,class\n" + "".join(f"{m},{c}\n" for m, c, _ in models))


def sphere_grid(rng, n_lat, n_lon):
    """Noisy deformed sphere as (vertices (n_lat*n_lon, 3), triangles).

    A latitude/longitude grid without pole vertices, wrapped in longitude.
    The radius carries a few random low-frequency bumps, a one-sided bulge
    (so the shape has a well-defined axis) and per-vertex noise (so the
    filters have many shallow local minima, i.e. many diagram points).
    """
    theta = (np.arange(n_lat) + 0.5) * (np.pi / n_lat)
    phi = np.arange(n_lon) * (2.0 * np.pi / n_lon)
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    radius = np.ones_like(th)
    for _ in range(3):
        k_th, k_ph = rng.integers(1, 5, 2)
        amp, shift = rng.uniform(0.02, 0.08), rng.uniform(0, 2 * np.pi)
        radius += amp * np.sin(k_th * th) * np.cos(k_ph * ph + shift)
    radius += rng.uniform(0.2, 0.4) * np.maximum(np.cos(th), 0.0)
    radius += SPHERE_NOISE * rng.standard_normal(th.shape)
    verts = np.stack(
        [radius * np.sin(th) * np.cos(ph), radius * np.sin(th) * np.sin(ph),
         radius * np.cos(th)], axis=-1).reshape(-1, 3)
    i, j = np.meshgrid(np.arange(n_lat - 1), np.arange(n_lon), indexing="ij")
    v00 = i * n_lon + j
    v01 = i * n_lon + (j + 1) % n_lon
    v10 = v00 + n_lon
    v11 = v01 + n_lon
    tris = np.concatenate([
        np.stack([v00, v10, v11], axis=-1).reshape(-1, 3),
        np.stack([v00, v11, v01], axis=-1).reshape(-1, 3),
    ])
    return verts, tris


def write_off(path, verts, tris):
    """ASCII OFF with coordinates rounded to 6 decimals."""
    with open(path, "w") as fh:
        fh.write(f"OFF\n{len(verts)} {len(tris)} 0\n")
        np.savetxt(fh, verts, fmt="%.6f")
        np.savetxt(fh, np.column_stack([np.full(len(tris), 3), tris]), fmt="%d")
