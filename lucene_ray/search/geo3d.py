"""Geo3D (spatial3d) — the SPHERE planet-model subset, plus the documented
WGS84 divergence bound.

The reference's `spatial3d` module (`spatial3d/src/java/org/apache/lucene/
spatial3d/Geo3DPoint.java`, `geom/GeoStandardCircle.java`,
`geom/PlanetModel.java`) evaluates shapes in 3-D Cartesian space: points
convert once to unit vectors on the planet surface and membership tests
become vector algebra.  This module re-creates that evaluation path for
`PlanetModel.SPHERE`, where it is EXACTLY equivalent to the 2-D haversine
model (same great-circle metric, same mean radius) — so the spherical-cap
distance query here is a true Geo3D-style query with a SQL-checkable
oracle:

    in_circle(p) <=> dot(xyz(p), xyz(center)) >= cos(radius / R)

For `PlanetModel.WGS84` (ellipsoid-accurate Geo3D, NOT ported — the
remaining ~28k-LoC geometry library), the documented divergence bound vs
the spherical model is the Earth's flattening: surface distances computed
on the mean-radius sphere differ from ellipsoidal geodesics by AT MOST
±0.56% of the distance (the equatorial/polar radius spread around the
mean radius; `test_geo3d.py` measures it empirically with Andoyer's
geodesic approximation).  Callers needing long-distance or polar accuracy
beyond ~0.6% should treat `LatLonPoint.newDistanceQuery` radii as having
that uncertainty band.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geo import (
    MEAN_EARTH_RADIUS_M,
    circle_bbox,
    decode_latitude,
    decode_longitude,
    encode_latitude,
    encode_longitude,
)

# WGS84 constants (PlanetModel.WGS84) — used only for the divergence bound
WGS84_A = 6_378_137.0                 # equatorial radius (m)
WGS84_B = 6_356_752.314245            # polar radius (m)
WGS84_F = (WGS84_A - WGS84_B) / WGS84_A


def latlon_to_xyz(lat, lon) -> np.ndarray:
    """Degrees -> unit vectors on the sphere (`GeoPoint(PlanetModel.SPHERE,
    lat, lon)` up to the planet scale factor); shape (..., 3)."""
    latr, lonr = np.radians(lat), np.radians(lon)
    cl = np.cos(latr)
    return np.stack((cl * np.cos(lonr), cl * np.sin(lonr), np.sin(latr)),
                    axis=-1)


@dataclass(frozen=True)
class Geo3DCircleQuery:
    """`Geo3DPoint.newDistanceQuery`: docs whose quantized point lies
    inside the distance circle around (lat, lon).  Constant score.

    ``planet="sphere"`` (PlanetModel.SPHERE / GeoStandardCircle):
    membership evaluated in 3-D (dot product vs the cap cosine), the Geo3D
    computational model, coinciding with the haversine metric on the same
    mean radius.  ``planet="wgs84"`` (PlanetModel.WGS84 surface-distance
    semantics): ellipsoid geodesic membership via the Andoyer-Lambert
    first-order formula (relative error O(f^2) ~ 1e-5 — documented
    approximation of the reference's exact GeoDistanceShape arcs)."""
    field: str
    lat: float
    lon: float
    radius_m: float
    boost: float = 1.0
    planet: str = "sphere"

    @property
    def prune_radius_m(self) -> float:
        """Radius for the spherical bbox prunes (point-tree cells and whole
        shards).  WGS84 geodesics can be up to 0.56% shorter than the
        spherical metric, so under WGS84 the radius is inflated by that
        bound plus slack and no geodesic match is pruned."""
        return self.radius_m * (1.008 if self.planet == "wgs84" else 1.0)


def geo3d_circle_docs(preader, q: Geo3DCircleQuery) -> np.ndarray:
    """BKD bbox prune (same two-phase shape as LatLonPointDistanceQuery),
    then the 3-D cap test (sphere) or the Andoyer geodesic verify (wgs84)
    on decoded coordinates."""
    min_lat, max_lat, min_lon, max_lon = circle_bbox(q.lat, q.lon,
                                                     q.prune_radius_m)
    lat_lo, lat_hi = int(encode_latitude(min_lat)), \
        int(encode_latitude(max_lat))
    if min_lon <= max_lon:
        boxes = [((lat_lo, int(encode_longitude(min_lon))),
                  (lat_hi, int(encode_longitude(max_lon))))]
    else:
        boxes = [((lat_lo, int(encode_longitude(min_lon))),
                  (lat_hi, int(encode_longitude(180.0)))),
                 ((lat_lo, int(encode_longitude(-180.0))),
                  (lat_hi, int(encode_longitude(max_lon))))]
    cands = [preader.intersect_box(lo, hi) for lo, hi in boxes]
    cand = np.unique(np.concatenate(cands)) if cands else \
        np.zeros(0, np.int32)
    if len(cand) == 0:
        return cand.astype(np.int32)
    pts = preader.doc_values(cand.astype(np.int64))
    dlat = decode_latitude(pts[:, 0])
    dlon = decode_longitude(pts[:, 1])
    if q.planet == "wgs84":
        d = andoyer_wgs84_meters(dlat, dlon, q.lat, q.lon)
        return cand[d <= q.radius_m].astype(np.int32)
    xyz = latlon_to_xyz(dlat, dlon)
    center = latlon_to_xyz(q.lat, q.lon)
    cos_cap = np.cos(q.radius_m / MEAN_EARTH_RADIUS_M)
    return cand[xyz @ center >= cos_cap].astype(np.int32)


def andoyer_wgs84_meters(lat1, lon1, lat2, lon2):
    """Andoyer-Lambert first-order geodesic distance on the WGS84
    ellipsoid (published approximation, error O(f^2) ~ 1e-5 relative) —
    used only to MEASURE the sphere-vs-ellipsoid divergence for the
    documented bound; not a query path."""
    f = WGS84_F
    b1 = np.arctan((1 - f) * np.tan(np.radians(lat1)))
    b2 = np.arctan((1 - f) * np.tan(np.radians(lat2)))
    dl = np.radians(lon2) - np.radians(lon1)
    cos_s = (np.sin(b1) * np.sin(b2)
             + np.cos(b1) * np.cos(b2) * np.cos(dl))
    sigma = np.arccos(np.clip(cos_s, -1.0, 1.0))
    sin_s = np.sin(sigma)
    p = (b1 + b2) / 2.0
    q = (b2 - b1) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.where(sigma > 0,
                     (sigma - sin_s) * np.sin(p) ** 2 * np.cos(q) ** 2
                     / np.maximum(np.cos(sigma / 2) ** 2, 1e-300), 0.0)
        y = np.where(sin_s > 0,
                     (sigma + sin_s) * np.cos(p) ** 2 * np.sin(q) ** 2
                     / np.maximum(np.sin(sigma / 2) ** 2, 1e-300), 0.0)
    return WGS84_A * (sigma - f / 2.0 * (x + y))
