"""Geo3D SPHERE subset (search/geo3d.py): 3-D cap membership vs the
haversine oracle, searcher integration, and the documented WGS84
sphere-vs-ellipsoid divergence bound."""

import numpy as np

from lucene_ray.search.geo import MEAN_EARTH_RADIUS_M, haversine_meters
from lucene_ray.search.geo3d import (
    andoyer_wgs84_meters,
    latlon_to_xyz,
)


def _rand_points(n, seed):
    rng = np.random.default_rng(seed)
    return (rng.uniform(-85, 85, n), rng.uniform(-180, 180, n),
            rng.uniform(-85, 85, n), rng.uniform(-180, 180, n))


def test_cap_test_equals_haversine():
    """dot(p, c) >= cos(r/R) <=> haversine(p, c) <= r (same metric)."""
    lat1, lon1, lat2, lon2 = _rand_points(5000, 7)
    d = haversine_meters(lat1, lon1, lat2, lon2)
    dots = np.einsum("ij,ij->i", latlon_to_xyz(lat1, lon1),
                     latlon_to_xyz(lat2, lon2))
    for r in (100_000.0, 1_500_000.0, 8_000_000.0):
        inside_h = d <= r
        inside_cap = dots >= np.cos(r / MEAN_EARTH_RADIUS_M)
        # exclude points within 1 m of the boundary (float representation)
        far = np.abs(d - r) > 1.0
        assert np.array_equal(inside_h[far], inside_cap[far])


def test_geo3d_query_matches_latlon_distance(ray_session):
    """Geo3DCircleQuery (SPHERE) returns the same counts as
    LatLonPoint.newDistanceQuery on the indexed corpus."""
    from lucene_ray.pipelines.flagship import (
        GEO3D_CIRCLE2,
        GEO_CIRCLE,
        build_geo_index,
    )
    from lucene_ray.search.geo import LatLonDistanceQuery
    from lucene_ray.search.geo3d import Geo3DCircleQuery
    from lucene_ray.search.searcher import IndexSearcher

    s = IndexSearcher(build_geo_index("/root/testdata/sf0.001"))
    for circle in (GEO_CIRCLE, GEO3D_CIRCLE2):
        n2d = s.count(LatLonDistanceQuery("loc", *circle))
        n3d = s.count(Geo3DCircleQuery("loc", *circle))
        assert n3d == n2d
        assert n3d > 0


def test_wgs84_divergence_bound():
    """The documented bound: mean-radius spherical distances differ from
    WGS84 geodesics (Andoyer) by at most 0.56% — and the divergence is
    real (the ellipsoid is not a sphere), peaking along meridians."""
    lat1, lon1, lat2, lon2 = _rand_points(20000, 11)
    d_sphere = haversine_meters(lat1, lon1, lat2, lon2)
    d_wgs = andoyer_wgs84_meters(lat1, lon1, lat2, lon2)
    keep = d_sphere > 10_000          # relative bound needs distance
    rel = np.abs(d_sphere[keep] - d_wgs[keep]) / d_wgs[keep]
    assert rel.max() <= 0.0056, rel.max()
    assert rel.max() > 0.001          # divergence is real, not noise


def test_andoyer_sanity():
    """Known geodesic scales: a meridian quarter-arc is ~10,001.97 km on
    WGS84; the equator quarter is ~10,018.75 km."""
    quarter_meridian = andoyer_wgs84_meters(0.0, 0.0, 90.0 - 1e-9, 0.0)
    assert abs(quarter_meridian - 10_001_966) < 5_000
    quarter_equator = andoyer_wgs84_meters(0.0, 0.0, 0.0, 90.0)
    assert abs(quarter_equator - 10_018_754) < 5_000


def test_wgs84_circle_query_diverges_from_sphere(ray_session):
    """The WGS84 path is real: it matches an Andoyer brute force exactly
    and (at the high-latitude circle) can differ from the spherical
    count."""
    import numpy as np

    from lucene_ray.pipelines.flagship import (
        GEO3D_CIRCLE2,
        GEO_CIRCLE,
        build_geo_index,
    )
    from lucene_ray.search.geo3d import Geo3DCircleQuery
    from lucene_ray.search.searcher import IndexSearcher

    s = IndexSearcher(build_geo_index("/root/testdata/sf0.001"))
    for circle in (GEO_CIRCLE, GEO3D_CIRCLE2):
        lat, lon, r = circle
        n = s.count(Geo3DCircleQuery("loc", lat, lon, r, planet="wgs84"))
        # brute force over every indexed point (decoded like the engine)
        total = 0
        for pid in s._pids:
            rdr = s.reader(pid)
            pr = rdr.points("loc")
            pts = pr.doc_values(np.arange(rdr.doc_count, dtype=np.int64))
            from lucene_ray.search.geo import decode_latitude, decode_longitude
            d = andoyer_wgs84_meters(decode_latitude(pts[:, 0]),
                                     decode_longitude(pts[:, 1]), lat, lon)
            live = np.ones(rdr.doc_count, bool) if rdr.deleted is None \
                else ~rdr.deleted
            total += int(((d <= r) & live).sum())
        assert n == total
        assert n > 0


def test_wgs84_circle_shard_prune_uses_inflated_radius(ray_session,
                                                       tmp_path):
    """A shard whose points all lie just outside the spherical bbox of the
    circle (north of it along the meridian, where WGS84 geodesics are
    shorter than the sphere's) but inside the geodesic radius must not be
    skipped by the shard-level bbox prune."""
    import pyarrow as pa
    import ray.data as rd

    from lucene_ray.index.build import build_index
    from lucene_ray.search.geo import (
        circle_bbox,
        decode_latitude,
        decode_longitude,
        encode_latitude,
        encode_longitude,
    )
    from lucene_ray.search.geo3d import Geo3DCircleQuery
    from lucene_ray.search.searcher import IndexSearcher
    from lucene_ray.sources.transcripts import synth_transcripts

    radius = 1_000_000.0
    n = 200
    lat = np.linspace(9.0, 9.06, n)               # spherical bbox ends ~8.99
    lon = np.linspace(-0.01, 0.01, n)
    assert lat.min() > circle_bbox(0.0, 0.0, radius)[1]
    t = synth_transcripts(n, seed=3).sort_by(
        [("conv_id", "ascending"), ("turn_idx", "ascending")])
    lat_e, lon_e = encode_latitude(lat), encode_longitude(lon)
    t = t.append_column("lat_e", pa.array(lat_e, type=pa.int64()))
    t = t.append_column("lon_e", pa.array(lon_e, type=pa.int64()))
    d = str(tmp_path / "edge")
    build_index(rd.from_arrow(t), d, target_docs_per_partition=n,
                point_cols={"loc": ("lat_e", "lon_e")}, input_desc="geoedge")
    want = int(np.count_nonzero(andoyer_wgs84_meters(
        decode_latitude(lat_e), decode_longitude(lon_e), 0.0, 0.0) <= radius))
    assert 0 < want < n
    s = IndexSearcher(d)
    assert s.count(Geo3DCircleQuery("loc", 0.0, 0.0, radius,
                                    planet="wgs84")) == want
    assert s.count(Geo3DCircleQuery("loc", 0.0, 0.0, radius)) == 0
