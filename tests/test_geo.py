import math
import re

import numpy as np
import pytest

from stepdist import EARTH_RADIUS_KM, StationMetadata, geo_distance_matrix, haversine_km
from stepdist.errors import DuplicateStation, InvalidCoordinate, UnparseableCell
from stepdist.geo import read_stations_csv

from tests.helpers import haversine_oracle, write_stations_csv


def random_station(rng, sid):
    return StationMetadata(sid, float(rng.uniform(-89, 89)), float(rng.uniform(-179, 180)))


class TestHaversine:
    def test_identical_points_zero(self):
        a = StationMetadata("a", -33.87, 151.21)
        assert haversine_km(a, StationMetadata("b", -33.87, 151.21)) == 0.0

    def test_antipodal_equatorial(self):
        a = StationMetadata("a", 0.0, 0.0)
        b = StationMetadata("b", 0.0, 180.0)
        assert haversine_km(a, b) == pytest.approx(math.pi * EARTH_RADIUS_KM, rel=1e-12)

    def test_against_independent_oracle(self):
        rng = np.random.default_rng(0)
        for i in range(20):
            a = random_station(rng, f"a{i}")
            b = random_station(rng, f"b{i}")
            got = haversine_km(a, b)
            want = haversine_oracle(a.lat_deg, a.lon_deg, b.lat_deg, b.lon_deg)
            assert got == pytest.approx(want, rel=1e-3)

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        for i in range(20):
            a, b = random_station(rng, "a"), random_station(rng, "b")
            assert haversine_km(a, b) == haversine_km(b, a)

    @pytest.mark.parametrize("lat,lon", [(91.0, 0.0), (-91.0, 0.0), (0.0, 181.0), (0.0, -180.0)])
    def test_invalid_coordinates(self, lat, lon):
        with pytest.raises(InvalidCoordinate):
            StationMetadata("bad", lat, lon)


class TestGeoMatrix:
    def test_coincident_stations(self):
        m = geo_distance_matrix(
            [StationMetadata("a", 10.0, 20.0), StationMetadata("b", 10.0, 20.0)]
        )
        assert m.entries[0, 1] == 0.0

    def test_equatorial_arc_ratios(self):
        stations = [StationMetadata(s, 0.0, lon) for s, lon in (("a", 0.0), ("b", 1.0), ("c", 2.0))]
        m = geo_distance_matrix(stations).entries
        assert m[0, 1] == pytest.approx(m[1, 2], rel=1e-12)
        assert m[0, 2] == pytest.approx(2 * m[0, 1], rel=1e-12)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(2)
        stations = [random_station(rng, f"s{i}") for i in range(6)]
        m = geo_distance_matrix(stations).entries
        assert np.array_equal(m, m.T)
        n = len(stations)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert m[i, j] <= m[i, k] + m[k, j] + 1e-9

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DuplicateStation):
            geo_distance_matrix(
                [StationMetadata("x", 0.0, 0.0), StationMetadata("x", 1.0, 1.0)]
            )

    def test_one_station_rejected(self):
        with pytest.raises(ValueError, match="^need at least 2 stations, got 1$"):
            geo_distance_matrix([StationMetadata("x", 0.0, 0.0)])


class TestStationCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        stations = [random_station(rng, f"s{i}") for i in range(5)]
        path = tmp_path / "stations.csv"
        write_stations_csv(stations, path)
        assert read_stations_csv(path) == stations

    @pytest.mark.parametrize("blank", ["   ", ",,"], ids=["whitespace", "commas"])
    def test_blank_row_skipped(self, tmp_path, blank):
        path = tmp_path / "stations.csv"
        path.write_text(f"id,lat_deg,lon_deg\nx,1,2\n{blank}\ny,3,4\n")
        assert read_stations_csv(path) == [StationMetadata("x", 1.0, 2.0), StationMetadata("y", 3.0, 4.0)]

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("name,lat,lon\nx,0,0\n")
        with pytest.raises(UnparseableCell):
            read_stations_csv(path)

    @pytest.mark.parametrize("row", ["x,xx,0", "x,0", "x,0,0,0"])
    def test_malformed_row_is_input_error(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"id,lat_deg,lon_deg\n{row}\n")
        with pytest.raises(UnparseableCell):
            read_stations_csv(path)

    @pytest.mark.parametrize(
        "row, error, detail",
        [
            ("b,x,3", UnparseableCell, "malformed station row ['b', 'x', '3']"),
            ("b,0", UnparseableCell, "malformed station row ['b', '0']"),
            ("b,100,3", InvalidCoordinate, "station 'b': latitude 100.0 out of [-90, 90]"),
            ("b,0,-180", InvalidCoordinate, "station 'b': longitude -180.0 out of (-180, 180]"),
        ],
    )
    def test_bad_row_error_names_file_and_line(self, tmp_path, row, error, detail):
        # The blank line 3 counts: the bad row is line 4 of the file.
        path = tmp_path / "bad.csv"
        path.write_text(f"id,lat_deg,lon_deg\na,0,0\n\n{row}\n")
        with pytest.raises(error, match=f"^{re.escape(f'{path}: row 4: {detail}')}$"):
            read_stations_csv(path)
