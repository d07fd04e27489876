"""Great-circle distances between measuring stations.

Provides the contextual distance matrix G for cross-context consistency
analysis. Distances are haversine great circles on a sphere with the
IUGG mean Earth radius.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass

from .errors import DuplicateStation, InvalidCoordinate, UnparseableCell
from .matrices import LabeledSquareMatrix, MatrixKind, _pairwise

EARTH_RADIUS_KM = 6371.0088


@dataclass(frozen=True)
class StationMetadata:
    """Station id plus position in decimal degrees."""

    id: str
    lat_deg: float
    lon_deg: float

    def __post_init__(self):
        if not (math.isfinite(self.lat_deg) and -90.0 <= self.lat_deg <= 90.0):
            raise InvalidCoordinate(f"station {self.id!r}: latitude {self.lat_deg} out of [-90, 90]")
        if not (math.isfinite(self.lon_deg) and -180.0 < self.lon_deg <= 180.0):
            raise InvalidCoordinate(f"station {self.id!r}: longitude {self.lon_deg} out of (-180, 180]")


def haversine_km(a: StationMetadata, b: StationMetadata) -> float:
    """Great-circle distance in km between two stations."""
    lat1, lon1, lat2, lon2 = map(math.radians, (a.lat_deg, a.lon_deg, b.lat_deg, b.lon_deg))
    sin_dlat = math.sin((lat2 - lat1) / 2.0)
    sin_dlon = math.sin((lon2 - lon1) / 2.0)
    under = sin_dlat * sin_dlat + math.cos(lat1) * math.cos(lat2) * sin_dlon * sin_dlon
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(under)))


def _unique_ids(stations: list[StationMetadata], where: str) -> list[str]:
    ids = [s.id for s in stations]
    dupes = sorted(i for i, count in Counter(ids).items() if count > 1)
    if dupes:
        raise DuplicateStation(f"{where}duplicate station ids: {dupes}")
    return ids


def geo_distance_matrix(stations: list[StationMetadata]) -> LabeledSquareMatrix:
    """Pairwise haversine distances, labeled by station id."""
    ids = _unique_ids(stations, "")
    n = len(stations)
    if n < 2:
        raise ValueError(f"need at least 2 stations, got {n}")
    m = _pairwise(n, lambda i: [haversine_km(stations[i], b) for b in stations[i + 1 :]])
    return LabeledSquareMatrix(tuple(ids), m, MatrixKind.DISTANCE)


def read_stations_csv(path) -> list[StationMetadata]:
    """Parse a station metadata CSV with header id,lat_deg,lon_deg."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = list(csv.reader(fh))
    if not rows or [c.strip() for c in rows[0]] != ["id", "lat_deg", "lon_deg"]:
        raise UnparseableCell(f"{path}: expected header 'id,lat_deg,lon_deg'")
    out = []
    for row in rows[1:]:
        if not row:
            continue
        if len(row) != 3:
            raise UnparseableCell(f"{path}: malformed station row {row}")
        try:
            lat, lon = float(row[1]), float(row[2])
        except ValueError:
            raise UnparseableCell(f"{path}: malformed station row {row}") from None
        out.append(StationMetadata(row[0].strip(), lat, lon))
    _unique_ids(out, f"{path}: ")
    return out


def write_stations_csv(stations: list[StationMetadata], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "lat_deg", "lon_deg"])
        for s in stations:
            w.writerow([s.id, repr(s.lat_deg), repr(s.lon_deg)])
