"""Great-circle distances between measuring stations.

Provides the contextual distance matrix G for cross-context consistency
analysis. Distances are haversine great circles on a sphere with the
IUGG mean Earth radius. Station files are read by ``matrices._csv_rows``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .errors import DuplicateStation, InvalidCoordinate, UnparseableCell
from .matrices import LabeledSquareMatrix, MatrixKind, _csv_rows, _pairwise

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
    rows = _csv_rows(path)
    if [c.strip() for c in next(rows, (0, []))[1]] != ["id", "lat_deg", "lon_deg"]:
        raise UnparseableCell(f"{path}: expected header 'id,lat_deg,lon_deg'")
    out = []
    for line, row in rows:
        try:
            sid, lat, lon = row
            lat, lon = float(lat), float(lon)
        except ValueError:
            raise UnparseableCell(f"{path}: row {line}: malformed station row {row}") from None
        try:
            out.append(StationMetadata(sid.strip(), lat, lon))
        except InvalidCoordinate as e:
            raise InvalidCoordinate(f"{path}: row {line}: {e}") from None
    _unique_ids(out, f"{path}: ")
    return out

