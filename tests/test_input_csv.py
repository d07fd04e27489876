"""The series, station and matrix readers skip the same blank rows.

Every form in ``BLANK_ROWS``, put before the header, between two rows or at
the end of a file, leaves what each reader returns unchanged. A byte that is
not UTF-8 makes every input reader, the config file's too, name its line.
"""

import re

import numpy as np
import pytest

from stepdist import LabeledSquareMatrix, MatrixKind, StationMetadata, cli, read_matrix_csv, write_matrix_csv
from stepdist.errors import InputError
from stepdist.geo import read_stations_csv
from stepdist.pipeline import ingest

from tests.helpers import BLANK_ROWS, write_stations_csv


def series_file(path):
    path.write_text("t,a,b\r\n0,1.5,-2\r\n1,NA,3\r\n2,4,5e-3\r\n", newline="")


def station_file(path):
    write_stations_csv([StationMetadata("a", -33.87, 151.21), StationMetadata("b", 1.0, 2.0)], path)


def matrix_file(path):
    entries = np.array([[0.0, 0.1, 2.5], [0.1, 0.0, 1e-300], [2.5, 1e-300, 0.0]])
    write_matrix_csv(LabeledSquareMatrix(("a", "b", "c"), entries, MatrixKind.DISTANCE), path)


def read_series(path):
    series, _ = ingest(path)
    return [(ts.id, ts.values.tobytes()) for ts in series]


def read_matrix(path):
    m = read_matrix_csv(path, MatrixKind.DISTANCE)
    return m.labels, m.entries.tobytes()


KINDS = {
    "series": (series_file, read_series),
    "stations": (station_file, read_stations_csv),
    "matrix": (matrix_file, read_matrix),
}


@pytest.mark.parametrize("blank", BLANK_ROWS, ids=["empty", "spaces", "tab", "commas", "spaced_commas"])
@pytest.mark.parametrize("kind", KINDS)
def test_blank_row_anywhere_is_skipped(tmp_path, kind, blank):
    write, read = KINDS[kind]
    plain = tmp_path / "plain.csv"
    write(plain)
    want = read(plain)
    lines = plain.read_bytes().decode().split("\r\n")[:-1]
    for at in (0, 2, len(lines)):  # before the header, between rows, at the end
        path = tmp_path / f"blank_{at}.csv"
        path.write_text("".join(line + "\r\n" for line in [*lines[:at], blank, *lines[at:]]), newline="")
        assert read(path) == want, at
        if kind == "matrix":
            rewritten = tmp_path / "rewritten.csv"
            write_matrix_csv(read_matrix_csv(path, MatrixKind.DISTANCE), rewritten)
            assert rewritten.read_bytes() == plain.read_bytes(), at


def config_file(path):
    path.write_text("attribute = mean\nseed = 3\np = 2\n")


def read_config(path):
    return cli._read_config_file(path, list(cli._OPTIONS))


@pytest.mark.parametrize("bom", [False, True], ids=["plain", "bom"])
@pytest.mark.parametrize("kind", [*KINDS, "config"])
def test_byte_not_utf8_names_its_line(tmp_path, kind, bom):
    write, read = (config_file, read_config) if kind == "config" else KINDS[kind]
    path = tmp_path / "input.csv"
    write(path)
    lines = path.read_bytes().split(b"\n")
    lines[2] = lines[2][:1] + b"\xff" + lines[2][1:]
    path.write_bytes(b"\xef\xbb\xbf" * bom + b"\n".join(lines))
    with pytest.raises(InputError, match=f"^{re.escape(str(path))}: line 3: byte 0xff is not UTF-8 \\(invalid start byte\\)$"):
        read(path)
