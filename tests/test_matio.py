"""Matrix file formats: JSON object, CSV fallback, result files."""

import json

import numpy as np
import pytest

from sympspec.core import random_pd, williamson
from sympspec.errors import MatrixFormatError, ValidationError
from sympspec.matio import (
    load_matrix,
    matrix_from_obj,
    matrix_to_obj,
    save_matrix,
    save_williamson,
)

RNG = np.random.default_rng(606)


def test_json_round_trip_is_exact(tmp_path):
    a = random_pd(3, RNG)
    path = tmp_path / "a.json"
    save_matrix(a, path)
    back = load_matrix(path)
    assert np.array_equal(back, a)


def test_matrix_obj_shape():
    a = np.eye(4)
    obj = matrix_to_obj(a)
    assert obj["dim"] == 4
    assert obj["entries"][0] == [1.0, 0.0, 0.0, 0.0]
    assert np.array_equal(matrix_from_obj(obj), a)


def test_csv_round_trip(tmp_path):
    a = random_pd(2, RNG)
    path = tmp_path / "a.csv"
    lines = "\n".join(",".join(repr(float(v)) for v in row) for row in a)
    path.write_text(lines + "\n")
    back = load_matrix(path)
    assert np.array_equal(back, a)


def test_load_sniffs_json_by_leading_brace(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text('  {"dim": 2, "entries": [[1.0, 0.0], [0.0, 1.0]]}')
    assert np.array_equal(load_matrix(path), np.eye(2))


def test_dim_mismatch_rejected():
    with pytest.raises(MatrixFormatError):
        matrix_from_obj({"dim": 3, "entries": [[1.0, 0.0], [0.0, 1.0]]})
    with pytest.raises(MatrixFormatError):
        matrix_from_obj({"dim": True, "entries": [[5.0]]})


def test_missing_keys_rejected():
    with pytest.raises(MatrixFormatError):
        matrix_from_obj({"entries": [[1.0]]})
    with pytest.raises(MatrixFormatError):
        matrix_from_obj({"dim": 1})


def test_non_finite_entries_rejected():
    with pytest.raises(MatrixFormatError):
        matrix_from_obj({"dim": 2, "entries": [[1.0, 0.0], [0.0, float("nan")]]})


def test_ragged_csv_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(MatrixFormatError):
        load_matrix(path)


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(MatrixFormatError):
        load_matrix(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(MatrixFormatError):
        load_matrix(tmp_path / "nope.json")


def test_save_williamson_contents(tmp_path):
    a = random_pd(2, RNG)
    dec = williamson(a)
    path = tmp_path / "w.json"
    save_williamson(dec, path)
    data = json.loads(path.read_text())
    assert set(data) >= {"d", "M", "residual_A", "residual_J"}
    assert np.allclose(np.array(data["d"]), dec.d)
    assert np.array_equal(np.array(data["M"]), dec.m)


def test_serialized_floats_survive_17_digit_round_trip(tmp_path):
    value = 1.0 / 3.0
    a = np.array([[value, 0.0], [0.0, value]])
    path = tmp_path / "third.json"
    save_matrix(a, path)
    text = path.read_text()
    assert "0.3333333333333333" in text
    assert np.array_equal(load_matrix(path), a)


def test_complex_matrices_are_refused_not_cast(tmp_path):
    a = np.eye(2) + 1j * np.eye(2)
    path = tmp_path / "c.json"
    with pytest.raises(ValidationError, match="must be real"):
        matrix_to_obj(a)
    with pytest.raises(ValidationError, match="must be real"):
        save_matrix(a, path)
    assert not path.exists()


@pytest.mark.parametrize("bad", [[[1.0, 2.0], [3.0]], np.eye(2) + 1j * np.eye(2)],
                         ids=["ragged", "complex"])
def test_a_failed_save_leaves_the_old_file_byte_for_byte(tmp_path, bad):
    path = tmp_path / "a.json"
    save_matrix(random_pd(1, RNG), path)
    before = path.read_bytes()
    with pytest.raises(ValueError):
        save_matrix(bad, path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]

