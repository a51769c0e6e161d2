"""Checks for the bundled datasets and the data-file reader."""

import numpy as np
import pytest

from genfit.datasets import BUNDLED, DataParseError, load_dataset, parse_data_text


class TestBundled:
    def test_names(self):
        assert BUNDLED == ("bearing", "earthquake", "pollution")

    def test_bearing(self):
        data = load_dataset("bearing")
        assert data.size == 10
        assert data.min() == pytest.approx(152.7)
        assert data.max() == pytest.approx(422.6)

    def test_pollution(self):
        data = load_dataset("pollution")
        assert data.size == 20
        assert data.min() == pytest.approx(1364.0)
        assert 2154.0 in data
        assert data.max() == pytest.approx(20400.0)

    def test_earthquake(self):
        data = load_dataset("earthquake")
        assert data.size == 182
        assert data[0] == pytest.approx(7.5)
        assert data.max() == pytest.approx(370.0)
        # the dataset contains exact ties, which the tie handling relies on
        assert np.unique(data).size < data.size

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError, match="bearing"):
            load_dataset("/no/such/file.txt")

    def test_path_identity(self, tmp_path):
        data = load_dataset("bearing")
        p = tmp_path / "copy.txt"
        p.write_text("\n".join(repr(float(v)) for v in data))
        np.testing.assert_array_equal(load_dataset(str(p)), data)


class TestParser:
    def test_whitespace_and_commas(self):
        text = "1.0 2.0\n3.0,4.0\n\t5.0"
        np.testing.assert_array_equal(parse_data_text(text), [1, 2, 3, 4, 5])

    def test_comments_and_blank_lines(self):
        text = "# header comment\n1.0\n\n# middle\n2.0\n"
        np.testing.assert_array_equal(parse_data_text(text), [1, 2])

    def test_single_header_line_skipped(self):
        text = "value\n1.5\n2.5\n"
        np.testing.assert_array_equal(parse_data_text(text), [1.5, 2.5])

    def test_partly_numeric_first_line_is_not_a_header(self):
        # a first line that starts with a number is data, so its bad token is an error
        with pytest.raises(DataParseError) as err:
            parse_data_text("1.0 2.0 oops\n3.0")
        assert (err.value.token, err.value.line) == ("oops", 1)

    def test_scientific_notation(self):
        np.testing.assert_allclose(parse_data_text("1e-3 2.5E2"), [0.001, 250.0])

    def test_bad_token_reports_line(self):
        with pytest.raises(DataParseError) as err:
            parse_data_text("1.0\n2.0 oops\n3.0")
        assert err.value.line == 2
        assert err.value.token == "oops"

    def test_empty(self):
        assert parse_data_text("").size == 0
