"""Text reporting: alignment, series, improvement lines."""

import numpy as np
import pytest

from repro.util.tables import format_improvement, format_series, format_table


class TestFormatTable:
    def test_basic_alignment(self):
        rows = [{"a": 1, "b": "xx"}, {"a": 23, "b": "y"}]
        text = format_table(rows)
        lines = text.splitlines()
        assert len(lines) == 4  # header, rule, 2 rows
        assert lines[0].split() == ["a", "b"]
        # columns right-aligned to equal width
        assert len(set(len(l) for l in lines)) == 1

    def test_title(self):
        text = format_table([{"x": 1}], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_union_of_keys_in_first_seen_order(self):
        rows = [{"a": 1}, {"b": 2, "a": 3}]
        header = format_table(rows).splitlines()[0].split()
        assert header == ["a", "b"]

    def test_missing_cells_blank(self):
        text = format_table([{"a": 1}, {"b": 2}])
        assert text  # renders without KeyError

    def test_float_formatting(self):
        text = format_table([{"v": 3.14159265}])
        assert "3.142" in text

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            format_table([])


class TestFormatSeries:
    def test_series_table(self):
        x = np.array([1.0, 2.0])
        text = format_series(x, {"read": np.array([5.0, 6.0]),
                                 "pdc": np.array([7.0, 8.0])}, x_label="disks")
        lines = text.splitlines()
        assert lines[0].split() == ["disks", "read", "pdc"]
        assert len(lines) == 4

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_series(np.array([1.0]), {"s": np.array([1.0, 2.0])}, x_label="x")


class TestFormatImprovement:
    def test_positive_improvement(self):
        line = format_improvement("read", np.array([8.0, 9.0]),
                                  "pdc", np.array([10.0, 12.0]))
        assert "read vs pdc" in line
        assert "+22.5%" in line  # mean of 20% and 25%

    def test_degradation_shows_negative(self):
        line = format_improvement("a", np.array([12.0]), "b", np.array([10.0]))
        assert "-20.0%" in line

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            format_improvement("a", np.array([1.0]), "b", np.array([0.0]))
