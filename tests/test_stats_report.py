"""Report formatting."""

from repro.stats.report import format_table


class TestFormatTable:
    def test_aligns_columns(self):
        text = format_table(["name", "count"],
                            [["a", 1], ["long-name", 12345]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "-" in lines[1]
        assert lines[2].index("1") == lines[3].index("12,345")

    def test_formats_ints_with_separators(self):
        text = format_table(["n"], [[1234567]])
        assert "1,234,567" in text

    def test_formats_floats_to_three_places(self):
        text = format_table(["x"], [[1.23456]])
        assert "1.235" in text

    def test_empty_rows(self):
        text = format_table(["a", "b"], [])
        assert "a" in text and "b" in text
