"""Unit tests for the Section 5.3 truth table."""

import pytest

from repro.core.truthtable import (
    DeltaRowChoice,
    delta_rows,
    enumerate_delta_rows,
    full_truth_table,
    render_row,
)
from repro.errors import MaintenanceError

O, D = DeltaRowChoice.OLD, DeltaRowChoice.DELTA


class TestEnumeration:
    def test_paper_p3_example(self):
        """With insertions to r1 and r2 only, the paper evaluates rows
        3, 5 and 7 of its table: r1⋈i2⋈r3, i1⋈r2⋈r3, i1⋈i2⋈r3."""
        rows = list(enumerate_delta_rows(3, [0, 1]))
        assert rows == [(O, D, O), (D, O, O), (D, D, O)]

    def test_single_changed_relation(self):
        rows = list(enumerate_delta_rows(3, [2]))
        assert rows == [(O, O, D)]

    def test_all_changed(self):
        rows = list(enumerate_delta_rows(2, [0, 1]))
        assert rows == [(O, D), (D, O), (D, D)]
        # Never the all-old row.
        assert (O, O) not in rows

    def test_no_changes_yields_nothing(self):
        assert list(enumerate_delta_rows(3, [])) == []

    def test_unchanged_positions_always_old(self):
        for row in enumerate_delta_rows(5, [1, 3]):
            assert row[0] is O and row[2] is O and row[4] is O

    def test_duplicate_positions_deduped(self):
        assert list(enumerate_delta_rows(2, [0, 0])) == [(D, O)]

    def test_out_of_range_position_rejected(self):
        with pytest.raises(MaintenanceError):
            list(enumerate_delta_rows(2, [5]))
        with pytest.raises(MaintenanceError):
            list(enumerate_delta_rows(2, [-1]))

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_row_count_is_2k_minus_1(self, k):
        rows = list(enumerate_delta_rows(k + 2, range(k)))
        assert len(rows) == 2**k - 1
        assert delta_rows(k + 2, range(k)) == rows

    def test_count_zero(self):
        # No changed relation, no row, however wide the view.
        for width in (0, 1, 5):
            assert delta_rows(width, []) == []

    def test_count_negative_rejected(self):
        # The list form checks positions as the charging one does.
        with pytest.raises(MaintenanceError):
            delta_rows(2, [-1])

    def test_rows_are_distinct(self):
        rows = list(enumerate_delta_rows(6, [0, 2, 4]))
        assert len(rows) == len(set(rows))


class TestRendering:
    def test_render_matches_paper_style(self):
        assert render_row((O, D, O), ["r1", "r2", "r3"]) == "r1 ⋈ i_r2 ⋈ r3"
        assert render_row((D, D, O), ["r1", "r2", "r3"]) == "i_r1 ⋈ i_r2 ⋈ r3"

    def test_render_width_mismatch(self):
        with pytest.raises(MaintenanceError):
            render_row((O, D), ["r1"])


class TestFullTable:
    def test_p3_has_eight_rows_in_paper_order(self):
        """The paper's p = 3 table: B1 B2 B3 counting up in binary with
        B3 least significant."""
        table = full_truth_table(3)
        assert len(table) == 8
        as_bits = [tuple(c.value for c in row) for row in table]
        assert as_bits == [
            (0, 0, 0),
            (0, 0, 1),
            (0, 1, 0),
            (0, 1, 1),
            (1, 0, 0),
            (1, 0, 1),
            (1, 1, 0),
            (1, 1, 1),
        ]

    def test_first_row_is_current_view(self):
        assert full_truth_table(2)[0] == (O, O)
