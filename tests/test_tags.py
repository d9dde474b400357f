"""Unit tests for the Section 5.3 tag algebra.

Experiment E6 reproduces the paper's tag tables at benchmark level;
these tests pin every cell as a unit-level contract.
"""

import pytest

from repro.algebra.tags import Tag
from tests.reference import (
    JOIN_TAG_TABLE,
    UNARY_TAG_TABLE,
    combine_join_tags,
    unary_tag,
)

I, D, O, X = Tag.INSERT, Tag.DELETE, Tag.OLD, Tag.IGNORE

#: The paper's 9-row join tag table, transcribed verbatim.
PAPER_JOIN_TABLE = [
    (I, I, I),
    (I, D, X),
    (I, O, I),
    (D, I, X),
    (D, D, D),
    (D, O, D),
    (O, I, I),
    (O, D, D),
    (O, O, O),
]


class TestJoinTagTable:
    @pytest.mark.parametrize("left,right,expected", PAPER_JOIN_TABLE)
    def test_paper_table_cell(self, left, right, expected):
        assert combine_join_tags(left, right) is expected

    def test_table_is_exactly_nine_rows(self):
        assert len(JOIN_TAG_TABLE) == 9

    def test_table_is_symmetric(self):
        # The paper's table happens to be symmetric in its operands.
        for (a, b), out in JOIN_TAG_TABLE.items():
            assert JOIN_TAG_TABLE[(b, a)] is out

    def test_ignore_is_not_a_valid_operand(self):
        # "Tuples tagged as ignore are assumed to be discarded when
        # performing the join" — they can never be combined again.
        with pytest.raises(ValueError):
            combine_join_tags(X, O)
        with pytest.raises(ValueError):
            combine_join_tags(I, X)

    def test_old_is_identity(self):
        for tag in (I, D, O):
            assert combine_join_tags(tag, O) is tag
            assert combine_join_tags(O, tag) is tag

    def test_opposite_tags_annihilate(self):
        assert combine_join_tags(I, D) is X
        assert combine_join_tags(D, I) is X


class TestUnaryTagTable:
    @pytest.mark.parametrize("tag", [I, D, O])
    def test_select_project_preserve_tags(self, tag):
        assert unary_tag(tag) is tag

    def test_unary_table_is_exactly_three_rows(self):
        assert len(UNARY_TAG_TABLE) == 3

    def test_ignore_cannot_flow_through_unary(self):
        with pytest.raises(ValueError):
            unary_tag(X)


class TestTagSemantics:
    """The tag table must equal the algebraic expansion of
    (r − d ∪ i) ⋈ (s − d' ∪ i') with old = surviving tuples.

    A combination is an INSERT iff present only after the transaction,
    a DELETE iff present only before, OLD iff present in both, IGNORE
    iff present in neither.
    """

    @staticmethod
    def _presence(tag):
        # (present before, present after) for a tuple carrying the tag.
        return {
            I: (False, True),
            D: (True, False),
            O: (True, True),
        }[tag]

    @pytest.mark.parametrize("left", [I, D, O])
    @pytest.mark.parametrize("right", [I, D, O])
    def test_combination_matches_set_algebra(self, left, right):
        before = self._presence(left)[0] and self._presence(right)[0]
        after = self._presence(left)[1] and self._presence(right)[1]
        expected = {
            (False, True): I,
            (True, False): D,
            (True, True): O,
            (False, False): X,
        }[(before, after)]
        assert combine_join_tags(left, right) is expected
