"""Team data model and text formats."""

import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamlog import Team, TeamFormatError, UnknownVariableError, parse_team, render_team
from teamlog.teams import team_from_object, team_to_object

from conftest import EXAMPLE_TEAM_TEXT, random_team


class TestConstruction:
    def test_rows_canonically_sorted(self):
        a = Team(("x", "y"), ((1, 0), (0, 1)))
        b = Team(("x", "y"), ((0, 1), (1, 0)))
        assert a.rows == b.rows == ((0, 1), (1, 0))

    def test_duplicate_rows_rejected(self):
        with pytest.raises(TeamFormatError, match="duplicate"):
            Team(("x", "y"), ((0, 1), (0, 1)))

    def test_duplicate_variable_rejected(self):
        # a repeated name would hide every column of it but the last
        with pytest.raises(TeamFormatError, match="duplicate"):
            Team(("x", "x"), ((0, 1),))
        with pytest.raises(TeamFormatError, match="duplicate"):
            Team(("x", "y", "x"), ())

    def test_arity_mismatch_rejected(self):
        with pytest.raises(TeamFormatError):
            Team(("x", "y"), ((0, 1, 1),))

    def test_non_bit_rejected(self):
        with pytest.raises(TeamFormatError):
            Team(("x",), ((2,),))

    def test_bad_row_near_the_end_of_a_large_team_is_named(self):
        rows = list(itertools.product((0, 1), repeat=10))  # 1024 rows
        domain = tuple(f"x{j}" for j in range(10))
        assert len(Team(domain, tuple(rows))) == 1024
        for bad, what in (((0, 1) * 3, "arity"), ((1,) * 9 + (2,), "non-bit"),
                          (rows[0], "duplicate")):
            team = rows[:-3] + [bad] + rows[-3:]
            with pytest.raises(TeamFormatError, match=re.escape(f"{bad}")) as e:
                Team(domain, tuple(team))
            assert what in str(e.value)

    def test_true_counts_as_one(self):
        assert Team(("x", "y"), ((True, 0), (0, 1))).rows == ((0, 1), (True, 0))
        with pytest.raises(TeamFormatError, match=re.escape("duplicate row (1,)")):
            Team(("x",), ((True,), (1,)))

    def test_index_unknown_variable(self):
        t = Team(("x",), ())
        assert t.index("x") == 0
        with pytest.raises(UnknownVariableError):
            t.index("y")


class TestTextFormat:
    def test_example_team(self, example_team):
        assert example_team.domain == ("x1", "x2", "x3", "x4")
        assert len(example_team) == 2
        assert (0, 0, 1, 1) in example_team.rows
        assert (1, 1, 1, 0) in example_team.rows

    def test_header_only_is_empty_team(self):
        t = parse_team("x y z\n")
        assert t.domain == ("x", "y", "z")
        assert len(t) == 0

    def test_duplicate_row_rejected(self):
        with pytest.raises(TeamFormatError, match="duplicate"):
            parse_team("x y\n01\n01\n")

    def test_row_length_mismatch(self):
        with pytest.raises(TeamFormatError):
            parse_team("x y\n011\n")

    def test_non_bit_value(self):
        with pytest.raises(TeamFormatError):
            parse_team("x y\n0x\n")

    def test_empty_text_rejected(self):
        with pytest.raises(TeamFormatError):
            parse_team("   \n \n")

    def test_duplicate_header_variable_rejected(self):
        with pytest.raises(TeamFormatError):
            parse_team("x x\n00\n")

    def test_round_trip(self, example_team):
        assert parse_team(render_team(example_team)) == example_team
        assert parse_team(EXAMPLE_TEAM_TEXT) == example_team

    def test_structured_round_trip(self, example_team):
        assert team_from_object(team_to_object(example_team)) == example_team

    def test_structured_bad_object(self):
        with pytest.raises(TeamFormatError):
            team_from_object({"vars": ["x"]})

    @pytest.mark.parametrize("obj", [
        {"vars": "xy", "rows": [[0, 1]]},  # a string, not a list of names
        {"vars": ["x", "y"], "rows": ["01"]},  # a row string, not bits
        {"vars": ["x", "y"], "rows": [[True, 1.7]]},  # neither is an int
        {"vars": ["x", "y"], "rows": [(0, 1)]},  # no JSON array
    ])
    def test_structured_exact_types(self, obj):
        with pytest.raises(TeamFormatError):
            team_from_object(obj)

    def test_structured_duplicate_variable_rejected(self):
        with pytest.raises(TeamFormatError, match="duplicate"):
            team_from_object({"vars": ["x", "x"], "rows": [[0, 1]]})


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10 ** 9), st.integers(1, 4))
    def test_text_round_trip_and_canonical_order(self, seed, width):
        rng = random.Random(seed)
        domain = tuple(f"v{i}" for i in range(width))
        t = random_team(rng, domain, max_rows=1 << width)
        again = parse_team(render_team(t))
        assert again == t
        assert again.rows == tuple(sorted(again.rows))
