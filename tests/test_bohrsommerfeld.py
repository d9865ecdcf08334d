import pytest

from pseudoquant.bohrsommerfeld import (
    FoldedPoint,
    analyse,
    folded_count,
    folded_points,
    standard_dim,
)


class TestStandardDim:
    def test_validation(self):
        with pytest.raises(ValueError):
            standard_dim(0)
        with pytest.raises(ValueError, match="energy level E must be a positive integer"):
            folded_points(-3)


class TestFoldedPoints:
    def test_frozen_counts(self):
        assert [analyse(E).folded_count for E in range(1, 6)] == [0, 3, 8, 15, 24]

    def test_counts_match_only_at_E2(self):
        # the folded chart yields E^2 - 1 points versus 2E - 1, equal iff E = 2
        for E in range(1, 11):
            assert folded_count(E) == E**2 - 1
            assert (folded_count(E) == standard_dim(E)) == (E == 2)

    def test_symmetry(self):
        for E in (2, 3, 7, 12):
            pts = folded_points(E)
            vals = sorted(p.value for p in pts)
            assert vals == sorted(-v for v in vals)

    def test_zero_point_only_for_even_square(self):
        for E in range(1, 30):
            has_zero = any(p.l_squared == 0 for p in folded_points(E))
            assert has_zero == (E % 2 == 0)

    def test_points_are_built_in_ascending_order(self):
        for E in range(1, 61):
            pts = folded_points(E)
            assert pts == tuple(sorted(pts, key=lambda p: p.value)), E

    def test_exact_congruence(self):
        for E in (3, 4, 9):
            for p in folded_points(E):
                assert (E * E - p.l_squared) % 2 == 0
                assert E * E - p.l_squared > 0

    def test_monotone_growth(self):
        counts = [analyse(E).folded_count for E in range(1, 51)]
        assert all(b > a for a, b in zip(counts, counts[1:]))

    def test_closed_form_matches_enumeration(self):
        # folded_points stays the oracle for the closed form E^2 - 1
        for E in range(1, 81):
            assert folded_count(E) == len(folded_points(E)), E

    def test_closed_form_validation(self):
        with pytest.raises(ValueError):
            folded_count(0)

    def test_point_validation(self):
        with pytest.raises(ValueError):
            FoldedPoint(1, -1)
        with pytest.raises(ValueError):
            FoldedPoint(1, 0)
        with pytest.raises(ValueError):
            FoldedPoint(2, 4)
        assert FoldedPoint(-1, 4).value == -2.0
