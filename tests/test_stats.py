"""Unit tests for PatternStats (repro.core.stats)."""
import numpy as np
import pytest

from repro.core.cost_model import SubsetKernel
from repro.core.pattern import Predicate, conj, disj, seq
from repro.core.stats import MAX_KLEENE_EXP, PatternStats

RATES = {"A": 2.0, "B": 5.0, "C": 0.5, "D": 8.0}


def stats_for(pat, mode="exact"):
    return PatternStats.from_pattern(pat, RATES, temporal_mode=mode)


class TestConstruction:
    def test_counts_are_window_times_rate(self):
        st = stats_for(conj("ABC", window=10.0))
        assert np.allclose(st.counts, [20.0, 50.0, 5.0])

    def test_sel_matrix_symmetric(self):
        st = stats_for(conj("ABC", (Predicate(0, 2, sel=0.25),), window=10.0))
        assert st.sel[0, 2] == st.sel[2, 0] == 0.25
        assert st.sel[0, 1] == 1.0

    def test_multiple_predicates_multiply(self):
        pat = conj("AB", (Predicate(0, 1, sel=0.5), Predicate(0, 1, sel=0.2)))
        st = stats_for(pat)
        assert st.sel[0, 1] == pytest.approx(0.1)

    def test_filter_on_diagonal(self):
        pat = conj("AB", (Predicate(1, 1, kind="true", sel=0.3),))
        st = stats_for(pat)
        assert st.sel[1, 1] == pytest.approx(0.3)

    def test_negated_positions_excluded(self):
        st = stats_for(seq("ABCD", negated=(1,), window=10.0))
        assert st.n == 3
        assert st.positions == (0, 2, 3)
        assert np.allclose(st.counts, [20.0, 5.0, 80.0])

    def test_predicates_to_negated_positions_dropped(self):
        pat = seq("ABC", (Predicate(0, 1, sel=0.1),), negated=(1,))
        st = stats_for(pat)
        assert np.all(st.sel == 1.0)

    def test_kleene_inflation(self):
        st = stats_for(conj("ABC", kleene=(2,), window=10.0))
        assert st.counts[2] == pytest.approx(2.0 ** (10.0 * 0.5))

    def test_kleene_inflation_capped(self):
        st = stats_for(conj("AB", kleene=(1,), window=1000.0))
        assert st.counts[1] == pytest.approx(2.0**MAX_KLEENE_EXP)

    def test_seq_members_mask(self):
        st = stats_for(seq("ABC"))
        assert st.seq_members == 0b111
        assert stats_for(conj("ABC")).seq_members == 0

    def test_pairwise_mode_folds_ts_into_sel(self):
        st = stats_for(seq("ABC"), mode="pairwise")
        assert st.sel[0, 1] == st.sel[1, 2] == 0.5
        assert st.sel[0, 2] == 1.0
        assert st.seq_members == 0

    def test_or_pattern_rejected(self):
        with pytest.raises(ValueError):
            stats_for(disj([seq("AB", window=1.0)]))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            PatternStats.from_pattern(conj("AB"), RATES, temporal_mode="x")

    def test_last_seq_position(self):
        assert stats_for(seq("ABC")).last_seq_position == 2
        assert stats_for(conj("ABC")).last_seq_position is None
        # Negated last event: the last *positive* event is planning pos 2=D
        st = stats_for(seq("ABCD", negated=(2,)))
        assert st.positions[st.last_seq_position] == 3


class TestSubsetMath:
    def test_pm_singleton(self):
        pm = SubsetKernel(stats_for(conj("ABC", window=10.0))).pm
        assert pm(0b001) == pytest.approx(20.0)

    def test_pm_pair_includes_selectivity(self):
        pm = SubsetKernel(
            stats_for(conj("ABC", (Predicate(0, 1, sel=0.1),), window=10.0))
        ).pm
        assert pm(0b011) == pytest.approx(20 * 50 * 0.1)

    def test_pm_temporal_factor_exact(self):
        pm = SubsetKernel(stats_for(seq("ABC", window=10.0))).pm
        # subset {A, B}: 1/2! ordering factor
        assert pm(0b011) == pytest.approx(20 * 50 / 2)
        assert pm(0b111) == pytest.approx(20 * 50 * 5 / 6)

    def test_total_count(self):
        st = stats_for(conj("ABC", window=10.0))
        assert st.total_count() == pytest.approx(75.0)
