"""Tests for the interaction-frequency ledger."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.social.interactions import InteractionLedger


class TestInteractionLedger:
    def test_initial_empty(self):
        ledger = InteractionLedger(3)
        assert ledger.frequency(0, 1) == 0.0
        assert ledger.total_out(0) == 0.0
        assert ledger.share(0, 1) == 0.0

    def test_record_accumulates(self):
        ledger = InteractionLedger(3)
        ledger.record(0, 1)
        ledger.record(0, 1, 2.0)
        assert ledger.frequency(0, 1) == 3.0

    def test_directed(self):
        ledger = InteractionLedger(3)
        ledger.record(0, 1, 5.0)
        assert ledger.frequency(1, 0) == 0.0

    def test_share_normalises_by_row(self):
        ledger = InteractionLedger(3)
        ledger.record(0, 1, 3.0)
        ledger.record(0, 2, 1.0)
        assert ledger.share(0, 1) == pytest.approx(0.75)
        assert ledger.share(0, 2) == pytest.approx(0.25)

    def test_share_invariant_pumping_one_dilutes_others(self):
        """The Eq. (2) anti-gaming property: raising f(i,j) lowers every
        other partner's share."""
        ledger = InteractionLedger(4)
        ledger.record(0, 1, 5.0)
        ledger.record(0, 2, 5.0)
        before = ledger.share(0, 2)
        ledger.record(0, 1, 100.0)
        assert ledger.share(0, 2) < before

    def test_share_matrix_rows_sum_to_one_or_zero(self):
        ledger = InteractionLedger(4)
        ledger.record(0, 1, 2.0)
        ledger.record(2, 3, 1.0)
        rows = ledger.share_matrix().sum(axis=1)
        assert rows[0] == pytest.approx(1.0)
        assert rows[1] == 0.0
        assert rows[2] == pytest.approx(1.0)

    def test_rejects_self_interaction(self):
        ledger = InteractionLedger(3)
        with pytest.raises(ValueError):
            ledger.record(1, 1)

    def test_rejects_non_positive_count(self):
        ledger = InteractionLedger(3)
        with pytest.raises(ValueError):
            ledger.record(0, 1, 0.0)

    def test_counts_matrix_read_only(self):
        ledger = InteractionLedger(3)
        with pytest.raises(ValueError):
            ledger.counts_matrix()[0, 1] = 1.0

    def test_reset(self):
        ledger = InteractionLedger(3)
        ledger.record(0, 1)
        ledger.reset()
        assert ledger.total_out(0) == 0.0

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            InteractionLedger(0)

    @given(
        counts=st.lists(
            st.tuples(
                st.integers(0, 4), st.integers(0, 4), st.floats(0.1, 10.0)
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_shares_are_probabilities(self, counts):
        ledger = InteractionLedger(5)
        for i, j, c in counts:
            if i != j:
                ledger.record(i, j, c)
        m = ledger.share_matrix()
        assert np.all(m >= 0)
        assert np.all(m <= 1 + 1e-12)
        row_sums = m.sum(axis=1)
        assert np.all((np.abs(row_sums - 1) < 1e-9) | (row_sums == 0))


class TestDecayNodes:
    def _ledger(self):
        ledger = InteractionLedger(4)
        for i in range(4):
            for j in range(4):
                if i != j:
                    ledger.record(i, j, 8.0)
        return ledger

    def test_decays_rows_and_columns(self):
        ledger = self._ledger()
        ledger.decay_nodes(np.array([1]), 0.5)
        assert ledger.frequency(1, 0) == pytest.approx(4.0)
        assert ledger.frequency(0, 1) == pytest.approx(4.0)
        # Pairs not touching node 1 are untouched.
        assert ledger.frequency(2, 3) == pytest.approx(8.0)

    def test_offline_offline_pairs_decay_squared(self):
        ledger = self._ledger()
        ledger.decay_nodes(np.array([1, 2]), 0.5)
        assert ledger.frequency(1, 2) == pytest.approx(2.0)
        assert ledger.frequency(2, 1) == pytest.approx(2.0)
        assert ledger.frequency(1, 3) == pytest.approx(4.0)

    def test_factor_one_is_noop(self):
        ledger = self._ledger()
        before = ledger.counts_matrix()
        ledger.decay_nodes(np.array([0, 1]), 1.0)
        assert np.array_equal(ledger.counts_matrix(), before)

    def test_empty_nodes_is_noop(self):
        ledger = self._ledger()
        before = ledger.counts_matrix()
        ledger.decay_nodes(np.array([], dtype=np.int64), 0.5)
        assert np.array_equal(ledger.counts_matrix(), before)

    def test_rejects_bad_factor(self):
        ledger = self._ledger()
        with pytest.raises(ValueError):
            ledger.decay_nodes(np.array([0]), 1.5)
        with pytest.raises(ValueError):
            ledger.decay_nodes(np.array([0]), -0.1)


class TestRecordMany:
    def test_equivalent_to_scalar_loop(self):
        raters = np.array([0, 1, 0, 2, 0])
        ratees = np.array([1, 2, 1, 0, 3])
        batched = InteractionLedger(4)
        batched.record_many(raters, ratees)
        scalar = InteractionLedger(4)
        for i, j in zip(raters, ratees):
            scalar.record(int(i), int(j))
        assert np.array_equal(batched.counts_matrix(), scalar.counts_matrix())

    def test_explicit_counts(self):
        ledger = InteractionLedger(3)
        ledger.record_many(np.array([0, 0]), np.array([1, 2]), np.array([2.0, 5.0]))
        assert ledger.frequency(0, 1) == 2.0
        assert ledger.frequency(0, 2) == 5.0

    def test_self_pairs_rejected(self):
        ledger = InteractionLedger(3)
        with pytest.raises(ValueError):
            ledger.record_many(np.array([0, 1]), np.array([1, 1]))

    def test_empty_batch_is_noop(self):
        ledger = InteractionLedger(3)
        version = ledger.version
        ledger.record_many(np.array([], dtype=int), np.array([], dtype=int))
        assert ledger.version == version


class TestVersionTracking:
    def test_record_bumps_version_and_marks_row(self):
        ledger = InteractionLedger(4)
        version = ledger.version
        ledger.record(2, 0)
        assert ledger.version > version
        assert ledger.rows_changed_since(version).tolist() == [2]

    def test_decay_marks_raters_of_decayed_columns(self):
        ledger = InteractionLedger(4)
        ledger.record(0, 1)
        ledger.record(3, 1)
        version = ledger.version
        ledger.decay_nodes(np.array([1]), 0.5)
        changed = set(ledger.rows_changed_since(version).tolist())
        # Node 1's own row plus every rater whose column-1 entry rescaled.
        assert changed == {0, 1, 3}
