from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from tuning import (
    ChainSpec,
    Strategy,
    chain_spec_from_dict,
    chain_spec_to_dict,
    degenerate_strategy,
    strategy_from_dict,
    strategy_to_dict,
    validate_chain,
    validate_strategy,
)

from strats import chain_specs, spec_strategy_pairs


def codes(report):
    return [v.code for v in report.errors]


class TestValidateChain:
    def test_reference_is_clean(self, reference_spec):
        report = validate_chain(reference_spec)
        assert report.ok
        assert report.errors == ()
        assert report.warnings == ()

    def test_row_sum_violation_reports_label(self):
        spec = ChainSpec(
            n_internal=2,
            p00=[[0.2, 0.3], [0.4, 0.1]],
            p01=[[0.3, 0.1], [0.1, 0.4]],  # first row sums to 0.9
            c=[1.0, 2.0],
            d0=[-0.5, -1.0],
            d1=[-0.7, -0.2],
        )
        report = validate_chain(spec)
        assert codes(report) == ["ROW_SUM"]
        assert report.errors[0].where == 2

    def test_unreachable_boundary(self):
        spec = ChainSpec(
            n_internal=1, p00=[[1.0]], p01=[[0.0, 0.0]], c=[1.0], d0=[-1.0], d1=[-1.0]
        )
        report = validate_chain(spec)
        assert "NO_ABSORPTION" in codes(report)
        assert report.errors[0].where == 2

    def test_indirectly_trapped_state(self):
        # state 2 only feeds state 3 and state 3 only feeds state 2
        spec = ChainSpec(
            n_internal=2,
            p00=[[0.0, 1.0], [1.0, 0.0]],
            p01=[[0.0, 0.0], [0.0, 0.0]],
            c=[1.0, 1.0],
            d0=[-1.0, -1.0],
            d1=[-1.0, -1.0],
        )
        report = validate_chain(spec)
        assert codes(report) == ["NO_ABSORPTION", "NO_ABSORPTION"]
        assert [v.where for v in report.errors] == [2, 3]

    def test_reach_through_chain_is_enough(self):
        # state 3 reaches the boundary only through state 2
        spec = ChainSpec(
            n_internal=2,
            p00=[[0.0, 0.0], [1.0, 0.0]],
            p01=[[0.5, 0.5], [0.0, 0.0]],
            c=[1.0, 1.0],
            d0=[-1.0, -1.0],
            d1=[-1.0, -1.0],
        )
        assert validate_chain(spec).ok

    def test_entry_out_of_range(self):
        spec = ChainSpec(
            n_internal=1, p00=[[-0.2]], p01=[[0.6, 0.6]], c=[1.0], d0=[-1.0], d1=[-1.0]
        )
        report = validate_chain(spec)
        assert "PROB_RANGE" in codes(report)

    def test_not_finite(self):
        spec = ChainSpec(
            n_internal=1, p00=[[np.nan]], p01=[[0.5, 0.5]], c=[1.0], d0=[-1.0], d1=[-1.0]
        )
        report = validate_chain(spec)
        assert codes(report) == ["NOT_FINITE"]

    def test_bad_shape(self):
        spec = ChainSpec(
            n_internal=2,
            p00=[[0.2, 0.3], [0.4, 0.1]],
            p01=[[0.3, 0.2], [0.1, 0.4]],
            c=[1.0],  # wrong length
            d0=[-0.5, -1.0],
            d1=[-0.7, -0.2],
        )
        report = validate_chain(spec)
        assert codes(report) == ["BAD_SHAPE"]
        assert report.errors[0].where == "c"

    def test_bad_count(self):
        spec = ChainSpec(n_internal=0, p00=[[]], p01=[[]], c=[], d0=[], d1=[])
        assert codes(validate_chain(spec)) == ["BAD_COUNT"]

    @pytest.mark.parametrize("count", [2.5, 2.0, "2", True, None])
    def test_count_that_is_not_an_int_is_rejected_not_coerced(self, reference_spec, count):
        doc = chain_spec_to_dict(reference_spec)
        doc["n_internal"] = count
        spec = chain_spec_from_dict(doc)
        assert spec.n_internal is count
        assert codes(validate_chain(spec)) == ["BAD_COUNT"]

    @pytest.mark.parametrize(
        "field, value",
        [("c", ["1.0", 2.0]), ("d0", [True, False]), ("p01", [[0.3, None], [0.1, 0.4]])],
    )
    def test_non_numeric_entries_are_rejected_not_parsed(self, reference_spec, field, value):
        doc = chain_spec_to_dict(reference_spec)
        doc[field] = value
        report = validate_chain(chain_spec_from_dict(doc))
        assert codes(report) == ["NOT_NUMERIC"]
        assert report.errors[0].where == field

    def test_integer_entries_load_as_float(self, reference_spec):
        doc = chain_spec_to_dict(reference_spec)
        doc["c"] = [1, 2]
        spec = chain_spec_from_dict(doc)
        assert spec.c.dtype == np.float64
        assert validate_chain(spec).ok

    def test_numpy_integer_count_is_accepted(self, reference_spec):
        doc = chain_spec_to_dict(reference_spec)
        doc["n_internal"] = np.int64(2)
        spec = chain_spec_from_dict(doc)
        assert type(spec.n_internal) is int
        assert validate_chain(spec).ok

    def test_positive_transfer_cost_is_warning_only(self):
        spec = ChainSpec(
            n_internal=1, p00=[[0.0]], p01=[[0.5, 0.5]], c=[1.0], d0=[0.5], d1=[-1.0]
        )
        report = validate_chain(spec)
        assert report.ok
        assert [w.code for w in report.warnings] == ["TRANSFER_COST_SIGN"]

    @settings(max_examples=60)
    @given(spec=chain_specs())
    def test_generated_specs_validate_clean(self, spec):
        report = validate_chain(spec)
        assert report.errors == ()
        # the implied full transition rows are stochastic
        sums = spec.p00.sum(axis=1) + spec.p01.sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) <= 1e-9

    @settings(max_examples=30)
    @given(spec=chain_specs())
    def test_validation_is_deterministic(self, spec):
        assert validate_chain(spec) == validate_chain(spec)


class TestValidateStrategy:
    def test_valid(self):
        report = validate_strategy(Strategy([0.25, 0.75], [0.5, 0.5]), 2)
        assert report.ok

    def test_negative_mass(self):
        report = validate_strategy(Strategy([-0.1, 1.1], [0.5, 0.5]), 2)
        assert "NEGATIVE_MASS" in codes(report)
        assert "NOT_NORMALIZED" not in codes(report)  # still sums to 1

    def test_not_normalized(self):
        report = validate_strategy(Strategy([0.6, 0.6], [0.5, 0.5]), 2)
        assert codes(report) == ["NOT_NORMALIZED"]
        assert report.errors[0].where == "alpha0"

    def test_non_numeric_entries_are_rejected_not_parsed(self):
        report = validate_strategy(strategy_from_dict({"alpha0": ["0", "1"], "alpha1": [0.5, 0.5]}), 2)
        assert codes(report) == ["NOT_NUMERIC"]
        assert report.errors[0].where == "alpha0"

    def test_wrong_length(self):
        report = validate_strategy(Strategy([1.0], [0.5, 0.5]), 2)
        assert codes(report) == ["BAD_SHAPE"]

    def test_sum_tolerance_is_tight(self):
        report = validate_strategy(Strategy([0.5, 0.5 + 2e-9], [0.5, 0.5]), 2)
        assert codes(report) == ["NOT_NORMALIZED"]

    @settings(max_examples=40)
    @given(spec=chain_specs())
    def test_degenerate_always_validates(self, spec):
        n = spec.n_internal
        strategy = degenerate_strategy(2, n + 1, n)
        assert validate_strategy(strategy, n).ok
        assert strategy.alpha0[0] == 1.0
        assert strategy.alpha1[n - 1] == 1.0

    @settings(max_examples=40)
    @given(pair=spec_strategy_pairs())
    def test_generated_strategies_validate(self, pair):
        spec, strategy = pair
        assert validate_strategy(strategy, spec.n_internal).ok


class TestDegenerateStrategy:
    def test_unit_mass_at_labels(self):
        strategy = degenerate_strategy(3, 2, 3)
        assert strategy.alpha0.tolist() == [0.0, 1.0, 0.0]
        assert strategy.alpha1.tolist() == [1.0, 0.0, 0.0]

    @pytest.mark.parametrize("m0,m1", [(1, 2), (2, 5), (0, 0), (4, 2)])
    def test_out_of_range_raises(self, m0, m1):
        with pytest.raises(ValueError):
            degenerate_strategy(m0, m1, 2)


class TestSerialization:
    def test_chain_spec_round_trip(self, reference_spec):
        data = chain_spec_to_dict(reference_spec)
        again = chain_spec_from_dict(data)
        for name in ("p00", "p01", "c", "d0", "d1"):
            assert np.array_equal(getattr(again, name), getattr(reference_spec, name))
        assert again.n_internal == reference_spec.n_internal

    def test_strategy_round_trip(self):
        strategy = Strategy([0.25, 0.75], [0.5, 0.5])
        again = strategy_from_dict(strategy_to_dict(strategy))
        assert np.array_equal(again.alpha0, strategy.alpha0)
        assert np.array_equal(again.alpha1, strategy.alpha1)

    def test_missing_key_raises_value_error(self):
        with pytest.raises(ValueError, match="missing key"):
            chain_spec_from_dict({"n_internal": 1})

    def test_malformed_matrix_raises_value_error(self):
        bad = dict(REFERENCE_LIKE)
        bad["p00"] = [[0.1, 0.2], [0.3]]
        with pytest.raises(ValueError):
            chain_spec_from_dict(bad)

    def test_arrays_are_read_only(self, reference_spec):
        with pytest.raises(ValueError):
            reference_spec.p00[0, 0] = 0.9


REFERENCE_LIKE = {
    "n_internal": 2,
    "p00": [[0.2, 0.3], [0.4, 0.1]],
    "p01": [[0.3, 0.2], [0.1, 0.4]],
    "c": [1.0, 2.0],
    "d0": [-0.5, -1.0],
    "d1": [-0.7, -0.2],
}


def test_internal_labels(reference_spec):
    assert list(reference_spec.internal_labels()) == [2, 3]
