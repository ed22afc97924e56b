from __future__ import annotations

import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tuning import (
    ChainSpec,
    Strategy,
    chain_spec_from_dict,
    degenerate_strategy,
    refute_with_random_strategies,
    sample_trajectory,
    simulate,
    solve_tuning,
    strategy_from_dict,
    to_doc,
    validate_chain,
    validate_strategy,
)

from oracles import boundary_unreachable
from strats import chain_specs, spec_strategy_pairs


def codes(report):
    return [v.code for v in report.errors]


class TestValidateChain:
    def test_reference_is_clean(self, reference_spec):
        report = validate_chain(reference_spec)
        assert report.ok
        assert report.errors == ()
        assert report.warnings == ()

    def test_overflowing_row_sum_is_reported_without_a_warning(self):
        spec = ChainSpec(n_internal=1, p00=[[1e308]], p01=[[1e308, 0.5]], c=[1.0], d0=[-1.0], d1=[-1.0])
        report = validate_chain(spec)
        assert codes(report) == ["PROB_RANGE", "PROB_RANGE", "ROW_SUM"]
        assert report.errors[2].message == "transition row for state 2 sums to inf, not 1"

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

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_no_absorption_matches_a_backward_search(self, data):
        # a sparse pattern of positive entries over the n x (n + 2) block [p00 | p01]
        n = data.draw(st.integers(min_value=1, max_value=30))
        cells = st.tuples(st.integers(0, n - 1), st.integers(0, n + 1))
        full = np.zeros((n, n + 2))
        for i, j in data.draw(st.sets(cells, max_size=3 * n)):
            full[i, j] = 1.0
        sums = full.sum(axis=1, keepdims=True)
        full = np.divide(full, sums, out=full, where=sums > 0.0)
        spec = ChainSpec(n_internal=n, p00=full[:, :n], p01=full[:, n:], c=np.ones(n), d0=-np.ones(n),
                         d1=-np.ones(n))
        found = [v.where for v in validate_chain(spec).errors if v.code == "NO_ABSORPTION"]
        assert found == boundary_unreachable(spec.p00.tolist(), spec.p01.tolist())

    def test_one_way_chain_is_validated_quickly(self):
        # state k + 2 moves only to k + 1 and state 2 enters the boundary: the
        # boundary is reached after n rounds, each scanning one new column
        n = 2000
        p01 = np.zeros((n, 2))
        p01[0, 0] = 1.0
        spec = ChainSpec(n_internal=n, p00=np.eye(n, k=-1), p01=p01, c=np.ones(n), d0=-np.ones(n), d1=-np.ones(n))
        start = time.perf_counter()
        report = validate_chain(spec)
        elapsed = time.perf_counter() - start
        assert report.ok
        assert elapsed < 0.5, f"validate_chain took {elapsed:.2f} s on a one-way chain of {n} states"

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
        assert report.errors[0].message == "c must have length 2, got shape (1,)"

    def test_bad_matrix_shape_names_both_shapes(self, reference_spec):
        doc = {**to_doc(reference_spec), "p00": np.eye(3).tolist()}
        [error] = validate_chain(chain_spec_from_dict(doc)).errors
        assert (error.code, error.message) == ("BAD_SHAPE", "p00 must have shape (2, 2), got shape (3, 3)")

    def test_every_field_is_reported_in_one_pass(self, reference_spec):
        doc = {**to_doc(reference_spec), "c": [1.0], "d0": [-0.5, np.nan]}
        report = validate_chain(chain_spec_from_dict(doc))
        assert [(v.code, v.where) for v in report.errors] == [("BAD_SHAPE", "c"), ("NOT_FINITE", "d0")]

    @pytest.mark.parametrize("vector", [["0.5", "0.5"], [True, False], [0.5], [0.5, 0.5, 0.0], [[0.5, 0.5]],
                                        [np.nan, 0.5], [np.inf, -np.inf]])
    def test_model_and_strategy_vectors_are_checked_alike(self, reference_spec, vector):
        [chain_error] = validate_chain(chain_spec_from_dict({**to_doc(reference_spec), "d1": vector})).errors
        [strategy_error] = validate_strategy(strategy_from_dict({"alpha0": vector, "alpha1": [0.5, 0.5]}), 2).errors
        assert chain_error.code == strategy_error.code
        assert chain_error.message == strategy_error.message.replace("alpha0", "d1")

    def test_bad_count(self):
        spec = ChainSpec(n_internal=0, p00=[[]], p01=[[]], c=[], d0=[], d1=[])
        assert codes(validate_chain(spec)) == ["BAD_COUNT"]

    @pytest.mark.parametrize("count", [2.5, 2.0, "2", True, None])
    def test_count_that_is_not_an_int_is_rejected_not_coerced(self, reference_spec, count):
        doc = to_doc(reference_spec)
        doc["n_internal"] = count
        spec = chain_spec_from_dict(doc)
        assert spec.n_internal is count
        assert codes(validate_chain(spec)) == ["BAD_COUNT"]

    @pytest.mark.parametrize(
        "field, value",
        [
            ("c", ["1.0", 2.0]),
            ("d0", [True, False]),
            ("p01", [[0.3, None], [0.1, 0.4]]),
            ("p00", [[0.2, 0.3], [True, 0.1]]),
            ("c", [True, 2.0]),
            ("c", [np.True_, 2.0]),  # np.bool_ is no bool subclass, and numpy reads it as 1.0
            ("c", ["0.5", 1]),
            ("c", [None, 1]),
            ("c", [1 + 2j, 1]),
        ],
    )
    def test_non_numeric_entries_are_rejected_not_parsed(self, reference_spec, field, value):
        doc = to_doc(reference_spec)
        doc[field] = value
        report = validate_chain(chain_spec_from_dict(doc))
        assert codes(report) == ["NOT_NUMERIC"]
        assert report.errors[0].where == field

    @pytest.mark.parametrize(
        "field, value",
        [
            ("c", [1, 2]),
            ("c", [np.int64(1), np.int64(2)]),
            ("p00", [np.array([0.2, 0.3]), np.array([0.4, 0.1])]),  # float64 rows
        ],
        ids=["int", "np-int64", "ndarray-rows"],
    )
    def test_integer_entries_load_as_float(self, reference_spec, field, value):
        doc = to_doc(reference_spec)
        doc[field] = value
        spec = chain_spec_from_dict(doc)
        assert getattr(spec, field).dtype == np.float64
        assert validate_chain(spec).ok

    def test_numpy_integer_count_is_accepted(self, reference_spec):
        doc = to_doc(reference_spec)
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

    def test_overflowing_sum_is_not_normalized(self):
        # the sum overflows to inf, which misses 1 like any other sum
        report = validate_strategy(Strategy([1.7e308, 1.7e308], [0.5, 0.5]), 2)
        assert [(v.code, v.message, v.where) for v in report.errors] == [
            ("NOT_NORMALIZED", "alpha0 sums to inf, not 1", "alpha0")
        ]

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

    def test_a_label_must_be_an_int(self):
        with pytest.raises(ValueError, match=r"^m0=2\.0 is not an internal state label \(expected 2\.\.3\)$"):
            degenerate_strategy(2.0, 3, 2)
        strategy = degenerate_strategy(np.int64(3), 2, 2)
        assert strategy.alpha0.tolist() == [0.0, 1.0]

    def test_no_internal_state_is_a_count_error(self):
        with pytest.raises(ValueError, match=r"^n_internal must be >= 1, got 0$"):
            degenerate_strategy(2, 2, 0)


# each library count, called with k and a valid value of every other count
COUNTED_CALLS = [
    ("samples", lambda spec, strategy, k: refute_with_random_strategies(spec, solve_tuning(spec), k, 1)),
    ("seed", lambda spec, strategy, k: refute_with_random_strategies(spec, solve_tuning(spec), 5, k)),
    ("cycles", lambda spec, strategy, k: simulate(spec, strategy, k, 1)),
    ("seed", lambda spec, strategy, k: simulate(spec, strategy, 5, k)),
    ("replications", lambda spec, strategy, k: simulate(spec, strategy, 5, 1, k)),
    ("segment_limit", lambda spec, strategy, k: simulate(spec, strategy, 5, 1, segment_limit=k)),
    ("max_steps", lambda spec, strategy, k: sample_trajectory(spec, strategy, k, 1)),
    ("seed", lambda spec, strategy, k: sample_trajectory(spec, strategy, 5, k)),
    ("n_internal", lambda spec, strategy, k: degenerate_strategy(2, 2, k)),
]
COUNTED_IDS = ["refute-samples", "refute-seed", "simulate-cycles", "simulate-seed", "simulate-replications",
               "simulate-segment_limit", "trajectory-max_steps", "trajectory-seed", "degenerate-n_internal"]


class TestLibraryCounts:
    @pytest.mark.parametrize("name, call", COUNTED_CALLS, ids=COUNTED_IDS)
    @pytest.mark.parametrize("count", [True, 2.0, 2.5, "3"])
    def test_count_that_is_not_an_int_is_rejected_not_coerced(self, reference_spec, name, call, count):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {re.escape(repr(count))}$"):
            call(reference_spec, degenerate_strategy(3, 3, 2), count)

    @pytest.mark.parametrize("name, call", COUNTED_CALLS, ids=COUNTED_IDS)
    def test_numpy_integer_is_a_count(self, reference_spec, name, call):
        # the same result, holding Python ints, so that to_doc writes JSON
        strategy = degenerate_strategy(3, 3, 2)
        assert repr(call(reference_spec, strategy, np.int64(50))) == repr(call(reference_spec, strategy, 50))


class TestSerialization:
    def test_chain_spec_round_trip(self, reference_spec):
        data = to_doc(reference_spec)
        again = chain_spec_from_dict(data)
        for name in ("p00", "p01", "c", "d0", "d1"):
            assert np.array_equal(getattr(again, name), getattr(reference_spec, name))
        assert again.n_internal == reference_spec.n_internal

    def test_strategy_round_trip(self):
        strategy = Strategy([0.25, 0.75], [0.5, 0.5])
        again = strategy_from_dict(to_doc(strategy))
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
