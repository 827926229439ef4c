import datetime as dt
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from temporal_bc.baselines import METHODS, correct
from temporal_bc.errors import ConfigError, DataError
from temporal_bc.timeseries import TimeSeries

EPOCH = dt.date(2001, 1, 1)  # non-leap: Jan=0..30, Feb=31..58, Mar=59..89

finite_floats = st.floats(min_value=-100.0, max_value=100.0)


def obs(times, values):
    return TimeSeries(np.asarray(times, float), np.asarray(values, float))


def gcm(times, values):
    return TimeSeries(np.asarray(times, float), np.asarray(values, float))


def naive_eqm(obs_ref_v, gcm_ref_v, proj_v):
    """Straight-from-the-definition quantile mapping, one value at a time."""
    so = sorted(obs_ref_v)
    sg = sorted(gcm_ref_v)
    out = []
    for v in proj_v:
        j = 0
        while j < len(sg) and sg[j] < v:
            j += 1
        j = min(j, len(sg) - 1, len(so) - 1)
        out.append(so[j])
    return np.array(out)


class TestMeanShift:
    def test_offset_minimizes_reference_squared_error(self):
        # the applied shift is the least-squares optimal constant offset
        rng = np.random.default_rng(1)
        t = np.arange(31.0)
        o = obs(t, rng.normal(size=31))
        g = gcm(t, rng.normal(size=31))
        got = correct("mean", o, g, g, EPOCH)
        c = got.values[0] - g.values[0]

        def sse(offset):
            return np.sum((o.values - (g.values + offset)) ** 2)

        assert sse(c) <= sse(c + 1e-3)
        assert sse(c) <= sse(c - 1e-3)

    def test_months_are_corrected_independently(self):
        t = np.arange(59.0)  # Jan + Feb
        o_v = np.where(t < 31, 10.0, 20.0)
        g_v = np.where(t < 31, 7.0, 25.0)
        got = correct("mean", obs(t, o_v), gcm(t, g_v), gcm(t, g_v), EPOCH)
        assert np.allclose(got.values[:31], 10.0, atol=1e-10)
        assert np.allclose(got.values[31:], 20.0, atol=1e-10)

    def test_single_group_mode(self):
        t = np.arange(40.0)
        o = obs(t, np.full(40, 5.0))
        g = gcm(t, np.full(40, 1.0))
        got = correct("mean", o, g, g, EPOCH, monthly=False)
        assert np.allclose(got.values, 5.0, atol=1e-12)


class TestMeanVarShift:
    def test_formula(self):
        t = np.arange(31.0)
        o_v = np.linspace(0.0, 3.0, 31)
        g_v = np.linspace(10.0, 16.0, 31)
        proj_v = np.full(31, 13.0)
        got = correct("meanvar", obs(t, o_v), gcm(t, g_v), gcm(t, proj_v), EPOCH)
        expected = (13.0 - np.mean(g_v)) * (np.std(o_v) / np.std(g_v)) + np.mean(o_v)
        assert np.allclose(got.values, expected, atol=1e-12)

    def test_zero_model_variance_rejected(self):
        t = np.arange(31.0)
        o = obs(t, np.linspace(0, 1, 31))
        g = gcm(t, np.full(31, 4.0))
        with pytest.raises(DataError, match="zero variance"):
            correct("meanvar", o, g, g, EPOCH)


class TestEqm:
    def test_hand_trace(self):
        t = np.arange(3.0)
        o = obs(t, [10.0, 20.0, 30.0])
        g = gcm(t, [1.0, 2.0, 3.0])
        proj_t = np.arange(5.0)
        proj = gcm(proj_t, [2.0, 0.5, 3.5, 1.0, 2.5])
        got = correct("eqm", o, g, proj, EPOCH, monthly=False)
        # first reference-model value >= v picks the target quantile:
        # 2.0 -> slot 1 -> 20; 0.5 -> slot 0 -> 10; 3.5 -> clamp -> 30;
        # 1.0 -> slot 0 -> 10; 2.5 -> slot 2 -> 30
        assert list(got.values) == [20.0, 10.0, 30.0, 10.0, 30.0]

    def test_mapping_reference_onto_itself_recovers_obs_distribution(self):
        rng = np.random.default_rng(3)
        t = np.arange(31.0)
        o = obs(t, rng.normal(size=31))
        g = gcm(t, 5.0 + 2.0 * rng.normal(size=31))
        got = correct("eqm", o, g, g, EPOCH)
        assert np.array_equal(np.sort(got.values), np.sort(o.values))

    def test_agrees_with_naive_loop(self):
        rng = np.random.default_rng(4)
        t = np.arange(31.0)
        o_v = rng.normal(size=31)
        g_v = rng.normal(size=31)
        proj_v = rng.normal(size=31)
        got = correct("eqm", obs(t, o_v), gcm(t, g_v), gcm(t, proj_v), EPOCH)
        assert np.array_equal(got.values, naive_eqm(o_v, g_v, proj_v))

    def test_unequal_reference_lengths_clamp(self):
        # more model days than observed days: top quantiles clamp onto the
        # last observed value instead of reading past the end
        o = obs(np.arange(3.0), [10.0, 20.0, 30.0])
        g = gcm(np.arange(5.0), [1.0, 2.0, 3.0, 4.0, 5.0])
        proj = gcm(np.arange(3.0), [4.5, 5.5, 0.0])
        got = correct("eqm", o, g, proj, EPOCH)
        assert list(got.values) == [30.0, 30.0, 10.0]

    @given(
        st.lists(finite_floats, min_size=1, max_size=30),
        st.lists(finite_floats, min_size=1, max_size=30),
        st.lists(finite_floats, min_size=2, max_size=30),
    )
    @settings(max_examples=80)
    def test_monotone_in_projection_value(self, o_v, g_v, proj_v):
        n = len(proj_v)
        t_o = np.arange(float(len(o_v)))
        t_g = np.arange(float(len(g_v)))
        got = correct(
            "eqm", obs(t_o, o_v), gcm(t_g, g_v), gcm(np.arange(float(n)), proj_v),
            EPOCH, monthly=False,
        )
        order = np.argsort(proj_v, kind="stable")
        mapped_in_order = got.values[order]
        assert np.all(np.diff(mapped_in_order) >= 0.0)


class TestEcbc:
    def test_output_is_template_ranked_quantile_map(self):
        # general identity: each day receives the eqm value whose sorted
        # position equals the observed template's rank on that day
        rng = np.random.default_rng(15)
        t = np.arange(31.0)
        o_v = rng.normal(size=31)
        o = obs(t, o_v)
        g = gcm(t, rng.normal(size=31))
        proj = gcm(t, rng.normal(size=31))
        base = correct("eqm", o, g, proj, EPOCH)
        got = correct("ecbc", o, g, proj, EPOCH)
        order = np.argsort(o_v, kind="stable")
        ranks = np.empty(31, dtype=int)
        ranks[order] = np.arange(31)
        expected = np.sort(base.values)[ranks]
        assert np.array_equal(got.values, expected)

    def test_value_multiset_comes_from_eqm(self):
        rng = np.random.default_rng(6)
        t = np.arange(31.0)
        o = obs(t, rng.normal(size=31))
        g = gcm(t, rng.normal(size=31))
        proj = gcm(t, rng.normal(size=31))
        base = correct("eqm", o, g, proj, EPOCH)
        got = correct("ecbc", o, g, proj, EPOCH)
        assert np.array_equal(np.sort(got.values), np.sort(base.values))

    def test_constant_template_keeps_sorted_time_order(self):
        t = np.arange(31.0)
        o = obs(t, np.full(31, 7.0))
        g = gcm(t, np.linspace(0, 1, 31))
        proj = gcm(t, np.linspace(1, 0, 31))
        got = correct("ecbc", o, g, proj, EPOCH)
        # all template ranks tie; stable ranking is 0..n-1, i.e. ascending
        assert np.all(np.diff(got.values) >= 0)

    def test_permuting_projection_days_does_not_change_output(self):
        # the rank template comes from the observations alone, and eqm acts
        # pointwise, so shuffling projection values within a month only
        # permutes the multiset the template re-sorts
        rng = np.random.default_rng(7)
        t = np.arange(31.0)
        o = obs(t, rng.normal(size=31))
        g = gcm(t, rng.normal(size=31))
        v = rng.normal(size=31)
        got_a = correct("ecbc", o, g, gcm(t, v), EPOCH)
        got_b = correct("ecbc", o, g, gcm(t, v[rng.permutation(31)]), EPOCH)
        assert np.allclose(got_a.values, got_b.values, atol=1e-12)

    def test_day_count_mismatch_trims_tail(self, caplog):
        t_ref = np.arange(31.0)
        rng = np.random.default_rng(8)
        o = obs(t_ref, rng.normal(size=31))
        g = gcm(t_ref, rng.normal(size=31))
        # projection January a year later with only the first 20 days... the
        # other direction: projection has MORE days than the template month
        proj_t = np.arange(31.0)
        proj = gcm(proj_t, rng.normal(size=31))
        short_o = obs(t_ref[:20], o.values[:20])
        with caplog.at_level(logging.WARNING):
            got = correct("ecbc", short_o, g, proj, EPOCH)
        assert len(got) == 20
        assert np.array_equal(got.times, proj_t[:20])
        assert any("trimming" in r.message for r in caplog.records)


class TestCorrectDispatch:
    def test_methods_tuple(self):
        assert METHODS == ("mean", "meanvar", "eqm", "ecbc")

    def test_unknown_method(self):
        t = np.arange(3.0)
        s = obs(t, [1.0, 2.0, 3.0])
        with pytest.raises(ConfigError, match="unknown baseline"):
            correct("magic", s, gcm(t, [1, 2, 3]), gcm(t, [1, 2, 3]), EPOCH)

    def test_projection_month_without_reference(self):
        jan = np.arange(31.0)
        feb = np.arange(31.0, 59.0)
        o = obs(jan, np.ones(31))
        g = gcm(jan, np.ones(31))
        proj = gcm(feb, np.ones(28))
        with pytest.raises(DataError, match="month"):
            correct("mean", o, g, proj, EPOCH)
