"""Tests of the benchmark's own helpers.

Run from the root of a source checkout::

    python3 -m pytest perfbench/check_helpers.py -q

The file name keeps it out of a bare ``pytest`` collection of the
repository's own suite.  The output checks are exercised on a small real
corpus: each must accept the program's output and reject it after one
deliberate corruption.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from harness import MIN_TAIL_SAMPLES, percentile  # noqa: E402


# -- percentiles ------------------------------------------------------------------


def test_p99_needs_a_thousand_samples():
    with pytest.raises(ValueError, match="ten samples beyond"):
        percentile(list(range(MIN_TAIL_SAMPLES - 1)), 99)
    assert percentile(list(range(1, MIN_TAIL_SAMPLES + 1)), 99) == 990


def test_median_percentile_needs_no_tail():
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    with pytest.raises(ValueError):
        percentile([], 50)


# -- refresh schedule -----------------------------------------------------------


def test_swaps_follow_the_stream_clock():
    day = 86_400.0
    lows = [0.0, 4 * day, 9 * day, 12 * day, 21 * day]
    highs = [3 * day, 8 * day, 11 * day, 20 * day, 30 * day]
    # due at day 10 -> crossed by batch 3 (latest 11); next due 21 -> batch 5.
    assert checks.expected_swaps(lows, highs, 10 * day) == [3, 5]


# -- output checks on a real corpus -----------------------------------------------


@pytest.fixture(scope="module")
def scored():
    from repro.analysis.engine import CorpusEngine
    from repro.core.pipeline import FPInconsistentPipeline
    from repro.core.spatial import SpatialInconsistencyMiner
    from repro.fingerprint.attributes import Attribute

    corpus = CorpusEngine(seed=5, scale=0.005, include_real_users=True).build(workers=1)
    bots = corpus.bot_store
    result = FPInconsistentPipeline(workers=1).run(bots, real_user_store=corpus.real_user_store)
    attributes = [Attribute.IP_COUNTRY, Attribute.TIMEZONE]
    for rule in result.filter_list:
        attributes += [rule.attribute_a, rule.attribute_b]
    rows = checks.RowValues.from_store(bots, attributes)
    order = rows.arrival_order()
    request_ids = np.asarray(bots.request_id_array())
    codes = checks.encode_verdicts(result.verdicts, request_ids[order], result.filter_list)
    return {
        "corpus": corpus,
        "result": result,
        "rows": rows,
        "order": order,
        "request_ids": request_ids,
        "codes": codes,
        "knowledge": SpatialInconsistencyMiner().knowledge,
        "attributes": attributes,
    }


def _check(scored, codes):
    order = scored["order"]
    checks.check_verdicts(
        codes, scored["rows"], order, scored["request_ids"],
        [(0, order.size, scored["result"].filter_list)], scored["knowledge"],
        np.arange(order.size), "test",
    )


def _copy(codes):
    clone = checks.VerdictCodes(codes.rule.size)
    clone.request_id[:] = codes.request_id
    clone.rule[:] = codes.rule
    clone.temporal[:] = codes.temporal
    return clone


def test_verdict_check_accepts_the_program(scored):
    assert len(scored["result"].filter_list) > 0
    assert (scored["codes"].rule != checks.NO_RULE).any()
    assert (scored["codes"].temporal != 0).any()
    _check(scored, scored["codes"])


def test_one_flipped_spatial_verdict_is_rejected(scored):
    codes = _copy(scored["codes"])
    flagged = np.flatnonzero(codes.rule != checks.NO_RULE)
    codes.rule[flagged[0]] = checks.NO_RULE
    with pytest.raises(checks.CheckFailed, match="spatial flags"):
        _check(scored, codes)


def test_one_wrong_winning_rule_is_rejected(scored):
    codes = _copy(scored["codes"])
    listed = np.flatnonzero(codes.rule >= 0)
    position = listed[0]
    codes.rule[position] = (codes.rule[position] + 1) % len(scored["result"].filter_list)
    with pytest.raises(checks.CheckFailed, match="direct evaluation gives"):
        _check(scored, codes)


def test_one_flipped_temporal_verdict_is_rejected(scored):
    codes = _copy(scored["codes"])
    codes.temporal[0] ^= 1
    with pytest.raises(checks.CheckFailed, match="temporal flags"):
        _check(scored, codes)


def test_table1_rejects_one_wrong_rate(scored):
    from repro.analysis.evasion import table1_rows

    bots = scored["corpus"].bot_store
    rows = [dataclasses.asdict(row) for row in table1_rows(bots)]
    checks.check_table1(bots, rows)
    rows[0]["botd_evasion_rate"] += 1 / rows[0]["num_requests"]
    with pytest.raises(checks.CheckFailed, match="Table 1"):
        checks.check_table1(bots, rows)


def test_evasion_reduction_and_tnr_reject_a_wrong_rate(scored):
    result = scored["result"]
    codes = scored["codes"]
    order = scored["order"]
    flagged = np.zeros(order.size, dtype=bool)
    flagged[order] = (codes.rule != checks.NO_RULE) | (codes.temporal != 0)
    bots = scored["corpus"].bot_store
    reductions = dict(result.evasion_reductions)
    checks.check_evasion_reductions(bots, flagged, reductions)
    reductions["DataDome"] += 1e-6
    with pytest.raises(checks.CheckFailed, match="Table 4 DataDome"):
        checks.check_evasion_reductions(bots, flagged, reductions)

    users = scored["corpus"].real_user_store
    user_rows = checks.RowValues.from_store(users, scored["attributes"])
    user_flagged = user_rows.spatial_flags(
        result.filter_list, scored["knowledge"], np.arange(user_rows.n_rows)
    ) | (user_rows.temporal_bits(user_rows.arrival_order()) != 0)
    checks.check_tnr(result.real_user_tnr, user_flagged)
    with pytest.raises(checks.CheckFailed, match="TNR"):
        checks.check_tnr(result.real_user_tnr - 1 / user_rows.n_rows, user_flagged)


def test_support_off_by_one_is_rejected(scored):
    from repro.core.rules import FilterList

    filter_list = scored["result"].filter_list
    everyone = np.arange(scored["rows"].n_rows)
    checks.check_supports(filter_list, scored["rows"], everyone, "mined")
    rules = list(filter_list)
    rules[-1] = dataclasses.replace(rules[-1], support=rules[-1].support + 1)
    with pytest.raises(checks.CheckFailed, match="support"):
        checks.check_supports(FilterList(rules), scored["rows"], everyone, "mined")
