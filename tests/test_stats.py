"""Counter registry, ledger, movement classification and QoS score."""

from collections import Counter

import pytest

from wsnhandoff.report import render_report
from wsnhandoff.stats import (BAD_WHEN_RISING, DERIVED, REGISTRY, Category,
                              NoSignificantChangeError, StatsLedger,
                              UnknownCounterError, classify, qos_improvement,
                              slot)

ERRORS = "phy80211.signals_received_with_errors"
LOCKED = "phy80211.signals_locked"
SP_QUEUED = "net_strict_prior.packets_queued"
FIFO_QUEUED = "net_fifo.packets_queued"
FIFO_PEAK = "net_fifo.peak_queue_size"
SAT_RECEIVED = "mac_satcom.frames_received"


def test_registry_is_the_full_layer_census():
    assert len(REGISTRY) == 28
    assert len(set(REGISTRY)) == 28
    assert all(token.count(".") == 1 for token in REGISTRY)
    per_layer = Counter(token.partition(".")[0] for token in REGISTRY)
    assert per_layer == {"phy80211": 4, "mac80211": 3, "mac_dcf": 2,
                         "mac_link": 3, "mac_satcom": 3, "net_ip": 4,
                         "net_strict_prior": 2, "net_fifo": 3,
                         "transport_udp": 2, "app_bellman_ford": 2}


def test_token_lookup_roundtrip():
    for i, token in enumerate(REGISTRY):
        assert slot(token) == i
    with pytest.raises(UnknownCounterError):
        slot("phy80211.bogus")


def test_derived_counters_sum_sources_that_are_not_derived():
    assert len(DERIVED) == 10
    for token, sources in DERIVED.items():
        assert token in REGISTRY and sources
        assert all(s in REGISTRY and s not in DERIVED for s in sources)
    led = StatsLedger()
    for i, token in enumerate(REGISTRY):
        led.record(token, i + 1)
    led.derive()
    for token in REGISTRY:
        want = (sum(REGISTRY.index(s) + 1 for s in DERIVED[token])
                if token in DERIVED else REGISTRY.index(token) + 1)
        assert led.get(token) == want, token


def test_ledger_records_and_rejects_unknown_keys():
    led = StatsLedger()
    assert led.get(LOCKED) == 0
    led.record(LOCKED)
    led.record(LOCKED, 4)
    assert led.get(LOCKED) == 5
    with pytest.raises(UnknownCounterError):
        led.record("phy80211.nope")
    with pytest.raises(ValueError):
        led.record(LOCKED, -1)


def test_ledger_checks_every_public_entry_point():
    led = StatsLedger()
    bogus = "mac_link.frames_dropped"
    for call in (lambda: led.record(bogus), lambda: led.get(bogus),
                 lambda: led.record_peak(bogus, 3), lambda: slot(bogus)):
        with pytest.raises(UnknownCounterError):
            call()
    led.record(LOCKED, 2)
    with pytest.raises(ValueError):
        led.record(LOCKED, -1)
    assert led.get(LOCKED) == 2  # a rejected delta changes nothing


def test_ledger_slots_and_as_dict_follow_registry_order():
    led = StatsLedger()
    for i, key in enumerate(REGISTRY):
        assert slot(key) == i
        led.record(key, i + 1)
    assert list(led.as_dict()) == list(REGISTRY)
    assert list(led.as_dict().values()) == list(range(1, len(REGISTRY) + 1))
    assert led.values == list(range(1, len(REGISTRY) + 1))


def test_peak_counter_is_a_high_water_mark():
    led = StatsLedger()
    led.record_peak(FIFO_PEAK, 3)
    led.record_peak(FIFO_PEAK, 2)
    assert led.get(FIFO_PEAK) == 3
    led.record_peak(FIFO_PEAK, 7)
    assert led.get(FIFO_PEAK) == 7


def test_default_directions_mark_three_bad_movers():
    assert BAD_WHEN_RISING == {ERRORS, SP_QUEUED, FIFO_QUEUED}


def test_classify_good_and_bad_movement():
    base, cand = StatsLedger(), StatsLedger()
    cand.record(LOCKED, 7)       # good counter up: desirable
    cand.record(ERRORS, 6)       # bad counter up from nil: undesirable
    base.record(SAT_RECEIVED, 13)
    cand.record(SAT_RECEIVED, 6)  # good counter down: undesirable
    c = classify(base, cand)
    assert c.per_counter[LOCKED] == (7, Category.DESIRABLE)
    assert c.per_counter[ERRORS] == (6, Category.UNDESIRABLE)
    assert c.per_counter[SAT_RECEIVED] == (-7, Category.UNDESIRABLE)
    assert c.desirable == 1 and c.undesirable == 2
    assert c.insignificant == len(REGISTRY) - 3


def test_classify_bad_counter_decreasing_is_desirable():
    base, cand = StatsLedger(), StatsLedger()
    base.record(FIFO_QUEUED, 10)
    cand.record(FIFO_QUEUED, 2)
    c = classify(base, cand)
    assert c.per_counter[FIFO_QUEUED] == (-8, Category.DESIRABLE)


def test_classify_epsilon_threshold():
    base, cand = StatsLedger(), StatsLedger()
    cand.record(LOCKED, 2)
    cand.record(ERRORS, 3)
    c = classify(base, cand, epsilon=2)
    assert c.per_counter[LOCKED] == (2, Category.INSIGNIFICANT)
    assert c.per_counter[ERRORS] == (3, Category.UNDESIRABLE)
    assert classify(base, cand, epsilon=3).undesirable == 0
    with pytest.raises(ValueError):
        classify(base, cand, epsilon=-1)


def test_qos_even_split_is_fifty_percent():
    base, cand = StatsLedger(), StatsLedger()
    cand.record(LOCKED, 5)
    cand.record(ERRORS, 5)
    assert qos_improvement(classify(base, cand)) == pytest.approx(50.0)


def test_qos_undefined_when_nothing_moved():
    base, cand = StatsLedger(), StatsLedger()
    with pytest.raises(NoSignificantChangeError):
        qos_improvement(classify(base, cand))


def test_render_report_layout_and_determinism():
    led = StatsLedger()
    led.record(LOCKED, 3)
    text = render_report(led, classify(StatsLedger(), led))
    lines = text.splitlines()
    assert lines[len(REGISTRY)] == ""  # the counters, then the verdicts
    assert lines[0] == "phy80211.signals_transmitted=0"
    assert "phy80211.signals_locked=3" in lines
    assert render_report(led, classify(StatsLedger(), led)) == text
    assert "phy80211.signals_locked: Desirable (+3)" in lines
    assert lines[-1] == "QoS improvement: 100.00%"


def test_render_report_undefined_qos_line():
    led = StatsLedger()
    text = render_report(led, classify(StatsLedger(), led))
    assert text.splitlines()[-1] == \
        "QoS improvement: undefined (no significant change)"
