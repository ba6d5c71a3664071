"""The CI benchmark guard: tolerance on throughputs, equality on counters."""

import pytest

from benchmarks.check_regression import EXACT, GUARDED, check

BASELINE = {
    "cluster": {
        "requests_per_s": 1000.0, "sim_events": 1664, "throttled": 144,
    },
    "fleet": {
        "routed_requests_per_s": 5e5,
        "remote_fraction": 0.9777777777777777,
        "failover_cell_failovers": 73.0,
    },
    "faults": {"faulted_cell_retries": 71.0, "schedule_events_10min": 1838},
}


def current(**moves):
    """The baseline with ``section.key=value`` overrides."""
    out = {section: dict(keys) for section, keys in BASELINE.items()}
    for dotted, value in moves.items():
        section, key = dotted.split("__")
        out[section][key] = value
    return out


def test_unchanged_passes():
    assert check(BASELINE, current(), 0.25) == []


def test_throughput_inside_tolerance_passes():
    assert check(BASELINE, current(cluster__requests_per_s=760.0), 0.25) == []


def test_throughput_past_tolerance_fails():
    failures = check(BASELINE, current(cluster__requests_per_s=740.0), 0.25)
    assert len(failures) == 1 and "cluster.requests_per_s" in failures[0]


@pytest.mark.parametrize(
    "section,key", [(s, k) for s, keys in EXACT.items() for k in keys]
)
@pytest.mark.parametrize("direction", [-1, 1])
def test_exact_key_that_moves_fails(section, key, direction):
    # Even a move in the direction a throughput would call better.
    value = BASELINE[section][key]
    moved = value + direction * (1e-9 if isinstance(value, float) else 1)
    failures = check(BASELINE, current(**{f"{section}__{key}": moved}), 0.25)
    assert len(failures) == 1 and f"{section}.{key}" in failures[0]


def test_missing_exact_key_fails():
    cur = current()
    del cur["faults"]["schedule_events_10min"]
    failures = check(BASELINE, cur, 0.25)
    assert len(failures) == 1 and "faults.schedule_events_10min" in failures[0]


def test_exact_keys_are_not_tolerance_keys():
    for section, keys in EXACT.items():
        assert not set(keys) & set(GUARDED.get(section, ()))
