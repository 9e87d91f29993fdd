"""Statistics helpers of the benchmark (tested by test_stats.py)."""

import math
import statistics


def median(values):
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartiles(values):
    """(q1, q3) as statistics.quantiles(values, n=4) gives them.

    A single value is its own quartiles.
    """
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values):
    """Quartile distance as a share of the median; 0 when the median is 0."""
    q1, q3 = quartiles(values)
    mid = median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def geomean(values):
    """Geometric mean of positive values."""
    if not values:
        raise ValueError("geomean of no values")
    if any(v <= 0 for v in values):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def geomean_of_medians(samples_per_input):
    """Each input's median sample, then the geomean over inputs."""
    return geomean([median(samples) for samples in samples_per_input])


def compiles_per_s(samples_per_input):
    """Compiles completed divided by the total timed compile seconds."""
    count = sum(len(samples) for samples in samples_per_input)
    seconds = sum(sum(samples) for samples in samples_per_input)
    if count == 0 or seconds <= 0:
        raise ValueError("no timed compiles")
    return count / seconds


def host_speed(gauge_samples, reference_s):
    """Host speed of one phase of a run: the gauge's reference time divided
    by the median gauge sample of that phase (1 = reference speed, 0.5 =
    everything took twice as long)."""
    return reference_s / median(gauge_samples)
