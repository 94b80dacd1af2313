"""Arithmetic of the benchmark: percentiles, digits of reduction, self time.

Pure Python and free of numpy so that it can be tested without the
package under measurement.
"""

import math
import statistics

# Percentiles tried for the "high" summary, highest first.  A percentile is
# reported only when at least MIN_TAIL samples lie beyond it.
HIGH_PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)
MIN_TAIL = 10


def percentile(values, q):
    """q-th percentile (0..100) by linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must lie in [0, 100], got {q}")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def high_percentile(values):
    """(label, value) of the highest percentile with MIN_TAIL samples beyond.

    With fewer than 2 * MIN_TAIL samples no percentile qualifies, and the
    sample maximum is returned with the label "max".
    """
    n = len(values)
    for q in HIGH_PERCENTILES:
        if n * (100.0 - q) / 100.0 >= MIN_TAIL:
            return f"p{q:g}", percentile(values, q)
    return "max", max(values)


def summary(values):
    """Median, high percentile and sample count of a timing sample."""
    label, high = high_percentile(values)
    return {"n": len(values), "p50": percentile(values, 50.0), label: high}


def digits(r0, r_final):
    """Decimal digits of reduction from r0 to r_final."""
    if not (r0 > 0.0 and r_final > 0.0):
        raise ValueError(f"need positive norms, got r0={r0}, r_final={r_final}")
    return math.log10(r0 / r_final)


def seconds_per_digit(seconds, n_digits):
    """Wall time per decimal digit of reduction."""
    if not n_digits > 0.0:
        raise ValueError(f"need a positive number of digits, got {n_digits}")
    return seconds / n_digits


def geomean(values):
    if not values or min(values) <= 0.0:
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def fail_rate(failed, attempted):
    if attempted < 1 or not 0 <= failed <= attempted:
        raise ValueError(f"need 0 <= failed <= attempted >= 1, got {failed}/{attempted}")
    return failed / attempted


def quartile_spread(values):
    """Distance between first and third quartile as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def self_times(spans):
    """Self time of each span: its duration minus its children's durations.

    spans is a sequence of (start, end, parent) with parent the index of
    the enclosing span or None.  Spans come from a stack tracer, so
    children lie inside their parent and never overlap.
    """
    out = [end - start for start, end, _ in spans]
    for start, end, parent in spans:
        if parent is not None:
            out[parent] -= end - start
    return out
