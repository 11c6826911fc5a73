"""Statistics of the benchmark report.

Timings are reported as a median and the highest percentile that has
at least ten samples beyond it, always with the sample count. Ratios
are always printed with their base.
"""

import math
import statistics
from fractions import Fraction

MIN_BEYOND = 10


def median(values):
    """Median of a non-empty sequence."""
    return statistics.median(values)


def hd_median(values, steps=64):
    """Harrell-Davis estimate of the median of a non-empty sequence.

    A weighted mean of all order statistics: the i-th of n weighs the
    Beta((n+1)/2, (n+1)/2) probability of [(i-1)/n, i/n], integrated by
    Simpson's rule in `steps` steps. Where the values are few and far
    apart, such as each job's median over a sweep's 20 different jobs,
    the plain median is the mean of the two middle values and moves
    with those two alone; this estimate moves with the middle third.
    """
    xs = sorted(values)
    n = len(xs)
    a = (n + 1) / 2
    log_beta = 2 * math.lgamma(a) - math.lgamma(2 * a)

    def density(x):
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp((a - 1) * (math.log(x) + math.log(1 - x)) - log_beta)

    h = 1.0 / (n * steps)
    weights = []
    for i in range(n):
        at = [density(i / n + k * h) for k in range(steps + 1)]
        inner = sum((4 if k % 2 else 2) * v
                    for k, v in enumerate(at[1:-1], 1))
        weights.append((at[0] + inner + at[-1]) * h / 3)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def quartiles(values):
    """First quartile, median and third quartile, as
    statistics.quantiles(values, n=4) gives them."""
    return statistics.quantiles(values, n=4)


def iqr_share(values):
    """Distance between the first and third quartile as a share of the
    median: the run-to-run spread the benchmark's bounds are set
    against."""
    q1, _, q3 = quartiles(values)
    return (q3 - q1) / median(values)


def _rank(n, p):
    """Nearest rank of the p-th percentile among n samples, computed
    exactly (p * n / 100 in floating point can land just above an
    integer)."""
    return math.ceil(Fraction(str(p)) * n / 100)


def beyond_count(n, p):
    """Samples that lie above the nearest-rank p-th percentile of n."""
    return n - _rank(n, p)


def percentile(values, p, min_beyond=MIN_BEYOND):
    """Nearest-rank p-th percentile and the sample count.

    The value is None when fewer than min_beyond samples lie beyond
    the percentile: such a tail is one or two samples, not a
    percentile.
    """
    n = len(values)
    if n == 0 or beyond_count(n, p) < min_beyond:
        return None, n
    return sorted(values)[_rank(n, p) - 1], n


def split(values, k):
    """Split values, in time order, into k consecutive parts of equal
    size (the remainder joins the last part)."""
    size = len(values) // k
    return [values[i * size:(i + 1) * size if i + 1 < k else len(values)]
            for i in range(k)]


def blocks(values, block=1000):
    """Split values, in time order, into consecutive blocks of at least
    `block` samples (the remainder joins the last block)."""
    k = len(values) // block
    return split(values, k) if k else []


def blocked_percentile(values, p, block=1000):
    """Median over consecutive blocks of at least `block` samples of
    each block's p-th percentile; (value, n, blocks).

    A host stall hits the samples of a few hundred milliseconds. One
    stall then moves one block's tail, not the median over blocks, so
    the estimate repeats from run to run. The value is None when there
    are fewer than `block` samples or a block's percentile would have
    fewer than ten samples beyond it.
    """
    parts = blocks(values, block)
    tails = [percentile(b, p)[0] for b in parts]
    if not tails or None in tails:
        return None, len(values), len(parts)
    return median(tails), len(values), len(parts)


def blocked_mean(values, block=1000):
    """Median over consecutive blocks of at least `block` samples of
    each block's mean; (value, n, blocks).

    On a shared host a short CPU-bound call runs in one of two speed
    states that switch every fraction of a second, so single samples
    are bimodal and a pooled median jumps between the modes from run
    to run. A block spans many switches and its mean averages them;
    the median over blocks keeps one disturbed block from moving the
    result.
    """
    parts = blocks(values, block)
    if not parts:
        return None, len(values), 0
    return (median([sum(b) / len(b) for b in parts]), len(values),
            len(parts))


def blocked_sum_of_means(per_job, nblocks=5):
    """A set-up time summed over jobs, from each job's set-up samples in
    time order; (value, n, blocks).

    Each job's samples are split into nblocks consecutive parts; block
    b's value is the sum over jobs of the mean of part b, so a block
    spans a stretch of the run and averages the host's speed states
    within it. The value is the median over blocks, or None when a job
    has no sample.
    """
    k = min([nblocks] + [len(s) for s in per_job])
    if not per_job or k == 0:
        return None, 0, 0
    parts = [split(s, k) for s in per_job]
    sums = [sum(sum(p[b]) / len(p[b]) for p in parts) for b in range(k)]
    return median(sums), sum(len(s) for s in per_job), k


def per_second(times, length):
    """Completions per whole second: bin completion times (seconds from
    the start of a window of `length` seconds) into 1-second bins,
    dropping a trailing partial bin."""
    bins = [0] * int(length)
    for t in times:
        if 0 <= t < len(bins):
            bins[int(t)] += 1
    return bins


def highest_reportable(n, candidates=(99.9, 99.0, 95.0, 90.0, 50.0)):
    """The highest of candidates with at least ten samples beyond it
    among n samples, or None."""
    for p in candidates:
        if beyond_count(n, p) >= MIN_BEYOND:
            return p
    return None


def ratio(num, den):
    """num / den, 0.0 for an empty base."""
    return num / den if den else 0.0


def ratio_text(value, num_name, num, den_name, den):
    """A ratio printed with its base, e.g. '0.9340 (hits 9340 / probes
    10000)'."""
    return "%.4f (%s %s / %s %s)" % (value, num_name, _count(num),
                                     den_name, _count(den))


def _count(x):
    return "%d" % x if float(x).is_integer() else "%.6g" % x
