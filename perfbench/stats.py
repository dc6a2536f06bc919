"""Statistics behind the benchmark's report.

Kept free of I/O so tests/test_stats.py can pin every rule:

* medians and quartiles as ``statistics.quantiles(values, n=4)`` gives them;
* the latency tail: the highest percentile on a fixed ladder that leaves at
  least ten samples beyond it, judged at the run's guaranteed minimum
  sample count so the same percentile is reported on every run;
* open-loop lateness: how far behind its schedule each request was sent;
* self time per layer from spans, with nested and overlapping children.
"""

import statistics

TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, q2, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values, p):
    """The p-th percentile (0..100), interpolating linearly between the two
    nearest ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(min_samples, ladder=TAIL_LADDER, min_beyond=MIN_BEYOND):
    """Highest ladder percentile with at least `min_beyond` of `min_samples`
    samples beyond it (the ladder's first step when none has)."""
    chosen = ladder[0]
    for p in ladder:
        if min_samples * (100.0 - p) / 100.0 >= min_beyond:
            chosen = p
    return chosen


def tail(values, min_samples):
    """(percentile used, its value) for a sample of at least `min_samples`."""
    p = tail_percentile(min_samples)
    return p, percentile(values, p)


def lateness(scheduled, sent):
    """Per request, how long after its scheduled time it was sent (never
    negative)."""
    if len(scheduled) != len(sent):
        raise ValueError("scheduled and sent differ in length")
    return [max(0.0, s - d) for d, s in zip(scheduled, sent)]


def layer_of(name):
    """Span names are "<layer>.<operation>"."""
    return name.split(".", 1)[0]


def union(intervals):
    """Sorted, disjoint cover of the given (start, end) intervals."""
    merged = []
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def measure(intervals):
    return sum(end - start for start, end in union(intervals))


def subtract(interval, covered):
    """Parts of `interval` outside the disjoint sorted list `covered`."""
    start, end = interval
    gaps = []
    for c_start, c_end in covered:
        if c_end <= start or c_start >= end:
            continue
        if c_start > start:
            gaps.append((start, c_start))
        start = max(start, c_end)
    if end > start:
        gaps.append((start, end))
    return gaps


def self_times(spans):
    """Self time per layer, in the spans' time unit.

    A span's self time is its interval minus the part its children cover
    (children are clipped to the parent and may overlap each other). A
    layer's self time is the measure of the union of its spans' self
    intervals, so overlapping spans of one layer are not counted twice.
    Spans are dicts with id, parent (0 for a root), name, start and end.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    regions = {}
    for s in spans:
        kids = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                for c in children.get(s["id"], [])]
        own = subtract((s["start"], s["end"]), union(kids))
        regions.setdefault(layer_of(s["name"]), []).extend(own)
    return {layer: measure(r) for layer, r in regions.items()}


def traced_wall(spans):
    """Time covered by root spans."""
    return measure([(s["start"], s["end"]) for s in spans if s["parent"] == 0])
