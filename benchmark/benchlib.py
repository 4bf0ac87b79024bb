"""Statistics and validation helpers shared by run.py, repeat.py and compare.py.

Everything here is pure Python (no third-party modules) so that the helpers
can be unit-tested without building the C++ measurement binary.
"""

import json
import math
import re
import statistics
from pathlib import Path

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RESULT_KEYS = ("correct", "attempted", "failed", "metrics")
# Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)
# Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def valid_name(name):
    """True for metric and workload names: [A-Za-z0-9_.-]+, at most 64
    characters, starting with a letter or digit."""
    return isinstance(name, str) and NAME_RE.match(name) is not None


def valid_unit(unit):
    return isinstance(unit, str) and UNIT_RE.match(unit) is not None


def percentile(values, p):
    """Linear-interpolated percentile (the 'linear' method: rank
    (n - 1) * p / 100 between the two closest order statistics)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = math.ceil(rank)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail_percentile(n):
    """The highest percentile of TAIL_LADDER with at least MIN_BEYOND of n
    samples beyond it, or None when even the median has fewer."""
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9:
            return p
    return None


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile distance as a share of the median (0 when the median
    is 0 and the quartiles agree)."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(q2)


def worse_by(parent_median, change_median, better):
    """How much worse (as a share of the parent's median) the change is;
    negative when it is better."""
    if parent_median == 0:
        return 0.0 if change_median == parent_median else math.inf
    delta = (change_median - parent_median) / abs(parent_median)
    return delta if better == "lower" else -delta


def validate_result(result, metric_names):
    """Checks one run's output object against the benchmark contract.
    Returns a list of problems (empty when valid)."""
    problems = []
    if not isinstance(result, dict) or tuple(sorted(result)) != tuple(
            sorted(RESULT_KEYS)):
        return ["result keys must be exactly %s" % (RESULT_KEYS,)]
    if not isinstance(result["correct"], bool):
        problems.append("correct must be a bool")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append("%s must be an integer" % key)
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted must be >= 1")
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return problems + ["metrics must be an object"]
    if sorted(metrics) != sorted(metric_names):
        problems.append("metrics %s != expected %s" %
                        (sorted(metrics), sorted(metric_names)))
    for name, entry in metrics.items():
        if not valid_name(name):
            problems.append("bad metric name %r" % name)
        if not isinstance(entry, dict) or sorted(entry) != ["unit", "value"]:
            problems.append("metric %s must hold exactly value and unit" % name)
            continue
        value = entry["value"]
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value)):
            problems.append("metric %s value must be a finite number" % name)
        if not valid_unit(entry["unit"]):
            problems.append("metric %s has a bad unit" % name)
    return problems


def load_spec(path):
    """Reads BENCHMARK.json and checks the names and bounds it declares."""
    spec = json.loads(Path(path).read_text())
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for name in names:
        if not valid_name(name):
            raise ValueError("invalid name %r in %s" % (name, path))
    if len(set(names)) != len(names):
        raise ValueError("duplicate name in %s" % path)
    for metric in spec["end_to_end"]:
        if not 0 < metric["bound"] <= 0.25:
            raise ValueError("bound of %s outside (0, 0.25]" % metric["name"])
    return spec
