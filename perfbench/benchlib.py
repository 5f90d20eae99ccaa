"""Pure helpers of perfbench/run.py: percentiles, failure shares,
metric-name rules and run aggregation.  No I/O, so tests can call them."""

import re
import statistics

# The eight end-to-end metrics every workload run prints, with their units;
# None in APPLIES means "every workload".
END_TO_END = [
    ("host_s", "s"),
    ("host_cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("failed_share", "ratio"),
    ("response_p50_s", "s"),
    ("response_p95_s", "s"),
    ("virtual_makespan_s", "s"),
]
SERVE_WORKLOADS = ("serve_diurnal", "resilient_burst")
APPLIES = {
    "response_p50_s": SERVE_WORKLOADS,
    "response_p95_s": SERVE_WORKLOADS,
}

# Every per-layer metric the traced run can report, in print order.
LAYERS = (
    "hsi.scene_gen_s", "serve.trace_gen_s", "serve.admission_s",
    "serve.rider_share", "serve.quota_rejected", "serve.sla_export_s",
    "sched.costmodel_s", "sched.gangs", "sched.host_us_per_gang",
    "sched.wait_p95_s", "sched.span_p95_s", "sched.utilization",
    "sched.attempts", "sched.checkpoints", "vmpi.collectives",
    "vmpi.p2p_messages", "vmpi.wire_bytes", "vmpi.parks", "vmpi.wakeups",
    "vmpi.host_us_per_op", "core.numerics_s", "core.flops",
    "linalg.eigen_ms", "linalg.eigen_calls", "linalg.eigen_sweeps",
    "obs.snapshot_samples", "obs.timeline_export_s", "trace_overhead_s")

# How many derived inputs one run of a workload measures.  More inputs
# average out how much work a seed's trace happens to contain; each costs a
# reference run and a timed run.
INPUTS = {"serve_diurnal": 4, "table8_p256": 1, "resilient_burst": 4}

# The rule for reporting a tail percentile: at least this many
# samples must lie beyond it.
TAIL_SAMPLES = 10

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def applies(metric, workload):
    scope = APPLIES.get(metric)
    return scope is None or workload in scope


def _rank(n, q):
    """1-based nearest rank ceil(q * n), exact for q given to 9 decimals
    (plain float ceil(0.95 * 200) can land on 191)."""
    if not 0.0 < q <= 1.0:
        raise ValueError("q must lie in (0, 1]")
    return max(1, -(-round(q * 10**9) * n // 10**9))


def nearest_rank(samples, q):
    """Nearest-rank q-percentile (0 < q <= 1) of an unsorted sample."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    return sorted(samples)[_rank(len(samples), q) - 1]


def samples_beyond(n, q):
    """Samples ranked above the nearest-rank q-percentile."""
    return n - _rank(n, q)


def tail_percentile(samples, q):
    """nearest_rank(samples, q), or None when fewer than TAIL_SAMPLES
    samples lie beyond it."""
    if samples_beyond(len(samples), q) < TAIL_SAMPLES:
        return None
    return nearest_rank(samples, q)


FAILURE_KINDS = ("refused", "failed", "degraded", "aborted", "wrong")


def failed_share(tally):
    """Failures of every kind over attempted; tally is a dict of counts."""
    attempted = tally.get("attempted", 0)
    if attempted <= 0:
        raise ValueError("no attempted requests")
    return sum(tally.get(k, 0) for k in FAILURE_KINDS) / attempted


def valid_name(name):
    return bool(NAME_RE.match(name))


def valid_unit(unit):
    return bool(UNIT_RE.match(unit))


def aggregate(workload, per_input):
    """Run-level end-to-end values from per-input timed results.

    per_input maps an input index to the list of that input's timed results
    (one dict per pass, as the bench process printed it).  Host metrics
    take each input's median over passes and sum over inputs (the time to
    serve every input once); peak RSS takes the largest input median.
    Virtual results must agree between passes of one input; the makespan
    sums over inputs and response percentiles pool every input's requests.
    Returns (values, tally, consistent)."""
    values = {"host_s": 0.0, "host_cpu_s": 0.0, "setup_s": 0.0,
              "peak_rss_mb": 0.0, "virtual_makespan_s": 0.0}
    tally = {"attempted": 0}
    for kind in FAILURE_KINDS:
        tally[kind] = 0
    responses = []
    consistent = True
    for k in sorted(per_input):
        runs = per_input[k]
        for key in ("host_s", "host_cpu_s", "setup_s"):
            values[key] += statistics.median(r[key] for r in runs)
        values["peak_rss_mb"] = max(values["peak_rss_mb"],
                                    statistics.median(r["peak_rss_mb"]
                                                      for r in runs))
        first = runs[0]
        for r in runs[1:]:
            if (r["virtual_makespan_s"] != first["virtual_makespan_s"]
                    or r["response_s"] != first["response_s"]):
                consistent = False
        values["virtual_makespan_s"] += first["virtual_makespan_s"]
        responses.extend(first["response_s"])
        for r in runs:
            tally["attempted"] += r["attempted"]
            for kind in FAILURE_KINDS:
                tally[kind] += r[kind]
    values["failed_share"] = failed_share(tally)
    if workload in SERVE_WORKLOADS:
        values["response_p50_s"] = tail_percentile(responses, 0.50)
        values["response_p95_s"] = tail_percentile(responses, 0.95)
    values["response_samples"] = len(responses)
    return values, tally, consistent
