"""Turns one perfbench measurement document into named metrics.

The C++ program (perfbench/src) records raw samples, exact counts and, in a
traced run, spans; everything here is arithmetic on those, kept free of I/O
so that perfbench/tests can check it directly.
"""

import math
import statistics
from collections import defaultdict

# Percentiles tried, highest first, when reporting a timing's tail.
TAIL_LADDER = (0.999, 0.99, 0.9)

# Which setup sample is the workload's set-up time: the engine workloads'
# ready state is build_problem over the instance set; the edit stream's is
# the session constructor plus its cold first enumerate().
SETUP_SAMPLE = {
    "dense-overlap": "setup_engine_s",
    "handoff-flood": "setup_engine_s",
    "edit-stream": "setup_session_s",
}

# For each per-layer metric: the end-to-end metric it should move and the
# workload where it should show. A change that claims a gain on one layer
# names its claim from this table; the workloads not named are its
# no-change predictions.
LAYER_TARGETS = {
    "gentrius.build_problem_s": ("setup_s", "dense-overlap"),
    "gentrius.ns_per_state": ("solve_serial_s, solve_4t_s",
                              "dense-overlap (little on handoff-flood)"),
    "gentrius.states": ("none: shows whether the search itself changed",
                        "all"),
    "gentrius.dead_end_ratio": ("none: shows whether the search itself "
                                "changed", "all"),
    "gentrius.terrace.choose_ns": ("solve_serial_s", "dense-overlap"),
    "gentrius.terrace.insert_remove_ns": ("solve_serial_s", "handoff-flood"),
    "gentrius.selection.fresh_per_state": ("solve_serial_s", "dense-overlap"),
    "gentrius.selection.cached_per_state": ("solve_serial_s",
                                            "dense-overlap"),
    "gentrius.selection.existence_per_state": ("solve_serial_s",
                                               "dense-overlap"),
    "gentrius.selection.rebuilt_per_state": ("solve_serial_s",
                                             "dense-overlap"),
    "gentrius.selection.cache_ratio": ("solve_serial_s", "dense-overlap"),
    "gentrius.replay_ns_per_insertion": ("solve_4t_s", "handoff-flood"),
    "parallel.pool_overhead_1t": ("solve_4t_s, speedup_4t",
                                  "dense-overlap, handoff-flood"),
    "parallel.tasks_executed": ("solve_4t_s", "handoff-flood"),
    "parallel.tasks_offered": ("solve_4t_s", "handoff-flood"),
    "parallel.tasks_stolen": ("solve_4t_s", "handoff-flood"),
    "parallel.steal_attempts": ("solve_4t_s", "handoff-flood"),
    "parallel.failed_probes": ("solve_4t_s", "handoff-flood"),
    "parallel.queue_full_rejections": ("solve_4t_s", "handoff-flood"),
    "parallel.max_queue_depth": ("solve_4t_s", "handoff-flood"),
    "parallel.offer_accept_ratio": ("solve_4t_s, solve_4t_deques_gw_s",
                                    "handoff-flood"),
    "parallel.task_states_mean": ("solve_4t_s, solve_4t_deques_gw_s",
                                  "handoff-flood"),
    "vthread.predicted_speedup_4t": ("none: simulator fidelity input",
                                     "dense-overlap, handoff-flood"),
    "vthread.speedup_error_4t": ("none: simulator fidelity input",
                                 "dense-overlap, handoff-flood"),
    "decompose.analyze_pam_ms": ("edit_p50_ms, read_p50_ms", "edit-stream"),
    "decompose.plan_shards_ms": ("edit_p50_ms, read_p50_ms", "edit-stream"),
    "pam.fingerprint_us": ("edit_p50_ms, read_p50_ms", "edit-stream"),
    "gentrius.canonicalize_us": ("edit_p50_ms, read_p50_ms", "edit-stream"),
    "incremental.cache_hit_ratio": ("edit_p50_ms", "edit-stream"),
    "incremental.evictions": ("edit_p50_ms", "edit-stream"),
    "incremental.recomputed_states_per_edit": ("edit_p90_ms", "edit-stream"),
    "incremental.recomputed_components_per_edit": ("edit_p90_ms",
                                                   "edit-stream"),
    "incremental.apply_self_ms": ("edit_p50_ms", "edit-stream"),
    "incremental.wall_speedup_p50": ("none: wall-clock counterpart of the "
                                     "per-edit state ratio", "edit-stream"),
    "perfbench.trace_overhead_frac": ("none: cost of recording spans",
                                      "all"),
}

# End-to-end families compared between the traced and untraced passes of a
# traced run to report the cost of recording spans.
OVERHEAD_FAMILIES = ("solve_serial_s", "solve_4t_s", "edit_ms", "read_ms")


# End-to-end timings are corrected for the host's speed. On a shared
# virtual machine the same call runs up to 2x slower for tens of seconds at
# a time while other guests load the host, unseen by this one (no steal
# time), so raw wall times of runs minutes apart are not comparable. Every
# run times a fixed single-thread probe that does not depend on the library
# (host_probe in perfbench.cpp) between its passes; a timing is its raw
# median times PROBE_REFERENCE_S over the run's median probe time: seconds
# at the host speed at which the probe takes PROBE_REFERENCE_S. That is the
# probe's median on the host the bounds were set on (4-vCPU Intel Xeon
# virtual machine, GCC 12, RelWithDebInfo), so there corrected and raw
# times agree on average. Parallel timings use the same factor: probes on
# 2 and 4 threads tracked them no better.
PROBE_REFERENCE_S = 0.0086

SOLVE_CONFIGS = ("solve_serial_s", "solve_2t_s", "solve_4t_s",
                 "solve_4t_deques_gw_s")


def host_factor(doc):
    """What a run's wall times are multiplied by: the reference probe time
    over the run's median probe time."""
    return PROBE_REFERENCE_S / statistics.median(
        doc["samples"]["host_probe_s"])


def by_instance(samples, config):
    """Per-instance sample lists of an engine configuration, recorded as
    "<config>#<instance>"."""
    prefix = config + "#"
    out = [v for k, v in samples.items() if k.startswith(prefix)]
    if not out:
        raise ValueError(f"no samples of {config}")
    return out


def set_median(samples, config):
    """One pass over the instance set: per instance the median call,
    summed; and the number of calls timed."""
    runs = by_instance(samples, config)
    return (sum(statistics.median(v) for v in runs),
            sum(len(v) for v in runs))


def per_edit(samples, name):
    """The median time of each edit (or of the read after it) over the
    times it was played, keyed by the "edit_id" samples recorded
    alongside."""
    plays = defaultdict(list)
    for edit, value in zip(samples["edit_id"], samples[name]):
        plays[edit].append(value)
    return [statistics.median(v) for v in plays.values()]


def rank(n, p):
    """1-based nearest rank of the p-th percentile of n samples."""
    return max(1, math.ceil(p * n))


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least a share p
    of all samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[rank(len(values), p) - 1]


def samples_beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile of n."""
    return n - rank(n, p)


def tail(values, ladder=TAIL_LADDER, min_beyond=10):
    """The highest percentile of `ladder` with at least `min_beyond` samples
    beyond it, as (p, value); None when even the lowest has too few."""
    for p in ladder:
        if samples_beyond(len(values), p) >= min_beyond:
            return p, percentile(values, p)
    return None


def self_time(span, children):
    """A span's duration minus what its children account for.

    Children that ran inside the span subtract the part of the span's
    interval they cover (overlaps counted once). Replayed children ran
    afterwards on the same input, standing in for calls the span made
    internally, so they subtract their whole duration.
    """
    start, end = span["start"], span["end"]
    covered = 0
    intervals = sorted(
        (max(c["start"], start), min(c["end"], end))
        for c in children if not c["replayed"])
    cursor = start
    for lo, hi in intervals:
        lo = max(lo, cursor)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    replayed = sum(c["end"] - c["start"] for c in children if c["replayed"])
    return (end - start) - covered - replayed


def parse_spans(rows):
    """Span rows [name, tag, start, end, parent, op, replayed, work] as
    dicts with their index."""
    keys = ("name", "tag", "start", "end", "parent", "op", "replayed", "work")
    return [dict(zip(keys, row), index=i) for i, row in enumerate(rows)]


def children_of(spans):
    kids = defaultdict(list)
    for s in spans:
        if s["parent"] >= 0:
            kids[s["parent"]].append(s)
    return kids


def durations(spans, name):
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def per_instance(spans, name, config):
    """Durations of the set's `name` spans in `config`, keyed by their tag
    "<config>#<instance>"."""
    out = defaultdict(list)
    prefix = config + "#"
    for s in spans:
        if s["name"] == name and s["tag"].startswith(prefix):
            out[s["tag"]].append(s["end"] - s["start"])
    if not out:
        raise ValueError(f"no {name} spans for {config}")
    return out


def set_time(spans, name, config):
    """Time of one pass over the instance set: per instance the median
    span, summed over instances, in ns."""
    return sum(statistics.median(v)
               for v in per_instance(spans, name, config).values())


def set_count(spans, name, config):
    return sum(len(v) for v in per_instance(spans, name, config).values())


def ratio(num, den):
    return num / den if den else 0.0


def per_op_ratios(spans, num, den):
    """Within each operation, duration of span `num` over span `den`, both
    given as (name, tag); operations lacking either are skipped."""
    by_op = defaultdict(dict)
    for s in spans:
        for key in (num, den):
            if (s["name"], s["tag"]) == key:
                by_op[s["op"]][key] = s["end"] - s["start"]
    return [d[num] / d[den] for d in by_op.values()
            if num in d and d.get(den)]


def end_to_end(doc):
    """Every end-to-end metric as name -> (value, unit, sample count);
    timings are corrected by host_factor."""
    s = doc["samples"]
    k = host_factor(doc)
    setup = s[SETUP_SAMPLE[doc["workload"]]]
    out = {"setup_s": (statistics.median(setup) * k, "s", len(setup))}
    for config in SOLVE_CONFIGS:
        value, n = set_median(s, config)
        out[config] = (value * k, "s", n)
    edits, reads = per_edit(s, "edit_ms"), per_edit(s, "read_ms")
    out.update({
        "speedup_4t": (out["solve_serial_s"][0] / out["solve_4t_s"][0], "x",
                       out["solve_4t_s"][2]),
        "edit_p50_ms": (statistics.median(edits) * k, "ms",
                        len(s["edit_ms"])),
        "edit_p90_ms": (percentile(edits, 0.9) * k, "ms", len(s["edit_ms"])),
        "read_p50_ms": (statistics.median(reads) * k, "ms",
                        len(s["read_ms"])),
        "peak_rss_mb": (doc["peak_rss_kb"] / 1024.0, "MB", 1),
    })
    return out


def per_layer(doc):
    """Every per-layer metric of a traced run as name -> (value, unit, n)."""
    s, v = doc["samples"], doc["values"]
    spans = parse_spans(doc["spans"])
    kids = children_of(spans)
    med = statistics.median
    states = v["gentrius.states"]
    serial_ns = set_time(spans, "gentrius.run_serial", "serial")
    observed_4t = serial_ns / set_time(spans, "parallel.run_parallel", "4t")
    predicted_4t = v["vthread.makespan_1t"] / v["vthread.makespan_4t"]
    n_serial = set_count(spans, "gentrius.run_serial", "serial")

    choose = durations(spans, "gentrius.terrace.choose_dynamic")
    insert = durations(spans, "gentrius.terrace.insert")
    remove = durations(spans, "gentrius.terrace.remove")
    adopt = [x for x in spans if x["name"] == "gentrius.enumerator.adopt_task"]
    rewind = durations(spans, "gentrius.enumerator.rewind_to_split")
    replayed_insertions = sum(x["work"] for x in adopt)
    replay_ns = sum(x["end"] - x["start"] for x in adopt) + sum(rewind)

    applies = [x for x in spans if x["name"] == "incremental.apply"]
    apply_self = [self_time(x, kids[x["index"]]) for x in applies]
    speedups = per_op_ratios(spans, ("decompose.run_sharded", "scratch"),
                             ("incremental.apply", ""))
    hits, misses = sum(s["incremental.hits"]), sum(s["incremental.misses"])
    sel = {k: v["gentrius.selection." + k]
           for k in ("fresh", "cached", "existence", "rebuilt")}
    offered, rejected = s["parallel.tasks_offered"], \
        s["parallel.queue_full_rejections"]

    def med_ns(name):
        d = durations(spans, name)
        return med(d), len(d)

    analyze, n_analyze = med_ns("decompose.analyze_pam")
    plan, n_plan = med_ns("decompose.plan_shards")
    fp, n_fp = med_ns("pam.fingerprint")
    canon, n_canon = med_ns("gentrius.canonicalize_instance")
    n_pass = len(s["parallel.tasks_executed"])

    out = {
        "gentrius.build_problem_s": (
            set_time(spans, "gentrius.build_problem", "") / 1e9, "s",
            set_count(spans, "gentrius.build_problem", "")),
        "gentrius.ns_per_state": (serial_ns / states, "ns", n_serial),
        "gentrius.states": (states, "count", 1),
        "gentrius.dead_end_ratio": (v["gentrius.dead_ends"] / states,
                                    "ratio", 1),
        "gentrius.terrace.choose_ns": (med(choose), "ns", len(choose)),
        "gentrius.terrace.insert_remove_ns": (med(insert) + med(remove), "ns",
                                              min(len(insert), len(remove))),
        "gentrius.selection.fresh_per_state": (sel["fresh"] / states,
                                               "count", 1),
        "gentrius.selection.cached_per_state": (sel["cached"] / states,
                                                "count", 1),
        "gentrius.selection.existence_per_state": (
            sel["existence"] / states, "count", 1),
        "gentrius.selection.rebuilt_per_state": (sel["rebuilt"] / states,
                                                 "count", 1),
        "gentrius.selection.cache_ratio": (
            ratio(sel["cached"], sel["cached"] + sel["fresh"]), "ratio", 1),
        "gentrius.replay_ns_per_insertion": (
            ratio(replay_ns, replayed_insertions), "ns", len(adopt)),
        "parallel.pool_overhead_1t": (
            set_time(spans, "parallel.run_parallel", "1t") / serial_ns,
            "ratio", set_count(spans, "parallel.run_parallel", "1t")),
    }
    for name in ("tasks_executed", "tasks_offered", "tasks_stolen",
                 "steal_attempts", "failed_probes", "queue_full_rejections",
                 "max_queue_depth"):
        out["parallel." + name] = (med(s["parallel." + name]), "count",
                                   n_pass)
    out.update({
        "parallel.offer_accept_ratio": (
            med(ratio(o, o + r) for o, r in zip(offered, rejected)),
            "ratio", n_pass),
        "parallel.task_states_mean": (
            med(ratio(a, t) for a, t in zip(
                s["parallel.adopted_actual_states"],
                s["parallel.tasks_stolen"])), "count", n_pass),
        "vthread.predicted_speedup_4t": (predicted_4t, "x", 1),
        "vthread.speedup_error_4t": (predicted_4t / observed_4t - 1, "ratio",
                                     n_serial),
        "decompose.analyze_pam_ms": (analyze / 1e6, "ms", n_analyze),
        "decompose.plan_shards_ms": (plan / 1e6, "ms", n_plan),
        "pam.fingerprint_us": (fp / 1e3, "us", n_fp),
        "gentrius.canonicalize_us": (canon / 1e3, "us", n_canon),
        "incremental.cache_hit_ratio": (ratio(hits, hits + misses), "ratio",
                                        len(s["incremental.hits"])),
        "incremental.evictions": (sum(s["incremental.evictions"]), "count",
                                  len(s["incremental.evictions"])),
        "incremental.recomputed_states_per_edit": (
            statistics.fmean(s["incremental.recomputed_states"]), "count",
            len(s["incremental.recomputed_states"])),
        "incremental.recomputed_components_per_edit": (
            statistics.fmean(s["incremental.recomputed_components"]),
            "count", len(s["incremental.recomputed_components"])),
        "incremental.apply_self_ms": (med(apply_self) / 1e6, "ms",
                                      len(apply_self)),
        "incremental.wall_speedup_p50": (
            med(speedups), "x", len(speedups)),
        "perfbench.trace_overhead_frac": (
            med(overheads(doc).values()), "ratio", len(OVERHEAD_FAMILIES)),
    })
    return out


def overheads(doc):
    """Per end-to-end family: traced / untraced - 1. Both sides ran
    interleaved in one run, so no host correction is needed."""
    def family(samples, f):
        if f.endswith("_s"):
            return set_median(samples, f)[0]
        return statistics.median(per_edit(samples, f))
    traced, plain = doc["samples"], doc["untraced_samples"]
    return {f: family(traced, f) / family(plain, f) - 1
            for f in OVERHEAD_FAMILIES}
