#!/usr/bin/env python3
"""Validate a metrics.json artifact written by `sbsim run --metrics-out`.

CI runs this on the metrics artifact so the exported schema cannot rot
silently: a field renamed or dropped in src/obs/export.cpp, a NaN leaking
out of a quantile on an empty histogram, or the writer interleaving log
text into the JSON all fail the job here, not in whoever consumes the
artifact next month.

Checks, in order:

  * the file parses as strict JSON (any NaN/Infinity literal is rejected
    at parse time, then every number is re-checked for finiteness);
  * `schema_version` is 1 and `enabled` is true;
  * `sha256_backend` names the SHA-256 compression that ran: "sha-ni" or
    "portable";
  * the `phases` object has all eight engine phases, each with `wall_ns`,
    `spans` and a `span_ns` distribution carrying count/sum/min/max/mean
    and the p50/p90/p99 quantiles;
  * lookup's sub-phases nest: `site` and `url_build` record one span each
    per URL-cache miss (equal span counts), and their wall time together
    never exceeds `lookup`'s;
  * when the `per_tick` series is present, each phase's per-tick times sum
    to its `wall_ns`: every span lands in exactly one tick's sample;
  * `phases_by_wall` (descending-wall reading order) names all eight phases;
  * `thread_pool` has the batch/dispatch/busy/imbalance fields and a
    per-worker array sized to `threads_used`;
  * `transport` has all four protocol channels with request/byte counts
    and serve-time + frame-size distributions;
  * `counters` is a non-empty object of integers;
  * an engine artifact (its counters carry `ticks_run`) has
    `update_decode_reuses` -- update responses the client transports
    answered from their decode memo -- and it is at most the v3 + v4 update
    requests the `transport` section served. A daemon artifact has no
    client transports and no such counter; its `frames_served` equals the
    requests summed over the `transport` channels, since the daemon counts
    each served frame in both;
  * `update_serve_locked` -- update requests the server served under its
    serve mutex -- is at most the v3 + v4 update requests the `transport`
    section served (a daemon's undecodable update frames, counted in
    `decode_errors`, take the mutex too);
  * an engine artifact also has `sync_state_locked` and a `locks` section
    (beside `thread_pool`) with `update_serve` and `sync_state`, each with
    `acquisitions` equal to its counter and `wait_ns` / `hold_ns`
    distributions of one sample per acquisition;
  * an engine artifact has a `setup` section: the integer wall times of
    the constructor's steps (`seed_blacklist_ns`, `seal_universe_ns`,
    `build_population_ns`) and of the whole constructor (`total_ns`). The
    steps run one after another inside it, so they sum to at most the
    total.

stdlib only. Exit codes: 0 ok, 1 any failure (with one line per problem).

usage: tools/check_metrics.py build/metrics.json
"""

import json
import math
import sys

PHASES = ("plan", "lookup", "resync", "churn_epoch", "log_drain",
          "parallel_tick", "site", "url_build")
# Sub-phases timed inside lookup spans (URL-cache misses only).
LOOKUP_SUBPHASES = ("site", "url_build")
CHANNELS = ("full_hash", "v3_update", "v4_update", "v1_lookup")
UPDATE_CHANNELS = ("v3_update", "v4_update")
DIST_FIELDS = ("count", "sum", "min", "max", "mean", "p50", "p90", "p99")
POOL_DISTS = ("dispatch_ns", "busy_ns", "imbalance_items")
# Engine mutexes in the `locks` section, and the counter each one's
# acquisitions equal.
LOCKS = (("update_serve", "update_serve_locked"),
         ("sync_state", "sync_state_locked"))
LOCK_DISTS = ("wait_ns", "hold_ns")
CHANNEL_DISTS = ("serve_ns", "request_bytes", "response_bytes")
# The engine constructor's timed steps, and its total.
SETUP_PARTS = ("seed_blacklist_ns", "seal_universe_ns", "build_population_ns")
SETUP_TOTAL = "total_ns"
SHA256_BACKENDS = ("sha-ni", "portable")


def reject_constant(token):
    raise ValueError(f"non-finite JSON constant: {token}")


def walk_finite(node, path, problems):
    """Every number anywhere in the document must be finite."""
    if isinstance(node, float) and not math.isfinite(node):
        problems.append(f"{path}: non-finite number")
    elif isinstance(node, dict):
        for key, value in node.items():
            walk_finite(value, f"{path}.{key}", problems)
    elif isinstance(node, list):
        for index, value in enumerate(node):
            walk_finite(value, f"{path}[{index}]", problems)


def require(node, path, key, kinds, problems):
    """Fetch node[key], recording a problem when missing or mistyped."""
    if not isinstance(node, dict) or key not in node:
        problems.append(f"{path}.{key}: missing")
        return None
    value = node[key]
    if kinds is not None and not isinstance(value, kinds):
        # bool is an int subclass in Python; never accept it for numbers.
        problems.append(f"{path}.{key}: wrong type {type(value).__name__}")
        return None
    if kinds is not None and kinds != (bool,) and isinstance(value, bool):
        problems.append(f"{path}.{key}: wrong type bool")
        return None
    return value


NUMBER = (int, float)


def check_distribution(node, path, problems):
    dist = node
    if not isinstance(dist, dict):
        problems.append(f"{path}: not an object")
        return
    for field in DIST_FIELDS:
        require(dist, path, field, NUMBER, problems)


def check_document(doc, problems):
    version = require(doc, "$", "schema_version", (int,), problems)
    if version is not None and version != 1:
        problems.append(f"$.schema_version: expected 1, got {version}")
    enabled = require(doc, "$", "enabled", (bool,), problems)
    if enabled is False:
        problems.append("$.enabled: metrics artifact written with metrics "
                        "off")
    backend = require(doc, "$", "sha256_backend", (str,), problems)
    if backend is not None and backend not in SHA256_BACKENDS:
        problems.append(f"$.sha256_backend: {backend!r} is not one of "
                        f"{', '.join(SHA256_BACKENDS)}")
    threads_used = require(doc, "$", "threads_used", (int,), problems)
    require(doc, "$", "ticks", (int,), problems)

    phases = require(doc, "$", "phases", (dict,), problems)
    if phases is not None:
        for phase in PHASES:
            entry = require(phases, "$.phases", phase, (dict,), problems)
            if entry is None:
                continue
            path = f"$.phases.{phase}"
            require(entry, path, "wall_ns", (int,), problems)
            require(entry, path, "spans", (int,), problems)
            span_ns = require(entry, path, "span_ns", (dict,), problems)
            if span_ns is not None:
                check_distribution(span_ns, f"{path}.span_ns", problems)

    if phases is not None and all(
            isinstance(phases.get(name), dict) and
            isinstance(phases[name].get("wall_ns"), int) and
            isinstance(phases[name].get("spans"), int)
            for name in ("lookup",) + LOOKUP_SUBPHASES):
        site, build = (phases[name] for name in LOOKUP_SUBPHASES)
        if site["spans"] != build["spans"]:
            problems.append(f"$.phases: site spans {site['spans']} != "
                            f"url_build spans {build['spans']} (one each "
                            "per URL-cache miss)")
        nested = site["wall_ns"] + build["wall_ns"]
        if nested > phases["lookup"]["wall_ns"]:
            problems.append(f"$.phases: site + url_build wall_ns {nested} > "
                            f"lookup wall_ns {phases['lookup']['wall_ns']} "
                            "(sub-phases must nest inside lookup)")

    if "per_tick" in doc and phases is not None:
        check_per_tick(doc["per_tick"], phases, problems)

    by_wall = require(doc, "$", "phases_by_wall", (list,), problems)
    if by_wall is not None:
        named = {entry for entry in by_wall if isinstance(entry, str)}
        for phase in PHASES:
            if phase not in named:
                problems.append(f"$.phases_by_wall: phase {phase!r} missing")

    pool = require(doc, "$", "thread_pool", (dict,), problems)
    if pool is not None:
        require(pool, "$.thread_pool", "batches", (int,), problems)
        require(pool, "$.thread_pool", "tasks", (int,), problems)
        for name in POOL_DISTS:
            dist = require(pool, "$.thread_pool", name, (dict,), problems)
            if dist is not None:
                check_distribution(dist, f"$.thread_pool.{name}", problems)
        workers = require(pool, "$.thread_pool", "workers", (list,),
                          problems)
        if workers is not None:
            if isinstance(threads_used, int) and len(workers) != threads_used:
                problems.append(
                    f"$.thread_pool.workers: {len(workers)} entries, "
                    f"expected threads_used={threads_used}")
            for index, worker in enumerate(workers):
                path = f"$.thread_pool.workers[{index}]"
                for field in ("busy_ns", "executed", "batches"):
                    require(worker if isinstance(worker, dict) else {},
                            path, field, (int,), problems)

    transport = require(doc, "$", "transport", (dict,), problems)
    if transport is not None:
        for channel in CHANNELS:
            entry = require(transport, "$.transport", channel, (dict,),
                            problems)
            if entry is None:
                continue
            path = f"$.transport.{channel}"
            for field in ("requests", "bytes_up", "bytes_down"):
                require(entry, path, field, (int,), problems)
            for name in CHANNEL_DISTS:
                dist = require(entry, path, name, (dict,), problems)
                if dist is not None:
                    check_distribution(dist, f"{path}.{name}", problems)

    counters = require(doc, "$", "counters", (dict,), problems)
    if counters is not None:
        if not counters:
            problems.append("$.counters: empty")
        for name, value in counters.items():
            if isinstance(value, bool) or not isinstance(value, int):
                problems.append(f"$.counters.{name}: not an integer")
        if "ticks_run" in counters:
            check_decode_reuses(counters, transport, problems)
            check_locks(doc, counters, problems)
            check_setup(doc, problems)
        else:
            check_frames_served(counters, transport, problems)
        check_update_serve_locked(counters, transport, problems)


def check_per_tick(per_tick, phases, problems):
    if not isinstance(per_tick, list) or not all(
            isinstance(sample, dict) for sample in per_tick):
        problems.append("$.per_tick: not an array of objects")
        return
    for phase in PHASES:
        entry = phases.get(phase)
        if not isinstance(entry, dict) or \
                not isinstance(entry.get("wall_ns"), int):
            continue  # already reported by the phase checks
        values = [sample.get(phase) for sample in per_tick]
        if not all(isinstance(value, int) and not isinstance(value, bool)
                   for value in values):
            problems.append(f"$.per_tick: {phase} missing or not an integer")
            continue
        if sum(values) != entry["wall_ns"]:
            problems.append(f"$.per_tick: {phase} sums to {sum(values)} != "
                            f"phases.{phase}.wall_ns {entry['wall_ns']}")


def transport_requests(transport, channels):
    """Requests summed over `channels`; None when any is unreadable."""
    served = 0
    for channel in channels:
        entry = transport.get(channel)
        requests = entry.get("requests") if isinstance(entry, dict) else None
        if not isinstance(requests, int):
            return None  # already reported by the transport checks
        served += requests
    return served


def check_frames_served(counters, transport, problems):
    frames = require(counters, "$.counters", "frames_served", (int,),
                     problems)
    if frames is None or not isinstance(transport, dict):
        return
    served = transport_requests(transport, CHANNELS)
    if served is not None and frames != served:
        problems.append(f"$.counters.frames_served: {frames} != {served} "
                        "requests over the transport channels")


def check_decode_reuses(counters, transport, problems):
    reuses = require(counters, "$.counters", "update_decode_reuses", (int,),
                     problems)
    if reuses is None or not isinstance(transport, dict):
        return
    served = transport_requests(transport, UPDATE_CHANNELS)
    if served is not None and reuses > served:
        problems.append(f"$.counters.update_decode_reuses: {reuses} > "
                        f"{served} update requests served")


def check_update_serve_locked(counters, transport, problems):
    locked = require(counters, "$.counters", "update_serve_locked", (int,),
                     problems)
    if locked is None or not isinstance(transport, dict):
        return
    served = transport_requests(transport, UPDATE_CHANNELS)
    if served is None:
        return
    rejected = counters.get("decode_errors", 0)
    if isinstance(rejected, int) and locked > served + rejected:
        problems.append(f"$.counters.update_serve_locked: {locked} > "
                        f"{served} update requests served"
                        + (f" + {rejected} decode errors" if rejected else ""))


def check_locks(doc, counters, problems):
    require(counters, "$.counters", "sync_state_locked", (int,), problems)
    locks = require(doc, "$", "locks", (dict,), problems)
    if locks is None:
        return
    for name, counter in LOCKS:
        entry = require(locks, "$.locks", name, (dict,), problems)
        if entry is None:
            continue
        path = f"$.locks.{name}"
        acquisitions = require(entry, path, "acquisitions", (int,), problems)
        if acquisitions is not None and isinstance(counters.get(counter), int) \
                and acquisitions != counters[counter]:
            problems.append(f"{path}.acquisitions: {acquisitions} != "
                            f"counters.{counter} {counters[counter]}")
        for dist_name in LOCK_DISTS:
            dist = require(entry, path, dist_name, (dict,), problems)
            if dist is None:
                continue
            check_distribution(dist, f"{path}.{dist_name}", problems)
            count = dist.get("count")
            if isinstance(count, int) and isinstance(acquisitions, int) and \
                    count != acquisitions:
                problems.append(f"{path}.{dist_name}.count: {count} != "
                                f"{acquisitions} acquisitions")


def check_setup(doc, problems):
    setup = require(doc, "$", "setup", (dict,), problems)
    if setup is None:
        return
    values = {name: require(setup, "$.setup", name, (int,), problems)
              for name in SETUP_PARTS + (SETUP_TOTAL,)}
    if any(value is None for value in values.values()):
        return
    parts = sum(values[name] for name in SETUP_PARTS)
    if parts > values[SETUP_TOTAL]:
        problems.append(f"$.setup: steps sum to {parts} ns > {SETUP_TOTAL} "
                        f"{values[SETUP_TOTAL]} (they run inside the "
                        "constructor)")


def main():
    if len(sys.argv) != 2:
        print("usage: check_metrics.py METRICS_JSON", file=sys.stderr)
        return 1
    path = sys.argv[1]
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle, parse_constant=reject_constant)
    except (OSError, ValueError) as error:
        print(f"check_metrics: cannot read {path}: {error}", file=sys.stderr)
        return 1

    problems = []
    if not isinstance(doc, dict):
        problems.append("$: top level is not an object")
    else:
        walk_finite(doc, "$", problems)
        check_document(doc, problems)

    for problem in problems:
        print(f"FAIL [metrics-schema]: {problem}", file=sys.stderr)
    if not problems:
        print(f"OK [metrics-schema]: {path} valid "
              f"(schema_version 1, {len(doc.get('phases', {}))} phases, "
              f"{len(doc.get('counters', {}))} counters)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
