#!/usr/bin/env python3
"""Compare a BENCH_*.json artifact against its committed baseline.

CI runs this after the reduced benches so that two classes of regression
fail the job instead of rotting silently in artifacts:

  * throughput: BENCH_sim.json `user_ticks_per_sec` dropping more than
    --max-regression (default 25%) below bench/baselines/BENCH_sim.json;
  * protocol invariants: BENCH_protocol_bandwidth.json must report
    `v4_smaller_than_v3: true` -- the paper-era v3 protocol costing LESS
    than v4 for the same liveness would mean the Rice-coded sliced-update
    implementation broke;
  * thread scaling (warn-only by default): when the baseline declares
    `min_speedup`, the best `thread_sweep` speedup must reach it; misses
    print a WARN unless --enforce-min-speedup upgrades them to failures.
    The floor is hardware-aware: the effective requirement is
    min(min_speedup, max(1.0, 0.5 * hardware_threads)) using the CURRENT
    artifact's `hardware_threads`, so a 1-core container trivially passes
    (no parallelism exists to demand) while a 4-vCPU CI runner must show
    at least 2x -- the committed min_speedup is the policy ceiling that
    kicks in once the hardware can express it.

Throughput artifacts must be medians: a sim_throughput or net_throughput
artifact whose `samples` is missing or below 3 fails, because one cold
sample swings past the 25% floor on a shared runner (the benches take 5).

The tool dispatches on the artifact's `experiment` field, so wiring a new
bench in is: emit `experiment` + numbers, add a committed baseline, call
this once more in ci.yml.

Baselines live in bench/baselines/ and are refreshed deliberately with
--write-baseline (a throughput IMPROVEMENT is not an error, but committing
it keeps the floor honest). Throughput baselines are hardware-dependent
and each file records its host's `hardware_threads`; BENCH_sim.json comes
from a 4-thread host, so its thread sweep exercises the scaling floor.
Determinism fields are hardware-INdependent:
`deterministic_across_threads: false` always fails, on any machine.

usage:
  tools/compare_bench.py --baseline bench/baselines/BENCH_sim.json \
                         --current build/BENCH_sim.json [--max-regression 0.25]
  tools/compare_bench.py --current build/BENCH_sim.json --write-baseline \
                         --baseline bench/baselines/BENCH_sim.json

Exit codes: 0 ok, 1 usage/io error, 2 regression or broken invariant.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as error:
        print(f"compare_bench: cannot read {path}: {error}", file=sys.stderr)
        sys.exit(1)


MIN_SAMPLES = 3


def check_samples(current):
    """The reported timing must be a median over at least MIN_SAMPLES runs."""
    samples = current.get("samples")
    if isinstance(samples, bool) or not isinstance(samples, int) or \
            samples < MIN_SAMPLES:
        return [f"samples is {samples!r}: the timing must be the median of "
                f"at least {MIN_SAMPLES} runs, not a single sample"]
    return []


def check_throughput(baseline, current, args):
    """sim_throughput: throughput floor + determinism gate + scaling floor."""
    failures = check_samples(current)
    base = baseline.get("user_ticks_per_sec")
    cur = current.get("user_ticks_per_sec")
    if not isinstance(base, (int, float)) or base <= 0:
        failures.append("baseline has no positive user_ticks_per_sec")
    elif not isinstance(cur, (int, float)) or cur <= 0:
        failures.append("current has no positive user_ticks_per_sec")
    else:
        floor = base * (1.0 - args.max_regression)
        delta = (cur - base) / base
        print(f"throughput: current {cur:.0f} vs baseline {base:.0f} "
              f"user-ticks/s ({delta:+.1%}; floor {floor:.0f})")
        if cur < floor:
            failures.append(
                f"throughput regressed {-delta:.1%} "
                f"(> {args.max_regression:.0%} allowed): {cur:.0f} < floor "
                f"{floor:.0f} user-ticks/s")
    if current.get("deterministic_across_threads") is not True:
        failures.append("deterministic_across_threads is not true")

    # Thread-scaling floor: the baseline file declares `min_speedup`, the
    # best speedup over the 1-thread run the sweep is expected to reach.
    # Warn-only by default; --enforce-min-speedup turns a miss into a
    # failure. The effective floor scales with the CURRENT machine's core
    # count (see module docstring), so enforcement is safe even on a
    # 1-core container: with no cores to scale across, the floor
    # degenerates to 1.0x.
    min_speedup = baseline.get("min_speedup")
    if isinstance(min_speedup, (int, float)) and min_speedup > 0:
        hardware = current.get("hardware_threads")
        effective = min_speedup
        if isinstance(hardware, (int, float)) and hardware > 0:
            effective = min(min_speedup, max(1.0, 0.5 * hardware))
        sweep = current.get("thread_sweep") or []
        speedups = [point.get("speedup") for point in sweep
                    if isinstance(point.get("speedup"), (int, float))]
        if not speedups:
            message = ("baseline declares min_speedup but current has no "
                       "thread_sweep speedups")
            if args.enforce_min_speedup:
                failures.append(message)
            else:
                print(f"WARN [sim_throughput]: {message}", file=sys.stderr)
        else:
            best = max(speedups)
            print(f"scaling: best speedup {best:.2f}x over 1 thread "
                  f"(policy floor {min_speedup:.2f}x, effective "
                  f"{effective:.2f}x at hardware_threads={hardware})")
            if best < effective:
                message = (f"best thread-sweep speedup {best:.2f}x below "
                           f"effective min_speedup {effective:.2f}x "
                           f"(policy {min_speedup:.2f}x, "
                           f"hardware_threads={hardware})")
                if args.enforce_min_speedup:
                    failures.append(message)
                else:
                    print(f"WARN [sim_throughput]: {message} "
                          "(warn-only; pass --enforce-min-speedup to gate)",
                          file=sys.stderr)

    # Per-phase breakdown deltas (informational): surfaces WHERE a
    # throughput change landed -- resync vs lookup vs plan -- by matching
    # sweep entries on requested thread count. Baselines predating the
    # phases{} field just skip this.
    base_phases = {point.get("threads"): point.get("phases")
                   for point in (baseline.get("thread_sweep") or [])
                   if isinstance(point.get("phases"), dict)}
    for point in (current.get("thread_sweep") or []):
        threads = point.get("threads")
        cur_phases = point.get("phases")
        base = base_phases.get(threads)
        if not isinstance(cur_phases, dict) or not isinstance(base, dict):
            continue
        deltas = []
        for key in sorted(cur_phases):
            b, c = base.get(key), cur_phases.get(key)
            if not isinstance(b, (int, float)) or b <= 0 or \
                    not isinstance(c, (int, float)):
                continue
            deltas.append(f"{key.removesuffix('_ns')} "
                          f"{(c - b) / b:+.0%} ({b / 1e6:.0f}ms "
                          f"-> {c / 1e6:.0f}ms)")
        if deltas:
            print(f"phases @ {threads} thread(s): " + ", ".join(deltas))
    return failures


def check_bandwidth(baseline, current, _args):
    """protocol_bandwidth: the v4 < v3 update-cost invariant."""
    failures = []
    if current.get("v4_smaller_than_v3") is not True:
        failures.append(
            "v4_smaller_than_v3 is not true: v4 sliced updates must cost "
            "less wire than v3 chunked for the same list "
            f"(v3 full {current.get('v3_full_sync_bytes')} B vs v4 full "
            f"{current.get('v4_full_sync_bytes')} B; v3 incremental "
            f"{current.get('v3_incremental_bytes')} B vs v4 incremental "
            f"{current.get('v4_incremental_bytes')} B)")
    else:
        print("bandwidth invariant: v4 < v3 holds "
              f"(full {current.get('v4_full_sync_bytes')} < "
              f"{current.get('v3_full_sync_bytes')} B, incremental "
              f"{current.get('v4_incremental_bytes')} < "
              f"{current.get('v3_incremental_bytes')} B)")
    # Bandwidth is deterministic at fixed workload parameters: a byte drift
    # against baseline is a protocol change worth flagging (warning only --
    # workload flags legitimately differ between CI and local runs).
    for key in ("v3_full_sync_bytes", "v4_full_sync_bytes"):
        base, cur = baseline.get(key), current.get(key)
        if (base is not None and cur is not None and base != cur
                and baseline.get("entries") == current.get("entries")):
            print(f"note: {key} changed at equal workload: "
                  f"{base} -> {cur} B (protocol change?)")
    return failures


def check_net(baseline, current, args):
    """net_throughput: equivalence gate + request-rate floor + p99 ceiling.

    The hardware-independent part is `equivalent`: the socket leg must
    reproduce the in-process run bit for bit, on any machine. Throughput
    and latency are hardware-dependent and gated generously: the request
    rate may drop at most --max-regression below baseline (like
    sim_throughput), and each channel's p99 round-trip latency may grow to
    at most 4x its baseline -- wide enough for noisy shared runners, tight
    enough to catch an accidental sleep/extra-copy/Nagle-style stall in
    the daemon's request path.
    """
    failures = check_samples(current)
    if current.get("equivalent") is not True:
        failures.append(
            "equivalent is not true: the socket run diverged from the "
            "in-process run (fingerprint "
            f"{current.get('log_fingerprint')}, failed_requests "
            f"{current.get('failed_requests')})")
    base = baseline.get("requests_per_sec")
    cur = current.get("requests_per_sec")
    if not isinstance(base, (int, float)) or base <= 0:
        failures.append("baseline has no positive requests_per_sec")
    elif not isinstance(cur, (int, float)) or cur <= 0:
        failures.append("current has no positive requests_per_sec")
    else:
        floor = base * (1.0 - args.max_regression)
        delta = (cur - base) / base
        print(f"net throughput: current {cur:.0f} vs baseline {base:.0f} "
              f"req/s ({delta:+.1%}; floor {floor:.0f})")
        if cur < floor:
            failures.append(
                f"request rate regressed {-delta:.1%} "
                f"(> {args.max_regression:.0%} allowed): {cur:.0f} < floor "
                f"{floor:.0f} req/s")
    p99_ceiling = 4.0
    base_latency = baseline.get("latency") or {}
    cur_latency = current.get("latency") or {}
    for channel, base_stats in sorted(base_latency.items()):
        base_p99 = base_stats.get("p99_ns")
        cur_p99 = (cur_latency.get(channel) or {}).get("p99_ns")
        if not isinstance(base_p99, (int, float)) or base_p99 <= 0:
            continue
        if not isinstance(cur_p99, (int, float)):
            failures.append(f"current has no p99_ns for channel {channel}")
            continue
        print(f"net latency/{channel}: p99 {cur_p99 / 1000:.0f}us vs "
              f"baseline {base_p99 / 1000:.0f}us "
              f"(ceiling {p99_ceiling:.0f}x)")
        if cur_p99 > base_p99 * p99_ceiling:
            failures.append(
                f"{channel} p99 latency {cur_p99 / 1000:.0f}us exceeds "
                f"{p99_ceiling:.0f}x baseline "
                f"{base_p99 / 1000:.0f}us")
    return failures


def check_snapshot(baseline, current, _args):
    """snapshot: fixpoint gate + restore-beats-rebuild + byte-size ceiling.

    Hardware-independent gates: `restore_identical` must be true (a
    restored server that re-checkpoints differently is silent state
    corruption), and at every size restore must cost less wall time than
    the cold rebuild it replaces -- the ratio is measured within one run
    on one machine, so runner speed cancels out. Snapshot bytes are
    deterministic at fixed size; more than 25% growth over the committed
    baseline means the format got fatter without a deliberate baseline
    refresh.
    """
    failures = []
    if current.get("restore_identical") is not True:
        failures.append(
            "restore_identical is not true: checkpoint -> restore -> "
            "checkpoint is no longer a byte fixpoint")
    bytes_ceiling = 1.25
    base_sizes = {entry.get("prefixes"): entry
                  for entry in baseline.get("sizes", [])}
    for entry in current.get("sizes", []):
        prefixes = entry.get("prefixes")
        restore = entry.get("restore_ms")
        rebuild = entry.get("cold_build_ms")
        if isinstance(restore, (int, float)) and \
                isinstance(rebuild, (int, float)) and rebuild > 0:
            print(f"snapshot/{prefixes}: restore {restore:.2f}ms vs cold "
                  f"rebuild {rebuild:.2f}ms "
                  f"({rebuild / max(restore, 1e-9):.1f}x faster), "
                  f"{entry.get('snapshot_bytes')} bytes")
            if restore >= rebuild:
                failures.append(
                    f"{prefixes} prefixes: restore ({restore:.2f}ms) is "
                    f"not faster than the cold rebuild ({rebuild:.2f}ms) "
                    "it exists to replace")
        base = base_sizes.get(prefixes, {}).get("snapshot_bytes")
        cur = entry.get("snapshot_bytes")
        if isinstance(base, (int, float)) and base > 0 and \
                isinstance(cur, (int, float)):
            if cur > base * bytes_ceiling:
                failures.append(
                    f"{prefixes} prefixes: snapshot grew to {cur} bytes "
                    f"(> {bytes_ceiling:.2f}x baseline {base}); refresh "
                    "the baseline if the format change is deliberate")
            elif cur != base:
                print(f"note: snapshot_bytes at {prefixes} prefixes "
                      f"changed: {base} -> {cur} (format change?)")
    return failures


CHECKS = {
    "sim_throughput": check_throughput,
    "protocol_bandwidth": check_bandwidth,
    "net_throughput": check_net,
    "snapshot": check_snapshot,
}


def main():
    parser = argparse.ArgumentParser(
        description="Compare a BENCH_*.json against its committed baseline")
    parser.add_argument("--baseline", required=True,
                        help="committed baseline JSON (bench/baselines/...)")
    parser.add_argument("--current", required=True,
                        help="freshly produced BENCH_*.json")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="allowed fractional throughput drop (0.25)")
    parser.add_argument("--enforce-min-speedup", action="store_true",
                        help="fail (not warn) when the thread-sweep speedup "
                             "misses the baseline's min_speedup")
    parser.add_argument("--write-baseline", action="store_true",
                        help="copy --current over --baseline and exit")
    args = parser.parse_args()

    current = load(args.current)
    if args.write_baseline:
        # min_speedup is a hand-maintained policy knob, not a measurement:
        # carry it over so refreshing the baseline doesn't drop the gate.
        try:
            with open(args.baseline, "r", encoding="utf-8") as handle:
                old = json.load(handle)
        except (OSError, ValueError):
            old = {}
        if "min_speedup" in old and "min_speedup" not in current:
            current["min_speedup"] = old["min_speedup"]
        with open(args.baseline, "w", encoding="utf-8") as handle:
            json.dump(current, handle, indent=2)
            handle.write("\n")
        print(f"wrote baseline {args.baseline}")
        return 0

    baseline = load(args.baseline)
    experiment = current.get("experiment")
    if baseline.get("experiment") != experiment:
        print(f"compare_bench: experiment mismatch: baseline "
              f"{baseline.get('experiment')!r} vs current {experiment!r}",
              file=sys.stderr)
        return 1
    check = CHECKS.get(experiment)
    if check is None:
        print(f"compare_bench: no checks registered for experiment "
              f"{experiment!r} (known: {', '.join(sorted(CHECKS))})",
              file=sys.stderr)
        return 1

    failures = check(baseline, current, args)
    for failure in failures:
        print(f"FAIL [{experiment}]: {failure}", file=sys.stderr)
    if not failures:
        print(f"OK [{experiment}]: no regression vs {args.baseline}")
    return 2 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
