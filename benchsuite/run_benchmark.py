#!/usr/bin/env python3
"""Runs the benchmark described by BENCHMARK.json (see benchsuite/README.md).

Run from the repository root. Standard library only.

  python3 benchsuite/run_benchmark.py --workload NAME [--seed N]
          [--seconds T] [--trace 0|1]
      One run of one workload. Builds bench_suite first (incrementally),
      prints progress on stderr and, as the last stdout line, one JSON
      object {correct, attempted, failed, metrics}: the end-to-end metrics
      with --trace 0, the per-layer metrics with --trace 1.
  python3 benchsuite/run_benchmark.py --all [--trace 0|1]
      Every workload once, each in its own process, as a table.
  python3 benchsuite/run_benchmark.py --repeat N [--workload NAME]
      N runs per workload on seeds 1..N; median, quartiles and spread of
      each end-to-end metric against its bound.
  python3 benchsuite/run_benchmark.py --smoke
      Every workload at about 1/50 scale, plain and traced, plus two
      negative cases that must fail: a doctored golden and a flipped byte
      in a replay trace.

Exit codes: 0 = ran and every check passed, 2 = a correctness check
failed, 1 = usage, build or infrastructure error.
"""

import argparse
import copy
import fcntl
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SUITE = ROOT / "benchsuite"
WORKLOAD_DIR = SUITE / "workloads"

# Which bench_suite command runs each workload. The daemon workload's file is
# the fleet whose request stream is captured and replayed.
WORKLOADS = {
    "churn-resync": "sim",
    "browse-static": "sim",
    "browse-bloom": "sim",
    "daemon-replay": "replay",
}

# The daemon workload's offered loads, committed so that a parent and a
# change face the same load. R_MID is about half of the saturation rate
# measured on a 4-vCPU host; the ladder rungs bracket it.
R_MID = 100000
RUNGS = [50000, 100000, 150000, 200000]

# One run, capture and replay together, must end well within 180 s.
RUN_TIMEOUT_S = 170

# The daemon's Unix socket, relative to the build directory.
ENDPOINT = f"unix:replay-{os.getpid()}.sock"


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def build():
    """Configures and builds bench_suite; returns its path or exits 1."""
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        log(f"run_benchmark: {ROOT} holds no repository sources to build")
        sys.exit(1)
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    with open(out / ".build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (out / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(SUITE), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(out), "--target", "bench_suite",
                      "-j", "4"])
        for step in steps:
            done = subprocess.run(step, cwd=ROOT, capture_output=True,
                                  text=True)
            if done.returncode != 0:
                log("\n".join((done.stdout + done.stderr).splitlines()[-40:]))
                log("run_benchmark: build failed: " + " ".join(step))
                sys.exit(1)
    return out / "bench_suite"


def run_suite(binary, args, deadline=None):
    """Runs bench_suite in the build directory, so that the daemon's socket
    path (ENDPOINT, relative) stays short however deep the checkout is;
    every other path it is given is absolute. Returns (exit code, parsed
    result or None)."""
    if deadline is None:
        deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        done = subprocess.run([str(binary)] + args, cwd=build_dir(),
                              stdout=subprocess.PIPE, stderr=None, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log("run_benchmark: bench_suite timed out: " + " ".join(args))
        return 1, None
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result


def run_workload(binary, name, seed, seconds, traced, workload_file=None,
                 rate=R_MID, rungs=RUNGS):
    """One run of one workload; returns (exit code, merged result)."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    out = build_dir()
    workload = str(workload_file or WORKLOAD_DIR / f"{name}.json")
    common = ["--workload", workload, "--seconds", str(seconds)]
    if seed is not None:
        common += ["--seed", str(seed)]
    trace_file = out / f"trace-{name}.json"

    if WORKLOADS[name] == "sim":
        args = ["sim"] + common
        if traced:
            args += ["--traced", "--trace-out", str(trace_file)]
        return run_suite(binary, args, deadline)

    capture = out / f"{name}-{seed}.trace"
    args = ["capture"] + common + ["--capture-out", str(capture)]
    if traced:
        args += ["--traced", "--trace-out", str(out / f"trace-{name}-capture.json")]
    code, captured = run_suite(binary, args, deadline)
    if code != 0 or captured is None:
        return code or 1, captured
    args = ["replay"] + common + ["--trace-in", str(capture), "--endpoint",
                                  ENDPOINT, "--rate", str(rate)]
    if traced:
        args += ["--traced", "--rungs", ",".join(str(r) for r in rungs),
                 "--trace-out", str(trace_file)]
    code, replayed = run_suite(binary, args, deadline)
    capture.unlink(missing_ok=True)
    if replayed is None:
        return code or 1, captured
    merged = dict(replayed)
    merged["attempted"] = captured["attempted"] + replayed["attempted"]
    merged["failed"] = captured["failed"] + replayed["failed"]
    merged["correct"] = captured["correct"] and replayed["correct"]
    merged["problems"] = captured["problems"] + replayed["problems"]
    merged["golden"] = captured.get("golden")
    # Traced: the capture supplies the fleet-side layers, the daemon its own.
    merged["metrics"] = {**captured["metrics"], **replayed["metrics"]}
    return max(code, 0 if merged["correct"] else 2), merged


def contract_line(result, wanted):
    """The result as the benchmark contract prints it, or None when a
    declared metric is missing, carries another unit or reads 0 (a metric
    of 0 has no relative change to compare, so every listed one must be
    non-zero on every workload)."""
    metrics = {}
    for spec in wanted:
        got = result["metrics"].get(spec["name"])
        if got is None or got["unit"] != spec["unit"] or got["value"] == 0:
            log(f"run_benchmark: metric {spec['name']} missing, mis-united "
                "or zero")
            return None
        metrics[spec["name"]] = got
    return {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "metrics": metrics}


def cmd_single(binary, args):
    spec = benchmark_spec()
    traced = args.trace == 1
    code, result = run_workload(binary, args.workload, args.seed,
                                args.seconds, traced)
    if result is None:
        return 1
    line = contract_line(result,
                         spec["per_layer"] if traced else spec["end_to_end"])
    if line is None:
        return 1
    if not line["correct"]:
        for problem in result.get("problems", []):
            log("check failed: " + problem)
    print(json.dumps(line))
    return 0 if line["correct"] and code == 0 else 2


def cmd_all(binary, args):
    spec = benchmark_spec()
    traced = args.trace == 1
    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    names = [args.workload] if args.workload else list(WORKLOADS)
    rows = {}
    status = 0
    for name in names:
        log(f"== {name}")
        code, result = run_workload(binary, name, args.seed, args.seconds,
                                    traced)
        if result is None or code != 0 or not result["correct"]:
            status = 2 if result is not None else 1
        rows[name] = result
    print(f"{'metric':34} {'unit':9} " + " ".join(f"{n:>16}" for n in names))
    for metric in wanted:
        cells = []
        for name in names:
            value = (rows[name] or {}).get("metrics", {}).get(metric["name"])
            cells.append(f"{value['value']:16.6g}" if value else f"{'-':>16}")
        print(f"{metric['name']:34} {metric['unit']:9} " + " ".join(cells))
    for name in names:
        result = rows[name]
        if result is not None:
            print(f"{name}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
    return status


def cmd_repeat(binary, args):
    spec = benchmark_spec()
    names = [args.workload] if args.workload else list(WORKLOADS)
    values = {name: {m["name"]: [] for m in spec["end_to_end"]}
              for name in names}
    status = 0
    # Workloads interleave, so slow drift of the host spreads over all.
    for seed in range(1, args.repeat + 1):
        for name in names:
            code, result = run_workload(binary, name, seed, args.seconds,
                                        False)
            if result is None or code != 0 or not result["correct"] or \
                    result["failed"]:
                status = 2
                log(f"{name} seed {seed}: run failed")
                continue
            for metric in spec["end_to_end"]:
                values[name][metric["name"]].append(
                    result["metrics"][metric["name"]]["value"])
            log(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()))
    print(f"{'workload':14} {'metric':12} {'median':>14} {'q1':>14} "
          f"{'q3':>14} {'spread':>8} {'bound':>6}")
    for name in names:
        for metric in spec["end_to_end"]:
            series = values[name][metric["name"]]
            if len(series) < 2:
                continue
            q1, mid, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / mid if mid else float("inf")
            flag = "" if spread < metric["bound"] / 3 else "  <-- wide"
            print(f"{name:14} {metric['name']:12} {mid:14.6g} {q1:14.6g} "
                  f"{q3:14.6g} {spread:8.4f} {metric['bound']:6.2f}{flag}")
    return status


def scaled_copy(name, out):
    """The workload at about 1/50 of its population and web, golden
    removed."""
    with open(WORKLOAD_DIR / f"{name}.json") as handle:
        document = json.load(handle)
    config = document["config"]
    config["num_users"] = max(2, config["num_users"] // 50)
    config["corpus"]["num_hosts"] = max(1000, config["corpus"]["num_hosts"] // 50)
    document.pop("golden", None)
    path = out / f"{name}.json"
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2)
    return path, document


def cmd_smoke(binary):
    out = build_dir() / "smoke"
    out.mkdir(parents=True, exist_ok=True)
    started = time.time()
    failures = []

    def expect(what, ok):
        log(f"smoke: {'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    goldens = {}
    for name in WORKLOADS:
        path, _ = scaled_copy(name, out)
        plain_code, plain = run_workload(binary, name, None, 0.5, False,
                                         path, rate=2000, rungs=[1000, 2000])
        traced_code, traced = run_workload(binary, name, None, 0.5, True,
                                           path, rate=2000, rungs=[1000, 2000])
        expect(f"{name} plain run passes its checks",
               plain_code == 0 and plain is not None and plain["correct"])
        expect(f"{name} traced run passes its checks",
               traced_code == 0 and traced is not None and traced["correct"])
        expect(f"{name} plain and traced runs observe the same log and wire",
               plain is not None and traced is not None and
               plain.get("golden") == traced.get("golden"))
        goldens[name] = (path, plain.get("golden") if plain else None)

    # Negative case 1: a doctored golden must fail; the true one must pass.
    path, golden = goldens["browse-static"]
    with open(path) as handle:
        document = json.load(handle)
    if golden is None:
        expect("browse-static smoke golden available", False)
    else:
        document["golden"] = golden
        blessed = out / "browse-static-blessed.json"
        doctored = out / "browse-static-doctored.json"
        with open(blessed, "w") as handle:
            json.dump(document, handle, indent=2)
        bad = copy.deepcopy(document)
        bad["golden"]["entries"] += 1
        with open(doctored, "w") as handle:
            json.dump(bad, handle, indent=2)
        code, _ = run_suite(binary, ["sim", "--workload", str(blessed),
                                      "--seconds", "0"])
        expect("the scaled workload matches its own golden", code == 0)
        code, _ = run_suite(binary, ["sim", "--workload", str(doctored),
                                      "--seconds", "0"])
        expect("an altered golden field exits 2", code == 2)

    # Negative case 2: one flipped expected-response byte must fail replay.
    path, _ = goldens["daemon-replay"]
    trace = out / "flipped.trace"
    code, _ = run_suite(binary, ["capture", "--workload", str(path),
                                  "--capture-out", str(trace)])
    if code != 0:
        expect("smoke capture succeeds", False)
    else:
        data = bytearray(trace.read_bytes())
        # Header: magic, version, payload count; then the first payload's
        # request frame and its expected response frame.
        request_len = int.from_bytes(data[16:20], "little")
        response_at = 20 + request_len
        response_len = int.from_bytes(data[response_at:response_at + 4],
                                      "little")
        data[response_at + 4 + response_len - 1] ^= 0x01
        trace.write_bytes(bytes(data))
        code, _ = run_suite(binary, [
            "replay", "--workload", str(path), "--seconds", "0.5",
            "--trace-in", str(trace), "--endpoint", ENDPOINT, "--rate", "2000"])
        expect("a flipped expected-response byte exits 2", code == 2)

    log(f"smoke: {len(failures)} failure(s) in {time.time() - started:.1f} s")
    return 0 if not failures else 2


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--repeat", type=int)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = benchmark_spec()["run_seconds"]

    binary = build()
    if args.smoke:
        return cmd_smoke(binary)
    if args.repeat:
        return cmd_repeat(binary, args)
    if args.all:
        return cmd_all(binary, args)
    if not args.workload:
        parser.error("choose --workload NAME, --all, --repeat N or --smoke")
    return cmd_single(binary, args)


if __name__ == "__main__":
    sys.exit(main())
