#!/usr/bin/env python3
"""fsrbench entry point: build, self-test, run one workload, print metrics.

    python3 fsrbench/run.py --workload serve-hot --seed 1 --seconds 10 --trace 0

Run from the repository root. The programs under test are built from the
repository's sources into $CARGO_TARGET_DIR (default .bench_build) with the
benchmark's own CMake project. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json, measured with tracing
off; with --trace 1 they are the per-layer metrics of the traced run, each
labelled on the lines before it with its layer and the end-to-end metric and
workload it should move (catalog.json).

Workloads: serve-hot and serve-cold drive a real fsr_serve over TCP loopback
(fsrbench/src/serve_main.cpp); campaign runs fsr_campaign's cold and warm
passes (this file).
"""

import argparse
import json
import math
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170

# The campaign workload: fsr_campaign over all built-in sources, with
# simulation variants and repair of every not-provably-safe scenario.
CAMPAIGN_ARGS = ["--source", "all", "--simulate", "--repair", "--threads", "4"]
CAMPAIGN_LIMIT_MS = 100.0  # the paper's Section IV bound per analysis
CAMPAIGN_SETUPS = 21
CAMPAIGN_WARM_ROUNDS = 2


def fail(message):
    print(f"fsrbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def build(build_dir, trace):
    if not os.path.exists(os.path.join(ROOT, "src", "api", "fsr_serve_main.cpp")):
        fail("the FSR sources are not beside fsrbench/; nothing to build")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, timeout=600)
    targets = ["fsrbench", "fsr_serve", "fsr_campaign"]
    if trace:
        targets.append("fsrbench_trace")
    subprocess.run(["cmake", "--build", build_dir, "-j4", "--target", *targets],
                   check=True, stdout=sys.stderr, timeout=900)


def check_catalog(build_dir, catalog, benchmark):
    """The frozen parameters fsrbench uses must be the ones recorded."""
    described = json.loads(subprocess.run(
        [os.path.join(build_dir, "fsrbench"), "describe"], check=True,
        capture_output=True, text=True, timeout=60).stdout)
    for workload in described:
        recorded = catalog["workloads"][workload["name"]]
        for key in ("rate_rps", "limit_ms", "pipeline_depth", "mix"):
            if recorded[key] != workload[key]:
                fail(f"catalog.json {workload['name']}.{key} is {recorded[key]}, "
                     f"fsrbench uses {workload[key]}")
    names = {metric["name"] for metric in benchmark["per_layer"]}
    if names != set(catalog["per_layer"]):
        fail("catalog.json per_layer does not match BENCHMARK.json")


def run_tool(command):
    """Runs a benchmark binary; returns the JSON of its last stdout line."""
    result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                            timeout=RUN_TIMEOUT_S)
    if result.returncode != 0:
        fail(f"{os.path.basename(command[0])} exited {result.returncode}")
    return json.loads(result.stdout.strip().splitlines()[-1])


def spawn_and_wait(command, stdout):
    """Runs one fsr_campaign; returns (exit code, seconds, peak RSS in MiB)."""
    start = time.perf_counter()
    process = subprocess.Popen(command, stdout=stdout)
    try:
        _, status, usage = os.wait4(process.pid, 0)
    finally:
        process.returncode = 0  # reaped above; keep Popen from waiting again
    elapsed = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), elapsed, usage.ru_maxrss / 1024.0


def strip_timings(report):
    """A --timings report with its timing-only fields removed: what the
    default rendering of the same run prints, byte for byte."""
    report = re.sub(r', "cache_hit": (true|false)', "", report)
    report = re.sub(r', "wall_ms": [0-9.]+', "", report)
    return re.sub(r',\n  "timings": .*\n}\n$', "\n}\n", report, flags=re.S)


def run_campaign(command, out_path):
    """Runs one fsr_campaign into `out_path`. Returns (exit code, seconds,
    peak RSS in MiB, report text, parsed report or None when unparseable)."""
    with open(out_path, "w", encoding="utf-8") as out:
        code, elapsed, rss = spawn_and_wait(command, out)
    with open(out_path, encoding="utf-8") as handle:
        text = handle.read()
    try:
        report = json.loads(text)
    except ValueError:
        report = None
    return code, elapsed, rss, text, report


def campaign(args, build_dir, tmp_dir):
    binary = os.path.join(build_dir, "fsr_campaign")
    out_path = os.path.join(tmp_dir, "campaign.json")
    peak_rss = 0.0

    # Set-up: the campaign's inputs, the seed list (1.8 campaign seeds per
    # measured second; each pass solves ~61 scenarios, so 10 s or more give
    # the >1000 samples a p99 needs) and one fresh, empty cache directory
    # per seed. It takes a few milliseconds of directory operations, whose
    # speed follows the host's from moment to moment, so besides the real
    # set-up the same set-up is repeated into probe directories at
    # CAMPAIGN_SETUPS - 1 points spread over the run's fsr_campaign
    # invocations, and setup_s is the median of them all.
    def prepare(prefix):
        start = time.perf_counter()
        rng = random.Random(args.seed)
        seeds = [rng.randrange(1, 10**9) for _ in range(max(2, round(1.8 * args.seconds)))]
        dirs = [os.path.join(tmp_dir, f"{prefix}-{i}") for i in range(len(seeds))]
        for directory in dirs:
            shutil.rmtree(directory, ignore_errors=True)
            os.makedirs(directory)
        setup_s.append(time.perf_counter() - start)
        return seeds, dirs

    setup_s = []
    seeds, dirs = prepare("campaign")
    invocations = (1 + CAMPAIGN_WARM_ROUNDS) * len(seeds)
    probe_every = max(1, invocations // (CAMPAIGN_SETUPS - 1))
    calls = 0

    def probe_setup():
        nonlocal calls
        calls += 1
        if calls % probe_every == 0 and len(setup_s) < CAMPAIGN_SETUPS:
            for directory in prepare("setup-probe")[1]:
                os.rmdir(directory)

    # A report that cannot be parsed (a crashed fsr_campaign) counts as
    # failing as many scenarios as a campaign of the last parsed size.
    attempted = failed = 0
    last_count = 1
    scenario_ms, within_limit, executed = [], 0, 0
    cold_reports, cold_scenarios, requests, cold_s = [], 0, 0, 0.0
    for seed, directory in zip(seeds, dirs):
        probe_setup()
        code, elapsed, rss, text, report = run_campaign(
            [binary, *CAMPAIGN_ARGS, "--seed", str(seed), "--cache-dir", directory,
             "--timings"], out_path)
        cold_s += elapsed
        peak_rss = max(peak_rss, rss)
        if report is None:
            attempted += last_count
            failed += last_count
            cold_reports.append(None)
            continue
        count = last_count = report["campaign"]["scenarios"]
        attempted += count
        cold_scenarios += count
        if code != 0:
            failed += count
        for result in report["scenarios"]:
            if result["deduplicated"] or result.get("cache_hit"):
                continue
            executed += 1
            scenario_ms.append(result["wall_ms"])
            if "error" not in result and result["wall_ms"] <= CAMPAIGN_LIMIT_MS:
                within_limit += 1
        totals = report["totals"]
        requests += count - report["campaign"]["deduplicated"] + totals["repairs_attempted"]
        cold_reports.append(strip_timings(text))

    warm_s = []
    for _ in range(CAMPAIGN_WARM_ROUNDS):
        total = 0.0
        for seed, directory, cold in zip(seeds, dirs, cold_reports):
            probe_setup()
            code, elapsed, rss, warm, report = run_campaign(
                [binary, *CAMPAIGN_ARGS, "--seed", str(seed), "--cache-dir", directory],
                out_path)
            total += elapsed
            peak_rss = max(peak_rss, rss)
            count = last_count if report is None else report["campaign"]["scenarios"]
            attempted += count
            if code != 0 or warm != cold:
                failed += count
        warm_s.append(total)
    for directory in dirs:
        shutil.rmtree(directory, ignore_errors=True)

    p50 = percentile(scenario_ms, 0.50)
    p99 = percentile(scenario_ms, 0.99)
    print(f"fsrbench: campaign {len(seeds)} seeds, {cold_scenarios} scenarios, "
          f"{executed} executed, cold {cold_s:.2f} s, warm {statistics.median(warm_s):.2f} s, "
          f"failed {failed} of {attempted}", file=sys.stderr)
    metrics = {
        "p50_ms": (p50 or 0.0, "ms"),
        "p99_ms": (p99 or 0.0, "ms"),
        "slo_attainment": (within_limit / max(1, executed), "fraction"),
        "throughput_rps": (requests / cold_s, "1/s"),
        "scenarios_per_s": (cold_scenarios / cold_s, "1/s"),
        "warm_scenarios_per_s": (cold_scenarios / statistics.median(warm_s), "1/s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (peak_rss, "MiB"),
    }
    return {
        "correct": failed == 0 and p99 is not None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def percentile(samples, p, min_beyond=10):
    """Nearest-rank percentile with at least `min_beyond` samples above it
    (the same rule as fsrbench/src/core.cpp); None when unsupported."""
    n = len(samples)
    rank = min(n, max(1, math.ceil(p * n)))
    if n == 0 or n - rank < min_beyond:
        return None
    return sorted(samples)[rank - 1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    benchmark = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    catalog = load_json(os.path.join(BENCH_DIR, "catalog.json"))
    workloads = [workload["name"] for workload in benchmark["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload}; one of {', '.join(workloads)}")
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    tmp_dir = os.path.join(build_dir, "tmp")
    build(build_dir, args.trace == 1)
    os.makedirs(tmp_dir, exist_ok=True)
    if subprocess.run([os.path.join(build_dir, "fsrbench"), "selftest"],
                      timeout=60).returncode != 0:
        fail("self-tests failed")
    check_catalog(build_dir, catalog, benchmark)

    common = ["--seed", str(args.seed), "--seconds", str(args.seconds),
              "--bin-dir", build_dir, "--tmp-dir", tmp_dir]
    if args.trace == 1:
        result = run_tool([os.path.join(build_dir, "fsrbench_trace"), *common])
        expected = benchmark["per_layer"]
    elif args.workload == "campaign":
        result = campaign(args, build_dir, tmp_dir)
        expected = benchmark["end_to_end"]
    else:
        result = run_tool([os.path.join(build_dir, "fsrbench"), "serve",
                           "--workload", args.workload, *common])
        expected = benchmark["end_to_end"]

    metrics = result["metrics"]
    if [m["name"] for m in expected] != list(metrics) or any(
            metrics[m["name"]]["unit"] != m["unit"] for m in expected):
        fail("the metrics measured are not the ones BENCHMARK.json declares")
    if args.trace == 1:
        for name, value in metrics.items():
            label = catalog["per_layer"][name]
            print(f"{name:34s} {value['value']:>14.6g} {value['unit']:8s} "
                  f"[{label['layer']}] moves {label['moves']} on {label['on']}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
