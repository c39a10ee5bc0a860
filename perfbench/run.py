#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its metrics.

    python3 perfbench/run.py --workload hashtable|lock2|pagefault \\
        --seed N --seconds S --trace 0|1

Run it from the repository root. It builds the benchmark (a Release build
of the library under .bench_build/), then:

  --trace 0  runs the timed run between SETUP_REPS fresh set-up-only
             processes, and prints the end-to-end metrics of BENCHMARK.json
             (setup_s is the median over all SETUP_REPS + 1 processes);
  --trace 1  runs the workload untraced and then traced, each in a fresh
             process, and prints the per-layer metrics of BENCHMARK.json,
             including bench.trace_overhead_pct.

Every line but the last is for people: provenance, each metric with its
unit, sample count and basis, and the correctness checks. The last line is
one JSON object: {"correct", "attempted", "failed", "metrics"}. The full
record of the run goes to .bench_out/. The exit status is 0 only when every
check passed; a run that cannot measure (missing sources, failed build, a
policy that did not JIT-compile) exits non-zero without a result line.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("hashtable", "lock2", "pagefault")
# Set-up is timed in this many set-up-only processes, half before and half
# after the timed run, plus the timed run's own, and reported as their median.
SETUP_REPS = 20
# Slack over --seconds for one process (set-up, checks, calibration).
PROCESS_SLACK_S = 90


class BenchError(Exception):
    """A run that produced no valid measurement."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def run_quiet(command, what):
    result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, check=False)
    if result.returncode != 0:
        log(result.stdout[-4000:])
        raise BenchError(f"{what} failed with status {result.returncode}")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"library sources not found under {ROOT / 'src'}")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD_DIR),
                   "-DCMAKE_BUILD_TYPE=Release"], "cmake configure")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    run_quiet(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
               "-j", jobs], "cmake build")


def run_binary(args, seconds):
    """Runs the benchmark binary once and returns its parsed JSON."""
    command = [str(BINARY)] + args + ["--out", str(OUT_DIR)]
    try:
        result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                text=True, check=False,
                                timeout=seconds + PROCESS_SLACK_S)
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"{' '.join(command)} timed out") from error
    if result.returncode not in (0, 1) or not result.stdout.strip():
        raise BenchError(f"{' '.join(command)} exited {result.returncode}")
    return json.loads(result.stdout.strip().splitlines()[-1])


def setup_seconds(record, clock):
    """Set-up time of one process, by the "cpu" or the "mono" clock."""
    info = record["info"]
    return (info[f"window_start_{clock}_ns"] - info[f"setup_start_{clock}_ns"]) / 1e9


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"  # an exported checkout; source_digest() still identifies it
    try:
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                text=True, check=False)
    except OSError:
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the library and benchmark sources, for checkouts without git."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cc", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host():
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    clocksource = "unknown"
    try:
        clocksource = Path("/sys/devices/system/clocksource/clocksource0/"
                           "current_clocksource").read_text().strip()
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "clocksource": clocksource}


def provenance(args, record):
    info = record["info"]
    return {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "input_digest": info["input_digest"],
            "git_sha": git_sha(), "source_digest": source_digest(),
            "build_type": info["build_type"], "gates": info["gates"],
            "host": host()}


def metric(value, unit, samples, basis):
    return {"value": value, "unit": unit, "samples": samples, "basis": basis}


def untraced(args, extra):
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)]

    def setup_only():
        return run_binary(base + ["--setup-only"], 0)

    probes = [setup_only() for _ in range(SETUP_REPS // 2)]
    record = run_binary(base + ["--trace", "0"] + extra, args.seconds)
    probes.append(record)
    probes += [setup_only() for _ in range(SETUP_REPS - SETUP_REPS // 2)]
    setups = [setup_seconds(r, "cpu") for r in probes]
    walls = [setup_seconds(r, "mono") for r in probes]
    metrics = dict(record["metrics"])
    metrics["setup_s"] = metric(
        statistics.median(setups), "s", len(setups),
        f"median of {len(setups)} set-ups' process CPU time, set-up start to "
        f"first timed op (wall time: median {statistics.median(walls):.6f} s)")
    # Workloads without a live control plane time Attach in an idle canary
    # loop in every process, which spreads the samples over the whole run.
    # A process's median falls in one of two groups about 40% apart (the
    # process, not the run, picks which), so the median over processes would
    # jump between the groups; the mean moves with their shares.
    attaches = [r["metrics"]["attach_p50_us"]["value"] for r in probes
                if "attach_p50_us" in r["metrics"]]
    if len(attaches) > 1:
        metrics["attach_p50_us"] = metric(
            statistics.mean(attaches), "us", len(attaches),
            f"mean over {len(attaches)} processes of each one's median "
            "Attach in the idle canary loop after its window")
    return record, probes, metrics


def traced(args, extra):
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)]
    plain = run_binary(base + ["--trace", "0"] + extra, args.seconds)
    record = run_binary(base + ["--trace", "1"] + extra, args.seconds)
    metrics = dict(record["metrics"])
    untraced_rate = plain["metrics"]["ops_per_s"]["value"]
    traced_rate = metrics["ops_per_s"]["value"]
    metrics["bench.trace_overhead_pct"] = metric(
        100.0 * (untraced_rate - traced_rate) / untraced_rate, "%", 2,
        f"ops_per_s untraced {untraced_rate:.6g} vs traced {traced_rate:.6g}")
    return record, [plain, record], metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--force-check-failure", action="store_true",
                        help="make one correctness check fail (tests only)")
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        parser.error("--seed must be >= 0 and 0 < --seconds <= 600")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    extra = ["--force-check-failure"] if args.force_check_failure else []

    build()
    OUT_DIR.mkdir(exist_ok=True)
    record, records, metrics = (traced if args.trace else untraced)(args, extra)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"the run did not measure {', '.join(missing)}")
    # Set-up-only processes attempt no ops, but their checks (every Attach
    # succeeded) count like the timed run's; only their failures are listed.
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    checks = record["checks"] + [dict(c, name=f"{c['name']} (set-up run)")
                                 for r in records if r is not record
                                 for c in r["checks"] if not c["ok"]]
    prov = provenance(args, record)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    for m in wanted:
        got = metrics[m["name"]]
        if got["unit"] != m["unit"]:
            raise BenchError(f"{m['name']}: unit {got['unit']} != {m['unit']}")
        print(f"  {m['name']:30s} {got['value']:>14.6g} {m['unit']:11s}"
              f" n={got['samples']:<10} {got['basis']}")
    print(f"  {'error_rate':30s} {failed / max(attempted, 1):>14.6g} fraction    "
          f"{failed} failed calls and checks of {attempted} attempted ops")
    for check in checks:
        print(f"  check {check['name']:24s} {'ok' if check['ok'] else 'FAILED'}"
              f"  {check['detail']}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]]["value"],
                                      "unit": m["unit"]} for m in wanted}}
    detail = {"provenance": prov, "result": result, "metrics": metrics,
              "checks": checks, "records": records}
    out = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail, indent=1, sort_keys=True))
    print(json.dumps(result, sort_keys=False), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as error:
        log(f"perfbench: {error}")
        sys.exit(2)
