#!/usr/bin/env python3
"""Measures the benchmark's baseline and checks that it repeats.

    python3 perfbench/baseline.py [WORKLOAD ...]

For each workload (by default those BENCHMARK.json lists) it makes two sets
of untraced runs of the same code, one run per seed: seeds 1 to 10, then,
after every workload's first set, seeds 11 to 20. The run length is
BENCHMARK.json's run_seconds. For each set and end-to-end metric it records
the ten values, their quartiles (statistics.quantiles(values, n=4)) and their
spread: the distance between the quartiles as a share of the median. For
each metric it also records how much worse the second set's median is than
the first's, as a share of the first.

It writes perfbench/BASELINE.json, replacing the entries of the workloads it
ran. It exits 1 unless, for every end-to-end metric of every workload run,
setup_s included, each set's spread is within the metric's bound and the
second median is not worse than the first by more than the bound: otherwise
a change could not be judged against that bound. It also marks each spread
above a third of its bound, the margin the bounds were chosen to keep, so
that a later set can be noisier than this one and still pass.
"""

import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "BASELINE.json"
SEED_SETS = (range(1, 11), range(11, 21))
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (host(), git_sha() and source_digest(), for provenance)


def run_set(workload, seeds, seconds, names):
    values = {name: [] for name in names}
    for seed in seeds:
        result = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
             workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"], cwd=ROOT, stdout=subprocess.PIPE, text=True,
            check=False)
        lines = result.stdout.strip().splitlines()
        line = json.loads(lines[-1]) if lines else {}
        if result.returncode != 0 or not line.get("correct"):
            sys.exit(f"{workload} seed {seed} failed (status "
                     f"{result.returncode}): {line}")
        for name in names:
            values[name].append(line["metrics"][name]["value"])
        print(f"{workload} seed {seed}: " + ", ".join(
            f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)
    summary = {}
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        summary[name] = {"values": vals, "q1": q1, "median": median, "q3": q3,
                         "spread": (q3 - q1) / median}
    return {"seeds": list(seeds),
            "date_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "metrics": summary}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = sys.argv[1:] or [w["name"] for w in spec["workloads"]]
    unknown = set(workloads) - set(run.WORKLOADS)
    if unknown:
        sys.exit(f"unknown workload(s): {', '.join(sorted(unknown))}")
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    provenance = {"git_sha": run.git_sha(), "source_digest": run.source_digest(),
                  "host": run.host(), "python": platform.python_version(),
                  "run_seconds": seconds}

    sets = {w: [] for w in workloads}
    for seeds in SEED_SETS:
        for workload in workloads:
            sets[workload].append(run_set(workload, seeds, seconds, metrics))

    baseline = json.loads(OUT.read_text()) if OUT.is_file() else {}
    baseline.setdefault("workloads", {})
    ok = True
    for workload in workloads:
        first, second = (s["metrics"] for s in sets[workload])
        comparison = {}
        for name, m in metrics.items():
            bound = m["bound"]
            m1, m2 = first[name]["median"], second[name]["median"]
            worse_by = (m2 - m1) / m1 if m["better"] == "lower" else (m1 - m2) / m1
            spreads = (first[name]["spread"], second[name]["spread"])
            within = max(spreads) <= bound
            agree = worse_by <= bound
            ok = ok and within and agree
            comparison[name] = {"bound": bound, "second_worse_by": worse_by,
                                "spreads_within_bound": within,
                                "spreads_within_a_third_of_bound":
                                    max(spreads) <= bound / 3,
                                "medians_agree_within_bound": agree}
            print(f"  {workload:10s} {name:14s} medians {m1:12.6g} {m2:12.6g} "
                  f"worse by {worse_by:+.3f}  spreads {spreads[0]:.3f} "
                  f"{spreads[1]:.3f}  bound {bound}"
                  f"{'' if max(spreads) <= bound / 3 else '  (spread above bound/3)'}"
                  f"{'' if within else '  SPREAD ABOVE BOUND'}"
                  f"{'' if agree else '  MEDIANS DISAGREE'}", flush=True)
        baseline["workloads"][workload] = dict(
            provenance, sets=sets[workload], second_vs_first=comparison)
    OUT.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
