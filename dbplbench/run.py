#!/usr/bin/env python3
"""The repository benchmark: builds dbplbench from source and runs it.

One run (the form BENCHMARK.json names):

    python3 dbplbench/run.py --workload point --seed 1 --seconds 25 --trace 0

prints the run's report and, as its last line, one JSON object with the
keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones (and writes the spans
to <build dir>/trace/<workload>.jsonl).

Two more modes:

    python3 dbplbench/run.py --spread 5 [--workloads point,follow]
        [--seconds 25] [--trace 0|1] [--first-seed 1]
        runs each workload once per seed and prints every metric's
        median and quartiles, and the quartile spread as a share of the
        median next to the metric's bound;

    python3 dbplbench/run.py --smoke
        runs every workload on a small database for a few seconds, with
        all answer checks on, and checks that the exact counts repeat
        for a seed.

The program is built with CMake into $CARGO_TARGET_DIR/dbplbench
(default .bench_build/dbplbench), relative to the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
# Counts a later change may rest a claim on: they must repeat exactly
# for a seed.
EXACT_COUNTS = [
    "storage.reads_per_record",
    "storage.syncs_per_commit",
    "remote_shipper.rpcs_per_record",
    "serve.bytes_per_row",
    "persist.wal_bytes_per_insert",
    "dyndb.checks_per_row",
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("dbplbench: the repository's src/ tree is missing; nothing to build")
        sys.exit(2)
    out = build_dir() / "dbplbench"
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "dbplbench"


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared_metrics():
    """(end_to_end, per_layer) from BENCHMARK.json: name -> entry."""
    s = spec()
    return ({m["name"]: m for m in s["end_to_end"]},
            {m["name"]: m for m in s["per_layer"]})


def run_once(binary, workload, seed, seconds, trace, entries=None, echo=True):
    """Runs the program once; returns (exit code, parsed last line or None)."""
    work = build_dir() / ("work-%d" % os.getpid())
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", str(work)]
    if trace:
        trace_dir = build_dir() / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(trace_dir / (workload + ".jsonl"))]
    if entries:
        cmd += ["--entries", str(entries)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result


def check_names(result, trace):
    """The result must carry exactly the metrics BENCHMARK.json declares."""
    end_to_end, per_layer = declared_metrics()
    want = per_layer if trace else end_to_end
    got = result["metrics"]
    ok = set(got) == set(want) and all(
        got[n]["unit"] == want[n]["unit"] for n in want)
    if not ok:
        log("dbplbench: metrics differ from BENCHMARK.json: missing %s, extra %s"
            % (sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    return ok


def single(args):
    binary = build()
    code, result = run_once(binary, args.workload, args.seed, args.seconds,
                            args.trace)
    if result is None:
        log("dbplbench: the run printed no result (exit %d)" % code)
        return code or 1
    if not check_names(result, args.trace):
        return 3
    return code


def spread(args):
    binary = build()
    end_to_end, per_layer = declared_metrics()
    declared = per_layer if args.trace else end_to_end
    names = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec()["workloads"]]
    worst_ok = True
    for w in names:
        values = {}
        for i in range(args.spread):
            seed = args.first_seed + i
            code, result = run_once(binary, w, seed, args.seconds, args.trace,
                                    echo=False)
            if code != 0 or result is None or not result["correct"]:
                log("dbplbench: %s seed %d failed (exit %d)" % (w, seed, code))
                return 1
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            log("%s seed %d: %s" % (w, seed, " ".join(
                "%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items()
                if k in end_to_end)))
        print("workload %s (%d runs, %s s each)" % (w, args.spread, args.seconds))
        print("  %-34s %12s %12s %12s %8s %7s" % (
            "metric", "q1", "median", "q3", "iqr/med", "bound"))
        for k, vs in values.items():
            if len(vs) >= 2:
                q1, med, q3 = statistics.quantiles(vs, n=4)
            else:
                q1 = med = q3 = vs[0]
            rel = (q3 - q1) / med if med else float("nan")
            bound = declared.get(k, {}).get("bound")
            flag = ""
            if bound is not None and k != "setup_s":
                if rel > bound:
                    flag, worst_ok = "OVER", False
                elif rel > bound / 3:
                    flag = "wide"
            print("  %-34s %12.5g %12.5g %12.5g %8.4f %7s %s" % (
                k, q1, med, q3, rel, "" if bound is None else bound, flag))
    return 0 if worst_ok else 4


def smoke(args):
    """Every workload, small and short, all checks on; exact counts repeat."""
    binary = build()
    ok = True
    for w in [w["name"] for w in spec()["workloads"]]:
        counts = []
        for trace in (0, 1, 1):
            code, result = run_once(binary, w, 7, 2, trace, entries=2000,
                                    echo=False)
            good = (code == 0 and result is not None and result["correct"]
                    and check_names(result, trace))
            log("smoke %s trace %d: %s" % (w, trace, "ok" if good else "FAILED"))
            ok = ok and good
            if trace and good:
                counts.append({k: result["metrics"][k]["value"] for k in EXACT_COUNTS})
        if len(counts) == 2 and counts[0] != counts[1]:
            log("smoke %s: exact counts differ between two runs of one seed: %s vs %s"
                % (w, counts[0], counts[1]))
            ok = False
    print(json.dumps({"smoke": "ok" if ok else "failed"}))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spread", type=int, default=0)
    p.add_argument("--workloads")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()
    if args.smoke:
        return smoke(args)
    if args.spread:
        return spread(args)
    if not args.workload:
        p.error("--workload is required")
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
