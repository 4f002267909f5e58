#!/usr/bin/env python3
"""Runs every workload of BENCHMARK.json once per seed and reports, for each
end-to-end metric, the median of the runs and their spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median. From the repository root:

    python3 bench/spread.py --seeds 1-10 --json set1.json
    python3 bench/spread.py --compare set1.json set2.json

The first form also checks that every run was correct and that every
spread but setup_s's is below a third of its bound. The second checks that
the second set's medians are no worse than the first's by more than each
metric's bound, and that each workload and seed gave the same output_sha256
and modelled-design metric in both sets.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    start = time.monotonic()
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - start
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    stamp = json.loads(lines[-2])["stamp"]
    result = json.loads(lines[-1])
    return {"workload": workload, "seed": seed, "elapsed_s": elapsed,
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "stamp": stamp}


def summarize(bench, runs):
    summary = {}
    for w in bench["workloads"]:
        mine = [r for r in runs if r["workload"] == w["name"]]
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]] for r in mine]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            summary.setdefault(w["name"], {})[m["name"]] = {
                "median": med, "q1": q1, "q3": q3, "n": len(vals),
                "spread": (q3 - q1) / med, "bound": m["bound"]}
    return summary


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="1-10", help="seed range, such as 1-10")
    ap.add_argument("--json", help="write every run and the summary here")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"),
                    help="compare the medians of two --json files")
    args = ap.parse_args()
    bench = load_benchmark()

    if args.compare:
        first, second = (json.load(open(p)) for p in args.compare)
        def output(r):
            return r["stamp"]["output_sha256"], r["stamp"]["model"]
        outputs = {(r["workload"], r["seed"]): output(r) for r in first["runs"]}
        ok = True
        for r in second["runs"]:
            want = outputs.get((r["workload"], r["seed"]))
            if want and want != output(r):
                ok = False
                print(f"{r['workload']} seed {r['seed']}: output differs between sets")
        first, second = first["summary"], second["summary"]
        worse = {m["name"]: m["better"] for m in bench["end_to_end"]}
        for w, metrics in first.items():
            for name, a in metrics.items():
                b = second[w][name]
                change = b["median"] / a["median"] - 1
                if worse[name] == "higher":
                    change = -change
                flag = "ok" if change <= a["bound"] else "WORSE"
                ok &= flag == "ok"
                print(f"{w:14} {name:12} {a['median']:12.4f} {b['median']:12.4f} "
                      f"{100 * change:+7.2f}% bound {100 * a['bound']:.0f}% {flag}")
        sys.exit(0 if ok else 1)

    runs = []
    for seed in seeds_of(args.seeds):
        for w in bench["workloads"]:
            r = run_once(bench, w["name"], seed)
            runs.append(r)
            print(f"{w['name']:14} seed {seed:3} {r['elapsed_s']:6.1f}s "
                  f"correct={r['correct']} failed={r['failed']}/{r['attempted']} "
                  f"wall_s={r['metrics']['wall_s']:.4f}", flush=True)
    summary = summarize(bench, runs)
    ok = all(r["correct"] for r in runs)
    for w, metrics in summary.items():
        for name, s in metrics.items():
            steady = name == "setup_s" or s["spread"] < s["bound"] / 3
            ok &= steady
            print(f"{w:14} {name:12} median {s['median']:12.4f} spread "
                  f"{100 * s['spread']:6.2f}% bound {100 * s['bound']:.0f}% "
                  f"{'ok' if steady else 'UNSTEADY'}")
    print(f"total run time {sum(r['elapsed_s'] for r in runs):.0f}s")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"runs": runs, "summary": summary}, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
