#!/usr/bin/env python3
"""Steadiness and sensitivity checks for the perfbench benchmark.

Run from the repository root; every run goes through perfbench/run.py,
one at a time.

  python3 perfbench/tools.py spread --workload serve-overload --seeds 1-10 --out a.json
      Runs one workload once per seed and prints, per end-to-end metric,
      the median and the interquartile spread as a share of the median
      (statistics.quantiles, n=4), against a third of the metric's bound.
  python3 perfbench/tools.py compare a.json b.json
      Compares the medians of two spread files against each bound (a
      one-seed file checks a held-out seed against a ten-seed set).
  python3 perfbench/tools.py selfcheck --seeds 1-3
      Sensitivity self-check: slows every supervised call by 30% of the
      supervise layer's measured self time and shows, per workload, which
      end-to-end metrics move past their bounds and which read worse on
      every run, and which layer the traced run names. Passes when a
      predicted serve-saturated metric reads worse on every run, compose
      moves past no bound, and the traced run names supervise.
"""
import argparse
import json
import statistics
import subprocess
import sys

BENCH = "BENCHMARK.json"


def load_bench():
    with open(BENCH) as f:
        return json.load(f)


def run(workload, seed, seconds, trace=0, extra=()):
    """Runs the benchmark once; returns (result, detail) from its output."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"run failed ({' '.join(cmd)}): {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else 0.0


def cmd_spread(args):
    bench = load_bench()
    seconds = args.seconds or bench["run_seconds"]
    runs = []
    for seed in seeds_of(args.seeds):
        res, detail = run(args.workload, seed, seconds)
        if not res["correct"] or res["failed"]:
            print(f"seed {seed}: incorrect run: {res}", file=sys.stderr)
        runs.append({"seed": seed, "metrics": {k: v["value"] for k, v in res["metrics"].items()},
                     "raw": detail.get("raw", {})})
        print(f"seed {seed}: " + ", ".join(f"{k}={v:.6g}" for k, v in sorted(runs[-1]["metrics"].items())),
              flush=True)
    worst = 0.0
    print(f"\n{args.workload}: {len(runs)} runs")
    for m in bench["end_to_end"] if len(runs) > 1 else ():
        vals = [r["metrics"][m["name"]] for r in runs]
        med, sp = spread(vals)
        limit = m["bound"] / 3
        flag = "ok" if sp <= limit else "WIDE"
        print(f"  {m['name']:<24} median {med:<14.6g} spread {sp:.4f}  (bound/3 {limit:.4f}) {flag}")
        worst = max(worst, sp / m["bound"])
        raw = [r["raw"][m["name"]] for r in runs if m["name"] in r["raw"]]
        if len(raw) == len(runs):
            print(f"  {'':<24} raw    {spread(raw)[0]:<14.6g} spread {spread(raw)[1]:.4f}  (raw: before the steal correction; wall time for setup_s)")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "seconds": seconds, "runs": runs}, f, indent=1)
    return 0 if worst <= 1 / 3 else 1


def cmd_compare(args):
    bench = load_bench()
    with open(args.first) as f:
        a = json.load(f)
    with open(args.second) as f:
        b = json.load(f)
    bad = 0
    print(f"{a['workload']}: first vs second median")
    for m in bench["end_to_end"]:
        ma = statistics.median(r["metrics"][m["name"]] for r in a["runs"])
        mb = statistics.median(r["metrics"][m["name"]] for r in b["runs"])
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        ok = worse <= m["bound"]
        bad += not ok
        print(f"  {m['name']:<24} {ma:<14.6g} {mb:<14.6g} worse by {worse:+.4f} (bound {m['bound']}) "
              f"{'ok' if ok else 'REGRESSED'}")
    return 1 if bad else 0


def cmd_selfcheck(args):
    bench = load_bench()
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    seeds = seeds_of(args.seeds)
    # Calibrate: 30% of the supervise layer's self time per packet (the
    # supervised call minus the packet's own traversal), from a traced run.
    _, plain = run("serve-saturated", seeds[0], seconds, trace=1)
    self_ns = plain["trace.supervise_self_ns_mean"]
    delay_ns = int(0.3 * self_ns)
    print(f"injected delay: {delay_ns} ns per supervised call (30% of the supervise layer's "
          f"{self_ns:.0f} ns self time per packet)")
    inject = ["--inject-supervise", f"{delay_ns}ns"]
    moved, detected = {}, {}
    for workload in args.workloads.split(","):
        base = [run(workload, s, seconds)[0]["metrics"] for s in seeds]
        slow = [run(workload, s, seconds, extra=inject)[0]["metrics"] for s in seeds]
        print(f"\n{workload}:")
        moved[workload], detected[workload] = set(), set()
        for name, m in bounds.items():
            sign = 1 if m["better"] == "lower" else -1
            vb = [sign * r[name]["value"] for r in base]
            vs = [sign * r[name]["value"] for r in slow]
            mb, ms = statistics.median(vb), statistics.median(vs)
            worse = (ms - mb) / abs(mb)
            # Moved: past the bound. Detected: every slowed run reads
            # worse than every baseline run.
            if worse > m["bound"]:
                moved[workload].add(name)
            if min(vs) > max(vb):
                detected[workload].add(name)
            flags = ("MOVED " if name in moved[workload] else "") + \
                    ("DETECTED" if name in detected[workload] else "")
            print(f"  {name:<24} {sign * mb:<14.6g} -> {sign * ms:<14.6g} worse by {worse:+.4f} "
                  f"(bound {m['bound']}) {flags}")
    # The traced run must name the slowed layer: the work layer (not a
    # wait) whose mean self time per sampled packet grew the most, in ns.
    _, slowed = run("serve-saturated", seeds[0], seconds, trace=1, extra=inject)
    growth = {}
    for key, v in plain.items():
        if key.startswith("trace.") and key.endswith("_self_ns_mean") and "_wait" not in key and v > 0:
            growth[key[len("trace."):-len("_self_ns_mean")]] = slowed[key] - v
    named = max(growth, key=growth.get)
    print("\ntraced self-time growth per layer: " +
          ", ".join(f"{k} {v:+.0f} ns" for k, v in sorted(growth.items(), key=lambda kv: -kv[1])))
    print(f"named layer: {named}")
    predicted = {"ops_per_s", "latency_p90_us"}
    ok = (detected["serve-saturated"] & predicted and not moved.get("compose", set()) - {"setup_s"}
          and named == "supervise")
    if ok and not moved["serve-saturated"] & predicted:
        print("note: the slowdown is detected on every run but stays inside the bound")
    print("\nself-check " + ("PASSED" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("spread")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_spread)
    p = sub.add_parser("compare")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(fn=cmd_compare)
    p = sub.add_parser("selfcheck")
    p.add_argument("--seeds", default="1-3")
    p.add_argument("--seconds", type=int)
    p.add_argument("--workloads", default="serve-saturated,compose")
    p.set_defaults(fn=cmd_selfcheck)
    args = ap.parse_args()
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
