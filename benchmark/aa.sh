#!/usr/bin/env bash
# A/A check: two sets of runs of the same code must agree within the
# benchmark's own bounds.
#   benchmark/aa.sh [K=5] [OTHER_BENCH]
# Runs the untraced pass 2 x K times, alternating which of the sets A and B
# goes first; pass i of either set runs seed i, as the driver varies seeds.
# Prints per workload x metric both medians, the gap (how much worse B reads
# than A), how many pairs B won, each set's inter-quartile distance and the
# bound, as a markdown table (committed in BASELINE.md). A row is OVER when
# the gap exceeds the bound, and unresolved when a set's spread does: the host
# cannot tell a regression of that size from its own noise. The exact metrics
# are compared seed by seed, and the counts of one traced pass per set (seed 1)
# one by one; neither may differ. Exits non-zero on any OVER row.
#
# With OTHER_BENCH, the `bench` binary of another checkout (built there, its
# `traced` beside it), set A is that checkout and set B this one: the same
# table then compares two commits, B is OVER only where it reads worse, and
# the counts that moved are listed, not judged.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bench="${CARGO_TARGET_DIR:-benchmark/target}/release/bench"

exec python3 - "$bench" "${1:-5}" "${2:-}" <<'PY'
import json, statistics, subprocess, sys

bench, k, other = sys.argv[1], int(sys.argv[2]), sys.argv[3]
spec = json.load(open("BENCHMARK.json"))
binary = {"A": other or bench, "B": bench}

def run(which, workload, seed):
    out = subprocess.run(
        [binary[which], "--workload", workload, "--seed", str(seed),
         "--seconds", str(spec["run_seconds"])],
        capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload}: exit {out.returncode}\n{out.stdout}\n{out.stderr}")
    return json.load(open(f"benchmark/out/report-{workload}.json"))

def run_traced(which, workload):
    out = subprocess.run(
        [binary[which][:-len("bench")] + "traced", "--workload", workload, "--seed", "1"],
        capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"traced {workload}: exit {out.returncode}\n{out.stdout}\n{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])["metrics"]

traced = {which: {w["name"]: run_traced(which, w["name"]) for w in spec["workloads"]}
          for which in "AB"}
# Page faults are the kernel's count, not the program's.
counts = [m["name"] for m in spec["per_layer"]
          if m["unit"] == "count" and m["name"] != "engine.minor_faults"]

sets = {"A": [], "B": []}
for i in range(k):
    for which in ("AB", "BA")[i % 2]:
        sets[which].append({w["name"]: run(which, w["name"], i + 1) for w in spec["workloads"]})

def iqr(values):
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]

# How much worse `b` reads than `a`, as a share of `a`.
def worsening(a, b, better):
    return (b - a) / a if better == "lower" else (a - b) / a

env = sets["A"][0][spec["workloads"][0]["name"]]["env"]
reports = [r for s in sets.values() for p in s for r in p.values()]
loads = [r["env"][key] for r in reports for key in ("load_start", "load_end")]
noisy = any(r["env"]["noisy_host"] for r in reports)
print(f"{'A/B against ' + other if other else 'A/A'} over 2 x {k} untraced passes, "
      f"seeds 1..{k}, run_seconds {spec['run_seconds']}")
print()
print(f"- host: {env['nproc']} x {env['cpu_model']}; {env['rustc']}; profile {env['profile']}; "
      f"revision {env['git_rev']}")
print(f"- 1-min load average over the passes: {min(loads)} .. {max(loads)}; "
      f"noisy_host: {str(noisy).lower()}")
print()
print("| workload | metric | unit | median A | median B | gap | B better | IQR A | IQR B | bound | |")
print("|---|---|---|---|---|---|---|---|---|---|---|")
over = unresolved = 0
notes = []
direction = {m["name"]: m["better"] for m in spec["per_layer"]}
for w in spec["workloads"]:
    w = w["name"]
    for m in spec["end_to_end"]:
        a = [p[w]["metrics"][m["name"]]["value"] for p in sets["A"]]
        b = [p[w]["metrics"][m["name"]]["value"] for p in sets["B"]]
        ma, mb = statistics.median(a), statistics.median(b)
        gap = worsening(ma, mb, m["better"])
        spread = max(iqr(a) / ma, iqr(b) / mb)
        wins = sum(worsening(x, y, m["better"]) < 0 for x, y in zip(a, b))
        if (gap if other else abs(gap)) > m["bound"]:
            verdict, over = "OVER", over + 1
        elif spread > m["bound"]:
            verdict, unresolved = "unresolved", unresolved + 1
        else:
            verdict = "ok"
        print(f"| {w} | {m['name']} | {m['unit']} | {ma:.6g} | {mb:.6g} | {gap:+.1%} | "
              f"{wins} of {k} | {iqr(a) / ma:.1%} | {iqr(b) / mb:.1%} | {m['bound']:.0%} | {verdict} |")
    # Exact for a seed: compared pass by pass, bound 0.
    for name, first in sets["A"][0][w]["exact"].items():
        better = direction.get(name, "lower")
        pairs = [(pa[w]["exact"][name]["value"], pb[w]["exact"][name]["value"])
                 for pa, pb in zip(sets["A"], sets["B"])]
        bad = sum((worsening(a, b, better) > 0 if a else b > 0) if other else a != b
                  for a, b in pairs)
        over += bad > 0
        a, b = pairs[0]
        print(f"| {w} | {name} | {first['unit']} | {a!r} | {b!r} | "
              f"{bad} of {k} seeds {'worse' if other else 'differ'} | - | - | - | 0 | "
              f"{'OVER' if bad else 'ok'} |")
    # The traced run's counts repeat exactly for a seed, so they resolve what
    # the clock cannot.
    ta, tb = traced["A"][w], traced["B"][w]
    moved = [n for n in counts if ta[n]["value"] != tb[n]["value"]]
    over += bool(moved) and not other
    print(f"| {w} | traced counts | count | - | - | {len(moved)} of {len(counts)} differ | - | - | - | 0 | "
          f"{('moved' if other else 'OVER') if moved else 'ok'} |")
    notes += [f"- {w} `{n}`: {ta[n]['value']!r} -> {tb[n]['value']!r}" for n in moved]
print()
if notes:
    print("\n".join(notes))
    print()
print(f"{over} rows OVER their bound, {unresolved} unresolved (a set's spread exceeds the bound).")
sys.exit(1 if over else 0)
PY
