#!/usr/bin/env python3
"""Summarise benchmark records: medians, quartile spreads and the projected `ablate` time.

    python3 benchmarks/summarize.py [results_dir] [--baseline other_results_dir]

Reads every record ``run.py`` wrote (default ``.bench_out/results``) and
groups the untraced ones by workload.  It prints the median of each ungated
number and, for each gated end-to-end metric, the median, the quartiles and
the spread (third minus first quartile over the median) next to the bound in
BENCHMARK.json.  Traced records give the per-layer medians.  Then it
projects the time of a default `ablate` (at reference host speed) from the
medians and, given a baseline directory, how far each median moved from the
baseline's, against the metric's bound.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# default `colo ablate`: 3 seeds x 7 arms, 10 epochs of a 1600-example train split
# at batch 16, then `evaluate` (beam 5) on the 200-example test split per run
ABLATE_SEEDS = 3
ABLATE_CONTRASTIVE_ARMS = 6  # full, no_ce, no_cd, es_only, as_only, os_only
ABLATE_LM_ARMS = 1  # lm_only
ABLATE_STEPS = 1000
ABLATE_TEST_EXAMPLES = 200


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def load(results_dir):
    groups = defaultdict(list)
    for path in sorted(Path(results_dir).glob("*.json")):
        with open(path, encoding="ascii") as f:
            rec = json.load(f)
        groups[(rec["workload"], rec["trace"])].append(rec)
    return groups


def project_ablate_hours(medians):
    """Upper bound: every contrastive arm is costed at the full-objective step."""
    colo, lm, dec = medians.get("train-colo"), medians.get("train-lm"), medians.get("decode-eval")
    if not (colo and lm and dec):
        return None
    train_ms = ABLATE_SEEDS * (ABLATE_CONTRASTIVE_ARMS * colo["op_ms.p50"] + ABLATE_LM_ARMS * lm["op_ms.p50"])
    train_ms *= ABLATE_STEPS
    per_eval_s = ABLATE_TEST_EXAMPLES * dec["op_ms.p50"] / 1000.0
    per_eval_s += dec["eval_s"] * ABLATE_TEST_EXAMPLES / dec["eval_examples"]
    runs = ABLATE_SEEDS * (ABLATE_CONTRASTIVE_ARMS + ABLATE_LM_ARMS)
    return (train_ms / 1000.0 + runs * per_eval_s) / 3600.0


def summarize(results_dir, spec, show=True):
    """Print each workload's spreads; return {workload: {metric: median}} of untraced runs."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    medians = {}
    for (workload, trace), recs in sorted(load(results_dir).items()):
        say = print if show else (lambda *a: None)
        say(f"{workload} trace={trace}: {len(recs)} runs, seeds {sorted(r['seed'] for r in recs)}, "
            f"failed ops {sum(r['failed'] for r in recs)} of {sum(r['attempted'] for r in recs)}")
        if trace:
            for k in recs[0]["per_layer"]:
                say(f"  {k:42s} median {statistics.median(r['per_layer'][k] for r in recs):12.4f}")
            continue
        med = {"eval_examples": recs[0]["outputs"].get("eval_examples")}
        for k in recs[0]["info"]:
            med[k] = statistics.median(r["info"][k] for r in recs)
            say(f"  {k:18s} median {med[k]:12.4f}  (not gated)")
        for k, bound in bounds.items():
            vals = [r["metrics"][k] for r in recs]
            m, q1, q3, s = spread(vals) if len(vals) > 1 else (vals[0], vals[0], vals[0], 0.0)
            med[k] = m
            flag = "" if k == "setup_s" or s < bound / 3 else ("  WIDE" if s < bound else "  OVER BOUND")
            say(f"  {k:18s} median {m:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  spread {s:6.3f}  bound {bound}{flag}")
        medians[workload] = med
    return medians


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("results", nargs="?", default=str(ROOT / ".bench_out" / "results"))
    ap.add_argument("--baseline", help="results of the parent (or an earlier set); report how far each median moved")
    args = ap.parse_args(argv[1:])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    medians = summarize(args.results, spec)
    hours = project_ablate_hours(medians)
    if hours is not None:
        print(f"projected default ablate time at reference host speed (upper bound, serial): {hours:.2f} h")
    if args.baseline:
        base = summarize(args.baseline, spec, show=False)
        print(f"median change against {args.baseline} (positive is worse):")
        for m in spec["end_to_end"]:
            for workload in sorted(set(base) & set(medians)):
                old, new = base[workload][m["name"]], medians[workload][m["name"]]
                worse = (new - old) / old if m["better"] == "lower" else (old - new) / old
                flag = "  REGRESSION" if worse > m["bound"] else ""
                print(f"  {workload:12s} {m['name']:18s} {worse:+7.3f}  bound {m['bound']}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
