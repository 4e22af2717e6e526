#!/usr/bin/env python3
"""Generates the BENCH_engine.json figures quoted in the docs.

README.md and docs/OBSERVABILITY.md quote rows of the committed
BENCH_engine.json. Each quote lives in a marked region

    <!-- bench:NAME -->
    ...generated text...
    <!-- /bench:NAME -->

and this script rewrites every region from the JSON, so a regenerated
bench report and the prose can never disagree. Regions:

  smt_cache     SMT verdict store on vs off: warm-pass solver searches
  fairness      interactive p95 under FIFO vs the priority pool
  shedding      doomed-job verdict latency and queue residency, lazy vs shed
  obs_overhead  jobs/sec with instrumentation on vs off (median, quartiles)
  parse_corpus  NL front end alone: parser training and corpus parse time

Usage:
  tools/bench_tables.py [--root DIR]           rewrite the regions in place
  tools/bench_tables.py --check [--root DIR]   exit 1 if any region is stale

--check runs as a ctest, so a bench regeneration that is not followed by
a rewrite fails the suite.
"""

import argparse
import difflib
import json
import os
import re
import sys
import textwrap

DOCS = ["README.md", "docs/OBSERVABILITY.md"]

REGION = re.compile(
    r"(<!-- bench:(?P<name>[a-z_]+) -->\n)(?P<body>.*?)(<!-- /bench:(?P=name) -->)",
    re.S,
)


def para(text):
    """One paragraph, wrapped like the hand-written prose around it."""
    return textwrap.fill(" ".join(text.split()), width=72) + "\n"


def kjobs(v):
    return f"{v / 1000:.1f}k"


def smt_cache(d):
    s = d["smt_cache_on_vs_off"]
    on, off = s["warm_smt_solves_on"], s["warm_smt_solves_off"]
    share = 100.0 * on / off if off else 0.0
    return (
        "| warm pass | solver searches | check hit rate |\n"
        "|-----------|-----------------|----------------|\n"
        f"| cache on  | {on} | {s['warm_smt_check_hit_rate_on']:.3f} |\n"
        f"| cache off | {off} | {s['warm_smt_check_hit_rate_off']:.3f} |\n"
        "\n"
        + para(
            f"The warm pass runs **{share:.1f}%** of the satisfiability "
            "searches it would without the store."
        )
    )


def fairness(d):
    f = d["fairness"]
    modes = {m["mode"]: m for m in f["modes"]}
    fifo, pri = modes["fifo"], modes["priority"]
    return para(
        f"The committed `fairness` rows ran {f['batch_jobs']} batch jobs "
        f"({f['batch_budget_ms']} ms budget each) and "
        f"{f['interactive_jobs']} probes every {f['interval_ms']} ms on "
        f"{f['threads']} workers. Interactive p95 is "
        f"{fifo['interactive_p95_ms']:.0f} ms on the FIFO baseline, which "
        "parks the probes behind the whole backlog, and "
        f"{pri['interactive_p95_ms']:.0f} ms on the priority pool: a "
        f"**{f['interactive_p95_improvement']:.1f}x** p95 improvement. "
        f"Batch jobs finished by the end of the run: "
        f"{fifo['batch_completed']} under FIFO, "
        f"{pri['batch_completed']} under the priority pool."
    )


def shedding(d):
    s = d["shedding_overload"]
    rows = [
        "| mode | doomed-job verdict p50 | p95 | avg queue residency "
        "burned per doomed job | shed at submit |",
        "|------|------------------------|-----|------------------------"
        "----------------|----------------|",
    ]
    for m in s["modes"]:
        rows.append(
            f"| {m['mode']} | {m['failed_verdict_p50_ms']:.1f} ms | "
            f"{m['failed_verdict_p95_ms']:.1f} ms | "
            f"{m['failed_queue_ms_avg']:.1f} ms | "
            f"{m['shed_on_arrival']} of {m['jobs']} |"
        )
    return (
        para(
            f"The committed `shedding_overload` rows ran {s['jobs']} "
            f"SLA-carrying jobs ({s['exec_ms']} ms of work, {s['sla_ms']} ms "
            f"residency budget) arriving every {s['interval_ms']} ms at a "
            f"{s['threads']}-worker engine:"
        )
        + "\n"
        + "\n".join(rows)
        + "\n\n"
        + para(
            "Shedding saves "
            f"**{s['avg_queue_ms_saved_per_failed_job']:.1f} ms** of queue "
            "residency per doomed job."
        )
    )


def obs_overhead(d):
    o = d["obs_overhead"]
    return para(
        f"The committed `obs_overhead` row ran {o['pairs']} alternating "
        f"on/off pairs of {o['jobs']}-job runs on {o['threads']} workers "
        f"(shortest run {o['min_run_ms']:.0f} ms). Median [quartiles]: "
        f"on {kjobs(o['jobs_per_sec_on'])} "
        f"[{kjobs(o['jobs_per_sec_on_q1'])}, "
        f"{kjobs(o['jobs_per_sec_on_q3'])}] jobs/sec, off "
        f"{kjobs(o['jobs_per_sec_off'])} "
        f"[{kjobs(o['jobs_per_sec_off_q1'])}, "
        f"{kjobs(o['jobs_per_sec_off_q3'])}] jobs/sec; per-pair overhead "
        f"**{o['overhead_pct']:.1f}%** [{o['overhead_pct_q1']:.1f}%, "
        f"{o['overhead_pct_q3']:.1f}%]."
    )


def parse_corpus(d):
    p = d["parse_corpus"]
    per_desc = 1000.0 * p["parse_s"] / p["descriptions"]
    return para(
        f"The committed `parse_corpus` row ran {p['repeats']} repeats on one "
        f"thread. Median [quartiles]: training the DeepRegex parser took "
        f"**{p['train_s']:.2f} s** [{p['train_s_q1']:.2f}, "
        f"{p['train_s_q3']:.2f}], and parsing the {p['descriptions']} "
        f"descriptions to their top 10 sketches **{p['parse_s']:.2f} s** "
        f"[{p['parse_s_q1']:.2f}, {p['parse_s_q3']:.2f}] "
        f"({per_desc:.1f} ms per description). Top-10 digest "
        f"`{p['top10_digest']}`."
    )


GENERATORS = {
    "smt_cache": smt_cache,
    "fairness": fairness,
    "shedding": shedding,
    "obs_overhead": obs_overhead,
    "parse_corpus": parse_corpus,
}


def render(text, bench, path):
    def sub(m):
        name = m.group("name")
        if name not in GENERATORS:
            raise SystemExit(f"{path}: unknown bench region '{name}'")
        return m.group(1) + GENERATORS[name](bench) + m.group(4)

    return REGION.sub(sub, text)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=os.path.join(os.path.dirname(__file__), ".."))
    ap.add_argument("--check", action="store_true",
                    help="report stale regions instead of rewriting them")
    args = ap.parse_args()

    with open(os.path.join(args.root, "BENCH_engine.json")) as f:
        bench = json.load(f)

    stale = 0
    seen = set()
    for rel in DOCS:
        path = os.path.join(args.root, rel)
        with open(path) as f:
            old = f.read()
        seen.update(m.group("name") for m in REGION.finditer(old))
        try:
            new = render(old, bench, rel)
        except KeyError as e:
            print(f"{rel}: BENCH_engine.json lacks {e}", file=sys.stderr)
            return 2
        if new == old:
            continue
        if args.check:
            stale += 1
            sys.stdout.writelines(difflib.unified_diff(
                old.splitlines(True), new.splitlines(True),
                f"{rel} (committed)", f"{rel} (from BENCH_engine.json)"))
        else:
            with open(path, "w") as f:
                f.write(new)
            print(f"rewrote {rel}")

    missing = set(GENERATORS) - seen
    if missing:
        print(f"no region for: {', '.join(sorted(missing))}", file=sys.stderr)
        return 2
    if stale:
        print(f"{stale} file(s) quote stale BENCH_engine.json figures; "
              "run tools/bench_tables.py", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
