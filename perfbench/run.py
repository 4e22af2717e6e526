#!/usr/bin/env python3
"""End-to-end serving benchmark for Regel's NL + examples request.

One closed-loop client (perfbench_client, 4 loopback connections driven
by poll()) sends v2 `submit` frames to perfbench_server, a SocketServer +
Engine (2 workers) + trained SemanticParser running as a child process.
Every request is in deterministic-work mode (det=1, a maxpops cap, a wall
budget only as a safety stop), and every answer is re-checked after the
timed phase. A run is fixed work: --seconds S sets the number of requests
to round(S x the workload's tasks_per_second), a rate the baseline serves
in about S seconds, so every run of one S sends the same requests however
fast the commit. Workload settings live in catalog.json; names, bounds and
reasons in BENCHMARK.json at the checkout root.

Modes (run from the checkout root):

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
      One run. Prints a readable table, then one JSON line: end-to-end
      metrics with --trace 0, per-layer metrics with --trace 1 (spans go
      to .bench_build/perfbench/traces/). Exit 1 on a wrong answer.
  python3 perfbench/run.py --all [--seed N] [--seconds S]
      One untraced run of every workload; exit 1 on any wrong answer.
  python3 perfbench/run.py --steady K [--workloads a,b] [--out FILE]
      K untraced runs per workload on seeds 1..K: median and quartiles of
      every end-to-end metric, answer digests; written to FILE as JSON.
  python3 perfbench/run.py --compare A.json B.json
      Checks two --steady sets against the bounds in BENCHMARK.json: exit
      1 if a median got worse by more than its bound or the answer digests
      differ, 2 if none did but a set spreads wider than a bound.
  python3 perfbench/run.py --report [--seed N] [--seconds S]
      Untraced + traced run per workload: per-layer table, tracing
      overhead, and the dominant-layer predictions.
  python3 perfbench/run.py --selftest
      Sends the known-hanging task (DeepRegex seed 0x2, dr-26) and checks
      that it is reported as exactly one failed request.

The program is built from the checkout's sources into
.bench_build/perfbench on first use (CMake, Release).
"""

import argparse
import json
import os
import resource
import selectors
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"


def _unique_keys(pairs):
    keys = [k for k, _ in pairs]
    dupes = sorted(k for k in set(keys) if keys.count(k) > 1)
    if dupes:
        raise SystemExit("perfbench: duplicate keys in catalog.json: " + ", ".join(dupes))
    return dict(pairs)


CATALOG = json.loads((BENCH_DIR / "catalog.json").read_text(),
                     object_pairs_hook=_unique_keys)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SystemExit("perfbench: BENCHMARK.json not found at the checkout root")
    return json.loads(path.read_text())


# --------------------------------------------------------------------------
# Build
# --------------------------------------------------------------------------

def build():
    """Configures (once) and builds the benchmark package; returns bin dir."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit("perfbench: no regel sources (src/) next to perfbench/")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    quiet = dict(stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        r = subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                            "-DCMAKE_BUILD_TYPE=Release"], **quiet)
        if r.returncode != 0:
            raise SystemExit("perfbench: configure failed\n" + r.stderr[-4000:])
    jobs = str(min(4, os.cpu_count() or 1))
    r = subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs], **quiet)
    if r.returncode != 0:
        raise SystemExit("perfbench: build failed\n" + r.stderr[-4000:])
    return BUILD_DIR


# --------------------------------------------------------------------------
# Server processes
# --------------------------------------------------------------------------

class Server:
    """One perfbench_server child; records spawn-to-ready time."""

    def __init__(self, bindir):
        cfg = CATALOG["server"]
        limit = cfg["address_space_limit_mb"] << 20

        def cap_memory():
            # A runaway search must end as a dead server (failed requests),
            # never as a host out of memory.
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        self.t0 = time.monotonic()
        self.proc = subprocess.Popen(
            [str(bindir / cfg["program"])],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            preexec_fn=cap_memory, cwd=str(ROOT))
        self.port = None
        self.setup_s = None
        self.rusage = None

    def stop(self):
        """SIGTERM, then SIGKILL after a grace period (a worker stuck in a
        search cannot be joined). Returns peak RSS in MB."""
        if self.rusage is None and self.alive():
            self.proc.send_signal(signal.SIGTERM)
            deadline = time.monotonic() + 3.0
            while True:
                pid, status, ru = os.wait4(self.proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    self.proc.kill()
                    pid, status, ru = os.wait4(self.proc.pid, 0)
                    break
                time.sleep(0.02)
            self.rusage = ru
            self.proc.returncode = status
            if self.proc.stdout:
                self.proc.stdout.close()
        return self.rusage.ru_maxrss / 1024.0

    def alive(self):
        pid, status, ru = os.wait4(self.proc.pid, os.WNOHANG)
        if pid:
            self.rusage = ru
            self.proc.returncode = status
            return False
        return True


def start_servers(bindir, count, timeout_s=60.0):
    """Spawns `count` servers at once and waits until each is ready.
    Training is single-threaded, so the replicas train in parallel on
    separate cores; the median of their set-up times is setup_s."""
    servers = [Server(bindir) for _ in range(count)]
    sel = selectors.DefaultSelector()
    for s in servers:
        sel.register(s.proc.stdout, selectors.EVENT_READ, s)
    bufs = {id(s): b"" for s in servers}
    deadline = time.monotonic() + timeout_s
    pending = set(id(s) for s in servers)
    while pending and time.monotonic() < deadline:
        for key, _ in sel.select(timeout=0.5):
            s = key.data
            chunk = os.read(s.proc.stdout.fileno(), 4096)
            now = time.monotonic()
            if not chunk:
                sel.unregister(s.proc.stdout)
                pending.discard(id(s))
                continue
            bufs[id(s)] += chunk
            if b"ready port=" in bufs[id(s)] and s.port is None:
                line = bufs[id(s)].split(b"ready port=", 1)[1].split(b"\n", 1)[0]
                s.port = int(line)
                s.setup_s = now - s.t0
                sel.unregister(s.proc.stdout)
                pending.discard(id(s))
    sel.close()
    if any(s.port is None for s in servers):
        for s in servers:
            s.stop()
        raise SystemExit("perfbench: server did not become ready")
    return servers


# --------------------------------------------------------------------------
# One run
# --------------------------------------------------------------------------

def client_args(name, seconds, spec_over=None):
    w = CATALOG["workloads"][name]
    # Fixed work sized to the run length at the baseline's rate: every run
    # of one --seconds sends the same requests, however fast the commit.
    args = ["--tasks", str(max(1, round(seconds * w["tasks_per_second"])))]
    for key, flag in (("maxpops", "--maxpops"), ("pool", "--pool"), ("dr_seed", "--dr-seed"),
                      ("exclude", "--exclude")):
        if key in w:
            args += [flag, str(w[key])]
    for key, val in (spec_over or {}).items():
        args += ["--" + key.replace("_", "-"), str(val)]
    return args


def run_once(bindir, workload, seed, seconds, trace, overrides=None):
    """Runs one workload against a fresh server; returns a result dict."""
    servers = start_servers(bindir, CATALOG["server"]["setup_replicas"])
    setup_s = statistics.median(s.setup_s for s in servers)
    serving, spares = servers[0], servers[1:]
    for s in spares:
        s.stop()
    trace_out = None
    cmd = [str(bindir / "perfbench_client"), "--port", str(serving.port),
           "--workload", workload, "--seed", str(seed),
           "--trace", "1" if trace else "0"] + client_args(workload, seconds, overrides)
    if trace:
        trace_dir = BUILD_DIR / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_out = trace_dir / f"{workload}-seed{seed}.json"
        cmd += ["--trace-out", str(trace_out)]
    digest_dir = BUILD_DIR / "digests"
    digest_dir.mkdir(parents=True, exist_ok=True)
    cmd += ["--digest-out", str(digest_dir / f"{workload}-seed{seed}.tsv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=max(60.0, 6 * seconds), cwd=str(ROOT))
    except subprocess.TimeoutExpired:
        serving.stop()
        raise SystemExit("perfbench: client did not finish in time")
    crashed = not serving.alive()
    rss_mb = serving.stop()
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit("perfbench: client failed\n" + proc.stderr[-2000:])
    res = json.loads(lines[-1])
    if trace and not res["scraped"]:
        # The counter and histogram metrics would be zeros or totals that
        # include the warm-up; refuse rather than print them as measured.
        raise SystemExit("perfbench: the v2 stats/metrics scrape failed; no layer metrics")
    res["server_crashed"] = crashed
    res["e2e"]["setup_s"] = setup_s
    res["e2e"]["server_peak_rss_mb"] = rss_mb
    res["trace_file"] = str(trace_out.relative_to(ROOT)) if trace_out else None
    return res


UNITS = {}


def metric_units(spec):
    for m in spec["end_to_end"] + spec["per_layer"]:
        UNITS[m["name"]] = m["unit"]
    UNITS.setdefault("failed_share", "ratio")


def print_run(workload, seed, res, trace):
    print(f"== {workload} seed={seed} attempted={res['attempted']} "
          f"completed={res['completed']} tasks={res['tasks']} failed={res['failed']} "
          f"window={res['window_s']:.2f}s correct={res['correct']} "
          f"digest={res['digest']} ({res['digest_tasks']} tasks)")
    if res["fail_kinds"]:
        print("   failures: " + ", ".join(f"{k}={int(v)}" for k, v in res["fail_kinds"].items()))
    if res["server_crashed"]:
        print("   server process died during the run")
    block = res["layers"] if trace else res["e2e"]
    for name, val in block.items():
        print(f"   {name:32s} {val:14.4f} {UNITS.get(name, '')}")


def result_line(spec, res, trace):
    names = [m["name"] for m in (spec["per_layer"] if trace else spec["end_to_end"])]
    src = res["layers"] if trace else res["e2e"]
    missing = [n for n in names if n not in src]
    if missing:
        raise SystemExit("perfbench: metrics missing from the run: " + ", ".join(missing))
    return json.dumps({
        "correct": bool(res["correct"]),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {n: {"value": float(src[n]), "unit": UNITS[n]} for n in names},
    })


# --------------------------------------------------------------------------
# Steadiness and comparison
# --------------------------------------------------------------------------

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steady(bindir, spec, workloads, k, seconds, out):
    result = {"seconds": seconds, "k": k, "workloads": {}}
    for w in workloads:
        runs = []
        for seed in range(1, k + 1):
            log(f"perfbench: {w} seed {seed}/{k}")
            res = run_once(bindir, w, seed, seconds, False)
            runs.append({"seed": seed, "e2e": res["e2e"], "digest": res["digest"],
                         "correct": res["correct"], "attempted": res["attempted"],
                         "failed": res["failed"]})
        summary = {}
        for m in spec["end_to_end"] + [{"name": "failed_share"}]:
            vals = [r["e2e"][m["name"]] for r in runs]
            q1, med, q3 = quartiles(vals)
            summary[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                                  "spread": (q3 - q1) / med if med else 0.0,
                                  "values": vals}
        result["workloads"][w] = {"runs": runs, "summary": summary}
        print(f"== {w}: {k} runs, seeds 1..{k}")
        print(f"   {'metric':22s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for m in spec["end_to_end"] + [{"name": "failed_share", "bound": None}]:
            s = summary[m["name"]]
            b = m.get("bound")
            print(f"   {m['name']:22s} {s['median']:12.4f} {s['q1']:12.4f} {s['q3']:12.4f} "
                  f"{s['spread']:8.4f} {'' if b is None else b:>6}")
        print("   digests: " + " ".join(r["digest"] for r in runs))
        sys.stdout.flush()
    if out:
        Path(out).write_text(json.dumps(result, indent=1) + "\n")
    wrong = any(not r["correct"] for w in result["workloads"].values() for r in w["runs"])
    return 1 if wrong else 0


def compare(spec, path_a, path_b):
    """FAIL: a median got worse by more than its bound, or the answer
    digests differ. UNRESOLVED: a set spreads by more than the bound, so the
    shift between medians is not measured. Exit 0 only when every metric
    of every workload is ok."""
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    failed = unresolved = False
    for w in sorted(set(a["workloads"]) & set(b["workloads"])):
        sa, sb = a["workloads"][w]["summary"], b["workloads"][w]["summary"]
        print(f"== {w}")
        for m in spec["end_to_end"]:
            n, bound = m["name"], m["bound"]
            ma, mb = sa[n]["median"], sb[n]["median"]
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            if worse > bound:
                verdict, failed = "FAIL", True
            elif max(sa[n]["spread"], sb[n]["spread"]) > bound:
                verdict, unresolved = "UNRESOLVED", True
            else:
                verdict = "ok"
            print(f"   {n:22s} A={ma:12.4f} B={mb:12.4f} worse_by={worse:+.4f} "
                  f"spread A={sa[n]['spread']:.4f} B={sb[n]['spread']:.4f} bound={bound} {verdict}")
        da = {r["seed"]: r["digest"] for r in a["workloads"][w]["runs"]}
        db = {r["seed"]: r["digest"] for r in b["workloads"][w]["runs"]}
        same = all(da[s] == db[s] for s in set(da) & set(db))
        failed = failed or not same
        print(f"   answer digests {'identical' if same else 'DIFFER'} on seeds "
              f"{sorted(set(da) & set(db))}")
    print("compare: " + ("FAIL" if failed else "UNRESOLVED" if unresolved else "PASS"))
    return 1 if failed else 2 if unresolved else 0


# --------------------------------------------------------------------------
# Traced-run report
# --------------------------------------------------------------------------

def predictions(workload, traced):
    """The dominant-layer predictions, each checked against the traced run."""
    lay = traced["layers"]
    out = []
    if workload == "nl_stackoverflow":
        share = lay["server.ack_ms_p50"] / traced["e2e"]["latency_p50_ms"]
        out.append(("server.ack_ms p50 is most of latency p50", share > 0.5,
                    f"ack p50 / latency p50 = {share:.2f}"))
        outside = lay["server.outside_engine_ms_p50"] / traced["e2e"]["latency_p50_ms"]
        out.append(("time outside the engine is most of latency p50", outside > 0.5,
                    f"outside-engine p50 / latency p50 = {outside:.2f} (parse on the loop "
                    f"thread delays acks and done frames alike; parse_share "
                    f"{lay['nlp.parse_share']:.2f})"))
    if workload == "sketch_warm":
        out.append(("nlp.parse_ms is 0", lay["nlp.parse_ms_p50"] == 0 and lay["nlp.parse_ms_sum"] == 0,
                    f"parse sum = {lay['nlp.parse_ms_sum']:.3f} ms"))
        share = lay["engine.exec_ms_p50"] / traced["e2e"]["latency_p50_ms"]
        out.append(("engine.exec_ms p50 is most of latency p50", share > 0.5,
                    f"exec p50 / latency p50 = {share:.2f}"))
    if workload == "nl_deepregex":
        out.append(("cache write path: DFA hit rate below 0.5 (cold)", lay["caches.dfa_hit_rate"] < 0.5,
                    f"dfa hit rate = {lay['caches.dfa_hit_rate']:.3f}"))
    return out


def report(bindir, spec, workloads, seed, seconds):
    layers = CATALOG["per_layer"]
    for w in workloads:
        log(f"perfbench: report {w} (untraced)")
        plain = run_once(bindir, w, seed, seconds, False)
        log(f"perfbench: report {w} (traced)")
        traced = run_once(bindir, w, seed, seconds, True)
        print(f"== {w} seed={seed} seconds={seconds}  untraced digest={plain['digest']} "
              f"traced digest={traced['digest']}")
        print(f"   {'end-to-end':30s} {'untraced':>12s} {'traced':>12s} {'overhead':>10s}"
              "  (one pair of runs, so host-speed drift is included; see README)")
        for m in spec["end_to_end"] + [{"name": "failed_share", "unit": "ratio"}]:
            n = m["name"]
            u, t = plain["e2e"][n], traced["e2e"][n]
            ov = (t - u) / u if u else 0.0
            print(f"   {n:30s} {u:12.4f} {t:12.4f} {ov:+10.3f}  {UNITS.get(n, '')}")
        print(f"   {'per-layer (traced)':30s} {'value':>12s}  {'unit':10s} {'layer':9s} moves / on")
        for m in spec["per_layer"]:
            n = m["name"]
            info = layers[n]
            print(f"   {n:30s} {traced['layers'][n]:12.4f}  {m['unit']:10s} {info['layer']:9s} "
                  f"{info['moves']} / {info['on']}")
        for claim, holds, detail in predictions(w, traced):
            print(f"   prediction: {claim}: {'holds' if holds else 'DOES NOT HOLD'} ({detail})")
        if traced["trace_file"]:
            print(f"   spans: {traced['trace_file']}")
        sys.stdout.flush()
    return 0


def selftest(bindir):
    st = CATALOG["selftest"]
    over = {"dr_seed": st["dr_seed"], "pool": st["pool"], "only": st["only"],
            "timeout_ms": st["client_timeout_ms"]}
    t0 = time.monotonic()
    res = run_once(bindir, st["workload"], 1, 1, False, over)
    exp = st["expect"]
    ok = (res["attempted"] == exp["attempted"] and res["failed"] == exp["failed"]
          and int(res["fail_kinds"].get(exp["fail_kind"], 0)) == exp["failed"])
    print(f"selftest {st['only']} (dr_seed {st['dr_seed']}): attempted={res['attempted']} "
          f"failed={res['failed']} kinds={res['fail_kinds']} in {time.monotonic() - t0:.1f}s: "
          + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


# --------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=CATALOG["default_seed"])
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--steady", type=int, metavar="K")
    ap.add_argument("--workloads", help="comma-separated subset for --steady/--report")
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    ap.add_argument("--report", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    spec = load_spec()
    metric_units(spec)
    names = [w["name"] for w in spec["workloads"]]
    if set(names) != set(CATALOG["workloads"]):
        raise SystemExit("perfbench: BENCHMARK.json and catalog.json list different workloads")
    if set(m["name"] for m in spec["per_layer"]) != set(CATALOG["per_layer"]):
        raise SystemExit("perfbench: BENCHMARK.json and catalog.json list different layer metrics")
    if args.compare:
        return compare(spec, *args.compare)
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    subset = args.workloads.split(",") if args.workloads else names
    bindir = build()
    if args.selftest:
        return selftest(bindir)
    if args.steady:
        return steady(bindir, spec, subset, args.steady, seconds, args.out)
    if args.report:
        return report(bindir, spec, subset, args.seed, seconds)
    if args.all:
        rc = 0
        for w in names:
            res = run_once(bindir, w, args.seed, seconds, False)
            print_run(w, args.seed, res, False)
            rc |= 0 if res["correct"] else 1
        return rc
    if args.workload not in names:
        raise SystemExit(f"perfbench: --workload must be one of {', '.join(names)}")
    res = run_once(bindir, args.workload, args.seed, seconds, bool(args.trace))
    print_run(args.workload, args.seed, res, bool(args.trace))
    print(result_line(spec, res, bool(args.trace)))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
