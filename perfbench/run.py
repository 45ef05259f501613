#!/usr/bin/env python3
"""TAJ benchmark: one command, five workloads, end-to-end and per-layer.

Run from the root of a TAJ checkout:

    python3 perfbench/run.py --workload table2 --seed 1 --seconds 20 --trace 0

It builds the CLI (`bin/taj_cli.exe`) and the benchmark's own programs
(`perfbench/probe.exe`, `perfbench/reference.exe`) with dune, generates
every input from `--seed` before any timing, drives the built `taj` binary
for `--seconds`, checks every report, and prints one JSON object as its
last line. `--trace 0` reports the end-to-end metrics; `--trace 1` reports
the per-layer metrics from the probe's traced reconstruction of the same
work (see NOTES.md).

`python3 perfbench/run.py --record-expected` re-records `expected.json`,
the per-(app, scale) issue counts and report digests the checks compare
against.

Workloads: table2, gridsphere, ci_comment, ci_semantic, serve.
"""

import argparse
import hashlib
import json
import math
import os
import random
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
TAJ = os.path.join(ROOT, "_build", "default", "bin", "taj_cli.exe")
PROBE = os.path.join(ROOT, "_build", "default", "perfbench", "probe.exe")
REFERENCE = os.path.join(ROOT, "_build", "default", "perfbench",
                         "reference.exe")
EXPECTED = os.path.join(HERE, "expected.json")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

WORKLOADS = ["table2", "gridsphere", "ci_comment", "ci_semantic", "serve"]
GRID_SCALE = 0.2
GRID_COUNT = 101           # GridSphere's issues at --scale 0.2, matching bounds
CI_APP, CI_SCALE = "Roller", 0.2
CI_FLAGS = ["--refine", "--contexts"]
# A CI job starts from the warm cache of the last cold run and applies a
# few edits; every episode of CI_EPISODE edits starts again from that
# state, so a run's figures do not drift with the store's growth.
CI_EPISODE = 10
# Set-ups are sampled throughout a run, not only before it, so that their
# median sees the same machine states as the measured work: one is due
# when SETUP_EVERY seconds, and 8 times the last set-up's duration, have
# passed since the last; a run takes at least SETUP_MIN.
SETUP_EVERY = 1.0
SETUP_MIN = 5
SERVE_WORKERS = 2
SERVE_CALLERS = 2
SERVE_POOL = 64            # distinct inline units per run
SERVE_WARMUP = 20          # untimed requests before the measured loop
PROC_TIMEOUT = 150
# Speed calibration (see NOTES.md): the fixed reference program runs once
# per REF_EVERY seconds of measured work, and every end-to-end time is
# scaled by (REF_NOMINAL / median reference time of the run) ** REF_EXPONENT.
# The workloads' times move by about half to three quarters as much as the
# reference's; the exponent takes out half of its move.
REF_EVERY = 0.5
REF_NOMINAL = 0.025
REF_EXPONENT = 0.5
CALIBRATED = ("table2", "gridsphere", "ci_comment", "ci_semantic")

ONE_SERVLET = """class Page extends HttpServlet {
  public void doGet(HttpServletRequest req, HttpServletResponse resp) {
    resp.getWriter().println(req.getParameter("x"));
  }
}
"""

E2E = [("setup_s", "s"), ("verdict_p50_s", "s"), ("analyses_per_s", "1/s"),
       ("peak_rss_mb", "MB")]

PER_LAYER = [
    ("jir.parse_s", "s"), ("jir.parse_mb_per_s", "MB/s"), ("jir.lower_s", "s"),
    ("jir.ssa_s", "s"), ("jir.instrs", "count"),
    ("models.jdk_s", "s"), ("models.rewrite_s", "s"),
    ("triage.infer_s", "s"), ("triage.passes", "count"),
    ("triage.method_sweeps", "count"), ("triage.skip_ratio", "ratio"),
    ("pointer.andersen_s", "s"), ("pointer.heapgraph_s", "s"),
    ("pointer.propagations", "count"), ("pointer.nodes_processed", "count"),
    ("pointer.dispatches", "count"), ("pointer.cg_nodes", "count"),
    ("pointer.dropped_calls", "count"),
    ("sdg.build_s", "s"), ("sdg.refine_steps", "count"),
    ("sdg.refine_confirmed_ratio", "ratio"),
    ("core.engine_s", "s"), ("core.report_s", "s"), ("core.visited", "count"),
    ("core.heap_transitions", "count"), ("core.flows", "count"),
    ("core.issues_per_flow", "ratio"),
    ("strings.judge_s", "s"),
    ("cache.start_s", "s"), ("cache.tiers_s", "s"), ("cache.commit_s", "s"),
    ("cache.store_mb", "MB"), ("cache.entries", "count"),
    ("cache.result_lookups", "count"),
    ("cache.ast_hit_ratio", "ratio"), ("cache.front_hit_ratio", "ratio"),
    ("cache.defuse_hit_ratio", "ratio"),
    ("serve.server_p50_s", "s"), ("serve.wire_p50_s", "s"),
    ("serve.two_worker_speedup", "ratio"), ("serve.retries", "count"),
    ("serve.rejected", "count"),
    ("trace.verdict_p50_s", "s"), ("trace.untraced_p50_s", "s"),
    ("trace.overhead_s", "s"), ("trace.residual_s", "s"),
]


class Fatal(Exception):
    """The benchmark cannot run here (no checkout, build failure, ...)."""


def log(msg):
    print(msg, flush=True)


def median(xs):
    return statistics.median(xs) if xs else 0.0


def geomean(xs):
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def digest(data):
    return hashlib.md5(data).hexdigest()


def issue_count(report):
    first = report.split(b"\n", 1)[0].decode(errors="replace")
    return int(first.split(" ", 1)[0]) if first[:1].isdigit() else -1


# ---------------------------------------------------------------------
# Build and processes
# ---------------------------------------------------------------------

def build():
    for f in ("dune-project", "bin/taj_cli.ml", "perfbench/dune"):
        if not os.path.exists(os.path.join(ROOT, f)):
            raise Fatal("not the root of a TAJ checkout (missing %s)" % f)
    dune = shutil.which("dune")
    if dune is None:
        raise Fatal("dune is not on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled",
               XDG_CACHE_HOME=os.path.join(WORK_ROOT, "xdg-cache"))
    r = subprocess.run(
        [dune, "build", "--root", ".", "./bin/taj_cli.exe",
         "./perfbench/probe.exe", "./perfbench/reference.exe"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        timeout=880)
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace"))
        raise Fatal("build failed")


class Proc:
    """One finished child: exit code, wall seconds, peak RSS, output."""

    def __init__(self, code, seconds, rss_mb, out, err):
        self.code, self.seconds, self.rss_mb = code, seconds, rss_mb
        self.out, self.err = out, err


def run_proc(argv, work):
    """Run argv to completion, timing it and reading its peak RSS."""
    out_path = os.path.join(work, "stdout")
    err_path = os.path.join(work, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=out, stderr=err,
                             stdin=subprocess.DEVNULL)
        killer = threading.Timer(PROC_TIMEOUT, p.kill)
        killer.start()
        _, status, ru = os.wait4(p.pid, 0)
        killer.cancel()
        seconds = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as f:
        o = f.read()
    with open(err_path, "rb") as f:
        e = f.read()
    return Proc(p.returncode, seconds, ru.ru_maxrss / 1024.0, o, e)


def unit_files(d):
    return sorted(os.path.join(d, f) for f in os.listdir(d)
                  if f.endswith(".mjava"))


def analyze_argv(d, scale, extra=()):
    argv = [TAJ, "analyze", "-j", "1", "--scale", str(scale)] + list(extra)
    dd = os.path.join(d, "web.xml")
    if os.path.exists(dd):
        argv += ["-d", dd]
    return argv + unit_files(d)


def generate(app, scale, d):
    r = subprocess.run([TAJ, "generate", app, "--scale", str(scale), "-o", d],
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                       timeout=PROC_TIMEOUT)
    if r.returncode != 0:
        raise Fatal("taj generate %s failed" % app)


def table2_apps():
    r = subprocess.run([TAJ, "apps"], stdout=subprocess.PIPE, timeout=60)
    return [l.split()[0] for l in r.stdout.decode().splitlines()[1:]
            if l.strip()]


def probe(args):
    r = subprocess.run([PROBE] + args, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, timeout=PROC_TIMEOUT)
    if r.returncode != 0:
        sys.stderr.write(r.stderr.decode(errors="replace"))
        raise Fatal("probe %s failed" % args[0])
    return [json.loads(l) for l in r.stdout.decode().splitlines() if l]


def probe_trace(job, work):
    path = os.path.join(work, "job.json")
    with open(path, "w") as f:
        json.dump(job, f)
    return probe(["trace", path])


# ---------------------------------------------------------------------
# Run state
# ---------------------------------------------------------------------

class Run:
    def __init__(self, seed, seconds, work, expected):
        self.seed, self.seconds, self.work = seed, seconds, work
        self.expected = expected
        self.rng = random.Random(seed)
        self.attempted = 0
        self.failed = 0
        self.rss = 0.0
        self.problems = []
        self.calibrated = False
        self.ref = []
        self.last_ref = None
        self.setup_op = None
        self.setups = []
        self.last_setup = None

    def note(self, p):
        self.rss = max(self.rss, p.rss_mb)

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(what)
        return ok

    def calibrate(self):
        """On a calibrated workload, run the reference program once per
        REF_EVERY seconds elapsed since the last call (at least once, at
        most 8 times)."""
        if not self.calibrated:
            return
        now = time.perf_counter()
        due = (1 if self.last_ref is None
               else int((now - self.last_ref) / REF_EVERY))
        for _ in range(min(due, 8)):
            p = run_proc([REFERENCE], self.work)
            if self.check(p.code == 0, "reference program exit %d" % p.code):
                self.ref.append(p.seconds)
        if due:
            self.last_ref = time.perf_counter()

    def scale(self):
        """Multiplier that puts this run's times at the reference speed."""
        if not self.ref:
            return 1.0
        return (REF_NOMINAL / median(self.ref)) ** REF_EXPONENT

    def tick(self):
        """Between measured operations: calibration and a set-up sample,
        when due."""
        self.calibrate()
        if self.setup_op is None:
            return
        if (self.last_setup is None
                or time.perf_counter() - self.last_setup
                >= max(SETUP_EVERY, 8 * self.setups[-1])):
            self.setups.append(self.setup_op())
            self.last_setup = time.perf_counter()

    def setup_s(self):
        while len(self.setups) < SETUP_MIN:
            self.setups.append(self.setup_op())
        return median(self.setups)


def expected_entry(run, key):
    e = run.expected.get(key)
    if e is None:
        raise Fatal("expected.json has no entry %s" % key)
    return e


def check_report(run, p, key, what):
    e = expected_entry(run, key)
    good_code = 2 if e["issues"] > 0 else 0
    ok = (p.code == good_code and issue_count(p.out) == e["issues"]
          and digest(p.out) == e["digest"])
    return run.check(ok, "%s: exit %d, %d issue(s), digest %s (want %d, %s)"
                     % (what, p.code, issue_count(p.out), digest(p.out),
                        e["issues"], e["digest"]))


def one_servlet_setup(run, scale):
    d = os.path.join(run.work, "one")
    os.makedirs(d, exist_ok=True)
    with open(os.path.join(d, "unit_000.mjava"), "w") as f:
        f.write(ONE_SERVLET)

    def one():
        p = run_proc(analyze_argv(d, scale), run.work)
        run.note(p)
        run.check(p.code == 2 and issue_count(p.out) == 1, "one-servlet set-up")
        return p.seconds
    run.setup_op = one


# ---------------------------------------------------------------------
# Batch workloads: table2, gridsphere
# ---------------------------------------------------------------------

def batch_inputs(run, workload):
    if workload == "table2":
        apps = [(a, 0.05) for a in table2_apps()]
    else:
        apps = [("GridSphere", GRID_SCALE)]
    out = []
    for app, scale in apps:
        d = os.path.join(run.work, "gen", app)
        generate(app, scale, d)
        out.append((app, scale, d))
    return out


def run_batch(run, inputs, budget):
    """Analyse the inputs in seeded order, whole passes, until [budget]
    seconds have passed; returns {app: [seconds]}."""
    times = {app: [] for app, _, _ in inputs}
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < budget:
        order = list(inputs)
        run.rng.shuffle(order)
        for app, scale, d in order:
            run.tick()
            p = run_proc(analyze_argv(d, scale), run.work)
            run.note(p)
            if check_report(run, p, "%s@%g" % (app, scale), app):
                times[app].append(p.seconds)
    return times


def batch_verdict(times):
    meds = [median(ts) for ts in times.values() if ts]
    return geomean(meds) if meds else 0.0


def workload_batch(run, workload):
    inputs = batch_inputs(run, workload)
    scale = inputs[0][1]
    one_servlet_setup(run, scale)
    times = run_batch(run, inputs, run.seconds)
    n = sum(len(ts) for ts in times.values())
    busy = sum(sum(ts) for ts in times.values())
    verdict = batch_verdict(times)
    log("%s: %d analyses of %d input(s); per-input medians: %s"
        % (workload, n, len(inputs),
           ", ".join("%s %.4f" % (a, median(ts)) for a, ts in times.items())))
    return {"setup_s": run.setup_s(), "verdict_p50_s": verdict,
            "analyses_per_s": n / busy if busy > 0 else 0.0}


def trace_batch(run, workload):
    inputs = batch_inputs(run, workload)
    job = {"mode": "batch", "scale": inputs[0][1], "seconds": run.seconds / 2,
           "min_reps": 1,
           "inputs": [{"app": a, "dir": d} for a, _, d in inputs]}
    samples = probe_trace(job, run.work)
    # the untraced CLI on the same inputs: its digests must equal the
    # probe's, and its medians give the tracing overhead
    times = run_batch(run, inputs, run.seconds / 4)
    for s in samples:
        app, scale, _ = inputs[s["input"]]
        e = expected_entry(run, "%s@%g" % (app, scale))
        run.check(s["digest"] == e["digest"] and s["issues"] == e["issues"],
                  "traced %s report differs from the CLI's" % app)
        if "fn" in s:
            run.check(e["fn"] > 0 or s["fn"] == 0,
                      "%s: %d planted real flow(s) unreported" % (app, s["fn"]))
    m = layer_metrics(samples)
    m["trace.untraced_p50_s"] = batch_verdict(times)
    m["trace.overhead_s"] = m["trace.verdict_p50_s"] - m["trace.untraced_p50_s"]
    return m


def layer_metrics(samples):
    """Per-layer metrics from probe samples: for every input the median
    over its samples, then the mean over inputs (seconds or counts per
    analysis). trace.verdict_p50_s is the geomean of per-input medians."""
    per_input = {}
    for s in samples:
        vals = {k + "_s": v for k, v in s["self_s"].items()}
        vals.update(s["counts"])
        vals["trace.residual_s"] = s["total_s"] - sum(s["self_s"].values())
        vals["trace.total_s"] = s["total_s"]
        per_input.setdefault(s["input"], []).append(vals)
    out = {}
    names = set()
    for vs in per_input.values():
        for v in vs:
            names.update(v)
    for name in names:
        meds = [median([v.get(name, 0.0) for v in vs])
                for vs in per_input.values()]
        out[name] = sum(meds) / len(meds)
    out["trace.verdict_p50_s"] = geomean(
        [median([v["trace.total_s"] for v in vs])
         for vs in per_input.values()])
    return out


# ---------------------------------------------------------------------
# CI edit loop: ci_comment, ci_semantic
# ---------------------------------------------------------------------

CI_KEY = "%s@%g+refine+contexts" % (CI_APP, CI_SCALE)


def ci_argv(d, cache, extra=()):
    return analyze_argv(d, CI_SCALE,
                        ["--cache", cache] + CI_FLAGS + list(extra))


def ci_prepare(run):
    """Generate the app and make one cold run into a fresh cache directory.
    Returns (src, the warm cache, the cold report, a cold-run set-up)."""
    src = os.path.join(run.work, "gen", CI_APP)
    generate(CI_APP, CI_SCALE, src)
    n = [0]

    def cold(keep=False):
        n[0] += 1
        cache = os.path.join(run.work, "cache%d" % n[0])
        p = run_proc(ci_argv(src, cache), run.work)
        run.note(p)
        check_report(run, p, CI_KEY, "cold run")
        if not keep:
            shutil.rmtree(cache)
        return cache, p
    cache, p = cold(keep=True)
    return src, cache, p.out, lambda: cold()[1].seconds


def ci_plan(run, kind, n_units, count):
    """The seeded edit sequence: each edit appends text to one unit."""
    edits = []
    for k in range(count):
        u = run.rng.randrange(n_units)
        tag = "%08x" % run.rng.getrandbits(32)
        if kind == "comment":
            text = "\n// ci edit %d %s\n" % (k, tag)
        else:
            text = ("\nclass CiEdit%d_%s { int probe%d(int x) "
                    "{ return x + %d; } }\n"
                    % (k, tag, k, run.rng.randrange(1000)))
        edits.append({"unit": u, "append": text})
    return edits


def ci_edits(run, kind, d, cache, edits, before, issues, extra=()):
    """Apply the edits in order to the units in d, running the CLI through
    the cache after each. A comment edit must leave the report
    byte-identical; a semantic edit must keep the issue count. Returns
    the Procs."""
    files = unit_files(d)
    procs = []
    for e in edits:
        with open(files[e["unit"]], "a") as f:
            f.write(e["append"])
        run.tick()
        p = run_proc(ci_argv(d, cache, extra), run.work)
        run.note(p)
        procs.append(p)
        if kind == "comment":
            run.check(p.code == 2 and p.out == before,
                      "comment edit changed the report")
        else:
            run.check(p.code == 2 and issue_count(p.out) == issues,
                      "semantic edit: exit %d, %d issue(s), want %d"
                      % (p.code, issue_count(p.out), issues))
        before = p.out
    return procs


def ci_episode(run, src, warm):
    """Fresh copies of the pristine units and of the warm cache."""
    d = os.path.join(run.work, "episode")
    cache = os.path.join(run.work, "episode-cache")
    for x in (d, cache):
        shutil.rmtree(x, ignore_errors=True)
    shutil.copytree(src, d)
    shutil.copytree(warm, cache)
    return d, cache


def workload_ci(run, kind):
    src, warm, cold, run.setup_op = ci_prepare(run)
    edits = ci_plan(run, kind, len(unit_files(src)), 2000)
    procs = []
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < run.seconds:
        d, cache = ci_episode(run, src, warm)
        k = len(procs)
        procs += ci_edits(run, kind, d, cache, edits[k:k + CI_EPISODE], cold,
                          issue_count(cold))
    times = [p.seconds for p in procs]
    log("ci_%s: %d %s edits, median %.4f s"
        % (kind, len(times), kind, median(times)))
    return {"setup_s": run.setup_s(), "verdict_p50_s": median(times),
            "analyses_per_s": len(times) / sum(times) if times else 0.0}


def trace_ci(run, kind):
    src, warm, cold, _ = ci_prepare(run)
    edits = ci_plan(run, kind, len(unit_files(src)), 2000)
    samples, stores = [], []
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < run.seconds:
        _, cache = ci_episode(run, src, warm)
        k = len(samples)
        out = probe_trace({"mode": "edits", "dir": src, "scale": CI_SCALE,
                           "refine": True, "contexts": True, "cache": cache,
                           "seconds": 1e9, "edits": edits[k:k + CI_EPISODE]},
                          run.work)
        samples += [s for s in out if "digest" in s]
        stores += [s for s in out if "store_entries" in s]
    # the untraced CLI replays the first episode from the same warm store:
    # its reports must equal the probe's, edit for edit
    d, cache = ci_episode(run, src, warm)
    procs = ci_edits(run, kind, d, cache, edits[:CI_EPISODE], cold,
                     issue_count(cold))
    for p, s in zip(procs, samples):
        run.check(digest(p.out) == s["digest"],
                  "traced %s edit report differs from the CLI's" % kind)
    # one more edit through the CLI with its own counters on: how many
    # result-tier lookups does the CLI make?
    [p] = ci_edits(run, kind, d, cache, edits[CI_EPISODE:CI_EPISODE + 1],
                   procs[-1].out, issue_count(cold), ["--metrics"])
    counters = {}
    for line in p.err.decode(errors="replace").splitlines():
        parts = line.split()
        if len(parts) >= 2 and parts[1].isdigit():
            counters[parts[0]] = int(parts[1])
    for s in samples:
        s["input"] = 0          # one input: the edit sequence
    m = layer_metrics(samples)
    m["cache.result_lookups"] = (counters.get("cache.result.hit", 0)
                                 + counters.get("cache.result.miss", 0))
    m["cache.entries"] = median([s["store_entries"] for s in stores])
    m["cache.store_mb"] = median([s["store_mb"] for s in stores])
    m["trace.untraced_p50_s"] = median([p.seconds for p in procs])
    m["trace.overhead_s"] = m["trace.verdict_p50_s"] - m["trace.untraced_p50_s"]
    return m


# ---------------------------------------------------------------------
# serve: closed loop over one stdio connection
# ---------------------------------------------------------------------

class Server:
    """`taj serve` on stdio; NDJSON requests in, responses out. Servers
    not yet closed are in [live], so that an error can stop them."""

    live = []

    def __init__(self):
        self.p = subprocess.Popen(
            [TAJ, "serve", "--workers", str(SERVE_WORKERS)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL)
        self.buf = b""
        self.eof = False
        Server.live.append(self)

    def send(self, obj):
        self.p.stdin.write((json.dumps(obj) + "\n").encode())
        self.p.stdin.flush()

    def read(self, timeout=PROC_TIMEOUT):
        """Block until at least one complete line (or EOF); return lines."""
        fd = self.p.stdout.fileno()
        while b"\n" not in self.buf and not self.eof:
            r, _, _ = select.select([fd], [], [], timeout)
            if not r:
                raise Fatal("taj serve stopped answering")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                self.eof = True
            self.buf += chunk
        *lines, self.buf = self.buf.split(b"\n")
        return [json.loads(l) for l in lines if l.strip()]

    def close(self):
        """Close stdin (drain), read to EOF; returns (lines, exit, rss MB)."""
        self.p.stdin.close()
        lines = []
        while not self.eof:
            lines += self.read()
        if self.buf.strip():
            lines.append(json.loads(self.buf))
        _, status, ru = os.wait4(self.p.pid, 0)
        self.p.returncode = os.waitstatus_to_exitcode(status)
        self.p.stdout.close()
        Server.live.remove(self)
        return lines, self.p.returncode, ru.ru_maxrss / 1024.0


def serve_pool(run):
    pool = probe(["units", str(run.seed), str(SERVE_POOL)])
    for u in pool:
        run.check(u["issues"] >= 0,
                  "unit of kind %s did not complete in-process" % u["kind"])
    return pool


class Loop:
    """A closed loop: [callers] outstanding requests, each caller sending
    its next request when its previous verdict arrives."""

    def __init__(self, run, pool):
        self.run, self.pool = run, pool
        self.next_id = 0

    def request(self):
        i = self.run.rng.randrange(len(self.pool))
        u = self.pool[i]
        rid = "r%d" % self.next_id
        self.next_id += 1
        return rid, i, {"id": rid, "source": u["source"],
                        "descriptor": u["descriptor"]}

    def check(self, resp, i):
        u = self.pool[i]
        return self.run.check(
            resp.get("status") == "completed"
            and resp.get("issues") == u["issues"],
            "serve %s: status %s, %s issue(s), want %d"
            % (resp.get("id"), resp.get("status"), resp.get("issues"),
               u["issues"]))

    def drive(self, srv, callers, budget=None, count=None):
        """Run until [budget] seconds or [count] requests have been sent;
        returns (latencies, server seconds, wall seconds)."""
        outstanding = {}
        lat, server = [], []
        sent = 0
        t0 = time.perf_counter()

        def more():
            if count is not None:
                return sent < count
            return time.perf_counter() - t0 < budget

        for _ in range(callers):
            rid, i, req = self.request()
            outstanding[rid] = (time.perf_counter(), i)
            srv.send(req)
            sent += 1
        while outstanding:
            for resp in srv.read():
                t_sent, i = outstanding.pop(resp["id"])
                now = time.perf_counter()
                if self.check(resp, i):
                    lat.append(now - t_sent)
                    server.append(resp.get("seconds", 0.0))
                if more():
                    rid, i, req = self.request()
                    outstanding[rid] = (time.perf_counter(), i)
                    srv.send(req)
                    sent += 1
        return lat, server, time.perf_counter() - t0


def serve_setup(run, pool):
    """Set-up: spawn `taj serve` until its first response arrives."""
    def one():
        loop = Loop(run, pool)
        t0 = time.perf_counter()
        srv = Server()
        rid, i, req = loop.request()
        srv.send(req)
        resp = srv.read()[0]
        t = time.perf_counter() - t0
        loop.check(resp, i)
        finish_server(run, srv)
        return t
    run.setup_op = one


def finish_server(run, srv):
    lines, code, rss = srv.close()
    run.rss = max(run.rss, rss)
    run.check(code == 0, "taj serve exited %d" % code)
    health = [l for l in lines if l.get("event") == "health"]
    return health[-1] if health else {}


def serve_phase(run, pool, callers, budget):
    """Warm up, then drive the closed loop for [budget] seconds, in
    one-second segments with set-up samples between them. Returns
    (latencies, server seconds, loop wall, health)."""
    loop = Loop(run, pool)
    srv = Server()
    loop.drive(srv, callers, count=SERVE_WARMUP)
    lat, server, wall = [], [], 0.0
    while wall < budget:
        run.tick()              # while the server is idle
        l, s, w = loop.drive(srv, callers, budget=min(1.0, budget - wall))
        lat += l
        server += s
        wall += w
    return lat, server, wall, finish_server(run, srv)


def tail_note(lat):
    """The p99 of the latencies, when at least 10 samples lie beyond it."""
    if len(lat) < 1000:
        return "n=%d, too few samples for a p99" % len(lat)
    p99 = statistics.quantiles(lat, n=100)[98]
    return "p99 %.5f s (n=%d)" % (p99, len(lat))


def workload_serve(run):
    pool = serve_pool(run)
    serve_setup(run, pool)
    lat, server, wall, _ = serve_phase(run, pool, SERVE_CALLERS, run.seconds)
    log("serve: %d callers, %d workers; %d verdicts in %.2f s; p50 %.5f s; "
        "verdict_p99_s: %s" % (SERVE_CALLERS, SERVE_WORKERS, len(lat), wall,
                               median(lat), tail_note(lat)))
    return {"setup_s": run.setup_s(), "verdict_p50_s": median(lat),
            "analyses_per_s": len(lat) / wall}


def trace_serve(run):
    pool = serve_pool(run)
    inputs = []
    for i, u in enumerate(pool[:24]):
        d = os.path.join(run.work, "units", "u%03d" % i)
        os.makedirs(d)
        with open(os.path.join(d, "unit_000.mjava"), "w") as f:
            f.write(u["source"])
        if u["descriptor"]:
            with open(os.path.join(d, "web.xml"), "w") as f:
                f.write(u["descriptor"])
        inputs.append(d)
    job = {"mode": "batch", "scale": 0.05, "seconds": run.seconds / 3,
           "min_reps": 1, "inputs": [{"dir": d} for d in inputs]}
    samples = probe_trace(job, run.work)
    for s in samples:
        want = pool[s["input"]]["issues"]
        run.check(s["issues"] == want, "traced unit %d: %d issue(s), want %d"
                  % (s["input"], s["issues"], want))
    m = layer_metrics(samples)
    lat2, server2, wall2, h2 = serve_phase(run, pool, 2, run.seconds / 3)
    lat1, _, wall1, h1 = serve_phase(run, pool, 1, run.seconds / 3)
    m["serve.server_p50_s"] = median(server2)
    m["serve.wire_p50_s"] = median([l - s for l, s in zip(lat2, server2)])
    m["serve.two_worker_speedup"] = (len(lat2) / wall2) / (len(lat1) / wall1)
    m["serve.retries"] = h1.get("retries", 0) + h2.get("retries", 0)
    m["serve.rejected"] = sum(h.get(k, 0) for h in (h1, h2)
                              for k in ("rejected_full", "rejected_draining",
                                        "shed"))
    m["trace.untraced_p50_s"] = median(lat1)
    m["trace.overhead_s"] = m["trace.verdict_p50_s"] - m["trace.untraced_p50_s"]
    return m


# ---------------------------------------------------------------------
# Expected outputs, recorded at the seed
# ---------------------------------------------------------------------

def record_expected(work):
    gen = os.path.join(work, "gen")
    cases = [(a, 0.05, []) for a in table2_apps()]
    cases += [("GridSphere", GRID_SCALE, []), (CI_APP, CI_SCALE, CI_FLAGS)]
    expected = {}
    batch = []
    for app, scale, flags in cases:
        d = os.path.join(gen, "%s@%g" % (app, scale))
        if not os.path.isdir(d):
            generate(app, scale, d)
        p = run_proc(analyze_argv(d, scale, flags), work)
        key = "%s@%g%s" % (app, scale, "".join("+" + f[2:] for f in flags))
        expected[key] = {"issues": issue_count(p.out), "digest": digest(p.out)}
        if not flags:
            batch.append((key, app, scale, d))
        log("%s: exit %d, %d issue(s)" % (key, p.code, issue_count(p.out)))
    for key, app, scale, d in batch:
        s = probe_trace({"mode": "batch", "scale": scale, "seconds": 0,
                         "min_reps": 1, "inputs": [{"app": app, "dir": d}]},
                        work)[0]
        if s["digest"] != expected[key]["digest"]:
            raise Fatal("probe and CLI reports differ on %s" % key)
        expected[key]["fn"] = s["fn"]
    if expected["GridSphere@%g" % GRID_SCALE]["issues"] != GRID_COUNT:
        raise Fatal("GridSphere at scale %g no longer reports %d issues"
                    % (GRID_SCALE, GRID_COUNT))
    with open(EXPECTED, "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")


# ---------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------

def measure(run, workload, trace):
    run.calibrated = not trace and workload in CALIBRATED
    if workload in ("table2", "gridsphere"):
        if trace:
            return trace_batch(run, workload)
        m = workload_batch(run, workload)
    elif workload in ("ci_comment", "ci_semantic"):
        kind = workload[3:]
        if trace:
            return trace_ci(run, kind)
        m = workload_ci(run, kind)
    else:
        if trace:
            return trace_serve(run)
        m = workload_serve(run)
    f = run.scale()
    log("unscaled: " + json.dumps(
        dict(m, reference_median_s=median(run.ref), reference_runs=len(run.ref),
             scale=f)))
    return {"setup_s": m["setup_s"] * f,
            "verdict_p50_s": m["verdict_p50_s"] * f,
            "analyses_per_s": m["analyses_per_s"] / f,
            "peak_rss_mb": run.rss}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-expected", action="store_true")
    args = ap.parse_args()
    if not args.record_expected and args.workload is None:
        ap.error("--workload is required")
    work = None
    try:
        build()
        os.makedirs(WORK_ROOT, exist_ok=True)
        work = os.path.join(WORK_ROOT, "run-%d" % os.getpid())
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        if args.record_expected:
            record_expected(work)
            return 0
        with open(EXPECTED) as f:
            expected = json.load(f)
        run = Run(args.seed, args.seconds, work, expected)
        values = measure(run, args.workload, args.trace == 1)
    except Fatal as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 1
    finally:
        for srv in Server.live:
            srv.p.kill()
            srv.p.wait()
        if work is not None:
            shutil.rmtree(work, ignore_errors=True)
    names = PER_LAYER if args.trace else E2E
    metrics = {n: {"value": values.get(n, 0.0), "unit": u} for n, u in names}
    for p in run.problems:
        log("check failed: %s" % p)
    log("failed_ratio: %d/%d = %.4f" % (run.failed, run.attempted,
                                        run.failed / max(1, run.attempted)))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
