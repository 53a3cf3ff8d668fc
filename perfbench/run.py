#!/usr/bin/env python3
"""Repository benchmark of LAACAD: time to a verified deployment, serving
capacity, and per-layer attribution.

    python3 perfbench/run.py --workload converge_global --seed 1 \\
        --seconds 25 --trace 0

Run from the root of a checkout. The first run builds the library, the
harness and the daemon from source into .bench_build/perfbench (Release,
no sanitizers). Workloads:

  converge_global  corner deployments solved to convergence (Engine::run,
                   global provider); instance seeds derive from --seed
  churn_localized  4-phase churn timelines (ScenarioRunner::run, localized
                   provider); instance seeds derive from --seed
  serve_mix        the laacad_serve daemon on scenarios/serve_base.scn
                   under open-loop traffic; request draws derive from --seed

Every run applies the workload's correctness gate (named checks, listed on
stderr and in .bench_build/results/) and prints, as its last stdout line,
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. The
exit code is 1 when any check failed, 2 on a usage or build problem and 3
when the build is not a measurable one.
"""
import argparse
import json
import os
import platform
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD, "perfbench_harness")
DAEMON = os.path.join(BUILD, "perfbench_serve")
WORKLOADS = os.path.join(HERE, "workloads")
SERVE_SCN = os.path.join(ROOT, "scenarios", "serve_base.scn")
SERVE_WL = os.path.join(WORKLOADS, "serve_balanced.wl")

# Wall-clock budget of one run, build excluded; every subprocess gets what
# is left of it.
RUN_BUDGET_S = 170.0

# Seconds one instance takes on a 4-core container (Release, g++ 12); sets
# how many instances a run of --seconds holds. Traced instances are solved
# twice (untraced, then by the traced replica) plus probes.
INSTANCE_S = {"converge_global": 1.4, "churn_localized": 4.3}
TRACED_FACTOR = 2.4
CANONICAL_SEED = 3
ENGINE_THREADS = 2

# serve_mix: the base rate sits well below the knee (about 9k req/s on two
# connections); the saturation segment offers ten times that.
SERVE_BASE_RATE = 4000.0
SERVE_SAT_RATE = 40000.0
SERVE_STARTS = 15
SERVE_LOAD_DAEMONS = 4
SERVE_SAT_SEGMENTS = 2  # per loaded daemon
SERVE_NODES = 40


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Deadline:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        left = self.end - time.monotonic()
        if left <= 1.0:
            raise RuntimeError("run budget exhausted")
        return left


class Checks:
    """Named correctness checks; each counts as one attempted operation."""

    def __init__(self):
        self.items = []

    def add(self, name, ok, detail=""):
        self.items.append({"check": name, "ok": bool(ok), "detail": str(detail)})
        if not ok:
            log(f"perfbench: CHECK FAILED {name}: {detail}")

    @property
    def failed(self):
        return sum(1 for c in self.items if not c["ok"])


# ------------------------------------------------------------------ build --

def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("perfbench: no laacad sources next to perfbench/ "
            "(run from the root of a checkout)")
        raise SystemExit(2)
    cfg = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release",
           "-DLAACAD_SANITIZE="]
    cmd = ["cmake", "--build", BUILD, "-j", "4",
           "--target", "perfbench_harness", "perfbench_serve"]
    for step in (cfg, cmd):
        r = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            log(f"perfbench: build step failed: {' '.join(step)}")
            raise SystemExit(2)


def describe():
    """Host and build descriptor stamped into every result."""
    out = subprocess.run([HARNESS, "describe"], capture_output=True,
                         text=True, check=True).stdout
    d = json.loads(out.strip().splitlines()[-1])
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    d["cpu_model"] = cpu
    d["nproc"] = os.cpu_count()
    d["usable_cpus"] = (len(os.sched_getaffinity(0))
                        if hasattr(os, "sched_getaffinity") else os.cpu_count())
    d["machine"] = platform.machine()
    return d


def harness(args, deadline):
    r = subprocess.run([HARNESS] + args, capture_output=True, text=True,
                       timeout=deadline.left())
    if r.returncode != 0:
        raise RuntimeError(f"harness {args[0]} failed ({r.returncode}): "
                           f"{r.stderr.strip()}")
    return [json.loads(line) for line in r.stdout.splitlines() if line.strip()]


# ---------------------------------------------------------------- helpers --

def load_expected():
    with open(os.path.join(HERE, "expected.json")) as f:
        return json.load(f)


def instance_seeds(seed, count):
    """The canonical instance, then instances derived from --seed."""
    return [CANONICAL_SEED] + [(1000 * seed + 100 + j) % (1 << 63)
                               for j in range(1, count)]


def median(values):
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------- batch workloads --

BATCH = {
    "converge_global": ("converge_global.scn", "engine"),
    "churn_localized": ("churn_localized.scn", "scenario"),
}


def check_instances(workload, rows, expected, checks):
    recorded = expected[workload]["digests"]
    checks.add("canonical_digest_recorded", str(CANONICAL_SEED) in recorded,
               f"seed {CANONICAL_SEED} in perfbench/expected.json")
    for r in rows:
        tag = f"{r['kind']}[seed={r['seed']}]"
        checks.add(f"{tag}.coverage_k2", r["coverage_ok"] and r["min_depth"] >= 2,
                   f"min depth {r['min_depth']}")
        if workload == "converge_global":
            checks.add(f"{tag}.converged", r["converged"],
                       f"{r['rounds']} rounds")
        else:
            checks.add(f"{tag}.phases_rounds",
                       r["phases"] == 4 and r["rounds"] == 12,
                       f"{r['phases']} phases, {r['rounds']} rounds")
        want = recorded.get(str(r["seed"]))
        if want is not None:
            checks.add(f"{tag}.digest", r["digest"] == want["digest"]
                       and r["rounds"] == want["rounds"],
                       f"{r['digest']}/{r['rounds']} vs recorded "
                       f"{want['digest']}/{want['rounds']}")


def run_batch(workload, seed, seconds, trace, deadline, checks):
    scn, solve = BATCH[workload]
    per = INSTANCE_S[workload] * (TRACED_FACTOR if trace else 1.0)
    count = max(2, round(seconds / per))
    seeds = instance_seeds(seed, count)
    args = ["batch", "--scn", os.path.join(WORKLOADS, scn), "--solve", solve,
            "--seeds", ",".join(str(s) for s in seeds),
            "--threads", str(ENGINE_THREADS)]
    if trace:
        args += ["--trace", "--serve-scn", SERVE_SCN, "--serve-wl", SERVE_WL]
    rows = harness(args, deadline)
    summary = rows[-1]
    untraced = [r for r in rows if r["kind"] == "untraced"]
    traced = [r for r in rows if r["kind"] == "traced"]
    checks.add("instances_solved", len(untraced) == len(seeds),
               f"{len(untraced)} of {len(seeds)}")
    check_instances(workload, untraced + traced, load_expected(), checks)
    if not trace:
        solve = [r["solve_s"] for r in untraced]
        return {
            "setup_s": median([r["setup_s"] for r in untraced]),
            "solve_s": statistics.fmean(solve),
            "peak_rss_mib": summary["peak_rss_mib"],
            "rate_per_s": sum(r["node_rounds"] for r in untraced) / sum(solve),
        }
    return trace_checks(untraced, traced, summary, checks)


def trace_checks(untraced, traced, summary, checks):
    """The traced replica must reproduce the untraced solve bit for bit and
    its layer spans must cover the replica's solve time."""
    by_seed = {r["seed"]: r for r in untraced}
    checks.add("traced_instances", len(traced) == len(untraced),
               f"{len(traced)} traced of {len(untraced)}")
    for t in traced:
        u = by_seed.get(t["seed"], {})
        checks.add(f"traced[seed={t['seed']}].same_digest",
                   u.get("digest") == t["digest"]
                   and u.get("rounds") == t["rounds"],
                   f"{t['digest']} vs untraced {u.get('digest')}")
    layers = dict(summary)
    share = layers["trace.accounted_s"] / layers["trace.solve_s"]
    checks.add("trace.accounted_share_ge_0.9", share >= 0.9, f"{share:.4f}")
    layers["trace.accounted_share"] = share
    layers["trace.overhead_s"] = (layers["trace.solve_s"]
                                  - layers["trace.untraced_solve_s"]) / max(1, len(traced))
    return layers


# -------------------------------------------------------------- serve_mix --

def request(port, line, timeout):
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        s.sendall((line + "\n").encode())
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = s.recv(65536)
            if not chunk:
                raise RuntimeError(f"daemon closed the connection on {line}")
            buf += chunk
    return buf.decode().strip()


class Daemon:
    """One laacad_serve process on an ephemeral loopback port."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(
            [DAEMON, "--scn", SERVE_SCN, "--port", "0", "--threads", "1",
             "--quiet"],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)
        self.port = None
        self.stderr_lines = []
        # The port line is read on this thread, so set-up time does not
        # include a thread hand-off; a reader thread drains the rest. A
        # daemon that never listens is killed, which ends the read.
        watchdog = threading.Timer(min(30.0, deadline.left()), self.proc.kill)
        watchdog.start()
        for line in self.proc.stderr:
            self.stderr_lines.append(line.rstrip())
            if "listening on 127.0.0.1:" in line:
                self.port = int(line.rsplit(":", 1)[1])
                break
        watchdog.cancel()
        self.reader = threading.Thread(target=self._drain_stderr, daemon=True)
        self.reader.start()
        if self.port is None:
            self.close()
            raise RuntimeError("daemon did not start: "
                               + " | ".join(self.stderr_lines[-5:]))

    def _drain_stderr(self):
        for line in self.proc.stderr:
            self.stderr_lines.append(line.rstrip())

    def call(self, line):
        return request(self.port, line, timeout=min(60.0, self.deadline.left()))

    def wait_healthy(self):
        """Seconds from spawn to the first ok `health` response."""
        while True:
            if self.call('{"op":"health"}').startswith('{"hb"'):
                return time.perf_counter() - self.t_spawn
            time.sleep(0.001)

    def peak_rss_mib(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the daemon")

    def close(self):
        if self.proc.poll() is None:
            try:
                self.call('{"op":"shutdown"}')
            except (OSError, RuntimeError, TypeError):
                self.proc.kill()  # never listened, or does not answer
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.reader.join(timeout=5)


def serve_side():
    """Side length of the served square: query coordinates draw over it."""
    with open(SERVE_SCN) as f:
        for line in f:
            fields = line.split("#", 1)[0].split()
            if len(fields) == 2 and fields[0] == "side":
                return fields[1]
    raise RuntimeError(f"no side in {SERVE_SCN}")


def loadgen(port, seed, rate, requests, deadline):
    rows = harness(["loadgen", "--port", str(port), "--wl", SERVE_WL,
                    "--side", serve_side(), "--rate", str(rate),
                    "--requests", str(requests), "--seed", str(seed)], deadline)
    return rows[-1]


def load_daemon(daemon, seed, k, seconds, deadline, checks):
    """Traffic for the k-th loaded daemon: the base segment (first daemon
    only), then saturation segments, each followed by a drain that applies
    the churn it carried. Checks the daemon's final state."""
    out = {"segments": [], "drains": []}
    if k == 0:
        out["base"] = loadgen(daemon.port, 1000 * seed, SERVE_BASE_RATE,
                              int(SERVE_BASE_RATE * 0.16 * seconds), deadline)
        daemon.call('{"op":"drain"}')
        out["segments"].append(("base", out["base"]))
    for j in range(SERVE_SAT_SEGMENTS):
        seg = loadgen(daemon.port, 1000 * seed + 1 + SERVE_SAT_SEGMENTS * k + j,
                      SERVE_SAT_RATE, int(600 * seconds), deadline)
        t0 = time.perf_counter()
        daemon.call('{"op":"drain"}')
        out["drains"].append(time.perf_counter() - t0)
        out["segments"].append((f"daemon{k}.saturation{j}", seg))
    out["stats"] = stats = json.loads(daemon.call('{"op":"stats"}'))
    out["rss"] = daemon.peak_rss_mib()

    for name, seg in out["segments"]:
        checks.add(f"{name}.all_answered",
                   seg["sent"] == seg["received"] == seg["scheduled"],
                   f"{seg['scheduled']} scheduled, {seg['sent']} sent, "
                   f"{seg['received']} answered")
        checks.add(f"{name}.no_errors",
                   seg["protocol_errors"] == 0 and seg["transport_errors"] == 0,
                   f"{seg['protocol_errors']} protocol, "
                   f"{seg['transport_errors']} transport")
    events = sum(seg["events_sent"] for _, seg in out["segments"])
    checks.add(f"daemon{k}.events_accepted_eq_applied",
               stats["events_accepted"] == stats["events_applied"] == events
               and stats["events_rejected"] == 0,
               f"sent {events}, accepted {stats['events_accepted']}, applied "
               f"{stats['events_applied']}, rejected {stats['events_rejected']}")
    checks.add(f"daemon{k}.final_nodes", stats["nodes"] == SERVE_NODES,
               f"{stats['nodes']} nodes")
    return out


def run_serve(seed, seconds, trace, deadline, checks):
    # Every start measures set-up and start-up convergence; the last
    # SERVE_LOAD_DAEMONS starts then take traffic. Spreading the saturation
    # segments over several processes averages out per-process effects
    # (thread placement, heap layout) that one daemon would carry into
    # every segment.
    setups, converges, loaded = [], [], []
    for i in range(SERVE_STARTS):
        daemon = Daemon(deadline)
        try:
            setups.append(daemon.wait_healthy())
            t0 = time.perf_counter()
            daemon.call('{"op":"drain"}')
            converges.append(time.perf_counter() - t0)
            k = i - (SERVE_STARTS - SERVE_LOAD_DAEMONS)
            if k >= 0:
                loaded.append(load_daemon(daemon, seed, k, seconds, deadline,
                                          checks))
        finally:
            daemon.close()

    sats = [seg for d in loaded for name, seg in d["segments"]
            if name != "base"]
    requests = sum(seg["sent"] for d in loaded for _, seg in d["segments"])
    errors = sum(seg["protocol_errors"] + seg["transport_errors"]
                 for d in loaded for _, seg in d["segments"])
    if not trace:
        return {
            "setup_s": median(setups),
            # Time to answer the saturation segments and apply their churn.
            "solve_s": (sum(seg["wall_s"] for seg in sats)
                        + sum(sum(d["drains"]) for d in loaded)),
            "peak_rss_mib": median([d["rss"] for d in loaded]),
            # Responses completed per second over all saturation segments.
            "rate_per_s": (sum(seg["received"] for seg in sats)
                           / sum(seg["wall_s"] for seg in sats)),
        }, requests, errors

    # Layers below the daemon: a traced replica of the served timeline (the
    # base spec plus one balanced churn pair) and the in-process probes.
    replay = os.path.join(BUILD, "serve_replay.scn")
    with open(SERVE_SCN) as f:
        text = f.read()
    with open(replay, "w") as f:
        f.write(text + "\nevent converged fail_nodes count=2 pick=random\n"
                "event converged add_nodes count=2 deploy=uniform\n")
    rows = harness(["batch", "--scn", replay, "--solve", "scenario",
                    "--seeds", "11", "--threads", "1", "--trace",
                    "--serve-scn", SERVE_SCN, "--serve-wl", SERVE_WL], deadline)
    untraced = [r for r in rows if r["kind"] == "untraced"]
    traced = [r for r in rows if r["kind"] == "traced"]
    layers = trace_checks(untraced, traced, rows[-1], checks)
    # Client and server layers of the real daemon replace the probe's: the
    # base segment and the first loaded daemon's final stats.
    base, stats = loaded[0]["base"], loaded[0]["stats"]
    knn = stats["latency"]["knn"]
    layers.update({
        "serve.converge_ms": 1e3 * median(converges),
        "client.lag_ms": base["lag_p99_ms"],
        "serve.p50_us": base["latency_p50_us"],
        "serve.p99_us": base["latency_p99_us"],
        "serve.event_visible_ms": base["event_visible_p50_ms"],
        "server.queue_us.p50": knn["queue"]["p50_us"],
        "server.queue_us.p99": knn["queue"]["p99_us"],
        "server.query_us.p50": knn["query"]["p50_us"],
        "server.serialize_us.p50": knn["serialize"]["p50_us"],
        "server.publish_us.p50": stats["serve"]["publish"]["p50_us"],
        "server.staleness_rounds": stats["serve"]["snapshot_staleness_rounds"],
    })
    return layers, requests, errors


# ------------------------------------------------------------------- main --

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["converge_global", "churn_localized", "serve_mix"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    build()
    host = describe()
    log("perfbench: host " + json.dumps(host, sort_keys=True))
    if not host["measurable"]:
        log("perfbench: refusing to record results from a "
            f"{host['build_type']} build (sanitize='{host['sanitize']}')")
        return 3

    deadline = Deadline(RUN_BUDGET_S)
    checks = Checks()
    trace = args.trace == 1
    # serve_mix also counts every request sent as an attempted operation,
    # and every protocol or transport error as a failed one.
    requests = errors = 0
    if args.workload == "serve_mix":
        values, requests, errors = run_serve(args.seed, args.seconds, trace,
                                             deadline, checks)
    else:
        values = run_batch(args.workload, args.seed, args.seconds, trace,
                           deadline, checks)

    if trace:
        with open(os.path.join(HERE, "interactions.json")) as f:
            table = set(json.load(f)["layers"])
        names = {m["name"] for m in bench["per_layer"]}
        checks.add("interactions_cover_per_layer", table == names,
                   ",".join(sorted(table ^ names)))
    wanted = bench["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    checks.add("all_metrics_reported", not missing, ",".join(missing))
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}
    attempted = requests + len(checks.items)
    failed = errors + checks.failed
    correct = failed == 0

    os.makedirs(os.path.join(ROOT, ".bench_build", "results"), exist_ok=True)
    record = os.path.join(
        ROOT, ".bench_build", "results",
        f"{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(record, "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace, "host": host,
                   "checks": checks.items, "metrics": metrics}, f, indent=1)
    log(f"perfbench: {len(checks.items)} checks, {checks.failed} failed; "
        f"record {os.path.relpath(record, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.SubprocessError, OSError) as e:
        log(f"perfbench: {e}")
        sys.exit(2)
