#!/usr/bin/env python3
"""perfbench: end-to-end and per-layer benchmark of hpcpredict.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cold-unique --seed 1 --seconds 20 --trace 0

It builds the hpcpredict libraries, the shipped `hpcpredict_cli` daemon and
the `perfbench` harness from source (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR (default .bench_build), generates the workload's inputs
from --seed, measures for about --seconds seconds, checks every ok predict
response byte for byte against an in-process reference, and prints one JSON
object as the last line of stdout:

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (see perfbench/README.md). `--smoke` runs every workload
briefly and checks the printed metric names against BENCHMARK.json.
"""

import argparse
import ctypes
import json
import os
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")

# Per workload: the daemon's fixed --threads, the low and high fixed rates
# (requests/s) and the goodput ladder (first rate, step ratio, steps).
WORKLOADS = {
    "cold-unique": {"threads": 2, "lo": 1000, "hi": 4500, "ladder": (5500, 1.03, 32)},
    "hot-zipf": {"threads": 2, "lo": 4000, "hi": 20000, "ladder": (40000, 1.03, 32)},
    "train-fit": {"threads": 2, "lo": 400, "hi": 1200, "ladder": (1800, 1.03, 32)},
}
DAEMONS = 5             # daemons per run; each serving metric is their median
INGEST_PHASE_RATE = 1500  # ingest-only phase closing every load
MAX_LATE_US = 5000      # generator lateness (windowed p99) that voids a phase
MAX_LATE_LOADS = 5      # loads set aside for a late generator before a run fails


class BenchError(Exception):
    """The benchmark could not produce a valid result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def spec_file():
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        return json.load(f)


def latency_limit_us(spec, workload):
    """The goodput latency limit, fixed in the workload's `why` line."""
    for w in spec["workloads"]:
        if w["name"] == workload:
            m = re.search(r"p99 <= (\d+(?:\.\d+)?) ms", w["why"])
            if m:
                return float(m.group(1)) * 1000.0
    raise BenchError(f"no 'p99 <= N ms' limit for {workload} in BENCHMARK.json")


def build():
    src = os.path.join(HERE, "..", "src", "CMakeLists.txt")
    if not os.path.exists(src):
        raise BenchError("hpcpredict sources (src/) not found next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    jobs = str(os.cpu_count() or 4)
    with open(build_log, "w") as out:
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            rc = subprocess.call(
                ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                stdout=out, stderr=subprocess.STDOUT)
            if rc != 0:
                raise BenchError(f"cmake configure failed (see {build_log})")
        rc = subprocess.call(
            ["cmake", "--build", BUILD, "-j", jobs,
             "--target", "perfbench", "hpcpredict_cli"],
            stdout=out, stderr=subprocess.STDOUT)
        if rc != 0:
            raise BenchError(f"build failed (see {build_log})")
    return os.path.join(BUILD, "perfbench"), os.path.join(BUILD, "hpcpredict_cli")


def cpu_split():
    """(generator CPUs, daemon CPUs): the generator busy-polls, so it gets a
    core of its own; otherwise socket wake-ups pull daemon threads onto
    the spinning core and a whole run slows several-fold."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return set(cpus), set(cpus)
    return {cpus[-1]}, set(cpus[:-1])


GEN_CPUS, DAEMON_CPUS = cpu_split()


def child_setup(cpus, nice=0):
    """preexec_fn for children: die with this process, so an interrupted
    run leaves no daemon behind; pin to `cpus`; set the nice value."""
    def setup():
        ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
        os.sched_setaffinity(0, cpus)
        if nice:
            try:
                os.setpriority(os.PRIO_PROCESS, 0, nice)
            except OSError:
                pass  # not permitted: run at the default priority
    return setup


def harness(exe, *args, cpus=DAEMON_CPUS, nice=0):
    """Runs one perfbench subcommand and returns its JSON output."""
    t0 = time.perf_counter()
    proc = subprocess.run([exe, *map(str, args)], capture_output=True, text=True,
                          preexec_fn=child_setup(cpus, nice))
    log(f"perfbench: {args[0]} took {time.perf_counter() - t0:.2f} s")
    if proc.returncode != 0:
        raise BenchError(f"perfbench {args[0]} failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Daemon:
    """`hpcpredict_cli serve --registry DIR --port 0` as a child process."""

    def __init__(self, cli, registry, threads, admin=False):
        args = [cli, "serve", "--registry", registry, "--port", "0",
                "--threads", str(threads)]
        if admin:
            args += ["--admin-port", "0"]
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(args, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL,
                                     stderr=subprocess.PIPE, text=True,
                                     preexec_fn=child_setup(DAEMON_CPUS))
        self.stderr = []
        self.port = None
        self.admin_port = None
        self._ready = threading.Event()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self):
        for line in self.proc.stderr:
            self.stderr.append(line.rstrip("\n"))
            m = re.search(r"admin listening on 127\.0\.0\.1:(\d+)", line)
            if m:
                self.admin_port = int(m.group(1))
                continue
            m = re.search(r"listening on 127\.0\.0\.1:(\d+)", line)
            if m:
                self.port = int(m.group(1))
                self._ready.set()
        self._ready.set()

    def request(self, line, timeout=30.0):
        with socket.create_connection(("127.0.0.1", self.port), timeout) as s:
            s.sendall((line + "\n").encode())
            buf = b""
            while not buf.endswith(b"\n"):
                chunk = s.recv(65536)
                if not chunk:
                    break
                buf += chunk
        return buf.decode().strip()

    def start(self, setup_lines, admin=False):
        """Waits for the listener, the first ping and one predict per
        tenant (models load lazily); returns the seconds since launch and
        the CPU seconds the daemon spent until then."""
        if not self._ready.wait(60) or self.port is None:
            raise BenchError("daemon did not start: " + " | ".join(self.stderr[-5:]))
        if admin:
            deadline = time.perf_counter() + 10
            while self.admin_port is None and time.perf_counter() < deadline:
                time.sleep(0.001)
        for line in ['{"cmd":"ping"}', *setup_lines]:
            reply = self.request(line)
            if '"ok":true' not in reply:
                raise BenchError(f"set-up request failed: {line} -> {reply}")
        return time.perf_counter() - self.t0, self.cpu_s()

    def cpu_s(self):
        """CPU time of the daemon's threads from schedstat, which leaves
        out the time the hypervisor took from a virtual CPU."""
        total = 0
        task_dir = f"/proc/{self.proc.pid}/task"
        for tid in os.listdir(task_dir):
            try:
                with open(f"{task_dir}/{tid}/schedstat") as f:
                    total += int(f.read().split()[0])
            except OSError:
                pass  # the thread has exited
        return total * 1e-9

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def shutdown(self):
        """Sends {"cmd":"shutdown"}; returns the daemon's exit status."""
        try:
            reply = self.request('{"cmd":"shutdown"}')
        except OSError as e:
            reply = str(e)
        try:
            rc = self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            rc = -9
        self._reader.join(timeout=5)
        if '"ok":true' not in reply:
            log(f"perfbench: shutdown not acknowledged: {reply}")
            return rc if rc != 0 else 1
        return rc

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def ingest_phase_s(seconds):
    return max(0.2, 0.1 * seconds / DAEMONS)


def phase_plan(cfg, seconds, trace):
    """The plan for one daemon's `perfbench load`, and the number of stream
    lines it may consume. The untraced run splits `seconds` over DAEMONS
    daemons, each with its own lo, hi, goodput search and ingest phases;
    the traced run loads one daemon for the whole time."""
    t = seconds if trace else seconds / DAEMONS
    t_prime = max(0.2, 0.05 * t)
    t_fixed = max(0.4, (0.25 if trace else 0.2) * t)
    plan = [f"prime:{cfg['hi']}:{t_prime}", f"lo:{cfg['lo']}:{t_fixed}",
            f"hi:{cfg['hi']}:{t_fixed}"]
    lines = cfg["hi"] * t_prime + cfg["lo"] * t_fixed + cfg["hi"] * t_fixed
    if trace:
        # The low rate again from a client with delayed ACKs (see
        # PhaseStats::lockstep in harness/load.cpp).
        plan.append(f"delack:{cfg['lo']}:{t_fixed}")
        lines += cfg["lo"] * t_fixed
    else:
        r0, ratio, steps = cfg["ladder"]
        probes = (steps - 1).bit_length()
        t_probe = max(0.2, 0.45 * t / probes)
        plan.append(f"ladder:{r0}:{ratio}:{steps}:{t_probe}")
        lines += probes * r0 * ratio ** (steps - 2) * t_probe  # worst case
        plan.append(f"ingest:{INGEST_PHASE_RATE}:{ingest_phase_s(seconds)}")
    # Room for two voided phases measured again on fresh lines.
    return ",".join(plan), int(lines * 1.5) + 2000


def serve_one(k, workload, seed, cfg, cli, exe, run_dir, setup_lines, plan,
              limit_us, trace):
    """Daemon k on its own copy of the store: set-up (launch -> first
    ping and one predict per tenant answered), then one load."""
    registry = os.path.join(run_dir, f"registry-{k}")
    pairs = os.path.join(run_dir, f"pairs-{k}.txt")
    shutil.copytree(os.path.join(run_dir, "registry"), registry)
    daemon = Daemon(cli, registry, cfg["threads"], admin=trace)
    try:
        setup_wall_s, setup_s = daemon.start(setup_lines, admin=trace)
        load_args = ["load", "--port", daemon.port, "--daemon-pid", daemon.proc.pid,
                     "--seed", seed * 16 + k,
                     "--stream", os.path.join(run_dir, "stream.txt"),
                     "--ingest", os.path.join(run_dir, "ingest.txt"),
                     "--pairs", pairs, "--limit-us", limit_us,
                     "--max-late-us", MAX_LATE_US, "--plan", plan]
        if workload == "hot-zipf":
            load_args += ["--warm", os.path.join(run_dir, "warm.txt")]
        if trace:
            load_args += ["--admin-port", daemon.admin_port]
        # Above default priority, so the kernel's own work on the
        # generator's CPU (writeback after the daemon's fsyncs) takes a
        # small share of it instead of half.
        load = harness(exe, *load_args, cpus=GEN_CPUS, nice=-10)
        peak_rss = daemon.peak_rss_mb()
        exit_code = daemon.shutdown()
    finally:
        daemon.kill()
    return {"setup_s": setup_s, "setup_wall_s": setup_wall_s,
            "load": load, "peak_rss_mb": peak_rss,
            "exit_code": exit_code, "pairs": pairs}


def serve_workload(workload, seed, seconds, trace, exe, cli, run_dir, spec):
    cfg = WORKLOADS[workload]
    limit_us = latency_limit_us(spec, workload)
    plan, lines = phase_plan(cfg, seconds, trace)
    if workload == "hot-zipf":
        plan = "warm:5000," + plan
    ingest_lines = int(INGEST_PHASE_RATE * ingest_phase_s(seconds) * 3.5) + 500
    prep = harness(exe, "prepare", "--workload", workload, "--seed", seed,
                   "--dir", run_dir, "--lines", lines,
                   "--ingest-lines", ingest_lines)
    # Nothing else runs during the fit, so it may use every CPU.
    fit = harness(exe, "fit", "--workload", workload, "--dir", run_dir,
                  cpus=GEN_CPUS | DAEMON_CPUS)
    with open(os.path.join(run_dir, "setup.txt")) as f:
        setup_lines = f.read().splitlines()

    # A load whose generator fell behind (a phase late three times) is not
    # measured as a slow daemon: it is set aside and a fresh daemon loaded,
    # at most MAX_LATE_LOADS times; past that the run is invalid.
    daemons, late = [], []
    while len(daemons) < (1 if trace else DAEMONS):
        d = serve_one(len(daemons) + len(late), workload, seed, cfg, cli, exe,
                      run_dir, setup_lines, plan, limit_us, trace)
        (daemons if d["load"]["valid"] else late).append(d)
        if len(late) > MAX_LATE_LOADS:
            raise BenchError(f"run invalid: the generator fell behind its schedule "
                             f"(windowed lateness p99 > {MAX_LATE_US} us) in "
                             f"{len(late)} loads")
    # Every load ends with its ingest phase, so each predict was answered
    # by the archive version the store started with; late loads' responses
    # are checked too.
    every = daemons + late
    verify = harness(exe, "verify", "--pairs", ",".join(d["pairs"] for d in every),
                     "--registry", os.path.join(run_dir, "registry"),
                     "--ref-dir", os.path.join(run_dir, "ref"))
    exit_codes = [d["exit_code"] for d in every]
    result = {
        "prepare": prep, "fit": fit, "verify": verify,
        "daemons": [{k: v for k, v in d.items() if k != "pairs"} for d in daemons],
        "late_loads": [d["load"]["phases"] for d in late],
        "daemon_threads": cfg["threads"], "latency_limit_us": limit_us,
        "plan": plan,
    }
    correct = verify["mismatches"] == 0 and all(rc == 0 for rc in exit_codes)
    attempted = sum(d["load"]["sent"] for d in every)
    failed = (sum(d["load"]["failed"] for d in every)
              + sum(1 for rc in exit_codes if rc != 0))

    def across(get):
        return statistics.median(get(d) for d in daemons)

    def phase(d, name):
        return next(p for p in d["load"]["phases"] if p["name"] == name)

    if trace:
        load = daemons[0]["load"]
        stats = load.get("statsz", {})
        lo = phase(daemons[0], "lo")
        layers = harness(exe, "layers", "--dir", run_dir, "--seed", seed,
                         "--threads", cfg["threads"],
                         "--window", max(1, int(stats.get("batch_lines", 1))),
                         "--lo-from", lo["first_line"], "--lo-lines", lo["sent"])
        result["layers"] = layers
        attempted += layers["replayed"]
        metrics = per_layer_metrics(fit, stats, layers, daemons[0])
    else:
        metrics = {
            "setup_s": (across(lambda d: d["setup_s"]), "s"),
            "hi_cpu_us": (across(lambda d: phase(d, "hi")["cpu_us_per_ok"]), "us"),
            "fit_cpu_s": (fit["fit_cpu_s"], "s"),
            "mape_pct": (fit["mape_pct"], "%"),
            "peak_rss_mb": (across(lambda d: d["peak_rss_mb"]), "MiB"),
        }
        # Open-loop latencies and goodput: printed and kept in the run
        # record, not bounded (README, "Noise").
        result["unbounded"] = {
            f"{name}_{q}_us": across(lambda d: phase(d, name)[f"{q}_us"])
            for name in ("lo", "hi") for q in ("p50", "p90", "p99")}
        result["unbounded"]["setup_wall_s"] = across(lambda d: d["setup_wall_s"])
        result["unbounded"]["fit_s"] = fit["fit_s"]
        result["unbounded"]["lo_cpu_us"] = across(
            lambda d: phase(d, "lo")["cpu_us_per_ok"])
        result["unbounded"]["goodput_rps"] = across(lambda d: d["load"]["goodput_rps"])
        result["unbounded"]["ingest_ack_p50_us"] = across(
            lambda d: d["load"]["ingest_ack_p50_us"])
        result["unbounded"]["ingest_ack_p99_us"] = across(
            lambda d: d["load"]["ingest_ack_p99_us"])
        if workload == "train-fit":
            metrics["peak_rss_mb"] = (fit["fit_rss_mb"], "MiB")
    return correct, attempted, failed, metrics, result


def per_layer_metrics(fit, stats, layers, daemon):
    phases = {p["name"]: p for p in daemon["load"]["phases"]}
    return {
        "serve.parse_us": (layers["serve.parse_us"], "us"),
        "serve.render_us": (layers["serve.render_us"], "us"),
        "serve.cache_probe_us": (layers["serve.cache_probe_us"], "us"),
        "serve.cache_hit_ratio": (layers["serve.cache_hit_ratio"], "ratio"),
        "serve.handle_line_us": (layers["serve.handle_line_us"], "us"),
        "serve.transport_us": (phases["lo"]["p50_us"] - layers["serve.handle_line_us"], "us"),
        "serve.delack_lo_p99_us": (phases["delack"]["p99_us"], "us"),
        "serve.lockstep_share": (phases["delack"]["lockstep"] / max(1, phases["delack"]["sent"]), "ratio"),
        "serve.window_us": (layers["serve.window_us"], "us"),
        "serve.window_rows": (stats.get("batch_lines", 0), "count"),
        "serve.queue_depth": (stats.get("queue_depth", 0), "count"),
        "interp.curve_us": (layers["interp.curve_us"], "us"),
        "interp.curves_us_per_row": (layers["interp.curves_us_per_row"], "us"),
        "cluster.assign_us": (layers["cluster.assign_us"], "us"),
        "extrap.scales1_us": (layers["extrap.scales1_us"], "us"),
        "extrap.scales4_us": (layers["extrap.scales4_us"], "us"),
        "registry.acquire_hit_us": (layers["registry.acquire_hit_us"], "us"),
        "registry.acquire_load_ms": (layers["registry.acquire_load_ms"], "ms"),
        "registry.resident_hit_ratio": (layers["registry.resident_hit_ratio"], "ratio"),
        "registry.evictions": (layers["registry.evictions"], "count"),
        "registry.archive_open_us": (layers["registry.archive_open_us"], "us"),
        "registry.load_model_ms": (layers["registry.load_model_ms"], "ms"),
        "ingest.append_us": (layers["ingest.append_us"], "us"),
        "ingest.fit_candidate_cold_s": (layers["ingest.fit_candidate_cold_s"], "s"),
        "ingest.fit_candidate_warm_s": (layers["ingest.fit_candidate_warm_s"], "s"),
        "ingest.holdout_mape_ms": (layers["ingest.holdout_mape_ms"], "ms"),
        "data.history_load_ms": (fit["data.history_load_ms"], "ms"),
        "data.validate_ms": (fit["data.validate_ms"], "ms"),
        "train.interpolation_fit_s": (fit["train.interpolation_fit_s"], "s"),
        "train.extrapolation_cluster_s": (fit["train.extrapolation_cluster_s"], "s"),
        "train.extrapolation_support_s": (fit["train.extrapolation_support_s"], "s"),
        "train.archive_write_ms": (fit["train.archive_write_ms"], "ms"),
        "train.archive_bytes": (fit["train.archive_bytes"], "bytes"),
        "obs.trace_overhead_pct": (layers["obs.trace_overhead_pct"], "%"),
    }


def git_commit():
    """HEAD of the checkout, when it is a git repository (never a parent's)."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_once(workload, seed, seconds, trace, keep=False):
    spec = spec_file()
    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload {workload}")
    exe, cli = build()
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    run_dir = os.path.join(BUILD, "runs", f"{workload}-s{seed}-t{trace}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        correct, attempted, failed, metrics, result = serve_workload(
            workload, seed, seconds, trace, exe, cli, run_dir, spec)
        if trace:
            for name in ("self_times.json", "spans.jsonl"):
                shutil.copy(os.path.join(run_dir, name),
                            os.path.join(results, f"{workload}-s{seed}-{name}"))
    finally:
        if not keep:
            shutil.rmtree(run_dir, ignore_errors=True)

    host = dict(result["prepare"]["host"])
    host.update({"git_commit": git_commit(), "seed": seed,
                 "daemon_threads": result["daemon_threads"]})
    result["host"] = host
    with open(os.path.join(results, f"{workload}-s{seed}-t{trace}.json"), "w") as f:
        json.dump(result, f, indent=1)

    # Human-readable account before the result line.
    print(f"host {json.dumps(host, sort_keys=True)}")
    for k, d in enumerate(result["daemons"]):
        print(f"daemon {k}: setup {d['setup_wall_s']:.4f} s ({d['setup_s']:.4f} s CPU), "
              f"exit status {d['exit_code']}, "
              f"goodput {d['load']['goodput_rps']:.0f}/s")
        for p in d["load"]["phases"]:
            print(f"  phase {p['name']:>6} rate {p['rate']:9.1f}/s sent {p['sent']:6d} "
                  f"ok {p['ok']:6d} failed {p['failed']:3d} p50 {p['p50_us']:9.1f}us "
                  f"p99 {p['p99_us']:9.1f}us late_p99 {p['late_p99_us']:7.1f}us")
    print(f"verify {json.dumps(result['verify'])}")
    if "unbounded" in result:
        print("unbounded (median over daemons): " + ", ".join(
            f"{k} {v:.1f}" for k, v in result["unbounded"].items()))

    expected = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if sorted(expected) != sorted(metrics):
        raise BenchError(f"metric names differ from BENCHMARK.json: {sorted(metrics)}")
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }


def smoke():
    """Every workload, briefly, both trace modes; names checked."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            out = run_once(workload, 1, 1, trace)
            print(json.dumps(out))
            ok = ok and out["correct"]
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--keep", action="store_true", help="keep the run directory")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    try:
        if args.smoke:
            return smoke()
        if not args.workload:
            ap.error("--workload is required")
        out = run_once(args.workload, args.seed, args.seconds, args.trace, args.keep)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        return 1
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
