#!/usr/bin/env python3
"""The repository benchmark: user commands of the shipped binaries, timed end to end.

Run from the root of a checkout:

    python3 perfbench/run.py --workload analyze-dblp10k --seed 1 --seconds 10 --trace 0

It builds `dbmine`, `dbmined` and `dbgen` (release) plus the in-process
helper in `perfbench/replay`, generates DBLP-style inputs from `--seed`
with `dbgen`, runs the workload, checks every output against a reference
computed in process with `render::run_*`, and prints one JSON result as
the last line of stdout. `--trace 0` reports the end-to-end metrics of
BENCHMARK.json; `--trace 1` runs the command once and replays it in
process through its public layers for the per-layer metrics. See
perfbench/README.md for the workloads and the metric map.
"""

import argparse
import json
import os
import random
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path.cwd()
HELPER_MANIFEST = Path(__file__).resolve().parent / "replay" / "Cargo.toml"

# Per workload: the command, the generated input, the smoke-scale size
# the self-test uses instead, and how often a CLI run times the command
# at least, whatever --seconds says. `fds` at 50k is memory-bound and its
# time varies most from one command to the next, so it is timed twice.
WORKLOADS = {
    "analyze-dblp10k": {"cmd": "analyze", "tuples": 10_000, "smoke": 400, "min_commands": 1},
    "fds-dblp50k-store": {"cmd": "fds", "tuples": 50_000, "smoke": 2_000, "min_commands": 2,
                          "store": True},
    "partition-dblp10k": {"cmd": "partition", "tuples": 10_000, "smoke": 400, "min_commands": 1},
    "daemon-mix": {"cmd": None, "tuples": 1_000, "smoke": 200},
}
# Set-up repetitions per run; the run reports their median.
SETUP_REPS = {"csv": 15, "spill": 7, "daemon": 21}
# daemon-mix: distinct relations, client connections, and the request mix.
DAEMON_RELATIONS = 12
DAEMON_CLIENTS = 2
PROFILE_EVERY = 10
MIX = {
    "analyze": {"cmd": "analyze"},
    "fds": {"cmd": "fds"},
    "approx": {"cmd": "fds", "approx": 0.05, "max_lhs": 3},
    "rfi": {"cmd": "fds", "score": "rfi", "max_lhs": 2},
    "duplicates": {"cmd": "duplicates"},
    "partition": {"cmd": "partition"},
}
# Untraced daemon runs send whole passes over the (relation, kind) deck
# until at least 10 samples lie beyond p95.
MIN_REQUESTS = 3 * DAEMON_RELATIONS * len(MIX)
# A traced replay must spend at least this share of its wall time inside
# timed layer calls.
COVERAGE_FLOOR = 0.95
# A single process that runs longer than this is killed and counted failed.
PROCESS_TIMEOUT_S = 150


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


class Bench:
    def __init__(self, args):
        self.args = args
        self.spec = WORKLOADS[args.workload]
        self.tuples = self.spec["smoke"] if args.scale == "smoke" else self.spec["tuples"]
        self.rng = random.Random(f"{args.workload}:{args.seed}")
        self.work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.problems = []

    # ---- build and helpers -------------------------------------------

    def build(self):
        target = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
        env = dict(os.environ, CARGO_TARGET_DIR=str(target.resolve()))
        for extra in (
            ["--bins", "-p", "dbmine", "-p", "dbmine-datagen"],
            ["--manifest-path", str(HELPER_MANIFEST)],
        ):
            subprocess.run(
                ["cargo", "build", "--release", "--offline", "--quiet", *extra],
                cwd=ROOT, env=env, stdout=sys.stderr, check=True,
            )
        self.bin = target.resolve() / "release"

    def helper(self, *args):
        out = subprocess.run(
            [str(self.bin / "perfbench"), *map(str, args)],
            stdout=subprocess.PIPE, check=True, timeout=PROCESS_TIMEOUT_S,
        ).stdout
        return json.loads(out.decode().strip().splitlines()[-1])

    def gen(self, name, tuples):
        path = self.work / f"{name}.csv"
        seed = self.rng.randrange(2**32)
        subprocess.run(
            [str(self.bin / "dbgen"), "--tuples", str(tuples), "--seed", str(seed), "--out", str(path)],
            check=True, stderr=subprocess.DEVNULL,
        )
        return path

    def fail(self, what):
        self.failed += 1
        self.problems.append(what)
        log(f"FAILED: {what}")

    def spawn_timed(self, argv, stdout):
        """Runs argv to exit; returns (wall_s, exit status, peak RSS in MB)."""
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=stdout, stderr=subprocess.DEVNULL)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, p.kill)
        watchdog.start()
        _, status, usage = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
        watchdog.cancel()
        p.returncode = os.waitstatus_to_exitcode(status)
        return wall, p.returncode, usage.ru_maxrss / 1024.0

    # ---- CLI workloads -------------------------------------------------

    def cli_input(self):
        """Generates the input and times the set-up; returns (input, setup times)."""
        csv = self.gen("relation", self.tuples)
        if self.spec.get("store"):
            store = self.work / "relation.dbss"
            times = self.helper("setup-spill", csv, store, SETUP_REPS["spill"])["times_s"]
            return store, times
        return csv, self.helper("setup-csv", csv, SETUP_REPS["csv"])["times_s"]

    def run_command(self, inp, out_path):
        argv = [str(self.bin / "dbmine"), self.spec["cmd"], str(inp)]
        with open(out_path, "wb") as out:
            wall, code, rss = self.spawn_timed(argv, out)
        self.attempted += 1
        if code != 0:
            self.fail(f"`dbmine {self.spec['cmd']}` exited with {code}")
        return wall, rss, out_path.read_bytes()

    def cli_untraced(self):
        inp, setup = self.cli_input()
        ref_path = self.work / "reference.txt"
        self.helper("reference", self.spec["cmd"], inp, ref_path)
        reference = self.corrupt(ref_path.read_bytes())
        walls, rss = [], []
        t0 = time.perf_counter()
        while len(walls) < self.spec["min_commands"] or time.perf_counter() - t0 < self.args.seconds:
            wall, peak, out = self.run_command(inp, self.work / "stdout.txt")
            walls.append(wall)
            rss.append(peak)
            if out != reference:
                self.fail(f"stdout of run {len(walls)} differs from the reference")
        log(f"{len(walls)} commands, wall {[round(w, 3) for w in walls]}")
        return {
            "wall_s": statistics.median(walls),
            "peak_rss_mb": statistics.median(rss),
            "setup_s": statistics.median(setup),
            **latency_metrics(walls, sum(walls)),
        }

    def cli_traced(self):
        inp, setup = self.cli_input()
        wall, _, out = self.run_command(inp, self.work / "stdout.txt")
        replay_path = self.work / "replay.txt"
        m = self.helper("replay", self.spec["cmd"], inp, replay_path)
        self.attempted += 1
        if replay_path.read_bytes() != out:
            self.fail("the traced replay's output differs from the command's stdout")
        m["trace.overhead_frac"] = m.pop("trace.wall_ms") / 1000.0 / wall - 1.0
        m["relation.spill_ms"] = 1000.0 * statistics.median(setup) if self.spec.get("store") else 0.0
        m["context.lru_hit_frac"] = 0.0
        m["context.lru_evictions"] = 0.0
        for kind in list(MIX) + ["profiled"]:
            m[f"server.handle_ms.{kind}"] = 0.0
        return m

    # ---- daemon-mix ------------------------------------------------------

    def start_daemon(self):
        """Spawns dbmined on an ephemeral port; returns (process, socket, setup_s)."""
        t0 = time.perf_counter()
        p = subprocess.Popen(
            [str(self.bin / "dbmined"), "--listen", "127.0.0.1:0"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        line = p.stderr.readline().decode()
        if "listening on" not in line:
            p.kill()
            p.wait()
            raise RuntimeError(f"dbmined did not start: {line!r}")
        threading.Thread(target=p.stderr.read, daemon=True).start()
        host, port = line.rsplit(" ", 1)[1].strip().rsplit(":", 1)
        conn = Conn(host, int(port))
        reply = conn.request('{"id":0,"cmd":"ping"}')
        if not reply.get("ok"):
            raise RuntimeError(f"ping failed: {reply}")
        return p, conn, time.perf_counter() - t0

    def stop_daemon(self, p, conn):
        conn.request('{"cmd":"shutdown"}')
        conn.close()
        _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
        if p.returncode != 0:
            self.fail(f"dbmined exited with {p.returncode}")
        return usage.ru_maxrss / 1024.0

    def daemon_run(self, min_requests):
        """Drives the closed loop; returns (measurements, request log, replies)."""
        rels = [self.gen(f"rel{i:02d}", self.tuples) for i in range(DAEMON_RELATIONS)]
        triples = []
        for i, rel in enumerate(rels):
            for kind in MIX:
                triples += [kind, rel, self.work / f"ref{i:02d}_{kind}.txt"]
        # Untimed, so both cores share it.
        cut = 3 * (len(triples) // 6)
        halves = [triples[:cut], triples[cut:]]
        procs = [subprocess.Popen([str(self.bin / "perfbench"), "reference", *map(str, h)],
                                  stdout=subprocess.DEVNULL) for h in halves]
        if any(p.wait(timeout=PROCESS_TIMEOUT_S) for p in procs):
            raise RuntimeError("computing the daemon references failed")
        refs = {(i, kind): self.corrupt(self.work.joinpath(f"ref{i:02d}_{kind}.txt").read_bytes()).decode(errors="replace")
                for i in range(DAEMON_RELATIONS) for kind in MIX}

        setup = []
        for _ in range(SETUP_REPS["daemon"] - 1):
            p, conn, s = self.start_daemon()
            setup.append(s)
            self.stop_daemon(p, conn)
        t_spawn = time.perf_counter()
        p, control, s = self.start_daemon()
        setup.append(s)
        try:
            lock = threading.Lock()
            sent, latencies, replies = [], [], {}
            deck = self.deck()
            t0 = time.perf_counter()

            def client():
                conn = Conn(control.host, control.port)
                while True:
                    with lock:
                        if time.perf_counter() - t0 >= self.args.seconds and len(sent) >= min_requests:
                            break
                        rid = len(sent)
                        rel, kind = next(deck)
                        req = dict(id=rid, path=str(rels[rel]), **MIX[kind])
                        if rid % PROFILE_EVERY == PROFILE_EVERY - 1:
                            req["profile"] = True
                        line = json.dumps(req)
                        sent.append(line)
                    t = time.perf_counter()
                    raw = conn.request_raw(line)
                    lat = time.perf_counter() - t
                    with lock:
                        latencies.append(lat)
                        replies[rid] = (rel, kind, raw)
                conn.close()

            threads = [threading.Thread(target=client) for _ in range(DAEMON_CLIENTS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            loop_s = time.perf_counter() - t0
            stats = control.request('{"cmd":"stats"}').get("ctx_cache", {})
            rss = self.stop_daemon(p, control)
        finally:
            if p.poll() is None:
                p.kill()
                p.wait()
        session_s = time.perf_counter() - t_spawn

        outputs = {}
        for rid in range(len(sent)):
            self.attempted += 1
            if rid not in replies:
                self.fail(f"request {rid} got no reply")
                continue
            rel, kind, raw = replies[rid]
            reply = json.loads(raw)
            outputs[rid] = reply.get("output")
            if not reply.get("ok"):
                self.fail(f"request {rid} ({kind}) failed: {reply.get('error')}")
            elif reply.get("output") != refs[(rel, kind)]:
                self.fail(f"request {rid} ({kind} on rel{rel:02d}) output differs from the reference")
        log(f"{len(latencies)} requests in {loop_s:.2f} s, cache {stats}")
        measured = dict(latencies=latencies, loop_s=loop_s, setup=setup, rss=rss, session_s=session_s, stats=stats)
        return measured, sent, outputs

    def deck(self):
        """Endless request order: each pass holds every (relation, kind) once, shuffled."""
        combos = [(rel, kind) for rel in range(DAEMON_RELATIONS) for kind in MIX]
        while True:
            self.rng.shuffle(combos)
            yield from combos

    def daemon_untraced(self):
        d, _, _ = self.daemon_run(MIN_REQUESTS)
        return {
            "wall_s": d["session_s"],
            "peak_rss_mb": d["rss"],
            "setup_s": statistics.median(d["setup"]),
            **latency_metrics(d["latencies"], d["loop_s"]),
        }

    def daemon_traced(self):
        d, sent, outputs = self.daemon_run(0)
        log_path, pairs_path = self.work / "requests.jsonl", self.work / "replay.jsonl"
        log_path.write_text("".join(line + "\n" for line in sent))
        m = self.helper("replay-daemon", log_path, pairs_path)
        pairs = [json.loads(line) for line in pairs_path.read_text().splitlines()]
        for rid, (handled, replayed) in enumerate(pairs):
            self.attempted += 1
            if not handled == replayed == outputs.get(rid):
                self.fail(f"request {rid}: in-process outputs differ from the daemon's reply")
        m.pop("trace.wall_ms", None)
        stats = d["stats"]
        lookups = stats.get("hits", 0) + stats.get("misses", 0)
        m["context.lru_hit_frac"] = stats.get("hits", 0) / lookups if lookups else 0.0
        m["context.lru_evictions"] = float(stats.get("evictions", 0))
        m["relation.spill_ms"] = 0.0
        return m

    # ---- result ------------------------------------------------------------

    def corrupt(self, reference):
        """The self-test's deliberately wrong reference: one byte changed."""
        if self.args.wrong_reference and reference:
            return bytes([reference[0] ^ 1]) + reference[1:]
        return reference

    def run(self):
        self.build()
        self.work.mkdir(parents=True, exist_ok=True)
        try:
            daemon = self.spec["cmd"] is None
            if self.args.trace:
                metrics = self.daemon_traced() if daemon else self.cli_traced()
                metrics["ops_failed_frac"] = self.failed / max(self.attempted, 1)
                if metrics["trace.coverage_frac"] < COVERAGE_FLOOR:
                    self.problems.append(
                        f"trace coverage {metrics['trace.coverage_frac']:.3f} < {COVERAGE_FLOOR}")
                wanted = "per_layer"
            else:
                metrics = self.daemon_untraced() if daemon else self.cli_untraced()
                wanted = "end_to_end"
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())[wanted]
        missing = [m["name"] for m in spec if m["name"] not in metrics]
        if missing:
            raise RuntimeError(f"metrics not measured: {missing}")
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec},
        }


def latency_metrics(samples_s, busy_s):
    """p50/p95 latency in ms and completions per second over busy_s."""
    ms = sorted(1000.0 * s for s in samples_s)
    p95 = statistics.quantiles(ms, n=20, method="inclusive")[18] if len(ms) > 1 else ms[0]
    return {
        "req_p50_ms": statistics.median(ms),
        "req_p95_ms": p95,
        "req_per_s": len(ms) / busy_s,
    }


class Conn:
    """One line-delimited JSON connection to dbmined."""

    def __init__(self, host, port):
        self.host, self.port = host, port
        self.sock = socket.create_connection((host, port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def request_raw(self, line):
        self.sock.sendall(line.encode() + b"\n")
        reply = self.reader.readline()
        if not reply:
            raise RuntimeError("dbmined closed the connection")
        return reply

    def request(self, line):
        return json.loads(self.request_raw(line))

    def close(self):
        self.reader.close()
        self.sock.close()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test knobs (perfbench/selftest.py); the defaults are the benchmark.
    ap.add_argument("--scale", choices=("full", "smoke"), default="full", help=argparse.SUPPRESS)
    ap.add_argument("--wrong-reference", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    for needed in ("Cargo.toml", "crates/core/Cargo.toml", "BENCHMARK.json"):
        if not (ROOT / needed).is_file():
            log(f"{needed} not found: run from the root of a dbmine checkout")
            sys.exit(2)
    result = Bench(args).run()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
