#!/usr/bin/env python3
"""perfbench: end-to-end benchmark of the simbridge CLI and daemon.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a simbridge checkout.  It builds the CLI and the
layer harness (perfbench/harness) in the release profile under
.bench_build/, runs whole rounds of the workload for --seconds, checks
every output, and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Workloads (every simbridge process runs with --jobs 1, one at a time):

    serve_figs  one `simbridge serve` daemon per round, one client connection:
                fig1, fig2, fig5, fig7 cold, then HOT_PER_PANEL repeats each
    memo_figs   `simbridge csv fig1 --memoize`, `simbridge csv fig2 --memoize`
    mpi_figs    `simbridge csv fig3b`, `simbridge csv fig6`

--trace 0 reports the end-to-end metrics; --trace 1 runs the layer
harness instead and reports the per-layer metrics (see README.md).
--seed orders the commands of a round and the hot queries; the program
itself always runs at its own seed 0, the seed the golden CSVs and the
paper bands describe.
"""

import argparse
import hashlib
import json
import os
import random
import re
import signal
import socket
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import checks  # noqa: E402

BUILD = ".bench_build"
CLI = os.path.join(BUILD, "default", "bin", "simbridge_cli.exe")
LAYERS = os.path.join(BUILD, "default", "perfbench", "harness", "layers.exe")
WORK = os.path.join(BUILD, "work")
SOCK = "serve.sock"  # relative to WORK, the daemon's working directory

SERVE_PANELS = ["fig1", "fig2", "fig5", "fig7"]
HOT_PER_PANEL = 25
HOT_PER_PANEL_TRACED = 250  # 1000 hot samples: ten beyond the p99
SETUP_SAMPLES = 31
DEADLINE_S = 170.0  # every run must end within 180 s

COMMANDS = {
    "memo_figs": [["csv", "fig1", "--memoize", "--jobs", "1"], ["csv", "fig2", "--memoize", "--jobs", "1"]],
    "mpi_figs": [["csv", "fig3b", "--jobs", "1"], ["csv", "fig6", "--jobs", "1"]],
}

# Memoized (platform, kernel) runs whose declared bound is narrower than
# their true error: a fault in Uarch.Memo, counted as failed until it is
# mended.  Any other failure makes the run incorrect.
KNOWN_MEMO_FAULTS = {
    (p, k)
    for p in ("banana-pi-hw", "banana-pi-sim", "fast-banana-pi-sim",
              "milkv-hw", "boom-small", "boom-medium", "boom-large", "milkv-sim")
    for k in ("STL2", "STL2b", "ML2_BW_st")
} | {
    ("boom-small", "MD"), ("boom-medium", "MD"),
    ("boom-large", "CRf"), ("milkv-sim", "CRf"),
    ("banana-pi-hw", "CF1"),
}

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"), ("alloc_gib", "GiB")]

PER_LAYER = [
    ("workloads.gen_s", "s"), ("workloads.alloc_words_per_insn", "words/insn"),
    ("trace.compile_s", "s"), ("trace.words_per_insn", "words/insn"), ("trace.cache_hit_rate", "ratio"),
    ("trace.blocks_s", "s"), ("trace.repeat_fraction", "ratio"),
    ("memo.run_s", "s"), ("memo.hit_rate", "ratio"), ("memo.ff_share", "ratio"),
    ("memo.max_rel_error", "ratio"), ("memo.bound_to_error_p50", "ratio"),
    ("replay.inorder_mips", "MIPS"), ("replay.ooo_mips", "MIPS"), ("replay.alloc_words_per_insn", "words/insn"),
    ("smpi.run_ranks_s", "s"), ("smpi.mips", "MIPS"), ("smpi.alloc_words_per_insn", "words/insn"),
    ("smpi.messages", "count"),
] + [("experiments.figure_s." + f, "s") for f in ("fig1", "fig2", "fig3b", "fig5", "fig6", "fig7")] + [
    ("runner.sim_mips", "MIPS"), ("report.csv_s", "s"), ("ledger.report_write_s", "s"),
    ("serve.cold_query_s", "s"), ("serve.hot_p50_us", "us"), ("serve.hot_p99_us", "us"),
    ("serve.queue_wait_p50_us", "us"), ("serve.codec_us", "us"),
] + [("self.%s_s" % l, "s") for l in ("core", "platform", "workloads", "trace", "replay", "memo", "smpi")] + [
    ("traced_s", "s"), ("untraced_s", "s"), ("unattributed_s", "s"), ("trace_overhead_s", "s"),
]


class BenchError(Exception):
    pass


T0 = time.perf_counter()


def left_s():
    return DEADLINE_S - (time.perf_counter() - T0)


def overrun(*_):
    raise BenchError("a simbridge process overran the run's deadline")


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


# ------------------------------------------------------------- build


def build():
    if not (os.path.isfile("dune-project") and os.path.isfile(os.path.join("bin", "simbridge_cli.ml"))):
        raise BenchError("run from the root of a simbridge checkout (no dune-project / bin/simbridge_cli.ml here)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release", "--build-dir", BUILD,
         "bin/simbridge_cli.exe", "perfbench/harness/layers.exe"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=600,
    )
    if r.returncode != 0:
        raise BenchError("build failed:\n" + r.stdout.decode(errors="replace")[-4000:])
    os.makedirs(WORK, exist_ok=True)


def reference():
    """`layers reference`, cached per harness binary: it is a pure function
    of the code, so one computation serves every run of a checkout."""
    with open(LAYERS, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()[:16]
    path = os.path.join(BUILD, "reference-%s.tsv" % digest)
    if not os.path.isfile(path):
        r = subprocess.run([os.path.abspath(LAYERS), "reference"], cwd=WORK, stdout=subprocess.PIPE,
                           timeout=max(1.0, left_s()))
        if r.returncode != 0:
            raise BenchError("layers reference failed")
        with open(path + ".tmp", "wb") as f:
            f.write(r.stdout)
        os.replace(path + ".tmp", path)
    with open(path) as f:
        return checks.Reference(f.read())


def read(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


# --------------------------------------------------------- processes

ALLOC_RE = re.compile(rb"allocated_words: (\d+)")


class Proc:
    """A simbridge process with the runtime's exit statistics on stderr
    (OCAMLRUNPARAM=v=0x400) and its own resource usage from wait4."""

    live = []  # every process started, so an error path can stop them all

    def __init__(self, args, tag):
        self.out_path = os.path.join(WORK, tag + ".out")
        self.err_path = os.path.join(WORK, tag + ".err")
        env = dict(os.environ, OCAMLRUNPARAM="v=0x400")
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            self.t0 = time.perf_counter()
            self.p = subprocess.Popen([os.path.abspath(CLI)] + args, cwd=WORK, stdout=out, stderr=err, env=env)
        self.done = False
        Proc.live.append(self)

    def wait(self):
        signal.signal(signal.SIGALRM, overrun)
        signal.setitimer(signal.ITIMER_REAL, max(1.0, left_s()))
        try:
            _, status, ru = os.wait4(self.p.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        self.wall_s = time.perf_counter() - self.t0
        self.done = True
        self.p.returncode = os.waitstatus_to_exitcode(status)
        self.maxrss_mib = ru.ru_maxrss / 1024.0
        with open(self.err_path, "rb") as f:
            m = ALLOC_RE.search(f.read())
        self.alloc_words = int(m.group(1)) if m else None
        with open(self.out_path, "rb") as f:
            self.stdout = f.read()
        if self.p.returncode != 0 or self.alloc_words is None:
            raise BenchError("simbridge %s exited %d" % (" ".join(self.p.args[1:]), self.p.returncode))
        return self

    def kill(self):
        if not self.done:
            self.p.kill()
            os.waitpid(self.p.pid, 0)
            self.done = True

    @classmethod
    def kill_all(cls):
        for p in cls.live:
            p.kill()


def run_cli(args, tag):
    return Proc(args, tag).wait()


# ------------------------------------------------------------- serve


class Client:
    """One connection to the daemon; one request in flight at a time."""

    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(max(1.0, left_s()))
        try:
            self.sock.connect(path)
        except OSError:
            self.sock.close()
            raise
        self.f = self.sock.makefile("rwb")
        self.n = 0

    def rpc(self, op, **kw):
        self.n += 1
        req = dict(schema="simbridge-serve/1", id="q%d" % self.n, op=op, **kw)
        self.f.write(json.dumps(req).encode() + b"\n")
        self.f.flush()
        line = self.f.readline()
        if not line:
            raise BenchError("daemon closed the connection")
        resp = json.loads(line)
        if resp.get("id") != req["id"]:
            raise BenchError("reply id %r for request %r" % (resp.get("id"), req["id"]))
        return resp

    def close(self):
        self.f.close()
        self.sock.close()


class Daemon:
    def __init__(self, tag):
        sock = os.path.join(WORK, SOCK)
        if os.path.exists(sock):
            os.unlink(sock)
        self.proc = Proc(["serve", "--jobs", "1", "--listen", SOCK], tag)
        # Set-up ends when the daemon answers a ping.
        while True:
            try:
                self.client = Client(sock)
                if self.client.rpc("ping").get("payload") == "pong":
                    break
                raise BenchError("ping not answered with pong")
            except (FileNotFoundError, ConnectionRefusedError):
                if self.proc.p.poll() is not None or left_s() < 0:
                    raise BenchError("daemon never answered a ping")
                time.sleep(0.0002)
        self.setup_s = time.perf_counter() - self.proc.t0

    def stop(self):
        self.client.rpc("shutdown")
        self.client.close()
        return self.proc.wait()

    def kill(self):
        """For set-up samples: a graceful drain polls its stop flag every
        250 ms, which would make each sample cost far more than it measures."""
        self.client.close()
        self.proc.kill()


# ----------------------------------------------------------- workloads


class Result:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = []  # failures outside the known faults
        self.rounds = []  # (wall_s, peak_rss_mib, alloc_gib)
        self.setup = []

    def op(self, failures, known=False):
        self.attempted += 1
        if failures:
            self.failed += 1
            if not known:
                self.unexpected.extend(failures)


def gib(words):
    return words * 8 / 2.0 ** 30


def serve_round(ctx, rng, tag, res, hot=HOT_PER_PANEL, hot_lat=None, cold_lat=None, waits=None):
    d = Daemon(tag)
    t0 = time.perf_counter()
    cold = {}
    order = SERVE_PANELS + [f for _ in range(hot) for f in rng.sample(SERVE_PANELS, len(SERVE_PANELS))]
    replies = []
    for fig in order:
        q0 = time.perf_counter()
        r = d.client.rpc("csv", figure=fig, scale=1.0)
        lat = time.perf_counter() - q0
        is_hot = fig in cold
        if r.get("ok"):
            payload = r["payload"].encode()
            if not is_hot:
                cold[fig] = payload
        else:
            payload = None
        replies.append((fig, is_hot, payload, r.get("error")))
        if is_hot and hot_lat is not None:
            hot_lat.append(lat)
        if not is_hot and cold_lat is not None:
            cold_lat.append(lat)
        if waits is not None and r.get("ok"):
            waits.append(r.get("report", {}).get("queue_wait_s", 0.0))
    wall = time.perf_counter() - t0
    proc = d.stop()
    res.setup.append(d.setup_s)
    res.rounds.append((wall, proc.maxrss_mib, gib(proc.alloc_words)))
    verdict = {fig: ctx.panel_failures(fig, cold.get(fig)) for fig in SERVE_PANELS}
    for fig, is_hot, payload, err in replies:
        if payload is None:
            res.op(["%s: server error %s" % (fig, err)])
        elif is_hot:
            res.op(checks.check_bytes("hot %s reply" % fig, payload, cold[fig]) + verdict[fig])
        else:
            res.op(verdict[fig])


class Context:
    def __init__(self, ref):
        self.ref = ref
        self.expectations = json.loads(read(os.path.join("results", "paper-expectations.json")))

    def golden(self, panel):
        return read(os.path.join("results", panel + ".csv"))

    def panel_failures(self, panel, payload):
        """Checks of an exact-path panel: golden bytes, paper bands and
        shapes, and for fig1/fig2 the Seq-derived speedups."""
        if payload is None:
            return ["%s: no reply" % panel]
        text = payload.decode(errors="replace")
        fails = checks.check_golden(panel, text, self.golden(panel))
        fails += checks.check_expectations(panel, text, self.expectations, self.ref.category)
        if panel in self.ref.panels:
            fails += checks.check_bytes(panel + " vs Seq-engine speedups", payload, self.ref.seq_csv(panel).encode())
        return fails


def memo_ops(ref, res, outputs):
    """One operation per memoized (kernel, platform) run."""
    for cmd, out in outputs:
        panel = cmd[1]
        text = out.decode(errors="replace")
        bad_cells = checks.memo_csv_failures(ref, panel, text)
        for plat, kernel in ref.memo_runs(panel):
            bound = checks.check_memo_run(ref, panel, plat, kernel)
            cell = []
            if (plat, kernel) in bad_cells:
                cell = ["%s %s/%s: CSV cell differs from the memoized cycles" % (panel, plat, kernel)]
            res.op(bound + cell, known=bool(bound) and not cell and (plat, kernel) in KNOWN_MEMO_FAULTS)


def run_workload(name, seed, seconds, ref):
    rng = random.Random(seed)
    res = Result()
    ctx = Context(ref)
    if name == "serve_figs":
        for i in range(SETUP_SAMPLES):
            d = Daemon("setup%d" % i)
            res.setup.append(d.setup_s)
            d.kill()
        t0 = time.perf_counter()
        i = 0
        while i == 0 or time.perf_counter() - t0 < seconds:
            serve_round(ctx, rng, "round%d" % i, res)
            i += 1
    else:
        for i in range(SETUP_SAMPLES):
            res.setup.append(run_cli(["platforms"], "setup%d" % i).wall_s)
        t0 = time.perf_counter()
        i = 0
        while i == 0 or time.perf_counter() - t0 < seconds:
            cmds = rng.sample(COMMANDS[name], len(COMMANDS[name]))
            procs = [run_cli(c, "round%d-%d" % (i, j)) for j, c in enumerate(cmds)]
            res.rounds.append((
                sum(p.wall_s for p in procs),
                max(p.maxrss_mib for p in procs),
                gib(sum(p.alloc_words for p in procs)),
            ))
            outputs = [(c, p.stdout) for c, p in zip(cmds, procs)]
            if name == "memo_figs":
                memo_ops(ref, res, outputs)
            else:
                for c, out in outputs:
                    res.op(ctx.panel_failures(c[1], out))
            i += 1
    walls, rss, alloc = zip(*res.rounds)
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(res.setup),
        "peak_rss_mib": statistics.median(rss),
        "alloc_gib": statistics.median(alloc),
    }
    log("%s: %d round(s), walls %s" % (name, len(walls), ", ".join("%.3f" % w for w in walls)))
    return res, {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END}


# --------------------------------------------------------- traced run


def pctl(xs, q):
    xs = sorted(xs)
    return xs[min(len(xs) - 1, int(round(q * (len(xs) - 1))))] if xs else 0.0


def run_traced(name, seed, ref):
    rng = random.Random(seed)
    res = Result()
    r = subprocess.run([os.path.abspath(LAYERS), "trace", name, "."], cwd=WORK, stdout=subprocess.PIPE,
                       timeout=max(1.0, left_s()))
    if r.returncode != 0:
        raise BenchError("layers trace %s failed" % name)
    metrics = {m: 0.0 for m, _ in PER_LAYER}
    cells = []
    for line in r.stdout.decode().splitlines():
        f = line.split("\t")
        if f[0] == "metric":
            metrics[f[1]] = float(f[2])
        elif f[0] == "cell":
            cells.append((f[1], f[2], f[3], int(f[4]), int(f[5]), float(f[6])))
    ctx = Context(ref)
    panels = sorted({c[0] for c in cells})
    panel_fails = {}
    for p in panels:
        traced = read(os.path.join(WORK, "traced-%s.csv" % p))
        cli = read(os.path.join(WORK, "cli-%s.csv" % p))
        fails = checks.check_bytes(p + " traced CSV vs csv", traced.encode(), cli.encode())
        if name != "memo_figs":
            fails += ctx.panel_failures(p, cli.encode())
        else:
            fails += checks.check_bytes(p + " vs memoized speedups", cli.encode(), ref.memo_csv(p).encode())
        panel_fails[p] = fails
    errs, ratios = [], []
    for panel, plat, x, traced, untraced, bound in cells:
        fails = list(panel_fails[panel])
        if traced != untraced:
            fails.append("%s %s/%s: traced %d cycles, untraced %d" % (panel, plat, x, traced, untraced))
        known = False
        if name == "memo_figs":
            exact = ref.seq[(panel, plat, x)][0]
            err = abs(traced - exact)
            errs.append(err / exact)
            if err > 0:
                ratios.append(bound / err)
            memo_fails = checks.check_memo_run(ref, panel, plat, x, est=traced, bound=bound)
            known = bool(memo_fails) and not fails and (plat, x) in KNOWN_MEMO_FAULTS
            fails += memo_fails
        res.op(fails, known=known)
    if name == "memo_figs":
        metrics["memo.max_rel_error"] = max(errs)
        metrics["memo.bound_to_error_p50"] = statistics.median(ratios)
    if name == "serve_figs":
        hot, cold, waits = [], [], []
        serve_round(ctx, rng, "traced", res, hot=HOT_PER_PANEL_TRACED, hot_lat=hot, cold_lat=cold, waits=waits)
        metrics["serve.cold_query_s"] = statistics.median(cold)
        metrics["serve.hot_p50_us"] = pctl(hot, 0.5) * 1e6
        metrics["serve.hot_p99_us"] = pctl(hot, 0.99) * 1e6
        metrics["serve.queue_wait_p50_us"] = pctl(waits, 0.5) * 1e6
    units = dict(PER_LAYER)
    return res, {m: {"value": metrics[m], "unit": units[m]} for m, _ in PER_LAYER}


# ---------------------------------------------------------------- main


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["serve_figs", "memo_figs", "mpi_figs"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    try:
        build()
        global T0
        T0 = time.perf_counter()  # the deadline covers the run, not the build
        ref = reference()
        if a.trace:
            res, metrics = run_traced(a.workload, a.seed, ref)
        else:
            res, metrics = run_workload(a.workload, a.seed, a.seconds, ref)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        log("error: %s" % e)
        return 1
    finally:
        Proc.kill_all()
    for f in res.unexpected[:20]:
        log("check failed: " + f)
    print(json.dumps({
        "correct": not res.unexpected,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
