#!/usr/bin/env python3
"""Benchmark of the acdcdyn pipeline: generated feeders and the CLI.

    python3 perfbench/run.py --workload {feeder,cli} --seed N
                             --seconds S --trace {0,1}

Run it from the root of a source checkout: the package is imported from
``./src`` and nothing is installed.  One client runs operations one after
another (closed loop), in whole rounds of its workload's mix; ``--seconds``
sets how many rounds, as the time they take at the seed commit.  Every
operation is checked against an independent reference; an operation fails
on an exception, a non-zero CLI exit or a reference mismatch.

Each pass over the operations runs in a fresh process.  ``--trace 0``
makes three passes and reports the end-to-end metrics, each operation timed
at its fastest of the three (see PASSES).  ``--trace 1`` makes an
untraced pass and then one with span wrappers installed around the public
functions of each layer, and reports per-layer metrics; the spans are
written to ``.perfbench_out/`` when the run ends.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--write-cli-reference`` records the reference values that the ``cli``
workload compares its CSV outputs against.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

from feeder import SHAPES, FeederStream

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
CLI_REFERENCE = HERE / "cli_reference.json"

#: One BLAS thread: the box has two cores and is shared, and the models are
#: small enough that a second thread mostly adds noise.
BLAS_THREADS = 1
SETUP_REPEATS = 5

#: Oracle tolerance on closed-loop DC gains, in p.u. per 1 p.u. load step.
#: Correct models agree to about 1e-5 (the analytic steady state neglects
#: DC-link losses); wrong gains at the seed commit are off by about 0.05.
DC_TOL = 1e-4
#: Models above this order are counted as failed without analysis; the
#: physics of the generated feeders needs about 40 states.
MAX_STATES = 800
CLI_TIMEOUT_S = 120.0
#: Each operation is timed this many times, a pass apart, and its fastest
#: time kept.  The host is shared: identical work runs up to 1.8x slower
#: for seconds at a time, and the fastest of three runs spread over the run
#: filters most of those spells out.
PASSES = 3
#: Reference comparison of CLI outputs: |a - b| <= RTOL |b| + ATOL * column
#: scale.  Reruns on one machine are byte-identical; the tolerance allows for
#: another BLAS build.
RTOL, ATOL = 1e-6, 1e-9
REF_SAMPLES = 100

#: Failure classes present at the seed commit, per workload.  A failure of
#: any other class makes ``correct`` false.
KNOWN_DEFECTS = {
    "cli": {},
    "feeder": {
        "build:ValueError": "kron_reduce_symbolic raises 'non-finite "
                            "polynomial coefficients' (four chained loads)",
        "check_assumption1:LinAlgError": "ggev does not converge in "
                                         "_det_roots_eig (five or more "
                                         "loads: not reached by this mix)",
        "dc_gain:mismatch": "dc_gain returns about 0 where steady_state "
                            "gives -0.05, once norm(A) reaches 1e11-1e16",
        "build:order_blowup": f"build returns more than {MAX_STATES} states "
                              "where the physics needs about 40",
    },
}


@dataclass
class Outcome:
    ok: bool
    failure: str | None = None
    csv_bytes: int = 0
    digest: str = ""          # hash of a CLI command's outputs


class Program:
    """The acdcdyn modules, imported from the checkout's ``src``."""

    def __init__(self):
        import acdcdyn
        import acdcdyn.cli

        if Path(acdcdyn.__file__).resolve().parent != SRC / "acdcdyn":
            raise SystemExit(f"acdcdyn imported from {acdcdyn.__file__}, "
                             f"not from {SRC}")
        self.lti = acdcdyn.lti
        self.network = acdcdyn.network
        self.system = acdcdyn.system
        self.analysis = acdcdyn.analysis
        self.cli = acdcdyn.cli


def dc_residual(p: Program, cfg, model) -> float:
    """Largest disagreement of ``dc_gain`` with the analytic
    ``steady_state`` on the frequency and governor-power channels, for a
    1 p.u. step on the first load."""
    ss = model.ss
    G = p.lti.dc_gain(ss)
    j = ss.input_names.index("p_load_" + cfg.graph.load_names[0])
    st = p.system.steady_state(cfg, 1.0)
    return max(abs(G[o, j] - (st.domega if name.startswith("omega_")
                              else st.dp_tg))
               for o, name in enumerate(ss.output_names)
               if name.startswith(("omega_", "p_tg_")))


def _failure(stage: str, exc: Exception) -> Outcome:
    return Outcome(False, f"{stage}:{type(exc).__name__}")


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

class Feeder:
    """Seeded radial LV feeders, each a new topology: stresses the symbolic
    Kron reduction, root-matching simplify, realization and compose."""

    #: A round is one feeder per shape.  ``round_seconds`` is its untraced
    #: time at the seed commit on a shared 2-core x86 VM; it converts
    #: ``--seconds`` into a number of rounds (see ``measure``).
    round_size = len(SHAPES)
    round_seconds = 1.6

    def __init__(self, p: Program, seed: int):
        self.p = p
        self._stream = FeederStream(seed)

    def inputs(self):
        return self._stream

    def run(self, data) -> Outcome:
        p = self.p
        stage = "config"
        try:
            cfg = p.system.config_from_dict(data)
            stage = "check_assumption1"
            p.network.check_assumption1(cfg.graph)
            stage = "build"
            model = p.system.build(cfg, check_network=False)
            if model.ss.n_states > MAX_STATES:
                return Outcome(False, "build:order_blowup")
            stage = "stability"
            p.analysis.stability(model)
            stage = "dc_gain"
            resid = dc_residual(p, cfg, model)
        except Exception as exc:  # every failure is counted by class
            return _failure(stage, exc)
        if not resid <= DC_TOL:
            return Outcome(False, "dc_gain:mismatch")
        return Outcome(True)


#: key -> (command, preset, options).  Covers all seven commands over the
#: three presets, with one long step (80 s at 1 ms, about 14 MB of CSV).
CLI_OPS = {
    "poles-islanded": ("poles", "islanded_pv", {}),
    "poles-parallel": ("poles", "parallel_ac_dc", {}),
    "bode-islanded": ("bode", "islanded_pv",
                      {"input": "p_load_load1", "output": "omega_vsc1"}),
    "bode-lvdc": ("bode", "lvdc_async",
                  {"input": "p_load_load1", "output": "omega_vsc1"}),
    "step-parallel-80s": ("step", "parallel_ac_dc",
                          {"input": "p_load_load1", "t_end_s": 80.0,
                           "dt_s": 0.001}),
    "steady-islanded": ("steady", "islanded_pv", {"delta_p_l_pu": 1.0}),
    "sweep-lvdc": ("sweep", "lvdc_async",
                   {"parameter": "k_d_1",
                    "values": [0.0005, 0.001, 0.002, 0.004],
                    "input": "p_load_load1", "output": "omega_vsc1"}),
    "spectrum-islanded": ("spectrum", "islanded_pv",
                          {"input": "p_load_load1", "channel": "omega_vsc1"}),
    "check-lvdc": ("check", "lvdc_async", {}),
    "check-parallel": ("check", "parallel_ac_dc", {}),
}


class Cli:
    """One ``acdcdyn`` process per operation: the cost a CLI user pays,
    imports and CSV writing included."""

    round_size = len(CLI_OPS)
    round_seconds = 9.0

    def __init__(self, seed: int, work: Path, reference: dict | None):
        self._rng = random.Random(seed)
        self.work = work
        self.configs = {}
        cfg_dir = work / "configs"
        cfg_dir.mkdir(parents=True, exist_ok=True)
        for key, (_, preset, options) in CLI_OPS.items():
            path = cfg_dir / f"{key}.json"
            path.write_text(json.dumps({"scenario": preset,
                                        "options": options}))
            self.configs[key] = path
        self._reference = reference
        self._digests = {}
        self._count = 0
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def inputs(self):
        """Each round runs every command once, in a seeded order."""
        keys = list(CLI_OPS)
        while True:
            self._rng.shuffle(keys)
            yield from keys

    def command(self, key: str, out: Path, trace_file: Path | None = None):
        cmd = [sys.executable, str(HERE / "launch.py")]
        if trace_file is not None:
            cmd += ["--trace", str(trace_file)]
        return cmd + [CLI_OPS[key][0], "--config", str(self.configs[key]),
                      "--out", str(out)]

    def run(self, key: str, trace_file: Path | None = None) -> Outcome:
        self._count += 1
        out = self.work / "out" / str(self._count)
        command = CLI_OPS[key][0]
        try:
            proc = subprocess.run(self.command(key, out, trace_file),
                                  env=self.env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL,
                                  timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            shutil.rmtree(out, ignore_errors=True)
            return Outcome(False, f"{command}:timeout")
        try:
            if proc.returncode != 0:
                return Outcome(False, f"{command}:exit_{proc.returncode}")
            return self.check(key, out)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def check(self, key: str, out: Path) -> Outcome:
        """Outputs are byte-identical to the first run of the same command
        in this run, and agree with the committed reference values."""
        manifest = json.loads((out / "manifest.json").read_text())
        blobs = {n: (out / n).read_bytes() for n in manifest["outputs"]}
        size = sum(len(b) for b in blobs.values())
        digest = hashlib.sha256(b"".join(
            n.encode() + b"\0" + blobs[n] for n in sorted(blobs))).hexdigest()
        if self._digests.setdefault(key, digest) != digest:
            return Outcome(False, "repeat:bytes_differ", size, digest)
        if self._reference is not None:
            for name, blob in blobs.items():
                if not csv_matches(self._reference[key][name], blob):
                    return Outcome(False, f"{CLI_OPS[key][0]}:reference",
                                   size, digest)
        return Outcome(True, None, size, digest)


def csv_summary(blob: bytes) -> dict:
    """Header, row count and evenly spaced sample rows (plus the last)."""
    lines = blob.decode("utf-8").splitlines()
    header, rows = lines[0].split(","), lines[1:]
    stride = max(1, math.ceil(len(rows) / REF_SAMPLES))
    idx = list(range(0, len(rows), stride))
    if rows and idx[-1] != len(rows) - 1:
        idx.append(len(rows) - 1)
    return {"header": header, "rows": len(rows), "stride": stride,
            "samples": [rows[i].split(",") for i in idx]}


def _float(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def csv_matches(ref: dict, blob: bytes) -> bool:
    got = csv_summary(blob)
    if (got["header"] != ref["header"] or got["rows"] != ref["rows"]
            or len(got["samples"]) != len(ref["samples"])):
        return False
    ncol = len(ref["header"])
    scale = [max((abs(_float(r[c]) or 0.0) for r in ref["samples"]),
                 default=0.0) for c in range(ncol)]
    for rr, gr in zip(ref["samples"], got["samples"]):
        if len(gr) != len(rr):
            return False
        for c, (a, b) in enumerate(zip(gr, rr)):
            fa, fb = _float(a), _float(b)
            if fa is None or fb is None:
                if a != b:
                    return False
            elif not abs(fa - fb) <= RTOL * abs(fb) + ATOL * scale[c]:
                return False
    return True


WORKLOADS = {"feeder": Feeder, "cli": Cli}


def make_workload(p: Program, name: str, seed: int, work: Path):
    if name == "cli":
        return Cli(seed, work, json.loads(CLI_REFERENCE.read_text()))
    return WORKLOADS[name](p, seed)


# --------------------------------------------------------------------------
# measurement
# --------------------------------------------------------------------------

def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def setup_probe(workload: str, seed: int, work: Path) -> None:
    """One set-up in a fresh interpreter: imports, input generation and one
    warm-up operation.  Prints the import time as JSON."""
    t0 = time.perf_counter()
    p = Program()
    import_s = time.perf_counter() - t0
    wl = make_workload(p, workload, seed, work)
    if workload == "cli":
        # a fixed, short command: the seeded first one may be the long step
        out = work / "warmup"
        p.cli.main(["poles", "--config", str(wl.configs["poles-islanded"]),
                    "--out", str(out)])
        shutil.rmtree(out, ignore_errors=True)
    else:
        wl.run(next(iter(wl.inputs())))
    print(json.dumps({"import_s": import_s}))


class Run:
    """Per-operation results merged over the passes of one run."""

    def __init__(self):
        self.latency: list[float] = []     # seconds per attempted op
        self.outcomes: list[Outcome] = []
        self.traced: list[float] = []      # traced pass, trace runs only
        self.span_groups: list[list] = []  # spans of each traced op
        self.import_s: list[float] = []    # CLI import time per traced op
        self.setup_s: list[float] = []     # wall time of each set-up
        self.setup_import_s: list[float] = []

    @property
    def failures(self) -> dict:
        out = {}
        for o in self.outcomes:
            if not o.ok:
                out[o.failure] = out.get(o.failure, 0) + 1
        return dict(sorted(out.items()))

    @property
    def ok(self) -> int:
        return sum(o.ok for o in self.outcomes)


def measure_setup(args, run: Run) -> None:
    """One fresh set-up: its wall time and import time go into ``run``."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=dict(os.environ, PYTHONPATH=str(SRC)),
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S)
    run.setup_s.append(time.perf_counter() - t0)
    if proc.returncode != 0:
        raise SystemExit(f"set-up failed:\n{proc.stderr}")
    run.setup_import_s.append(
        json.loads(proc.stdout.splitlines()[-1])["import_s"])


def run_pass(p: Program, args, work: Path) -> None:
    """One pass in this process over the first ``args.ops`` operations.
    With ``args.trace`` each operation runs under span wrappers.  Writes
    per-operation results and spans to ``args.pass_out`` as JSON."""
    from spans import Tracer

    wl = make_workload(p, args.workload, args.seed, work)
    records, groups, imports = [], [], []
    for inp in itertools.islice(wl.inputs(), args.ops):
        tracer = None
        if args.trace and isinstance(wl, Cli):
            trace_file = work / "trace.json"
            t0 = time.perf_counter()
            outcome = wl.run(inp, trace_file)
            latency = time.perf_counter() - t0
            data = json.loads(trace_file.read_text())
            imports.append(data["import_s"])
            groups.append([dict(sp, op=len(records)) for sp in data["spans"]])
        else:
            if args.trace:
                tracer = Tracer()
                tracer.install()
                tracer.op = len(records)
            t0 = time.perf_counter()
            try:
                outcome = wl.run(inp)
            finally:
                latency = time.perf_counter() - t0
                if tracer is not None:
                    tracer.uninstall()
                    groups.append(tracer.records())
        records.append([latency, outcome.failure, outcome.csv_bytes,
                        outcome.digest])
    Path(args.pass_out).write_text(json.dumps(
        {"ops": records, "span_groups": groups, "import_s": imports}))


def worker(args, work: Path, ops: int, trace: bool) -> dict:
    """Run one pass in a fresh process and return its results."""
    out = work / "pass.json"
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(int(trace)),
           "--ops", str(ops), "--pass-out", str(out)]
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
                   timeout=CLI_TIMEOUT_S)
    return json.loads(out.read_text())


def measure(args, work: Path) -> Run:
    """Run the passes of one run, each in a fresh process over the same
    operations.

    A pass is as many whole rounds of the workload's mix as take its share
    of ``--seconds`` at the seed commit (``round_seconds``), so the work
    does not depend on how fast the shared host happens to be.  Untraced,
    an operation's latency is its fastest of PASSES runs.  Traced, an
    untraced pass is followed by one under span wrappers.  Separate
    processes keep any in-process cache of the program cold for a repeated
    operation.  An operation whose outcome or output bytes differ between
    passes fails.
    """
    from spans import Span

    wl = WORKLOADS[args.workload]
    n_passes = 2 if args.trace else PASSES
    rounds = max(1, round(args.seconds / n_passes / wl.round_seconds))
    n = rounds * wl.round_size
    # The set-ups are spread over the run, one before each pass and the
    # rest after the last, so that their median sees the host as the
    # passes do.
    run = Run()
    passes = []
    for k in range(n_passes):
        measure_setup(args, run)
        passes.append(worker(args, work, n, k == 1 and bool(args.trace)))
    while len(run.setup_s) < SETUP_REPEATS:
        measure_setup(args, run)
    for i, (latency, failure, csv_bytes, digest) in enumerate(
            passes[0]["ops"]):
        outcome = Outcome(failure is None, failure, csv_bytes, digest)
        timed = [latency] + [ps["ops"][i][0] for ps in passes[1:]]
        if any(ps["ops"][i][1] != failure for ps in passes[1:]):
            outcome = Outcome(False, "nondeterministic", csv_bytes)
        elif any(ps["ops"][i][3] != digest for ps in passes[1:]):
            outcome = Outcome(False, "repeat:bytes_differ", csv_bytes)
        run.outcomes.append(outcome)
        if args.trace:
            run.latency.append(timed[0])
            run.traced.append(timed[1])
        else:
            run.latency.append(min(timed))
    if args.trace:
        run.span_groups = [[Span(**sp) for sp in g]
                           for g in passes[1]["span_groups"]]
        run.import_s = passes[1]["import_s"]
    return run


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------

#: Per-layer metrics of a traced run, in the order BENCHMARK.json lists
#: them.  Generic names are ``<layer>.<function>.<kind>``: ``ms`` inclusive
#: and ``self_ms`` self time per operation, ``calls`` and ``failed`` counts
#: per operation, ``gflop`` computed (not measured) work per operation.
LAYER_METRICS = (
    "network.kron_reduce_symbolic.ms", "network.kron_reduce_symbolic.failed",
    "lti.RationalTF.simplify.calls", "system.build.self_ms",
    "system.build.n_states", "system.build.log10_norm_A", "lti.tf_to_ss.calls",
    "lti.compose.ms", "network.check_assumption1.ms", "lti.poles.ms",
    "lti.dc_gain.ms", "lti.step_response.ms", "lti.step_response.gflop",
    "lti.freq_response.ms", "lti.freq_response.gflop", "cli.run.self_ms",
    "cli.csv_bytes", "cli.import_s", "system.config_from_dict.ms",
    "units.tf.ms", "analysis.bode.self_ms", "analysis.stability.self_ms",
    "lti.fft_magnitude.ms", "trace.overhead_ms", "fail_share",
)


def layer_metrics(run: Run, import_s: float) -> dict:
    """Per-layer metrics of a traced run, normalised per operation."""
    from spans import self_seconds

    n_ops = len(run.outcomes)
    incl, own, calls, failed, attrs = {}, {}, {}, {}, {}
    for group in run.span_groups:
        self_s = self_seconds(group)
        for k, s in enumerate(group):
            calls[s.name] = calls.get(s.name, 0) + 1
            failed[s.name] = failed.get(s.name, 0) + (not s.ok)
            own[s.name] = own.get(s.name, 0.0) + self_s[k]
            # inclusive time, counting recursive calls once
            a = s.parent
            while a >= 0 and group[a].name != s.name:
                a = group[a].parent
            if a < 0:
                incl[s.name] = incl.get(s.name, 0.0) + s.seconds
            for key, v in (s.attrs or {}).items():
                attrs.setdefault((s.name, key), []).append(v)

    def median_attr(name, key):
        vals = attrs.get((name, key))
        return statistics.median(vals) if vals else 0.0

    def span_metric(metric):
        """Per-op value of ``<span>.<kind>`` for a generic metric name."""
        name, kind = metric.rsplit(".", 1)
        if kind == "ms":
            return 1e3 * incl.get(name, 0.0) / n_ops, "ms/op"
        if kind == "self_ms":
            return 1e3 * own.get(name, 0.0) / n_ops, "ms/op"
        if kind == "calls":
            return calls.get(name, 0) / n_ops, "1/op"
        if kind == "failed":
            return failed.get(name, 0) / n_ops, "1/op"
        assert kind == "gflop", metric
        return sum(attrs.get((name, "flop"), [])) / n_ops / 1e9, "GFLOP/op"

    special = {
        "system.build.n_states":
            (median_attr("system.build", "n_states"), "count"),
        "system.build.log10_norm_A":
            (median_attr("system.build", "log10_norm_A"), "log10"),
        "cli.csv_bytes":
            (sum(o.csv_bytes for o in run.outcomes) / n_ops, "bytes/op"),
        "cli.import_s": (import_s, "s"),
        "units.tf.ms": (1e3 * sum(v for k, v in incl.items()
                                  if k.startswith("units.")) / n_ops, "ms/op"),
        "trace.overhead_ms":
            (1e3 * (sum(run.traced) - sum(run.latency)) / n_ops, "ms/op"),
        "fail_share": (1.0 - run.ok / n_ops, "share"),
    }
    values = [(m, *(special[m] if m in special else span_metric(m)))
              for m in LAYER_METRICS]
    return {name: {"value": v, "unit": unit} for name, v, unit in values}


def end_to_end_metrics(run: Run) -> dict:
    """name -> (value, unit, note)."""
    n = len(run.latency)
    busy = sum(run.latency)
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "setup_s": (statistics.median(run.setup_s), "s",
                    f"median of {len(run.setup_s)} fresh set-ups"),
        "op_ms_p50": (1e3 * percentile(run.latency, 0.5), "ms",
                      f"n={n} ops, each its fastest of {PASSES} runs; "
                      "failed ops at their own time"),
        "ok_per_s": (run.ok / busy, "1/s",
                     f"{run.ok} correct / {busy:.2f} s of op time"),
        "ok_share": (run.ok / n, "share",
                     f"{run.ok}/{n}; fail_share = {1 - run.ok / n:.4f}"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB",
                        "max over this process and its children"),
    }


def report_extra_latency(run: Run) -> list[str]:
    """Latency lines the JSON omits: p90 (only with at least ten ops beyond
    it) and percentiles with failures ranked slower than any success."""
    n = len(run.latency)
    lines = []
    if n >= 100:
        lines.append(f"op_ms_p90 {1e3 * percentile(run.latency, 0.9):.3f} ms"
                     f" (n={n})")
    else:
        lines.append(f"op_ms_p90 not reported (n={n} < 100 ops)")
    ranked = sorted((math.inf if not o.ok else t)
                    for t, o in zip(run.latency, run.outcomes))
    for q in (0.5, 0.9):
        if q == 0.9 and n < 100:
            continue
        v = ranked[max(0, math.ceil(q * n) - 1)]
        shown = "missing (lands on a failure)" if v == math.inf \
            else f"{1e3 * v:.3f} ms"
        lines.append(f"op_ms_p{int(q * 100)} with failures ranked slowest: "
                     f"{shown} (n={n})")
    return lines


def environment() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


# --------------------------------------------------------------------------
# entry points
# --------------------------------------------------------------------------

def write_cli_reference(work: Path) -> None:
    """Record the reference values of every CLI command's outputs."""
    wl = Cli(0, work, None)
    ref = {}
    for key in CLI_OPS:
        out = work / "ref" / key
        cmd = wl.command(key, out)
        subprocess.run(cmd, env=wl.env, check=True, timeout=CLI_TIMEOUT_S,
                       stdout=subprocess.DEVNULL)
        manifest = json.loads((out / "manifest.json").read_text())
        ref[key] = {n: csv_summary((out / n).read_bytes())
                    for n in manifest["outputs"]}
    CLI_REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {CLI_REFERENCE}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=tuple(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--pass-out", help=argparse.SUPPRESS)
    ap.add_argument("--ops", type=int, default=0, help=argparse.SUPPRESS)
    ap.add_argument("--write-cli-reference", action="store_true")
    args = ap.parse_args(argv)
    if not args.workload and not args.write_cli_reference:
        ap.error("--workload is required")

    if not (SRC / "acdcdyn" / "__init__.py").is_file():
        print(f"error: no acdcdyn sources under {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    warnings.simplefilter("ignore")

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed, work)
            return 0
        if args.pass_out:
            run_pass(Program(), args, work)
            return 0
        if args.write_cli_reference:
            write_cli_reference(work)
            return 0
        return bench(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()


def bench(args, work: Path) -> int:
    env = environment()
    print("# environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    run = measure(args, work)

    failures = run.failures
    known = KNOWN_DEFECTS[args.workload]
    correct = all(f in known for f in failures)
    n = len(run.outcomes)
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"ops={n} ok={run.ok} failed={n - run.ok} "
          f"op_time={sum(run.latency) + sum(run.traced):.2f}s")
    for f, count in failures.items():
        what = known.get(f, "NOT A KNOWN DEFECT")
        print(f"# failure {f}: {count}/{n} ({what})")

    if args.trace:
        import_s = statistics.median(run.import_s or run.setup_import_s)
        metrics = layer_metrics(run, import_s)
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
        OUT.mkdir(exist_ok=True)
        spans = [s.__dict__ for g in run.span_groups for s in g]
        (OUT / f"trace-{args.workload}-{args.seed}.json").write_text(
            json.dumps({"environment": env, "spans": spans}))
    else:
        e2e = end_to_end_metrics(run)
        for name, (v, unit, note) in e2e.items():
            print(f"{name} {v:.6g} {unit} ({note})")
        for line in report_extra_latency(run):
            print(line)
        metrics = {name: {"value": v, "unit": unit}
                   for name, (v, unit, _) in e2e.items()}
    print(json.dumps({"correct": correct, "attempted": n,
                      "failed": n - run.ok, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
