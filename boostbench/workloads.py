"""The benchmark's three workloads: set-up, measured steps and output checks.

Every workload runs in this process on one thread. Its inputs come from
the workload seed; seed 0 (DEFAULT_SEED) reproduces acceptance criterion
6 (crops seed 7, search seed 3, frames seed 99), and seed s shifts all
three by s. Outputs are hashed; on the default seed each hash must match
``fingerprints.json``, on every seed each repeated operation must
reproduce its first output byte for byte.

The layers are called through their module attributes
(``detector.scan(...)``), so a traced run sees every call. Checks use
names bound at import, so they add no layer spans.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from functools import partial

import numpy as np

from boostdet import cli, detector, imaging, modelio, pgm, pipeline
from boostdet.dataset import write_annotations
from boostdet.evalkit import GroundTruthFrame, auc, roc_curve
from boostdet.features import FeatureKind
from boostdet.learner import LearnerConfig
from boostdet.synthetic import frame_sequence, training_samples

from tracing import FAMILIES, Tracer, layer_metrics, layer_table

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE_DIR = os.path.join(HERE, "fixtures")
FINGERPRINT_FILE = os.path.join(HERE, "fingerprints.json")

DEFAULT_SEED = 0
CROPS_SEED, SEARCH_SEED, FRAMES_SEED = 7, 3, 99
N_POSITIVES, N_NEGATIVES = 100, 200
SCAN_BIAS = -1.0
AUC_MIN = 0.9


@dataclass(frozen=True)
class Sizes:
    """How much work one pass of each workload does."""

    mode: str
    rounds: int       # boosting rounds per family in one train pass
    frames: int       # distinct frames in one scan pass
    roc_frames: int   # frames per detect/eval pair in one roc pass
    setup_reps: int   # set-ups per run; setup_s is their median


FULL = Sizes("full", rounds=20, frames=100, roc_frames=16, setup_reps=11)
# few rounds and frames, for the benchmark's own tests
TINY = Sizes("tiny", rounds=2, frames=4, roc_frames=2, setup_reps=1)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_fingerprints() -> dict:
    with open(FINGERPRINT_FILE, "r", encoding="utf-8") as fh:
        return json.load(fh)


def read_fixture(family: str) -> str:
    with open(os.path.join(FIXTURE_DIR, f"{family}.model.txt"), "rb") as fh:
        return fh.read().decode("utf-8")


def round_log(result) -> str:
    """The per-round CSV exactly as ``boostdet train`` writes it."""
    rows = ["t,epsilon,beta,alpha,bound,train_error\n"]
    rows += [f"{r.t},{r.epsilon!r},{r.beta!r},{r.alpha!r},{r.bound!r},{r.train_error!r}\n"
             for r in result.rounds]
    return "".join(rows)


def detections_text(frame_id: str, dets) -> str:
    return "".join(f"{frame_id},{d.box.x},{d.box.y},{d.box.w},{d.box.h},{d.margin!r}\n"
                   for d in dets)


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------

_PROBE_TABLE = np.random.default_rng(20091).integers(0, 1 << 20, (97, 129))
_PROBE_YS = np.arange(0, 60, 2)
_PROBE_XS = np.arange(0, 90, 3)
PROBE_NOMINAL_S = 0.001


def _probe_kernel() -> int:
    # the program's mix: interpreted loops around small numpy gathers
    acc = 0
    for k in range(20):
        g = (_PROBE_TABLE[np.ix_(_PROBE_YS + k, _PROBE_XS + 2 * k)]
             - _PROBE_TABLE[np.ix_(_PROBE_YS, _PROBE_XS + k)])
        acc += int((np.abs(g) > 1 << 19).sum())
    for i in range(2000):
        acc += (i * 7) % 13
    return acc


class HostSpeed:
    """Scales measured seconds to a fixed host speed.

    The benchmark runs on shared machines where other tenants slow every
    instruction of this process, by up to 2x, changing within a second
    (measured on a shared 2-core Linux VM: one haar scan of one frame took
    30 ms to 63 ms, its minimum per second of samples moving within that
    range). While a HostSpeed is entered, a timer signal every PERIOD_S
    interrupts the run between two bytecodes and times a fixed probe
    kernel that does not use boostdet. An interval measured with
    ``mark()`` and ``scaled()`` loses the probe time inside it and is
    multiplied by PROBE_NOMINAL_S over the median of the probes inside it
    (and the one before it): the seconds it would take on a host where
    the probe takes PROBE_NOMINAL_S.
    """

    PERIOD_S = 0.1

    def __init__(self):
        self.probes: list[float] = []  # probe seconds, in order
        self.probe_s = 0.0             # their sum
        self.factors: list[float] = []
        self.tracer = None             # charged with probe time while tracing
        self._probing = False

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _probe(self, signum=None, frame=None) -> None:
        if self._probing:  # a host so slow that a probe outlasts the period
            return
        self._probing = True
        t_warm = time.perf_counter_ns()
        _probe_kernel()  # the program's data may have evicted the probe's
        t0 = time.perf_counter_ns()
        _probe_kernel()
        t1 = time.perf_counter_ns()
        elapsed, spent = t1 - t0, t1 - t_warm
        self._probing = False
        self.probes.append(elapsed * 1e-9)
        self.probe_s += spent * 1e-9
        if self.tracer is not None:
            self.tracer.probe(spent)

    def mark(self) -> tuple[float, int, float]:
        """The start of an interval."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return time.perf_counter(), len(self.probes), self.probe_s
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def scaled(self, mark: tuple[float, int, float]) -> float:
        """Scaled seconds since ``mark``, probe time left out."""
        now, count, probe_s = self.mark()
        start, first, start_probe_s = mark
        raw = now - start - (probe_s - start_probe_s)
        factor = PROBE_NOMINAL_S / statistics.median(self.probes[max(first - 1, 0):count])
        self.factors.append(factor)
        return raw * factor


# ---------------------------------------------------------------------------
# operations and outputs
# ---------------------------------------------------------------------------

class Ledger:
    """Operations attempted and failed, and the hash of every output."""

    def __init__(self, expected: dict | None):
        self.attempted = 0
        self.failed_ops: set[int] = set()
        self.failures: list[str] = []
        self.hashes: dict[str, str] = {}
        self.expected = expected  # recorded fingerprints, default seed only
        self.checked: set[str] = set()
        self.recorded: list[str] = []  # names of outputs that carry a fingerprint

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def op(self) -> int:
        self.attempted += 1
        return self.attempted

    def fail(self, op_id: int, name: str, message: str) -> None:
        self.failed_ops.add(op_id)
        self.failures.append(f"{name}: {message}")

    def attempt(self, name: str, fn):
        """Run ``fn(op_id)`` as one operation; an exception fails it, the run goes on."""
        op_id = self.op()
        try:
            return op_id, fn(op_id)
        except Exception as exc:  # any failure of the program is a failed op
            traceback.print_exc(file=sys.stderr)
            self.fail(op_id, name, f"{type(exc).__name__}: {exc}")
            return op_id, None

    def output(self, op_id: int, name: str, data: bytes, recorded: bool = True) -> None:
        """Hash one output: it must repeat within the run and, when
        ``recorded`` and on the default seed, match its fingerprint."""
        digest = sha256(data)
        if recorded and name not in self.hashes:
            self.recorded.append(name)
        first = self.hashes.setdefault(name, digest)
        if digest != first:
            self.fail(op_id, name, f"sha256 {digest} differs from this run's first {first}")
        elif recorded and self.expected is not None and name not in self.checked:
            self.checked.add(name)
            want = self.expected.get(name)
            if want != digest:
                self.fail(op_id, name, f"sha256 {digest} != recorded {want}")


def verify_fixture(ledger: Ledger, family: str, fixtures: dict) -> str:
    """One operation: the fixture's sha256 must match the recorded one."""
    text = read_fixture(family)

    def check(op_id):
        digest = sha256(text.encode("utf-8"))
        want = fixtures.get(f"{family}.model.txt")
        if digest != want:
            ledger.fail(op_id, f"fixture {family}.model.txt",
                        f"sha256 {digest} != recorded {want}")

    ledger.attempt(f"fixture {family}", check)
    return text


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """Set-up, then steps; ``steps()`` is one pass over the workload's inputs.

    Every timing a workload keeps is already scaled by HostSpeed.
    """

    name = ""
    min_steps = 1  # steps before unit_seconds() is defined

    def __init__(self, seed: int, sizes: Sizes, ledger: Ledger, fixtures: dict,
                 workdir: str):
        self.seed = seed % 2 ** 32  # the generators take non-negative seeds
        self.sizes = sizes
        self.ledger = ledger
        self.fixtures = fixtures
        self.workdir = workdir
        self.tracer = None  # set for the traced phase only
        self.speed: HostSpeed | None = None

    def begin_op(self, op_id: int, family: str = "") -> None:
        if self.tracer is not None:
            self.tracer.begin_op(self.name, op_id, family)

    def setup(self, first: bool) -> None:
        raise NotImplementedError

    def steps(self) -> list:
        raise NotImplementedError

    def end_pass(self) -> None:
        """Checks that need a whole pass of outputs."""

    def reset_samples(self) -> None:
        raise NotImplementedError

    def unit_seconds(self) -> float:
        """Median seconds per unit of work."""
        raise NotImplementedError

    def named_metrics(self) -> list[tuple[str, float, str]]:
        """The workload's own end-to-end figures: (name, value, unit)."""
        raise NotImplementedError


class TrainWorkload(Workload):
    """train_detector for each family on the desk crops; a unit is one round."""

    name = "train"
    min_steps = len(FAMILIES)

    def setup(self, first):
        self.samples = training_samples(N_POSITIVES, N_NEGATIVES, seed=CROPS_SEED + self.seed)
        self.reset_samples()

    def reset_samples(self):
        self.round_s = {f: [] for f in FAMILIES}

    def steps(self):
        return [partial(self.train_family, f) for f in FAMILIES]

    def train_family(self, family):
        def op(op_id):
            self.begin_op(op_id, family)
            config = LearnerConfig(family=FeatureKind(family), seed=SEARCH_SEED + self.seed,
                                   parallel_workers=1)
            progress = self.tracer.generation if self.tracer is not None else None
            mark = self.speed.mark()
            result = pipeline.train_detector(self.samples, self.sizes.rounds, config,
                                             progress=progress)
            seconds = self.speed.scaled(mark)
            if result.model is None or not result.rounds:
                raise RuntimeError(f"no stages kept ({result.stop_reason})")
            self.round_s[family].append(seconds / len(result.rounds))
            self.ledger.output(op_id, f"train.{family}.model",
                               modelio.dump_model(result.model).encode("utf-8"))
            self.ledger.output(op_id, f"train.{family}.log", round_log(result).encode("utf-8"))

        self.ledger.attempt(f"train {family}", op)

    def unit_seconds(self):
        # one round of each family, so every family weighs by its own cost
        return sum(statistics.median(v) for v in self.round_s.values()) / len(FAMILIES)

    def named_metrics(self):
        return [(f"train_rounds_per_s.{f}", 1.0 / statistics.median(v), "rounds/s")
                for f, v in self.round_s.items()]


class ScanWorkload(Workload):
    """The four desk models over 128x96 frames at bias -1, then NMS.

    One integral per frame serves all four scans; a unit is one frame.
    """

    name = "scan"

    def setup(self, first):
        self.models = {f: modelio.parse_model(verify_fixture(self.ledger, f, self.fixtures)
                                              if first else read_fixture(f))
                       for f in FAMILIES}
        self.frames = frame_sequence(self.sizes.frames, seed=FRAMES_SEED + self.seed)
        self.truths = [GroundTruthFrame(frame_id=f"frame{i:04d}", boxes=tuple(b))
                       for i, (_, b) in enumerate(self.frames)]
        self.cfg = detector.ScanConfig(bias=SCAN_BIAS)
        self.kept = {}       # (frame index, family) -> (op id, detections) this pass
        self.first_pass = True
        self.aucs = {}
        self.reset_samples()

    def reset_samples(self):
        self.frame_s = []
        self.family_s = {f: [] for f in FAMILIES}

    def steps(self):
        return [partial(self.scan_frame, i) for i in range(len(self.frames))]

    def scan_frame(self, i):
        frame = self.frames[i][0]
        results = {}
        frame_mark = self.speed.mark()
        ii = imaging.build_integral(frame)
        for family in FAMILIES:
            def op(op_id, family=family):
                self.begin_op(op_id, family)
                mark = self.speed.mark()
                kept = detector.nms(detector.scan(self.models[family], frame, self.cfg, ii=ii))
                self.family_s[family].append(self.speed.scaled(mark))
                return kept

            results[family] = self.ledger.attempt(f"scan frame{i:04d} {family}", op)
        self.frame_s.append(self.speed.scaled(frame_mark))
        for family, (op_id, kept) in results.items():
            if kept is not None:
                self.kept[(i, family)] = (op_id, kept)
                self.ledger.output(op_id, f"scan.frame{i:04d}.{family}",
                                   detections_text(f"frame{i:04d}", kept).encode("utf-8"),
                                   recorded=False)

    def end_pass(self):
        if not self.first_pass:
            return
        self.first_pass = False
        for family in FAMILIES:
            got = [self.kept.get((i, family)) for i in range(len(self.frames))]
            if any(g is None for g in got):
                continue  # the failed frames are already counted
            last_op = got[-1][0]
            text = "".join(detections_text(f"frame{i:04d}", kept)
                           for i, (_, kept) in enumerate(got))
            self.ledger.output(last_op, f"scan.{family}.detections", text.encode("utf-8"))
            dets = {f"frame{i:04d}": kept for i, (_, kept) in enumerate(got)}
            roc = roc_curve(dets, self.truths)
            area = auc(roc)
            self.aucs[family] = area
            if not area > AUC_MIN:
                self.ledger.fail(last_op, f"scan.{family}.roc_auc", f"{area!r} <= {AUC_MIN}")
            if any(b.tpr < a.tpr or b.fp_per_frame < a.fp_per_frame
                   for a, b in zip(roc, roc[1:])):
                self.ledger.fail(last_op, f"scan.{family}.roc", "curve is not monotone")
        self.kept.clear()

    def unit_seconds(self):
        return statistics.median(self.frame_s)

    def named_metrics(self):
        ms = sorted(1000.0 * s for s in self.frame_s)
        out = [(f"scan_fps.{f}", 1.0 / statistics.median(v), "frames/s")
               for f, v in self.family_s.items()]
        out.append(("frame_ms.p50", statistics.median(ms), "ms"))
        tail = tail_percentile(len(ms))
        if tail is not None:
            out.append((f"frame_ms.p{tail}", percentile(ms, tail), "ms"))
        out.append(("frame_ms.samples", len(ms), "count"))
        out += [(f"scan_auc.{f}", a, "auc") for f, a in self.aucs.items()]
        return out


class RocWorkload(Workload):
    """``boostdet detect`` at an all-pass bias, then ``boostdet eval``.

    Every window survives the bias, so NMS sees all of them; a unit is
    one frame through the detect/eval pair.
    """

    name = "roc"

    def setup(self, first):
        text = verify_fixture(self.ledger, "nconnex", self.fixtures) if first \
            else read_fixture("nconnex")
        model = modelio.parse_model(text)
        # margins are at least -sum(alpha), so this bias passes every window
        self.bias = -sum(st.alpha for st in model.stages) - 1.0
        if os.path.isdir(self.workdir):
            shutil.rmtree(self.workdir)
        frames_dir = os.path.join(self.workdir, "frames")
        os.makedirs(frames_dir)
        self.paths = {name: os.path.join(self.workdir, name)
                      for name in ("model.txt", "annotations.txt", "dets.csv",
                                   "roc.csv", "pr.csv")}
        self.paths["frames"] = frames_dir
        with open(self.paths["model.txt"], "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        truths = []
        for i, (frame, boxes) in enumerate(
                frame_sequence(self.sizes.roc_frames, seed=FRAMES_SEED + self.seed)):
            name = f"frame_{i:04d}.pgm"
            pgm.save_pgm(frame, os.path.join(frames_dir, name))
            truths.append(GroundTruthFrame(frame_id=name, boxes=tuple(boxes)))
        write_annotations(truths, self.paths["annotations.txt"])
        self.reset_samples()

    def reset_samples(self):
        self.detect_s = []
        self.eval_s = []

    def steps(self):
        return [self.detect_and_eval]

    def command(self, name, argv):
        """One CLI command as one operation; returns its scaled seconds."""
        def op(op_id):
            self.begin_op(op_id, "nconnex" if name == "detect" else "")
            span = self.tracer.span(f"cli.{name}") if self.tracer is not None \
                else contextlib.nullcontext()
            mark = self.speed.mark()
            with span, contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main([name] + argv)
            seconds = self.speed.scaled(mark)
            if rc != 0:
                raise RuntimeError(f"exit code {rc}")
            return seconds

        return self.ledger.attempt(f"roc {name}", op)

    def detect_and_eval(self):
        p = self.paths
        detect_op, detect_s = self.command("detect", [
            "--model", p["model.txt"], "--frames", p["frames"], "--out", p["dets.csv"],
            "--bias", repr(self.bias), "--workers", "1"])
        if detect_s is None:
            return
        eval_op, eval_s = self.command("eval", [
            "--detections", p["dets.csv"], "--annotations", p["annotations.txt"],
            "--roc-out", p["roc.csv"], "--pr-out", p["pr.csv"]])
        if eval_s is None:
            return
        self.detect_s.append(detect_s)
        self.eval_s.append(eval_s)
        self.output(detect_op, "dets.csv")
        self.output(eval_op, "roc.csv")
        self.output(eval_op, "pr.csv")
        self.check_roc(eval_op)

    def output(self, op_id, name):
        with open(self.paths[name], "rb") as fh:
            self.ledger.output(op_id, f"roc.{name}", fh.read())

    def check_roc(self, op_id):
        with open(self.paths["roc.csv"], "r", encoding="utf-8") as fh:
            rows = [tuple(float(v) for v in line.split(",")) for line in fh.readlines()[1:]]
        fp = [r[1] for r in rows]
        tpr = [r[2] for r in rows]
        if len(rows) < 2 or fp != sorted(fp) or tpr != sorted(tpr):
            self.ledger.fail(op_id, "roc.roc.csv", "curve is not monotone")

    def unit_seconds(self):
        pairs = [d + e for d, e in zip(self.detect_s, self.eval_s)]
        return statistics.median(pairs) / self.sizes.roc_frames

    def named_metrics(self):
        return [("detect_fps", self.sizes.roc_frames / statistics.median(self.detect_s),
                 "frames/s"),
                ("eval_s", statistics.median(self.eval_s), "s")]


WORKLOADS = {w.name: w for w in (TrainWorkload, ScanWorkload, RocWorkload)}


def percentile(sorted_values: list[float], p: int) -> float:
    """Linear-interpolated percentile of already sorted values."""
    k = (len(sorted_values) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (k - lo)


def tail_percentile(n: int) -> int | None:
    """The highest of p99, p95, p90, p75 with at least ten of n samples beyond it."""
    for p in (99, 95, 90, 75):
        if n * (100 - p) >= 1000:
            return p
    return None


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

@dataclass
class Result:
    workload: str
    ledger: Ledger
    metrics: dict[str, float]            # end-to-end, or per-layer when traced
    named: list[tuple[str, float, str]]  # the workload's own end-to-end figures
    table: list[str]                     # per-layer table, traced runs only


def loop(workload: Workload, seconds: float, whole_passes: bool, min_passes: int,
         tracer=None) -> int:
    """Run steps until ``seconds`` have passed; returns the whole passes run.

    At least ``min_passes`` whole passes and ``workload.min_steps`` steps
    run. With ``whole_passes`` the clock is only read between passes.
    """
    deadline = time.perf_counter() + seconds
    passes = steps = 0
    while True:
        with tracer.span("bench.pass") if tracer is not None else contextlib.nullcontext():
            for step in workload.steps():
                if (not whole_passes and passes >= min_passes
                        and steps >= workload.min_steps
                        and time.perf_counter() >= deadline):
                    return passes
                step()
                steps += 1
            workload.end_pass()
        passes += 1
        if passes >= min_passes and time.perf_counter() >= deadline:
            return passes


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setups(workload: Workload) -> float:
    """Median scaled seconds of ``setup_reps`` set-ups."""
    times = []
    for rep in range(workload.sizes.setup_reps):
        mark = workload.speed.mark()
        workload.setup(first=rep == 0)
        times.append(workload.speed.scaled(mark))
    return statistics.median(times)


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes: Sizes,
                 out_dir: str, fixtures: dict, expected: dict | None) -> Result:
    """Set up ``sizes.setup_reps`` times, then measure for ``seconds``.

    Untraced, the metrics are units_per_s, setup_s and peak_rss_mb. Traced,
    the first half runs untraced as the overhead baseline and the second
    half runs whole passes with every layer wrapped; the metrics are the
    per-layer figures averaged per pass, plus the overhead in percent.
    """
    ledger = Ledger(expected)
    workdir = os.path.join(out_dir, f"work-{name}-{os.getpid()}")
    workload = WORKLOADS[name](seed, sizes, ledger, fixtures, workdir)
    try:
        with HostSpeed() as workload.speed:
            return _measure(workload, setup_s=timed_setups(workload), seconds=seconds,
                            trace=trace, out_dir=out_dir)
    except statistics.StatisticsError:
        raise RuntimeError(f"{name}: no operation of some kind succeeded, so it has no "
                           f"timing; failures: {ledger.failures}") from None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(workload: Workload, setup_s: float, seconds: float, trace: bool,
             out_dir: str) -> Result:
    name, ledger = workload.name, workload.ledger
    if not trace:
        loop(workload, seconds, whole_passes=False, min_passes=1)
        metrics = {"units_per_s": 1.0 / workload.unit_seconds(),
                   "setup_s": setup_s,
                   "peak_rss_mb": peak_rss_mb()}
        return Result(name, ledger, metrics, workload.named_metrics(), [])

    loop(workload, seconds / 2, whole_passes=False, min_passes=0)
    untraced_unit = workload.unit_seconds()
    workload.reset_samples()
    tracer = Tracer()
    workload.tracer = tracer
    workload.speed.factors.clear()
    with tracer.installed():
        t0 = time.perf_counter()
        workload.speed.tracer = tracer
        passes = loop(workload, seconds / 2, whole_passes=True, min_passes=1,
                      tracer=tracer)
        workload.speed.tracer = None
        wall = time.perf_counter() - t0
    workload.tracer = None
    overhead = workload.unit_seconds() / untraced_unit - 1.0
    # span seconds are raw; scale them like every other timing
    metrics = layer_metrics(tracer, passes, statistics.median(workload.speed.factors))
    metrics["trace.overhead"] = 100.0 * overhead
    table = layer_table(tracer, wall)
    # self times telescope to the root spans; what the roots miss is
    # loop bookkeeping, which must stay within the tracing overhead
    self_total = sum(row[2] for row in tracer.layer_totals().values()) * 1e-9
    gap = wall - self_total
    allowed = max(abs(overhead) / (1.0 + overhead) * wall, 0.001 * wall)
    table.append(f"self times sum to {self_total:.6f} s of {wall:.6f} s traced wall "
                 f"(gap {gap:.6f} s, allowed {allowed:.6f} s); overhead "
                 f"{100.0 * overhead:.2f} % over {passes} pass(es)")
    if not 0.0 <= gap <= allowed:
        ledger.fail(ledger.attempted, "trace.self_time_sum",
                    f"gap {gap!r} s outside [0, {allowed!r}] s")
    tracer.write_spans(os.path.join(out_dir, f"spans-{name}.csv"))
    with open(os.path.join(out_dir, f"layers-{name}.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(table) + "\n")
    return Result(name, ledger, metrics, workload.named_metrics(), table)
