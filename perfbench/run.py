"""Pipeline benchmark for lexnmt: one workload per process.

Run from the repository root:

    python3 perfbench/run.py --workload toy-digits --seed 1 --seconds 30 --trace 0

Every stage runs a ``lexnmt`` command in this process through
``lexnmt.cli.main`` and is timed from outside; its outputs are then checked
(see ``checks.py``).  After one warm-up round, a run repeats whole rounds of
all stages while another round still fits in ``--seconds`` and reports
per-stage medians.  Each time is scaled by the host's speed, measured by a
fixed probe right before and after every operation (``HostSpeed``).  With
``--trace 1`` it runs one plain round and one round under the per-layer
tracer and reports the layer metrics and the tracing overhead instead.  The
last line of standard output is the result as one JSON object.

Models that decode and MRT start from are fixtures: they are trained once per
checkout and source version, in a child process, under ``.perfbench/``.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS to one thread before numpy loads; the info line records it.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time
import traceback

import numpy as np

import checks
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")

STAGES = ("preprocess", "align", "train", "mrt", "decode", "ensemble",
          "checkpoint")
SETUP_MIN_REPS = 11
SETUP_SECONDS = 2.0
# Wall time of one host_probe() on the reference machine (see README.md);
# every reported time is scaled to it.
REFERENCE_PROBE_S = 0.0045
PROBE_WINDOW = 3
FIXTURE_TIMEOUT_S = 840


def log(message):
    print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

def source_key(version):
    """Hash of the package sources, the shipped data and the fixture recipe
    version: fixtures are rebuilt whenever any of them changes."""
    h = hashlib.sha256(version.encode())
    for sub in ("src/lexnmt", "data"):
        base = os.path.join(ROOT, sub)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def fixture_root():
    return os.path.join(WORK, "fixtures", source_key(workloads.FIXTURE_VERSION))


def build_fixtures(names, fx_root, sizes=None):
    """Build each missing fixture into a temporary directory, then rename."""
    cli = importlib.import_module("lexnmt.cli")
    for name in names:
        final = os.path.join(fx_root, name)
        if os.path.isdir(final):
            continue
        workload = workloads.WORKLOADS[name]
        tmp = f"{final}.tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sys.stderr):
            workload.fixture(cli.main, ROOT, tmp,
                             sizes[name] if sizes else workload.sizes)
        os.rename(tmp, final)
        log(f"fixture {name}: built in {time.perf_counter() - t0:.1f} s")


def ensure_fixtures():
    """Fixtures are built in a child process, so neither their time nor their
    memory lands in the measured process."""
    fx_root = fixture_root()
    missing = [n for n in workloads.WORKLOADS
               if not os.path.isdir(os.path.join(fx_root, n))]
    if missing:
        parent = os.path.dirname(fx_root)
        if os.path.isdir(parent):   # fixtures of older sources
            for stale in set(os.listdir(parent)) - {os.path.basename(fx_root)}:
                shutil.rmtree(os.path.join(parent, stale))
        log(f"building fixtures: {', '.join(missing)}")
        subprocess.run([sys.executable, os.path.abspath(__file__),
                        "--build-fixtures", *missing],
                       cwd=ROOT, stdout=subprocess.DEVNULL, check=True,
                       timeout=FIXTURE_TIMEOUT_S)
    return fx_root


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------

_PROBE_RNG = np.random.default_rng(0)
_PROBE_W = _PROBE_RNG.standard_normal((64, 96)) * 0.1
_PROBE_B = _PROBE_RNG.standard_normal(64)


def host_probe(steps=200):
    """A few milliseconds of fixed work in the package's own style: small
    numpy operations driven from a Python loop.  It shares no code with
    lexnmt, so a change to the package does not move it."""
    h = np.zeros(96)
    acc = {}
    for i in range(steps):
        x = np.tanh(_PROBE_W @ h + _PROBE_B)
        h = np.concatenate((x, h[64:] * 0.5))
        acc[i % 13] = float(x.sum())
        h[:8] += np.outer(x, h[:8]).sum(0) * 1e-3
    return acc


class HostSpeed:
    """Wall times scaled by the host's speed at the moment they were taken.

    The host's speed drifts by a quarter and more within a minute, in phases
    of a few seconds.  Every timed call is preceded and followed by a
    ``host_probe()``; a call's time is scaled by the median of the
    ``PROBE_WINDOW`` probes on either side of it, to what it takes when a probe
    takes REFERENCE_PROBE_S.  The median keeps a probe that was interrupted
    from distorting the calls next to it.
    """

    def __init__(self):
        self.probes = []          # wall seconds of each probe, in run order

    def _probe(self):
        t0 = time.perf_counter()
        host_probe()
        self.probes.append(time.perf_counter() - t0)

    def time(self, fn):
        """(result of ``fn``, (wall seconds, index of the probe before))."""
        self._probe()
        before = len(self.probes) - 1
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        self._probe()
        return result, (elapsed, before)

    def probe_s(self, before):
        lo = max(0, before - PROBE_WINDOW + 1)
        return statistics.median(self.probes[lo:before + 1 + PROBE_WINDOW])

    def scaled(self, timings):
        """Reference-probe seconds of (wall seconds, probe index) pairs."""
        return [elapsed * REFERENCE_PROBE_S / self.probe_s(before)
                for elapsed, before in timings]


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def purge_package():
    for name in [n for n in sys.modules
                 if n == "lexnmt" or n.startswith("lexnmt.")]:
        del sys.modules[name]


def measure_setup(plan):
    """Median time to import the package and load the fixture checkpoints,
    lexicon and merges, as (wall, scaled).  Each repetition imports the
    package afresh; numpy and scipy stay imported after the first, so the
    median leaves them out."""
    def setup():
        importlib.import_module("lexnmt.cli")
        model = sys.modules["lexnmt.model"]
        loaded = [model.load_checkpoint(path) for path in plan.models]
        if plan.lexicon:
            sys.modules["lexnmt.align"].load_lexicon(plan.lexicon,
                                                     loaded[0][1], loaded[0][2])
        if plan.bpe:
            sys.modules["lexnmt.corpus"].load_bpe(plan.bpe)

    speed = HostSpeed()
    timings = []
    start = time.perf_counter()
    while (len(timings) < SETUP_MIN_REPS
           or time.perf_counter() - start < SETUP_SECONDS):
        purge_package()
        timings.append(speed.time(setup)[1])
    return (statistics.median(t for t, _ in timings),
            statistics.median(speed.scaled(timings)))


class Bench:
    """Runs the stages of one plan, checks their outputs and keeps times."""

    def __init__(self, plan, seed, oracles, corrupt=None):
        self.plan = plan
        self.seed = seed
        self.oracles = oracles
        self.corrupt = corrupt
        self.cli = importlib.import_module("lexnmt.cli")
        self.tracer = None
        self.speed = HostSpeed()
        # stage -> (wall seconds, probe index, units of work) per operation
        self.times = {s: [] for s in STAGES}
        self.keep_times = True
        self.attempted = 0
        self.failed = 0
        self.checkpoint_mb = None

    # -- one operation -------------------------------------------------------

    def _cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main([str(a) for a in argv])
        return code, out.getvalue(), err.getvalue()

    def _unchecked(self, fn):
        """Checks run with the tracer paused, so they add to no layer."""
        if self.tracer is not None:
            self.tracer.active = False
        try:
            return fn()
        finally:
            if self.tracer is not None:
                self.tracer.active = True

    def op(self, stage, run, check, outputs=()):
        """Time ``run`` once, then check its outputs; a crash, a nonzero exit
        or a wrong output is a failed operation.  ``outputs`` names the files
        the self-check may corrupt before the check."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.stage = stage

        def guarded():
            try:
                return run()
            except Exception:
                return "exception", "", traceback.format_exc()

        (code, out, err), timing = self.speed.time(guarded)
        elapsed = timing[0]
        if self.tracer is not None:
            self.tracer.stage = None
        if code != 0:
            problems = [f"exit {code}: {err.strip()[-500:]}"]
        else:
            if self.corrupt is not None:
                self.corrupt(stage, outputs)
            try:
                problems = self._unchecked(lambda: check(out, err))
            except Exception:
                problems = [f"check raised: {traceback.format_exc()[-500:]}"]
        if problems:
            self.failed += 1
            log(f"FAILED {stage}: {problems[0]}")
        elif self.keep_times:
            self.times[stage].append((*timing, self.units(stage)))
        return elapsed

    # -- stages --------------------------------------------------------------

    def round(self, reps, index):
        """One pass over all stages; returns the summed operation time.

        Round ``index`` draws its own training subsets, training seeds and
        (wide-vocab) corpus from the run seed, so a run's medians average
        over many draws."""
        p, c = self.plan, checks
        total = 0.0
        rng = np.random.default_rng([self.seed, 4, index])
        train_seed = self.seed * 1000 + index
        if p.redraw is not None:
            p.redraw(rng)
        pre_files = workloads.split_files(p.pre)
        argv = workloads.preprocess_argv(p.raw, p.pre, p.merges)
        for _ in range(reps.get("preprocess", 1)):
            total += self.op("preprocess", lambda: self._cli(argv),
                             lambda out, err: c.check_preprocess(p.raw, pre_files))
        for sub in p.subsets:
            sub.write(rng)

        lexicon_out = os.path.join(os.path.dirname(p.pre), "lexicon.tsv")
        argv = ["align", "--src", p.align_src, "--tgt", p.align_tgt,
                "--src-vocab", p.src_vocab, "--tgt-vocab", p.tgt_vocab,
                "--out", lexicon_out, "--iterations", p.iterations,
                "--min-prob", 0]
        for _ in range(reps.get("align", 1)):
            total += self.op("align", lambda: self._cli(argv),
                             lambda out, err: c.check_lexicon_sums(lexicon_out),
                             [lexicon_out])

        ml_dir = os.path.join(os.path.dirname(p.pre), "ml")
        argv = ["train", *workloads.data_argv(p.train), "--src-vocab", p.src_vocab,
                "--tgt-vocab", p.tgt_vocab, "--run-dir", ml_dir,
                *p.train_flags, "--max-epochs", p.epochs, "--seed", train_seed]
        load = lambda: sys.modules["lexnmt.model"].load_checkpoint
        for _ in range(reps.get("train", 1)):
            total += self.op("train", lambda: self._cli(argv),
                             lambda out, err: c.check_dev_nll(
                                 load(), self.oracles, ml_dir,
                                 p.train["dev_src"], p.train["dev_tgt"],
                                 _flag(p.train_flags, "--lexicon")))

        mrt_dir = os.path.join(os.path.dirname(p.pre), "mrt")
        argv = ["mrt-train", *workloads.data_argv(p.mrt), "--init", p.init,
                "--run-dir", mrt_dir, *p.mrt_flags, "--seed", train_seed]
        for _ in range(reps.get("mrt", 1)):
            total += self.op("mrt", lambda: self._cli(argv),
                             lambda out, err: c.check_mrt_log(mrt_dir))

        for stage, n_models in (("decode", 1), ("ensemble", 2)):
            hyp = os.path.join(os.path.dirname(p.pre), f"{stage}.hyp")
            scores = hyp + ".scores"
            argv = ["decode", "--input", p.decode_input]
            for path in p.models[:n_models]:
                argv += ["--checkpoint", path]
            if p.bpe:
                argv += ["--bpe", p.bpe]
            if p.lexicon:
                argv += ["--lexicon", p.lexicon]
            argv += [*p.decode_flags, "--output", hyp, "--scores", scores]

            def check(out, err, n_models=n_models, hyp=hyp, scores=scores):
                problems = c.check_decode(load(), self.oracles, p, n_models,
                                          hyp, scores, err)
                if not problems and p.reference:
                    code, out, _ = self._cli(["score", "--hyp", hyp,
                                              "--ref", p.reference])
                    problems = (c.check_bleu(hyp, p.reference, out.strip())
                                if code == 0 else [f"score exit {code}"])
                return problems

            for _ in range(reps.get(stage, 1)):
                total += self.op(stage, lambda argv=argv: self._cli(argv), check,
                                 [hyp, scores])

        for _ in range(reps.get("checkpoint", 1)):
            total += self._checkpoint_op(os.path.join(ml_dir, "model.ckpt"))
        return total

    def _checkpoint_op(self, trained):
        """save_checkpoint plus load_checkpoint of the trained model."""
        model = sys.modules["lexnmt.model"]
        loaded = self._unchecked(lambda: model.load_checkpoint(trained))
        path = os.path.join(os.path.dirname(self.plan.pre), "io.ckpt")
        result = {}

        def run():
            model.save_checkpoint(path, *loaded)
            result["back"] = model.load_checkpoint(path)
            return 0, "", ""

        def check(out, err):
            params, src_vocab, tgt_vocab = result["back"]
            if sorted(params.tensors) != sorted(loaded[0].tensors):
                return ["tensor names changed in the round trip"]
            for name, value in loaded[0].tensors.items():
                if not (params.tensors[name] == value).all():
                    return [f"tensor {name} changed in the round trip"]
            if (src_vocab.tokens != loaded[1].tokens
                    or tgt_vocab.tokens != loaded[2].tokens):
                return ["vocabulary changed in the round trip"]
            self.checkpoint_mb = 2 * os.path.getsize(path) / 1e6
            return []

        return self.op("checkpoint", run, check)

    # -- results ---------------------------------------------------------------

    def units(self, stage):
        """Units of work of the operation of ``stage`` that just passed."""
        p = self.plan
        if stage == "preprocess":
            return sum(len(line.split()) for path in p.raw.values()
                       for line in checks.read_lines(path))
        if stage == "align":
            return checks.align_links(p.align_src, p.align_tgt) * p.iterations
        if stage == "train":
            return p.epochs * sum(len(line.split()) + 1 for line in
                                  checks.read_lines(p.train["train_tgt"]))
        if stage == "mrt":
            return len(checks.read_lines(p.mrt["train_src"]))
        if stage in ("decode", "ensemble"):
            return len(checks.read_lines(p.decode_input))
        return self.checkpoint_mb

    def wall(self):
        return {s: [t[0] for t in timings] for s, timings in self.times.items()}

    def scaled(self):
        return {s: self.speed.scaled(t[:2] for t in timings)
                for s, timings in self.times.items()}

    def rates(self):
        """Stage -> median over its operations of units per scaled second."""
        scaled = self.scaled()
        return {s: statistics.median(t[2] / x for t, x in
                                     zip(self.times[s], scaled[s]))
                for s in STAGES if self.times[s]}


def _flag(flags, name):
    return flags[flags.index(name) + 1] if name in flags else None


END_TO_END = (("preprocess_words_per_s", "preprocess", "words/s"),
              ("align_links_per_s", "align", "links/s"),
              ("ml_train_tokens_per_s", "train", "tokens/s"),
              ("mrt_train_sents_per_s", "mrt", "sentences/s"),
              ("decode_sents_per_s", "decode", "sentences/s"),
              ("ensemble_decode_sents_per_s", "ensemble", "sentences/s"),
              ("checkpoint_mb_per_s", "checkpoint", "MB/s"))


def run_workload(name, seed, seconds, trace, fx_root, sizes=None, corrupt=None):
    """Run one workload; returns (result dict, info dict)."""
    workload = workloads.WORKLOADS[name]
    if sizes is not None:
        workload = workloads.Workload(workload.name, sizes, workload.fixture,
                                      workload.plan)
    run_dir = os.path.join(WORK, "runs", f"{name}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        fx = os.path.join(fx_root, name)
        plan = workload.plan(ROOT, run_dir, fx, seed, workload.sizes)
        setup_s = (None, None) if trace else measure_setup(plan)
        tests = os.path.join(ROOT, "tests")
        if tests not in sys.path:
            sys.path.append(tests)
        oracles = importlib.import_module("oracles")
        bench = Bench(plan, seed, oracles, corrupt)
        info = {"workload": name, "seed": seed, "trace": trace}
        if trace:
            plain = bench.round({}, 0)
            tracer = tracing.Tracer()
            tracer.install()
            bench.tracer = tracer
            try:
                traced = bench.round({}, 0)
            finally:
                tracer.uninstall()
            layers = tracing.layer_metrics(tracer, traced - plain)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
            info.update(rounds=1, plain_s=plain, traced_s=traced,
                        missing_names=tracer.missing)
        else:
            # One warm-up round: its operations are checked and counted,
            # but first-call costs stay out of the times.
            bench.keep_times = False
            bench.round(plan.reps, 0)
            bench.keep_times = True
            start = time.perf_counter()
            rounds = 0
            while True:
                t0 = time.perf_counter()
                bench.round(plan.reps, rounds + 1)
                rounds += 1
                last = time.perf_counter() - t0
                if time.perf_counter() - start + last > seconds:
                    break
            scaled, wall = bench.scaled(), bench.wall()
            medians = {s: statistics.median(t) for s, t in scaled.items() if t}
            rates = bench.rates()
            metrics = {"setup_s": {"value": setup_s[1], "unit": "s"}}
            for metric, stage, unit in END_TO_END:
                metrics[metric] = {"value": rates.get(stage, 0.0), "unit": unit}
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics["peak_rss_mb"] = {"value": rss_kb / 1024, "unit": "MB"}
            info.update(rounds=rounds,
                        units={s: bench.units(s) for s in STAGES},
                        setup_wall_s=setup_s[0],
                        stage_median_s=medians,
                        stage_wall_median_s={s: statistics.median(t)
                                             for s, t in wall.items() if t},
                        probe_median_s=statistics.median(bench.speed.probes),
                        stage_times_s=wall, stage_scaled_s=scaled,
                        ops={s: len(t) for s, t in bench.times.items()})
        # Failed operations are counted in "failed"; every other operation
        # passed its check, so the run is correct unless a stage never did.
        correct = all(bench.times[s] for s in STAGES)
        result = {"correct": correct, "attempted": bench.attempted,
                  "failed": bench.failed, "metrics": metrics}
        return result, info
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def environment():
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {"machine": platform.machine(), "processor": platform.processor(),
            "cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--build-fixtures", nargs="+", metavar="WORKLOAD",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "lexnmt")):
        log(f"no package source at {os.path.join(ROOT, 'src', 'lexnmt')}; "
            "run from a full checkout of the repository")
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.build_fixtures:
        build_fixtures(args.build_fixtures, fixture_root())
        return 0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    fx_root = ensure_fixtures()
    result, info = run_workload(args.workload, args.seed, args.seconds,
                                args.trace, fx_root)
    info["environment"] = environment()
    print(json.dumps({"info": info}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
