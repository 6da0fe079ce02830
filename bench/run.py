"""Benchmark of the eum command line: one workload per invocation.

    python3 bench/run.py --workload {train,compare-eval} \\
        [--seed 7] [--seconds 40] [--trace 0|1]

A workload is a sequence of `eum` commands (see workloads()). Each command
runs in a fresh Python process started through child.py, with EUM_THREADS
and every BLAS thread variable set to 1. One invocation:

1. records the environment (probe child);
2. sets up the inputs (both datasets and the SRT checkpoint), in fresh
   directories, at least `min_setups` times and until `setup_seconds` have
   passed; keeps the first (setup_s is the median);
3. runs the command sequence once untimed and checks its outputs against
   the oracles (checks.py, in a child process);
4. repeats the sequence, each time in a fresh directory deleted after its
   outputs are hashed, while another repetition fits in --seconds; every
   repetition must reproduce the checked one byte for byte.

With --trace 0 the last stdout line holds the end-to-end metrics, each the
median over the timed repetitions. With --trace 1 half the time runs
untraced and half traced (child.py wraps every public eum function in a
span), and the last line holds the per-layer metrics of layers.py, each the
median over the traced repetitions, plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402

WORK = BENCH / "_work"
THREAD_VARS = (
    "EUM_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "BLIS_NUM_THREADS",
)
DEADLINE_S = 170.0  # the whole invocation, set-up and checks included
STARTUP_PROBES = 3
# artifacts a rerun must reproduce byte for byte; manifests are left out so
# they may record timings
DETERMINISTIC = ("report.json", "compare.csv", "history*.csv", "*.eum", "*.emb")


@dataclass(frozen=True)
class Profile:
    """Input sizes. FULL is the benchmark; the smoke test uses a tiny one."""

    big_data: tuple[str, ...]  # gen-data flags for the train workload
    small_data: tuple[str, ...]  # gen-data flags for compare-eval
    train_schedule: tuple[str, ...]
    compare_schedule: tuple[str, ...]
    min_setups: int
    setup_seconds: float


FULL = Profile(
    big_data=(),  # the default SynthSpec: 1000 identities, 40 000 records
    small_data=("--identities", "200"),
    train_schedule=("--max-iters", "500", "--lr-drops", "200", "400", "--val-every", "100"),
    compare_schedule=("--max-iters", "250", "--lr-drops", "100", "200", "--val-every", "50"),
    min_setups=3,
    setup_seconds=5.0,
)
MAX_SETUPS = 15


def _iters(schedule: tuple[str, ...]) -> int:
    return int(schedule[schedule.index("--max-iters") + 1])


@dataclass(frozen=True)
class Workload:
    name: str
    setup: tuple[tuple[str, ...], ...]  # eum argv, run in the set-up directory
    rep: tuple[tuple[str, ...], ...]  # eum argv, run in a fresh repetition directory
    checks: tuple[tuple[str, ...], ...]  # checks.py check name and arguments


def workloads(profile: Profile, seed: int) -> dict[str, Workload]:
    """The two workloads; why each exists is in bench/README.md.

    They share one set-up: both datasets and an SRT checkpoint trained on
    the small one with the train schedule.
    """
    s = ("--seed", str(seed))
    sched = profile.train_schedule
    setup = (
        ("gen-data", "--out", "big.emb", *profile.big_data, *s),
        ("gen-data", "--out", "small.emb", *profile.small_data, *s),
        ("train", "--data", "small.emb", "--out", "ckpt", "--loss", "srt", *sched, *s),
    )
    big = ("--data", "../setup/big.emb")
    return {
        "train": Workload(
            "train",
            setup,
            rep=(
                ("train", *big, "--out", "srt", "--loss", "srt", *sched, *s),
                ("train", *big, "--out", "triplet", "--loss", "triplet", *sched, *s),
            ),
            checks=(("train", str(_iters(sched))),),
        ),
        "compare-eval": Workload(
            "compare-eval",
            setup,
            rep=(
                ("gen-data", "--out", "data.emb", *profile.small_data, *s),
                ("compare", "--data", "data.emb", "--out", "cmp", *profile.compare_schedule, *s),
                (
                    "eval", "--data", "data.emb", "--setting", "fm",
                    "--model", "../setup/ckpt/model.eum", "--out", "fm",
                ),
            ),
            checks=(("compare", str(_iters(profile.compare_schedule))), ("eval-fm",)),
        ),
    }


def child_env() -> dict[str, str]:
    """Thread caps set outright, never defaulted: a cap that arrives after
    numpy has loaded OpenBLAS silently does nothing."""
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


@dataclass
class Command:
    argv: tuple[str, ...]
    wall_s: float
    rc: int
    peak_rss_mb: float
    blas_threads: int
    spans: list | None

    @property
    def failed(self) -> bool:
        return self.rc != 0 or self.blas_threads != 1


class Runner:
    """Starts children, times them and keeps what every run needs."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.logs = work / "logs"
        self.logs.mkdir()
        self.env = child_env()
        self.count = 0

    def _spawn(self, args: list[str], cwd: Path, log: Path) -> tuple[float, int, float]:
        """Run one child to completion: (wall s, exit code, peak RSS MB).

        Peak RSS comes from this child's own rusage (os.wait4); the
        cumulative RUSAGE_CHILDREN would report the largest child so far.
        """
        with open(log, "wb") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], cwd=cwd, env=self.env, stdout=fh, stderr=subprocess.STDOUT
            )
            timer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                os.waitpid(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss / 1024.0

    def command(self, argv: tuple[str, ...], cwd: Path, trace: bool) -> Command:
        self.count += 1
        sidecar = self.logs / f"{self.count}.json"
        child = [str(BENCH / "child.py"), "run", str(sidecar), str(self.count), str(int(trace))]
        log = self.logs / f"{self.count}.out"
        wall, rc, rss = self._spawn([*child, *argv], cwd, log)
        info = json.loads(sidecar.read_text()) if sidecar.exists() else {}
        sidecar.unlink(missing_ok=True)
        if rc != 0:
            text = log.read_text(errors="replace")
            print(f"command failed (exit {rc}): eum {' '.join(argv)}\n{text}", file=sys.stderr)
        return Command(argv, wall, rc, rss, info.get("blas_threads", -1), info.get("spans"))

    def check(self, name: str, setup: Path, rep: Path, *args: str) -> list[str]:
        """Problems checks.py finds in a repetition's outputs."""
        log = self.logs / "check.out"
        cmd = [str(BENCH / "checks.py"), name, str(setup), str(rep), *args]
        _, rc, _ = self._spawn(cmd, self.work, log)
        text = log.read_text(errors="replace")
        if rc != 0:
            return [f"check {name} failed (exit {rc}): {text[-2000:]}"]
        return json.loads(text.splitlines()[-1])

    def probe(self) -> dict:
        sidecar, log = self.logs / "probe.json", self.logs / "probe.out"
        _, rc, _ = self._spawn([str(BENCH / "child.py"), "probe", str(sidecar)], self.work, log)
        if rc != 0:
            raise RuntimeError("cannot import eum: " + log.read_text(errors="replace"))
        return json.loads(sidecar.read_text())

    def startup_s(self) -> float:
        """Median wall time of a child that only imports eum."""
        return statistics.median(
            self._spawn(["-c", "import eum"], self.work, self.logs / "startup.out")[0]
            for _ in range(STARTUP_PROBES)
        )


def _hashes(directory: Path) -> dict[str, str]:
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for pattern in DETERMINISTIC
        for p in sorted(directory.rglob(pattern))
    }


def _output_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def _history_rows(directory: Path) -> int:
    rows = 0
    for path in directory.rglob("history*.csv"):
        with open(path) as fh:
            rows += sum(1 for _ in fh) - 1
    return rows


@dataclass
class Rep:
    commands: list[Command]
    output_bytes: int
    history_rows: int

    @property
    def run_s(self) -> float:
        return sum(c.wall_s for c in self.commands)

    @property
    def peak_rss_mb(self) -> float:
        return max(c.peak_rss_mb for c in self.commands)

    def wall_of(self, command: str) -> float:
        return sum(c.wall_s for c in self.commands if c.argv[0] == command)


class Session:
    """One invocation: set-up, the checked first repetition, timed ones."""

    def __init__(self, workload: Workload, runner: Runner, profile: Profile):
        self.workload = workload
        self.runner = runner
        self.profile = profile
        self.setup_dir = runner.work / "setup"
        self.setup_s: list[float] = []
        self.reference: dict[str, str] | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _run_all(self, argvs, cwd: Path, trace: bool) -> list[Command]:
        cmds = []
        for argv in argvs:
            cmd = self.runner.command(argv, cwd, trace)
            cmds.append(cmd)
            self.attempted += 1
            self.failed += cmd.failed
            if cmd.blas_threads != 1:
                self.problems.append(f"eum {argv[0]}: BLAS ran {cmd.blas_threads} threads, not 1")
        return cmds

    def set_up(self) -> None:
        first = None
        end = time.monotonic() + self.profile.setup_seconds
        while len(self.setup_s) < self.profile.min_setups or (
            time.monotonic() < end and len(self.setup_s) < MAX_SETUPS
        ):
            target = self.setup_dir if first is None else self.runner.work / "setup-again"
            target.mkdir()
            cmds = self._run_all(self.workload.setup, target, trace=False)
            if any(c.failed for c in cmds):
                raise RuntimeError(f"set-up of {self.workload.name} failed")
            self.setup_s.append(sum(c.wall_s for c in cmds))
            hashes = _hashes(target)
            if first is None:
                first = hashes
            else:
                if hashes != first:
                    self.problems.append("set-up outputs differ between set-ups of one seed")
                shutil.rmtree(target)

    def rep(self, trace: bool) -> Rep:
        rep_dir = self.runner.work / "rep"
        rep_dir.mkdir()
        try:
            cmds = self._run_all(self.workload.rep, rep_dir, trace)
            rep = Rep(cmds, _output_bytes(rep_dir), _history_rows(rep_dir))
            if any(c.rc != 0 for c in cmds):
                self.problems.append("a command failed")
            elif self.reference is None:
                for name, *args in self.workload.checks:
                    self.problems += self.runner.check(name, self.setup_dir, rep_dir, *args)
                self.reference = _hashes(rep_dir)
            elif _hashes(rep_dir) != self.reference:
                self.problems.append("outputs differ from the checked first repetition")
        finally:
            shutil.rmtree(rep_dir)
        return rep

    def reps_for(self, seconds: float, trace: bool) -> list[Rep]:
        """Repetitions while the next one, as long as the median so far,
        still ends within `seconds`; at least one."""
        end = min(time.monotonic() + seconds, self.runner.deadline)
        reps = [self.rep(trace)]
        while time.monotonic() + _median(r.run_s for r in reps) < end:
            reps.append(self.rep(trace))
        return reps


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


# (name, unit, better, bound); BENCHMARK.json's end_to_end list mirrors this
END_TO_END = [
    ("run_s", "s", "lower", 0.24),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("output_bytes", "bytes", "lower", 0.05),
]


def end_to_end(session: Session, reps: list[Rep]) -> dict[str, tuple[float, int]]:
    """Metric -> (median, sample count)."""
    return {
        "run_s": (_median(r.run_s for r in reps), len(reps)),
        "setup_s": (_median(session.setup_s), len(session.setup_s)),
        "peak_rss_mb": (_median(r.peak_rss_mb for r in reps), len(reps)),
        "output_bytes": (_median(r.output_bytes for r in reps), len(reps)),
    }


def workload_specific(reps: list[Rep]) -> dict[str, tuple[float, int, str]]:
    """Printed for the workloads they apply to; gated through run_s."""
    out: dict[str, tuple[float, int, str]] = {}
    trained = [r for r in reps if r.wall_of("train") > 0]
    out["train_iters_per_s"] = (
        _median(r.history_rows / r.wall_of("train") for r in trained), len(trained), "1/s"
    )
    for name, command in (("eval_s", "eval"), ("compare_s", "compare")):
        walls = [r.wall_of(command) for r in reps if r.wall_of(command) > 0]
        out[name] = (_median(walls), len(walls), "s")
    return out


def per_layer(untraced: list[Rep], traced: list[Rep], startup_s: float) -> dict[str, float]:
    samples = [layers.span_metrics([c.spans or [] for c in r.commands]) for r in traced]
    out = {name: _median(s[name] for s in samples) for name in samples[0]}
    out["cli.output_bytes"] = _median(r.output_bytes for r in traced)
    out["cli.startup_s"] = startup_s
    out["trace.overhead_s"] = _median(r.run_s for r in traced) - _median(r.run_s for r in untraced)
    return {name: out[name] for name, _, _ in layers.PER_LAYER}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def measure(
    workload: Workload,
    seconds: float,
    trace: bool,
    profile: Profile = FULL,
    out=sys.stdout,
) -> dict:
    """Run one workload and print the report; returns the result object."""
    start = time.monotonic()
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        runner = Runner(work, start + DEADLINE_S)
        env = runner.probe()
        env.update(nproc=os.cpu_count(), cpu=_cpu_model())
        print("env " + json.dumps(env, sort_keys=True), file=out)
        session = Session(workload, runner, profile)
        session.set_up()
        check_start = time.monotonic()
        session.rep(trace=False)
        print(f"checked first repetition in {time.monotonic() - check_start:.1f} s", file=out)
        if trace:
            untraced = session.reps_for(seconds / 2, trace=False)
            timed = session.reps_for(seconds / 2, trace=True)
            startup_s = runner.startup_s()
        else:
            timed = session.reps_for(seconds, trace=False)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    for problem in session.problems:
        print(f"problem: {problem}", file=out)
    print(
        f"workload {workload.name}: {len(session.setup_s)} set-ups, 1 checked repetition, "
        f"{len(timed)} {'traced ' if trace else ''}timed repetitions, "
        f"{session.attempted} commands",
        file=out,
    )
    if trace:
        metrics = per_layer(untraced, timed, startup_s)
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        for name, value in metrics.items():
            print(f"  {name:36s} {value:14.6g} {units[name]} (n={len(timed)})", file=out)
    else:
        e2e = end_to_end(session, timed)
        metrics = {name: value for name, (value, _) in e2e.items()}
        units = {name: unit for name, unit, _, _ in END_TO_END}
        for name, (value, n) in e2e.items():
            print(f"  {name:20s} {value:14.6g} {units[name]} (n={n})", file=out)
        walls = " ".join(f"{r.run_s:.3f}" for r in timed)
        print(f"  run_s of each repetition: {walls}", file=out)
        for name, (value, n, unit) in workload_specific(timed).items():
            shown = f"{value:14.6g} {unit}" if n else f"{'n/a':>14s}"
            print(f"  {name:20s} {shown} (n={n})", file=out)
    share = session.failed / session.attempted
    print(
        f"  {'failed_ops_share':20s} {share:14.6g} ratio "
        f"({session.failed} of {session.attempted} commands)",
        file=out,
    )
    result = {
        "correct": not session.problems and session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result), file=out)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads(FULL, 7)))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/eum/cli.py", "tests/oracles.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT}", file=sys.stderr)
        return 2
    # on SIGTERM, unwind so that children are reaped and the work directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workload = workloads(FULL, args.seed)[args.workload]
    try:
        measure(workload, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
