"""Benchmark of the fockop command line: the analyze, oracle and verify workloads.

Run from the root of a fockop checkout (the program is imported from ./src):

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 30 --trace 0

One operation is one CLI command on one problem file, called in process as
``fockop.cli.main(argv)`` with stdout captured; one client runs them in a
closed loop.  A round is every operation of the workload in passes, the
short ones repeated over several of them (``Op.repeat``), each pass in an
order drawn from the seed.  After an untimed warm-up,
rounds repeat while another one fits in ``--seconds`` (at least one).  The
reports of the first round are checked against references computed apart from
fockop (see checks.py); later repeats must reproduce them byte for byte.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` untraced and traced rounds alternate,
and the metrics are per module and per traced round (see tracing.py), with
the tracing overhead.  Spans are written to perfbench/out/.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
CORPUS = ROOT / "corpus"
OUT = HERE / "out"

WORKLOADS = ("analyze", "oracle", "verify")
SUITES = ("lemmas", "sandwich", "normalization-independence", "witness", "carleson")
#: fresh interpreters started to time set-up; the median is reported
SETUP_PROBES = 5
#: passes per round on ``analyze``: the numeric families (0.05-1 s) run once,
#: the closed-form commands (2-7 ms) in every pass
ANALYZE_PASSES = 3
#: passes per round on ``verify``: the two long operations (1.5-4 s), the
#: lemmas and the one Carleson check that integrates, run once; every other
#: operation (1-200 ms) runs in every pass
VERIFY_PASSES = 6
VERIFY_LONG = ("09_collapse_compact:carleson",)
#: passes per round on ``oracle``: the unbounded problems (10-20 ms each) run
#: in every pass, the bounded ones (0.1-0.3 s) in a few, the n = 3 one once
ORACLE_PASSES = 80
ORACLE_BOUNDED_REPEATS = 4
SETUP_CODE = (
    "import sys; from pathlib import Path; sys.path.insert(0, sys.argv[1]); "
    "import fockop.cli as cli; [cli.load_problem(Path(f)) for f in sys.argv[2:]]"
)


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile: the smallest value with ``fraction`` of the values at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(fraction * len(ordered) - 1e-9))
    return ordered[rank - 1]


@dataclass
class Op:
    """One CLI command; ``check`` turns (exit code, stdout) into a list of errors.

    ``repeat`` is how many times a round runs it, in separate passes over the
    round.  Short operations run several times so that their fastest repeat
    rests on enough samples; long ones average the noise over their own length.
    """

    name: str
    argv: list
    check: object
    repeat: int = 1


@dataclass
class Result:
    seconds: float
    rc: object  # exit code, or the exception the command raised
    out: str


def run_op(cli, op: Op) -> Result:
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(op.argv)
    except Exception as exc:  # a crash is a failed operation, not a failed benchmark
        rc = exc
    return Result(time.perf_counter() - start, rc, out.getvalue())


def fastest(rounds) -> list[float]:
    """Each operation's fastest time over the rounds and their repeats.

    Every repeat does the same deterministic work, so the fastest one is the
    operation's cost with the least interference from other load on the
    machine.
    """
    return [min(res.seconds for results in rounds for res in results[i]) for i in range(len(rounds[0]))]


def schedule(ops) -> list[list[int]]:
    """The passes of a round: each operation's repeats spread evenly over them.

    A round makes as many passes as the most repeated operation has repeats,
    and repeat ``j`` of ``k`` falls in pass ``(2j + 1) * passes // (2k)``.
    An operation run once sits in the middle pass, so the repeats of the short
    ones lie both before and after it, not in one stretch of time.
    """
    passes = max(op.repeat for op in ops)
    plan = [[] for _ in range(passes)]
    for i, op in enumerate(ops):
        for j in range(op.repeat):
            plan[(2 * j + 1) * passes // (2 * op.repeat)].append(i)
    return plan


def run_round(cli, ops, rng=None) -> tuple[float, list[list[Result]]]:
    """Every operation ``op.repeat`` times; returns the wall time and each operation's results.

    With ``rng`` each pass runs its operations in a fresh order.  In a fixed
    order an operation always follows the same one, and whatever that one
    leaves behind (caches, allocator state) would weigh on every repeat alike,
    where the fastest repeat cannot remove it.
    """
    start = time.perf_counter()
    results = [[] for _ in ops]
    for pass_ops in schedule(ops):
        if rng is not None:
            rng.shuffle(pass_ops)
        for i in pass_ops:
            results[i].append(run_op(cli, ops[i]))
    return time.perf_counter() - start, results


# -- workloads -------------------------------------------------------------------


def _write(problems, directory: Path) -> dict:
    directory.mkdir(parents=True, exist_ok=True)
    for old in directory.glob("*.json"):
        old.unlink()
    paths = {}
    for prob in problems:
        paths[prob.name] = directory / f"{prob.name}.json"
        paths[prob.name].write_text(json.dumps(prob.to_data(), indent=1))
    return paths


def _problem_ops(problems, paths, repeat) -> list[Op]:
    from checks import check_report

    return [
        Op(f"{prob.name}:{cmd}", [cmd, str(paths[prob.name])],
           lambda rc, out, prob=prob, cmd=cmd: check_report(prob, cmd, rc, out), repeat(prob))
        for prob in problems
        for cmd in prob.commands
    ]


def build_workload(workload: str, seed: int):
    """(timed ops, warm-up ops, problem files parsed at set-up)."""
    import problems as gen
    from checks import check_verify

    if workload == "verify":
        files = sorted(CORPUS.glob("*.json"))

        def op(path, suite):
            name = f"{path.stem}:{suite}"
            once = suite == "lemmas" or name in VERIFY_LONG
            return Op(name, ["verify", str(path), "--suite", suite],
                      lambda rc, out: check_verify(rc, out)[0], 1 if once else VERIFY_PASSES)

        # the lemma suite draws its own random symbols and ignores the problems,
        # so it runs once; every other suite runs once per corpus file
        ops = [op(files[0], "lemmas")] + [op(f, s) for s in SUITES[1:] for f in files]
        warm = [Op("warm-up", ["verify", str(files[1]), "--lemma-count", "4"], None)]
        return ops, warm, files

    if workload == "analyze":
        problems = gen.analyze_problems(seed)
        repeat = lambda prob: 1 if prob.family in gen.NUMERIC_FAMILIES else ANALYZE_PASSES  # noqa: E731
    else:
        # one round per run, so the other operations repeat around the n = 3 one
        problems = gen.oracle_problems(seed, CORPUS)

        def repeat(prob):
            if prob.n == 3:
                return 1
            return ORACLE_PASSES if prob.verdict == gen.UNBOUNDED else ORACLE_BOUNDED_REPEATS
    paths = _write(problems, OUT / f"{workload}-seed{seed}")
    ops = _problem_ops(problems, paths, repeat)
    # warm-up: every command on the first seeded problem of each family
    first = {}
    for prob in problems:
        if prob.family:
            first.setdefault(prob.family, prob)
    warm = _problem_ops(list(first.values()), paths, lambda prob: 1)
    return ops, warm, list(paths.values())


def setup_seconds(files) -> float:
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), *map(str, files)],
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# -- main ------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fockop" / "cli.py").is_file() or not CORPUS.is_dir():
        print(f"perfbench: no fockop sources under {ROOT}; run from the repository root", file=sys.stderr)
        return 2
    # one thread throughout: the verifier's own pool, and BLAS (set before numpy loads)
    os.environ.pop("FOCKOP_THREADS", None)
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    import fockop.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "fockop").resolve():
        print(f"perfbench: imported fockop from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    ops, warm, files = build_workload(args.workload, args.seed)
    metrics = {}
    if not args.trace:
        metrics["setup_s"] = setup_seconds(files)
    run_round(cli, warm)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    order = random.Random(args.seed)
    rounds = []  # (traced, wall seconds, results)
    start = time.perf_counter()
    while True:
        # a traced run alternates untraced and traced rounds, so both see the same load
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        try:
            wall, results = run_round(cli, ops, order)
        finally:
            if traced:
                tracer.uninstall()
        rounds.append((traced, wall, results))
        if time.perf_counter() - start + wall > args.seconds and (tracer is None or traced):
            break

    # correctness: check the first round, then require every later one to repeat it
    first = [results[0] for results in rounds[0][2]]
    errors, failed = [], []
    attempted = 0
    for op, res in zip(ops, first):
        if isinstance(res.rc, Exception):
            continue
        errors += [f"{op.name}: {e}" for e in op.check(res.rc, res.out)]
    for _, _, results in rounds:
        for op, repeats, ref in zip(ops, results, first):
            for res in repeats:
                attempted += 1
                if isinstance(res.rc, Exception):
                    failed.append(f"{op.name}: {type(res.rc).__name__}: {res.rc}")
                elif (res.rc, res.out) != (ref.rc, ref.out):
                    errors.append(f"{op.name}: report differs from its first run")

    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} round(s) of {len(ops)} operations, "
          f"{attempted // len(rounds)} commands each")
    if args.workload == "verify":
        from checks import check_verify

        counts = [check_verify(r.rc, r.out)[1:] for r in first if not isinstance(r.rc, Exception)]
        print(f"verify records per round: {sum(c[0] for c in counts)} passed, "
              f"{sum(c[1] for c in counts)} skipped, {len(errors)} failed")
    for line in sorted(set(failed)):
        print(f"failed: {line}")
    for line in errors:
        print(f"wrong: {line}")

    if tracer:
        traced = [results for is_traced, _, results in rounds if is_traced]
        untraced = [results for is_traced, _, results in rounds if not is_traced]
        metrics.update(tracer.per_layer(len(traced)))
        metrics["trace.overhead_s"] = sum(fastest(traced)) - sum(fastest(untraced))
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
        from tracing import PER_LAYER

        units = dict(PER_LAYER)
    else:
        best = fastest([results for _, _, results in rounds])
        metrics["wall_s"] = sum(best)
        metrics["op_p50_s"] = percentile(best, 0.5)
        metrics["op_p90_s"] = percentile(best, 0.9)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_p90_s": "s", "peak_rss_mb": "MB"}

    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
