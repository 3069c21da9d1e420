"""polydissect benchmark: one command for every workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the package is taken from `src/`
as it stands, with no install step.  Workloads:

* cli: `verify --suite all --format json` on a fixed grid of small
  complexes, and `shelling --format json` on larger generated complexes and
  on three imported facet lists, one fresh interpreter per command;
* faces-codec: enumeration, face round trips and rejections, in-process
  (codec_worker.py).

A run sets up, then repeats whole rounds of the workload's operations, each
round shuffled by the seed, until S seconds have passed; the round under way
finishes.  Every output is checked with oracle.py.  One program process runs
at a time, always with PYTHONHASHSEED fixed.  The last line of standard
output is one JSON object: `correct`, `attempted`, `failed` and `metrics`,
which are the end-to-end metrics of BENCHMARK.json with --trace 0 and its
per-layer metrics, measured by tracer.py, with --trace 1.  Run outputs,
imported facet lists and spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
INPUTS = "perfbench/out/inputs"  # relative to ROOT, because reports echo it
HASH_SEED = "0"
SETUP_REPEATS = 5
OP_TIMEOUT_S = 150

VERIFY_GRID = [("B", 2, 3), ("B", 1, 4), ("B", 3, 3), ("A", 4, 4), ("A", 1, 6), ("A", 2, 5)]
CERTIFY_GENERATED = [("A", 1, 7), ("A", 3, 5), ("B", 1, 6), ("A", 2, 6), ("B", 3, 4)]
EXPORTED = ("B", 2, 4)
PADDED_PATH_EDGES = 300  # names p000 ... p300 sort in path order
UNORDERED_PATH_EDGES = 18  # names v0 ... v18 do not

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def program_env() -> dict[str, str]:
    """Environment of every process that runs the program."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "POLYDISSECT_MAX_FACES"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


ENV = program_env()


def source_digest() -> str:
    """Digest of the program's and the benchmark's sources."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "polydissect").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def spawn(argv: list[str], **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=ENV, capture_output=True,
                          timeout=OP_TIMEOUT_S, **kwargs)


# -- operations ------------------------------------------------------------------


class CliOp:
    """One polydissect command and the check of its JSON report."""

    def __init__(self, name: str, args: list[str], check):
        self.name, self.args, self.check = name, args, check


def verify_op(fam: str, m: int, n: int) -> CliOp:
    args = ["verify", "--family", fam, "--m", str(m), "--n", str(n), "--suite", "all",
            "--format", "json"]
    return CliOp(f"verify {fam}({m},{n})", args,
                 lambda report: oracle.check_verify_report(report, fam, m, n))


def shelling_generated_op(fam: str, m: int, n: int) -> CliOp:
    args = ["shelling", "--family", fam, "--m", str(m), "--n", str(n), "--format", "json"]

    def check(report):
        oracle.expect(report["params"] == {"family": fam, "m": m, "n": n}, "wrong params echoed")
        oracle.check_shelling_report(report, oracle.narayana(fam, m, n),
                                     vertex_count=oracle.f_vector(fam, m, n)[1])
    return CliOp(f"shelling {fam}({m},{n})", args, check)


def shelling_import_op(name: str, path: str, facets: list[list[str]], h) -> CliOp:
    def check(report):
        oracle.expect(report["params"] == {"facets_file": path}, "wrong params echoed")
        oracle.check_shelling_report(report, h, facets=facets)
    return CliOp(f"shelling {name}", ["shelling", "--facets-file", path, "--format", "json"],
                 check)


def write_facets(rel: str, facets: list[list[str]], rng: random.Random) -> None:
    """Write a facet list with its lines and tokens in a seeded order."""
    lines = [" ".join(rng.sample(f, len(f))) for f in facets]
    rng.shuffle(lines)
    (ROOT / rel).write_text("\n".join(lines) + "\n", encoding="utf-8")


def shelling_ops(seed: int) -> list[CliOp]:
    """The shelling commands; writes the imported facet lists (exporting one
    from the program)."""
    rng = random.Random(seed)
    (ROOT / INPUTS).mkdir(parents=True, exist_ok=True)
    fam, m, n = EXPORTED
    done = spawn(["-m", "polydissect.cli", "facets", "--family", fam, "--m", str(m),
                  "--n", str(n), "--format", "lines"])
    if done.returncode != 0:
        raise SystemExit(f"facet export failed: {done.stderr.decode(errors='replace')}")
    exported = [line.split() for line in done.stdout.decode().splitlines()]
    oracle.expect(len(exported) == oracle.f_vector(fam, m, n)[-1], "exported facet count")
    oracle.expect(all(len(f) == n for f in exported), "exported facet size")
    oracle.expect(len({frozenset(f) for f in exported}) == len(exported), "repeated facet")

    padded = [[f"p{i:03d}", f"p{i + 1:03d}"] for i in range(PADDED_PATH_EDGES)]
    unordered = [[f"v{i}", f"v{i + 1}"] for i in range(UNORDERED_PATH_EDGES)]
    lists = [
        (f"export {fam}({m},{n})", "export.txt", exported, oracle.narayana(fam, m, n)),
        (f"path {PADDED_PATH_EDGES} padded", "path-padded.txt", padded,
         oracle.path_h(PADDED_PATH_EDGES)),
        (f"path {UNORDERED_PATH_EDGES} unordered", "path-unordered.txt", unordered,
         oracle.path_h(UNORDERED_PATH_EDGES)),
    ]
    ops = [shelling_generated_op(*p) for p in CERTIFY_GENERATED]
    for name, filename, facets, h in lists:
        rel = f"{INPUTS}/{filename}"
        write_facets(rel, facets, rng)
        ops.append(shelling_import_op(name, rel, facets, h))
    return ops


def setup_cli(seed: int) -> tuple[list[CliOp], list[float]]:
    """Set the workload up SETUP_REPEATS times; returns its operations and
    the duration of each set-up."""
    samples, ops = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ops = [verify_op(*p) for p in VERIFY_GRID] + shelling_ops(seed)
        done = spawn(["-c", "import polydissect.cli"])
        if done.returncode != 0:
            raise SystemExit(f"cannot import polydissect: {done.stderr.decode(errors='replace')}")
        samples.append(time.perf_counter() - t0)
    return ops, samples


# -- rounds ------------------------------------------------------------------------


class Run:
    """Figures of one run: per-round totals, operation times and problems.
    `op_times` holds one list per round, in the workload's operation order."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.rounds: list[dict] = []
        self.op_times: list[list[float]] = []
        self.problems: list[str] = []
        self.checked: set[str] = set()  # digests of outputs already checked


def cli_round(run: Run, ops: list[CliOp], rng: random.Random) -> None:
    order = rng.sample(range(len(ops)), len(ops))
    rnd = {"wall": 0.0, "cpu": 0.0, "attempted": 0, "failed": 0, "ops": {}, "layers": {}}
    outputs = oracle.OutputDigest()
    times = [0.0] * len(ops)
    for idx in order:
        op = ops[idx]
        trace_file = OUT / "spans" / f"op{idx}.json"
        argv = ([str(ROOT / "perfbench" / "trace_cli.py"), str(trace_file)] if run.trace
                else ["-m", "polydissect.cli"]) + op.args
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        spawned_at = time.monotonic()
        t0 = time.perf_counter()
        try:
            done = spawn(argv)
        except subprocess.TimeoutExpired:
            done = None
        elapsed = time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        rnd["attempted"] += 1
        rnd["ops"][op.name] = elapsed
        times[idx] = elapsed
        rnd["wall"] += elapsed
        rnd["cpu"] += (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        if done is None or done.returncode != 0:
            rnd["failed"] += 1
            detail = "timed out" if done is None else done.stderr.decode(errors="replace")[-300:]
            print(f"{op.name}: failed: {detail}", file=sys.stderr)
            outputs.add(op.name, "failed")
            continue
        outputs.add(op.name, done.stdout)
        digest = hashlib.sha256(done.stdout).hexdigest()
        if digest not in run.checked:
            try:
                op.check(json.loads(done.stdout))
                run.checked.add(digest)
            except (oracle.CheckFailed, KeyError, TypeError, ValueError, IndexError) as exc:
                run.problems.append(f"{op.name}: {exc!r}")
        if run.trace:
            doc = json.loads(trace_file.read_text(encoding="utf-8"))
            layers = rnd["layers"]
            for key, value in doc["layers"].items():
                layers[key] = layers.get(key, 0) + value
            layers["cli.startup_s"] = layers.get("cli.startup_s", 0.0) + (
                doc["imported_at"] - spawned_at)
    rnd["digest"] = outputs.hexdigest()
    run.rounds.append(rnd)
    run.op_times.append(times)


def repeat_rounds(one_round, seconds: float) -> None:
    """Run whole rounds while the next one would end nearer to `seconds`
    than the last one did."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        one_round()
        now = time.perf_counter()
        if now - start + (now - t0) / 2 >= seconds:
            return


def run_cli(args) -> tuple[Run, list[float]]:
    ops, setup = setup_cli(args.seed)
    run = Run(bool(args.trace))
    rng = random.Random(args.seed)
    repeat_rounds(lambda: cli_round(run, ops, rng), args.seconds)
    return run, setup


def codec_round(run: Run, args, setup: list[float]) -> None:
    """One round in a fresh worker; its start-up counts as one set-up."""
    argv = [sys.executable, str(ROOT / "perfbench" / "codec_worker.py"), "--seed", str(args.seed),
            "--round", str(len(run.rounds)), "--trace", str(args.trace),
            "--spans", str(OUT / "spans" / "faces-codec.json")]
    spawned_at = time.monotonic()
    with subprocess.Popen(argv, cwd=ROOT, env=ENV, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        try:
            first = proc.stdout.readline()
            rest, err = proc.communicate(timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise SystemExit("codec worker timed out")
    if proc.returncode != 0:
        raise SystemExit(f"codec worker failed: {err.decode(errors='replace')}")
    setup.append(json.loads(first)["ready_at"] - spawned_at)
    rnd = json.loads(rest.splitlines()[-1])
    run.problems.extend(rnd.pop("problems"))
    run.op_times.append(rnd.pop("durations"))
    run.rounds.append(rnd)


def run_codec(args) -> tuple[Run, list[float]]:
    run, setup = Run(bool(args.trace)), []
    repeat_rounds(lambda: codec_round(run, args, setup), args.seconds)
    return run, setup


# -- result --------------------------------------------------------------------------


def check_outputs(workload: str, run: Run) -> None:
    """Every round, and every earlier run of the same sources in this
    checkout (timed or traced, any seed), must give the same outputs."""
    digests = {rnd["digest"] for rnd in run.rounds}
    if len(digests) != 1:
        run.problems.append(f"rounds gave {len(digests)} different outputs")
        return
    digest = digests.pop()
    print(f"outputs sha256 {digest}")
    record = OUT / f"outputs-{workload}.json"
    source = source_digest()
    if record.is_file():
        prior = json.loads(record.read_text(encoding="utf-8"))
        if prior["source"] == source and prior["digest"] != digest:
            run.problems.append(f"outputs differ from an earlier run ({prior['digest']})")
            return
    record.write_text(json.dumps({"source": source, "digest": digest}), encoding="utf-8")


def metrics(run: Run, setup: list[float]) -> dict:
    if not run.trace:
        rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        values = {
            "wall_s": statistics.fmean(r["wall"] for r in run.rounds),
            "cpu_s": statistics.fmean(r["cpu"] for r in run.rounds),
            # each operation's median over the rounds, then the median
            # operation: a slow round moves no operation's time by much
            "op_p50_s": statistics.median(statistics.median(t) for t in zip(*run.op_times)),
            "peak_rss_mib": rss_kib / 1024,
            "setup_s": statistics.median(setup),
        }
        return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                for m in SPEC["end_to_end"]}
    out = {}
    for metric in SPEC["per_layer"]:
        name, unit = metric["name"], metric["unit"]
        per_round = [r["layers"].get(name, 0) for r in run.rounds]
        if unit == "count" and len(set(per_round)) != 1:
            run.problems.append(f"{name} differs between rounds: {per_round}")
        value = per_round[0] if unit == "count" else statistics.fmean(per_round)
        out[name] = {"value": value, "unit": unit}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["cli", "faces-codec"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (SRC / "polydissect" / "cli.py").is_file():
        print(f"no polydissect sources under {SRC}", file=sys.stderr)
        return 2
    (OUT / "spans").mkdir(parents=True, exist_ok=True)

    if args.workload == "faces-codec":
        run, setup = run_codec(args)
    else:
        run, setup = run_cli(args)
    check_outputs(args.workload, run)
    result = metrics(run, setup)
    mode = "traced" if args.trace else "timed"
    (OUT / f"last-{args.workload}-{mode}.json").write_text(json.dumps(
        {"seed": args.seed, "setup": setup, "rounds": run.rounds, "metrics": result}),
        encoding="utf-8")
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"{len(run.rounds)} rounds, {len(run.problems)} problems")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": sum(r["attempted"] for r in run.rounds),
        "failed": sum(r["failed"] for r in run.rounds),
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
