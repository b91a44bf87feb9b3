"""Benchmark of the homedest CLI chain on a seeded synthetic workload.

Run from the repository root:

    python3 bench/run.py --workload chain_default --seed 1 --seconds 55 --trace 0

Untraced (``--trace 0``): generate the workload's inputs three times
(``setup_s`` is the median), then run ``label atlas score null stats
correlate report`` as sequential ``python -m homedest`` subprocesses, one
chain in flight (a closed loop). Every chain starts from a workspace that
holds only the four input files. Chains repeat while the next one is
expected to end within ``--seconds`` (at least one runs); each metric is the
median over chains.

Traced (``--trace 1``): generate once, run one untraced and one traced
chain (``traced.py``) and report the per-layer metrics.

Every chain's outputs are checked (``checks.py``) and their digests compared
with a reference: those of the first chain that passed every check on the
same inputs, command arguments and package source. The last line of stdout is
the JSON result; the line before it holds the run's details (facts,
digests and where their reference came from, per-command accounting, checks,
machine stamp).

This process imports neither numpy nor the package, and set-up and checks
run in subprocesses: on Linux a child's peak RSS starts from its parent's,
so this process must stay smaller than any command it measures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from traced import layer_metrics
from workloads import INPUT_FILES, WORKLOADS

BENCH = Path(__file__).resolve().parent
COMMANDS = ("label", "atlas", "score", "null", "stats", "correlate", "report")
SCORES_COMMANDS = ("label", "atlas", "score")
SETUPS = 3
DEADLINE_S = 170.0  # every run must end within 180 s


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_config(root: Path) -> dict:
    """BENCHMARK.json, cross-checked against the workloads and predictions."""
    config = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = set(WORKLOADS)
    if {w["name"] for w in config["workloads"]} != workloads:
        fail("BENCHMARK.json workloads differ from bench/workloads.py")
    end_to_end = {m["name"] for m in config["end_to_end"]}
    per_layer = {m["name"] for m in config["per_layer"]}
    predictions = json.loads((BENCH / "predictions.json").read_text(encoding="utf-8"))
    for item in predictions["pairings"]:
        unknown = (
            (set(item["layer_metrics"]) - per_layer)
            | (set(item["moves"]) - end_to_end)
            | (set(item["workloads"]) - workloads)
            | (set(item.get("no_change_on", ())) - workloads)
        )
        if unknown:
            fail(f"predictions.json pairing {item['id']!r} names unknown {sorted(unknown)}")
    return config


def stamp(root: Path) -> dict:
    sha = None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=30,
        )
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == root:
            sha = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass  # not a git checkout
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
    }


def _wait(proc: subprocess.Popen, timeout: float):
    """os.wait4 on one child, killing it if ``timeout`` seconds pass first."""
    previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
    signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.01))
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def digests(root: Path, skip: tuple[str, ...] = ()) -> dict[str, str]:
    """sha256 of every file under ``root`` but bytecode caches, keyed by relative path."""
    return {
        str(path.relative_to(root)): sha256(path)
        for path in sorted(root.rglob("*"))
        if path.is_file() and path.name not in skip and "__pycache__" not in path.parts
    }


def key(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


def summary(values: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    out = {"n": len(values), "median": statistics.median(values), "min": min(values), "max": max(values)}
    if len(values) >= 20:
        pct = int(100 * (1 - 10 / len(values)))
        out[f"p{pct}"] = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    return out


def chain_metrics(chain: dict, uses: int) -> dict[str, float]:
    commands = chain["commands"]
    return {
        "chain_s": chain["wall"],
        "scores_s": sum(commands[name]["wall"] for name in SCORES_COMMANDS),
        "uses_per_s": uses / chain["wall"],
        "cpu_s": sum(c["cpu"] for c in commands.values()),
        "peak_rss_mb": max(c["rss_mb"] for c in commands.values()),
    }


class Run:
    """One benchmark invocation: set-up, chains, checks and their tally."""

    def __init__(self, root: Path, workload, seed: int, deadline: float, git_sha: str | None):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.dir = root / ".bench_work" / f"run-{os.getpid()}"
        self.inputs = self.dir / "inputs"
        self.ws = self.dir / "ws"
        path = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
        self.attempted = 0
        self.failed = 0
        self.checks: list[dict[str, bool]] = []
        self.args = {
            name: ["--replicates", str(workload.replicates)] if name == "null" else []
            for name in COMMANDS
        }
        self.identity = {"git_sha": git_sha, "source": key(digests(root / "src" / "homedest")), "args": self.args}
        self.reference: dict | None = None
        self.reference_path: Path | None = None
        self.mismatches: list[list[str]] = []

    def spawn(self, argv: list[str]) -> dict:
        """Run one child to completion; wall time, CPU and peak RSS from os.wait4."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return {"exit": None, "error": "run deadline passed"}
        parent_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.dir.mkdir(parents=True, exist_ok=True)
        with open(self.dir / "children.log", "ab") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, stdin=subprocess.DEVNULL, stdout=log, stderr=log)
            usage = _wait(proc, remaining)
            wall = time.perf_counter() - start
        return {
            "exit": proc.returncode,
            "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024,  # KiB on Linux
            "parent_rss_mb": parent_mb,  # floor under rss_mb, see the module docstring
        }

    def record(self, checks: dict[str, bool]) -> None:
        self.checks.append(checks)
        self.attempted += len(checks)
        self.failed += sum(not ok for ok in checks.values())

    def setup(self, times: int) -> tuple[list[float], dict[str, str]]:
        """Generate the inputs ``times`` times; keep the first copy.

        Loads the reference artifact digests kept for these inputs, command
        arguments and package source, if an earlier run stored them.
        """
        seconds, seen = [], []
        for index in range(times):
            out = self.dir / f"setup-{index}"
            child = self.spawn([
                sys.executable, str(BENCH / "workloads.py"), self.workload.name, str(self.seed), str(out)
            ])
            if child["exit"] != 0:
                fail(f"input generation failed with exit {child['exit']}")
            seconds.append(child["wall"])
            seen.append(digests(out))
        for index in range(1, times):
            shutil.rmtree(self.dir / f"setup-{index}")
        (self.dir / "setup-0").rename(self.inputs)
        if times > 1:
            self.record({"inputs_identical_across_setups": all(d == seen[0] for d in seen)})
        ident = key({"inputs": seen[0], "args": self.args, "source": self.identity["source"]})
        self.reference_path = self.root / ".bench_work" / "digests" / f"{self.workload.name}-{ident}.json"
        if self.reference_path.exists():
            self.reference = json.loads(self.reference_path.read_text(encoding="utf-8"))
        return seconds, seen[0]

    def chain(self, spans: Path | None = None) -> dict:
        """Run the seven commands on a fresh workspace; ``spans`` selects the traced runner."""
        shutil.rmtree(self.ws, ignore_errors=True)
        self.ws.mkdir(parents=True)
        for name in INPUT_FILES:
            shutil.copyfile(self.inputs / name, self.ws / name)
        commands: dict[str, dict] = {}
        start = time.perf_counter()
        for name in COMMANDS:
            argv = [name, "--out", str(self.ws), *self.args[name]]
            if spans is None:
                argv = [sys.executable, "-m", "homedest", *argv]
            else:
                argv = [sys.executable, str(BENCH / "traced.py"), str(spans / f"{name}.json"), *argv]
            commands[name] = self.spawn(argv)
            if commands[name]["exit"] != 0:
                break
        return {"wall": time.perf_counter() - start, "commands": commands}

    def check(self, chain: dict) -> dict:
        """Tally the chain's command exits and output checks; returns its facts."""
        exits = [chain["commands"].get(name, {}).get("exit") for name in COMMANDS]
        self.attempted += len(exits)
        self.failed += sum(code != 0 for code in exits)
        if any(code != 0 for code in exits):
            self.record({"chain_completed": False})
            return {}
        argv = [sys.executable, str(BENCH / "checks.py"), str(self.ws), str(self.dir)]
        if self.workload.check_recovery:
            argv.append("--recovery")
        try:
            out = subprocess.run(
                argv, capture_output=True, text=True, check=True,
                timeout=max(self.deadline - time.monotonic(), 0.01),
            )
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            print(exc.stderr, file=sys.stderr)
            self.record({"checks_completed": False})
            return {}
        result = json.loads(out.stdout)
        checks = result["checks"]
        artifacts = chain["artifacts"] = digests(self.ws, skip=INPUT_FILES)
        if self.reference is None and self.failed == 0 and all(checks.values()):
            self.reference = dict(self.identity, artifacts=artifacts)
            self.reference_path.parent.mkdir(parents=True, exist_ok=True)
            temporary = self.reference_path.with_suffix(f".{os.getpid()}.tmp")
            temporary.write_text(json.dumps(self.reference, indent=1), encoding="utf-8")
            temporary.replace(self.reference_path)
        if self.reference is not None:
            expected = self.reference["artifacts"]
            differing = sorted(n for n in expected.keys() | artifacts.keys() if expected.get(n) != artifacts.get(n))
            self.mismatches.append(differing)
            checks["artifacts_match_reference"] = not differing
        self.record(checks)
        return result["facts"]


def measure(run: Run, seconds: float) -> tuple[list[dict], dict]:
    """Untraced chains, repeated while the next is expected to end in time."""
    chains, facts = [], {}
    start = time.perf_counter()
    while True:
        begin = time.perf_counter()
        chains.append(run.chain())
        facts = run.check(chains[-1]) or facts
        now = time.perf_counter()
        last = now - begin
        if run.failed or now - start + last > seconds or time.monotonic() + 2 * last > run.deadline:
            return chains, facts


def emit(run: Run, specs: list[dict], values: dict, details: dict) -> int:
    correct = run.failed == 0
    log = run.dir / "children.log"
    if not correct and log.exists():
        sys.stderr.write(log.read_text(encoding="utf-8", errors="replace")[-4000:])
    metrics = {spec["name"]: {"value": values.get(spec["name"]), "unit": spec["unit"]} for spec in specs}
    print(json.dumps({"details": details}, default=str))
    print(json.dumps({
        "correct": correct, "attempted": max(run.attempted, 1), "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    root = Path.cwd().resolve()
    if not (root / "src" / "homedest" / "__init__.py").is_file():
        fail(f"{root} holds no homedest source tree (src/homedest); run from the repository root")
    config = load_config(root)
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "stamp": stamp(root)}
    run = Run(root, WORKLOADS[args.workload], args.seed, time.monotonic() + DEADLINE_S, details["stamp"]["git_sha"])
    try:
        setup_s, details["inputs"] = run.setup(1 if args.trace else SETUPS)
        if args.trace:
            untraced = run.chain()
            run.check(untraced)
            spans = run.dir / "spans"
            spans.mkdir()
            traced = run.chain(spans)
            facts = run.check(traced)
            chains = [untraced, traced]
        else:
            chains, facts = measure(run, args.seconds)
        details.update(setup_s=setup_s, facts=facts, checks=run.checks, chains=chains)
        if run.reference is not None:
            # where the reference came from, and per chain the artifacts that differ from it
            details["reference"] = {
                "path": str(run.reference_path.relative_to(root)),
                "git_sha": run.reference["git_sha"],
                "source": run.reference["source"],
                "differing": run.mismatches,
            }
        details["stamp"]["loadavg_end"] = os.getloadavg()
        values: dict[str, float | None] = {}
        if run.failed == 0 and args.trace:
            commands = {
                name: json.loads((spans / f"{name}.json").read_text(encoding="utf-8"))
                for name in COMMANDS
            }
            traced_wall = {name: c["wall"] for name, c in traced["commands"].items()}
            values = layer_metrics(commands, traced_wall, untraced["commands"], facts)
            details["absent"] = sorted(name for name, value in values.items() if value is None)
        elif run.failed == 0:
            per_chain = [chain_metrics(c, facts["hashtag_uses"]) for c in chains]
            stats = {name: summary([m[name] for m in per_chain]) for name in per_chain[0]}
            stats["setup_s"] = summary(setup_s)
            values = {name: s["median"] for name, s in stats.items()}
            details["summary"] = stats
        return emit(run, config["per_layer" if args.trace else "end_to_end"], values, details)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
