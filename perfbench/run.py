"""LockDoc pipeline benchmark: one workload, one seed, one JSON result.

Run from the root of a checkout::

    python3 perfbench/run.py --workload mix-postmortem --seed 0 --seconds 25 --trace 0

Each measured round is a fresh process (``measure.py``) that runs
nothing but the workload's pipeline path and its output checks; rounds
run one after another until ``--seconds`` have passed (at least
``MIN_ROUNDS``).  Inputs that must not be made inside the measured
process (the faulted netmix trace, clean reference derivations) come
from one ``prep`` process before the rounds.

``--trace 0`` prints the end-to-end metrics (medians over the rounds);
``--trace 1`` alternates traced and untraced rounds, adds one traced
probe of the paths the workload does not take, prints the per-layer
metrics and writes every span as JSON under ``.perfbench-work/spans/``.
The last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import settings

HERE = os.path.dirname(os.path.abspath(__file__))

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "rules_s": "s",
    "report_s": "s",
    "peak_rss_mb": "MB",
    "rules_matched": "count",
}

#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER = {
    "workloads.run_s": "s",
    "workloads.events": "count",
    "serialize.dump_s": "s",
    "serialize.load_s": "s",
    "serialize.bytes": "bytes",
    "importer.import_s": "s",
    "importer.us_per_event": "us",
    "importer.contexts": "count",
    "importer.healed_releases": "count",
    "importer.synthesized_releases": "count",
    "importer.scrubbed_accesses": "count",
    "importer.quarantined_events": "count",
    "observations.fold_s": "s",
    "observations.count": "count",
    "observations.targets": "count",
    "derivator.derive_s": "s",
    "derivator.targets": "count",
    "derivator.memo_hit_rate": "ratio",
    "checker.check_s": "s",
    "checker.rules": "count",
    "violations.find_s": "s",
    "violations.found": "count",
    "violations.net_plants_found": "count",
    "races.detect_s": "s",
    "races.candidates": "count",
    "races.found": "count",
    "stream.run_s": "s",
    "stream.sink_s": "s",
    "stream.events": "count",
    "contention.acquisitions": "count",
    "sqlstore.build_s": "s",
    "sqlstore.shards": "count",
    "sqlstore.rows": "count",
    "sqlstore.bytes": "bytes",
    "sqlstore.worker_peak_mb": "MB",
    "sqlstore.fold_s": "s",
    "health.render_s": "s",
    "health.kept_events": "count",
    "report.render_s": "s",
    "trace.report_s": "s",
    "trace.glue_s": "s",
    "trace.overhead_s": "s",
}

#: The path whose probe supplies a layer the workload's own path skips.
HOME_PATH = {
    "stream": "streamed",
    "contention": "streamed",
    "sqlstore": "sqlite",
    "health": "sqlite",
}

#: Wall-clock budget of one run, set-up and clean-up included.
RUN_BUDGET_S = 170.0


class BenchError(RuntimeError):
    pass


class Runner:
    def __init__(self, args, checkout: str) -> None:
        self.args = args
        self.scale = settings.SCALES[args.size][settings.WORKLOADS[args.workload]]
        self.deadline = time.monotonic() + RUN_BUDGET_S
        work_root = os.path.join(checkout, ".perfbench-work")
        os.makedirs(work_root, exist_ok=True)
        self.work_root = work_root
        self.work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
        self.cache = os.path.join(self.work, "cache")
        os.mkdir(self.cache)
        env = dict(os.environ)
        env.pop("LOCKDOC_DB_SHARDS", None)
        src = os.path.join(checkout, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env["PYTHONHASHSEED"] = settings.HASH_SEED
        env["LOCKDOC_CACHE_DIR"] = self.cache
        # SQLite and tempfile spill files stay inside the checkout too.
        tmp = os.path.join(self.work, "tmp")
        os.mkdir(tmp)
        env["TMPDIR"] = env["SQLITE_TMPDIR"] = tmp
        self.env = env
        #: The workload seed of every process after ``prep``.
        self.seed = args.seed

    def spawn(self, mode: str, traced: bool = False) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"run budget of {RUN_BUDGET_S:.0f}s exhausted")
        cmd = [
            sys.executable, os.path.join(HERE, "measure.py"),
            "--mode", mode, "--workload", self.args.workload,
            "--seed", str(self.seed), "--scale", repr(self.scale),
            "--work", self.work,
        ]
        if traced:
            cmd.append("--traced")
        cmd += ["--spawned", repr(time.monotonic())]
        proc = subprocess.Popen(
            cmd, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=remaining)
        except BaseException:
            # The measured process may have shard workers: end the group.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.communicate()
            raise
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(
                f"{mode} process exited {proc.returncode}:\n{err[-4000:]}"
            )
        return json.loads(lines[-1])

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def measure(runner: Runner) -> dict:
    args = runner.args
    prep = runner.spawn("prep")
    runner.seed = prep["seed"]
    # Set-up probes first: they also warm the file cache for round one.
    setups = [runner.spawn("setup")["setup_s"] for _ in range(settings.SETUP_PROBES)]
    rounds = []
    start = time.monotonic()
    while len(rounds) < settings.MIN_ROUNDS or time.monotonic() - start < args.seconds:
        traced = bool(args.trace) and len(rounds) % 2 == 0
        result = runner.spawn("round", traced=traced)
        result["traced"] = traced
        rounds.append(result)
    probe = runner.spawn("probe") if args.trace else None
    if os.listdir(runner.cache):
        raise BenchError(f"the program wrote to its cache: {os.listdir(runner.cache)}")
    return {"prep": prep, "rounds": rounds, "setups": setups, "probe": probe}


def end_to_end(raw: dict) -> dict:
    rounds = raw["rounds"]
    values = {
        "setup_s": statistics.median([r["setup_s"] for r in rounds] + raw["setups"]),
    }
    for name in ("rules_s", "report_s", "peak_rss_mb", "rules_matched"):
        values[name] = statistics.median([r[name] for r in rounds])
    return values


def per_layer(raw: dict) -> dict:
    traced = [r for r in raw["rounds"] if r["traced"]]
    untraced = [r for r in raw["rounds"] if not r["traced"]]
    own = {}
    for name in traced[0]["layers"]:
        samples = [r["layers"][name] for r in traced if name in r["layers"]]
        own[name] = statistics.median(samples)
    probes = raw["probe"]["paths"]
    values = {}
    for name in PER_LAYER:
        layer = name.split(".", 1)[0]
        sources = [own, probes.get(HOME_PATH.get(layer, "postmortem"), {}),
                   raw["prep"].get("layers", {}), *probes.values()]
        for source in sources:
            if name in source:
                values[name] = source[name]
                break
    values["stream.sink_s"] = values["stream.run_s"] - values["workloads.run_s"]
    values["trace.overhead_s"] = (
        statistics.median([r["report_s"] for r in traced])
        - statistics.median([r["report_s"] for r in untraced])
    )
    missing = sorted(set(PER_LAYER) - set(values))
    if missing:
        raise BenchError(f"no measurement for per-layer metrics {missing}")
    return values


def write_spans(runner: Runner, raw: dict) -> str:
    args = runner.args
    spans_dir = os.path.join(runner.work_root, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    path = os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fp:
        json.dump({
            "workload": args.workload,
            "seed": args.seed,
            "rounds": [
                {"traced": r["traced"], "report_s": r["report_s"],
                 "spans": r.get("spans"), "layers": r.get("layers")}
                for r in raw["rounds"]
            ],
            "probe": raw["probe"],
            "prep": raw["prep"],
        }, fp, indent=1)
    return os.path.relpath(path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="LockDoc pipeline benchmark")
    parser.add_argument("--workload", choices=sorted(settings.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(settings.SCALES), default="full",
                        help="input size (tiny: the self-test's)")
    args = parser.parse_args(argv)

    checkout = os.getcwd()
    if not os.path.isfile(os.path.join(checkout, "src", "repro", "__init__.py")):
        print("perfbench: run from the root of a checkout (no src/repro here)",
              file=sys.stderr)
        return 2
    runner = Runner(args, checkout)
    try:
        raw = measure(runner)
        if args.trace:
            values, units = per_layer(raw), PER_LAYER
            spans_path = write_spans(runner, raw)
        else:
            values, units = end_to_end(raw), END_TO_END
            spans_path = None
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.close()

    checks = [c for r in raw["rounds"] for c in r["checks"]]
    failed = [c for c in checks if not c["ok"]]
    correct = all(c["known_fault"] for c in failed)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "workload_seed": runner.seed,
        "scale": runner.scale,
        "rounds": len(raw["rounds"]),
        "pythonhashseed": settings.HASH_SEED,
        "fault": f"{settings.FAULT_SPEC} seed {settings.FAULT_SEED}",
        "nproc": os.cpu_count(),
        "spans": spans_path,
        **raw["rounds"][0]["info"],
        **raw["prep"].get("info", {}),
    }
    print("perfbench: " + json.dumps(info))
    for line in raw["prep"]["skipped"]:
        print(f"perfbench: left out {line}")
    for check in {c["name"]: c for c in failed}.values():
        tag = "known fault" if check["known_fault"] else "FAILED"
        print(f"perfbench: {tag}: {check['name']} ({check['detail']})")
    print(json.dumps({
        "correct": correct,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
