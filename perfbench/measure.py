"""One process of a benchmark run; ``run.py`` starts it, one at a time.

Modes:

* ``round`` — one measured round of a workload: its pipeline path,
  timed (and traced with ``--traced``), then its output checks.
* ``setup`` — stops right before the first pipeline call; only
  ``setup_s`` is measured.
* ``prep`` — picks the workload seed (skipping seeds on which the
  simulated kernel crashes) and makes the inputs that must not be made
  in the measured process: the faulted netmix trace, the fixed survival
  input and the clean reference derivations.
* ``probe`` — traced run of the paths the workload does not take, over
  the same input, for the per-layer metrics of layers off its path.

Prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time

# Set-up starts here: importing ``paths`` imports the whole program.
import paths
import settings
from repro.db.importer import LENIENT_POLICY
from repro.tracing.serialize import dumps_events_binary
from repro.workloads import registry
from spans import SpanLog


def _layer_metrics(log: SpanLog) -> dict:
    """Per-layer metrics of one traced path: self time per span, the
    counts recorded at the same boundaries, and the root's own time."""
    selfs = log.self_times()
    metrics = {f"{name}_s": value for name, value in selfs.items() if name != "report"}
    metrics.update(log.counts)
    metrics["trace.report_s"] = log.duration("report")
    metrics["trace.glue_s"] = selfs["report"]
    if "importer.import_s" in metrics and log.counts.get("importer.events"):
        metrics["importer.us_per_event"] = (
            metrics["importer.import_s"] / log.counts["importer.events"] * 1e6
        )
    metrics.pop("importer.events", None)
    return metrics


def _check(name: str, ok: bool, detail: str, known_fault: bool = False) -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail, "known_fault": known_fault}


def _work(args, name: str) -> str:
    return os.path.join(args.work, name)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ----------------------------------------------------------------------
# Measured rounds
# ----------------------------------------------------------------------


def _end_setup(args) -> float:
    """End of set-up: returns ``setup_s`` and clears deferred garbage
    before the timed region."""
    setup_s = time.monotonic() - args.spawned
    gc.collect()
    return setup_s


def _round(setup_s, peak, matched, total, checks, info) -> dict:
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak,
        "rules_matched": matched,
        "observable": total,
        "checks": checks,
        "info": info,
    }


def _setup_inputs(workload: str):
    """The struct registry and filter config, built during set-up by
    the one path that takes them as arguments."""
    if workload == "mix-postmortem":
        return registry.database_inputs("vfs")
    return None


def round_mix_postmortem(args, log: SpanLog):
    structs, filters = _setup_inputs(args.workload)
    setup_s = _end_setup(args)
    out = paths.postmortem(log, structs, filters, "mix", args.seed, args.scale)
    peak = _peak_rss_mb()
    matched, total = paths.fidelity(out["derivation"])
    health = out["health"]
    repairs = (health.healed_releases, health.synthesized_releases,
               health.quarantined_total)
    redump = dumps_events_binary(out["events"], out["stacks"])
    checks = [
        _check("ground-truth fidelity", matched >= settings.FIDELITY_FLOOR * total,
               f"{matched}/{total}"),
        _check("clean import repairs nothing", repairs == (0, 0, 0),
               "healed/synthesized/quarantined = %d/%d/%d" % repairs),
        _check("binary round trip keeps every event and stack",
               redump == out["data"] and len(out["events"]) == out["recorded"],
               f"{len(out['events'])}/{out['recorded']} events"),
    ]
    info = {"events": out["recorded"], "trace_bytes": len(out["data"])}
    return _round(setup_s, peak, matched, total, checks, info)


def round_mix_stream(args, log: SpanLog):
    setup_s = _end_setup(args)
    out = paths.streamed(log, "mix", args.seed, args.scale)
    peak = _peak_rss_mb()
    with open(_work(args, "reference.json")) as fp:
        reference = json.load(fp)["rows"]
    rows = [list(row) for row in paths.derivation_rows(out["derivation"])]
    matched, total = paths.fidelity(out["derivation"])
    checks = [
        _check("ground-truth fidelity", matched >= settings.FIDELITY_FLOOR * total,
               f"{matched}/{total}"),
        _check("streamed derivation equals the post-mortem one", rows == reference,
               f"{len(rows)} vs {len(reference)} rules"),
    ]
    return _round(setup_s, peak, matched, total, checks, {})


def round_netmix_drop_sqlite(args, log: SpanLog):
    store = _work(args, "netmix.store.sqlite")
    setup_s = _end_setup(args)
    out = paths.sqlite(log, _work(args, "netmix.trace"), store, "net",
                       policy=LENIENT_POLICY)
    peak = _peak_rss_mb()
    os.unlink(store)
    health = out["health"]
    matched, total = paths.fidelity(out["derivation"])
    surfaced = paths.planted_surfaced(out["violated"])
    kept, clean = _survival(args)
    checks = [
        _check("trace health accounts for all events",
               health.accounts_for_all_events(),
               f"kept {health.kept_events} + quarantined "
               f"{health.quarantined_total} of {health.total_events}"),
        _check("the fault plan bites", health.healed_releases > 0,
               f"{health.healed_releases} healed releases"),
        _check("drop survival on the fixed input", kept >= settings.SURVIVAL_FLOOR * clean,
               f"{kept}/{clean} winning rules survive {settings.FAULT_SPEC}",
               known_fault=True),
    ]
    info = {
        "planted_surfaced": surfaced,
        "healed_releases": health.healed_releases,
        "synthesized_releases": health.synthesized_releases,
        "scrubbed_accesses": health.scrubbed_accesses,
        "survival": f"{kept}/{clean}",
    }
    return _round(setup_s, peak, matched, total, checks, info)


def _survival(args):
    """Derive the fixed faulted input through the SQLite path and count
    how many clean winning rules survive (after the timed region)."""
    store = _work(args, "survival.store.sqlite")
    out = paths.sqlite(SpanLog(traced=False), _work(args, "survival.trace"),
                       store, "net", policy=LENIENT_POLICY)
    os.unlink(store)
    with open(_work(args, "survival.json")) as fp:
        reference = json.load(fp)["rules"]
    return paths.survival(reference, out["derivation"])


ROUNDS = {
    "mix-postmortem": round_mix_postmortem,
    "mix-stream": round_mix_stream,
    "netmix-drop-sqlite": round_netmix_drop_sqlite,
}


def run_round(args) -> dict:
    log = SpanLog(traced=args.traced)
    result = ROUNDS[args.workload](args, log)
    result["rules_s"] = log.since("report", "rules")
    result["report_s"] = log.duration("report")
    if args.traced:
        result["layers"] = _layer_metrics(log)
        result["spans"] = log.to_json()
    return result


# ----------------------------------------------------------------------
# Inputs and off-path probes
# ----------------------------------------------------------------------


def run_prep(args) -> dict:
    seed, skipped = paths.usable_seed(settings.WORKLOADS[args.workload],
                                      args.seed, args.scale)
    prep = {"seed": seed, "skipped": skipped}
    if args.workload == "mix-stream":
        rows, _ = paths.clean_reference("mix", seed, args.scale)
        with open(_work(args, "reference.json"), "w") as fp:
            json.dump({"rows": rows}, fp)
    elif args.workload == "netmix-drop-sqlite":
        log = SpanLog(traced=True)
        recorded, written = paths.write_trace(
            "netmix", seed, args.scale, _work(args, "netmix.trace"),
            settings.FAULT_SPEC, settings.FAULT_SEED, log=log,
        )
        fixed_workload, fixed_seed, fixed_scale = settings.SURVIVAL_INPUT
        paths.write_trace(fixed_workload, fixed_seed, fixed_scale,
                          _work(args, "survival.trace"),
                          settings.FAULT_SPEC, settings.FAULT_SEED)
        _, rules = paths.clean_reference(fixed_workload, fixed_seed, fixed_scale)
        with open(_work(args, "survival.json"), "w") as fp:
            json.dump({"rules": rules}, fp)
        prep["layers"] = {f"{name}_s": value for name, value in log.self_times().items()}
        prep["layers"].update(log.counts)
        prep["info"] = {"events": recorded, "events_after_faults": written}
    return prep


def run_probe(args) -> dict:
    """Trace every path the workload does not take, over its input."""
    results = {}

    def traced(name, fn, *fn_args, **fn_kwargs):
        gc.collect()
        log = SpanLog(traced=True)
        out = fn(log, *fn_args, **fn_kwargs)
        results[name] = _layer_metrics(log)
        return out

    if args.workload == "netmix-drop-sqlite":
        structs, filters = registry.database_inputs("net")
        traced("postmortem", paths.postmortem, structs, filters,
               trace_path=_work(args, "netmix.trace"), policy=LENIENT_POLICY)
        traced("streamed", paths.streamed, "netmix", args.seed, args.scale)
        return {"paths": results}
    trace = _work(args, "mix.trace")
    if args.workload == "mix-stream":
        structs, filters = registry.database_inputs("vfs")
        out = traced("postmortem", paths.postmortem, structs, filters,
                     "mix", args.seed, args.scale)
        with open(trace, "wb") as fp:
            fp.write(out["data"])
        del out
    else:
        paths.write_trace("mix", args.seed, args.scale, trace)
        traced("streamed", paths.streamed, "mix", args.seed, args.scale)
    store = _work(args, "mix.store.sqlite")
    traced("sqlite", paths.sqlite, trace, store, "vfs")
    os.unlink(store)
    os.unlink(trace)
    return {"paths": results}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("round", "setup", "prep", "probe"),
                        required=True)
    parser.add_argument("--workload", choices=sorted(ROUNDS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--spawned", type=float, default=0.0,
                        help="time.monotonic() just before this process started")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        _setup_inputs(args.workload)
        result = {"setup_s": time.monotonic() - args.spawned}
    elif args.mode == "round":
        result = run_round(args)
    elif args.mode == "prep":
        result = run_prep(args)
    else:
        result = run_probe(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
