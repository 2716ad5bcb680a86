"""The three pipeline paths the benchmark measures, with their checks.

Every call into a layer goes through one of the public entry points
below and is wrapped in a span named after the layer, so a traced run
can attribute each second of ``report_s`` to a module.  The spans sit in
this file, never inside the program.

* :func:`postmortem` — workload run → binary dump → load → import →
  fold → derive → documented-rule check → violations → races → render.
* :func:`streamed` — the fused ``StreamEngine`` pass (``run_streamed``
  with races), derive, race report, contention table.
* :func:`sqlite` — sharded SQLite store build from a trace file → fold →
  derive → violations → health render.

Importing this module imports every program module the paths call, so a
measured process pays the whole import cost before its first pipeline
call (``setup_s``).
"""

from __future__ import annotations

import os
import resource
from typing import Dict, Iterable, List, Optional, Tuple

import repro.kernel  # noqa: F401  (must initialize before repro.tracing)
from repro.analysis import detect_races
from repro.core.checker import check_rules, summarize as summarize_checks
from repro.core.derivator import DerivationResult, Derivator
from repro.core.observations import ObservationTable
from repro.core.report import render_table
from repro.core.violations import ViolationFinder, summarize as summarize_violations
from repro.db.importer import Importer
from repro.db.sqlstore import (
    SqliteTraceStore,
    build_store_from_trace,
    default_shard_count,
)
from repro.doc.corpus import documented_rules
from repro.faults import FaultPlan
from repro.kernel.errors import LockUsageError
from repro.kernel.net.groundtruth import (
    NET_MEMBER_BLACKLIST,
    NET_PLANTED_DEVIATIONS,
    build_net_specs,
)
from repro.kernel.vfs.groundtruth import MEMBER_BLACKLIST, build_all_specs
from repro.stream import run_streamed
from repro.tracing.serialize import (
    dumps_events_binary,
    loads_binary,
    stacks_of,
    write_binary,
)
from repro.workloads import registry

import settings
from spans import SpanLog

#: The program's default acceptance threshold (``derive --threshold``).
THRESHOLD = 0.9
#: Examples printed under the violation and race reports (CLI default).
EXAMPLES = 0

Rows = List[Tuple[str, str, str, str, float, int]]


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


def write_trace(
    workload: str,
    seed: int,
    scale: float,
    path: str,
    fault_spec: Optional[str] = None,
    fault_seed: int = 0,
    log: Optional[SpanLog] = None,
) -> Tuple[int, int]:
    """Run *workload*, optionally corrupt its events with a seeded fault
    plan, and write the binary trace to *path*.

    Returns ``(events recorded, events written)``.  With a traced *log*
    the run and the write are recorded as ``workloads.run`` and
    ``serialize.dump`` spans (the fault plan sits between them, untimed).
    """
    log = log or SpanLog(traced=False)
    with log.span("workloads.run"):
        result = registry.resolve(workload)(seed, scale)
    tracer = result.tracer
    events = tracer.events
    recorded = len(events)
    if fault_spec:
        events = FaultPlan.from_spec(fault_spec, seed=fault_seed).apply_events(events)
    with log.span("serialize.dump"):
        with open(path, "wb") as fp:
            write_binary(events, stacks_of(tracer), fp)
    log.count("workloads.events", recorded)
    log.count("serialize.bytes", os.path.getsize(path))
    return recorded, len(events)


def usable_seed(workload: str, seed: int, scale: float) -> Tuple[int, List[str]]:
    """The first workload seed of ``seed, seed + SEED_STRIDE, ...`` whose
    run does not crash the simulated kernel, and one line per seed
    skipped."""
    skipped = []
    for attempt in range(settings.SEED_TRIES):
        candidate = seed + attempt * settings.SEED_STRIDE
        try:
            registry.resolve(workload)(candidate, scale)
        except LockUsageError as exc:
            skipped.append(f"{workload} seed {candidate}: LockUsageError: {exc}")
            continue
        return candidate, skipped
    raise RuntimeError("no usable workload seed:\n" + "\n".join(skipped))


def derivation_rows(derivation: DerivationResult) -> Rows:
    return [
        (d.type_key, d.member, d.access_type, d.rule.format(),
         round(d.winner.s_r, 9), d.observation_count)
        for d in derivation.all()
    ]


def winning_rules(derivation: DerivationResult) -> Dict[str, str]:
    return {
        f"{d.type_key}\t{d.member}\t{d.access_type}": d.rule.format()
        for d in derivation.all()
    }


# ----------------------------------------------------------------------
# Ground truth
# ----------------------------------------------------------------------

def fidelity(derivation: DerivationResult) -> Tuple[int, int]:
    """``(matched, observable)`` ground-truth targets.

    A target is observable when the simulated kernel's ground truth
    (``kernel/vfs/groundtruth.py`` plus ``kernel/net/groundtruth.py``)
    specifies it, it is not black-listed, its access type is exercised
    at all, and the trace yielded a derivation for it.  Inode subclass
    targets (``inode:ext4`` ...) are checked against the inode spec.  It
    matches when the mined winning rule equals ``expected_rule``.
    """
    specs = dict(build_all_specs())
    specs.update(build_net_specs())
    blacklist = set(MEMBER_BLACKLIST) | set(NET_MEMBER_BLACKLIST)
    matched = total = 0
    for d in derivation.all():
        spec = specs.get(d.type_key.split(":", 1)[0])
        if spec is None or not spec.has_member(d.member):
            continue
        if d.member in spec.blacklist or (spec.name, d.member) in blacklist:
            continue
        if spec.member(d.member).weight_for(d.access_type) == 0:
            continue
        total += 1
        if d.rule == spec.expected_rule(d.member, d.access_type):
            matched += 1
    return matched, total


# ----------------------------------------------------------------------
# Rendering (the text a CLI user reads)
# ----------------------------------------------------------------------


def _render_rules(derivation: DerivationResult) -> str:
    rows = [
        [d.type_key, d.member, d.access_type, d.rule.format(),
         f"{d.winner.s_r:.2%}", d.observation_count]
        for d in derivation.all()
    ]
    return render_table(
        ["type", "member", "r/w", "winning rule", "s_r", "n"], rows,
        title=f"derived locking rules (t_ac={THRESHOLD})",
    )


def _render_violations(violations) -> str:
    rows = [
        [s.type_key, s.events, s.members, s.contexts]
        for s in summarize_violations(violations)
    ]
    parts = [render_table(
        ["type", "events", "members", "contexts"], rows,
        title="locking-rule violations (Tab. 7)",
    )]
    parts.extend(v.format() for v in violations[:EXAMPLES])
    return "\n".join(parts)


def _render_checks(results) -> str:
    rows = [
        [s.data_type, s.rules, s.unobserved, s.observed, s.correct,
         s.ambivalent, s.incorrect]
        for s in summarize_checks(results)
    ]
    return render_table(
        ["type", "#R", "#No", "#Ob", "correct", "ambivalent", "incorrect"],
        rows, title="documented-rule check (Tab. 4)",
    )


# ----------------------------------------------------------------------
# The paths
# ----------------------------------------------------------------------


def postmortem(
    log: SpanLog,
    structs,
    filters,
    workload: str = "",
    seed: int = 0,
    scale: float = 1.0,
    trace_path: Optional[str] = None,
    policy=None,
) -> dict:
    """The classic path, from a live workload run (or a trace file)."""
    with log.root("report"):
        if trace_path is None:
            with log.span("workloads.run"):
                result = registry.resolve(workload)(seed, scale)
            tracer = result.tracer
            recorded = len(tracer.events)
            with log.span("serialize.dump"):
                data = dumps_events_binary(tracer.events, stacks_of(tracer))
            # The recording and the analysis are separate runs in this
            # path: the live trace is gone before the dump is read back.
            del result, tracer
        else:
            recorded = None
        with log.span("serialize.load"):
            if trace_path is not None:
                with open(trace_path, "rb") as fp:
                    data = fp.read()
            events, stacks = loads_binary(data)
        importer = Importer(structs, filters, policy)
        with log.span("importer.import"):
            db = importer.run(events, stacks)
        with log.span("observations.fold"):
            table = ObservationTable.from_database(db)
        with log.span("derivator.derive"):
            derivation = Derivator(THRESHOLD).derive(table, jobs=1)
        log.mark("rules")
        with log.span("checker.check"):
            checked = check_rules(table, documented_rules())
        with log.span("violations.find"):
            violations = ViolationFinder(derivation, table).find()
        with log.span("races.detect"):
            races = detect_races(events, db, derivation)
        with log.span("report.render"):
            text = "\n".join((
                _render_rules(derivation),
                _render_checks(checked),
                _render_violations(violations),
                races.render(examples=EXAMPLES),
            ))
    health = importer.health()
    if log.traced:
        _count_import(log, importer, events, health)
        _count_fold(log, table, derivation)
        log.count("checker.rules", len(checked))
        _count_violations(log, violations)
        log.count("races.candidates", races.candidate_count)
        log.count("races.found", len(races.races()))
        if recorded is not None:
            log.count("workloads.events", recorded)
        log.count("serialize.bytes", len(data))
    return {
        "derivation": derivation,
        "health": health,
        "recorded": recorded,
        "data": data,
        "events": events,
        "stacks": stacks,
        "text": text,
    }


def streamed(log: SpanLog, workload: str, seed: int, scale: float) -> dict:
    """The fused single pass behind ``derive/races --stream`` and ``watch``."""
    with log.root("report"):
        with log.span("stream.run"):
            run = run_streamed(workload, seed, scale, races=True)
        with log.span("derivator.derive"):
            derivation = run.derive(THRESHOLD, jobs=1)
        log.mark("rules")
        with log.span("races.detect"):
            races = run.engine.race_report(derivation)
        with log.span("report.render"):
            contention = run.engine.contention_report()
            text = "\n".join((
                _render_rules(derivation),
                races.render(examples=EXAMPLES),
                contention.render(),
            ))
    if log.traced:
        engine = run.engine
        log.count("stream.events", engine.total_events)
        log.count(
            "contention.acquisitions",
            sum(stats.acquisitions for stats in contention.stats.values()),
        )
        _count_fold(log, engine.table, derivation)
        log.count("races.candidates", races.candidate_count)
        log.count("races.found", len(races.races()))
    return {"derivation": derivation, "text": text}


def sqlite(
    log: SpanLog, trace_path: str, store_path: str, recipe: str, policy=None
) -> dict:
    """The out-of-core path: sharded store build from a trace file."""
    with log.root("report"):
        with log.span("sqlstore.build"):
            build_store_from_trace(store_path, trace_path, recipe, policy=policy)
        worker_peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        with log.span("sqlstore.fold"):
            store = SqliteTraceStore(store_path)
            table = store.fold(split_subclasses=True)
        with log.span("derivator.derive"):
            derivation = Derivator(THRESHOLD).derive(table, jobs=1)
        log.mark("rules")
        with log.span("violations.find"):
            violations = ViolationFinder(derivation, table).find()
        with log.span("health.render"):
            health = store.health()
            health_text = health.render()
        with log.span("report.render"):
            text = "\n".join((
                _render_rules(derivation),
                _render_violations(violations),
                health_text,
            ))
    if log.traced:
        log.count("sqlstore.shards", default_shard_count())
        log.count(
            "sqlstore.rows",
            sum(int(v) for k, v in store.meta.items() if k.startswith("rows_")),
        )
        log.count("sqlstore.bytes", os.path.getsize(store_path))
        log.count("sqlstore.worker_peak_mb", worker_peak_kb / 1024)
        log.count("health.kept_events", health.kept_events)
        _count_repairs(log, health)
        _count_fold(log, table, derivation)
        _count_violations(log, violations)
    store.close()
    violated = {(v.type_key, v.member, v.access_type) for v in violations}
    return {
        "derivation": derivation,
        "health": health,
        "violated": violated,
        "text": text,
    }


# ----------------------------------------------------------------------
# Counts
# ----------------------------------------------------------------------


def _count_repairs(log: SpanLog, health) -> None:
    log.count("importer.healed_releases", health.healed_releases)
    log.count("importer.synthesized_releases", health.synthesized_releases)
    log.count("importer.scrubbed_accesses", health.scrubbed_accesses)
    log.count("importer.quarantined_events", health.quarantined_total)


def _count_import(log: SpanLog, importer, events: Iterable, health) -> None:
    contexts = {getattr(e, "ctx_id", None) for e in events}
    contexts.discard(None)
    log.count("importer.contexts", len(contexts))
    log.count("importer.events", importer.total_events)
    _count_repairs(log, health)


def _count_violations(log: SpanLog, violations) -> None:
    log.count("violations.found", len(violations))
    log.count("violations.net_plants_found",
              planted_surfaced({(v.type_key, v.member, v.access_type) for v in violations}))


def _count_fold(log: SpanLog, table, derivation: DerivationResult) -> None:
    log.count("observations.count", table.total)
    log.count("observations.targets", len(table.keys()))
    log.count("derivator.targets", len(derivation.all()))
    log.count("derivator.memo_hit_rate", derivation.memo_stats.hit_rate)


def planted_surfaced(violated) -> int:
    """How many of the net slice's planted deviations surface."""
    return sum(1 for plant in NET_PLANTED_DEVIATIONS if plant in violated)


def survival(reference: Dict[str, str], derivation: DerivationResult) -> Tuple[int, int]:
    """``(kept, total)``: clean winning rules the degraded run reproduces."""
    degraded = winning_rules(derivation)
    kept = sum(1 for key, rule in reference.items() if degraded.get(key) == rule)
    return kept, len(reference)


def clean_reference(workload: str, seed: int, scale: float) -> Tuple[Rows, Dict[str, str]]:
    """Post-mortem derivation of a clean live run (import straight from
    the tracer).  Used only outside the measured process."""
    result = registry.resolve(workload)(seed, scale)
    db = result.to_database()
    derivation = Derivator(THRESHOLD).derive(
        ObservationTable.from_database(db), jobs=1
    )
    return derivation_rows(derivation), winning_rules(derivation)

