//! Metric arithmetic: end-to-end figures of an untraced phase, and the
//! traced phase with its per-layer breakdown and decomposition check.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use active::{DispatchStrategy, Event, SessionContext};
use activegis::ServerSession;
use builder::InterfaceBuilder;
use custlang::FIG6_PROGRAM;
use geodb::query::DbEvent;
use geodb::repl::{ReplicaStore, SyncOutcome};
use geodb::value::Value;
use geodb::Oid;
use gisui::SessionId;

use crate::check;
use crate::clients::{run_phase, Log, Phase, Slice};
use crate::fixture::{self, Fixture};
use crate::gen::{self, Class, Rng};
use crate::pin;
use crate::replay::ROOTS;
use crate::trace::{self_times, write_jsonl, Span, Tracer};
use crate::{peak_rss_mb, Budget, Counts, Spec, Workload, END_TO_END, PER_LAYER};

/// Replay roots whose children are expected to account for the whole
/// request; a close or an install is a single call with no layers below.
const DECOMPOSED: [&str; 8] = [
    "gisui.open_schema",
    "gisui.open_class_pole",
    "gisui.open_class_other",
    "gisui.open_instance",
    "gisui.analyze",
    "gisui.dispatch_batch",
    "gisui.apply_update",
    "admin.reload",
];

/// Largest share of the decomposed request spans that may fall outside
/// every layer span.
const MAX_UNATTRIBUTED: f64 = 0.10;

/// Spans written out per traced run at most; beyond it every k-th
/// request is written (metrics still use every span).
const MAX_SPANS_WRITTEN: usize = 400_000;

/// Nearest-rank percentile of sorted values.
pub fn pct(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let k = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[k - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    pct(&v, 0.5)
}

fn sorted_us(ns: impl Iterator<Item = u64>) -> Vec<f64> {
    let mut v: Vec<f64> = ns.map(|n| n as f64 / 1e3).collect();
    v.sort_by(f64::total_cmp);
    v
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

fn clients_note(spec: &Spec) -> String {
    let pinned = (0..spec.sizes.shards)
        .map(|i| pin::cpu_for(i, spec.sizes.shards))
        .collect::<Option<Vec<_>>>();
    format!(
        "deployment: {} shards, {} closed-loop clients, available_parallelism {}, client and shard i pinned to CPUs {pinned:?}",
        spec.sizes.shards,
        spec.clients,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    )
}

/// End-to-end metrics of an untraced phase.
pub fn end_to_end(
    fix: &Fixture,
    spec: &Spec,
    log: &Log,
    wall_s: f64,
    slices: &[Slice],
    setup: &[f64],
    notes: &mut Vec<String>,
) -> Vec<(&'static str, f64, &'static str)> {
    let lat = sorted_us(log.lat.iter().map(|&(_, ns)| ns));
    let rates: Vec<f64> = slices.iter().map(|s| s.rate).collect();
    let p50s: Vec<f64> = slices.iter().map(|s| s.p50_us).collect();
    let p99s: Vec<f64> = slices.iter().map(|s| s.p99_us).collect();
    let values = [
        median(setup),
        median(&rates),
        median(&p50s),
        median(&p99s),
        peak_rss_mb(),
    ];
    notes.push(clients_note(spec));
    notes.push(format!(
        "setup runs (s): {:?}; measured {:.3} s, {} operations in {} calls, {:.1} ops/s overall",
        setup,
        wall_s,
        log.ops,
        log.lat.len(),
        log.ops as f64 / wall_s
    ));
    notes.push(format!("slice rates (ops/s): {rates:.0?}"));
    notes.push(format!("slice p50 (us): {p50s:.1?}"));
    notes.push(format!("slice p99 (us): {p99s:.1?}"));
    notes.push(format!(
        "pooled over the run: p50 {} us, p99 {} us over {} calls",
        pct(&lat, 0.5),
        pct(&lat, 0.99),
        lat.len()
    ));
    notes.push(format!(
        "failed_share = {} ({} of {} operations)",
        ratio(log.failed, log.ops),
        log.failed,
        log.ops
    ));
    if spec.workload == Workload::Edit {
        let w = sorted_us(log.write_lat.iter().copied());
        notes.push(format!(
            "write_p50_us = {} us, write_p99_us = {} us over {} acknowledged updates",
            pct(&w, 0.5),
            pct(&w, 0.99),
            w.len()
        ));
    }
    if let Some(r) = &fix.replica {
        let s = r.status();
        notes.push(format!(
            "streaming replica since set-up: {} delta syncs ({} bytes), {} full syncs ({} bytes), primary at epoch {}",
            s.delta_syncs, s.delta_bytes, s.full_syncs, s.full_bytes, s.primary_epoch
        ));
    }
    let mut by_class: BTreeMap<Class, Vec<u64>> = BTreeMap::new();
    for &(c, ns) in &log.lat {
        by_class.entry(c).or_default().push(ns);
    }
    for (c, ns) in by_class {
        let v = sorted_us(ns.into_iter());
        notes.push(format!(
            "calls {}: n={} p50={:.1} us p99={:.1} us",
            c.name(),
            v.len(),
            pct(&v, 0.5),
            pct(&v, 0.99)
        ));
    }
    let (hits, misses) = cache_totals(fix);
    notes.push(format!(
        "winner cache over the run: {hits} hits, {misses} misses ({:.4} hit ratio)",
        ratio(hits, hits + misses)
    ));
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect()
}

fn cache_totals(fix: &Fixture) -> (u64, u64) {
    (0..fix.server.shards())
        .map(|shard| {
            let any = ServerSession {
                shard,
                sid: SessionId(0),
            };
            fix.server.with_dispatcher(any, |d| {
                let c = d.engine().cache_stats();
                (c.hits, c.misses)
            })
        })
        .fold((0, 0), |(h, m), (a, b)| (h + a, m + b))
}

pub struct Traced {
    pub log: Log,
    pub acked: Vec<(Oid, String)>,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub counts: Counts,
}

/// Run the traced phase after an untraced one of the same length and
/// derive every per-layer metric from its spans and counts.
pub fn traced(
    fix: &Fixture,
    spec: &Spec,
    untraced: &Log,
    untraced_wall: f64,
    notes: &mut Vec<String>,
) -> Result<Traced, String> {
    let phase = Phase {
        traced: true,
        budget: spec.budget.half(),
        stream: 3,
        sample: true,
    };
    let (h0, m0) = cache_totals(fix);
    let run = run_phase(fix, spec, &phase);
    let (h1, m1) = cache_totals(fix);
    let mut log = run.log;
    if spec.workload == Workload::Edit {
        delta_probe(fix, spec, &mut log, notes)?;
    }
    // Browse's own traffic only reads; its write-path metrics come from
    // the write probe.
    let writes = if spec.workload == Workload::Browse {
        let probe = write_probe(spec, notes)?;
        log.absorb_failures(&probe);
        write_path(&probe)
    } else {
        write_path(&log)
    };
    let mut m: HashMap<&'static str, f64> = HashMap::new();

    let selfs = match self_times(&log.spans) {
        Ok(s) => s,
        Err(e) => {
            log.error(format!("decomposition: {e}"));
            vec![0; log.spans.len()]
        }
    };
    let mut durs: HashMap<&'static str, Vec<u64>> = HashMap::new();
    for s in &log.spans {
        durs.entry(s.name).or_default().push(s.dur());
    }
    let dist = |name: &str| sorted_us(durs.get(name).into_iter().flatten().copied());
    let mut put = |name: &'static str, v: f64| {
        m.insert(name, if v.is_finite() { v } else { 0.0 });
    };

    let q = dist("server.queue_wait");
    put("server.queue_wait_us.p50", pct(&q, 0.5));
    put("server.queue_wait_us.p99", pct(&q, 0.99));
    put("server.reply_us.p50", pct(&dist("server.reply"), 0.5));
    let busy: u64 = log.busy_ns.iter().sum();
    put(
        "server.shard_busy_share",
        busy as f64 / (run.wall_s * 1e9 * fix.server.shards() as f64),
    );
    put("gisui.pin_us.p50", pct(&dist("gisui.pin"), 0.5));

    // Residual: served latency minus the layer self times of the replay
    // it mirrors, i.e. minus the time the twin's layer spans cover. A
    // write's served twin is the refresh: the commit is not repeated.
    let mut roots: HashMap<u64, (usize, &'static str)> = HashMap::new();
    let mut refreshes: HashMap<u64, usize> = HashMap::new();
    let mut served: HashMap<u64, u64> = HashMap::new();
    let (mut root_ns, mut root_self_ns) = (0u64, 0u64);
    for (i, s) in log.spans.iter().enumerate() {
        if ROOTS.contains(&s.name) {
            roots.insert(s.req, (i, s.name));
            if DECOMPOSED.contains(&s.name) {
                root_ns += s.dur();
                root_self_ns += selfs[i];
            }
        } else if s.name == "gisui.refresh" {
            refreshes.insert(s.req, i);
            root_self_ns += selfs[i];
        } else if s.name == "gisui.served" {
            served.insert(s.req, s.dur());
        }
    }
    let mut residual = Vec::new();
    let mut residual_by_root: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (req, served_ns) in &served {
        if let Some(&(root, name)) = roots.get(req) {
            let i = refreshes.get(req).copied().unwrap_or(root);
            let layers = log.spans[i].dur() - selfs[i];
            let r = (*served_ns as f64 - layers as f64) / 1e3;
            residual.push(r);
            residual_by_root.entry(name).or_default().push(r);
        }
    }
    put("gisui.residual_us.p50", median(&residual));
    let unattributed = ratio(root_self_ns, root_ns);
    notes.push(format!(
        "decomposition: layer spans cover {:.4} of {:.1} ms of replayed requests; {} replays compared with their served twin, {} skipped (epoch moved)",
        1.0 - unattributed,
        root_ns as f64 / 1e6,
        log.compared,
        log.skipped
    ));
    for (name, v) in &residual_by_root {
        notes.push(format!(
            "residual {name}: n={} p50={:.1} us",
            v.len(),
            median(v)
        ));
    }
    if unattributed > MAX_UNATTRIBUTED {
        log.error(format!(
            "decomposition: {unattributed:.3} of replayed request time is outside every layer span"
        ));
    }
    if log.compared == 0 {
        log.error("decomposition: no replayed request was compared with its served twin".into());
    }

    let c = log.counts.clone();
    for (name, v) in writes {
        put(name, v);
    }
    let mut per_event: Vec<f64> = log
        .spans
        .iter()
        .filter(|s| s.name == "active.select" && s.items > 0)
        .map(|s| s.dur() as f64 / 1e3 / s.items as f64)
        .collect();
    per_event.sort_by(f64::total_cmp);
    put("active.select_us_per_event.p50", pct(&per_event, 0.5));
    put("active.select_us_per_event.p99", pct(&per_event, 0.99));
    put(
        "active.winner_cache_hit_ratio",
        ratio(h1 - h0, (h1 - h0) + (m1 - m0)),
    );
    for op in ["get_schema", "get_class", "get_value", "select"] {
        let v = dist(&format!("geodb.read.{op}"));
        let (p50, p99) = read_names(op);
        put(p50, pct(&v, 0.5));
        put(p99, pct(&v, 0.99));
    }
    put(
        "geodb.rows_returned_per_read",
        ratio(c.rows_returned, c.reads),
    );
    put(
        "geodb.rows_examined_per_returned",
        ratio(c.rows_examined, c.rows_selected),
    );
    let snap = fix.store.snapshot();
    put(
        "geodb.data_bytes_per_object",
        ratio(snap.approx_data_bytes() as u64, snap.object_count() as u64),
    );
    put("geodb.epochs_retained", fix.store.epochs_retained() as f64);
    put(
        "builder.build_us.schema.p50",
        pct(&dist("builder.build.schema"), 0.5),
    );
    put(
        "builder.build_us.class.p50",
        pct(&dist("builder.build.class"), 0.5),
    );
    put(
        "builder.build_us.instance.p50",
        pct(&dist("builder.build.instance"), 0.5),
    );
    put(
        "builder.widgets_per_window",
        ratio(c.widgets, c.windows_built),
    );
    put("uilib.render_us.p50", pct(&dist("uilib.render"), 0.5));
    put(
        "uilib.ascii_bytes_per_window",
        ratio(c.ascii_bytes, c.windows_rendered),
    );
    put("active.compile_us", compile_us(fix));
    put("custlang.compile_us", custlang_us(fix, spec)?);
    put("obs.metrics_on_off_ratio", obs_ratio(fix, spec));
    let traced_rate = log.ops as f64 / run.wall_s;
    let untraced_rate = untraced.ops as f64 / untraced_wall;
    put("bench.trace_overhead_ratio", traced_rate / untraced_rate);

    notes.push(clients_note(spec));
    notes.push(format!(
        "traced phase: {:.3} s, {} operations, {} spans; counts {:?}",
        run.wall_s,
        log.ops,
        log.spans.len(),
        c
    ));
    if let Some(path) = &spec.spans_out {
        let every = log.spans.len().div_ceil(MAX_SPANS_WRITTEN).max(1) as u64;
        let kept: Vec<Span> = log
            .spans
            .iter()
            .filter(|s| (s.req & 0xFF_FFFF_FFFF) % every == 0)
            .cloned()
            .collect();
        write_jsonl(path, &kept).map_err(|e| format!("write spans to {}: {e}", path.display()))?;
        notes.push(format!(
            "spans: {} of {} written to {} (every {every}th request)",
            kept.len(),
            log.spans.len(),
            path.display()
        ));
    }

    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, m.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    let acked = std::mem::take(&mut log.acked);
    Ok(Traced {
        log,
        acked,
        metrics,
        counts: c,
    })
}

fn read_names(op: &str) -> (&'static str, &'static str) {
    match op {
        "get_schema" => (
            "geodb.read_us.get_schema.p50",
            "geodb.read_us.get_schema.p99",
        ),
        "get_class" => ("geodb.read_us.get_class.p50", "geodb.read_us.get_class.p99"),
        "get_value" => ("geodb.read_us.get_value.p50", "geodb.read_us.get_value.p99"),
        _ => ("geodb.read_us.select.p50", "geodb.read_us.select.p99"),
    }
}

/// Write-path metrics of a traced log: refreshes, rule patches,
/// commits and replication.
fn write_path(log: &Log) -> [(&'static str, f64); 6] {
    let dist = |name: &str| sorted_us(log.spans.iter().filter(|s| s.name == name).map(|s| s.dur()));
    let commit = dist("geodb.commit");
    let c = &log.counts;
    [
        (
            "gisui.windows_refreshed_per_write",
            ratio(c.refreshed, c.commits),
        ),
        (
            "active.rule_patch_us.p50",
            pct(&dist("active.rule_patch"), 0.5),
        ),
        ("geodb.commit_us.p50", pct(&commit, 0.5)),
        ("geodb.commit_us.p99", pct(&commit, 0.99)),
        (
            "geodb.repl_delta_bytes_per_commit",
            ratio(c.delta_bytes, c.deltas),
        ),
        ("geodb.repl_lag_epochs.max", log.repl_lag_max as f64),
    ]
}

/// Writer operations of the write probe.
const WRITE_PROBE_OPS: u64 = 256;

/// The write path, traced, for a workload whose own traffic only reads:
/// the edit workload's writer alone, for a fixed number of operations,
/// on a fresh edit deployment (streaming replica, reads routed
/// `BoundedStaleness(1)`, admin reloads). It runs after the measured
/// phases and its spans and counts stay apart from the workload's, so
/// it moves only the write-path metrics. It passes the edit checks and
/// the decomposition check; its spans are written beside the
/// workload's.
fn write_probe(spec: &Spec, notes: &mut Vec<String>) -> Result<Log, String> {
    let probe = Spec {
        workload: Workload::Edit,
        budget: Budget::Units(WRITE_PROBE_OPS),
        clients: 1,
        spans_out: None,
        ..spec.clone()
    };
    let fix = fixture::build(Workload::Edit, spec.seed, &spec.sizes)?;
    let warm = run_phase(
        &fix,
        &probe,
        &Phase {
            traced: false,
            budget: Budget::Units(8),
            stream: 2,
            sample: false,
        },
    );
    let mut log = run_phase(
        &fix,
        &probe,
        &Phase {
            traced: true,
            budget: probe.budget,
            stream: 3,
            sample: true,
        },
    )
    .log;
    let writer_ops = log.ops;
    log.absorb_failures(&warm.log);
    delta_probe(&fix, &probe, &mut log, notes)?;
    let acked: BTreeMap<Oid, String> = warm.log.acked.iter().chain(&log.acked).cloned().collect();
    check::edits(&fix, &acked, &mut log);
    match self_times(&log.spans) {
        Ok(selfs) => {
            let (mut root_ns, mut outside_ns) = (0u64, 0u64);
            for (s, own) in log.spans.iter().zip(selfs) {
                if DECOMPOSED.contains(&s.name) {
                    root_ns += s.dur();
                    outside_ns += own;
                } else if s.name == "gisui.refresh" {
                    outside_ns += own;
                }
            }
            let unattributed = ratio(outside_ns, root_ns);
            if unattributed > MAX_UNATTRIBUTED {
                log.error(format!(
                    "write probe decomposition: {unattributed:.3} of replayed request time is outside every layer span"
                ));
            }
            notes.push(format!(
                "write probe: {} writer operations, {} commits, layer spans cover {:.4} of {:.1} ms; {} replays compared with their served twin, {} skipped; {} acknowledged edits readable on primary and replica",
                writer_ops,
                log.counts.commits,
                1.0 - unattributed,
                root_ns as f64 / 1e6,
                log.compared,
                log.skipped,
                acked.len()
            ));
        }
        Err(e) => log.error(format!("write probe decomposition: {e}")),
    }
    if log.compared == 0 {
        log.error("write probe: no replayed write was compared with its served refresh".into());
    }
    if let Some(path) = &spec.spans_out {
        let path = path.with_file_name(format!("spans-{}-write-probe.jsonl", spec.workload.name()));
        write_jsonl(&path, &log.spans)
            .map_err(|e| format!("write spans to {}: {e}", path.display()))?;
    }
    Ok(log)
}

const PROBE_REPS: usize = 5;

/// The replication delta of one edit: a follower attached after the
/// traced phase, one more acknowledged commit, and one sync, which then
/// carries exactly that commit. The streaming replica coalesces commits
/// by timing, so its own counters cannot give a repeatable size.
fn delta_probe(
    fix: &Fixture,
    spec: &Spec,
    log: &mut Log,
    notes: &mut Vec<String>,
) -> Result<(), String> {
    let probe = ReplicaStore::attach(&fix.store, "probe").map_err(|e| format!("probe: {e}"))?;
    let oid = fix.ext.poles[fix.pole_rank[0]];
    let value = gen::edit_value(spec.seed, u64::MAX);
    let update = vec![("pole_historic".to_string(), Value::Text(value.clone()))];
    fix.store
        .write(|db| db.update(oid, update))
        .map_err(|e| format!("probe commit: {e}"))?;
    log.acked.push((oid, value));
    let mut t = Tracer::new(u64::MAX, 0);
    let shipped = t.leaf("geodb.repl_ship", || probe.sync_once(), |_| 0);
    match shipped {
        Ok(SyncOutcome::Delta { bytes, .. }) => {
            log.counts.deltas += 1;
            log.counts.delta_bytes += bytes;
            notes.push(format!(
                "replication: one edit ships a {bytes}-byte delta, applied in {:.1} ms",
                t.spans[0].dur() as f64 / 1e6
            ));
        }
        other => return Err(format!("probe sync shipped {other:?}, not one delta")),
    }
    log.spans.extend(t.spans);
    if let Some(r) = &fix.replica {
        let s = r.status();
        notes.push(format!(
            "streaming replica over the run: {} delta syncs ({} bytes), {} full syncs ({} bytes), primary at epoch {}",
            s.delta_syncs, s.delta_bytes, s.full_syncs, s.full_bytes, s.primary_epoch
        ));
    }
    Ok(())
}

/// Full compile of the installed rule base, median of several.
fn compile_us(fix: &Fixture) -> f64 {
    let base = fix.server.rule_base();
    let times: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            base.invalidate_compiled();
            let t0 = Instant::now();
            std::hint::black_box(base.precompile());
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}

/// Parse, analyze and compile the installed programs, median of several.
fn custlang_us(fix: &Fixture, spec: &Spec) -> Result<f64, String> {
    let snap = fix.store.snapshot();
    let library = InterfaceBuilder::with_paper_library().library;
    let synthetic = bench::synthetic_program(spec.sizes.synthetic_directives);
    let mut times = Vec::new();
    for _ in 0..PROBE_REPS {
        let t0 = Instant::now();
        for (src, prefix) in [(FIG6_PROGRAM, "fig6"), (synthetic.as_str(), "synth")] {
            let program = custlang::parse(src).map_err(|e| format!("parse: {e}"))?;
            let env = custlang::AnalysisEnv::new(snap.catalog(), &library);
            if !custlang::is_clean(&custlang::analyze(&program, &env)) {
                return Err(format!("program {prefix} does not analyze cleanly"));
            }
            std::hint::black_box(custlang::compile(&program, prefix));
        }
        times.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    Ok(median(&times))
}

/// Engine selection time with metrics on over metrics off, on the
/// workload's own events, alternating the two settings.
fn obs_ratio(fix: &Fixture, spec: &Spec) -> f64 {
    let mut engine = fix.server.rule_base().session();
    engine.set_strategy(DispatchStrategy::Compiled);
    let mut rng = Rng::new(spec.seed, 7);
    let work: Vec<(SessionContext, Vec<DbEvent>)> = if spec.workload == Workload::Dispatch {
        (0..256)
            .map(|i| {
                let j = fix.dispatch_session(&mut rng, i % fix.server.shards());
                let events = gen::dispatch_batch(&mut rng, spec.sizes.batch_len, &fix.ext);
                (gen::dispatch_context(j), events)
            })
            .collect()
    } else {
        let zipf = gen::Zipf::new(fix.pool.len(), spec.sizes.zipf_s);
        (0..512)
            .map(|_| {
                let ctx = fix.pool[zipf.sample(&mut rng)].context.clone();
                let mut events = vec![DbEvent::GetSchema {
                    schema: gen::SCHEMA.into(),
                }];
                for class in gen::CLASSES {
                    events.push(DbEvent::GetClass {
                        schema: gen::SCHEMA.into(),
                        class: class.into(),
                    });
                }
                let pole = fix.ext.poles[fix.pole_rank[fix.pole_zipf.sample(&mut rng)]];
                events.push(DbEvent::GetValue {
                    schema: gen::SCHEMA.into(),
                    class: "Pole".into(),
                    oid: pole,
                });
                (ctx, events)
            })
            .collect()
    };
    let batched = spec.workload == Workload::Dispatch;
    let mut pass = || {
        let t0 = Instant::now();
        for (ctx, events) in &work {
            if batched {
                std::hint::black_box(
                    engine.dispatch_batch(events.iter().cloned().map(Event::Db), ctx),
                );
            } else {
                for e in events {
                    let _ = std::hint::black_box(engine.dispatch(Event::Db(e.clone()), ctx));
                }
            }
        }
        t0.elapsed().as_secs_f64()
    };
    pass();
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for _ in 0..PROBE_REPS {
        obs::set_enabled(true);
        on.push(pass());
        obs::set_enabled(false);
        off.push(pass());
    }
    obs::set_enabled(true);
    median(&on) / median(&off)
}
