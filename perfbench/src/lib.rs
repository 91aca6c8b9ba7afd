//! The activegis serving benchmark.
//!
//! Drives real `SessionServer` traffic from one process with closed-loop
//! client threads and reports end-to-end metrics (untraced run) or
//! per-layer metrics (traced run) for three workloads:
//!
//! * `browse` — the Fig. 4/7 read path through `Dispatcher::handle_request`;
//! * `dispatch` — raw rule selection through `SessionServer::dispatch_batch`;
//! * `edit` — `apply_update` writes beside browse reads, rule hot-reload
//!   and follower reads from a streaming replica.
//!
//! See `NOTES.md` in this directory for the workload parameters and
//! which layer metric should move which end-to-end metric.

pub mod check;
pub mod clients;
pub mod fixture;
pub mod gen;
pub mod pin;
pub mod replay;
pub mod report;
pub mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;

use clients::{run_phase, Phase};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Browse,
    Dispatch,
    Edit,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "browse" => Some(Workload::Browse),
            "dispatch" => Some(Workload::Dispatch),
            "edit" => Some(Workload::Edit),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Browse => "browse",
            Workload::Dispatch => "dispatch",
            Workload::Edit => "edit",
        }
    }
}

/// Sizes of the generated inputs and of the serving deployment.
#[derive(Clone, Debug)]
pub struct Sizes {
    /// Poles in the generated `phone_net` (`TelecomConfig::with_poles`).
    pub poles: usize,
    /// Directives of `bench::synthetic_program`, one per synthetic user.
    pub synthetic_directives: usize,
    /// Contexts browse sessions are drawn from.
    pub browse_contexts: usize,
    pub browse_sessions: usize,
    pub dispatch_sessions: usize,
    pub batch_len: usize,
    /// Server shard threads.
    pub shards: usize,
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Every this many writer operations is an admin reinstall.
    pub admin_every: u64,
    /// Zipf exponent of contexts, poles and dispatch sessions.
    pub zipf_s: f64,
}

impl Sizes {
    pub fn standard() -> Sizes {
        Sizes {
            poles: 2000,
            synthetic_directives: 1000,
            browse_contexts: 256,
            browse_sessions: 64,
            dispatch_sessions: 4096,
            batch_len: 32,
            shards: 2,
            setup_reps: 7,
            admin_every: 16,
            zipf_s: 1.0,
        }
    }

    /// Small inputs for the benchmark's own tests.
    pub fn small() -> Sizes {
        Sizes {
            poles: 200,
            synthetic_directives: 40,
            browse_contexts: 32,
            browse_sessions: 8,
            dispatch_sessions: 64,
            batch_len: 8,
            setup_reps: 1,
            admin_every: 4,
            ..Sizes::standard()
        }
    }
}

/// How long a phase runs: wall-clock seconds, or a fixed number of
/// units per client (visits, batches or writer operations).
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    Seconds(f64),
    Units(u64),
}

impl Budget {
    pub(crate) fn half(self) -> Budget {
        match self {
            Budget::Seconds(s) => Budget::Seconds(s / 2.0),
            Budget::Units(n) => Budget::Units(n.div_ceil(2)),
        }
    }
}

#[derive(Clone, Debug)]
pub struct Spec {
    pub workload: Workload,
    pub seed: u64,
    pub budget: Budget,
    pub trace: bool,
    pub sizes: Sizes,
    /// Closed-loop client threads.
    pub clients: usize,
    /// Where a traced run writes its spans.
    pub spans_out: Option<PathBuf>,
}

/// Work counts the traced replay observed. With a fixed unit budget and
/// seed they repeat exactly from run to run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub reads: u64,
    pub rows_returned: u64,
    pub selects: u64,
    pub rows_examined: u64,
    pub rows_selected: u64,
    pub events: u64,
    pub windows_built: u64,
    pub widgets: u64,
    pub windows_rendered: u64,
    pub ascii_bytes: u64,
    pub commits: u64,
    pub deltas: u64,
    pub delta_bytes: u64,
    pub refreshed: u64,
    pub patched_reloads: u64,
    pub full_recompiles: u64,
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        self.reads += o.reads;
        self.rows_returned += o.rows_returned;
        self.selects += o.selects;
        self.rows_examined += o.rows_examined;
        self.rows_selected += o.rows_selected;
        self.events += o.events;
        self.windows_built += o.windows_built;
        self.widgets += o.widgets;
        self.windows_rendered += o.windows_rendered;
        self.ascii_bytes += o.ascii_bytes;
        self.commits += o.commits;
        self.deltas += o.deltas;
        self.delta_bytes += o.delta_bytes;
        self.refreshed += o.refreshed;
        self.patched_reloads += o.patched_reloads;
        self.full_recompiles += o.full_recompiles;
    }
}

/// End-to-end metrics: `(name, unit)`, reported by untraced runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`, reported by traced runs. A layer
/// a workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("server.queue_wait_us.p50", "us"),
    ("server.queue_wait_us.p99", "us"),
    ("server.reply_us.p50", "us"),
    ("server.shard_busy_share", "ratio"),
    ("gisui.pin_us.p50", "us"),
    ("gisui.residual_us.p50", "us"),
    ("gisui.windows_refreshed_per_write", "count"),
    ("active.select_us_per_event.p50", "us"),
    ("active.select_us_per_event.p99", "us"),
    ("active.winner_cache_hit_ratio", "ratio"),
    ("active.rule_patch_us.p50", "us"),
    ("active.compile_us", "us"),
    ("geodb.read_us.get_schema.p50", "us"),
    ("geodb.read_us.get_schema.p99", "us"),
    ("geodb.read_us.get_class.p50", "us"),
    ("geodb.read_us.get_class.p99", "us"),
    ("geodb.read_us.get_value.p50", "us"),
    ("geodb.read_us.get_value.p99", "us"),
    ("geodb.read_us.select.p50", "us"),
    ("geodb.read_us.select.p99", "us"),
    ("geodb.rows_returned_per_read", "rows"),
    ("geodb.rows_examined_per_returned", "ratio"),
    ("geodb.commit_us.p50", "us"),
    ("geodb.commit_us.p99", "us"),
    ("geodb.data_bytes_per_object", "bytes"),
    ("geodb.epochs_retained", "count"),
    ("geodb.repl_delta_bytes_per_commit", "bytes"),
    ("geodb.repl_lag_epochs.max", "count"),
    ("builder.build_us.schema.p50", "us"),
    ("builder.build_us.class.p50", "us"),
    ("builder.build_us.instance.p50", "us"),
    ("builder.widgets_per_window", "count"),
    ("uilib.render_us.p50", "us"),
    ("uilib.ascii_bytes_per_window", "bytes"),
    ("custlang.compile_us", "us"),
    ("obs.metrics_on_off_ratio", "ratio"),
    ("bench.trace_overhead_ratio", "ratio"),
];

/// The result of one benchmark invocation.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub error_count: u64,
    /// The metrics the run reports, in list order, with their units.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Further figures, printed for people, not parsed.
    pub notes: Vec<String>,
    /// Counts of the traced phase (empty for untraced runs).
    pub counts: Counts,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.error_count == 0 && self.failed == 0
    }
}

/// Warm-up units per client: enough to fill caches and open windows.
fn warm_units(w: Workload) -> u64 {
    match w {
        Workload::Browse => 4,
        Workload::Dispatch => 1024,
        Workload::Edit => 8,
    }
}

/// Run the benchmark once.
pub fn run(spec: &Spec) -> Result<Outcome, String> {
    // Program defaults: metrics on, trace sampling off.
    obs::set_enabled(true);
    obs::set_trace_sampling(0);
    let mut acked = BTreeMap::new();
    let warm = Phase {
        traced: false,
        budget: Budget::Units(warm_units(spec.workload)),
        stream: 2,
        sample: false,
    };
    let reps = if spec.trace { 1 } else { spec.sizes.setup_reps };
    let warm_acked = std::sync::Mutex::new(Vec::new());
    let (fix, setup) = fixture::build_timed(spec.workload, spec.seed, &spec.sizes, reps, |f| {
        let r = run_phase(f, spec, &warm);
        if r.log.failed > 0 || r.log.error_count > 0 {
            return Err(format!("warm-up failed: {:?}", r.log.errors));
        }
        *warm_acked.lock().expect("warm-up log") = r.log.acked;
        Ok(())
    })?;
    acked.extend(warm_acked.into_inner().expect("warm-up log"));

    let measured = Phase {
        traced: false,
        budget: if spec.trace {
            spec.budget.half()
        } else {
            spec.budget
        },
        stream: 3,
        sample: true,
    };
    let untraced = run_phase(&fix, spec, &measured);
    acked.extend(untraced.log.acked.iter().cloned());
    let mut log = untraced.log;
    let wall = untraced.wall_s;
    let slices = untraced.slices;
    let mut notes = Vec::new();
    match spec.workload {
        Workload::Browse => {
            let samples = std::mem::take(&mut log.browse_samples);
            let cov = check::browse(&fix, &spec.sizes, &samples, &mut log);
            notes.push(format!(
                "check: {} sampled responses equal the reference; customization checked on {} customized and {} generic Pole windows",
                cov.compared, cov.customized_checked, cov.generic_checked
            ));
        }
        Workload::Dispatch => {
            let samples = std::mem::take(&mut log.dispatch_samples);
            let n = check::dispatch(&fix, &samples, &mut log);
            notes.push(format!(
                "check: {n} sampled events fired the Linear oracle's rules"
            ));
        }
        Workload::Edit => {}
    }

    let mut out = Outcome::default();
    if spec.trace {
        let traced = report::traced(&fix, spec, &log, wall, &mut notes)?;
        log.merge(traced.log);
        acked.extend(traced.acked);
        out.metrics = traced.metrics;
        out.counts = traced.counts;
    } else {
        out.metrics = report::end_to_end(&fix, spec, &log, wall, &slices, &setup, &mut notes);
    }
    if spec.workload == Workload::Edit {
        check::edits(&fix, &acked, &mut log);
        notes.push(format!(
            "check: {} acknowledged edits readable on primary and replica; {} routed reads, {} beyond the staleness bound",
            acked.len(),
            log.routed_reads,
            log.stale_reads
        ));
    }
    drop(fix);
    out.attempted = log.ops.max(1);
    out.failed = log.failed;
    out.errors = log.errors;
    out.error_count = log.error_count;
    out.notes = notes;
    Ok(out)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
