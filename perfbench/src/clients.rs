//! Closed-loop clients: each sends its next call only after the
//! previous reply, as a GIS user waits for a window before the next
//! gesture. An untraced phase serves every call through the real
//! `SessionServer` paths; a traced phase replays the same seeded calls
//! layer by layer inside the shard (see `replay`).

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

use activegis::ServerSession;
use geodb::query::DbEvent;
use geodb::value::Value;
use geodb::{Epoch, Oid};
use gisui::{Dispatcher, Request, Response, WindowDescriptor, WindowId};

use crate::fixture::{BrowseSession, Fixture};
use crate::gen::{self, Class, Rng};
use crate::pin;
use crate::replay;
use crate::report::pct;
use crate::trace::{now_ns, Span, Tracer};
use crate::{Budget, Counts, Spec, Workload};

/// Staleness bound of the edit workload's routed reads, in epochs.
pub const STALENESS_BOUND: u64 = 1;
/// One in this many browse requests is checked against a reference.
const BROWSE_SAMPLE: u64 = 16;
/// One in this many dispatch batches is checked against the oracle.
const DISPATCH_SAMPLE: u64 = 64;
/// Samples a client keeps for the after-run checks, so memory does not
/// grow with throughput.
const MAX_KEPT: usize = 256;
/// One in this many edit writes is checked against the served refresh.
const WRITE_SAMPLE: u64 = 4;
/// Window id standing for "no window to close"; registries allocate
/// from the bottom, so it never names a real window.
const NO_WINDOW: u64 = u64::MAX;
/// Calls per client whose spans a traced phase keeps; later calls are
/// still replayed and counted, so memory stays bounded on fast lanes.
const MAX_TRACED_CALLS: u64 = 40_000;
/// Errors kept verbatim per client; later ones are only counted.
const MAX_ERRORS: usize = 16;

pub struct Phase {
    pub traced: bool,
    pub budget: Budget,
    /// Random stream of the phase's requests: measured phases share
    /// one, so a traced phase replays the untraced phase's calls.
    pub stream: u64,
    /// Keep samples for the correctness checks.
    pub sample: bool,
}

/// Window signature compared against the reference.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WinSig {
    pub kind: String,
    pub title: String,
    pub visible: bool,
    pub ascii_len: usize,
    pub ascii_hash: u64,
}

impl WinSig {
    pub fn of(w: &WindowDescriptor) -> WinSig {
        let mut h = DefaultHasher::new();
        w.ascii.hash(&mut h);
        WinSig {
            kind: w.kind.clone(),
            title: w.title.clone(),
            visible: w.visible,
            ascii_len: w.ascii.len(),
            ascii_hash: h.finish(),
        }
    }
}

pub struct BrowseSample {
    pub pool: usize,
    pub req: Request,
    pub windows: Vec<WinSig>,
}

pub struct DispatchSample {
    pub session: usize,
    pub events: Vec<DbEvent>,
    pub fired: Vec<Vec<String>>,
}

/// Everything one client (and, merged, one phase) observed.
#[derive(Default)]
pub struct Log {
    pub ops: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub error_count: u64,
    /// Round trip of every server call, by request class.
    pub lat: Vec<(Class, u64)>,
    /// `apply_update` acknowledgement round trips.
    pub write_lat: Vec<u64>,
    pub browse_samples: Vec<BrowseSample>,
    pub dispatch_samples: Vec<DispatchSample>,
    /// Acknowledged edits, in acknowledgement order.
    pub acked: Vec<(Oid, String)>,
    pub routed_reads: u64,
    pub stale_reads: u64,
    // Traced phases only.
    pub spans: Vec<Span>,
    pub busy_ns: Vec<u64>,
    pub counts: Counts,
    /// Replayed vs served comparisons made, and skipped because the
    /// served call pinned another epoch than the replay.
    pub compared: u64,
    pub skipped: u64,
    pub repl_lag_max: u64,
}

impl Log {
    fn fail(&mut self, ops: u64, msg: String) {
        self.failed += ops;
        self.error(msg);
    }

    /// A correctness failure (not an operation failure).
    pub fn error(&mut self, msg: String) {
        self.error_count += 1;
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(msg);
        }
    }

    fn served(&mut self, e0: Epoch, served: Epoch) {
        self.routed_reads += 1;
        if e0.lag_from(served) > STALENESS_BOUND {
            self.stale_reads += 1;
            self.error(format!(
                "read served at epoch {served} while the primary had published {e0}"
            ));
        }
    }

    fn check(&mut self, check: Check) {
        match check {
            Check::None => {}
            Check::Match => self.compared += 1,
            Check::Skipped => self.skipped += 1,
            Check::Mismatch(msg) => {
                self.compared += 1;
                self.error(format!("decomposition: {msg}"));
            }
        }
    }

    /// Take over another log's operations and failures, but none of its
    /// latencies, spans or counts.
    pub fn absorb_failures(&mut self, o: &Log) {
        self.ops += o.ops;
        self.failed += o.failed;
        self.error_count += o.error_count;
        for e in &o.errors {
            if self.errors.len() < MAX_ERRORS {
                self.errors.push(e.clone());
            }
        }
    }

    pub fn merge(&mut self, o: Log) {
        self.ops += o.ops;
        self.failed += o.failed;
        self.error_count += o.error_count;
        for e in o.errors {
            if self.errors.len() < MAX_ERRORS {
                self.errors.push(e);
            }
        }
        self.lat.extend(o.lat);
        self.write_lat.extend(o.write_lat);
        self.browse_samples.extend(o.browse_samples);
        self.dispatch_samples.extend(o.dispatch_samples);
        self.acked.extend(o.acked);
        self.routed_reads += o.routed_reads;
        self.stale_reads += o.stale_reads;
        self.spans.extend(o.spans);
        if self.busy_ns.len() < o.busy_ns.len() {
            self.busy_ns.resize(o.busy_ns.len(), 0);
        }
        for (i, b) in o.busy_ns.into_iter().enumerate() {
            self.busy_ns[i] += b;
        }
        self.counts.add(&o.counts);
        self.compared += o.compared;
        self.skipped += o.skipped;
        self.repl_lag_max = self.repl_lag_max.max(o.repl_lag_max);
    }
}

/// Outcome of comparing a replay against the served call.
enum Check {
    None,
    Match,
    Skipped,
    Mismatch(String),
}

pub struct PhaseResult {
    pub log: Log,
    pub wall_s: f64,
    pub slices: Vec<Slice>,
}

/// One measurement slice: its operation rate and the percentiles of
/// the calls it completed.
pub struct Slice {
    pub rate: f64,
    pub p50_us: f64,
    pub p99_us: f64,
}

/// Length of a measurement slice. The end-to-end rate and latency
/// percentiles are medians over the slices, so a few seconds in which
/// the host ran slow move them less than they would a pooled figure.
/// Each slice runs on freshly spawned client threads, pinned like their
/// shards (see `pin`).
const SLICE: Duration = Duration::from_secs(1);

/// Run one phase with `spec.clients` closed-loop clients. A time budget
/// is cut into slices; each client's request stream continues across
/// them.
pub fn run_phase(fix: &Fixture, spec: &Spec, phase: &Phase) -> PhaseResult {
    let start = Instant::now();
    let deadline = match phase.budget {
        Budget::Seconds(s) => Some(start + Duration::from_secs_f64(s)),
        Budget::Units(_) => None,
    };
    let mut clients: Vec<Ctx> = (0..spec.clients)
        .map(|c| Ctx::new(fix, spec, phase, c))
        .collect();
    let mut slices = Vec::new();
    loop {
        let slice_start = Instant::now();
        let slice_end = deadline.map(|d| d.min(slice_start + SLICE));
        let ops_before: u64 = clients.iter().map(|c| c.log.ops).sum();
        let calls_before: Vec<usize> = clients.iter().map(|c| c.log.lat.len()).collect();
        clients = std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .into_iter()
                .map(|mut cx| {
                    cx.deadline = slice_end;
                    s.spawn(move || {
                        let shards = cx.fix.server.shards();
                        if let Some(cpu) = pin::cpu_for(cx.client % shards, shards) {
                            // Unpinned, the run still measures; only less steadily.
                            let _ = pin::pin(0, cpu);
                        }
                        cx.run();
                        cx
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let ops: u64 = clients.iter().map(|c| c.log.ops).sum();
        let mut lat: Vec<f64> = clients
            .iter()
            .zip(calls_before)
            .flat_map(|(c, before)| c.log.lat[before..].iter().map(|&(_, ns)| ns as f64 / 1e3))
            .collect();
        lat.sort_by(f64::total_cmp);
        slices.push(Slice {
            rate: (ops - ops_before) as f64 / slice_start.elapsed().as_secs_f64(),
            p50_us: pct(&lat, 0.5),
            p99_us: pct(&lat, 0.99),
        });
        if deadline.is_none_or(|d| Instant::now() >= d) {
            break;
        }
    }
    let mut log = Log::default();
    for cx in clients {
        log.merge(cx.log);
    }
    PhaseResult {
        log,
        wall_s: start.elapsed().as_secs_f64(),
        slices,
    }
}

struct Ctx<'a> {
    fix: &'a Fixture,
    spec: &'a Spec,
    phase: &'a Phase,
    client: usize,
    deadline: Option<Instant>,
    rng: Rng,
    log: Log,
    /// Calls made by this client in this phase (request ids, sampling).
    seq: u64,
    /// Units (visits, batches, writer operations) done in this phase.
    units: u64,
    admin: Option<Admin>,
}

impl<'a> Ctx<'a> {
    fn new(fix: &'a Fixture, spec: &'a Spec, phase: &'a Phase, client: usize) -> Ctx<'a> {
        Ctx {
            fix,
            spec,
            phase,
            client,
            deadline: None,
            rng: Rng::new(spec.seed, phase.stream * 1000 + client as u64),
            log: Log::default(),
            seq: 0,
            units: 0,
            admin: None,
        }
    }

    /// Run this client's role until the slice deadline or unit budget.
    fn run(&mut self) {
        let clients = self.spec.clients;
        match self.spec.workload {
            Workload::Browse => reader(self, self.client, clients),
            Workload::Dispatch => dispatcher(self),
            Workload::Edit if self.client == 0 => writer(self),
            Workload::Edit => reader(self, self.client - 1, clients - 1),
        }
    }

    fn more(&self) -> bool {
        match (self.deadline, self.phase.budget) {
            (Some(d), _) => Instant::now() < d,
            (None, Budget::Units(n)) => self.units < n,
            (None, Budget::Seconds(_)) => false,
        }
    }

    fn next_req(&mut self) -> u64 {
        self.seq += 1;
        ((self.client as u64) << 40) | self.seq
    }

    /// Run `f` on the session's shard inside a traced frame: the call
    /// (submit → receive) with its queue wait, the shard's execution and
    /// the reply as children, and the replay spans under the execution.
    fn traced<R: Send + 'static>(
        &mut self,
        session: ServerSession,
        f: impl FnOnce(&mut Dispatcher, &mut Tracer, &mut Counts) -> R + Send + 'static,
    ) -> R {
        let req = self.next_req();
        let submit = now_ns();
        let (r, spans, counts, start, end) = self.fix.server.with_dispatcher(session, move |d| {
            let start = now_ns();
            let mut t = Tracer::new(req, 4);
            let mut c = Counts::default();
            let r = f(d, &mut t, &mut c);
            (r, t.spans, c, start, now_ns())
        });
        let recv = now_ns();
        if self.log.busy_ns.len() <= session.shard {
            self.log.busy_ns.resize(session.shard + 1, 0);
        }
        self.log.busy_ns[session.shard] += end - start;
        self.log.counts.add(&counts);
        if self.seq > MAX_TRACED_CALLS {
            return r;
        }
        let frame = [
            ("client.call", None, submit, recv),
            ("server.queue_wait", Some(0), submit, start),
            ("shard.exec", Some(0), start, end),
            ("server.reply", Some(0), end, recv),
        ];
        for (id, (name, parent, s, e)) in frame.into_iter().enumerate() {
            self.log.spans.push(Span {
                req,
                id: id as u32,
                parent,
                name,
                start: s,
                end: e,
                items: 0,
            });
        }
        self.log.spans.extend(spans.into_iter().map(|s| Span {
            parent: s.parent.or(Some(2)),
            ..s
        }));
        r
    }
}

/// The sessions reader `r` of `readers` owns. With a reader per shard,
/// reader `r` owns the sessions of shard `r`, so browse readers never
/// queue behind each other (their tail then follows the host, not the
/// collisions). A lone reader, as in edit, owns every session and
/// queues behind the writer on the writer's shard.
fn owned(fix: &Fixture, r: usize, readers: usize) -> Vec<BrowseSession> {
    let shards = fix.server.shards();
    fix.browse
        .iter()
        .filter(|s| readers < shards || s.session.shard == r % shards)
        .copied()
        .collect()
}

fn reader(cx: &mut Ctx, r: usize, readers: usize) {
    let sessions = owned(cx.fix, r, readers);
    if sessions.is_empty() {
        return;
    }
    while cx.more() {
        let sess = sessions[cx.rng.below(sessions.len())];
        let reqs = gen::visit(
            &mut cx.rng,
            &cx.fix.pole_zipf,
            &cx.fix.pole_rank,
            &cx.fix.ext,
        );
        let mut opened = Vec::with_capacity(reqs.len());
        for req in reqs {
            let sample = cx.phase.sample && (cx.seq + 1).is_multiple_of(BROWSE_SAMPLE);
            let class = Class::of(&req);
            let t0 = Instant::now();
            let window = if cx.phase.traced {
                traced_open(cx, sess, req, sample)
            } else {
                served_open(cx, sess, req, sample)
            };
            cx.log.lat.push((class, t0.elapsed().as_nanos() as u64));
            cx.log.ops += 1;
            opened.push(window);
        }
        // Close every window of the visit in one call.
        let n = opened.len() as u64;
        let sid = sess.session.sid;
        let t0 = Instant::now();
        let close = move |d: &mut Dispatcher| {
            opened
                .into_iter()
                .map(|w| d.handle_request(sid, Request::CloseWindow { window: w }))
                .filter(|r| !matches!(r, Response::Closed(_)))
                .count() as u64
        };
        let bad = if cx.phase.traced {
            cx.traced(sess.session, move |d, t, _| {
                let root = t.enter(replay::root_name(Class::Close));
                let bad = close(d);
                t.exit(root);
                bad
            })
        } else {
            cx.seq += 1;
            cx.fix.server.with_dispatcher(sess.session, close)
        };
        cx.log
            .lat
            .push((Class::Close, t0.elapsed().as_nanos() as u64));
        cx.log.ops += n;
        if bad > 0 {
            cx.log.fail(bad, "CloseWindow failed".into());
        }
        cx.units += 1;
    }
}

/// Serve one window request; returns the window to close (0 if none).
fn served_open(cx: &mut Ctx, sess: BrowseSession, req: Request, sample: bool) -> u64 {
    cx.seq += 1;
    let keep = (sample && cx.log.browse_samples.len() < MAX_KEPT).then(|| req.clone());
    let sid = sess.session.sid;
    let (resp, e0, served) = cx.fix.server.with_dispatcher(sess.session, move |d| {
        let e0 = d.store().epoch();
        let resp = d.handle_request(sid, req);
        (resp, e0, d.db_epoch())
    });
    cx.log.served(e0, served);
    match resp {
        Response::Windows(ws) if !ws.is_empty() => {
            if let Some(req) = keep {
                cx.log.browse_samples.push(BrowseSample {
                    pool: sess.pool,
                    req,
                    windows: ws.iter().map(WinSig::of).collect(),
                });
            }
            ws[0].id
        }
        Response::Error { message } => {
            cx.log.fail(1, message);
            NO_WINDOW
        }
        other => {
            cx.log.fail(1, format!("unexpected response {other:?}"));
            NO_WINDOW
        }
    }
}

/// Replay one window request layer by layer; on sampled requests also
/// serve it and compare the windows. Returns the served window to close
/// (`NO_WINDOW` when the request was only replayed).
fn traced_open(cx: &mut Ctx, sess: BrowseSession, req: Request, sample: bool) -> u64 {
    let sid = sess.session.sid;
    let (replayed, e0, pinned, lag, check, window) = cx.traced(sess.session, move |d, t, c| {
        let e0 = d.store().epoch();
        let replayed = replay::request(d, sid, &req, t, c);
        let pinned = d.db_epoch();
        let lag = d.explanation_log().staleness();
        let mut check = Check::None;
        let mut window = NO_WINDOW;
        if let (true, Ok(windows)) = (sample, &replayed) {
            let t0 = now_ns();
            let resp = d.handle_request(sid, req);
            t.push("gisui.served", t0, now_ns(), 0);
            check = match resp {
                Response::Windows(ws) => {
                    window = ws.first().map_or(NO_WINDOW, |w| w.id);
                    if d.db_epoch() != pinned {
                        Check::Skipped
                    } else {
                        let served: Vec<String> = ws
                            .iter()
                            .filter_map(|w| d.window(WindowId(w.id)))
                            .map(|m| m.built.fingerprint())
                            .collect();
                        let replay: Vec<String> = windows.iter().map(|w| w.fingerprint()).collect();
                        if served == replay {
                            Check::Match
                        } else {
                            Check::Mismatch(format!("served {served:?}, replayed {replay:?}"))
                        }
                    }
                }
                other => Check::Mismatch(format!("served {other:?}")),
            };
        }
        (replayed.map(|_| ()), e0, pinned, lag, check, window)
    });
    cx.log.served(e0, pinned);
    cx.log.repl_lag_max = cx.log.repl_lag_max.max(lag);
    cx.log.check(check);
    if let Err(e) = replayed {
        cx.log.fail(1, e);
    }
    window
}

fn dispatcher(cx: &mut Ctx) {
    while cx.more() {
        let j = cx
            .fix
            .dispatch_session(&mut cx.rng, cx.client % cx.fix.server.shards());
        let session = cx.fix.dispatch[j];
        let events = gen::dispatch_batch(&mut cx.rng, cx.spec.sizes.batch_len, &cx.fix.ext);
        let n = events.len() as u64;
        let sample = cx.phase.sample && (cx.seq + 1).is_multiple_of(DISPATCH_SAMPLE);
        let t0 = Instant::now();
        if cx.phase.traced {
            let sid = session.sid;
            let (replayed, check) = cx.traced(session, move |d, t, c| {
                let replayed = replay::batch(d, sid, events, t, c);
                let mut check = Check::None;
                if let (true, Ok((sorted, outcomes))) = (sample, &replayed) {
                    let t0 = now_ns();
                    let served = d.dispatch_db_batch(sid, sorted.clone());
                    t.push("gisui.served", t0, now_ns(), 0);
                    let fired = replay::fired(outcomes);
                    check = match served {
                        Ok(outs) => {
                            let served = replay::fired(&outs);
                            if served == fired {
                                Check::Match
                            } else {
                                Check::Mismatch(format!("served {served:?}, replayed {fired:?}"))
                            }
                        }
                        Err(e) => Check::Mismatch(format!("served {e}")),
                    };
                }
                let failed = match &replayed {
                    Ok((_, outcomes)) => outcomes
                        .iter()
                        .find_map(|o| o.as_ref().err())
                        .map(|e| format!("select: {e}")),
                    Err(e) => Some(e.clone()),
                };
                (failed, check)
            });
            cx.log.check(check);
            if let Some(e) = replayed {
                cx.log.fail(n, e);
            }
        } else {
            cx.seq += 1;
            let keep = (sample && cx.log.dispatch_samples.len() < MAX_KEPT).then(|| events.clone());
            match cx.fix.server.dispatch_batch(session, events) {
                Ok(outs) => {
                    if let Some(events) = keep {
                        cx.log.dispatch_samples.push(DispatchSample {
                            session: j,
                            events,
                            fired: outs
                                .iter()
                                .map(|o| o.fired_names().iter().map(|s| s.to_string()).collect())
                                .collect(),
                        });
                    }
                }
                Err(e) => cx.log.fail(n, format!("dispatch_batch: {e}")),
            }
        }
        cx.log
            .lat
            .push((Class::Batch, t0.elapsed().as_nanos() as u64));
        cx.log.ops += n;
        cx.units += 1;
    }
}

fn writer(cx: &mut Ctx) {
    let session = cx.fix.writer.expect("edit fixture has a writer");
    let mut admin_state = cx.admin.take().unwrap_or_else(|| Admin {
        engine: cx.fix.server.rule_base().session(),
        library: builder::InterfaceBuilder::with_paper_library().library,
    });
    while cx.more() {
        let ops = cx.units;
        let t0 = Instant::now();
        if (ops + 1).is_multiple_of(cx.spec.sizes.admin_every) {
            admin(cx, &mut admin_state, ops);
            cx.log
                .lat
                .push((Class::Admin, t0.elapsed().as_nanos() as u64));
        } else {
            let oid = cx.fix.ext.poles[cx.fix.pole_rank[cx.fix.pole_zipf.sample(&mut cx.rng)]];
            let value = gen::edit_value(cx.spec.seed, ops);
            let ok = if cx.phase.traced {
                traced_update(cx, session, oid, value.clone(), ops)
            } else {
                served_update(cx, session, oid, value.clone())
            };
            let ns = t0.elapsed().as_nanos() as u64;
            cx.log.lat.push((Class::Update, ns));
            cx.log.write_lat.push(ns);
            if ok {
                cx.log.acked.push((oid, value));
            }
        }
        cx.log.ops += 1;
        cx.units += 1;
    }
    cx.admin = Some(admin_state);
}

fn served_update(cx: &mut Ctx, session: ServerSession, oid: Oid, value: String) -> bool {
    cx.seq += 1;
    let sid = session.sid;
    let (r, e0, served) = cx.fix.server.with_dispatcher(session, move |d| {
        let e0 = d.store().epoch();
        let r = d.apply_update(sid, oid, vec![("pole_historic".into(), Value::Text(value))]);
        (r, e0, d.db_epoch())
    });
    cx.log.served(e0, served);
    match r {
        Ok(_) => true,
        Err(e) => {
            cx.log.fail(1, format!("apply_update: {e}"));
            false
        }
    }
}

fn traced_update(cx: &mut Ctx, session: ServerSession, oid: Oid, value: String, op: u64) -> bool {
    let sid = session.sid;
    let sample = op.is_multiple_of(WRITE_SAMPLE);
    let (ok, e0, pinned, lag, check) = cx.traced(session, move |d, t, c| {
        let e0 = d.store().epoch();
        let replayed = replay::apply_update(d, sid, oid, value, t, c);
        let pinned = d.db_epoch();
        let lag = d.explanation_log().staleness();
        let mut check = Check::None;
        if let (true, Ok(windows)) = (sample, &replayed) {
            let t0 = now_ns();
            let served = d.refresh_windows(gen::SCHEMA, "Pole", Some(oid));
            t.push("gisui.served", t0, now_ns(), 0);
            check = match served {
                Ok(ids) if d.db_epoch() != pinned => {
                    let _ = ids;
                    Check::Skipped
                }
                Ok(ids) => {
                    let served: Vec<(WindowId, String)> = ids
                        .iter()
                        .filter_map(|&id| d.window(id).map(|m| (id, m.built.fingerprint())))
                        .collect();
                    let replay: Vec<(WindowId, String)> = windows
                        .iter()
                        .map(|(id, w)| (*id, w.fingerprint()))
                        .collect();
                    if served == replay {
                        Check::Match
                    } else {
                        Check::Mismatch(format!("refresh served {served:?}, replayed {replay:?}"))
                    }
                }
                Err(e) => Check::Mismatch(format!("refresh served {e}")),
            };
        }
        (replayed.is_ok(), e0, pinned, lag, check)
    });
    cx.log.served(e0, pinned);
    cx.log.repl_lag_max = cx.log.repl_lag_max.max(lag);
    cx.log.check(check);
    if !ok {
        cx.log.fail(1, "replayed apply_update failed".into());
    }
    ok
}

/// Hot-reload the one-directive admin program: compile it, then swap
/// its rules in one at a time through a handle of the shared rule base
/// and recompile, which patches the standing tables. (Reinstalling by
/// `SessionServer::install_program` replaces the program by prefix, a
/// bulk change that always pays a full recompile.) The spans are kept
/// only in a traced phase.
fn admin(cx: &mut Ctx, admin: &mut Admin, op: u64) {
    let src = gen::admin_program(op);
    let req = cx.next_req();
    let base = cx.fix.server.rule_base().clone();
    let snap = cx.fix.store.snapshot();
    let mut t = Tracer::new(req, 0);
    let root = t.enter(replay::root_name(Class::Admin));
    let compiled = t.leaf(
        "custlang.compile",
        || {
            let program = custlang::parse(&src).map_err(|e| e.to_string())?;
            let env = custlang::AnalysisEnv::new(snap.catalog(), &admin.library);
            if !custlang::is_clean(&custlang::analyze(&program, &env)) {
                return Err("admin program does not analyze cleanly".to_string());
            }
            Ok(custlang::compile(&program, "admin"))
        },
        |_| 0,
    );
    let swapped = compiled.and_then(|rules| {
        let engine = &mut admin.engine;
        t.leaf(
            "active.rule_swap",
            || {
                for rule in rules {
                    // The first reload has nothing to replace.
                    let _ = engine.remove_rule(&rule.name);
                    engine.add_rule(rule).map_err(|e| e.to_string())?;
                }
                Ok(())
            },
            |_| 0,
        )
    });
    let stats = t.leaf(
        "active.rule_patch",
        || base.precompile(),
        |s| s.patched as u64,
    );
    t.exit(root);
    if let Err(e) = swapped {
        cx.log.fail(1, format!("admin reload: {e}"));
    }
    if stats.patched {
        cx.log.counts.patched_reloads += 1;
    } else {
        cx.log.counts.full_recompiles += 1;
    }
    if cx.phase.traced {
        cx.log.spans.extend(t.spans);
    }
}

/// The admin's handle on the rule base and the library its program is
/// analyzed against.
struct Admin {
    engine: active::Engine<custlang::Customization>,
    library: uilib::Library,
}
