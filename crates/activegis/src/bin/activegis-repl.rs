//! An interactive shell over the weak-integration protocol.
//!
//! Every command is turned into a protocol [`Request`], encoded to JSON,
//! decoded, served by the dispatcher, and the JSON [`Response`] decoded
//! back — the same path a remote front end would use.
//!
//! ```text
//! $ cargo run --bin activegis-repl
//! activegis> login juliano planner pole_manager
//! activegis> customize fig6
//! activegis> schema phone_net
//! activegis> class Pole
//! activegis> explain
//! activegis> help
//! ```

use std::io::{BufRead, Write};

use activegis::{ActiveGis, Request, Response, TelecomConfig, FIG6_PROGRAM};
use gisui::SessionId;

const HELP: &str = "\
commands:
  login <user> <category> <application>   start a session (required first)
  customize fig6                          install the paper's Fig. 6 program
  customize <file>                        install a program from a file
  schema <name>                           open the Schema window
  class <name>                            open a Class-set window (uses last schema)
  inst <oid>                              open an Instance window
  select <window> <path> <item>           deliver a list-select gesture
  close <window>                          close a window (and children)
  explain                                 print the rule-firing trace
  :explain [n]                            structured trace export as JSON (last n)
  :metrics                                metrics snapshot as JSON
  :metrics prom                           metrics in Prometheus text format
  :metrics on|off                         toggle metric collection
  :traces [n]                             summarize recent request traces
  :trace <id>                             render one trace tree (hex id)
  :trace sample <n>                       trace 1 in n requests (0 = off)
  :slo                                    SLO burn-rate report
  :db                                     database epoch, pins, retained epochs
  :wal                                    WAL status (records, bytes, groups, durable epoch)
  :wal open <dir>                         make the store durable in <dir> (recover or fresh)
  :wal checkpoint                         checkpoint now and truncate the log
  :wal window <ms>                        set the group-commit window
  :repl attach <id>                       attach a replica (full sync to current epoch)
  :repl status                            applied epoch / lag / sync counters per replica
  :repl sync                              drive every replica to the primary's epoch
  :repl policy primary|replica            route reads to primary / first replica
  :repl policy staleness <n>              replica reads within n epochs, else primary
  :repl promote <id> <dir>                fail over: replay <dir>'s WAL tail onto <id>
  :strategy [compiled|linear]             show or switch rule dispatch strategy
  :cache                                  winner-cache hit/miss/invalidation stats
  :compile                                compile rules now; show tables + latency
  :faults                                 failpoint status (hits / times triggered)
  :faults arm <name> [panic]              arm a failpoint: always error (or panic)
  :faults arm <name> p <prob> <seed>      arm with seeded probability
  :faults arm <name> nth <n>              arm to trigger every n-th hit
  :faults disarm <name>|reset             disarm one failpoint / all of them
  :quarantine [clear <rule>]              list circuit-broken rules / restore one
  :policy [open|closed]                   show or set the engine fault policy
  screen                                  tile this session's windows
  windows                                 list open windows
  help                                    this text
  quit                                    exit";

struct Repl {
    gis: ActiveGis,
    session: Option<SessionId>,
    last_schema: String,
}

impl Repl {
    /// Round-trip a request through the JSON protocol.
    fn call(&mut self, req: Request) -> Response {
        let Some(sid) = self.session else {
            return Response::Error {
                message: "no session: `login <user> <category> <application>` first".into(),
            };
        };
        let wire = gisui::encode(&req);
        let req: Request = gisui::decode(&wire).expect("own encoding decodes");
        let resp = self.gis.dispatcher().handle_request(sid, req);
        let wire = gisui::encode(&resp);
        gisui::decode(&wire).expect("own encoding decodes")
    }

    fn show(&self, resp: Response) {
        match resp {
            Response::Windows(ws) => {
                for w in ws {
                    if w.visible {
                        println!("[win {}] {} ({})", w.id, w.title, w.kind);
                        println!("{}", w.ascii);
                    } else {
                        println!("[win {}] {} ({}) — hidden", w.id, w.title, w.kind);
                    }
                }
            }
            Response::Closed(ids) => println!("closed {ids:?}"),
            Response::Explanation(lines) => {
                for l in lines {
                    println!("{l}");
                }
            }
            Response::Error { message } => println!("error: {message}"),
        }
    }

    fn show_traces(&self, n: usize) {
        let traces = ActiveGis::traces(n);
        if traces.is_empty() {
            println!("no traces recorded (arm sampling with `:trace sample 1`)");
            return;
        }
        for t in traces {
            println!(
                "{} shard={} spans={} {:.1}us{}{}",
                t.trace_id_hex,
                t.shard,
                t.spans.len(),
                t.total_ns as f64 / 1e3,
                if t.fault { " FAULT" } else { "" },
                if t.sampled { "" } else { " (fault-retained)" },
            );
        }
    }

    fn handle(&mut self, line: &str) -> bool {
        let parts: Vec<&str> = line.split_whitespace().collect();
        match parts.as_slice() {
            [] => {}
            ["quit"] | ["exit"] => return false,
            ["help"] => println!("{HELP}"),
            ["login", user, category, application] => {
                self.session = Some(self.gis.login(user, category, application));
                println!("session open for <{user}, {category}, {application}>");
            }
            ["customize", "fig6"] => match self.gis.customize_stored(FIG6_PROGRAM, "fig6") {
                Ok(n) => println!("installed {n} rules (program stored in db)"),
                Err(e) => println!("error: {e}"),
            },
            ["customize", file] => match std::fs::read_to_string(file) {
                Ok(src) => match self.gis.customize_stored(&src, file) {
                    Ok(n) => println!("installed {n} rules from {file} (program stored in db)"),
                    Err(e) => println!("error: {e}"),
                },
                Err(e) => println!("error: cannot read {file}: {e}"),
            },
            ["schema", name] => {
                self.last_schema = name.to_string();
                let resp = self.call(Request::OpenSchema {
                    schema: name.to_string(),
                });
                self.show(resp);
            }
            ["class", name] => {
                let resp = self.call(Request::OpenClass {
                    schema: self.last_schema.clone(),
                    class: name.to_string(),
                });
                self.show(resp);
            }
            ["inst", oid] => match oid.parse::<u64>() {
                Ok(oid) => {
                    let resp = self.call(Request::OpenInstance { oid });
                    self.show(resp);
                }
                Err(_) => println!("error: `{oid}` is not an oid"),
            },
            ["select", window, path, item] => match window.parse::<u64>() {
                Ok(window) => {
                    let resp = self.call(Request::UiGesture {
                        window,
                        path: path.to_string(),
                        gesture: "select".into(),
                        detail: Some(item.to_string()),
                    });
                    self.show(resp);
                }
                Err(_) => println!("error: `{window}` is not a window id"),
            },
            ["close", window] => match window.parse::<u64>() {
                Ok(window) => {
                    let resp = self.call(Request::CloseWindow { window });
                    self.show(resp);
                }
                Err(_) => println!("error: `{window}` is not a window id"),
            },
            ["explain"] => {
                let resp = self.call(Request::Explain);
                self.show(resp);
            }
            [":explain"] => println!("{}", self.gis.explanation_json()),
            [":explain", n] => match n.parse::<usize>() {
                Ok(n) => {
                    for record in self.gis.explanation_log().recent(n) {
                        println!("#{} {}", record.seq, record.trace.render_json());
                    }
                }
                Err(_) => println!("error: `{n}` is not a count"),
            },
            [":metrics"] => println!("{}", self.gis.metrics().to_json()),
            [":metrics", "prom"] => print!("{}", self.gis.metrics().to_prometheus()),
            [":traces"] => self.show_traces(8),
            [":traces", n] => match n.parse::<usize>() {
                Ok(n) => self.show_traces(n),
                Err(_) => println!("error: usage: :traces [n]"),
            },
            [":trace", "sample", n] => match n.parse::<u64>() {
                Ok(n) => {
                    ActiveGis::set_trace_sampling(n);
                    match n {
                        0 => println!("trace sampling off"),
                        1 => println!("tracing every request"),
                        _ => println!("tracing 1 in {n} requests (faults always)"),
                    }
                }
                Err(_) => println!("error: usage: :trace sample <n>  (0 = off)"),
            },
            [":trace", id] => match obs::parse_trace_id(id) {
                Some(id) => match ActiveGis::trace(id) {
                    Some(t) => print!("{}", t.render()),
                    None => println!("no trace {} in the rings", obs::trace_id_hex(id)),
                },
                None => println!("error: bad trace id: {id}"),
            },
            [":slo"] => match ActiveGis::slo_report() {
                Some(r) => print!("{}", r.render()),
                None => {
                    obs::slo::install_default();
                    let r = ActiveGis::slo_report().expect("just installed");
                    print!("{}", r.render());
                }
            },
            [":metrics", "on"] => {
                ActiveGis::set_metrics_enabled(true);
                println!("metric collection on");
            }
            [":metrics", "off"] => {
                ActiveGis::set_metrics_enabled(false);
                println!("metric collection off");
            }
            [":db"] => {
                let store = self.gis.db_store();
                let snap = store.snapshot();
                println!(
                    "db `{}`: epoch {} published, dispatcher serving epoch {}, \
                     {} reader pin(s) (watermark {}), {} epoch(s) retained, \
                     {} objects, ~{} KiB shared data",
                    snap.name(),
                    store.epoch(),
                    self.gis.db_epoch(),
                    store.pin_count(),
                    store
                        .pin_watermark()
                        .map(|e| e.to_string())
                        .unwrap_or_else(|| "-".into()),
                    store.epochs_retained(),
                    snap.object_count(),
                    snap.approx_data_bytes() / 1024
                );
            }
            [":wal"] => match self.gis.wal_status() {
                Some((s, durable)) => {
                    println!(
                        "wal {:?}: {} records, {}/{} bytes synced ({} payload), {} fsyncs \
                         over {} groups (max group {}), checkpoint epoch {}, durable epoch {}",
                        s.path,
                        s.records,
                        s.synced_bytes,
                        s.bytes,
                        s.payload_bytes,
                        s.fsyncs,
                        s.groups,
                        s.max_group,
                        s.checkpoint_epoch,
                        durable
                    );
                }
                None => println!("no WAL attached (volatile store); `:wal open <dir>`"),
            },
            [":wal", "open", dir] => {
                if self.gis.wal_attached() {
                    println!("error: WAL already attached");
                } else if std::path::Path::new(dir)
                    .join(geodb::wal::CHECKPOINT_META_FILE)
                    .exists()
                {
                    // The directory already holds a durable store:
                    // recover it (disk wins over the in-memory demo db;
                    // open sessions do not survive the swap).
                    let seed = geodb::db::Database::new("GEO");
                    match ActiveGis::open_durable(seed, geodb::WalConfig::new(*dir)) {
                        Ok((gis, report)) => {
                            self.gis = gis;
                            self.session = None;
                            if let Some(r) = report {
                                println!(
                                    "recovered epoch {} from {dir} (checkpoint {}, {} record(s) replayed, {} torn byte(s) cut)",
                                    r.recovered_epoch,
                                    r.checkpoint_epoch,
                                    r.replayed_records,
                                    r.truncated_bytes
                                );
                            }
                            match self.gis.load_stored_customizations() {
                                Ok((programs, rules, skipped)) => {
                                    println!(
                                        "reinstalled {programs} stored program(s) ({rules} rules); sessions reset — `login` again"
                                    );
                                    for (name, why) in skipped {
                                        println!("  skipped {name}: {why}");
                                    }
                                }
                                Err(e) => println!("error reloading stored programs: {e}"),
                            }
                        }
                        Err(e) => println!("error: {e}"),
                    }
                } else {
                    match self.gis.db_store().attach_wal(geodb::WalConfig::new(*dir)) {
                        Ok(()) => println!("store is durable in {dir} (checkpointed, fresh log)"),
                        Err(e) => println!("error: {e}"),
                    }
                }
            }
            [":wal", "checkpoint"] => match self.gis.checkpoint() {
                Ok(epoch) => println!("checkpointed epoch {epoch}; log truncated"),
                Err(e) => println!("error: {e}"),
            },
            [":wal", "window", ms] => match ms.parse::<u64>() {
                Ok(ms) => {
                    self.gis
                        .set_group_window(std::time::Duration::from_millis(ms));
                    println!("group-commit window: {ms} ms");
                }
                Err(_) => println!("error: `{ms}` is not a duration in ms"),
            },
            [":repl", "attach", id] => match self.gis.attach_replica(id) {
                Ok(s) => println!(
                    "replica {} attached at epoch {} ({} full-sync byte(s))",
                    s.id, s.applied, s.full_bytes
                ),
                Err(e) => println!("error: {e}"),
            },
            [":repl", "status"] => {
                let statuses = self.gis.replication_status();
                if statuses.is_empty() {
                    println!("no replicas attached; `:repl attach <id>`");
                }
                for s in statuses {
                    println!(
                        "replica {}: applied epoch {} (primary {}, lag {}), \
                         {} delta sync(s) / {} byte(s), {} full sync(s) / {} byte(s){}",
                        s.id,
                        s.applied,
                        s.primary_epoch,
                        s.lag,
                        s.delta_syncs,
                        s.delta_bytes,
                        s.full_syncs,
                        s.full_bytes,
                        if s.streaming { ", streaming" } else { "" }
                    );
                }
            }
            [":repl", "sync"] => match self.gis.sync_replicas() {
                Ok(()) => {
                    println!("replicas synced to epoch {}", self.gis.db_store().epoch())
                }
                Err(e) => println!("error: {e}"),
            },
            [":repl", "policy", "primary"] => {
                match self.gis.set_read_policy(activegis::ReadRouting::Primary) {
                    Ok(()) => println!("reads routed to the primary"),
                    Err(e) => println!("error: {e}"),
                }
            }
            [":repl", "policy", "replica"] => {
                match self.gis.set_read_policy(activegis::ReadRouting::Replica) {
                    Ok(()) => println!("reads routed to the first replica (unbounded staleness)"),
                    Err(e) => println!("error: {e}"),
                }
            }
            [":repl", "policy", "staleness", n] => match n.parse::<u64>() {
                Ok(n) => {
                    match self
                        .gis
                        .set_read_policy(activegis::ReadRouting::BoundedStaleness(n))
                    {
                        Ok(()) => println!(
                            "reads routed to the first replica within {n} epoch(s) of the primary"
                        ),
                        Err(e) => println!("error: {e}"),
                    }
                }
                Err(_) => println!("error: `{n}` is not an epoch bound"),
            },
            [":repl", "promote", id, dir] => {
                match self.gis.promote_replica(id, geodb::WalConfig::new(*dir)) {
                    Ok(r) => {
                        println!(
                            "promoted {id} from applied epoch {} to epoch {} \
                             ({} record(s) replayed, {} torn byte(s) cut{}); \
                             sessions reset — `login` again",
                            r.replica_applied,
                            r.promoted_epoch,
                            r.replayed_records,
                            r.truncated_bytes,
                            if r.via_full_recovery {
                                ", via full recovery"
                            } else {
                                ""
                            }
                        );
                        self.session = None;
                        match self.gis.load_stored_customizations() {
                            Ok((programs, rules, skipped)) => {
                                println!(
                                    "reinstalled {programs} stored program(s) ({rules} rules)"
                                );
                                for (name, why) in skipped {
                                    println!("  skipped {name}: {why}");
                                }
                            }
                            Err(e) => println!("error reloading stored programs: {e}"),
                        }
                    }
                    Err(e) => println!("error: {e}"),
                }
            }
            [":strategy"] => println!("{:?}", self.gis.dispatch_strategy()),
            [":strategy", "linear"] => {
                self.gis
                    .set_dispatch_strategy(activegis::DispatchStrategy::Linear);
                println!("dispatch strategy: Linear");
            }
            [":strategy", "compiled"] => {
                self.gis
                    .set_dispatch_strategy(activegis::DispatchStrategy::Compiled);
                println!("dispatch strategy: Compiled");
            }
            [":compile"] => {
                let s = self.gis.precompile_rules();
                println!(
                    "compiled generation {}: {} rules -> {} tables / {} candidates, \
                     {} users + {} categories + {} applications interned, \
                     {} event terms, packed cache {}, compile took {:.1} µs",
                    s.generation,
                    s.rules,
                    s.tables,
                    s.candidates,
                    s.users,
                    s.categories,
                    s.applications,
                    s.event_terms,
                    if s.packed_cache { "on" } else { "off" },
                    s.compile_ns as f64 / 1000.0
                );
            }
            [":cache"] => {
                let s = self.gis.dispatch_cache_stats();
                println!(
                    "winner cache: {} hits, {} misses, {} invalidations, {} evictions, {} entries",
                    s.hits, s.misses, s.invalidations, s.evictions, s.entries
                );
            }
            [":faults"] => {
                for s in self.gis.failpoints() {
                    let state = s.armed.as_deref().unwrap_or("disarmed").to_string();
                    println!(
                        "{:<16} {:<24} {} hits, {} triggered",
                        s.name, state, s.hits, s.triggered
                    );
                }
                println!("rule faults contained: {}", self.gis.rule_faults());
            }
            [":faults", "arm", name] => {
                self.gis.arm_failpoint(
                    name,
                    faultsim::Trigger::Always,
                    faultsim::FaultAction::Error,
                );
                println!("armed {name}: always -> error");
            }
            [":faults", "arm", name, "panic"] => {
                self.gis.arm_failpoint(
                    name,
                    faultsim::Trigger::Always,
                    faultsim::FaultAction::Panic,
                );
                println!("armed {name}: always -> panic");
            }
            [":faults", "arm", name, "p", p, seed] => {
                match (p.parse::<f64>(), seed.parse::<u64>()) {
                    (Ok(p), Ok(seed)) => {
                        self.gis.arm_failpoint(
                            name,
                            faultsim::Trigger::Probability { p, seed },
                            faultsim::FaultAction::Error,
                        );
                        println!("armed {name}: p={p} seed={seed} -> error");
                    }
                    _ => println!("error: usage `:faults arm <name> p <prob> <seed>`"),
                }
            }
            [":faults", "arm", name, "nth", n] => match n.parse::<u64>() {
                Ok(n) => {
                    self.gis.arm_failpoint(
                        name,
                        faultsim::Trigger::Nth(n),
                        faultsim::FaultAction::Error,
                    );
                    println!("armed {name}: every {n}th hit -> error");
                }
                Err(_) => println!("error: `{n}` is not a count"),
            },
            [":faults", "disarm", name] => {
                self.gis.disarm_failpoint(name);
                println!("disarmed {name}");
            }
            [":faults", "reset"] => {
                self.gis.reset_failpoints();
                println!("all failpoints disarmed");
            }
            [":quarantine"] => {
                let rules = self.gis.quarantined_rules();
                if rules.is_empty() {
                    println!("no rules quarantined");
                }
                for rule in rules {
                    if let Some(h) = self.gis.rule_health(&rule) {
                        println!(
                            "{rule}: {} consecutive faults ({} total)",
                            h.consecutive_faults, h.total_faults
                        );
                    }
                }
            }
            [":quarantine", "clear", rule] => match self.gis.clear_quarantine(rule) {
                Ok(()) => println!("quarantine lifted for {rule}"),
                Err(e) => println!("error: {e}"),
            },
            [":policy"] => println!("{:?}", self.gis.fault_policy()),
            [":policy", "open"] => {
                self.gis.set_fault_policy(activegis::FaultPolicy::FailOpen);
                println!("fault policy: FailOpen (faulty rules are skipped)");
            }
            [":policy", "closed"] => {
                self.gis
                    .set_fault_policy(activegis::FaultPolicy::FailClosed);
                println!("fault policy: FailClosed (faults abort the dispatch)");
            }
            ["screen"] => match self.session {
                Some(sid) => {
                    print!("{}", gisui::session_screen(self.gis.dispatcher(), sid))
                }
                None => println!("error: no session"),
            },
            ["windows"] => {
                for w in self.gis.dispatcher().open_windows() {
                    println!(
                        "[win {}] {} ({}) schema={} class={}",
                        w.id.0,
                        w.built.title,
                        w.built.kind,
                        w.schema,
                        w.class.as_deref().unwrap_or("-")
                    );
                }
            }
            other => println!("unknown command {other:?}; try `help`"),
        }
        true
    }
}

fn main() {
    println!("activegis repl — phone_net demo database loaded; `help` for commands");
    let gis = ActiveGis::phone_net_demo(&TelecomConfig::small()).expect("demo builds");
    let mut repl = Repl {
        gis,
        session: None,
        last_schema: "phone_net".into(),
    };
    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    loop {
        print!("activegis> ");
        out.flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {
                if !repl.handle(line.trim()) {
                    break;
                }
            }
            Err(_) => break,
        }
    }
}
