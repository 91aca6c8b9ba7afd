//! Set-up: the database, the server, the rule programs, the sessions
//! and the warm-up — everything `setup_s` times.

use std::sync::Arc;
use std::time::Instant;

use active::{Engine, SessionContext};
use activegis::{ReadRouting, ServerSession, SessionServer};
use custlang::{Customization, FIG6_PROGRAM};
use geodb::gen::TelecomConfig;
use geodb::repl::ReplicaStore;
use geodb::store::DbStore;
use geodb::Oid;
use gisui::{InteractionMode, Request, Response};

use crate::gen::{self, Extents, PoolContext, Rng, Zipf};
use crate::pin;
use crate::{Sizes, Workload};

/// A browse session: where it is served and which pool context it has.
#[derive(Clone, Copy)]
pub struct BrowseSession {
    pub session: ServerSession,
    pub pool: usize,
}

pub struct Fixture {
    pub server: Arc<SessionServer>,
    pub store: DbStore,
    /// The streaming follower reads are routed to (edit only).
    pub replica: Option<ReplicaStore>,
    pub ext: Extents,
    pub pool: Vec<PoolContext>,
    pub browse: Vec<BrowseSession>,
    pub dispatch: Vec<ServerSession>,
    /// The edit workload's writer session, which keeps windows open so
    /// every commit refreshes them.
    pub writer: Option<ServerSession>,
    /// Zipf over pole ranks and the seeded rank → pole-index map.
    pub pole_zipf: Zipf,
    pub pole_rank: Vec<usize>,
    /// Zipf over dispatch-session ranks and the rank → session map.
    pub session_zipf: Zipf,
    pub session_rank: Vec<usize>,
}

impl Fixture {
    /// A Zipf-chosen dispatch session served by `shard`.
    pub fn dispatch_session(&self, rng: &mut Rng, shard: usize) -> usize {
        let shards = self.server.shards();
        self.session_rank[self.session_zipf.sample(rng) * shards + shard]
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        if let Some(r) = &self.replica {
            r.stop_streaming();
        }
    }
}

pub const WRITER_CONTEXT: (&str, &str, &str) = ("user1", "planner", "pole_manager");

/// Open windows the writer keeps open: the Pole class window and the
/// instance windows of the hottest poles.
const WRITER_HOT_POLES: usize = 4;

pub fn build(workload: Workload, seed: u64, sizes: &Sizes) -> Result<Fixture, String> {
    let (db, _) = geodb::gen::phone_net_db(&TelecomConfig::with_poles(sizes.poles))
        .map_err(|e| format!("database: {e}"))?;
    let store = DbStore::new(db);
    let ext = extents(&store, sizes.poles)?;
    let base = Engine::<Customization>::new().rule_base();
    let (server, replica) = if workload == Workload::Edit {
        let replica = ReplicaStore::attach(&store, "r0").map_err(|e| format!("replica: {e}"))?;
        replica
            .start_streaming()
            .map_err(|e| format!("replica streaming: {e}"))?;
        let server = SessionServer::start_replicated(
            sizes.shards,
            base,
            store.clone(),
            vec![replica.clone()],
            ReadRouting::BoundedStaleness(1),
        );
        (server, Some(replica))
    } else {
        (
            SessionServer::start(sizes.shards, base, store.clone()),
            None,
        )
    };
    // Unpinned, the run still measures; only less steadily.
    let _ = pin::shards(server.shards());
    server
        .install_program(FIG6_PROGRAM, "fig6")
        .map_err(|e| format!("fig6 install: {e}"))?;
    server
        .install_program(
            &bench::synthetic_program(sizes.synthetic_directives),
            "synth",
        )
        .map_err(|e| format!("synthetic install: {e}"))?;

    let mut rng = Rng::new(seed, 1);
    let pool = gen::browse_pool(sizes.browse_contexts, sizes.synthetic_directives);
    let pool_zipf = Zipf::new(pool.len(), sizes.zipf_s);
    let mut browse = Vec::new();
    let mut dispatch = Vec::new();
    if workload == Workload::Dispatch {
        // Session `j` lives on shard `j % shards`. Each shard opens its
        // sessions in one call on its own dispatcher: 4096 single-session
        // round trips would make set-up time mostly thread wake-ups.
        let shards = server.shards();
        let mut opened: Vec<std::vec::IntoIter<gisui::SessionId>> = (0..shards)
            .map(|shard| {
                let any = ServerSession {
                    shard,
                    sid: gisui::SessionId(0),
                };
                let n = sizes.dispatch_sessions;
                server
                    .with_dispatcher(any, move |d| {
                        (shard..n)
                            .step_by(shards)
                            .map(|j| d.open_session(gen::dispatch_context(j)))
                            .collect::<Vec<_>>()
                    })
                    .into_iter()
            })
            .collect();
        for j in 0..sizes.dispatch_sessions {
            let shard = j % shards;
            let sid = opened[shard].next().expect("one session per index");
            dispatch.push(ServerSession { shard, sid });
        }
    } else {
        // Contexts at evenly spaced Zipf quantiles: the share of
        // customized, generic and Fig. 6 sessions is the same for every
        // seed, so seeds vary the traffic, not the population.
        let n = sizes.browse_sessions;
        for k in 0..n {
            let p = pool_zipf.quantile((k as f64 + 0.5) / n as f64);
            let session = server.open_session(pool[p].context.clone());
            set_analysis(&server, session)?;
            browse.push(BrowseSession { session, pool: p });
        }
    }
    let pole_rank = rng.permutation(ext.poles.len());
    let session_rank = shard_balanced_ranks(&mut rng, sizes.dispatch_sessions.max(1), sizes.shards);
    let mut fix = Fixture {
        server: Arc::new(server),
        store,
        replica,
        pole_zipf: Zipf::new(ext.poles.len(), sizes.zipf_s),
        pole_rank,
        session_zipf: Zipf::new(
            (sizes.dispatch_sessions / sizes.shards).max(1),
            sizes.zipf_s,
        ),
        session_rank,
        ext,
        pool,
        browse,
        dispatch,
        writer: None,
    };
    if workload == Workload::Edit {
        fix.writer = Some(open_writer(&fix)?);
    }
    Ok(fix)
}

/// A seeded rank → session map whose consecutive ranks alternate shards
/// (session `j` is served by shard `j % shards`), so the Zipf-hot head
/// loads every shard alike whatever the seed.
fn shard_balanced_ranks(rng: &mut Rng, sessions: usize, shards: usize) -> Vec<usize> {
    let shards = shards.max(1);
    let per_shard: Vec<Vec<usize>> = (0..shards)
        .map(|s| {
            let mine: Vec<usize> = (s..sessions).step_by(shards).collect();
            rng.permutation(mine.len())
                .into_iter()
                .map(|i| mine[i])
                .collect()
        })
        .collect();
    (0..sessions)
        .map(|r| per_shard[r % shards][r / shards])
        .collect()
}

fn set_analysis(server: &SessionServer, session: ServerSession) -> Result<(), String> {
    server
        .with_dispatcher(session, move |d| {
            d.set_mode(session.sid, InteractionMode::Analysis)
        })
        .map_err(|e| format!("set mode: {e}"))
}

fn open_writer(fix: &Fixture) -> Result<ServerSession, String> {
    let (u, c, a) = WRITER_CONTEXT;
    let session = fix.server.open_session(SessionContext::new(u, c, a));
    set_analysis(&fix.server, session)?;
    let mut reqs = vec![Request::OpenClass {
        schema: gen::SCHEMA.into(),
        class: "Pole".into(),
    }];
    for &r in fix.pole_rank.iter().take(WRITER_HOT_POLES) {
        reqs.push(Request::OpenInstance {
            oid: fix.ext.poles[r].0,
        });
    }
    for req in reqs {
        let resp = fix
            .server
            .with_dispatcher(session, move |d| d.handle_request(session.sid, req));
        if let Response::Error { message } = resp {
            return Err(format!("writer window: {message}"));
        }
    }
    Ok(session)
}

fn extents(store: &DbStore, poles: usize) -> Result<Extents, String> {
    let snap = store.snapshot();
    let mut by_class = Vec::new();
    for class in gen::CLASSES {
        let oids: Vec<Oid> = snap
            .get_class(gen::SCHEMA, class, false)
            .map_err(|e| format!("extent {class}: {e}"))?
            .iter()
            .map(|i| i.oid)
            .collect();
        by_class.push(oids);
    }
    let cfg = TelecomConfig::with_poles(poles);
    Ok(Extents {
        poles: by_class[0].clone(),
        ducts: by_class[1].clone(),
        by_class,
        extent: cfg.blocks as f64 * cfg.block_size,
    })
}

/// Build the fixture `reps` times, keeping the last, and return it with
/// every set-up time in seconds. `warm` runs the workload's warm-up on
/// each fixture so its cost is part of set-up.
pub fn build_timed(
    workload: Workload,
    seed: u64,
    sizes: &Sizes,
    reps: usize,
    warm: impl Fn(&Fixture) -> Result<(), String>,
) -> Result<(Fixture, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps.max(1) {
        // Drop the previous fixture first so peak memory holds one.
        drop(last.take());
        let t0 = Instant::now();
        let fix = build(workload, seed, sizes)?;
        warm(&fix)?;
        times.push(t0.elapsed().as_secs_f64());
        last = Some(fix);
    }
    Ok((last.expect("at least one rep"), times))
}
