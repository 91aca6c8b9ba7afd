//! The traced replay: inside a shard, make the public calls the
//! dispatcher makes for a request — session lookup, snapshot pin,
//! `DbSnapshot` read, `Engine::dispatch`/`dispatch_batch`,
//! `InterfaceBuilder::*_window`, `BuiltWindow::to_ascii`,
//! `DbStore::write` — each wrapped in a span.
//!
//! The replay mirrors `gisui::Dispatcher` call for call but does not
//! register windows, push explanation traces or catch panics; that
//! bookkeeping is what `gisui.residual_us` measures.

use std::sync::Arc;

use active::{Event, SessionContext};
use builder::{BuiltWindow, InterfaceBuilder, WindowKind};
use custlang::Customization;
use geodb::query::{DbEvent, DbEventKind};
use geodb::store::DbSnapshot;
use geodb::value::Value;
use geodb::{GeoDbError, Oid};
use gisui::{Dispatcher, Request, SessionId, WindowId};

use crate::gen::Class;
use crate::trace::Tracer;
use crate::Counts;

thread_local! {
    /// The builder every shard's dispatcher is started with.
    static BUILDER: InterfaceBuilder = InterfaceBuilder::with_paper_library();
}

/// Name of the replay root span of a request class.
pub fn root_name(class: Class) -> &'static str {
    match class {
        Class::Schema => "gisui.open_schema",
        Class::ClassPole => "gisui.open_class_pole",
        Class::ClassOther => "gisui.open_class_other",
        Class::Instance => "gisui.open_instance",
        Class::Analyze => "gisui.analyze",
        Class::Close => "gisui.close",
        Class::Batch => "gisui.dispatch_batch",
        Class::Update => "gisui.apply_update",
        Class::Admin => "admin.reload",
    }
}

pub const ROOTS: [&str; 9] = [
    "gisui.open_schema",
    "gisui.open_class_pole",
    "gisui.open_class_other",
    "gisui.open_instance",
    "gisui.analyze",
    "gisui.close",
    "gisui.dispatch_batch",
    "gisui.apply_update",
    "admin.reload",
];

fn context(d: &Dispatcher, sid: SessionId, t: &mut Tracer) -> Result<SessionContext, String> {
    t.leaf(
        "gisui.session",
        || d.session(sid).map(|s| s.context.clone()),
        |_| 0,
    )
    .ok_or_else(|| format!("unknown session {sid}"))
}

fn select(
    d: &mut Dispatcher,
    ctx: &SessionContext,
    events: Vec<DbEvent>,
    t: &mut Tracer,
    c: &mut Counts,
) -> Result<Option<Customization>, String> {
    let n = events.len() as u64;
    c.events += n;
    t.leaf(
        "active.select",
        || {
            let mut selected = None;
            for ev in events {
                let out = d.engine().dispatch(Event::Db(ev), ctx)?;
                if selected.is_none() {
                    selected = out.customizations.into_iter().next();
                }
            }
            Ok(selected)
        },
        |_| n,
    )
    .map_err(|e: active::ActiveError| format!("select: {e}"))
}

fn build(
    name: &'static str,
    t: &mut Tracer,
    c: &mut Counts,
    f: impl FnOnce(&InterfaceBuilder) -> Result<BuiltWindow, builder::BuildError>,
) -> Result<BuiltWindow, String> {
    let built = BUILDER
        .with(|b| {
            t.leaf(
                name,
                || f(b),
                |r| r.as_ref().map_or(0, |w| w.widget_count() as u64),
            )
        })
        .map_err(|e| format!("{name}: {e}"))?;
    c.windows_built += 1;
    c.widgets += built.widget_count() as u64;
    Ok(built)
}

fn render(built: &BuiltWindow, t: &mut Tracer, c: &mut Counts) {
    let ascii = t.leaf("uilib.render", || built.to_ascii(), |s| s.len() as u64);
    c.windows_rendered += 1;
    c.ascii_bytes += ascii.len() as u64;
}

fn read<T>(
    name: &'static str,
    t: &mut Tracer,
    c: &mut Counts,
    f: impl FnOnce() -> Result<T, GeoDbError>,
    rows: impl Fn(&T) -> u64,
) -> Result<T, String> {
    let r = t
        .leaf(name, f, |r| r.as_ref().map_or(0, &rows))
        .map_err(|e| format!("{name}: {e}"))?;
    if name != "geodb.read.get_schema" {
        c.reads += 1;
        c.rows_returned += rows(&r);
    }
    Ok(r)
}

fn pin(d: &mut Dispatcher, t: &mut Tracer) -> Arc<DbSnapshot> {
    t.leaf("gisui.pin", || d.snapshot(), |_| 0)
}

fn class_window(
    d: &mut Dispatcher,
    ctx: &SessionContext,
    snap: &DbSnapshot,
    schema: &str,
    class: &str,
    t: &mut Tracer,
    c: &mut Counts,
) -> Result<BuiltWindow, String> {
    let instances = read(
        "geodb.read.get_class",
        t,
        c,
        || snap.get_class(schema, class, false),
        |v| v.len() as u64,
    )?;
    let cust = select(d, ctx, vec![get_class(schema, class)], t, c)?;
    let built = build("builder.build.class", t, c, |b| {
        b.class_window(schema, class, &instances, cust.as_ref())
    });
    release(instances, t);
    built
}

/// Free the rows a read materialized: the dispatcher pays this too, and
/// for a whole extent it is as costly as building the window.
fn release<T>(rows: Vec<T>, t: &mut Tracer) {
    t.leaf("geodb.read.release", || drop(rows), |_| 0);
}

fn instance_window(
    d: &mut Dispatcher,
    ctx: &SessionContext,
    snap: &DbSnapshot,
    oid: Oid,
    t: &mut Tracer,
    c: &mut Counts,
) -> Result<BuiltWindow, String> {
    let (inst, schema) = read(
        "geodb.read.get_value",
        t,
        c,
        || {
            let inst = snap.get_value(oid)?;
            let schema = snap
                .locate(oid)
                .map(|(s, _)| s.to_string())
                .unwrap_or_default();
            Ok((inst, schema))
        },
        |_| 1,
    )?;
    let ev = DbEvent::GetValue {
        schema,
        class: inst.class.clone(),
        oid,
    };
    let cust = select(d, ctx, vec![ev], t, c)?;
    build("builder.build.instance", t, c, |b| {
        b.instance_window(snap, &inst, cust.as_ref())
    })
}

fn get_class(schema: &str, class: &str) -> DbEvent {
    DbEvent::GetClass {
        schema: schema.to_string(),
        class: class.to_string(),
    }
}

/// Replay one window-opening protocol request; returns the windows the
/// served request would list, in its order, each rendered once.
pub fn request(
    d: &mut Dispatcher,
    sid: SessionId,
    req: &Request,
    t: &mut Tracer,
    c: &mut Counts,
) -> Result<Vec<BuiltWindow>, String> {
    let root = t.enter(root_name(Class::of(req)));
    let out = request_inner(d, sid, req, t, c);
    t.exit(root);
    out
}

fn request_inner(
    d: &mut Dispatcher,
    sid: SessionId,
    req: &Request,
    t: &mut Tracer,
    c: &mut Counts,
) -> Result<Vec<BuiltWindow>, String> {
    let ctx = context(d, sid, t)?;
    let windows = match req {
        Request::OpenSchema { schema } => {
            let snap = pin(d, t);
            let def = read(
                "geodb.read.get_schema",
                t,
                c,
                || snap.get_schema(schema),
                |_| 0,
            )?;
            let ev = DbEvent::GetSchema {
                schema: schema.clone(),
            };
            let cust = select(d, &ctx, vec![ev], t, c)?;
            let built = build("builder.build.schema", t, c, |b| {
                b.schema_window(&def, snap.catalog(), cust.as_ref())
            })?;
            let mut windows = vec![];
            let auto_open = built.auto_open.clone();
            windows.push(built);
            for class in auto_open {
                let snap = pin(d, t);
                windows.push(class_window(d, &ctx, &snap, schema, &class, t, c)?);
            }
            windows
        }
        Request::OpenClass { schema, class } => {
            let snap = pin(d, t);
            vec![class_window(d, &ctx, &snap, schema, class, t, c)?]
        }
        Request::OpenInstance { oid } => {
            let snap = pin(d, t);
            vec![instance_window(d, &ctx, &snap, Oid(*oid), t, c)?]
        }
        Request::Analyze {
            schema,
            class,
            predicate,
        } => {
            let snap = pin(d, t);
            let (rows, stats) = read(
                "geodb.read.select",
                t,
                c,
                || snap.select_with_stats(schema, class, predicate),
                |(rows, _)| rows.len() as u64,
            )?;
            c.selects += 1;
            c.rows_examined += stats.candidates as u64;
            c.rows_selected += stats.returned as u64;
            let cust = select(d, &ctx, vec![get_class(schema, class)], t, c)?;
            let built = build("builder.build.class", t, c, |b| {
                b.class_window(schema, class, &rows, cust.as_ref())
            });
            let hits = rows.len();
            release(rows, t);
            let mut built = built?;
            built.title = format!("{} [filtered: {hits} hits]", built.title);
            vec![built]
        }
        other => return Err(format!("not a window request: {other:?}")),
    };
    for w in &windows {
        render(w, t, c);
    }
    Ok(windows)
}

/// Stable server-side batch order (the server groups a batch by event
/// kind before dispatching it).
fn kind_rank(kind: DbEventKind) -> u8 {
    match kind {
        DbEventKind::GetSchema => 0,
        DbEventKind::GetClass => 1,
        DbEventKind::GetValue => 2,
        DbEventKind::Insert => 3,
        DbEventKind::Update => 4,
        DbEventKind::Delete => 5,
        DbEventKind::SchemaRegistered => 6,
    }
}

/// Replay one dispatch batch: the kind sort, the pin and the engine's
/// batch lane. Returns the sorted events and their outcomes.
pub fn batch(
    d: &mut Dispatcher,
    sid: SessionId,
    mut events: Vec<DbEvent>,
    t: &mut Tracer,
    c: &mut Counts,
) -> Result<(Vec<DbEvent>, Outcomes), String> {
    let root = t.enter(root_name(Class::Batch));
    let out = context(d, sid, t).map(|ctx| {
        t.leaf(
            "server.sort",
            || events.sort_by_key(|e| kind_rank(e.kind())),
            |_| 0,
        );
        pin(d, t);
        let n = events.len() as u64;
        c.events += n;
        let outcomes = t.leaf(
            "active.select",
            || {
                d.engine()
                    .dispatch_batch(events.iter().cloned().map(Event::Db), &ctx)
            },
            |_| n,
        );
        (events, outcomes)
    });
    t.exit(root);
    out
}

pub type Outcomes = Vec<Result<active::Outcome<Customization>, active::ActiveError>>;

/// Fired rule names per outcome, an error as its message.
pub fn fired<E: std::fmt::Display>(
    outcomes: &[Result<active::Outcome<Customization>, E>],
) -> Vec<Vec<String>> {
    outcomes
        .iter()
        .map(|o| match o {
            Ok(o) => o.fired_names().iter().map(|s| s.to_string()).collect(),
            Err(e) => vec![format!("error: {e}")],
        })
        .collect()
}

/// Replay `Dispatcher::apply_update`: the commit, the update events
/// through the rules, and the rebuild of every open window showing the
/// object or its class. Returns the rebuilt windows by id.
pub fn apply_update(
    d: &mut Dispatcher,
    sid: SessionId,
    oid: Oid,
    value: String,
    t: &mut Tracer,
    c: &mut Counts,
) -> Result<Vec<(WindowId, BuiltWindow)>, String> {
    let root = t.enter(root_name(Class::Update));
    let out = (|| {
        let ctx = context(d, sid, t)?;
        let store = d.store();
        let committed = t
            .leaf(
                "geodb.commit",
                || {
                    store.write(|db| {
                        let located = db
                            .locate(oid)
                            .map(|(s, c)| (s.to_string(), c.to_string()))
                            .ok_or(GeoDbError::UnknownOid(oid.0))?;
                        db.update(oid, vec![("pole_historic".into(), Value::Text(value))])?;
                        Ok(located)
                    })
                },
                |_| 1,
            )
            .map_err(|e| format!("commit: {e}"))?;
        c.commits += 1;
        let (schema, class) = committed.value;
        select(d, &ctx, committed.events, t, c)?;
        let slot = t.enter("gisui.refresh");
        let refreshed = refresh(d, &schema, &class, oid, t, c);
        t.exit(slot);
        refreshed
    })();
    t.exit(root);
    out
}

/// Mirror of `Dispatcher::refresh_windows`.
fn refresh(
    d: &mut Dispatcher,
    schema: &str,
    class: &str,
    oid: Oid,
    t: &mut Tracer,
    c: &mut Counts,
) -> Result<Vec<(WindowId, BuiltWindow)>, String> {
    let targets: Vec<(WindowId, u32, WindowKind, Option<Oid>)> = d
        .open_windows()
        .into_iter()
        .filter(|w| {
            w.schema == schema
                && w.class.as_deref() == Some(class)
                && match w.built.kind {
                    WindowKind::ClassSet => true,
                    WindowKind::Instance => w.oid == Some(oid),
                    WindowKind::Schema => false,
                }
        })
        .map(|w| (w.id, w.session, w.built.kind, w.oid))
        .collect();
    let snap = pin(d, t);
    let mut out = Vec::with_capacity(targets.len());
    for (id, session, kind, win_oid) in targets {
        let ctx = d
            .session(SessionId(session))
            .map(|s| s.context.clone())
            .unwrap_or_default();
        let built = match kind {
            WindowKind::Instance => {
                let target = win_oid.ok_or("instance window without an oid")?;
                instance_window(d, &ctx, &snap, target, t, c)?
            }
            _ => class_window(d, &ctx, &snap, schema, class, t, c)?,
        };
        out.push((id, built));
    }
    c.refreshed += out.len() as u64;
    Ok(out)
}
