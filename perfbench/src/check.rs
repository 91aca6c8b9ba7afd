//! Correctness checks of served outputs against independent references.

use std::collections::{BTreeMap, HashMap, HashSet};

use active::{DispatchStrategy, Event, SessionContext};
use activegis::{ActiveGis, FIG6_PROGRAM};
use geodb::gen::TelecomConfig;
use geodb::value::Value;
use geodb::Oid;
use gisui::{InteractionMode, Request, Response};

use crate::clients::{BrowseSample, DispatchSample, Log, WinSig};
use crate::fixture::Fixture;
use crate::gen;
use crate::Sizes;

/// What the browse reference check covered.
#[derive(Default, Debug)]
pub struct BrowseCoverage {
    pub compared: u64,
    pub customized_checked: u64,
    pub generic_checked: u64,
}

/// Sampled browse responses must equal what a single-threaded
/// `ActiveGis` over the same data and programs serves; on Pole instance
/// windows, customized contexts must differ from the generic window and
/// generic contexts must equal it.
pub fn browse(
    fix: &Fixture,
    sizes: &Sizes,
    samples: &[BrowseSample],
    log: &mut Log,
) -> BrowseCoverage {
    let mut cov = BrowseCoverage::default();
    if samples.is_empty() {
        log.error("browse: no responses were sampled".into());
        return cov;
    }
    let reference = (|| {
        let (db, _) = geodb::gen::phone_net_db(&TelecomConfig::with_poles(sizes.poles))?;
        let mut gis = ActiveGis::open(db);
        gis.customize(FIG6_PROGRAM, "fig6")?;
        gis.customize(
            &bench::synthetic_program(sizes.synthetic_directives),
            "synth",
        )?;
        Ok::<_, gisui::UiError>(gis)
    })();
    let mut gis = match reference {
        Ok(g) => g,
        Err(e) => {
            log.error(format!("browse reference: {e}"));
            return cov;
        }
    };
    let generic = open(
        &mut gis,
        SessionContext::new("nobody", "visitor", "city_viewer"),
    );
    let poles: HashSet<Oid> = fix.ext.poles.iter().copied().collect();
    let mut sessions = HashMap::new();
    for s in samples {
        let ctx = &fix.pool[s.pool];
        let sid = *sessions
            .entry(s.pool)
            .or_insert_with(|| open(&mut gis, ctx.context.clone()));
        let want = serve(&mut gis, sid, &s.req);
        cov.compared += 1;
        if want.as_ref() != Ok(&s.windows) {
            log.error(format!(
                "browse: {:?} for {:?} served {:?}, reference {:?}",
                s.req, ctx.context, s.windows, want
            ));
            continue;
        }
        if let Request::OpenInstance { oid } = s.req {
            if poles.contains(&Oid(oid)) {
                let plain = serve(&mut gis, generic, &s.req);
                let same = plain.as_ref() == Ok(&s.windows);
                if ctx.customized {
                    cov.customized_checked += 1;
                } else {
                    cov.generic_checked += 1;
                }
                if ctx.customized == same {
                    log.error(format!(
                        "browse: {:?} customized={} but its Pole window {} the generic one",
                        ctx.context,
                        ctx.customized,
                        if same { "equals" } else { "differs from" }
                    ));
                }
            }
        }
    }
    cov
}

fn open(gis: &mut ActiveGis, ctx: SessionContext) -> gisui::SessionId {
    let sid = gis.login_with(ctx);
    gis.set_mode(sid, InteractionMode::Analysis)
        .expect("a fresh session accepts a mode");
    sid
}

/// Serve a request on the reference and close what it opened.
fn serve(gis: &mut ActiveGis, sid: gisui::SessionId, req: &Request) -> Result<Vec<WinSig>, String> {
    match gis.dispatcher().handle_request(sid, req.clone()) {
        Response::Windows(ws) => {
            let sigs = ws.iter().map(WinSig::of).collect();
            if let Some(w) = ws.first() {
                gis.dispatcher()
                    .handle_request(sid, Request::CloseWindow { window: w.id });
            }
            Ok(sigs)
        }
        other => Err(format!("{other:?}")),
    }
}

/// Sampled fired-rule names must equal a `Linear` oracle session's.
pub fn dispatch(fix: &Fixture, samples: &[DispatchSample], log: &mut Log) -> u64 {
    if samples.is_empty() {
        log.error("dispatch: no batches were sampled".into());
        return 0;
    }
    let mut oracle = fix.server.rule_base().session();
    oracle.set_strategy(DispatchStrategy::Linear);
    let mut checked = 0;
    for s in samples {
        let ctx = gen::dispatch_context(s.session);
        for (ev, fired) in s.events.iter().zip(&s.fired) {
            checked += 1;
            match oracle.dispatch(Event::Db(ev.clone()), &ctx) {
                Ok(o) => {
                    let want: Vec<&str> = o.fired_names();
                    if want != fired.iter().map(String::as_str).collect::<Vec<_>>() {
                        log.error(format!(
                            "dispatch: {ev:?} for {ctx:?} fired {fired:?}, oracle {want:?}"
                        ));
                    }
                }
                Err(e) => log.error(format!("dispatch oracle: {e}")),
            }
        }
    }
    checked
}

/// Every acknowledged edit must be readable at the final epoch on the
/// primary and, after `sync_replicas`, on the replica.
pub fn edits(fix: &Fixture, acked: &BTreeMap<Oid, String>, log: &mut Log) {
    if acked.is_empty() {
        log.error("edit: no update was acknowledged".into());
        return;
    }
    if let Err(e) = fix.server.sync_replicas() {
        log.error(format!("edit: sync_replicas: {e}"));
        return;
    }
    let mut views = vec![("primary", fix.store.snapshot())];
    if let Some(r) = &fix.replica {
        views.push(("replica", r.snapshot()));
    }
    for (name, snap) in views {
        for (oid, value) in acked {
            let got = snap.get_value(*oid).map(|i| i.get("pole_historic").clone());
            if got.as_ref().ok() != Some(&Value::Text(value.clone())) {
                log.error(format!(
                    "edit: {name} at epoch {} reads {got:?} for {oid:?}, acknowledged {value:?}",
                    snap.epoch()
                ));
            }
        }
    }
}
