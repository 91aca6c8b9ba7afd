//! Fault-containment tests for the rule engine.
//!
//! These live in their own test binary (separate process from the
//! crate's unit tests) because `faultsim`'s failpoint registry is
//! process-global: arming a failpoint here must never be visible to
//! unrelated engine tests running in parallel. Within this binary the
//! tests serialize on a mutex for the same reason.

use active::engine::CASCADE_PSEUDO_RULE;
use active::{
    Action, ActiveError, ContextPattern, Coupling, DispatchStrategy, Engine, EngineConfig, Event,
    EventPattern, FaultPolicy, Rule, RuleGroup, SessionContext,
};
use geodb::query::{DbEvent, DbEventKind};
use std::sync::Arc;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Serialize tests (global failpoint registry) and silence the default
/// panic hook — injected callback panics are expected here and would
/// otherwise spam the test output with backtraces.
fn serialized() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| std::panic::set_hook(Box::new(|_| {})));
    let guard = match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    faultsim::reset();
    guard
}

fn get_schema() -> Event {
    Event::Db(DbEvent::GetSchema {
        schema: "phone_net".into(),
    })
}

fn session() -> SessionContext {
    SessionContext::new("juliano", "planner", "pole_manager")
}

fn cust_rule(name: &str, payload: &'static str) -> Rule<&'static str> {
    Rule::customization(
        name,
        EventPattern::db(DbEventKind::GetSchema),
        ContextPattern::any(),
        payload,
    )
}

fn panicking_rule(name: &str) -> Rule<&'static str> {
    Rule::integrity(
        name,
        EventPattern::db(DbEventKind::GetSchema),
        Arc::new(|_, _| panic!("boom in callback")),
    )
}

#[test]
fn fail_open_contains_callback_panic_and_continues() {
    let _g = serialized();
    let mut eng: Engine<&str> = Engine::new();
    eng.add_rule(cust_rule("c", "payload")).unwrap();
    eng.add_rule(panicking_rule("bad")).unwrap();

    let out = eng.dispatch(get_schema(), &session()).unwrap();
    // The panic never escapes; the customization still applies.
    assert_eq!(out.customizations, vec!["payload"]);
    assert_eq!(out.faults.len(), 1);
    assert_eq!(out.faults[0].rule, "bad");
    assert!(out.faults[0].cause.contains("boom in callback"));
    assert_eq!(eng.rule_faults(), 1);
    assert_eq!(eng.rule_health("bad").unwrap().consecutive_faults, 1);
}

#[test]
fn injected_callback_error_is_reported_with_failpoint_name() {
    let _g = serialized();
    let _fp = faultsim::scoped(
        "engine.callback",
        faultsim::Trigger::Always,
        faultsim::FaultAction::Error,
    );
    let mut eng: Engine<&str> = Engine::new();
    eng.add_rule(cust_rule("c", "payload")).unwrap();
    eng.add_rule(Rule::integrity(
        "probe",
        EventPattern::db(DbEventKind::GetSchema),
        Arc::new(|_, _| vec![]),
    ))
    .unwrap();

    let out = eng.dispatch(get_schema(), &session()).unwrap();
    assert_eq!(out.customizations, vec!["payload"]);
    assert_eq!(out.faults.len(), 1);
    assert!(out.faults[0].cause.contains("engine.callback"));
}

#[test]
fn fail_closed_aborts_and_rolls_back_deferred_queue() {
    let _g = serialized();
    let cfg = EngineConfig {
        fault_policy: FaultPolicy::FailClosed,
        ..Default::default()
    };
    let mut eng: Engine<&str> = Engine::with_config(cfg);
    // Higher priority, so its deferred firing is queued before the
    // faulty rule fires — the abort must roll that queueing back.
    eng.add_rule(
        Rule::integrity(
            "audit",
            EventPattern::db(DbEventKind::GetSchema),
            Arc::new(|_, _| vec![]),
        )
        .with_coupling(Coupling::Deferred)
        .with_priority(10),
    )
    .unwrap();
    eng.add_rule(panicking_rule("bad")).unwrap();

    let err = eng.dispatch(get_schema(), &session()).unwrap_err();
    match err {
        ActiveError::RuleFault { rule, depth, cause } => {
            assert_eq!(rule, "bad");
            assert_eq!(depth, 0);
            assert!(cause.contains("boom in callback"));
        }
        other => panic!("expected RuleFault, got {other:?}"),
    }
    // Transactional: the aborted dispatch left no deferred debris.
    assert_eq!(eng.pending_deferred(), 0);
}

#[test]
fn quarantine_trips_after_threshold_and_can_be_cleared() {
    let _g = serialized();
    let cfg = EngineConfig {
        strategy: DispatchStrategy::Compiled,
        ..Default::default()
    };
    let mut eng: Engine<&str> = Engine::with_config(cfg);
    eng.add_rule(cust_rule("c", "payload")).unwrap();
    let calls = Arc::new(std::sync::atomic::AtomicU32::new(0));
    let seen = calls.clone();
    eng.add_rule(Rule::integrity(
        "flaky",
        EventPattern::db(DbEventKind::GetSchema),
        Arc::new(move |_, _| {
            seen.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            panic!("flaky fault")
        }),
    ))
    .unwrap();

    // Default threshold is 3 consecutive faults.
    for _ in 0..3 {
        let out = eng.dispatch(get_schema(), &session()).unwrap();
        assert_eq!(out.customizations, vec!["payload"]);
    }
    assert_eq!(calls.load(std::sync::atomic::Ordering::Relaxed), 3);
    assert_eq!(eng.quarantined(), vec!["flaky"]);
    assert!(eng.rule_health("flaky").unwrap().quarantined);
    assert_eq!(eng.rule_faults(), 3);

    // Quarantined: the rule no longer matches; the callback stays cold
    // and the customized interface keeps working.
    let out = eng.dispatch(get_schema(), &session()).unwrap();
    assert_eq!(calls.load(std::sync::atomic::Ordering::Relaxed), 3);
    assert!(out.faults.is_empty());
    assert_eq!(out.customizations, vec!["payload"]);

    eng.clear_quarantine("flaky").unwrap();
    assert!(eng.quarantined().is_empty());
    let out = eng.dispatch(get_schema(), &session()).unwrap();
    assert_eq!(calls.load(std::sync::atomic::Ordering::Relaxed), 4);
    assert_eq!(out.faults.len(), 1);
    assert_eq!(out.customizations, vec!["payload"]);
}

#[test]
fn cascade_failpoint_fail_open_drops_event_fail_closed_aborts() {
    let _g = serialized();
    let raise_class = || Rule::<&'static str> {
        name: "raiser".into(),
        event: EventPattern::db(DbEventKind::GetSchema),
        context: ContextPattern::any(),
        guard: None,
        action: Arc::new(Action::Raise(vec![Event::Db(DbEvent::GetClass {
            schema: "phone_net".into(),
            class: "Pole".into(),
        })])),
        group: RuleGroup::Other,
        coupling: Coupling::Immediate,
        priority: 0,
        enabled: true,
    };
    let class_cust = || {
        Rule::customization(
            "r2",
            EventPattern::db(DbEventKind::GetClass),
            ContextPattern::any(),
            "class-cust",
        )
    };

    {
        let _fp = faultsim::scoped(
            "engine.cascade",
            faultsim::Trigger::Always,
            faultsim::FaultAction::Error,
        );
        let mut eng: Engine<&str> = Engine::new();
        eng.add_rule(raise_class()).unwrap();
        eng.add_rule(class_cust()).unwrap();
        let out = eng.dispatch(get_schema(), &session()).unwrap();
        // The cascaded Get_Class event was dropped before matching.
        assert!(out.customizations.is_empty());
        assert_eq!(out.faults.len(), 1);
        assert_eq!(out.faults[0].rule, CASCADE_PSEUDO_RULE);
        assert_eq!(out.faults[0].depth, 1);
    }

    {
        let _fp = faultsim::scoped(
            "engine.cascade",
            faultsim::Trigger::Always,
            faultsim::FaultAction::Error,
        );
        let cfg = EngineConfig {
            fault_policy: FaultPolicy::FailClosed,
            ..Default::default()
        };
        let mut eng: Engine<&str> = Engine::with_config(cfg);
        eng.add_rule(raise_class()).unwrap();
        eng.add_rule(class_cust()).unwrap();
        let err = eng.dispatch(get_schema(), &session()).unwrap_err();
        assert!(
            matches!(err, ActiveError::RuleFault { ref rule, .. } if rule == CASCADE_PSEUDO_RULE)
        );
    }
}

#[test]
fn deferred_fault_is_contained_at_flush() {
    let _g = serialized();
    let mut eng: Engine<&str> = Engine::new();
    eng.add_rule(
        Rule::integrity(
            "deferred_bad",
            EventPattern::db(DbEventKind::GetSchema),
            Arc::new(|_, _| panic!("deferred boom")),
        )
        .with_coupling(Coupling::Deferred),
    )
    .unwrap();

    let out = eng.dispatch(get_schema(), &session()).unwrap();
    assert!(out.faults.is_empty());
    assert_eq!(eng.pending_deferred(), 1);

    let flushed = eng.flush_deferred().unwrap();
    assert_eq!(flushed.faults.len(), 1);
    assert_eq!(flushed.faults[0].rule, "deferred_bad");
    assert!(flushed.faults[0].cause.contains("deferred boom"));
    assert_eq!(eng.rule_faults(), 1);
}

/// Regression (satellite): a mid-cascade `CascadeOverflow` must leave
/// the deferred queue, rules-generation counter and winner cache in a
/// state where the next dispatch behaves exactly like a fresh engine.
#[test]
fn cascade_overflow_leaves_consistent_state() {
    let _g = serialized();
    let build = || {
        let cfg = EngineConfig {
            strategy: DispatchStrategy::Compiled,
            ..Default::default()
        };
        let mut eng: Engine<&str> = Engine::with_config(cfg);
        eng.add_rule(Rule {
            name: "loop".into(),
            event: EventPattern::External {
                name: Some("ping".into()),
            },
            context: ContextPattern::any(),
            guard: None,
            action: Arc::new(Action::Raise(vec![Event::external("ping")])),
            group: RuleGroup::Other,
            coupling: Coupling::Immediate,
            priority: 0,
            enabled: true,
        })
        .unwrap();
        // A deferred rule that fires on every ping: the overflow must
        // roll back every firing it queued.
        eng.add_rule(
            Rule::integrity(
                "audit",
                EventPattern::External {
                    name: Some("ping".into()),
                },
                Arc::new(|_, _| vec![]),
            )
            .with_coupling(Coupling::Deferred),
        )
        .unwrap();
        eng.add_rule(cust_rule("c", "payload")).unwrap();
        eng
    };

    let mut eng = build();
    let generation_before = eng.rules_generation();
    let err = eng
        .dispatch(Event::external("ping"), &session())
        .unwrap_err();
    assert!(matches!(err, ActiveError::CascadeOverflow { .. }));
    assert_eq!(eng.pending_deferred(), 0, "deferred queue not rolled back");
    assert_eq!(eng.rules_generation(), generation_before);

    // The follow-up dispatch must be indistinguishable from the same
    // dispatch on a fresh, never-aborted engine.
    let mut fresh = build();
    let after = eng.dispatch(get_schema(), &session()).unwrap();
    let expected = fresh.dispatch(get_schema(), &session()).unwrap();
    assert_eq!(after.customizations, expected.customizations);
    assert_eq!(after.fired, expected.fired);
    assert_eq!(after.events_processed, expected.events_processed);
    assert_eq!(eng.pending_deferred(), fresh.pending_deferred());
}
