//! The compiled dispatch tier: per-epoch flat decision tables, the
//! engine's production dispatch path.
//!
//! Interpreting a rule against an event costs string compares for
//! schema/class/name, `Option` walks for the context pattern, and a
//! full `max_by_key` specificity resolution per event. [`compile`]
//! removes all of that from the hot path by lowering a published rule
//! snapshot — once per content generation, off the dispatch path —
//! into [`CompiledRules`]:
//!
//! * **Dense jump tables.** One [`CompiledTable`] per `DbEventKind`
//!   (a 7-slot array — no hash lookup for database events), plus one per
//!   interface gesture name and external event name, plus fallback
//!   tables for names no rule mentions. Each table is the *pre-merged*
//!   union of the rules keyed on that event, the any-of-kind rules and
//!   the wildcard rules, so dispatch walks exactly one flat vector.
//! * **Interning.** Every string a pattern can test — users, categories,
//!   applications, schemas, classes — is interned to a small integer at
//!   compile time. The rule's context condition collapses to one masked
//!   compare of a packed `u64` (20 bits per field); event fields are
//!   interned once per cascade step and compared as integers. A string
//!   the tables never saw interns to `0`, which no pattern requirement
//!   can equal — exactly the semantics of equality matching.
//! * **Pre-resolved specificity.** Customization candidates are sorted
//!   at compile time by descending `(specificity, priority,
//!   registration)` — the engine's selection key. Under `MostSpecific`
//!   with tracing off, the first matching candidate *is* the winner and
//!   the walk stops there.
//! * **Guard partitioning.** Guard-free rules are fully decided by the
//!   integer checks; rules carrying native guards or extension-dimension
//!   requirements are flagged [`slow`](CompiledCand::slow) and fall back
//!   to the interpreted `Rule::matches` — pre-partitioned, so the common
//!   case never tests for the rare one.
//!
//! Interface `source_prefix` conditions are not equality matches; they
//! compile to a bitmask over the (few) distinct prefixes, computed once
//! per event and tested with one AND per candidate.
//!
//! The structure is independent of the payload type `P`: it stores rule
//! *indices* into the snapshot it was compiled from, keyed by the
//! snapshot's content `generation` (quarantine flips bump the epoch but
//! not the generation — health is re-checked per dispatch, so compiled
//! tables survive quarantine transitions unchanged).

use std::collections::HashMap;
use std::sync::Arc;

use geodb::query::DbEventKind;

use crate::context::{ContextPattern, SessionContext};
use crate::event::{Event, EventPattern};
use crate::rule::{Rule, RuleGroup};

/// Bits per interned context field in the packed `u64` key
/// (`user | category | application`, most-specific field highest).
const FIELD_BITS: u32 = 20;
const FIELD_MAX: u32 = (1 << FIELD_BITS) - 1;
const USER_SHIFT: u32 = 2 * FIELD_BITS;
const CAT_SHIFT: u32 = FIELD_BITS;

/// Distinct interface source prefixes representable in the per-event
/// bitmask; rules referencing prefixes beyond this fall back to the
/// interpreted path (and the packed cache is disabled — the mask no
/// longer separates all distinguishable events).
const MAX_PREFIXES: usize = 32;

/// Number of dense database-event tables (one per [`DbEventKind`]).
pub(crate) const DB_KIND_TABLES: usize = 7;

/// Dense slot for a database event kind.
pub(crate) fn kind_slot(kind: DbEventKind) -> usize {
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

/// String → small-integer table. Ids are 1-based: `0` is reserved for
/// "not interned", which can never satisfy a pattern requirement.
#[derive(Debug, Default, Clone)]
struct Interner {
    map: HashMap<String, u32>,
}

impl Interner {
    fn intern(&mut self, s: &str) -> u32 {
        let next = self.map.len() as u32 + 1;
        *self.map.entry(s.to_string()).or_insert(next)
    }

    fn get(&self, s: &str) -> u32 {
        self.map.get(s).copied().unwrap_or(0)
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn overflows(&self) -> bool {
        self.map.len() as u32 > FIELD_MAX
    }
}

/// One rule in a compiled table: the integer-only residue of its match
/// condition (everything the table membership has not already decided).
#[derive(Debug, Clone)]
pub(crate) struct CompiledCand {
    /// Index into the snapshot's rule vector.
    pub(crate) idx: u32,
    /// Which packed-context bits the rule constrains…
    ctx_mask: u64,
    /// …and the interned values they must hold.
    ctx_want: u64,
    /// Required interned schema (`0` = unconstrained).
    schema_req: u32,
    /// Required interned class (`0` = unconstrained).
    class_req: u32,
    /// 1-based bit in the event's prefix mask (`0` = unconstrained).
    prefix_req: u32,
    /// Guard- or extras-bearing: integer checks cannot decide the match;
    /// evaluate the interpreted `Rule::matches` instead.
    pub(crate) slow: bool,
    /// Pre-resolved selection key, copied from the rule at lowering time
    /// so a patch can re-sort without consulting the snapshot.
    spec: u32,
    prio: i32,
}

impl CompiledCand {
    /// The integer-only match test (sound exactly when `!self.slow`).
    #[inline]
    pub(crate) fn matches_fast(&self, ids: &EventIds, ctx_packed: u64) -> bool {
        (self.schema_req == 0 || self.schema_req == ids.schema)
            && (self.class_req == 0 || self.class_req == ids.class)
            && (self.prefix_req == 0 || ids.prefix_mask & (1 << (self.prefix_req - 1)) != 0)
            && ctx_packed & self.ctx_mask == self.ctx_want
    }
}

/// One jump-table entry: all candidates that can possibly match events
/// routed here, pre-partitioned by rule group.
#[derive(Debug, Default, Clone)]
pub(crate) struct CompiledTable {
    /// Customization candidates in *descending* pre-resolved selection
    /// order `(specificity, priority, registration index)`.
    pub(crate) cust: Vec<CompiledCand>,
    /// Non-customization candidates in ascending registration order
    /// (firing order is resolved later, per dispatch, by priority).
    pub(crate) other: Vec<CompiledCand>,
}

/// Which jump table an event routed to. `Copy`, so a batch lane can
/// remember the route for a run of identical events and replay it
/// without re-hashing the event's string fields (the table reference
/// itself cannot be stored across dispatches — only this tag can).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Route {
    Db(u8),
    Iface(u32),
    IfaceAny,
    Ext(u32),
    ExtAny,
}

/// The per-cascade-step interned view of an event: computed once, then
/// compared as integers against every candidate.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EventIds {
    /// Packed event discriminant for the winner-cache key (only
    /// meaningful while [`CompiledRules::cacheable`]).
    pub(crate) key: u64,
    /// The jump table `lookup` resolved, replayable via
    /// [`CompiledRules::table`].
    pub(crate) route: Route,
    schema: u32,
    class: u32,
    prefix_mask: u32,
}

/// What one epoch compile produced — surfaced through
/// `Engine::compiled_stats` and the REPL `:compile` command.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileStats {
    /// Content generation the tables were compiled from.
    pub generation: u64,
    /// Enabled rules lowered into the tables.
    pub rules: usize,
    /// Jump tables emitted (7 db kinds + per-name + 2 fallbacks).
    pub tables: usize,
    /// Total candidate slots across every table (a rule with a broad
    /// pattern occupies several tables).
    pub candidates: usize,
    /// Distinct interned users / categories / applications.
    pub users: usize,
    pub categories: usize,
    pub applications: usize,
    /// Distinct interned event terms (schemas, classes, gesture and
    /// external names, source prefixes).
    pub event_terms: usize,
    /// Whether the packed `u64` winner-cache key is in use (false only
    /// in degenerate snapshots that overflow the interning widths).
    pub packed_cache: bool,
    /// Whether this artifact was produced by patching the previous one
    /// (see [`patch`]) rather than a full compile.
    pub patched: bool,
    /// Wall-clock nanoseconds the compile (or patch) took (off the
    /// dispatch path).
    pub compile_ns: u64,
}

/// The compiled form of one rule snapshot.
///
/// Interners are `Arc`-shared so that [`patch`] can clone an artifact
/// without rehashing every interned string; a patch that needs to
/// intern a *new* string copies only the affected interner
/// (`Arc::make_mut`).
#[derive(Debug)]
pub(crate) struct CompiledRules {
    pub(crate) generation: u64,
    users: Arc<Interner>,
    categories: Arc<Interner>,
    applications: Arc<Interner>,
    schemas: Arc<Interner>,
    classes: Arc<Interner>,
    iface_names: Arc<Interner>,
    ext_names: Arc<Interner>,
    prefixes: Vec<String>,
    db: [CompiledTable; DB_KIND_TABLES],
    iface_tables: Vec<CompiledTable>,
    /// Interface events whose gesture name no rule mentions by name.
    iface_any: CompiledTable,
    ext_tables: Vec<CompiledTable>,
    ext_any: CompiledTable,
    /// Packed keys are collision-free (every interned id fits its field
    /// and the prefix mask covers every prefix) — the winner cache may
    /// key on them.
    pub(crate) cacheable: bool,
    pub(crate) stats: CompileStats,
}

impl CompiledRules {
    /// Pack a session context into the interned `u64` key. Computed once
    /// per dispatch (the context is fixed across the cascade).
    pub(crate) fn pack_ctx(&self, ctx: &SessionContext) -> u64 {
        ((self.users.get(&ctx.user) as u64) << USER_SHIFT)
            | ((self.categories.get(&ctx.category) as u64) << CAT_SHIFT)
            | self.applications.get(&ctx.application) as u64
    }

    /// Route an event to its jump table and intern its observable fields
    /// — one hash lookup per string field, once per cascade step.
    pub(crate) fn lookup(&self, event: &Event) -> (&CompiledTable, EventIds) {
        match event {
            Event::Db(e) => {
                let slot = kind_slot(e.kind());
                let schema = self.schemas.get(e.schema());
                let class = e.class().map_or(0, |c| self.classes.get(c));
                let key = ((slot as u64) << 50) | ((schema as u64) << 25) | class as u64;
                (
                    &self.db[slot],
                    EventIds {
                        key,
                        route: Route::Db(slot as u8),
                        schema,
                        class,
                        prefix_mask: 0,
                    },
                )
            }
            Event::Interface { name, source } => {
                let id = self.iface_names.get(name);
                let (table, route) = if id > 0 {
                    (&self.iface_tables[id as usize - 1], Route::Iface(id - 1))
                } else {
                    (&self.iface_any, Route::IfaceAny)
                };
                let mut mask = 0u32;
                for (bit, p) in self.prefixes.iter().enumerate() {
                    if source.starts_with(p.as_str()) {
                        mask |= 1 << bit;
                    }
                }
                let key = (1u64 << 60) | ((id as u64) << 32) | mask as u64;
                (
                    table,
                    EventIds {
                        key,
                        route,
                        schema: 0,
                        class: 0,
                        prefix_mask: mask,
                    },
                )
            }
            Event::External { name } => {
                let id = self.ext_names.get(name);
                let (table, route) = if id > 0 {
                    (&self.ext_tables[id as usize - 1], Route::Ext(id - 1))
                } else {
                    (&self.ext_any, Route::ExtAny)
                };
                let key = (2u64 << 60) | id as u64;
                (
                    table,
                    EventIds {
                        key,
                        route,
                        schema: 0,
                        class: 0,
                        prefix_mask: 0,
                    },
                )
            }
        }
    }

    /// Replay a route captured by [`lookup`] — no event inspection, no
    /// hashing. Used by the batch lane for runs of identical events.
    pub(crate) fn table(&self, route: Route) -> &CompiledTable {
        match route {
            Route::Db(slot) => &self.db[slot as usize],
            Route::Iface(i) => &self.iface_tables[i as usize],
            Route::IfaceAny => &self.iface_any,
            Route::Ext(i) => &self.ext_tables[i as usize],
            Route::ExtAny => &self.ext_any,
        }
    }
}

/// The pattern-level residue of one rule, captured at mutation time so
/// a later [`patch`] can lower it without access to the typed snapshot
/// (the payload `P` never crosses into the delta log).
#[derive(Debug, Clone)]
pub(crate) struct RuleLite {
    pub(crate) event: EventPattern,
    pub(crate) context: ContextPattern,
    pub(crate) spec: u32,
    pub(crate) priority: i32,
    pub(crate) cust: bool,
    pub(crate) slow: bool,
}

impl RuleLite {
    pub(crate) fn of<P>(r: &Rule<P>) -> RuleLite {
        RuleLite {
            event: r.event.clone(),
            context: r.context.clone(),
            spec: r.specificity(),
            priority: r.priority,
            cust: r.group == RuleGroup::Customization,
            slow: r.needs_interpreted_match(),
        }
    }
}

/// One recorded snapshot mutation, replayable against a compiled
/// artifact by [`patch`].
#[derive(Debug, Clone)]
pub(crate) enum Delta {
    /// Rule appended at `idx` (`RuleSnapshot::add` always appends).
    Add { idx: u32, rule: RuleLite },
    /// Rule removed from `idx`; every later index shifts down by one.
    /// `was_enabled` tells the patch whether any candidates exist.
    Remove { idx: u32, was_enabled: bool },
    /// Disabled rule at `idx` re-enabled (indices unchanged).
    Enable { idx: u32, rule: RuleLite },
    /// Enabled rule at `idx` disabled.
    Disable { idx: u32 },
    /// Priority changed on the enabled rule at `idx` (`spec` re-captured
    /// so the full sort key travels with the delta).
    Priority { idx: u32, priority: i32, spec: u32 },
    /// Generation advanced with no table effect (e.g. `set_enabled` to
    /// the state the rule was already in).
    Noop,
    /// Bulk mutation (prefix removal, install storms) — always
    /// recompiled from scratch.
    Bulk,
}

/// Splice a chain of single-rule deltas into an existing artifact in
/// place of a full [`compile`]. Tables are cloned wholesale (a memcpy
/// per table — no hashing, no sorting), interners are shared until a
/// delta needs a new string, and candidate order is maintained by
/// positional insertion into the pre-sorted lists.
///
/// Returns `None` — caller falls back to a full compile — when a delta
/// cannot be spliced soundly:
///
/// * any [`Delta::Bulk`] in the chain;
/// * an added/enabled rule matching an interface or external name the
///   tables have never seen (needs a new jump table plus redistribution
///   of every wildcard rule);
/// * a new `source_prefix` beyond the [`MAX_PREFIXES`] mask width;
/// * an interner append overflowing its packed-field width;
/// * a base artifact already degraded to uncacheable (degenerate
///   snapshots always take the full-compile path).
pub(crate) fn patch(
    base: &CompiledRules,
    deltas: &[Delta],
    generation: u64,
) -> Option<CompiledRules> {
    if !base.cacheable {
        return None;
    }
    let mut out = CompiledRules {
        generation,
        users: Arc::clone(&base.users),
        categories: Arc::clone(&base.categories),
        applications: Arc::clone(&base.applications),
        schemas: Arc::clone(&base.schemas),
        classes: Arc::clone(&base.classes),
        iface_names: Arc::clone(&base.iface_names),
        ext_names: Arc::clone(&base.ext_names),
        prefixes: base.prefixes.clone(),
        db: base.db.clone(),
        iface_tables: base.iface_tables.clone(),
        iface_any: base.iface_any.clone(),
        ext_tables: base.ext_tables.clone(),
        ext_any: base.ext_any.clone(),
        cacheable: true,
        stats: base.stats,
    };
    for d in deltas {
        match d {
            Delta::Noop => {}
            Delta::Bulk => return None,
            Delta::Remove { idx, was_enabled } => {
                out.remove_cands(*idx, true);
                if *was_enabled {
                    out.stats.rules -= 1;
                }
            }
            Delta::Disable { idx } => {
                out.remove_cands(*idx, false);
                out.stats.rules -= 1;
            }
            Delta::Add { idx, rule } | Delta::Enable { idx, rule } => {
                out.insert_cands(*idx, rule)?;
                out.stats.rules += 1;
            }
            Delta::Priority {
                idx,
                priority,
                spec,
            } => out.reprioritize(*idx, *priority, *spec),
        }
    }
    out.refresh_patched_stats();
    Some(out)
}

/// Append-or-get on a shared interner; `None` when the id would no
/// longer fit its packed field (patch bails to full compile, which
/// handles overflow by degrading the artifact).
fn intern_append(interner: &mut Arc<Interner>, s: &str) -> Option<u32> {
    let id = match interner.get(s) {
        0 => Arc::make_mut(interner).intern(s),
        id => id,
    };
    (id <= FIELD_MAX).then_some(id)
}

impl CompiledRules {
    fn tables_mut(&mut self) -> impl Iterator<Item = &mut CompiledTable> {
        self.db
            .iter_mut()
            .chain(self.iface_tables.iter_mut())
            .chain(std::iter::once(&mut self.iface_any))
            .chain(self.ext_tables.iter_mut())
            .chain(std::iter::once(&mut self.ext_any))
    }

    /// Drop every candidate for `idx`; with `shift`, renumber the
    /// indices above it (rule removal compacts the snapshot vector).
    /// Renumbering a contiguous upper range preserves both sort orders.
    fn remove_cands(&mut self, idx: u32, shift: bool) {
        let mut removed = 0usize;
        for t in self.tables_mut() {
            for list in [&mut t.cust, &mut t.other] {
                let before = list.len();
                list.retain(|c| c.idx != idx);
                removed += before - list.len();
                if shift {
                    for c in list.iter_mut() {
                        if c.idx > idx {
                            c.idx -= 1;
                        }
                    }
                }
            }
        }
        self.stats.candidates -= removed;
    }

    /// Lower one rule and splice it into every table its pattern
    /// reaches, at the position the full compile's sort would have put
    /// it. `None` = not patchable (see [`patch`]).
    fn insert_cands(&mut self, idx: u32, rule: &RuleLite) -> Option<()> {
        let mut cand = CompiledCand {
            idx,
            ctx_mask: 0,
            ctx_want: 0,
            schema_req: 0,
            class_req: 0,
            prefix_req: 0,
            slow: rule.slow,
            spec: rule.spec,
            prio: rule.priority,
        };
        for (field, interner, shift) in [
            (&rule.context.user, &mut self.users, USER_SHIFT),
            (&rule.context.category, &mut self.categories, CAT_SHIFT),
            (&rule.context.application, &mut self.applications, 0),
        ] {
            if let Some(v) = field {
                let id = intern_append(interner, v)?;
                cand.ctx_mask |= (FIELD_MAX as u64) << shift;
                cand.ctx_want |= (id as u64) << shift;
            }
        }

        let mut targets: Vec<Target> = Vec::new();
        match &rule.event {
            EventPattern::Any => {
                targets.extend((0..DB_KIND_TABLES).map(Target::Db));
                targets.extend((0..self.iface_tables.len()).map(Target::Iface));
                targets.push(Target::IfaceAny);
                targets.extend((0..self.ext_tables.len()).map(Target::Ext));
                targets.push(Target::ExtAny);
            }
            EventPattern::Db {
                kind,
                schema,
                class,
            } => {
                if let Some(s) = schema {
                    cand.schema_req = intern_append(&mut self.schemas, s)?;
                }
                if let Some(c) = class {
                    cand.class_req = intern_append(&mut self.classes, c)?;
                }
                match kind {
                    Some(k) => targets.push(Target::Db(kind_slot(*k))),
                    None => targets.extend((0..DB_KIND_TABLES).map(Target::Db)),
                }
            }
            EventPattern::Interface {
                name,
                source_prefix,
            } => {
                if let Some(p) = source_prefix {
                    let bit = match self.prefixes.iter().position(|q| q == p) {
                        Some(bit) => bit,
                        None if self.prefixes.len() < MAX_PREFIXES => {
                            self.prefixes.push(p.clone());
                            self.prefixes.len() - 1
                        }
                        // Out of mask bits: the full compile degrades
                        // this candidate to the interpreted path.
                        None => return None,
                    };
                    cand.prefix_req = bit as u32 + 1;
                }
                match name {
                    Some(n) => match self.iface_names.get(n) {
                        // A name the tables never saw needs a new jump
                        // table and redistribution of every wildcard
                        // rule — that is a compile, not a patch.
                        0 => return None,
                        id => targets.push(Target::Iface(id as usize - 1)),
                    },
                    None => {
                        targets.extend((0..self.iface_tables.len()).map(Target::Iface));
                        targets.push(Target::IfaceAny);
                    }
                }
            }
            EventPattern::External { name } => match name {
                Some(n) => match self.ext_names.get(n) {
                    0 => return None,
                    id => targets.push(Target::Ext(id as usize - 1)),
                },
                None => {
                    targets.extend((0..self.ext_tables.len()).map(Target::Ext));
                    targets.push(Target::ExtAny);
                }
            },
        }

        let key = std::cmp::Reverse((cand.spec, cand.prio, cand.idx));
        for t in &targets {
            let table = match t {
                Target::Db(i) => &mut self.db[*i],
                Target::Iface(i) => &mut self.iface_tables[*i],
                Target::IfaceAny => &mut self.iface_any,
                Target::Ext(i) => &mut self.ext_tables[*i],
                Target::ExtAny => &mut self.ext_any,
            };
            if rule.cust {
                let at = table
                    .cust
                    .partition_point(|c| std::cmp::Reverse((c.spec, c.prio, c.idx)) < key);
                table.cust.insert(at, cand.clone());
            } else {
                let at = table.other.partition_point(|c| c.idx < cand.idx);
                table.other.insert(at, cand.clone());
            }
        }
        self.stats.candidates += targets.len();
        Some(())
    }

    /// Re-key the candidates of `idx` after a priority change and move
    /// them to their new pre-sorted positions.
    fn reprioritize(&mut self, idx: u32, priority: i32, spec: u32) {
        for t in self.tables_mut() {
            if let Some(pos) = t.cust.iter().position(|c| c.idx == idx) {
                let mut cand = t.cust.remove(pos);
                cand.prio = priority;
                cand.spec = spec;
                let key = std::cmp::Reverse((cand.spec, cand.prio, cand.idx));
                let at = t
                    .cust
                    .partition_point(|c| std::cmp::Reverse((c.spec, c.prio, c.idx)) < key);
                t.cust.insert(at, cand);
            }
            for c in t.other.iter_mut() {
                if c.idx == idx {
                    c.prio = priority;
                    c.spec = spec;
                }
            }
        }
    }

    /// Refresh the derived stats a patch may have moved (candidate and
    /// rule counts are maintained incrementally by the splice ops).
    fn refresh_patched_stats(&mut self) {
        self.stats.generation = self.generation;
        self.stats.users = self.users.len();
        self.stats.categories = self.categories.len();
        self.stats.applications = self.applications.len();
        self.stats.event_terms = self.schemas.len()
            + self.classes.len()
            + self.iface_names.len()
            + self.ext_names.len()
            + self.prefixes.len();
        self.stats.patched = true;
        self.stats.compile_ns = 0;
    }
}

/// Where a candidate is routed during distribution.
enum Target {
    Db(usize),
    Iface(usize),
    IfaceAny,
    Ext(usize),
    ExtAny,
}

/// Lower a rule vector into flat dispatch tables. Runs once per content
/// generation, never on the dispatch path; cost is O(rules × tables a
/// rule occupies) plus one sort per table.
pub(crate) fn compile<P>(rules: &[Rule<P>], generation: u64) -> CompiledRules {
    let mut users = Interner::default();
    let mut categories = Interner::default();
    let mut applications = Interner::default();
    let mut schemas = Interner::default();
    let mut classes = Interner::default();
    let mut iface_names = Interner::default();
    let mut ext_names = Interner::default();
    let mut prefixes: Vec<String> = Vec::new();
    let mut prefix_overflow = false;

    // Pass 1: the named tables that must exist (one per distinct
    // gesture/external name any enabled rule matches by name).
    for r in rules.iter().filter(|r| r.enabled) {
        match &r.event {
            EventPattern::Interface { name: Some(n), .. } => {
                iface_names.intern(n);
            }
            EventPattern::External { name: Some(n) } => {
                ext_names.intern(n);
            }
            _ => {}
        }
    }
    let mut db: [CompiledTable; DB_KIND_TABLES] = Default::default();
    let mut iface_tables = vec![CompiledTable::default(); iface_names.len()];
    let mut iface_any = CompiledTable::default();
    let mut ext_tables = vec![CompiledTable::default(); ext_names.len()];
    let mut ext_any = CompiledTable::default();

    // Pass 2: distribute every enabled rule into the tables its pattern
    // can reach, lowering its conditions to integer requirements.
    let mut targets: Vec<Target> = Vec::new();
    for (idx, r) in rules.iter().enumerate() {
        if !r.enabled {
            continue;
        }
        let mut cand = CompiledCand {
            idx: idx as u32,
            ctx_mask: 0,
            ctx_want: 0,
            schema_req: 0,
            class_req: 0,
            prefix_req: 0,
            slow: r.needs_interpreted_match(),
            spec: r.specificity(),
            prio: r.priority,
        };
        for (field, interner, shift) in [
            (&r.context.user, &mut users, USER_SHIFT),
            (&r.context.category, &mut categories, CAT_SHIFT),
            (&r.context.application, &mut applications, 0),
        ] {
            if let Some(v) = field {
                cand.ctx_mask |= (FIELD_MAX as u64) << shift;
                cand.ctx_want |= (interner.intern(v) as u64) << shift;
            }
        }

        targets.clear();
        match &r.event {
            EventPattern::Any => {
                targets.extend((0..DB_KIND_TABLES).map(Target::Db));
                targets.extend((0..iface_tables.len()).map(Target::Iface));
                targets.push(Target::IfaceAny);
                targets.extend((0..ext_tables.len()).map(Target::Ext));
                targets.push(Target::ExtAny);
            }
            EventPattern::Db {
                kind,
                schema,
                class,
            } => {
                if let Some(s) = schema {
                    cand.schema_req = schemas.intern(s);
                }
                if let Some(c) = class {
                    cand.class_req = classes.intern(c);
                }
                match kind {
                    Some(k) => targets.push(Target::Db(kind_slot(*k))),
                    None => targets.extend((0..DB_KIND_TABLES).map(Target::Db)),
                }
            }
            EventPattern::Interface {
                name,
                source_prefix,
            } => {
                if let Some(p) = source_prefix {
                    let bit = prefixes.iter().position(|q| q == p).unwrap_or_else(|| {
                        prefixes.push(p.clone());
                        prefixes.len() - 1
                    });
                    if bit < MAX_PREFIXES {
                        cand.prefix_req = bit as u32 + 1;
                    } else {
                        // No mask bit left for this prefix: evaluate the
                        // pattern on the interpreted path instead.
                        prefix_overflow = true;
                        cand.slow = true;
                    }
                }
                match name {
                    Some(n) => targets.push(Target::Iface(iface_names.get(n) as usize - 1)),
                    None => {
                        targets.extend((0..iface_tables.len()).map(Target::Iface));
                        targets.push(Target::IfaceAny);
                    }
                }
            }
            EventPattern::External { name } => match name {
                Some(n) => targets.push(Target::Ext(ext_names.get(n) as usize - 1)),
                None => {
                    targets.extend((0..ext_tables.len()).map(Target::Ext));
                    targets.push(Target::ExtAny);
                }
            },
        }

        let cust = r.group == RuleGroup::Customization;
        for t in &targets {
            let table = match t {
                Target::Db(i) => &mut db[*i],
                Target::Iface(i) => &mut iface_tables[*i],
                Target::IfaceAny => &mut iface_any,
                Target::Ext(i) => &mut ext_tables[*i],
                Target::ExtAny => &mut ext_any,
            };
            if cust {
                table.cust.push(cand.clone());
            } else {
                table.other.push(cand.clone());
            }
        }
    }

    // An interning width overflow would corrupt the packed compares;
    // degrade the whole epoch to interpreted matching (still pruned by
    // the tables) rather than match incorrectly. Unreachable for any
    // realistic rule set (> 2^20 distinct pattern strings per field).
    let ctx_overflow = users.overflows() || categories.overflows() || applications.overflows();
    let cacheable = !ctx_overflow
        && !prefix_overflow
        && !schemas.overflows()
        && !classes.overflows()
        && !iface_names.overflows()
        && !ext_names.overflows();

    // Pre-resolve selection order: descending (specificity, priority,
    // registration index), so the first matching customization candidate
    // is the `MostSpecific` winner.
    let mut candidates = 0usize;
    let all_tables = db
        .iter_mut()
        .chain(iface_tables.iter_mut())
        .chain(std::iter::once(&mut iface_any))
        .chain(ext_tables.iter_mut())
        .chain(std::iter::once(&mut ext_any));
    let mut tables = 0usize;
    for table in all_tables {
        table
            .cust
            .sort_unstable_by_key(|c| std::cmp::Reverse((c.spec, c.prio, c.idx)));
        if ctx_overflow {
            for c in table.cust.iter_mut().chain(table.other.iter_mut()) {
                c.slow = true;
            }
        }
        candidates += table.cust.len() + table.other.len();
        tables += 1;
    }

    let stats = CompileStats {
        generation,
        rules: rules.iter().filter(|r| r.enabled).count(),
        tables,
        candidates,
        users: users.len(),
        categories: categories.len(),
        applications: applications.len(),
        event_terms: schemas.len()
            + classes.len()
            + iface_names.len()
            + ext_names.len()
            + prefixes.len(),
        packed_cache: cacheable,
        patched: false,
        compile_ns: 0,
    };
    CompiledRules {
        generation,
        users: Arc::new(users),
        categories: Arc::new(categories),
        applications: Arc::new(applications),
        schemas: Arc::new(schemas),
        classes: Arc::new(classes),
        iface_names: Arc::new(iface_names),
        ext_names: Arc::new(ext_names),
        prefixes,
        db,
        iface_tables,
        iface_any,
        ext_tables,
        ext_any,
        cacheable,
        stats,
    }
}
