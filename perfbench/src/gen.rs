//! Seeded input generation: the random source, the Zipf sampler, the
//! context pools and the request streams of the three workloads.
//!
//! Everything here is a pure function of the run seed, so two runs with
//! the same seed send the program the same requests in the same order
//! per client.

use active::SessionContext;
use geodb::geometry::Point;
use geodb::query::{CmpOp, DbEvent, Predicate};
use geodb::value::Value;
use geodb::Oid;
use gisui::Request;

pub const SCHEMA: &str = "phone_net";
pub const CLASSES: [&str; 4] = ["Pole", "Duct", "Supplier", "District"];

/// SplitMix64: small, fast and fully deterministic.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `(seed, stream)`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.f64() * n as f64) as usize % n.max(1)
    }

    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// Fisher-Yates permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// Zipf over ranks `0..n` with exponent `s` (rank 0 is the hottest).
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|k| {
                acc += 1.0 / ((k + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        self.quantile(rng.f64())
    }

    /// The rank at cumulative probability `u` in `[0, 1)`.
    pub fn quantile(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// One browse/edit user context and whether a rule customizes it.
#[derive(Clone, Debug)]
pub struct PoolContext {
    pub context: SessionContext,
    pub customized: bool,
}

/// The browse context pool, hottest first. Rank 0 is the paper's
/// Fig. 6 user; every fourth rank is a generic visitor no rule names;
/// the rest are synthetic users, each customized by its own directive
/// of `bench::synthetic_program` (which covers `user0..user{n-1}`).
pub fn browse_pool(size: usize, synthetic_users: usize) -> Vec<PoolContext> {
    (0..size)
        .map(|j| {
            if j == 0 {
                PoolContext {
                    context: SessionContext::new("juliano", "planner", "pole_manager"),
                    customized: true,
                }
            } else if j % 4 == 3 || j >= synthetic_users {
                PoolContext {
                    context: SessionContext::new(format!("guest{j}"), "visitor", "city_viewer"),
                    customized: false,
                }
            } else {
                PoolContext {
                    context: SessionContext::new(format!("user{j}"), "planner", "pole_manager"),
                    customized: true,
                }
            }
        })
        .collect()
}

/// The distinct context of dispatch session `j`: users past the
/// synthetic population and the `net_viewer` application are generic,
/// so the rule base interns about `2 * synthetic_users` packed contexts.
pub fn dispatch_context(j: usize) -> SessionContext {
    let app = if (j / 1024).is_multiple_of(2) {
        "pole_manager"
    } else {
        "net_viewer"
    };
    SessionContext::new(format!("user{}", j % 1024), format!("cat{}", j / 2048), app)
}

/// Object ids the generators draw from, per class, in oid order.
#[derive(Clone)]
pub struct Extents {
    pub poles: Vec<Oid>,
    pub ducts: Vec<Oid>,
    pub by_class: Vec<Vec<Oid>>,
    /// Side of the street grid in map units.
    pub extent: f64,
}

/// What kind of request a call carries, for per-class statistics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Class {
    Schema,
    ClassPole,
    ClassOther,
    Instance,
    Analyze,
    Close,
    Batch,
    Update,
    Admin,
}

impl Class {
    pub fn of(req: &Request) -> Class {
        match req {
            Request::OpenSchema { .. } => Class::Schema,
            Request::OpenClass { class, .. } if class == "Pole" => Class::ClassPole,
            Request::OpenClass { .. } => Class::ClassOther,
            Request::OpenInstance { .. } => Class::Instance,
            Request::Analyze { .. } => Class::Analyze,
            _ => Class::Close,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Class::Schema => "open_schema",
            Class::ClassPole => "open_class_pole",
            Class::ClassOther => "open_class_other",
            Class::Instance => "open_instance",
            Class::Analyze => "analyze",
            Class::Close => "close",
            Class::Batch => "dispatch_batch",
            Class::Update => "apply_update",
            Class::Admin => "admin_reload",
        }
    }
}

/// The opening requests of one browse visit (Fig. 4/7): the schema,
/// every class, three Zipf-hot poles and one duct, and one analysis
/// query. The visit then closes every window it opened in one call.
/// Seven of its eleven calls are small, so the median call lies inside
/// the small-window cluster rather than on the edge of the large one.
pub fn visit(rng: &mut Rng, pole_zipf: &Zipf, pole_rank: &[usize], ext: &Extents) -> Vec<Request> {
    let mut reqs = vec![Request::OpenSchema {
        schema: SCHEMA.into(),
    }];
    for class in CLASSES {
        reqs.push(Request::OpenClass {
            schema: SCHEMA.into(),
            class: class.into(),
        });
    }
    for _ in 0..3 {
        let pole = ext.poles[pole_rank[pole_zipf.sample(rng)]];
        reqs.push(Request::OpenInstance { oid: pole.0 });
    }
    reqs.push(Request::OpenInstance {
        oid: ext.ducts[rng.below(ext.ducts.len())].0,
    });
    let predicate = if rng.below(2) == 0 {
        Predicate::NearPoint {
            attr: "pole_location".into(),
            point: Point::new(rng.range(0.0, ext.extent), rng.range(0.0, ext.extent)),
            dist: rng.range(20.0, 60.0),
        }
    } else {
        Predicate::Cmp {
            path: "pole_composition.pole_height".into(),
            op: CmpOp::Gt,
            value: Value::Float(rng.range(12.5, 13.8)),
        }
    };
    reqs.push(Request::Analyze {
        schema: SCHEMA.into(),
        class: "Pole".into(),
        predicate,
    });
    reqs
}

/// One dispatch batch: mixed Get_Schema / Get_Class / Get_Value events.
pub fn dispatch_batch(rng: &mut Rng, len: usize, ext: &Extents) -> Vec<DbEvent> {
    (0..len)
        .map(|_| {
            let roll = rng.below(8);
            let c = rng.below(CLASSES.len());
            if roll == 0 {
                DbEvent::GetSchema {
                    schema: SCHEMA.into(),
                }
            } else if roll < 4 {
                DbEvent::GetClass {
                    schema: SCHEMA.into(),
                    class: CLASSES[c].into(),
                }
            } else {
                let oids = &ext.by_class[c];
                DbEvent::GetValue {
                    schema: SCHEMA.into(),
                    class: CLASSES[c].into(),
                    oid: oids[rng.below(oids.len())],
                }
            }
        })
        .collect()
}

/// The value the `i`-th edit writes. Fixed length, so window sizes and
/// replication deltas do not depend on which edits a reader observed.
pub fn edit_value(seed: u64, i: u64) -> String {
    format!("edit-{:08x}-{:08}", seed as u32, i % 100_000_000)
}

/// The one-directive program the edit workload's admin reinstalls,
/// alternating its presentation so each reinstall really changes a rule.
/// It names a user no session logs in as, so served windows never change.
pub fn admin_program(i: u64) -> String {
    let fmt = ["pointFormat", "symbolFormat"][(i % 2) as usize];
    format!(
        "for user admin application pole_manager\n\
         schema phone_net display as default\n\
         class Pole display presentation as {fmt}\n"
    )
}
