//! Two short traced runs with the same seed must observe identical work
//! counts: rows returned, widgets and ASCII bytes per window, and the
//! replication delta of one commit with one writer.

use perfbench::{run, Budget, Counts, Sizes, Spec, Workload};

fn traced_counts(workload: Workload, seed: u64, clients: usize, units: u64) -> Counts {
    let spec = Spec {
        workload,
        seed,
        budget: Budget::Units(units),
        trace: true,
        sizes: Sizes::small(),
        clients,
        spans_out: None,
    };
    let out = run(&spec).expect("benchmark run completes");
    assert!(out.correct(), "run failed its checks: {:?}", out.errors);
    out.counts
}

#[test]
fn browse_counts_repeat_for_a_seed() {
    let a = traced_counts(Workload::Browse, 5, 2, 4);
    let b = traced_counts(Workload::Browse, 5, 2, 4);
    assert!(
        a.rows_returned > 0 && a.widgets > 0 && a.ascii_bytes > 0,
        "{a:?}"
    );
    assert_eq!(a, b);
}

#[test]
fn edit_counts_repeat_for_a_seed_with_one_writer() {
    let a = traced_counts(Workload::Edit, 9, 1, 8);
    let b = traced_counts(Workload::Edit, 9, 1, 8);
    assert!(
        a.commits > 0 && a.refreshed > 0 && a.delta_bytes > 0,
        "{a:?}"
    );
    assert_eq!(a, b);
}
