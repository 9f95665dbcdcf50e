//! Harness smoke tests: every figure function must produce a well-formed
//! table at a tiny scale (full-scale numbers are produced by the
//! `figures` binary).

use uncat_bench::{by_name, FigureTable, Scale, ALL_FIGURES};

fn tiny() -> Scale {
    Scale {
        crm_n: 800,
        synth_n: 400,
        queries: 2,
        seed: 7,
    }
}

fn check(t: &FigureTable) {
    assert!(!t.series.is_empty(), "{}: no series", t.id);
    for s in &t.series {
        assert!(!s.points.is_empty(), "{}: empty series {}", t.id, s.label);
        for &(x, y) in &s.points {
            assert!(x.is_finite() && y.is_finite(), "{}: non-finite point", t.id);
            assert!(y >= 0.0, "{}: negative I/O", t.id);
        }
    }
    let rendered = format!("{t}");
    assert!(rendered.contains(&t.id));
}

#[test]
fn every_figure_renders_at_tiny_scale() {
    let scale = tiny();
    for name in ALL_FIGURES {
        // fig9's 500-category domain needs more tuples than the tiny scale
        // provides to reach 1% selectivity; it gets its own test below.
        if name == "fig9" {
            continue;
        }
        let t = by_name(name, &scale)
            .expect("known figure")
            .expect("figure builds");
        check(&t);
    }
    assert!(by_name("nonsense", &scale).is_none());
}

#[test]
fn fig9_renders_at_reduced_scale() {
    let scale = Scale {
        synth_n: 2000,
        ..tiny()
    };
    let t = by_name("fig9", &scale)
        .expect("known figure")
        .expect("figure builds");
    check(&t);
    // Domain sizes form the x-axis.
    assert!(t.xs().len() >= 4);
}

#[test]
fn sharedpool_strictly_beats_private_on_repeated_queries() {
    // The ablation's headline claim: on a Zipf-skewed repeated-query
    // batch, the shared pool performs strictly fewer physical reads than
    // the paper's private-pool-per-query model, at every batch length.
    let scale = Scale {
        crm_n: 4000,
        synth_n: 400,
        queries: 4,
        seed: 11,
    };
    let t = by_name("sharedpool", &scale)
        .expect("sharedpool")
        .expect("figure builds");
    let private = t.series_named("Private-Thres").expect("private series");
    let shared = t.series_named("Shared-Thres").expect("shared series");
    assert_eq!(private.points.len(), shared.points.len());
    for (&(len, p), &(_, s)) in private.points.iter().zip(&shared.points) {
        assert!(
            s < p,
            "batch of {len}: shared pool must read strictly less ({s} vs {p})"
        );
    }
}

#[test]
fn figure_shapes_hold_at_tiny_scale() {
    // A couple of robust shape assertions that hold even at tiny scale.
    let scale = tiny();
    let sizes = by_name("sizes", &scale)
        .expect("sizes")
        .expect("figure builds");
    let bulk = sizes.series_named("PDR-BulkLoad").expect("bulk series");
    let insert = sizes.series_named("PDR-Insert").expect("insert series");
    for (&(_, b), &(_, i)) in bulk.points.iter().zip(&insert.points) {
        assert!(
            b <= i,
            "bulk loading must not use more pages than insertion"
        );
    }
}
