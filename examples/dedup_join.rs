//! Probabilistic deduplication across two integrated databases.
//!
//! The paper's web-integration motivation: two sources describe the same
//! employees, but an extraction pipeline produced *uncertain* department
//! assignments for both. Find record pairs that probably refer to the
//! same placement — a probabilistic equality threshold join (PETJ,
//! Definition 6) — and the k most confident matches (PEJ-top-k), then
//! compare the index-nested-loop plan with the block-nested-loop baseline.
//!
//! ```text
//! cargo run --release --example dedup_join
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use uncat::prelude::*;
use uncat::query::ScanBaseline;
use uncat_pdrtree::{PdrConfig, PdrTree};
use uncat_query::join::{block_join, index_join, JoinPair, JoinSpec};

const DEPARTMENTS: u32 = 24;
const SOURCE_A: usize = 150;
const SOURCE_B: usize = 5_000;

/// An extractor's department guess: one or two candidates.
fn extract(rng: &mut StdRng) -> Uda {
    let d1 = rng.random_range(0..DEPARTMENTS);
    if rng.random_range(0.0..1.0f64) < 0.35 {
        Uda::certain(CatId(d1))
    } else {
        let d2 = (d1 + rng.random_range(1..DEPARTMENTS)) % DEPARTMENTS;
        let p = rng.random_range(0.55..0.9f32);
        Uda::from_pairs([(CatId(d1), p), (CatId(d2), 1.0 - p)]).expect("valid pair")
    }
}

fn main() {
    let mut rng = StdRng::seed_from_u64(11);
    let domain = Domain::anonymous(DEPARTMENTS);

    let source_a: Vec<(u64, Uda)> = (0..SOURCE_A as u64)
        .map(|i| (i, extract(&mut rng)))
        .collect();
    let source_b: Vec<(u64, Uda)> = (0..SOURCE_B as u64)
        .map(|i| (100_000 + i, extract(&mut rng)))
        .collect();

    let store = InMemoryDisk::shared();
    let mut pool = BufferPool::with_capacity(store.clone(), 256);
    let index_b = PdrTree::bulk_build(
        domain.clone(),
        PdrConfig::default(),
        &mut pool,
        source_b.iter().map(|(t, u)| (*t, u)),
    )
    .expect("in-memory build");
    let scan_b = ScanBaseline::build(&mut pool, source_b.iter().map(|(t, u)| (*t, u)))
        .expect("in-memory build");
    pool.flush().expect("in-memory flush");

    let tau = 0.6;
    println!(
        "PETJ: {} × {} records, Pr(same department) ≥ {tau}",
        SOURCE_A, SOURCE_B
    );

    // Each plan runs on a fresh pool, so its outcome's reads are its own.
    let fresh = || BufferPool::new(store.clone());
    let petj = JoinSpec::Petj { tau };
    let inl = index_join(&source_a, &index_b, &mut fresh(), petj).expect("in-memory join");
    println!(
        "  index nested loop: {:6} pairs, {:6} page reads",
        inl.pairs.len(),
        inl.reads()
    );

    let bnl = block_join(&source_a, &scan_b, &mut fresh(), petj).expect("in-memory join");
    println!(
        "  block nested loop: {:6} pairs, {:6} page reads",
        bnl.pairs.len(),
        bnl.reads()
    );
    let ids = |pairs: &[JoinPair]| pairs.iter().map(|p| (p.left, p.right)).collect::<Vec<_>>();
    assert_eq!(
        ids(&inl.pairs),
        ids(&bnl.pairs),
        "both plans must produce the same join"
    );

    let top5 = JoinSpec::PejTopK { k: 5 };
    let best = index_join(&source_a, &index_b, &mut fresh(), top5).expect("in-memory join");
    println!("\nFive most confident matches:");
    for p in &best.pairs {
        println!("  A#{:<4} ↔ B#{:<7} Pr = {:.3}", p.left, p.right, p.score);
    }
}
