//! RFID nurse tracking — the paper's introductory motivating application.
//!
//! "Nurses carry RFID tags as they move about a hospital. Numerous readers
//! located around the building report the presence of tags in their
//! vicinity. … the application may not be able to identify with certainty
//! a single location for the nurse." Each nurse's current location is a
//! UDA over rooms; the example answers the queries the study needs:
//!
//! * who is probably in the ICU right now (PETQ with a certain value);
//! * which pairs of nurses are probably co-located (PETJ);
//! * whose movement profile is closest to a given nurse's (DSQ-top-k
//!   flavored via DSTQ).
//!
//! ```text
//! cargo run --example nurse_tracking
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use uncat::core::{DstQuery, EqQuery};
use uncat::prelude::*;
use uncat::query::UncertainIndex;
use uncat_pdrtree::{PdrConfig, PdrTree};
use uncat_query::join::{index_join, JoinSpec};

const ROOMS: [&str; 8] = [
    "ICU",
    "ER",
    "Ward-A",
    "Ward-B",
    "Pharmacy",
    "Lab",
    "Break-Room",
    "Front-Desk",
];
const NURSES: usize = 40;

/// Simulate one reader sweep: a nurse is near 1–3 readers with signal
/// strengths that normalize into a location distribution.
fn observe(rng: &mut StdRng, home_room: usize) -> Uda {
    let mut b = uncat::core::UdaBuilder::new();
    // Strong signal near the nurse's actual room, spillover to neighbors.
    let spill = rng.random_range(0..2usize) + 1;
    b.push(CatId(home_room as u32), rng.random_range(0.5..0.9f32))
        .unwrap();
    for step in 1..=spill {
        let neighbor = (home_room + step) % ROOMS.len();
        b.push(CatId(neighbor as u32), rng.random_range(0.05..0.3f32))
            .unwrap();
    }
    b.finish_normalized().unwrap()
}

fn main() {
    let mut rng = StdRng::seed_from_u64(2026);
    let rooms = Domain::from_labels(ROOMS);

    // Current positions: each nurse has a "true" room plus reader noise.
    let positions: Vec<(u64, Uda)> = (0..NURSES as u64)
        .map(|nurse| {
            let home = rng.random_range(0..ROOMS.len());
            (nurse, observe(&mut rng, home))
        })
        .collect();

    let store = InMemoryDisk::shared();
    let mut pool = BufferPool::new(store.clone());
    let tree = PdrTree::build(
        rooms.clone(),
        PdrConfig::default(),
        &mut pool,
        positions.iter().map(|(t, u)| (*t, u)),
    )
    .expect("in-memory build");

    // Who is probably in the ICU?
    let icu = rooms.id_of("ICU").expect("known room");
    println!("Nurses with Pr(location = ICU) ≥ 0.5:");
    let q = EqQuery::new(Uda::certain(icu), 0.5);
    for m in UncertainIndex::petq(&tree, &mut pool, &q).expect("in-memory query") {
        println!("  nurse {:2}  Pr = {:.2}", m.tid, m.score);
    }

    // Probable co-locations (e.g. to study hand-off behaviour): PETJ of
    // the positions with themselves.
    println!("\nProbably co-located pairs (Pr ≥ 0.45):");
    let join = index_join(&positions, &tree, &mut pool, JoinSpec::Petj { tau: 0.45 })
        .expect("in-memory join");
    let mut shown = 0;
    for p in join.pairs.iter().filter(|p| p.left < p.right) {
        println!(
            "  nurse {:2} & nurse {:2}  Pr = {:.2}",
            p.left, p.right, p.score
        );
        shown += 1;
        if shown == 8 {
            println!("  …");
            break;
        }
    }

    // Whose reading profile looks most like nurse 0's? (Distribution
    // similarity, not equality — the paper's §2 distinction.)
    println!("\nReading profiles within L1 ≤ 0.5 of nurse 0:");
    let dq = DstQuery::new(positions[0].1.clone(), 0.5, Divergence::L1);
    let near = UncertainIndex::dstq(&tree, &mut pool, &dq).expect("in-memory query");
    for m in near.iter().filter(|m| m.tid != 0).take(5) {
        println!("  nurse {:2}  L1 = {:.2}", m.tid, m.score);
    }

    println!("\ntotal I/O: {:?}", pool.stats());
}
