//! Regenerate the paper's figures as I/O tables.
//!
//! ```text
//! cargo run --release -p uncat-bench --bin figures            # all, paper scale
//! cargo run --release -p uncat-bench --bin figures -- fig6    # one figure
//! cargo run --release -p uncat-bench --bin figures -- --quick # reduced scale
//! ```

use std::time::Instant;

use uncat_bench::{by_name, Scale, ALL_FIGURES};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let names: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let names: Vec<&str> = if names.is_empty() {
        ALL_FIGURES.to_vec()
    } else {
        names
    };

    let scale = if quick { Scale::quick() } else { Scale::full() };
    println!(
        "# scale: crm_n={} synth_n={} queries/point={} seed={}",
        scale.crm_n, scale.synth_n, scale.queries, scale.seed
    );

    for name in names {
        let t0 = Instant::now();
        match by_name(name, &scale) {
            Some(Ok(table)) => {
                println!("{table}");
                println!("# {name} took {:.1}s\n", t0.elapsed().as_secs_f64());
            }
            Some(Err(err)) => {
                eprintln!("figure {name} failed: {err}");
                std::process::exit(1);
            }
            None => {
                eprintln!("unknown figure {name:?}; known: {ALL_FIGURES:?}");
                std::process::exit(2);
            }
        }
    }
}
