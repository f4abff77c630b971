//! Watch the access-pattern adaptation work on the REAL runtime: touch a
//! protected region in different orders against a throttled backend and
//! compare how the three strategies interfere with the "application".
//!
//! A miniature of the paper's §4.3 benchmark (the full-scale harness is
//! `cargo run --release --bin figures -- fig2`).
//!
//! ```text
//! cargo run --release --example access_patterns
//! ```

use ai_ckpt_repro::{fig2, Fig2Config};
use ai_ckpt_sim::report::{pages, secs, Table};

fn main() -> std::io::Result<()> {
    // 32 MiB region, 2 MiB CoW, 13 iterations, checkpoint every 4 — the
    // same ratios as the paper's 256 MiB / 16 MiB / 39 / 10 setup.
    let cfg = Fig2Config::quick();
    println!(
        "region {} MiB, CoW {} MiB, {} iterations, checkpoint every {}\n(storage throttled so one flush ~= one faulted iteration)\n",
        cfg.region_bytes >> 20,
        cfg.cow_bytes >> 20,
        cfg.iterations,
        cfg.ckpt_every
    );
    let cells = fig2::run(&cfg)?;
    let mut t = Table::new([
        "pattern",
        "strategy",
        "+exec time(s)",
        "WAIT pages",
        "COW pages",
        "AVOIDED pages",
    ]);
    for c in &cells {
        t.row([
            c.pattern.clone(),
            c.strategy.clone(),
            secs(c.increase_secs),
            pages(c.wait_pages),
            pages(c.cow_pages),
            pages(c.avoided_pages),
        ]);
    }
    println!("{}", t.render());
    println!("the adaptive strategy should match async-no-pattern on Ascending and");
    println!("beat it clearly on Random/Descending — the flush order follows the");
    println!("application instead of the address space.");
    Ok(())
}
