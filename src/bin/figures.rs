//! Regenerate every figure of the AI-Ckpt paper (HPDC '13, §4).
//!
//! ```text
//! figures [--quick] [fig2|fig3|fig4|fig5|ablation|all]
//! ```
//!
//! Prints one table per figure panel, with the paper's qualitative claims
//! stated above each so the measured shape can be checked line by line.
//! `--quick` runs scaled-down variants (same models, smaller problems).

use ai_ckpt_repro::presets::{
    self, cm1_experiment, milc_experiment, FIG3_RANKS, FIG4_COW_BYTES, FIG5_RANKS, STRATEGIES,
};
use ai_ckpt_repro::{fig2, Fig2Config};
use ai_ckpt_sim::report::{pages, pct, secs, Table};
use ai_ckpt_sim::{Experiment, SchedulerKind, Strategy};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let what = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
        .unwrap_or("all");
    let t0 = std::time::Instant::now();
    match what {
        "fig2" => run_fig2(quick),
        "fig3" => run_fig3(quick),
        "fig4" => run_fig4(quick),
        "fig5" => run_fig5(quick),
        "ablation" => run_ablation(quick),
        "all" => {
            run_fig2(quick);
            run_fig3(quick);
            run_fig4(quick);
            run_fig5(quick);
            run_ablation(quick);
        }
        other => {
            eprintln!("unknown figure '{other}'; use fig2|fig3|fig4|fig5|ablation|all");
            std::process::exit(2);
        }
    }
    eprintln!("\n[total harness time: {:.1}s]", t0.elapsed().as_secs_f64());
}

fn run_fig2(quick: bool) {
    println!("== Figure 2: synthetic memory-intensive benchmark (REAL mprotect runtime) ==");
    println!("paper claims: sync worst and pattern-independent; ours ~= no-pattern on");
    println!("Ascending; ours ~33%/50% lower than no-pattern on Random/Descending (2a);");
    println!("ours waits on ~50% fewer pages (2b); ours >=4x AVOIDED pages (2c).\n");
    let cfg = if quick {
        Fig2Config::quick()
    } else {
        Fig2Config::default()
    };
    let cells = fig2::run(&cfg).expect("fig2 harness");
    let mut t = Table::new([
        "pattern",
        "strategy",
        "increase(s) [2a]",
        "WAIT pages [2b]",
        "AVOIDED pages [2c]",
        "COW pages",
        "ckpt time(s)",
    ]);
    for c in &cells {
        t.row([
            c.pattern.clone(),
            c.strategy.clone(),
            secs(c.increase_secs),
            pages(c.wait_pages),
            pages(c.avoided_pages),
            pages(c.cow_pages),
            secs(c.ckpt_secs),
        ]);
    }
    println!("{}", t.render());
}

fn cm1(ranks: usize, cow: u64, quick: bool) -> Experiment {
    if quick {
        presets::quick::cm1(ranks, cow, 1)
    } else {
        cm1_experiment(ranks, cow, 1)
    }
}

fn milc(ranks: usize, cow: u64, quick: bool) -> Experiment {
    if quick {
        presets::quick::milc(ranks, cow, 1)
    } else {
        milc_experiment(ranks, cow, 1)
    }
}

fn run_fig3(quick: bool) {
    println!("== Figure 3: CM1 weak scalability on PVFS (simulated Grid'5000) ==");
    println!("paper claims: (3a) sync ckpt time rises sharply with ranks; async flat-ish,");
    println!("higher absolute at small scale; (3b) ours best; no-pattern ~33% slower and");
    println!("sync ~67% slower than ours at 32 ranks.\n");
    let mut t3a = Table::new([
        "ranks",
        "sync ckpt(s)",
        "no-pattern ckpt(s)",
        "ours ckpt(s)",
    ]);
    let mut t3b = Table::new([
        "ranks",
        "sync +exec(s)",
        "no-pattern +exec(s)",
        "ours +exec(s)",
    ]);
    for &ranks in &FIG3_RANKS {
        let cmp = cm1(ranks, 16 << 20, quick).compare(&STRATEGIES);
        let g = |s: Strategy| cmp.row(s).unwrap().clone();
        t3a.row([
            ranks.to_string(),
            secs(g(Strategy::Sync).mean_ckpt_secs),
            secs(g(Strategy::AsyncNoPattern).mean_ckpt_secs),
            secs(g(Strategy::AiCkpt).mean_ckpt_secs),
        ]);
        t3b.row([
            ranks.to_string(),
            secs(g(Strategy::Sync).increase_secs),
            secs(g(Strategy::AsyncNoPattern).increase_secs),
            secs(g(Strategy::AiCkpt).increase_secs),
        ]);
    }
    println!("(3a) average checkpointing time\n{}", t3a.render());
    println!(
        "(3b) increase in execution time vs baseline\n{}",
        t3b.render()
    );
}

fn run_fig4(quick: bool) {
    println!("== Figure 4: CoW-buffer-size sweep — reduction in ckpt overhead vs sync ==");
    println!("paper claims: (4a CM1@32) both <=~5% at 0MB; ours more than doubles per step");
    println!("and leads; converge by 256MB. (4b MILC@280) ours already large at 0MB and");
    println!(">2x no-pattern up to 64MB; converge at 256MB. Higher is better.\n");
    let (cm1_ranks, milc_ranks) = if quick { (8, 40) } else { (32, 280) };

    let mut t4a = Table::new(["cow buffer", "no-pattern reduction", "ours reduction"]);
    for &cow in &FIG4_COW_BYTES {
        let cmp = cm1(cm1_ranks, cow, quick).compare(&STRATEGIES);
        t4a.row([
            format!("{}MB", cow >> 20),
            pct(cmp.reduction_vs_sync(Strategy::AsyncNoPattern).unwrap()),
            pct(cmp.reduction_vs_sync(Strategy::AiCkpt).unwrap()),
        ]);
    }
    println!("(4a) CM1 @ {cm1_ranks} ranks\n{}", t4a.render());

    let mut t4b = Table::new(["cow buffer", "no-pattern reduction", "ours reduction"]);
    for &cow in &FIG4_COW_BYTES {
        let cmp = milc(milc_ranks, cow, quick).compare(&STRATEGIES);
        t4b.row([
            format!("{}MB", cow >> 20),
            pct(cmp.reduction_vs_sync(Strategy::AsyncNoPattern).unwrap()),
            pct(cmp.reduction_vs_sync(Strategy::AiCkpt).unwrap()),
        ]);
    }
    println!("(4b) MILC @ {milc_ranks} ranks\n{}", t4b.render());
}

fn run_fig5(quick: bool) {
    println!("== Figure 5: MILC weak scalability on local disks (simulated Shamrock) ==");
    println!("paper claims: ours >25% better than sync; no-pattern ~11% with a decreasing");
    println!("advantage at scale; avg ckpt time ~flat for all three (~210s).\n");
    let mut t = Table::new([
        "ranks",
        "sync +exec(s)",
        "no-pattern +exec(s)",
        "ours +exec(s)",
        "sync ckpt(s)",
        "ours ckpt(s)",
    ]);
    for &ranks in &FIG5_RANKS {
        let cmp = milc(ranks, 0, quick).compare(&STRATEGIES);
        let g = |s: Strategy| cmp.row(s).unwrap().clone();
        t.row([
            ranks.to_string(),
            secs(g(Strategy::Sync).increase_secs),
            secs(g(Strategy::AsyncNoPattern).increase_secs),
            secs(g(Strategy::AiCkpt).increase_secs),
            secs(g(Strategy::Sync).mean_ckpt_secs),
            secs(g(Strategy::AiCkpt).mean_ckpt_secs),
        ]);
    }
    println!("{}", t.render());
}

fn run_ablation(quick: bool) {
    println!("== Ablation: which ingredient buys what (CM1, 16MB CoW) ==");
    println!("isolates: history buckets (Algorithm 4) vs dynamic hints vs pure orders.\n");
    let ranks = if quick { 4 } else { 8 };
    let exp = cm1(ranks, 16 << 20, quick);
    let variants: Vec<(&str, Strategy)> = vec![
        ("sync", Strategy::Sync),
        (
            "address-order, no hints (async-no-pattern)",
            Strategy::AsyncNoPattern,
        ),
        (
            "address-order + hints",
            Strategy::Custom {
                scheduler: SchedulerKind::AddressOrder,
                hints: true,
                sync: false,
            },
        ),
        (
            "access-order history, no hints",
            Strategy::Custom {
                scheduler: SchedulerKind::AccessOrder,
                hints: false,
                sync: false,
            },
        ),
        (
            "random order + hints",
            Strategy::Custom {
                scheduler: SchedulerKind::Random(7),
                hints: true,
                sync: false,
            },
        ),
        ("full adaptive (ours)", Strategy::AiCkpt),
    ];
    let strategies: Vec<Strategy> = variants.iter().map(|(_, s)| *s).collect();
    let cmp = exp.compare(&strategies);
    let mut t = Table::new(["variant", "+exec(s)", "WAIT pages", "COW pages"]);
    for ((label, _), row) in variants.iter().zip(&cmp.rows) {
        t.row([
            label.to_string(),
            secs(row.increase_secs),
            pages(row.wait_pages),
            pages(row.cow_pages),
        ]);
    }
    println!("{}", t.render());
}
