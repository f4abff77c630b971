//! `bench compare A.jsonl B.jsonl`: judge run set B against run set A with
//! the bounds fixed in `BENCHMARK.json`.
//!
//! A run set is the file `bench run --out FILE` appends to: one JSON object
//! per line, `{"workload", "seed", "trace", "quick", "result"}`, `result`
//! being the object the run printed. Per workload × metric the tool takes
//! each side's median and quartile spread (inter-quartile distance over the
//! median, quartiles as Python's `statistics.quantiles` computes them) and
//! reports:
//!
//! * `regressed`  — B's median is worse than A's by more than the bound;
//! * `unresolved` — a side's spread exceeds the bound, so "no worse" cannot
//!   be told from noise (unless every run of B beats every run of A);
//! * `mismatch`   — a metric that must repeat exactly does not;
//! * `ok` otherwise. Layer metrics have no bound and are listed for reading.

use std::collections::BTreeMap;

use crate::json::{self, Value};
use crate::stats::{median, spread};

/// Metrics whose every run must read the same on both sides.
const EXACT: [&str; 3] = [
    "ops_failed_frac",
    "storage.cache.storm_reads_per_page",
    "service.flushes_failed",
];

#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub lower_is_better: bool,
    pub bound: Option<f64>,
}

/// workload → metric → values, one per run.
pub type RunSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

pub fn parse_bounds(text: &str) -> Result<BTreeMap<String, Bound>, String> {
    let doc = json::parse(text)?;
    let mut out = BTreeMap::new();
    for key in ["end_to_end", "per_layer"] {
        let list = doc
            .get(key)
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json: no `{key}` list"))?;
        for m in list {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("BENCHMARK.json: unnamed metric in `{key}`"))?;
            out.insert(
                name.to_string(),
                Bound {
                    lower_is_better: m.get("better").and_then(Value::as_str) != Some("higher"),
                    bound: m.get("bound").and_then(Value::as_f64),
                },
            );
        }
    }
    Ok(out)
}

pub fn parse_run_set(text: &str) -> Result<RunSet, String> {
    let mut set = RunSet::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec = json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        if rec.get("quick") == Some(&Value::Bool(true)) {
            return Err(format!("line {}: a --quick run is not comparable", n + 1));
        }
        let workload = rec
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("line {}: no workload", n + 1))?;
        let metrics = rec
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Value::as_obj)
            .ok_or_else(|| format!("line {}: no result.metrics", n + 1))?;
        let per_metric = set.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                per_metric.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(set)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
    Mismatch,
    /// A layer metric: shown, not judged.
    Info,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
            Verdict::Mismatch => "MISMATCH",
            Verdict::Info => "",
        }
    }
}

/// By how much `b` is worse than `a`, as a share of `a` (negative: better).
fn worse_by(a: f64, b: f64, lower_is_better: bool) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    let delta = if lower_is_better { b - a } else { a - b };
    delta / a.abs()
}

pub fn judge(name: &str, a: &[f64], b: &[f64], bound: &Bound) -> Verdict {
    if EXACT.contains(&name) {
        let same = a.iter().chain(b).all(|v| *v == a[0]);
        return if same { Verdict::Ok } else { Verdict::Mismatch };
    }
    let Some(limit) = bound.bound else {
        return Verdict::Info;
    };
    if worse_by(median(a), median(b), bound.lower_is_better) > limit {
        return Verdict::Regressed;
    }
    let noisy = [a, b]
        .iter()
        .any(|side| spread(side).is_some_and(|s| s > limit));
    let b_always_better = a.iter().all(|&x| {
        b.iter()
            .all(|&y| if bound.lower_is_better { y < x } else { y > x })
    });
    if noisy && !b_always_better {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// Print the comparison; returns how many rows regressed or mismatched.
pub fn report(a: &RunSet, b: &RunSet, bounds: &BTreeMap<String, Bound>) -> usize {
    let mut bad = 0;
    let pct = |x: Option<f64>| x.map_or("     -".into(), |s| format!("{:>5.1}%", s * 100.0));
    for (workload, metrics_a) in a {
        let Some(metrics_b) = b.get(workload) else {
            println!("{workload}: only in A");
            continue;
        };
        println!("== {workload}");
        println!(
            "  {:<42} {:>14} {:>14} {:>8} {:>7} {:>7} {:>6}  verdict",
            "metric", "median A", "median B", "B vs A", "iqr A", "iqr B", "bound"
        );
        for (name, va) in metrics_a {
            let (Some(vb), Some(bound)) = (metrics_b.get(name), bounds.get(name)) else {
                continue;
            };
            let verdict = judge(name, va, vb, bound);
            if matches!(verdict, Verdict::Regressed | Verdict::Mismatch) {
                bad += 1;
            }
            let (ma, mb) = (median(va), median(vb));
            println!(
                "  {:<42} {:>14.5} {:>14.5} {:>+7.1}% {} {} {}  {}",
                name,
                ma,
                mb,
                if ma == 0.0 {
                    0.0
                } else {
                    (mb - ma) / ma.abs() * 100.0
                },
                pct(spread(va)),
                pct(spread(vb)),
                pct(bound.bound),
                verdict.as_str()
            );
        }
    }
    for workload in b.keys().filter(|w| !a.contains_key(*w)) {
        println!("{workload}: only in B");
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound {
            lower_is_better: true,
            bound: Some(bound),
        }
    }

    #[test]
    fn bounded_metrics_regress_resolve_or_pass() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(
            judge("m", &a, &[104.0, 105.0, 103.0], &lower(0.10)),
            Verdict::Ok
        );
        assert_eq!(
            judge("m", &a, &[111.0, 112.0, 113.0], &lower(0.10)),
            Verdict::Regressed
        );
        // Spread of B (40 %) exceeds the bound and the sides overlap.
        assert_eq!(
            judge("m", &a, &[80.0, 100.0, 120.0, 90.0], &lower(0.10)),
            Verdict::Unresolved
        );
        // Noisy, but every run of B beats every run of A.
        assert_eq!(
            judge("m", &a, &[40.0, 60.0, 80.0, 50.0], &lower(0.10)),
            Verdict::Ok
        );
        let higher = Bound {
            lower_is_better: false,
            bound: Some(0.10),
        };
        assert_eq!(judge("m", &a, &[85.0, 86.0], &higher), Verdict::Regressed);
        assert_eq!(judge("m", &a, &[120.0, 121.0], &higher), Verdict::Ok);
    }

    #[test]
    fn exact_metrics_must_repeat_and_layer_metrics_are_not_judged() {
        let none = Bound {
            lower_is_better: true,
            bound: None,
        };
        let name = "storage.cache.storm_reads_per_page";
        assert_eq!(judge(name, &[1.0, 1.0], &[1.0], &none), Verdict::Ok);
        assert_eq!(
            judge(name, &[1.0, 1.0], &[1.0, 1.5], &none),
            Verdict::Mismatch
        );
        assert_eq!(
            judge("core.on_write_ns", &[1.0], &[9.0], &none),
            Verdict::Info
        );
    }

    #[test]
    fn run_sets_and_bounds_parse_from_the_files_the_tool_reads() {
        let line = |w: &str, v: f64| {
            format!(
                r#"{{"workload": "{w}", "seed": 1, "trace": 0, "quick": false, "result": {{"correct": true, "attempted": 3, "failed": 0, "metrics": {{"setup_s": {{"value": {v}, "unit": "s"}}}}}}}}"#
            )
        };
        let text = format!(
            "{}\n\n{}\n{}\n",
            line("a", 1.0),
            line("a", 2.0),
            line("b", 3.0)
        );
        let set = parse_run_set(&text).unwrap();
        assert_eq!(set["a"]["setup_s"], vec![1.0, 2.0]);
        assert_eq!(set["b"]["setup_s"], vec![3.0]);
        let quick = line("a", 1.0).replace("\"quick\": false", "\"quick\": true");
        assert!(parse_run_set(&quick)
            .unwrap_err()
            .contains("not comparable"));

        let bounds = parse_bounds(include_str!("../../BENCHMARK.json")).unwrap();
        assert_eq!(bounds["setup_s"], lower(0.25));
        assert_eq!(bounds["svc_commit_MiB_s"].bound, None);
        assert!(!bounds["svc_commit_MiB_s"].lower_is_better);
    }
}
