//! The metric catalogue — names, units, direction, regression bounds, and
//! for each layer metric the end-to-end metric and workload it is expected
//! to move — and the arithmetic that turns a pass's samples into values.
//!
//! `BENCHMARK.json` repeats names, units, directions and bounds; a unit
//! test keeps the two in step.

use std::collections::BTreeMap;

use crate::host::Host;
use crate::probes::Probes;
use crate::stats::{median, percentile, stall_profile, summarize, Summary};
use crate::workloads::Samples;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median the metric may worsen by (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
    /// Layer metrics: "<end-to-end metric> on <workload>" it should move;
    /// end-to-end metrics: what a user sees in it.
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64, moves: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
        moves,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, moves: &'static str) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
        moves,
    }
}

use Better::{Higher, Lower};

/// Reported by every workload with `--trace 0`. Bounds are about three
/// times the run-to-run quartile spread seen on the 2-vCPU box with the
/// storage root on its virtio disk (README, "Bounds"), capped at the
/// contract's 25 %.
#[rustfmt::skip] // one metric per line: this is a table
pub const END_TO_END: &[Def] = &[
    e2e("setup_s", "s", 0.25, "median wall of one complete set-up (inputs, baseline, host calibration, program stack or image)"),
    e2e("iter_overhead_ms", "ms", 0.25, "median iteration wall with checkpointing minus median baseline iteration wall"),
    e2e("write_stall_mean_us", "us", 0.25, "mean first-store stall per page per epoch, timed by the benchmark"),
    e2e("epoch_commit_ms", "ms", 0.25, "median checkpoint request-to-durable time (service round on tenants_round, resume checkpoint on restart)"),
    e2e("flushed_bytes_per_dirty_byte", "B/B", 0.02, "bytes that reached storage per byte the runtime scheduled"),
    e2e("restore_eager_ms", "ms", 0.25, "median eager restore of the newest checkpoint, page cache bypassed"),
    e2e("restore_lazy_total_ms", "ms", 0.25, "median lazy restore start to every page filled, application reading everything meanwhile"),
];

/// Reported by every workload with `--trace 1`.
#[rustfmt::skip] // one metric per line: this is a table
pub const PER_LAYER: &[Def] = &[
    // End-to-end figures that cannot carry a bound on all five workloads:
    // host noise wherever no flush races the application (p99, TTFI), a
    // peak that depends on which buffers happen to be live together (RSS),
    // or defined on one workload only (README, "Demoted").
    layer("write_stall_p99_us", "us", Lower, "user-visible tail; program-made on dense_fast, paced_slow, sparse_content"),
    layer("restore_lazy_ttfi_ms", "ms", Lower, "user-visible on restart: lazy-restore start to first byte readable mid-state"),
    layer("peak_rss_MiB", "MiB", Lower, "user-visible memory: VmHWM of the benchmark process"),
    layer("resume_ckpt_ms", "ms", Lower, "user-visible on restart (= epoch_commit_ms there)"),
    layer("round_commit_ms", "ms", Lower, "user-visible on tenants_round (= epoch_commit_ms there)"),
    layer("svc_commit_MiB_s", "MiB/s", Higher, "user-visible on tenants_round"),
    layer("ops_failed_frac", "ratio", Lower, "must be 0 on every workload"),
    layer("ops_attempted", "count", Higher, "denominator of ops_failed_frac"),
    // host: ceilings, move nothing.
    layer("host.memcpy_GiB_s", "GiB/s", Higher, "none (in-cache copy rate at the state size; denominator)"),
    layer("host.pwrite_MiB_s", "MiB/s", Higher, "none (denominator of storage.file.write_frac_of_pwrite)"),
    layer("host.fsync_p50_us", "us", Lower, "none (device flush latency of the chosen root)"),
    layer("host.mprotect_page_us", "us", Lower, "none (denominator of mem.fault_frac_of_mprotect)"),
    layer("host.clock_ns", "ns", Lower, "none (floor under every stall sample)"),
    // mem
    layer("mem.first_touch_idle_us", "us", Lower, "write_stall_mean_us, iter_overhead_ms on dense_fast; none on restart"),
    layer("mem.set_protection_region_us", "us", Lower, "iter_overhead_ms on dense_fast"),
    layer("mem.fault_frac_of_mprotect", "ratio", Lower, "write_stall_mean_us on dense_fast"),
    // core
    layer("core.begin_checkpoint_us", "us", Lower, "iter_overhead_ms on paced_slow"),
    layer("core.on_write_ns", "ns", Lower, "write_stall_mean_us on paced_slow"),
    layer("core.select_batch_ns_per_page", "ns", Lower, "epoch_commit_ms on paced_slow"),
    layer("core.wait_pages_per_epoch", "count", Lower, "iter_overhead_ms, write_stall_p99_us on paced_slow; none on dense_fast"),
    layer("core.cow_pages_per_epoch", "count", Lower, "write_stall_mean_us on paced_slow"),
    layer("core.avoided_pages_per_epoch", "count", Higher, "iter_overhead_ms on paced_slow"),
    layer("core.engine_lock_acq_per_page", "ratio", Lower, "write_stall_p99_us on paced_slow"),
    // runtime
    layer("runtime.checkpoint_call_p50_ms", "ms", Lower, "iter_overhead_ms everywhere"),
    layer("runtime.checkpoint_call_p99_ms", "ms", Lower, "iter_overhead_ms everywhere"),
    layer("runtime.write_stall_p50_us", "us", Lower, "write_stall_mean_us (benchmark-timed median; bimodal, flips between modes run to run)"),
    layer("runtime.final_wait_ms", "ms", Lower, "epoch_commit_ms everywhere"),
    layer("runtime.alloc_protected_ms", "ms", Lower, "setup_s everywhere"),
    layer("runtime.pages_skipped_clean_per_epoch", "count", Higher, "flushed_bytes_per_dirty_byte, epoch_commit_ms on sparse_content"),
    layer("runtime.maint_compactions", "count", Lower, "iter_overhead_ms on sparse_content"),
    layer("runtime.maint_bytes_reclaimed", "B", Higher, "restore_eager_ms on sparse_content"),
    layer("runtime.scrub_bytes_verified_per_epoch", "B", Lower, "iter_overhead_ms on dense_fast (scrub steals a core)"),
    layer("runtime.lazy_demand_faults", "count", Lower, "restore_lazy_total_ms on restart"),
    layer("runtime.lazy_prefetched_pages", "count", Higher, "restore_lazy_total_ms on restart"),
    layer("runtime.lazy_pages_from_cache", "count", Higher, "runtime.restore_storm_ms on restart"),
    layer("runtime.restore_storm_ms", "ms", Lower, "restore_lazy_total_ms on restart"),
    // storage.checksum / codec
    layer("storage.checksum.crc64_MiB_s", "MiB/s", Higher, "epoch_commit_ms on sparse_content, dense_fast; restore_eager_ms"),
    layer("storage.codec.encode_raw_MiB_s", "MiB/s", Higher, "epoch_commit_ms on sparse_content; none on dense_fast, paced_slow"),
    layer("storage.codec.encode_mixed_MiB_s", "MiB/s", Higher, "epoch_commit_ms on sparse_content"),
    layer("storage.codec.decode_MiB_s", "MiB/s", Higher, "restore_eager_ms on sparse_content"),
    layer("storage.codec.stored_ratio", "B/B", Lower, "flushed_bytes_per_dirty_byte on sparse_content"),
    // storage.file
    layer("storage.file.write_pages_MiB_s", "MiB/s", Higher, "epoch_commit_ms on dense_fast; none on paced_slow"),
    layer("storage.file.finish_ms", "ms", Lower, "epoch_commit_ms on dense_fast"),
    layer("storage.file.write_frac_of_pwrite", "ratio", Higher, "epoch_commit_ms on dense_fast"),
    layer("storage.file.pwritev_calls_per_epoch", "count", Lower, "epoch_commit_ms on dense_fast"),
    layer("storage.file.bytes_per_syscall", "B", Higher, "epoch_commit_ms on dense_fast"),
    layer("storage.file.segment_fsyncs_per_epoch", "count", Lower, "epoch_commit_ms on dense_fast"),
    layer("storage.file.manifest_fsyncs_per_epoch", "count", Lower, "epoch_commit_ms on dense_fast"),
    layer("storage.file.dir_fsyncs_per_epoch", "count", Lower, "epoch_commit_ms on sparse_content (compaction renames)"),
    layer("storage.file.read_epoch_MiB_s", "MiB/s", Higher, "restore_eager_ms on restart"),
    layer("storage.file.read_page_at_us", "us", Lower, "restore_lazy_total_ms on restart"),
    layer("storage.file.epoch_page_ids_ms", "ms", Lower, "restore_lazy_ttfi_ms on restart"),
    layer("storage.file.verify_epoch_MiB_s", "MiB/s", Higher, "iter_overhead_ms on dense_fast (scrub)"),
    layer("storage.file.compact_MiB_s", "MiB/s", Higher, "iter_overhead_ms on sparse_content"),
    // storage.locator / cache
    layer("storage.locator.build_ms", "ms", Lower, "restore_lazy_ttfi_ms on restart"),
    layer("storage.cache.hit_ns", "ns", Lower, "runtime.restore_storm_ms on restart"),
    layer("storage.cache.hits", "count", Higher, "runtime.restore_storm_ms on restart"),
    layer("storage.cache.misses", "count", Lower, "runtime.restore_storm_ms on restart"),
    layer("storage.cache.storm_reads_per_page", "ratio", Lower, "must be 1.0 on restart"),
    // storage.tiered / throttle
    layer("storage.tiered.drain_one_ms", "ms", Lower, "epoch_commit_ms on tenants_round (capacity back-pressure)"),
    layer("storage.tiered.backlog_max", "count", Lower, "epoch_commit_ms on tenants_round"),
    layer("storage.throttle.sleep_ms_per_epoch", "ms", Lower, "none (sanity: emulated device time on paced_slow)"),
    // service
    layer("service.light_commit_p50_ms", "ms", Lower, "epoch_commit_ms on tenants_round"),
    layer("service.light_commit_p90_ms", "ms", Lower, "epoch_commit_ms on tenants_round"),
    layer("service.epochs_drained", "count", Higher, "epoch_commit_ms on tenants_round"),
    layer("service.drain_backlog_max", "count", Lower, "epoch_commit_ms on tenants_round"),
    layer("service.queued_flushes_max", "count", Lower, "epoch_commit_ms on tenants_round"),
    layer("service.flushes_failed", "count", Lower, "must be 0"),
    // trace
    layer("trace.overhead_pct", "%", Lower, "none (traced minus untraced median iteration wall, rounds interleaved in one run)"),
];

/// Everything a run knows when it computes its metrics.
pub struct Inputs<'a> {
    pub workload: &'a str,
    pub samples: &'a mut Samples,
    pub setup_s: &'a [f64],
    pub host: Host,
    pub probes: &'a Probes,
    pub trace_overhead_pct: f64,
    pub peak_rss_mib: f64,
}

/// Every metric by name, plus the printable summary of each timing series.
pub struct Computed {
    pub values: BTreeMap<&'static str, f64>,
    pub series: Vec<(&'static str, Summary)>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn compute(input: Inputs<'_>) -> Computed {
    let s = input.samples;
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (stall_mean, stall_p50, stall_p99) = stall_profile(&mut s.stall_ns);
    let commit = median(&s.commit_ms);

    // ---- end to end
    v.insert("setup_s", median(input.setup_s));
    v.insert(
        "iter_overhead_ms",
        median(&s.iter_ms) - median(&s.base_iter_ms),
    );
    v.insert("write_stall_mean_us", stall_mean);
    v.insert("epoch_commit_ms", commit);
    v.insert(
        "flushed_bytes_per_dirty_byte",
        ratio(s.stored_bytes as f64, s.scheduled_bytes as f64),
    );
    v.insert("restore_eager_ms", median(&s.restore_eager_ms));
    v.insert("restore_lazy_total_ms", median(&s.lazy_total_ms));

    // ---- demoted end-to-end figures
    v.insert("peak_rss_MiB", input.peak_rss_mib);
    v.insert("write_stall_p99_us", stall_p99);
    v.insert("restore_lazy_ttfi_ms", median(&s.lazy_ttfi_ms));
    let on = |w: &str, x: f64| if input.workload == w { x } else { 0.0 };
    v.insert("resume_ckpt_ms", on("restart", commit));
    v.insert("round_commit_ms", on("tenants_round", commit));
    v.insert(
        "svc_commit_MiB_s",
        on(
            "tenants_round",
            ratio(
                s.committed_bytes as f64 / (1u64 << 20) as f64,
                s.timed_wall_s,
            ),
        ),
    );
    v.insert(
        "ops_failed_frac",
        ratio(s.failed as f64, s.attempted as f64),
    );
    v.insert("ops_attempted", s.attempted as f64);

    // ---- host
    let h = input.host;
    v.insert("host.memcpy_GiB_s", h.memcpy_gib_s);
    v.insert("host.pwrite_MiB_s", h.pwrite_mib_s);
    v.insert("host.fsync_p50_us", h.fsync_p50_us);
    v.insert("host.mprotect_page_us", h.mprotect_page_us);
    v.insert("host.clock_ns", h.clock_ns);

    // ---- probes (timings from direct calls)
    for &(name, value) in input.probes {
        v.insert(name, value);
    }
    let probe = |v: &BTreeMap<&'static str, f64>, k: &str| v.get(k).copied().unwrap_or(0.0);
    let idle = probe(&v, "mem.first_touch_idle_us");
    v.insert(
        "mem.fault_frac_of_mprotect",
        ratio(idle, h.mprotect_page_us),
    );
    let wr = probe(&v, "storage.file.write_pages_MiB_s");
    v.insert(
        "storage.file.write_frac_of_pwrite",
        ratio(wr, h.pwrite_mib_s),
    );

    // ---- counts from the program's statistics snapshots
    let core_epochs = s.count("core.epochs");
    let epochs = s.count("runtime.epochs");
    v.insert(
        "core.wait_pages_per_epoch",
        ratio(s.count("core.wait_pages"), core_epochs),
    );
    v.insert(
        "core.cow_pages_per_epoch",
        ratio(s.count("core.cow_pages"), core_epochs),
    );
    v.insert(
        "core.avoided_pages_per_epoch",
        ratio(s.count("core.avoided_pages"), core_epochs),
    );
    v.insert(
        "core.engine_lock_acq_per_page",
        ratio(s.count("core.lock_acq"), s.count("core.flushed_pages")),
    );
    v.insert("runtime.checkpoint_call_p50_ms", median(&s.ckpt_call_ms));
    v.insert(
        "runtime.checkpoint_call_p99_ms",
        percentile(&s.ckpt_call_ms, 99.0),
    );
    v.insert("runtime.write_stall_p50_us", stall_p50);
    v.insert("runtime.final_wait_ms", median(&s.final_wait_ms));
    v.insert("runtime.alloc_protected_ms", median(&s.alloc_ms));
    v.insert(
        "runtime.pages_skipped_clean_per_epoch",
        ratio(s.count("runtime.pages_skipped_clean"), epochs),
    );
    v.insert(
        "runtime.maint_compactions",
        s.count("runtime.maint_compactions"),
    );
    v.insert(
        "runtime.maint_bytes_reclaimed",
        s.count("runtime.maint_bytes_reclaimed"),
    );
    v.insert(
        "runtime.scrub_bytes_verified_per_epoch",
        ratio(s.count("runtime.scrub_bytes_verified"), epochs),
    );
    let restores = s.count("runtime.lazy_restores");
    v.insert(
        "runtime.lazy_demand_faults",
        ratio(s.count("runtime.lazy_demand_faults"), restores),
    );
    v.insert(
        "runtime.lazy_prefetched_pages",
        ratio(s.count("runtime.lazy_prefetched_pages"), restores),
    );
    v.insert(
        "runtime.lazy_pages_from_cache",
        ratio(s.count("runtime.lazy_pages_from_cache"), restores),
    );
    v.insert("runtime.restore_storm_ms", median(&s.storm_ms));
    v.insert(
        "storage.codec.stored_ratio",
        ratio(s.stored_bytes as f64, s.count("storage.bytes_written")),
    );
    v.insert(
        "storage.file.pwritev_calls_per_epoch",
        ratio(s.count("io.vectored_writes"), epochs),
    );
    v.insert(
        "storage.file.bytes_per_syscall",
        ratio(
            s.count("io.write_syscall_bytes"),
            s.count("io.vectored_writes"),
        ),
    );
    v.insert(
        "storage.file.segment_fsyncs_per_epoch",
        ratio(s.count("io.segment_fsyncs"), epochs),
    );
    v.insert(
        "storage.file.manifest_fsyncs_per_epoch",
        ratio(s.count("io.manifest_fsyncs"), epochs),
    );
    v.insert(
        "storage.file.dir_fsyncs_per_epoch",
        ratio(s.count("io.dir_fsyncs"), epochs),
    );
    v.insert("storage.cache.hits", s.count("storage.cache.hits"));
    v.insert("storage.cache.misses", s.count("storage.cache.misses"));
    v.insert(
        "storage.cache.storm_reads_per_page",
        ratio(
            s.count("storage.cache.storm_reads"),
            s.count("storage.cache.storm_pages"),
        ),
    );
    v.insert(
        "storage.tiered.backlog_max",
        s.count("storage.tiered.backlog_max"),
    );
    v.insert(
        "storage.throttle.sleep_ms_per_epoch",
        ratio(s.count("storage.throttle.sleep_ms"), epochs),
    );
    v.insert("service.light_commit_p50_ms", median(&s.light_commit_ms));
    v.insert(
        "service.light_commit_p90_ms",
        percentile(&s.light_commit_ms, 90.0),
    );
    v.insert("service.epochs_drained", s.count("service.epochs_drained"));
    v.insert(
        "service.drain_backlog_max",
        s.count("service.drain_backlog_max"),
    );
    v.insert(
        "service.queued_flushes_max",
        s.count("service.queued_flushes_max"),
    );
    v.insert("service.flushes_failed", s.count("service.flushes_failed"));
    v.insert("trace.overhead_pct", input.trace_overhead_pct);

    // Layer metrics nothing produced on this workload (probes not run in
    // an untraced pass, service counters off `tenants_round`) read 0.
    for d in PER_LAYER {
        v.entry(d.name).or_insert(0.0);
    }

    let series = vec![
        ("baseline iteration (ms)", summarize(&s.base_iter_ms)),
        ("iteration with checkpointing (ms)", summarize(&s.iter_ms)),
        ("checkpoint() call (ms)", summarize(&s.ckpt_call_ms)),
        ("checkpoint commit (ms)", summarize(&s.commit_ms)),
        ("eager restore (ms)", summarize(&s.restore_eager_ms)),
        ("lazy restore first read (ms)", summarize(&s.lazy_ttfi_ms)),
        ("lazy restore complete (ms)", summarize(&s.lazy_total_ms)),
        ("restore storm (ms)", summarize(&s.storm_ms)),
        ("light tenant commit (ms)", summarize(&s.light_commit_ms)),
        (
            "first-store stall (us)",
            summarize(
                &s.stall_ns
                    .iter()
                    .map(|&ns| ns as f64 / 1e3)
                    .collect::<Vec<_>>(),
            ),
        ),
        ("set-up (s)", summarize(input.setup_s)),
    ];
    Computed { values: v, series }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        assert_eq!(END_TO_END[0].name, "setup_s");
    }

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = json::parse(text).unwrap();
        let check = |key: &str, defs: &[Def], bounded: bool| {
            let listed = doc.get(key).unwrap().as_arr().unwrap();
            assert_eq!(listed.len(), defs.len(), "{key} length");
            for (got, want) in listed.iter().zip(defs) {
                assert_eq!(got.get("name").unwrap().as_str(), Some(want.name));
                assert_eq!(
                    got.get("unit").unwrap().as_str(),
                    Some(want.unit),
                    "{}",
                    want.name
                );
                assert_eq!(
                    got.get("better").unwrap().as_str(),
                    Some(want.better.as_str()),
                    "{}",
                    want.name
                );
                assert_eq!(
                    got.get("bound").and_then(Value::as_f64),
                    want.bound.filter(|_| bounded),
                    "{}",
                    want.name
                );
            }
        };
        check("end_to_end", END_TO_END, true);
        check("per_layer", PER_LAYER, false);
        let names: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(names, crate::workloads::NAMES);
    }

    #[test]
    fn every_catalogued_metric_gets_a_value() {
        let mut samples = Samples {
            iter_ms: vec![12.0, 10.0, 14.0],
            base_iter_ms: vec![2.0],
            stall_ns: vec![1000, 3000, 2000],
            scheduled_bytes: 200,
            stored_bytes: 50,
            attempted: 4,
            ..Samples::default()
        };
        let c = compute(Inputs {
            workload: "restart",
            samples: &mut samples,
            setup_s: &[0.5, 0.7, 0.6],
            host: Host::default(),
            probes: &Vec::new(),
            trace_overhead_pct: 0.0,
            peak_rss_mib: 10.0,
        });
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(c.values.contains_key(d.name), "{} has no value", d.name);
        }
        assert_eq!(c.values["iter_overhead_ms"], 10.0);
        assert_eq!(c.values["write_stall_mean_us"], 2.0);
        assert_eq!(c.values["flushed_bytes_per_dirty_byte"], 0.25);
        assert_eq!(c.values["setup_s"], 0.6);
        assert_eq!(c.values["ops_failed_frac"], 0.0);
        assert_eq!(c.values["round_commit_ms"], 0.0, "only on tenants_round");
    }
}
