//! Layer probes: direct, single-threaded calls into each layer's public
//! functions at the workload's page count, run once per traced pass. They
//! give the per-layer *timings*; per-layer *counts* come from the program's
//! own statistics snapshots at the end of each round.
//!
//! Each probe is wrapped in a span, so the trace file shows what the traced
//! pass spent on probing as opposed to on the workload.

use std::hint::black_box;
use std::io;
use std::sync::Arc;
use std::time::Instant;

use crate::api::{
    self, Backend, CkptConfig, Compression, EngineConfig, EpochEngine, MappedRegion, MemoryBackend,
    PageCache, Protection, StorageBackend, WriteOutcome,
};
use crate::gen::{fill_mixed, Rng};
use crate::root::RootGuard;
use crate::stats::median;
use crate::trace::span;

/// Pages per `write_pages` call, the runtime's default claim size.
const BATCH: usize = 32;
/// Epochs the file probes write before reading and folding them.
const CHAIN: u64 = 4;

/// Probe results, keyed by the layer metric they report.
pub type Probes = Vec<(&'static str, f64)>;

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

fn mib_per_s(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / secs / (1u64 << 20) as f64
}

pub fn run(roots: &RootGuard, rng: &Rng, pages: usize) -> io::Result<Probes> {
    let _s = span("probes");
    let mut out = Probes::new();
    let page = api::page_size();
    let mut random = vec![0u8; pages * page];
    rng.fork(1).fill(&mut random);
    let mut mixed = vec![0u8; pages * page];
    let mut r = rng.fork(2);
    mixed
        .chunks_exact_mut(page)
        .for_each(|p| fill_mixed(p, &mut r));

    mem(&mut out, pages)?;
    core(&mut out, pages);
    checksum_and_codec(&mut out, &random, &mixed, page)?;
    file(&mut out, roots, &random, page)?;
    cache(&mut out, &random, page);
    tiered(&mut out, roots, &random, page)?;
    Ok(out)
}

/// `mem`: the fault path with nothing else going on, and the whole-region
/// re-protection every `checkpoint()` performs.
fn mem(out: &mut Probes, pages: usize) -> io::Result<()> {
    let _s = span("probe.mem");
    let page = api::page_size();
    // First store to a protected page with no flush active: one committed
    // checkpoint re-protects everything, then every first store is timed.
    let backend: Backend = Arc::new(MemoryBackend::new());
    let mgr = api::manager_new(CkptConfig::ai_ckpt(0).with_max_pages(pages + 16), backend)?;
    let mut state = api::alloc_protected(&mgr, "probe", pages * page)?;
    state
        .as_mut_slice()
        .chunks_exact_mut(page)
        .for_each(|p| p[0] = 1);
    api::checkpoint(&mgr)?;
    api::wait_checkpoint(&mgr)?;
    let t = Instant::now();
    for p in state.as_mut_slice().chunks_exact_mut(page) {
        p[0] = black_box(2);
    }
    out.push(("mem.first_touch_idle_us", us_since(t) / pages as f64));
    drop(state);
    drop(mgr);

    let region = MappedRegion::new(pages * page)?;
    let mut times = Vec::new();
    for _ in 0..9 {
        // Per-page flips first, so the kernel has the region split into
        // many VMAs' worth of work to merge, as after an epoch of faults.
        for i in (0..pages).step_by(2) {
            region.protect_page(i, Protection::ReadWrite)?;
        }
        let t = Instant::now();
        region.protect(Protection::ReadOnly)?;
        times.push(us_since(t));
    }
    out.push(("mem.set_protection_region_us", median(&times)));
    Ok(())
}

/// `core`: the engine alone — no memory protection, no storage.
fn core(out: &mut Probes, pages: usize) {
    let _s = span("probe.core");
    let slots = (pages / 16) as u32;
    let mut engine = EpochEngine::new(EngineConfig::adaptive(pages, api::page_size(), slots))
        .expect("probe engine configuration is valid");
    let mut items = Vec::with_capacity(BATCH);
    let (mut begin_us, mut write_ns, mut select_ns) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..5 {
        let t = Instant::now();
        for p in 0..pages as u32 {
            black_box(engine.on_write(p) == WriteOutcome::Proceed);
        }
        write_ns.push(t.elapsed().as_nanos() as f64 / pages as f64);
        let t = Instant::now();
        black_box(engine.begin_checkpoint().expect("no checkpoint is active"));
        begin_us.push(us_since(t));
        let t = Instant::now();
        loop {
            items.clear();
            if engine.select_batch(BATCH, &mut items) == 0 {
                break;
            }
            for &item in &items {
                engine.complete_flush(item);
            }
        }
        select_ns.push(t.elapsed().as_nanos() as f64 / pages as f64);
    }
    out.push(("core.on_write_ns", median(&write_ns)));
    out.push(("core.begin_checkpoint_us", median(&begin_us)));
    out.push(("core.select_batch_ns_per_page", median(&select_ns)));
}

fn checksum_and_codec(
    out: &mut Probes,
    random: &[u8],
    mixed: &[u8],
    page: usize,
) -> io::Result<()> {
    let _s = span("probe.checksum_codec");
    let t = Instant::now();
    for p in random.chunks_exact(page) {
        black_box(api::crc64(p));
    }
    out.push((
        "storage.checksum.crc64_MiB_s",
        mib_per_s(random.len(), t.elapsed().as_secs_f64()),
    ));

    let t = Instant::now();
    for p in random.chunks_exact(page) {
        black_box(api::codec_encode(p, Compression::Auto));
    }
    out.push((
        "storage.codec.encode_raw_MiB_s",
        mib_per_s(random.len(), t.elapsed().as_secs_f64()),
    ));

    let t = Instant::now();
    let encoded: Vec<_> = mixed
        .chunks_exact(page)
        .map(|p| api::codec_encode(p, Compression::Auto))
        .collect();
    out.push((
        "storage.codec.encode_mixed_MiB_s",
        mib_per_s(mixed.len(), t.elapsed().as_secs_f64()),
    ));

    let t = Instant::now();
    for (enc, stored) in &encoded {
        if let Some(stored) = stored {
            black_box(api::codec_decode(*enc, stored, page)?);
        }
    }
    out.push((
        "storage.codec.decode_MiB_s",
        mib_per_s(mixed.len(), t.elapsed().as_secs_f64()),
    ));
    Ok(())
}

/// Write `data` as one epoch through the public writer, in runtime-sized
/// batches; returns (seconds in `write_pages`, seconds in `finish`).
fn write_epoch(
    backend: &dyn StorageBackend,
    epoch: u64,
    data: &[u8],
    page: usize,
) -> io::Result<(f64, f64)> {
    let writer = backend.begin_epoch(epoch)?;
    let pages: Vec<(u64, &[u8])> = data
        .chunks_exact(page)
        .enumerate()
        .map(|(i, p)| (i as u64, p))
        .collect();
    let t = Instant::now();
    for batch in pages.chunks(BATCH) {
        writer.write_pages(batch)?;
    }
    let write_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    writer.finish()?;
    Ok((write_s, t.elapsed().as_secs_f64()))
}

/// `storage.file`: the write engine, the read paths restore uses, scrub's
/// verify and compaction, on the run's own root.
fn file(out: &mut Probes, roots: &RootGuard, data: &[u8], page: usize) -> io::Result<()> {
    let _s = span("probe.file");
    let root = roots.fresh("probe-file")?;
    let backend = api::open_file_backend(root.path(), Compression::None)?;
    let (mut write_s, mut finish_ms) = (Vec::new(), Vec::new());
    for epoch in 1..=CHAIN {
        let (w, f) = write_epoch(&backend, epoch, data, page)?;
        write_s.push(w);
        finish_ms.push(f * 1e3);
    }
    out.push((
        "storage.file.write_pages_MiB_s",
        mib_per_s(data.len(), median(&write_s)),
    ));
    out.push(("storage.file.finish_ms", median(&finish_ms)));

    let t = Instant::now();
    let mut seen = 0usize;
    backend.read_epoch(CHAIN, &mut |_, d| seen += d.len())?;
    out.push((
        "storage.file.read_epoch_MiB_s",
        mib_per_s(seen, t.elapsed().as_secs_f64()),
    ));

    let t = Instant::now();
    black_box(backend.epoch_page_ids(CHAIN)?);
    out.push(("storage.file.epoch_page_ids_ms", us_since(t) / 1e3));

    let pages = data.len() / page;
    let mut rng = Rng::new(pages as u64);
    let lookups = pages.min(2048);
    let t = Instant::now();
    for _ in 0..lookups {
        black_box(backend.read_page_at(CHAIN, rng.below(pages as u64))?);
    }
    out.push(("storage.file.read_page_at_us", us_since(t) / lookups as f64));

    let t = Instant::now();
    let report = backend.verify_epoch(CHAIN)?;
    out.push((
        "storage.file.verify_epoch_MiB_s",
        mib_per_s(report.bytes as usize, t.elapsed().as_secs_f64()),
    ));

    let t = Instant::now();
    black_box(api::locator_build(&backend, CHAIN)?);
    out.push(("storage.locator.build_ms", us_since(t) / 1e3));

    let t = Instant::now();
    let folded = backend.compact(CHAIN)?;
    out.push((
        "storage.file.compact_MiB_s",
        mib_per_s(folded.bytes_before as usize, t.elapsed().as_secs_f64()),
    ));
    Ok(())
}

/// `storage.cache`: a resident page looked up again.
fn cache(out: &mut Probes, data: &[u8], page: usize) {
    let _s = span("probe.cache");
    let cache = PageCache::new(2 * data.len());
    for (i, p) in data.chunks_exact(page).enumerate() {
        cache.insert(1, i as u64, Arc::from(p));
    }
    let pages = (data.len() / page) as u64;
    let t = Instant::now();
    for i in 0..pages {
        black_box(cache.get(1, i));
    }
    out.push((
        "storage.cache.hit_ns",
        t.elapsed().as_nanos() as f64 / pages as f64,
    ));
}

/// `storage.tiered`: one epoch moved from the memory tier to the file tier.
fn tiered(out: &mut Probes, roots: &RootGuard, data: &[u8], page: usize) -> io::Result<()> {
    let _s = span("probe.tiered");
    let root = roots.fresh("probe-tiered")?;
    let backend = api::tiered_memory_over_file(root.path(), Compression::None, 0)?;
    let mut drain_ms = Vec::new();
    for epoch in 1..=3 {
        write_epoch(&backend, epoch, data, page)?;
        let t = Instant::now();
        black_box(backend.drain_one()?);
        drain_ms.push(us_since(t) / 1e3);
    }
    out.push(("storage.tiered.drain_one_ms", median(&drain_ms)));
    Ok(())
}
