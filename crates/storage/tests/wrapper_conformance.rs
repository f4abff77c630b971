//! Wrapper conformance: every `StorageBackend` wrapper must be
//! *observably transparent* over the store it wraps — same epoch listing,
//! same chain, same per-record random reads (every generated epoch carries
//! a `META_RECORD`, as every runtime epoch does), same restored image.
//! Single-child wrappers get every provided method
//! forwarded through `StorageBackend::inner()`, so for them this suite
//! proves the delegate itself (the `bare-*` rows: four required methods plus
//! `inner()`, nothing else) and that each override still agrees with what
//! it overrides. Multi-child composites (replicated, tiered, policy) have
//! no single `inner()` and still spell every operation out — there a
//! forgotten method silently degrades to the leaf default, which is what
//! pinning each one against a plain `MemoryBackend` twin executing the same
//! deterministic (seed-pinned `SplitMix64`) operation log catches. The
//! composites also each get one "the meta record survives" row: metadata
//! has no namespace of its own, so this is the proof it travels with its
//! epoch through drains, level copies, repairs, rewrites and folds.

use ai_ckpt_core::rng::SplitMix64;
use ai_ckpt_storage::{
    write_epoch, CheckpointImage, EpochKind, EpochWriter, FailingBackend, FileBackend,
    MemoryBackend, MemoryRoot, PageLocator, ParityBackend, PolicyBuilder, ReplicatedBackend,
    ResilienceSpec, ScrubPolicy, Scrubber, StorageBackend, ThrottledBackend, TieredBackend,
    META_RECORD,
};
use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The whole cost of a transparent wrapper: the four required methods plus
/// `inner()`. Everything else must reach the wrapped backend by itself.
/// (The optional path is a checkpoint directory to delete on drop.)
struct Bare<B>(B, Option<PathBuf>);

impl<B: StorageBackend> StorageBackend for Bare<B> {
    fn inner(&self) -> Option<&dyn StorageBackend> {
        Some(&self.0)
    }
    fn begin_epoch(&self, epoch: u64) -> io::Result<Box<dyn EpochWriter>> {
        self.0.begin_epoch(epoch)
    }
    fn epochs(&self) -> io::Result<Vec<u64>> {
        self.0.epochs()
    }
    fn read_epoch(&self, epoch: u64, visit: &mut dyn FnMut(u64, &[u8])) -> io::Result<()> {
        self.0.read_epoch(epoch, visit)
    }
    fn bytes_written(&self) -> u64 {
        self.0.bytes_written()
    }
}

impl<B> Drop for Bare<B> {
    fn drop(&mut self) {
        if let Some(dir) = &self.1 {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// A bare delegate over a (compaction-capable) `FileBackend` in a fresh
/// temp directory, removed when the delegate drops.
fn bare_file() -> Bare<FileBackend> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "aickpt-conformance-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut file = FileBackend::open(&dir).unwrap();
    file.sync_on_finish = false;
    Bare(file, Some(dir))
}

/// An arbitrary epoch with *unique* page ids (checkpoint epochs commit
/// each page at most once; XOR parity groups rely on that), closed by its
/// metadata record the way the runtime closes every epoch.
fn gen_epoch(rng: &mut SplitMix64) -> Vec<(u64, Vec<u8>)> {
    let mut set: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    for _ in 0..rng.next_below(20) {
        let page = rng.next_below(24);
        let len = 1 + rng.next_below(63) as usize;
        set.insert(page, (0..len).map(|_| rng.next_u64() as u8).collect());
    }
    let mut records: Vec<_> = set.into_iter().collect();
    let len = 1 + rng.next_below(40) as usize;
    records.push((
        META_RECORD,
        (0..len).map(|_| rng.next_u64() as u8).collect(),
    ));
    records
}

fn gen_epochs(rng: &mut SplitMix64, max: u64) -> Vec<Vec<(u64, Vec<u8>)>> {
    let n = rng.next_below(max) as usize;
    (0..n).map(|_| gen_epoch(rng)).collect()
}

type Build = Box<dyn Fn() -> Box<dyn StorageBackend>>;

/// Every wrapper in the crate, each over fresh `MemoryBackend`s.
fn wrappers() -> Vec<(&'static str, Build)> {
    vec![
        (
            "boxed",
            Box::new(|| {
                let inner: Box<dyn StorageBackend> = Box::new(MemoryBackend::new());
                Box::new(inner) as Box<dyn StorageBackend>
            }) as Build,
        ),
        (
            "bare-memory",
            Box::new(|| Box::new(Bare(MemoryBackend::new(), None)) as Box<dyn StorageBackend>),
        ),
        (
            "bare-file",
            Box::new(|| Box::new(bare_file()) as Box<dyn StorageBackend>),
        ),
        (
            "namespaced",
            Box::new(|| {
                // A namespaced view of a shared root must be as transparent
                // as the plain backend it hands out.
                Box::new(MemoryRoot::new().open("tenant-0")) as Box<dyn StorageBackend>
            }),
        ),
        (
            "throttled",
            Box::new(|| {
                Box::new(ThrottledBackend::new(
                    MemoryBackend::new(),
                    1e12, // accounting path only; no artificial delay
                    Duration::ZERO,
                )) as Box<dyn StorageBackend>
            }),
        ),
        (
            "failing-disarmed",
            Box::new(|| {
                let (backend, _control) = FailingBackend::new(MemoryBackend::new());
                Box::new(backend) as Box<dyn StorageBackend>
            }),
        ),
        (
            "replicated",
            Box::new(|| {
                Box::new(ReplicatedBackend::new(vec![
                    Box::new(MemoryBackend::new()),
                    Box::new(MemoryBackend::new()),
                ])) as Box<dyn StorageBackend>
            }),
        ),
        (
            "parity",
            Box::new(|| {
                Box::new(ParityBackend::new(MemoryBackend::new(), 3)) as Box<dyn StorageBackend>
            }),
        ),
        (
            "tiered",
            Box::new(|| {
                Box::new(
                    TieredBackend::new(
                        Box::new(MemoryBackend::new()),
                        Box::new(MemoryBackend::new()),
                        2,
                    )
                    .unwrap(),
                ) as Box<dyn StorageBackend>
            }),
        ),
        (
            "policy",
            Box::new(|| {
                let spec = ResilienceSpec::parse("hot=plain -> partner=replica*2 -> cold=parity*4")
                    .unwrap();
                Box::new(
                    PolicyBuilder::new(spec)
                        .unwrap()
                        .build(|_, _| Box::new(MemoryBackend::new()))
                        .unwrap(),
                ) as Box<dyn StorageBackend>
            }),
        ),
    ]
}

/// Compare every read-side observable of `wrapper` against `reference`.
fn assert_agree(name: &str, case: u64, wrapper: &dyn StorageBackend, reference: &MemoryBackend) {
    let epochs = reference.epochs().unwrap();
    assert_eq!(
        wrapper.epochs().unwrap(),
        epochs,
        "{name} case {case}: epoch listing"
    );
    assert_eq!(
        wrapper.chain().unwrap(),
        reference.chain().unwrap(),
        "{name} case {case}: chain"
    );
    for &epoch in &epochs {
        assert_eq!(
            wrapper.epoch_page_ids(epoch).unwrap(),
            reference.epoch_page_ids(epoch).unwrap(),
            "{name} case {case}: epoch_page_ids({epoch})"
        );
        // Present pages, absent pages, a far-out id and the epoch's
        // metadata record all agree.
        for page in (0..24).chain([1 << 40, META_RECORD]) {
            assert_eq!(
                wrapper.read_page_at(epoch, page).unwrap(),
                reference.read_page_at(epoch, page).unwrap(),
                "{name} case {case}: read_page_at({epoch}, {page})"
            );
        }
    }
    assert_eq!(
        CheckpointImage::load_latest(wrapper).unwrap(),
        CheckpointImage::load_latest(reference).unwrap(),
        "{name} case {case}: restored image"
    );
    if let Some(&last) = epochs.last() {
        assert_meta_hidden(wrapper, last);
    }
}

/// The two readers of *pages* never surface the reserved id.
fn assert_meta_hidden(backend: &dyn StorageBackend, epoch: u64) {
    let image = CheckpointImage::load(backend, epoch).unwrap();
    assert_eq!(image.page(META_RECORD), None);
    let locator = PageLocator::build(backend, epoch).unwrap();
    assert_eq!(locator.epoch_of(META_RECORD), None);
    assert_eq!(locator.len(), image.len());
}

#[test]
fn wrappers_are_observably_transparent_over_memory() {
    for (name, build) in wrappers() {
        let mut rng = SplitMix64::new(0x9A);
        for case in 0..16u64 {
            let wrapper = build();
            let reference = MemoryBackend::new();
            let epochs = gen_epochs(&mut rng, 5);
            for (i, records) in epochs.iter().enumerate() {
                write_epoch(wrapper.as_ref(), i as u64 + 1, records.clone()).unwrap();
                write_epoch(&reference, i as u64 + 1, records.clone()).unwrap();
            }
            assert_eq!(
                wrapper.high_water().unwrap(),
                reference.high_water().unwrap(),
                "{name} case {case}: high water"
            );
            assert_agree(name, case, wrapper.as_ref(), &reference);
        }
    }
}

/// The op-log above reaches the read side, retirement, verification and
/// draining; this walks the rest of the provided surface through a bare
/// delegate and checks each answer is the wrapped backend's own — not the
/// leaf default a wrapper without `inner()` would have given.
#[test]
fn bare_delegate_forwards_every_provided_method() {
    let bare = bare_file();
    let file = &bare.0;
    let pages = |v: u8| vec![(0u64, vec![v; 64]), (1, vec![v ^ 0xFF; 64])];
    for epoch in 1..=3u64 {
        write_epoch(&bare, epoch, pages(epoch as u8)).unwrap();
    }
    // Counters and metadata: the leaf defaults would be bytes_written, no
    // I/O at all, and no record metadata.
    assert!(bare.bytes_stored() < bare.bytes_written(), "Auto codec");
    assert_eq!(bare.bytes_stored(), file.bytes_stored());
    assert_eq!(bare.io_stats(), file.io_stats());
    assert!(bare.io_stats().manifest_appends >= 3);
    assert_eq!(bare.record_meta(1, 0).unwrap().unwrap().raw_len, 64);
    // Retirement burns the number: the leaf default derives the mark from
    // `epochs()` and would forget epoch 3.
    bare.remove_epochs(&[3]).unwrap();
    assert_eq!(bare.high_water().unwrap(), Some(3));
    // The install/rewrite primitives and compaction: unsupported on a leaf.
    assert!(bare.supports_compaction());
    bare.rewrite_epoch(1, &[(0, &[7u8; 64]), (1, &[8u8; 64])])
        .unwrap();
    assert_eq!(bare.read_page_at(1, 0).unwrap().unwrap(), vec![7u8; 64]);
    let stats = bare.compact(2).unwrap();
    assert_eq!((stats.from, stats.into, stats.segments_removed), (1, 2, 2));
    assert_eq!(bare.chain().unwrap(), file.chain().unwrap());
    assert_eq!(bare.chain().unwrap()[0].kind, EpochKind::Full);
    write_epoch(&bare, 4, pages(4)).unwrap();
    bare.install_compacted(2, 4, &[(0, &[9u8; 64])]).unwrap();
    assert_eq!(bare.epochs().unwrap(), vec![4]);
    assert_eq!(bare.epoch_page_ids(4).unwrap(), vec![0]);
    // Repair: the file backend heals a rotten manifest count by recount;
    // a leaf default has no repair at all.
    ai_ckpt_storage::corrupt_manifest_count(file.dir(), 4).unwrap();
    assert!(!bare.verify_epoch(4).unwrap().is_clean());
    assert_eq!(bare.repair_epoch(4).unwrap().source, "manifest recount");
    assert!(bare.verify_epoch(4).unwrap().is_clean());
    // Single-tier: no backlog, through the delegate too.
    assert_eq!((bare.drain_one().unwrap(), bare.drain_backlog()), (None, 0));
}

/// One epoch of four 32-byte pages filled with `v`, plus its meta record.
fn with_meta(v: u8) -> Vec<(u64, Vec<u8>)> {
    let mut records: Vec<_> = (0..4u64).map(|p| (p, vec![v ^ p as u8; 32])).collect();
    records.push((META_RECORD, meta(v)));
    records
}

fn meta(v: u8) -> Vec<u8> {
    format!("state 0 4 {v}\n").into_bytes()
}

fn read_meta(backend: &dyn StorageBackend, epoch: u64) -> Vec<u8> {
    backend.read_page_at(epoch, META_RECORD).unwrap().unwrap()
}

#[test]
fn meta_record_survives_a_tiered_drain() {
    let (slow, slow_view) = MemoryBackend::shared();
    let tiered = TieredBackend::new(Box::new(MemoryBackend::new()), Box::new(slow), 2).unwrap();
    write_epoch(&tiered, 1, with_meta(1)).unwrap();
    write_epoch(&tiered, 2, with_meta(2)).unwrap();
    assert_eq!(tiered.drain_all().unwrap(), 2);
    assert!(tiered.fast().epochs().unwrap().is_empty());
    for (epoch, v) in [(1, 1), (2, 2)] {
        assert_eq!(read_meta(&tiered, epoch), meta(v));
        assert_eq!(read_meta(&slow_view, epoch), meta(v), "slow tier alone");
    }
    assert_meta_hidden(&slow_view, 2);
}

#[test]
fn meta_record_survives_policy_copy_evict_and_rebuild() {
    let spec = ResilienceSpec::parse("hot=plain#1 -> partner=replica*2 -> cold=parity*4").unwrap();
    let (policy, controls) = PolicyBuilder::new(spec)
        .unwrap()
        .build_injected(|_, _| Box::new(MemoryBackend::new()))
        .unwrap();
    let drain = |policy: &dyn StorageBackend| {
        for _ in 0..64 {
            if matches!(policy.drain_one(), Ok(None)) {
                break;
            }
        }
    };
    // The partner level sleeps through both copies: they reach the cold
    // level only, and the capacity-1 hot level evicts epoch 1.
    controls[1].kill();
    write_epoch(&policy, 1, with_meta(1)).unwrap();
    write_epoch(&policy, 2, with_meta(2)).unwrap();
    drain(&policy);
    assert_eq!(policy.stats().levels[0].evictions, 1);
    // Heal: the partner level is rebuilt from the others.
    controls[1].heal();
    drain(&policy);
    assert_eq!(policy.copies_owed(), 0);
    assert!(policy.stats().levels[1].rebuilds_in >= 2);
    // The rebuilt level alone serves both epochs' metadata.
    controls[0].kill();
    controls[2].kill();
    for (epoch, v) in [(1, 1), (2, 2)] {
        assert_eq!(read_meta(&policy, epoch), meta(v));
    }
    assert_meta_hidden(&policy, 2);
}

#[test]
fn meta_record_survives_a_replica_repair() {
    let (rotten, rotten_view) = MemoryBackend::shared();
    let replicated = ReplicatedBackend::new(vec![Box::new(rotten), Box::new(MemoryBackend::new())]);
    write_epoch(&replicated, 1, with_meta(7)).unwrap();
    rotten_view.corrupt_stored_page(1, META_RECORD, 3).unwrap();
    assert!(rotten_view.read_page_at(1, META_RECORD).is_err());
    assert_eq!(
        replicated.verify_epoch(1).unwrap().corrupt_pages,
        vec![META_RECORD]
    );
    assert_eq!(read_meta(&replicated, 1), meta(7), "degraded read");
    replicated.repair_epoch(1).unwrap();
    assert_eq!(read_meta(&rotten_view, 1), meta(7), "healed in place");
    assert_meta_hidden(&replicated, 1);
}

#[test]
fn meta_record_survives_parity_rewrite_and_compaction() {
    let parity = ParityBackend::new(MemoryBackend::new(), 3);
    for epoch in 1..=3u8 {
        write_epoch(&parity, epoch as u64, with_meta(epoch)).unwrap();
    }
    // A rewrite (the repair install path) re-emits parity over data *and*
    // metadata; the group covering the meta record reconstructs it.
    let records = with_meta(9);
    let batch: Vec<(u64, &[u8])> = records.iter().map(|(p, d)| (*p, d.as_slice())).collect();
    parity.rewrite_epoch(1, &batch).unwrap();
    assert_eq!(read_meta(&parity, 1), meta(9));
    let rebuilt = parity.recover_page(1, META_RECORD).unwrap();
    assert_eq!(&rebuilt[..meta(9).len()], &meta(9)[..]);
    // A fold keeps the newest epoch's metadata: latest-wins, like any id.
    parity.compact(3).unwrap();
    assert_eq!(parity.epochs().unwrap(), vec![3]);
    assert_eq!(read_meta(&parity, 3), meta(3));
    let rebuilt = parity.recover_page(3, META_RECORD).unwrap();
    assert_eq!(&rebuilt[..meta(3).len()], &meta(3)[..]);
    assert_meta_hidden(&parity, 3);
}

/// The meta id passes the parity wrapper's id guard; a parity-flagged data
/// id still does not.
#[test]
#[should_panic(expected = "collides with parity flag")]
fn parity_still_rejects_flagged_data_ids() {
    let parity = ParityBackend::new(MemoryBackend::new(), 3);
    let _ = write_epoch(
        &parity,
        1,
        vec![(ai_ckpt_storage::parity::PARITY_FLAG | 1, vec![0u8; 8])],
    );
}

#[test]
fn wrappers_agree_on_batched_retirement() {
    for (name, build) in wrappers() {
        let mut rng = SplitMix64::new(0x9B);
        for case in 0..8u64 {
            let wrapper = build();
            let reference = MemoryBackend::new();
            let mut epochs = gen_epochs(&mut rng, 5);
            while epochs.len() < 3 {
                epochs.push(gen_epoch(&mut rng));
            }
            for (i, records) in epochs.iter().enumerate() {
                write_epoch(wrapper.as_ref(), i as u64 + 1, records.clone()).unwrap();
                write_epoch(&reference, i as u64 + 1, records.clone()).unwrap();
            }
            // Retire the two oldest epochs as a batch: the survivors must
            // read identically on both sides afterwards.
            wrapper.remove_epochs(&[1, 2]).unwrap();
            reference.remove_epochs(&[1, 2]).unwrap();
            assert_agree(name, case, wrapper.as_ref(), &reference);
        }
    }
}

#[test]
fn tiered_retirement_reaches_an_epoch_left_on_both_tiers() {
    // A drain whose fast-tier eviction failed leaves its epoch on both
    // tiers, still pending. Retiring it must clear every view — a
    // retirement that only evicts the fast copy "retires" an epoch that
    // restore still lists.
    let (fast, control) = FailingBackend::new(MemoryBackend::new());
    let tiered = TieredBackend::new(Box::new(fast), Box::new(MemoryBackend::new()), 0).unwrap();
    let reference = MemoryBackend::new();
    let mut rng = SplitMix64::new(0x7E);
    for epoch in 1..=3u64 {
        let records = gen_epoch(&mut rng);
        write_epoch(&tiered, epoch, records.clone()).unwrap();
        write_epoch(&reference, epoch, records).unwrap();
    }
    control.fail_remove_epoch(true);
    assert!(tiered.drain_one().is_err(), "copy commits, eviction fails");
    control.fail_remove_epoch(false);
    assert_eq!(tiered.slow().epochs().unwrap(), vec![1]);
    assert_eq!(tiered.pending_drain(), vec![1, 2, 3]);

    tiered.remove_epochs(&[1, 2]).unwrap();
    reference.remove_epochs(&[1, 2]).unwrap();
    assert_agree("tiered", 0, &tiered, &reference);
    assert!(tiered.slow().epochs().unwrap().is_empty());
    assert_eq!(tiered.pending_drain(), vec![3]);
}

#[test]
fn verify_epoch_reports_clean_on_every_undamaged_wrapper() {
    for (name, build) in wrappers() {
        let mut rng = SplitMix64::new(0x9D);
        for case in 0..8u64 {
            let wrapper = build();
            let reference = MemoryBackend::new();
            let epochs = gen_epochs(&mut rng, 5);
            for (i, records) in epochs.iter().enumerate() {
                write_epoch(wrapper.as_ref(), i as u64 + 1, records.clone()).unwrap();
                write_epoch(&reference, i as u64 + 1, records.clone()).unwrap();
            }
            for &epoch in &reference.epochs().unwrap() {
                let report = wrapper.verify_epoch(epoch).unwrap();
                assert!(
                    report.is_clean(),
                    "{name} case {case}: verify_epoch({epoch}) found damage on a pristine \
                     store: {report:?}"
                );
                assert_eq!(report.epoch, epoch, "{name} case {case}: report epoch");
                // Redundant wrappers may verify extra copies (replica
                // members, parity groups), never fewer records than the
                // data actually committed.
                let want = reference.verify_epoch(epoch).unwrap();
                assert!(
                    report.records >= want.records,
                    "{name} case {case}: verify_epoch({epoch}) covered {} records, \
                     reference holds {}",
                    report.records,
                    want.records
                );
            }
            // Verifying a never-committed epoch errs (NotFound) rather than
            // reporting a clean phantom.
            assert!(
                wrapper.verify_epoch(1 << 40).is_err(),
                "{name} case {case}: verify of a missing epoch must fail"
            );
        }
    }
}

#[test]
fn scrub_full_pass_is_quiet_on_every_undamaged_wrapper() {
    for (name, build) in wrappers() {
        let mut rng = SplitMix64::new(0x9E);
        for case in 0..4u64 {
            let wrapper = build();
            let mut epochs = gen_epochs(&mut rng, 4);
            while epochs.is_empty() {
                epochs.push(gen_epoch(&mut rng));
            }
            for (i, records) in epochs.iter().enumerate() {
                write_epoch(wrapper.as_ref(), i as u64 + 1, records.clone()).unwrap();
            }
            let scrubber = Scrubber::new(ScrubPolicy::default());
            let verified = scrubber.full_pass(wrapper.as_ref()).unwrap();
            assert_eq!(
                verified,
                epochs.len() as u64,
                "{name} case {case}: full pass visits every epoch"
            );
            let stats = scrubber.stats();
            assert_eq!(
                stats.corrupt_epochs, 0,
                "{name} case {case}: no damage on a pristine store"
            );
            assert_eq!(
                stats.epochs_quarantined, 0,
                "{name} case {case}: quarantine"
            );
            assert_eq!(
                stats.epochs_verified,
                epochs.len() as u64,
                "{name} case {case}: epochs verified"
            );
            // A budget-paced scrubber converges to the same full coverage
            // across cycles: the cursor rotation must not skip epochs.
            let paced = Scrubber::new(ScrubPolicy::default().with_budget(1));
            let mut seen = 0;
            for _ in 0..epochs.len() {
                seen += paced.cycle(wrapper.as_ref()).unwrap();
            }
            assert!(
                seen >= epochs.len() as u64,
                "{name} case {case}: paced cycles cover the chain ({seen} of {})",
                epochs.len()
            );
        }
    }
}

#[test]
fn draining_never_changes_what_a_wrapper_serves() {
    for (name, build) in wrappers() {
        let mut rng = SplitMix64::new(0x9C);
        for case in 0..8u64 {
            let wrapper = build();
            let reference = MemoryBackend::new();
            let epochs = gen_epochs(&mut rng, 5);
            for (i, records) in epochs.iter().enumerate() {
                write_epoch(wrapper.as_ref(), i as u64 + 1, records.clone()).unwrap();
                write_epoch(&reference, i as u64 + 1, records.clone()).unwrap();
            }
            // Drain to quiescence (a no-op for single-tier wrappers; real
            // copies for tiered and policy stacks) — purely a placement
            // change, never a data change.
            for _ in 0..64 {
                match wrapper.drain_one().unwrap() {
                    Some(_) => {}
                    None => break,
                }
            }
            assert_eq!(wrapper.drain_backlog(), 0, "{name} case {case}: backlog");
            assert_agree(name, case, wrapper.as_ref(), &reference);
        }
    }
}
