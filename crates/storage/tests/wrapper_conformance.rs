//! Wrapper conformance: every `StorageBackend` wrapper must be
//! *observably transparent* over the store it wraps — same epoch listing,
//! same chain, same per-page random reads, same blob namespace, same
//! restored image. Single-child wrappers get every provided method
//! forwarded through `StorageBackend::inner()`, so for them this suite
//! proves the delegate itself (the `bare-*` rows: six required methods plus
//! `inner()`, nothing else) and that each override still agrees with what
//! it overrides. Multi-child composites (replicated, tiered, policy) have
//! no single `inner()` and still spell every operation out — there a
//! forgotten method silently degrades to the leaf default, which is what
//! pinning each one against a plain `MemoryBackend` twin executing the same
//! deterministic (seed-pinned `SplitMix64`) operation log catches.

use ai_ckpt_core::rng::SplitMix64;
use ai_ckpt_storage::{
    write_epoch, CheckpointImage, EpochKind, EpochWriter, FailingBackend, FileBackend,
    MemoryBackend, MemoryRoot, ParityBackend, PolicyBuilder, ReplicatedBackend, ResilienceSpec,
    ScrubPolicy, Scrubber, StorageBackend, ThrottledBackend, TieredBackend,
};
use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The whole cost of a transparent wrapper: the six required methods plus
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
    fn put_blob(&self, name: &str, data: &[u8]) -> io::Result<()> {
        self.0.put_blob(name, data)
    }
    fn get_blob(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        self.0.get_blob(name)
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
/// each page at most once; XOR parity groups rely on that).
fn gen_epoch(rng: &mut SplitMix64) -> Vec<(u64, Vec<u8>)> {
    let mut set: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    for _ in 0..rng.next_below(20) {
        let page = rng.next_below(24);
        let len = 1 + rng.next_below(63) as usize;
        set.insert(page, (0..len).map(|_| rng.next_u64() as u8).collect());
    }
    set.into_iter().collect()
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
        // Present pages, absent pages, and a far-out id all agree.
        for page in (0..24).chain([1 << 40]) {
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
    assert_eq!(
        wrapper.list_blobs().unwrap(),
        reference.list_blobs().unwrap(),
        "{name} case {case}: blob listing"
    );
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

#[test]
fn wrappers_agree_on_blob_lifecycle() {
    for (name, build) in wrappers() {
        let wrapper = build();
        let reference = MemoryBackend::new();
        for (blob, data) in [
            ("layout_0000000001", b"one".as_slice()),
            ("layout_0000000002", b"two"),
            ("meta", b"m"),
        ] {
            wrapper.put_blob(blob, data).unwrap();
            reference.put_blob(blob, data).unwrap();
        }
        assert_eq!(
            wrapper.list_blobs().unwrap(),
            reference.list_blobs().unwrap(),
            "{name}: listing after puts"
        );
        wrapper.delete_blob("layout_0000000001").unwrap();
        reference.delete_blob("layout_0000000001").unwrap();
        // Deleting a missing blob is not an error, on either side.
        wrapper.delete_blob("never-existed").unwrap();
        reference.delete_blob("never-existed").unwrap();
        assert_eq!(
            wrapper.list_blobs().unwrap(),
            reference.list_blobs().unwrap(),
            "{name}: listing after delete"
        );
        assert_eq!(
            wrapper.get_blob("layout_0000000001").unwrap(),
            None,
            "{name}: deleted blob gone"
        );
        assert_eq!(
            wrapper.get_blob("layout_0000000002").unwrap().as_deref(),
            Some(b"two".as_slice()),
            "{name}: surviving blob intact"
        );
    }
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
