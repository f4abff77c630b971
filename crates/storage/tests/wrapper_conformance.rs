//! Wrapper conformance: every `StorageBackend` wrapper must be
//! *observably transparent* over the store it wraps — same epoch listing,
//! same chain, same per-record random reads (every generated epoch carries
//! a `META_RECORD`, as every runtime epoch does), same restored image.
//! Single-child wrappers get every provided method
//! forwarded through `StorageBackend::inner()`, so for them this suite
//! proves the delegate itself (the `bare-*` rows: four required methods plus
//! `inner()`, nothing else) and that each override still agrees with what
//! it overrides. Multi-child composites (replicated, tiered, policy) name
//! their `children()` instead and get every provided method from the one
//! routing rule — so besides running the same deterministic (seed-pinned
//! `SplitMix64`) operation log against a plain `MemoryBackend` twin, each
//! composite row, over memory and over file children, runs the rule's own
//! script ([`composites_route_by_one_rule`]): reads fall through a broken
//! first child, a rotted record heals at read time, an epoch two children
//! hold is verified, rewritten, repaired and retired on both. (A fold or
//! retirement that cannot reach a child, or a member of the replicated
//! level nested in a policy, is the crash sweep's `down` mode,
//! `tests/crash_points.rs`.) The
//! composites also each get one "the meta record survives" row: metadata
//! has no namespace of its own, so this is the proof it travels with its
//! epoch through drains, level copies, repairs, rewrites and folds.

use ai_ckpt_core::rng::SplitMix64;
use ai_ckpt_storage::{
    corrupt_manifest_byte, corrupt_segment_region, write_epoch, CheckpointImage, EpochKind,
    EpochWriter, FailingBackend, FailureControl, FileBackend, MemoryBackend, MemoryRoot,
    PageLocator, ParityBackend, PolicyBuilder, ReplicatedBackend, ResilienceSpec, ScrubPolicy,
    Scrubber, SegmentRegion, StorageBackend, ThrottledBackend, TieredBackend, META_RECORD,
};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
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

/// A (compaction-capable) `FileBackend` in a fresh temp directory. Its
/// syscalls go through a failure control that arms nothing, so its fsyncs
/// are modeled, not issued: no row here judges durability.
fn fresh_file() -> (FileBackend, PathBuf) {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "aickpt-conformance-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let file = FileBackend::open_on(&dir, FailureControl::new().leaf()).unwrap();
    (file, dir)
}

/// A bare delegate over a `FileBackend`, its directory removed when the
/// delegate drops.
fn bare_file() -> Bare<FileBackend> {
    let (file, dir) = fresh_file();
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

/// What the leaf stores of a composite row are made of.
#[derive(Clone, Copy)]
enum Media {
    Memory,
    File,
}

/// One leaf store of a composite, seen from below the composite.
struct Leaf {
    /// The store itself, past the failure injection.
    view: Arc<dyn StorageBackend>,
    /// Rot one byte of `(epoch, page)`'s stored payload, at rest.
    rot: Box<dyn Fn(u64, u64)>,
    /// The store's directory, for file media.
    dir: Option<PathBuf>,
}

/// One child of a composite: the switch that fails every store of it, and
/// those stores (a replica level has two).
struct ChildHandle {
    control: FailureControl,
    leaves: Vec<Leaf>,
}

impl ChildHandle {
    fn rot(&self, epoch: u64, page: u64) {
        for leaf in &self.leaves {
            (leaf.rot)(epoch, page);
        }
    }

    /// Take the child out: rot its manifests where it has any (structural
    /// damage — the store can no longer even list its epochs), kill it
    /// where it has none.
    fn wreck(&self) {
        for leaf in &self.leaves {
            match &leaf.dir {
                Some(dir) => corrupt_manifest_byte(dir, 8 + 5).unwrap(),
                None => self.control.kill(),
            }
        }
    }

    fn lists(&self, epoch: u64) -> bool {
        let mut leaves = self.leaves.iter();
        leaves.all(|l| l.view.epochs().unwrap().contains(&epoch))
    }
}

/// A shared leaf store as the backend a composite owns.
struct SharedLeaf(Arc<dyn StorageBackend>);

impl StorageBackend for SharedLeaf {
    fn inner(&self) -> Option<&dyn StorageBackend> {
        Some(&*self.0)
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

/// One built row of the table. `children` is empty for one-child wrappers.
struct Built {
    backend: Box<dyn StorageBackend>,
    /// The composite's children, in read order.
    children: Vec<ChildHandle>,
    /// Retiring an epoch no child lists is not an error (the policy's
    /// retirement ledger, tiered stacks included; every other composite
    /// answers `NotFound`).
    lenient_retirement: bool,
}

impl Drop for Built {
    fn drop(&mut self) {
        let leaves = self.children.iter().flat_map(|c| &c.leaves);
        for dir in leaves.filter_map(|l| l.dir.as_ref()) {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

impl Built {
    fn wrapper(backend: impl StorageBackend + 'static) -> Built {
        Built {
            backend: Box::new(backend),
            children: Vec::new(),
            lenient_retirement: false,
        }
    }

    /// A composite over `shape.len()` children of `shape[i]` leaves each:
    /// `compose` receives every leaf as the store the composite owns
    /// (behind its child's failure control), child by child.
    fn composite(
        media: Media,
        shape: &[usize],
        compose: impl FnOnce(Vec<Vec<Box<dyn StorageBackend>>>) -> Box<dyn StorageBackend>,
    ) -> Built {
        let mut children = Vec::new();
        let mut stores = Vec::new();
        for &width in shape {
            let control = FailureControl::new();
            let (owned, leaves) = (0..width).map(|_| leaf(media, &control)).unzip();
            children.push(ChildHandle { control, leaves });
            stores.push(owned);
        }
        Built {
            backend: compose(stores),
            children,
            lenient_retirement: false,
        }
    }

    fn policy(media: Media, spec: &str, shape: &[usize]) -> Built {
        let spec = ResilienceSpec::parse(spec).unwrap();
        let mut built = Built::composite(media, shape, |stores| {
            let stores = RefCell::new(stores);
            let take = |level: usize, _| stores.borrow_mut()[level].remove(0);
            Box::new(PolicyBuilder::new(spec).unwrap().build(take).unwrap())
        });
        built.lenient_retirement = true;
        built
    }
}

fn leaf(media: Media, control: &FailureControl) -> (Box<dyn StorageBackend>, Leaf) {
    let leaf = match media {
        Media::Memory => {
            let store = MemoryBackend::new();
            let rotting = store.clone();
            Leaf {
                view: Arc::new(store),
                rot: Box::new(move |e, p| rotting.corrupt_stored_page(e, p, 1).unwrap()),
                dir: None,
            }
        }
        Media::File => {
            let (file, dir) = fresh_file();
            let rotting = dir.clone();
            Leaf {
                view: Arc::new(file),
                rot: Box::new(move |epoch, page| {
                    let region = SegmentRegion::PayloadOf { page, byte: 1 };
                    corrupt_segment_region(&rotting, epoch, region).unwrap()
                }),
                dir: Some(dir),
            }
        }
    };
    let owned = FailingBackend::with_control(SharedLeaf(Arc::clone(&leaf.view)), control.clone());
    (Box::new(owned), leaf)
}

type Build = Box<dyn Fn() -> Built>;

/// The composite rows: each composite over memory and over file children.
fn composites() -> Vec<(String, Build)> {
    let mut rows: Vec<(String, Build)> = Vec::new();
    for (media, tag) in [(Media::Memory, ""), (Media::File, "-file")] {
        rows.push((
            format!("replicated{tag}"),
            Box::new(move || {
                Built::composite(media, &[1, 1], |stores| {
                    let replicas = stores.into_iter().flatten().collect();
                    Box::new(ReplicatedBackend::new(replicas))
                })
            }),
        ));
        rows.push((
            format!("tiered{tag}"),
            Box::new(move || {
                let mut built = Built::composite(media, &[1, 1], |stores| {
                    let mut tiers = stores.into_iter().flatten();
                    let (fast, slow) = (tiers.next().unwrap(), tiers.next().unwrap());
                    Box::new(TieredBackend::new(fast, slow, 2).unwrap())
                });
                built.lenient_retirement = true; // a tiered stack is a policy
                built
            }),
        ));
        rows.push((
            format!("policy-2{tag}"),
            Box::new(move || Built::policy(media, "hot=plain -> cold=plain", &[1, 1])),
        ));
        rows.push((
            format!("policy{tag}"),
            Box::new(move || {
                let spec = "hot=plain -> partner=replica*2 -> cold=parity*4";
                Built::policy(media, spec, &[1, 2, 1])
            }),
        ));
    }
    rows
}

/// Every wrapper in the crate: the one-child wrappers over fresh
/// `MemoryBackend`s, then the composite rows.
fn wrappers() -> Vec<(String, Build)> {
    let one_child: Vec<(&str, Build)> = vec![
        (
            "boxed",
            Box::new(|| {
                let inner: Box<dyn StorageBackend> = Box::new(MemoryBackend::new());
                Built::wrapper(inner)
            }),
        ),
        (
            "bare-memory",
            Box::new(|| Built::wrapper(Bare(MemoryBackend::new(), None))),
        ),
        ("bare-file", Box::new(|| Built::wrapper(bare_file()))),
        (
            "namespaced",
            // A namespaced view of a shared root must be as transparent
            // as the plain backend it hands out.
            Box::new(|| Built::wrapper(MemoryRoot::new().open("tenant-0"))),
        ),
        (
            "throttled",
            Box::new(|| {
                Built::wrapper(ThrottledBackend::new(
                    MemoryBackend::new(),
                    1e12, // accounting path only; no artificial delay
                    Duration::ZERO,
                ))
            }),
        ),
        (
            "failing-disarmed",
            Box::new(|| Built::wrapper(FailingBackend::new(MemoryBackend::new()).0)),
        ),
        (
            "parity",
            Box::new(|| Built::wrapper(ParityBackend::new(MemoryBackend::new(), 3))),
        ),
    ];
    let one_child = one_child.into_iter().map(|(name, b)| (name.to_owned(), b));
    one_child.chain(composites()).collect()
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
            let built = build();
            let wrapper = &built.backend;
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
            assert_agree(&name, case, wrapper.as_ref(), &reference);
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
    // level only, and the capacity-1 hot level evicts each of them there.
    controls[1].kill();
    write_epoch(&policy, 1, with_meta(1)).unwrap();
    write_epoch(&policy, 2, with_meta(2)).unwrap();
    drain(&policy);
    assert_eq!(policy.stats().levels[0].evictions, 2);
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
    // The read itself runs the repair: rot a peer can heal is healed, not
    // stepped over.
    assert_eq!(read_meta(&replicated, 1), meta(7), "healing read");
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
            let built = build();
            let wrapper = &built.backend;
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
            assert_agree(&name, case, wrapper.as_ref(), &reference);
        }
    }
}

/// Commit epochs 1 and 2 (`with_meta(1)`, `with_meta(2)`) and leave
/// epoch 1 on the first two children at once, both in service: it is also
/// written straight to each store of the second child that lacks it — the
/// state a drain that died between its copy and its eviction leaves behind.
/// (A drain whose eviction merely *fails* takes the evicting level out of
/// service until the next drain evicts it there.)
fn two_holders_of_epoch_one(built: &Built) {
    for epoch in 1..=2u8 {
        write_epoch(built.backend.as_ref(), epoch as u64, with_meta(epoch)).unwrap();
    }
    for leaf in &built.children[1].leaves {
        if !leaf.view.epochs().unwrap().contains(&1) {
            write_epoch(leaf.view.as_ref(), 1, with_meta(1)).unwrap();
        }
    }
    assert!(built.children[..2].iter().all(|c| c.lists(1)));
}

fn page(v: u8, p: u64) -> Vec<u8> {
    with_meta(v).swap_remove(p as usize).1
}

/// The routing rule, one script for every composite over both media.
#[test]
fn composites_route_by_one_rule() {
    for (name, build) in composites() {
        // 1. Reads are served past a first child that is killed or
        //    structurally rotted.
        let built = build();
        let reference = MemoryBackend::new();
        for epoch in 1..=2u8 {
            write_epoch(built.backend.as_ref(), epoch as u64, with_meta(epoch)).unwrap();
            write_epoch(&reference, epoch as u64, with_meta(epoch)).unwrap();
        }
        while built.backend.drain_one().unwrap().is_some() {}
        built.children[0].wreck();
        assert_agree(&name, 1, built.backend.as_ref(), &reference);

        // 2. One record rotted on the first holder: the read heals it,
        //    durably, instead of stepping over it.
        let built = build();
        two_holders_of_epoch_one(&built);
        let first = &built.children[0];
        first.rot(1, 2);
        assert!(first.leaves[0].view.read_page_at(1, 2).is_err());
        let read = built.backend.read_page_at(1, 2).unwrap().unwrap();
        assert_eq!(read, page(1, 2), "{name}: healing read");
        for leaf in &first.leaves {
            let healed = leaf.view.read_page_at(1, 2).unwrap().unwrap();
            assert_eq!(healed, page(1, 2), "{name}: healed at rest");
        }

        // 3. An epoch two children hold: verification merges what both
        //    find, a rewrite and a retirement reach both.
        let built = build();
        two_holders_of_epoch_one(&built);
        let holders = &built.children[..2];
        holders[1].rot(1, 1);
        let found = built.backend.verify_epoch(1).unwrap();
        assert_eq!(found.corrupt_pages, vec![1], "{name}: merged findings");
        let rewritten: Vec<(u64, &[u8])> = vec![(0, &[7u8; 32]), (3, &[9u8; 32])];
        built.backend.rewrite_epoch(1, &rewritten).unwrap();
        assert!(built.backend.verify_epoch(1).unwrap().is_clean(), "{name}");
        for leaf in holders.iter().flat_map(|c| &c.leaves) {
            assert_eq!(leaf.view.epoch_page_ids(1).unwrap(), vec![0, 3], "{name}");
            let got = leaf.view.read_page_at(1, 3).unwrap().unwrap();
            assert_eq!(got, vec![9u8; 32], "{name}: rewrite reached every holder");
        }
        built.backend.remove_epochs(&[1]).unwrap();
        assert_eq!(built.backend.epochs().unwrap(), vec![2], "{name}");
        assert!(holders.iter().all(|c| !c.lists(1)), "{name}: retired");
        // The drain queue forgot it too: draining settles, never wedges.
        while built.backend.drain_one().unwrap().is_some() {}
        assert_eq!(built.backend.drain_backlog(), 0, "{name}");

        // 4. Disjoint damage across two holders repairs: every page
        //    survives somewhere.
        let built = build();
        two_holders_of_epoch_one(&built);
        let holders = &built.children[..2];
        holders[0].rot(1, 0);
        holders[1].rot(1, 1);
        let found = built.backend.verify_epoch(1).unwrap();
        assert_eq!(found.corrupt_pages, vec![0, 1], "{name}");
        built.backend.repair_epoch(1).unwrap();
        assert!(built.backend.verify_epoch(1).unwrap().is_clean(), "{name}");
        for leaf in holders.iter().flat_map(|c| &c.leaves) {
            for p in 0..2 {
                let healed = leaf.view.read_page_at(1, p).unwrap().unwrap();
                assert_eq!(healed, page(1, p), "{name}: page {p} healed");
            }
        }

        // 5. Retiring an epoch no child lists is `NotFound`, before
        //    anything is retired. The one exception is the policy (a tiered
        //    stack is one): its
        //    retirement ledger takes the epoch (a level that is out of
        //    service may still hold it) and retires the rest.
        let built = build();
        two_holders_of_epoch_one(&built);
        let outcome = built.backend.remove_epochs(&[2, 9]);
        if built.lenient_retirement {
            outcome.unwrap();
            assert_eq!(built.backend.epochs().unwrap(), vec![1], "{name}");
        } else {
            assert_eq!(outcome.unwrap_err().kind(), io::ErrorKind::NotFound);
            assert_eq!(built.backend.epochs().unwrap(), vec![1, 2], "{name}");
        }
    }
}

#[test]
fn verify_epoch_reports_clean_on_every_undamaged_wrapper() {
    for (name, build) in wrappers() {
        let mut rng = SplitMix64::new(0x9D);
        for case in 0..8u64 {
            let built = build();
            let wrapper = &built.backend;
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
            let built = build();
            let wrapper = &built.backend;
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
            let built = build();
            let wrapper = &built.backend;
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
            assert_agree(&name, case, wrapper.as_ref(), &reference);
        }
    }
}
