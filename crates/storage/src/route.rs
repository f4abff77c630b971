//! The one routing rule of multi-child composites.
//!
//! A composite (`ReplicatedBackend`, `TieredBackend`, `PolicyBackend`)
//! names its children through [`StorageBackend::children`], in
//! read-preference order, and every provided trait method routes through
//! the functions here — so "which child speaks for this epoch" has one
//! answer, written once:
//!
//! * a child **holds** an epoch iff its `epochs()` lists it. Where the copies
//!   stay equal whoever is reached (verification, rewrites, repair) a child
//!   that cannot be asked is skipped; its error surfaces only when nobody
//!   holds the epoch;
//! * **reads** ([`read`]) ask the children in order and the first `Ok`
//!   answers. `NotFound` means "not here"; any other error falls through to
//!   the next child. A *corrupt* answer from a child that still lists the
//!   epoch first runs the composite's own `repair_epoch` and re-asks that
//!   child once — rot a peer can heal is never stepped over, and a read
//!   never fails while any child can serve it. When nobody answers, the
//!   first error that was not `NotFound` wins;
//! * **listings** aggregate ([`epochs`], [`chain`], [`high_water`]): the
//!   union of what the children that answer list, `Full` winning — except
//!   inside [`chain_of_all`] (a fold's read, and the probe before an
//!   install or a retirement), where a child that does not answer fails
//!   the listing instead of dropping out of it;
//! * **everything else** reaches **every holder** ([`each_holder`]),
//!   attempting all of them and returning the first error;
//! * what **changes which epochs a child lists** — a fold
//!   ([`install_compacted`]), a retirement ([`remove_epochs`]) — is refused
//!   before any child is touched unless *every* child, and every store
//!   below it, can be asked ([`chain_of_all`]): a child that slept through
//!   one would come back serving a delta under a chain its peers call
//!   `Full`, or listing what they retired;
//! * [`repair_epoch`] is one two-pass algorithm: each damaged holder's own
//!   redundancy first, then an image assembled page by page from whichever
//!   holder still reads each page, so damage scattered across holders heals
//!   as long as every page survives somewhere.
//!
//! The module also owns the one way to move an epoch between backends:
//! [`read_records`] + [`write_records`].

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::io;

use crate::backend::{as_batch, ChainEntry, EpochKind, StorageBackend};
use crate::errors::{classify, FaultClass, RetryPolicy};
use crate::scrub::{RepairReport, VerifyReport};

/// One child of a composite: the name reports use for it, and the backend.
pub(crate) type Child<'a> = (&'a str, &'a dyn StorageBackend);

/// One epoch's `(page, payload)` records, buffered.
pub(crate) type Records = Vec<(u64, Vec<u8>)>;

/// Records per `write_pages` when an epoch is copied between backends: the
/// committer's default flush batch, so a drain target sees the write shape
/// a direct commit gives it. (The staging bound — 512 records, one 2 MiB
/// `pwritev` per call — was measured and rejected: on `tenants_round` the
/// drain's long vectored writes held the application up, `iter_overhead_ms`
/// +50 % over ten pairs; at 32 the syscall count falls 8× with no such
/// effect.)
const COPY_BATCH: usize = 32;

fn not_found(epoch: u64) -> io::Error {
    io::Error::new(
        io::ErrorKind::NotFound,
        format!("epoch {epoch} is held by no child"),
    )
}

fn holds<C: StorageBackend + ?Sized>(child: &C, epoch: u64) -> io::Result<bool> {
    Ok(child.epochs()?.contains(&epoch))
}

/// The children to route through, when `this` names any.
pub(crate) fn composite<B: StorageBackend + ?Sized>(this: &B) -> Option<Vec<Child<'_>>> {
    let kids = this.children();
    (!kids.is_empty()).then_some(kids)
}

/// The first `Ok` of `op` over `kids`, in order. `NotFound` means "not
/// here"; any other error falls through to the next child. A *corrupt*
/// answer from a child that still lists the epoch first runs `heal`, once,
/// and re-asks that child when it succeeded. When nobody answers, the first
/// error that was not `NotFound` wins.
fn first_answer<'a, C: StorageBackend + ?Sized, T>(
    kids: &[(&'a str, &'a C)],
    epoch: u64,
    heal: impl Fn() -> bool,
    op: impl Fn((&'a str, &'a C)) -> io::Result<T>,
) -> io::Result<T> {
    let mut first_err = None;
    let mut healed = false;
    for &child in kids {
        let err = match op(child) {
            Ok(answer) => return Ok(answer),
            Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
            Err(e) => e,
        };
        if classify(&err) == FaultClass::Corrupt
            && !healed
            && holds(child.1, epoch).unwrap_or(false)
        {
            healed = true;
            if heal() {
                if let Ok(answer) = op(child) {
                    return Ok(answer);
                }
            }
        }
        first_err.get_or_insert(err);
    }
    Err(first_err.unwrap_or_else(|| not_found(epoch)))
}

/// The read rule (see the module docs) for one operation on `epoch` over
/// `kids`, the children of `this`: rot is healed by the composite's own
/// `repair_epoch`.
pub(crate) fn read<B: StorageBackend + ?Sized, C: StorageBackend + ?Sized, T>(
    this: &B,
    kids: &[(&str, &C)],
    epoch: u64,
    op: impl Fn(&C) -> io::Result<T>,
) -> io::Result<T> {
    let heal = || this.repair_epoch(epoch).is_ok();
    first_answer(kids, epoch, heal, |(_, child)| op(child))
}

/// Buffer one epoch's records from `store` — for a composite, from the
/// child the read rule picks, so a child failing mid-stream leaks nothing.
pub(crate) fn read_records<B: StorageBackend + ?Sized>(
    store: &B,
    epoch: u64,
) -> io::Result<Records> {
    if store.inner().is_none() {
        if let Some(kids) = composite(store) {
            return read(store, &kids, epoch, |child| read_records(child, epoch));
        }
    }
    let mut records = Records::new();
    store.read_epoch(epoch, &mut |page, data| records.push((page, data.to_vec())))?;
    Ok(records)
}

/// The composite's `read_epoch`: buffer, then replay.
pub(crate) fn read_epoch<B: StorageBackend + ?Sized>(
    this: &B,
    epoch: u64,
    visit: &mut dyn FnMut(u64, &[u8]),
) -> io::Result<()> {
    for (page, data) in read_records(this, epoch)? {
        visit(page, &data);
    }
    Ok(())
}

/// Commit `records` as `epoch` on `dest`, one `write_pages` per
/// [`COPY_BATCH`] records, every step under `retry` (a burst on `finish`
/// must not replay `begin_epoch` against a half-written epoch). The session
/// is aborted on failure.
pub(crate) fn write_records(
    dest: &dyn StorageBackend,
    epoch: u64,
    records: &Records,
    retry: &RetryPolicy,
) -> io::Result<()> {
    let writer = retry.run(|| dest.begin_epoch(epoch))?;
    let batch = as_batch(records);
    let written = batch
        .chunks(COPY_BATCH)
        .try_for_each(|chunk| retry.run(|| writer.write_pages(chunk)))
        .and_then(|()| retry.run(|| writer.finish()));
    if written.is_err() {
        let _ = writer.abort();
    }
    written
}

/// Apply `op` to every child that holds `epoch`, attempting all of them.
/// Each child is probed right before it is asked, in read order, so an
/// epoch moving outward mid-call (a drain commits the outer copy before it
/// evicts the inner one) is met at least once. A holder answering
/// `NotFound` lost the epoch since its probe and is skipped like a
/// non-holder.
pub(crate) fn each_holder<'a, T>(
    kids: &[Child<'a>],
    epoch: u64,
    mut op: impl FnMut(Child<'a>) -> io::Result<T>,
) -> io::Result<Vec<T>> {
    let mut done = Vec::new();
    let mut op_err = None;
    let mut probe_err = None;
    for &child in kids {
        match holds(child.1, epoch) {
            Ok(true) => match op(child) {
                Ok(answer) => done.push(answer),
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => {
                    op_err.get_or_insert(e);
                }
            },
            Ok(false) => {}
            Err(e) => {
                probe_err.get_or_insert(e);
            }
        }
    }
    match op_err {
        Some(e) => Err(e),
        None if done.is_empty() => Err(probe_err.unwrap_or_else(|| not_found(epoch))),
        None => Ok(done),
    }
}

thread_local! {
    /// Set while [`chain_of_all`] reads: every child must answer.
    static EVERY_CHILD: Cell<bool> = const { Cell::new(false) };
}

/// `b`'s own chain — its wrappers' view, a policy's retirement ledger —
/// read with every child of every composite below it answering: one that
/// cannot be asked fails the read instead of dropping out of the union. A
/// fold reads its chain this way and only this way, so the read is also
/// its probe, and it never folds just the window one child holds; an
/// install or a retirement asks each child this way before touching any.
pub(crate) fn chain_of_all<B: StorageBackend + ?Sized>(b: &B) -> io::Result<Vec<ChainEntry>> {
    /// Puts the flag back however the read ends, a panic included.
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            EVERY_CHILD.set(self.0);
        }
    }
    let _restore = Restore(EVERY_CHILD.replace(true));
    b.chain()
}

/// Fold what the children that answer `list` report; `Ok` names, by
/// position, the children that did not. The first error when none does
/// (inside [`chain_of_all`]: when any does not).
fn aggregate<T>(
    kids: &[Child<'_>],
    list: impl Fn(&dyn StorageBackend) -> io::Result<T>,
    mut fold: impl FnMut(T),
) -> io::Result<Vec<usize>> {
    let mut first_err = None;
    let mut silent = Vec::new();
    for (i, (name, child)) in kids.iter().enumerate() {
        match list(*child) {
            Ok(listing) => fold(listing),
            Err(e) if EVERY_CHILD.get() => {
                return Err(io::Error::new(
                    e.kind(),
                    format!("{name} cannot be asked: {e}"),
                ));
            }
            Err(e) => {
                silent.push(i);
                first_err.get_or_insert(e);
            }
        }
    }
    if silent.len() < kids.len() {
        return Ok(silent);
    }
    Err(first_err.unwrap_or_else(|| io::Error::other("no child is in service")))
}

/// Union of the children's finished epochs, ascending.
pub(crate) fn epochs(kids: &[Child<'_>]) -> io::Result<Vec<u64>> {
    let mut union = BTreeSet::new();
    aggregate(kids, |c| c.epochs(), |listed| union.extend(listed))?;
    Ok(union.into_iter().collect())
}

/// Union of the children's chains, ascending (an epoch any child holds as
/// a full segment is `Full`), and the positions of the children that did
/// not answer.
pub(crate) fn chain(kids: &[Child<'_>]) -> io::Result<(Vec<ChainEntry>, Vec<usize>)> {
    let mut union: BTreeMap<u64, EpochKind> = BTreeMap::new();
    let silent = aggregate(
        kids,
        |c| c.chain(),
        |chain| {
            for entry in chain {
                let kind = union.entry(entry.epoch).or_insert(entry.kind);
                if entry.kind == EpochKind::Full {
                    *kind = EpochKind::Full;
                }
            }
        },
    )?;
    let union = union
        .into_iter()
        .map(|(epoch, kind)| ChainEntry { epoch, kind });
    Ok((union.collect(), silent))
}

/// The highest epoch number any child has accounted for.
pub(crate) fn high_water(kids: &[Child<'_>]) -> io::Result<Option<u64>> {
    let mut high = None;
    aggregate(kids, |c| c.high_water(), |mark| high = high.max(mark))?;
    Ok(high)
}

/// Every holder's damage, merged: a page rotten on one copy is damage even
/// while another copy still serves it — that surviving copy is exactly
/// what repair needs, so it must be found *before* it rots too.
pub(crate) fn verify_epoch(kids: &[Child<'_>], epoch: u64) -> io::Result<VerifyReport> {
    let mut merged = VerifyReport::new(epoch);
    for report in each_holder(kids, epoch, |(_, child)| child.verify_epoch(epoch))? {
        merged.merge(&report);
    }
    Ok(merged)
}

/// `child`'s listing, read with every store below it answering.
fn ask((name, child): Child<'_>) -> io::Result<Vec<u64>> {
    let listed = chain_of_all(child).map(|chain| chain.into_iter().map(|c| c.epoch).collect());
    listed.map_err(|e| io::Error::new(e.kind(), format!("{name} cannot be asked: {e}")))
}

/// Install a folded image on every child that holds `into` — refused
/// before any child is touched unless all of them can be asked, then in
/// read order, stopping at the first failure. What a failure leaves behind
/// is a full image in front of a peer's delta chain, and both restore the
/// same bytes; the reverse — a delta read first under a chain the union
/// calls `Full` — would lose every folded-away page.
pub(crate) fn install_compacted(
    kids: &[Child<'_>],
    from: u64,
    into: u64,
    records: &[(u64, &[u8])],
) -> io::Result<()> {
    let mut holders = Vec::new();
    for &child in kids {
        if ask(child)?.contains(&into) {
            holders.push(child.1);
        }
    }
    if holders.is_empty() {
        return Err(not_found(into));
    }
    let mut install = holders.into_iter();
    install.try_for_each(|child| child.install_compacted(from, into, records))
}

/// Retire `epochs`: one batch per child, holding that child's share,
/// attempting all. Refused before anything is retired when a child cannot
/// be asked, and `NotFound` when no child lists one of the epochs — unless
/// `lenient`: a composite that keeps a retirement ledger skips the child,
/// or the epoch, and settles it from the ledger later.
pub(crate) fn remove_epochs(kids: &[Child<'_>], epochs: &[u64], lenient: bool) -> io::Result<()> {
    let mut shares = Vec::new();
    for &child in kids {
        let probe = if lenient {
            child.1.epochs()
        } else {
            ask(child)
        };
        let listed = match probe {
            Ok(listed) => listed,
            Err(_) if lenient => continue,
            Err(e) => return Err(e),
        };
        let share = epochs.iter().copied().filter(|e| listed.contains(e));
        shares.push((child.1, share.collect::<Vec<u64>>()));
    }
    let unlisted = |e: &&u64| !shares.iter().any(|(_, share)| share.contains(e));
    if let Some(&epoch) = epochs.iter().find(unlisted).filter(|_| !lenient) {
        return Err(not_found(epoch));
    }
    let mut first_err = None;
    for (child, share) in shares.into_iter().filter(|(_, share)| !share.is_empty()) {
        match child.remove_epochs(&share) {
            // `NotFound`: lost since its probe, like a holder in `each_holder`.
            Err(e) if e.kind() != io::ErrorKind::NotFound => {
                first_err.get_or_insert(e);
            }
            _ => {}
        }
    }
    first_err.map_or(Ok(()), Err)
}

/// The two-pass repair (see the module docs).
pub(crate) fn repair_epoch(kids: &[Child<'_>], epoch: u64) -> io::Result<RepairReport> {
    let verified = each_holder(kids, epoch, |child| {
        Ok((child, child.1.verify_epoch(epoch)?))
    })?;
    let (clean, damaged): (Vec<_>, Vec<_>) = verified.into_iter().partition(|(_, r)| r.is_clean());
    if damaged.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::Unsupported,
            format!("epoch {epoch} verifies clean on every holder; nothing to repair"),
        ));
    }
    let mut found_by_all = VerifyReport::new(epoch);
    let mut sources: Vec<String> = Vec::new();
    // Pass 1: each damaged holder's own redundancy (a replica member, an
    // XOR group). A holder that heals itself becomes a source for pass 2.
    let mut readers: Vec<Child<'_>> = clean.into_iter().map(|(child, _)| child).collect();
    let mut unhealed = Vec::new();
    for ((name, child), found) in damaged {
        found_by_all.merge(&found);
        let own = child.repair_epoch(epoch).ok().filter(|_| {
            // Trust but verify before using it as a source.
            child
                .verify_epoch(epoch)
                .is_ok_and(|after| after.is_clean())
        });
        match own {
            Some(own) => {
                sources.push(format!("{name} ({})", own.source));
                readers.push((name, child));
            }
            None => unhealed.push((name, child)),
        }
    }
    if !unhealed.is_empty() {
        // Pass 2: one image, each page from the first holder that still
        // reads it (clean holders first), installed on what is still
        // damaged.
        readers.extend(&unhealed);
        let image = assemble(&readers, epoch, &mut sources)?;
        for (_, child) in unhealed {
            child.rewrite_epoch(epoch, &as_batch(&image))?;
        }
    }
    Ok(RepairReport {
        epoch,
        pages: found_by_all.corrupt_pages,
        rewrote_segment: true,
        source: sources.join(", "),
    })
}

/// One epoch's records, each page from the first of `readers` that reads
/// it; `Unsupported` when a page survives on none. The readers used are
/// named in `sources`.
fn assemble(readers: &[Child<'_>], epoch: u64, sources: &mut Vec<String>) -> io::Result<Records> {
    let no_heal = || false; // this *is* the repair
    let ids = first_answer(readers, epoch, no_heal, |(_, r)| r.epoch_page_ids(epoch))?;
    let mut seen = BTreeSet::new();
    let mut image = Records::with_capacity(ids.len());
    for id in ids.into_iter().filter(|id| seen.insert(*id)) {
        let (name, payload) = first_answer(readers, epoch, no_heal, |(name, r)| {
            let payload = r.read_page_at(epoch, id)?.ok_or_else(|| not_found(epoch))?;
            Ok((name, payload))
        })
        .map_err(|e| {
            io::Error::new(
                io::ErrorKind::Unsupported,
                format!("no surviving source: page {id} of epoch {epoch} reads on no holder: {e}"),
            )
        })?;
        if !sources.iter().any(|s| s == name) {
            sources.push(name.to_owned());
        }
        image.push((id, payload));
    }
    Ok(image)
}
