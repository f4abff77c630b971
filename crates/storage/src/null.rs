//! Discard backend: accepts everything, stores nothing. Used by benchmark
//! harnesses that measure checkpointing *dynamics* (wait/CoW behaviour,
//! timings through a throttle) without burning RAM or disk on the payload.

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::backend::{EpochWriter, StorageBackend};

#[derive(Debug, Default)]
struct NullShared {
    epochs: Mutex<Vec<u64>>,
    open: Mutex<Option<u64>>,
    pages_written: AtomicU64,
    bytes_written: AtomicU64,
}

/// A backend that swallows page data, keeping only counts.
#[derive(Debug, Default)]
pub struct NullBackend {
    shared: Arc<NullShared>,
}

impl NullBackend {
    /// Fresh counter-only backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total pages accepted.
    pub fn pages_written(&self) -> u64 {
        self.shared.pages_written.load(Ordering::Relaxed)
    }
}

/// Open-epoch session on a [`NullBackend`].
#[derive(Debug)]
struct NullEpochWriter {
    shared: Arc<NullShared>,
    epoch: u64,
    closed: AtomicBool,
}

impl NullEpochWriter {
    fn close(&self, commit: bool) -> io::Result<()> {
        if self.closed.swap(true, Ordering::AcqRel) {
            return Err(io::Error::other("epoch session already closed"));
        }
        let mut open = self.shared.open.lock();
        match open.take() {
            Some(e) => {
                debug_assert_eq!(e, self.epoch);
                if commit {
                    self.shared.epochs.lock().push(e);
                }
                Ok(())
            }
            None => Err(io::Error::other("no open epoch")),
        }
    }
}

impl EpochWriter for NullEpochWriter {
    fn write_pages(&self, batch: &[(u64, &[u8])]) -> io::Result<()> {
        if self.closed.load(Ordering::Acquire) {
            return Err(io::Error::other("epoch session closed"));
        }
        let bytes: u64 = batch.iter().map(|(_, d)| d.len() as u64).sum();
        self.shared
            .pages_written
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        self.shared
            .bytes_written
            .fetch_add(bytes, Ordering::Relaxed);
        Ok(())
    }

    fn finish(&self) -> io::Result<()> {
        self.close(true)
    }

    fn abort(&self) -> io::Result<()> {
        self.close(false)
    }
}

impl Drop for NullEpochWriter {
    fn drop(&mut self) {
        if !self.closed.load(Ordering::Acquire) {
            let _ = self.close(false);
        }
    }
}

impl StorageBackend for NullBackend {
    fn begin_epoch(&self, epoch: u64) -> io::Result<Box<dyn EpochWriter>> {
        let mut open = self.shared.open.lock();
        if open.is_some() {
            return Err(io::Error::other("previous epoch still open"));
        }
        if self
            .shared
            .epochs
            .lock()
            .last()
            .is_some_and(|&l| epoch <= l)
        {
            return Err(io::Error::other("epoch not increasing"));
        }
        *open = Some(epoch);
        Ok(Box::new(NullEpochWriter {
            shared: Arc::clone(&self.shared),
            epoch,
            closed: AtomicBool::new(false),
        }))
    }

    fn epochs(&self) -> io::Result<Vec<u64>> {
        Ok(self.shared.epochs.lock().clone())
    }

    fn read_epoch(&self, epoch: u64, _visit: &mut dyn FnMut(u64, &[u8])) -> io::Result<()> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            format!("NullBackend discarded epoch {epoch}; nothing to read"),
        ))
    }

    fn bytes_written(&self) -> u64 {
        self.shared.bytes_written.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_but_stores_nothing() {
        let b = NullBackend::new();
        let w = b.begin_epoch(1).unwrap();
        w.write_pages(&[(0, &[0u8; 100]), (1, &[0u8; 50])]).unwrap();
        w.finish().unwrap();
        assert_eq!(b.pages_written(), 2);
        assert_eq!(b.bytes_written(), 150);
        assert_eq!(b.epochs().unwrap(), vec![1]);
        assert!(b.read_epoch(1, &mut |_, _| {}).is_err());
    }

    #[test]
    fn epoch_discipline_enforced() {
        let b = NullBackend::new();
        let w = b.begin_epoch(3).unwrap();
        assert!(b.begin_epoch(4).is_err(), "one open epoch at a time");
        w.abort().unwrap();
        b.begin_epoch(4).unwrap().finish().unwrap();
        assert!(b.begin_epoch(4).is_err(), "must increase");
    }
}
