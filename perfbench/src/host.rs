//! What the machine can do, measured in the same run on the same root:
//! the ceilings the `*_frac_of_*` layer metrics are divided by, and the
//! facts (file system, cores, cache size) a reader needs to place the
//! numbers. None of these should move with a change to the program.

use std::hint::black_box;
use std::io;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::time::Instant;

use crate::api::{page_size, MappedRegion, Protection};
use crate::stats::median;

/// File-system type of the mount holding `path` (longest mount-point prefix
/// in `/proc/self/mounts`), or "unknown".
pub fn fs_type(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (_dev, mount, ty) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), ty.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, ty)| ty)
}

/// Size of the largest cache level cpu0 reports, in bytes (0 if unknown).
pub fn llc_bytes() -> u64 {
    (0..8)
        .filter_map(|i| {
            let text = std::fs::read_to_string(format!(
                "/sys/devices/system/cpu/cpu0/cache/index{i}/size"
            ))
            .ok()?;
            parse_size(text.trim())
        })
        .max()
        .unwrap_or(0)
}

/// "4096K" / "260M" / "512" as the kernel's cache `size` files print them.
fn parse_size(text: &str) -> Option<u64> {
    let (digits, unit) = match text.char_indices().find(|(_, c)| !c.is_ascii_digit()) {
        Some((at, _)) => text.split_at(at),
        None => (text, ""),
    };
    let n: u64 = digits.parse().ok()?;
    match unit {
        "" => Some(n),
        "K" => Some(n << 10),
        "M" => Some(n << 20),
        "G" => Some(n << 30),
        _ => None,
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A `kB` field of `/proc/self/status`, in MiB (0 if absent).
fn status_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM")
}

/// Resident set of this process now (`VmRSS`), in MiB.
pub fn rss_mib() -> f64 {
    status_mib("VmRSS")
}

/// The `host.*` layer metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct Host {
    /// Copy rate at the state-buffer size. That size is far below this
    /// box's last-level cache, so the figure is an *in-cache* rate.
    pub memcpy_gib_s: f64,
    pub pwrite_mib_s: f64,
    pub fsync_p50_us: f64,
    pub mprotect_page_us: f64,
    pub clock_ns: f64,
}

/// Calibrate against `dir` (the run's own storage root) at `state_bytes`.
pub fn calibrate(dir: &Path, state_bytes: usize) -> io::Result<Host> {
    let _s = crate::trace::span("host.calibrate");
    let ps = page_size();

    // Clock: back-to-back reads, the floor under every stall sample.
    const CLOCK_READS: u32 = 20_000;
    let t = Instant::now();
    for _ in 0..CLOCK_READS {
        black_box(Instant::now());
    }
    let clock_ns = t.elapsed().as_nanos() as f64 / CLOCK_READS as f64;

    // memcpy at the state-buffer size.
    let src = vec![0x5Au8; state_bytes];
    let mut dst = vec![0u8; state_bytes];
    dst.copy_from_slice(&src); // fault both in
    let copies = ((256usize << 20) / state_bytes).clamp(2, 64);
    let t = Instant::now();
    for _ in 0..copies {
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
    }
    let memcpy_gib_s =
        (copies * state_bytes) as f64 / t.elapsed().as_secs_f64() / (1u64 << 30) as f64;

    // pwrite + fsync on the chosen root. The writes land in the page cache
    // (as the write engine's do), so the rate is the kernel's copy-in rate;
    // device time shows in the fsync latency of single-page writes. Kept
    // small on purpose: this runs inside every set-up, and a large synced
    // write would put the device's mood into `setup_s`.
    let path = dir.join("host-calibration.bin");
    let file = std::fs::OpenOptions::new()
        .create(true)
        .truncate(true)
        .read(true)
        .write(true)
        .open(&path)?;
    let chunk = &src[..(1 << 20).min(state_bytes)];
    const CHUNKS: usize = 8;
    let t = Instant::now();
    for i in 0..CHUNKS {
        file.write_all_at(chunk, (i * chunk.len()) as u64)?;
    }
    let pwrite_mib_s =
        (CHUNKS * chunk.len()) as f64 / t.elapsed().as_secs_f64() / (1u64 << 20) as f64;
    drop(file);
    std::fs::remove_file(&path)?; // unsynced: the dirty pages are dropped
    let file = std::fs::File::create(&path)?;
    let mut fsync_us = Vec::new();
    for i in 0..9u64 {
        file.write_all_at(&chunk[..ps], i * ps as u64)?;
        let t = Instant::now();
        file.sync_all()?;
        fsync_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(file);
    std::fs::remove_file(&path)?;

    // mprotect of one page, the unit of work inside every write fault.
    let region = MappedRegion::new(64 * ps)?;
    const FLIPS: usize = 4096;
    let t = Instant::now();
    for i in 0..FLIPS {
        let prot = if i & 64 == 0 {
            Protection::ReadOnly
        } else {
            Protection::ReadWrite
        };
        region.protect_page(i % 64, prot)?;
    }
    let mprotect_page_us = t.elapsed().as_secs_f64() * 1e6 / FLIPS as f64;

    Ok(Host {
        memcpy_gib_s,
        pwrite_mib_s,
        fsync_p50_us: median(&fsync_us),
        mprotect_page_us,
        clock_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse_kernel_suffixes() {
        assert_eq!(parse_size("32K"), Some(32 << 10));
        assert_eq!(parse_size("260M"), Some(260 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("1G"), Some(1 << 30));
        assert_eq!(parse_size("x"), None);
        assert_eq!(parse_size("4T"), None);
    }

    #[test]
    fn host_facts_are_present_on_linux() {
        assert!(nproc() >= 1);
        assert!(rss_mib() > 0.0 && peak_rss_mib() >= rss_mib());
        assert_ne!(fs_type(Path::new("/proc")), "unknown");
    }
}
