//! The machine's floors under the runtime's write path, measured the way
//! the runtime meets them, as JSON.
//!
//! ```text
//! floors [--quick]
//! ```
//!
//! Each row times first writes to write-protected pages of a resident
//! anonymous region, one fault per page, with a handler that lifts just the
//! faulting page:
//!
//! * `mprotect` — the region `mprotect`ed `PROT_READ`; a write raises
//!   `SIGSEGV` and the handler `mprotect`s the page writable (the paper's
//!   mechanism, and the runtime's fallback);
//! * `uffd_wp` — the region registered with a userfaultfd for write-protect
//!   faults (`UFFD_FEATURE_SIGBUS`) and write-protected with one
//!   `UFFDIO_WRITEPROTECT`; a write raises `SIGBUS` and the handler lifts
//!   the page with one more.
//!
//! Shapes: every page of 8 192 in a random order and in address order, and
//! `resume` — a tenth of them (819) in a random order, the shape of the
//! benchmark's `restart` resume step. Runs alternate the two mechanisms;
//! each row reports the median and the interquartile range of its runs (µs
//! per fault), and the medians of the mappings over the region once the
//! writes are done and of the time to write-protect the whole region again
//! (what each `CHECKPOINT` does). `--quick` runs 1 024 pages, 3 times. The
//! bin uses the system interface only (`vendor/libc`), none of the runtime.

use std::sync::atomic::{AtomicI32, AtomicUsize, Ordering};
use std::time::Instant;

/// The region under test, for the handler: `[START, END)`.
static START: AtomicUsize = AtomicUsize::new(0);
static END: AtomicUsize = AtomicUsize::new(0);
/// The userfaultfd of a `uffd_wp` run; -1 during an `mprotect` run.
static UFFD: AtomicI32 = AtomicI32::new(-1);
static PAGE: AtomicUsize = AtomicUsize::new(4096);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Mechanism {
    Mprotect,
    UffdWp,
}

impl Mechanism {
    fn name(self) -> &'static str {
        match self {
            Mechanism::Mprotect => "mprotect",
            Mechanism::UffdWp => "uffd_wp",
        }
    }
}

/// Lift the faulting page and retry the write; a fault outside the region
/// goes back to the default action, which ends the process.
unsafe extern "C" fn on_fault(sig: libc::c_int, info: *mut libc::siginfo_t, _: *mut libc::c_void) {
    // SAFETY: the kernel hands an SA_SIGINFO handler a valid siginfo.
    let addr = unsafe { (*info).si_addr() } as usize;
    let ps = PAGE.load(Ordering::Relaxed);
    let page = addr & !(ps - 1);
    let ours = addr >= START.load(Ordering::Relaxed) && addr < END.load(Ordering::Relaxed);
    let lifted = ours
        && match UFFD.load(Ordering::Relaxed) {
            // SAFETY: a page of the region; mprotect is async-signal-safe.
            -1 => unsafe {
                libc::mprotect(
                    page as *mut libc::c_void,
                    ps,
                    libc::PROT_READ | libc::PROT_WRITE,
                ) == 0
            },
            fd => {
                let mut wp = libc::uffdio_writeprotect {
                    range: libc::uffdio_range {
                        start: page as u64,
                        len: ps as u64,
                    },
                    mode: libc::UFFDIO_WRITEPROTECT_MODE_DONTWAKE,
                };
                // SAFETY: the struct lives across the call; ioctl is
                // async-signal-safe.
                unsafe { libc::ioctl(fd, libc::UFFDIO_WRITEPROTECT, &mut wp) == 0 }
            }
        };
    if !lifted {
        // SAFETY: reinstall the default action for this signal.
        unsafe {
            let mut dfl: libc::sigaction = std::mem::zeroed();
            dfl.sa_sigaction = libc::SIG_DFL;
            libc::sigemptyset(&mut dfl.sa_mask);
            libc::sigaction(sig, &dfl, std::ptr::null_mut());
        }
    }
}

fn install_handler() {
    // SAFETY: a plain SA_SIGINFO installation for SIGSEGV and SIGBUS.
    unsafe {
        let mut action: libc::sigaction = std::mem::zeroed();
        action.sa_sigaction = on_fault as *const () as usize;
        action.sa_flags = libc::SA_SIGINFO;
        libc::sigemptyset(&mut action.sa_mask);
        for sig in [libc::SIGSEGV, libc::SIGBUS] {
            assert_eq!(libc::sigaction(sig, &action, std::ptr::null_mut()), 0);
        }
    }
}

/// A userfaultfd for write-protect faults delivered as `SIGBUS`, as the
/// runtime opens it; `None` where it does not open.
fn open_uffd() -> Option<libc::c_int> {
    let flags = libc::UFFD_USER_MODE_ONLY | libc::O_CLOEXEC | libc::O_NONBLOCK;
    // SAFETY: userfaultfd(2) takes one flags argument.
    let fd = unsafe { libc::syscall(libc::SYS_userfaultfd, flags) } as libc::c_int;
    if fd < 0 {
        return None;
    }
    let mut api = libc::uffdio_api {
        api: libc::UFFD_API,
        features: libc::UFFD_FEATURE_SIGBUS | libc::UFFD_FEATURE_WP_UNPOPULATED,
        ioctls: 0,
    };
    // SAFETY: the struct lives across the call.
    if unsafe { libc::ioctl(fd, libc::UFFDIO_API, &mut api) } != 0 {
        // SAFETY: our descriptor, closed once.
        unsafe { libc::close(fd) };
        return None;
    }
    Some(fd)
}

/// `0..n` in a seeded random order (Fisher–Yates over xorshift64).
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut x = seed | 1;
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        order.swap(i, (x % (i as u64 + 1)) as usize);
    }
    order
}

/// Mappings of this process that overlap `[start, end)`.
fn mappings(start: usize, end: usize) -> usize {
    let maps = std::fs::read_to_string("/proc/self/maps").unwrap_or_default();
    maps.lines()
        .filter_map(|line| {
            let (lo, hi) = line.split(' ').next()?.split_once('-')?;
            let lo = usize::from_str_radix(lo, 16).ok()?;
            let hi = usize::from_str_radix(hi, 16).ok()?;
            (lo < end && start < hi).then_some(())
        })
        .count()
}

/// Write-protect `[base, base + len)` with `how` (registered already for
/// `UffdWp`).
fn protect(how: Mechanism, uffd: libc::c_int, base: usize, len: usize) {
    let rc = match how {
        // SAFETY: a mapping of the caller's.
        Mechanism::Mprotect => unsafe {
            libc::mprotect(base as *mut libc::c_void, len, libc::PROT_READ)
        },
        Mechanism::UffdWp => {
            let mut wp = libc::uffdio_writeprotect {
                range: libc::uffdio_range {
                    start: base as u64,
                    len: len as u64,
                },
                mode: libc::UFFDIO_WRITEPROTECT_MODE_WP,
            };
            // SAFETY: the struct lives across the call.
            unsafe { libc::ioctl(uffd, libc::UFFDIO_WRITEPROTECT, &mut wp) }
        }
    };
    assert_eq!(rc, 0, "{} of {len} bytes", how.name());
}

/// What one run measured.
#[derive(Clone, Copy)]
struct Run {
    us_per_fault: f64,
    mappings: usize,
    reprotect_ms: f64,
}

/// One run: map `pages` resident pages, write-protect them with `how`,
/// write the first byte of each page of `order`, then write-protect the
/// region again.
fn run(how: Mechanism, uffd: libc::c_int, pages: usize, order: &[usize]) -> Run {
    let ps = PAGE.load(Ordering::Relaxed);
    let len = pages * ps;
    // SAFETY: a fresh private anonymous mapping, unmapped below.
    let base = unsafe {
        libc::mmap(
            std::ptr::null_mut(),
            len,
            libc::PROT_READ | libc::PROT_WRITE,
            libc::MAP_PRIVATE | libc::MAP_ANONYMOUS,
            -1,
            0,
        )
    };
    assert_ne!(base, libc::MAP_FAILED, "mmap of {len} bytes");
    let base = base as usize;
    for p in 0..pages {
        // SAFETY: inside the fresh mapping: every page resident.
        unsafe { ((base + p * ps) as *mut u8).write_volatile(1) };
    }
    START.store(base, Ordering::Relaxed);
    END.store(base + len, Ordering::Relaxed);
    match how {
        Mechanism::Mprotect => UFFD.store(-1, Ordering::Relaxed),
        Mechanism::UffdWp => {
            UFFD.store(uffd, Ordering::Relaxed);
            let mut register = libc::uffdio_register {
                range: libc::uffdio_range {
                    start: base as u64,
                    len: len as u64,
                },
                mode: libc::UFFDIO_REGISTER_MODE_WP,
                ioctls: 0,
            };
            // SAFETY: the struct lives across the call.
            let rc = unsafe { libc::ioctl(uffd, libc::UFFDIO_REGISTER, &mut register) };
            assert_eq!(rc, 0, "UFFDIO_REGISTER");
        }
    }
    protect(how, uffd, base, len);
    let started = Instant::now();
    for &p in order {
        // SAFETY: inside the mapping; the handler lifts the page.
        unsafe { ((base + p * ps) as *mut u8).write_volatile(2) };
    }
    let us_per_fault = started.elapsed().as_secs_f64() * 1e6 / order.len() as f64;
    let mappings = mappings(base, base + len);
    let started = Instant::now();
    protect(how, uffd, base, len);
    let reprotect_ms = started.elapsed().as_secs_f64() * 1e3;
    // SAFETY: our mapping; unmapping drops any registration.
    unsafe { libc::munmap(base as *mut libc::c_void, len) };
    Run {
        us_per_fault,
        mappings,
        reprotect_ms,
    }
}

/// The median of `v`.
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// The value at quantile `q` of sorted `v`, interpolated.
fn quantile(v: &[f64], q: f64) -> f64 {
    let at = q * (v.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
}

fn main() {
    let quick = std::env::args().skip(1).any(|a| a == "--quick");
    // SAFETY: sysconf is always safe to call.
    let ps = unsafe { libc::sysconf(libc::_SC_PAGESIZE) } as usize;
    PAGE.store(ps, Ordering::Relaxed);
    let (pages, repeats) = if quick { (1024, 3) } else { (8192, 10) };
    install_handler();
    let uffd = open_uffd();
    let shapes: [(&str, usize, bool); 3] = [
        ("random", pages, true),
        ("address", pages, false),
        ("resume", pages / 10, true),
    ];
    let mechanisms: Vec<Mechanism> = match uffd {
        Some(_) => vec![Mechanism::Mprotect, Mechanism::UffdWp],
        None => vec![Mechanism::Mprotect],
    };
    let mut rows = Vec::new();
    for (shape, writes, random) in shapes {
        let mut runs: Vec<Vec<Run>> = vec![Vec::new(); mechanisms.len()];
        for r in 0..repeats {
            let order = match random {
                true => permutation(pages, 0x5eed + r as u64)[..writes].to_vec(),
                false => (0..writes).collect(),
            };
            // Alternate which mechanism runs first.
            for k in 0..mechanisms.len() {
                let m = (k + r) % mechanisms.len();
                runs[m].push(run(mechanisms[m], uffd.unwrap_or(-1), pages, &order));
            }
        }
        for (m, runs) in mechanisms.iter().zip(runs) {
            let mut us: Vec<f64> = runs.iter().map(|r| r.us_per_fault).collect();
            us.sort_by(f64::total_cmp);
            let maps = median(runs.iter().map(|r| r.mappings as f64).collect());
            let reprotect = median(runs.iter().map(|r| r.reprotect_ms).collect());
            let list: Vec<String> = runs
                .iter()
                .map(|r| format!("{:.3}", r.us_per_fault))
                .collect();
            rows.push(format!(
                "    {{\"row\": \"write_fault.{}.{shape}\", \"unit\": \"us\", \"pages\": {pages}, \
                 \"faults\": {writes}, \"median\": {:.3}, \"iqr\": {:.3}, \
                 \"mappings_after\": {maps:.0}, \"reprotect_ms\": {reprotect:.3}, \"runs\": [{}]}}",
                m.name(),
                quantile(&us, 0.5),
                quantile(&us, 0.75) - quantile(&us, 0.25),
                list.join(", ")
            ));
        }
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("{{");
    println!("  \"host\": {{\"page_bytes\": {ps}, \"nproc\": {nproc}}},");
    println!("  \"repeats\": {repeats},");
    println!("  \"uffd_wp_opens\": {},", uffd.is_some());
    println!("  \"rows\": [\n{}\n  ]", rows.join(",\n"));
    println!("}}");
}
