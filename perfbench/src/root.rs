//! Storage-root hygiene. Every round runs on a fresh directory under one
//! per-process root, removed on success, error and panic alike: a leaked
//! root both skews the next run (page cache, free space) and counts against
//! the 1 GiB live-footprint rule.

use std::io;
use std::path::{Path, PathBuf};

/// Directory-name prefix of every root this benchmark creates.
pub const PREFIX: &str = "ai-ckpt-bench-";

/// Where roots go unless `--root` says otherwise: inside the build
/// directory, which is inside the checkout (the benchmark may write nowhere
/// else) and already ignored by git. `CARGO_TARGET_DIR` is what the driver
/// sets; `perfbench/target` is cargo's default for this package when the
/// command runs from the repository root.
pub fn default_base() -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => PathBuf::from("perfbench/target"),
    }
}

/// Roots left behind under `base` by processes that no longer exist (a
/// root whose owner is still running belongs to a concurrent run).
pub fn stale_roots(base: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(base) else {
        return Vec::new();
    };
    let owner_alive = |name: &str| {
        name.strip_prefix(PREFIX)
            .and_then(|pid| pid.parse::<u32>().ok())
            .is_some_and(|pid| Path::new(&format!("/proc/{pid}")).exists())
    };
    let mut found: Vec<PathBuf> = entries
        .flatten()
        .filter(|e| {
            let name = e.file_name();
            let name = name.to_string_lossy();
            name.starts_with(PREFIX) && !owner_alive(&name)
        })
        .filter(|e| e.path().is_dir())
        .map(|e| e.path())
        .collect();
    found.sort();
    found
}

/// Owns `base/ai-ckpt-bench-<pid>` for the life of the process.
#[derive(Debug)]
pub struct RootGuard {
    dir: PathBuf,
    next: std::cell::Cell<u64>,
}

impl RootGuard {
    /// Create this process's root. Refuses to start beside stale roots
    /// unless `clean` removes them first.
    pub fn create(base: &Path, clean: bool) -> io::Result<Self> {
        let stale = stale_roots(base);
        if !stale.is_empty() {
            if !clean {
                return Err(io::Error::other(format!(
                    "stale benchmark roots exist (pass --clean to remove them): {}",
                    stale
                        .iter()
                        .map(|p| p.display().to_string())
                        .collect::<Vec<_>>()
                        .join(", ")
                )));
            }
            for dir in &stale {
                std::fs::remove_dir_all(dir)?;
            }
        }
        let dir = base.join(format!("{PREFIX}{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            next: std::cell::Cell::new(0),
        })
    }

    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// A fresh, empty sub-root; removed (with everything in it) when the
    /// returned handle drops.
    pub fn fresh(&self, tag: &str) -> io::Result<RoundRoot> {
        let n = self.next.get();
        self.next.set(n + 1);
        let dir = self.dir.join(format!("{tag}-{n}"));
        std::fs::create_dir_all(&dir)?;
        Ok(RoundRoot { dir })
    }
}

impl Drop for RootGuard {
    fn drop(&mut self) {
        // Runs on normal exit, `?` propagation and unwinding alike.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One round's directory.
#[derive(Debug)]
pub struct RoundRoot {
    dir: PathBuf,
}

impl RoundRoot {
    pub fn path(&self) -> &Path {
        &self.dir
    }
}

impl Drop for RoundRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("perfbench-root-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn roots_vanish_on_drop_and_on_panic() {
        let base = scratch("drop");
        let leaked = {
            let guard = RootGuard::create(&base, false).unwrap();
            let round = guard.fresh("r").unwrap();
            std::fs::write(round.path().join("seg"), b"x").unwrap();
            let second = guard.fresh("r").unwrap();
            assert_ne!(round.path(), second.path());
            let kept = round.path().to_path_buf();
            drop(round);
            assert!(!kept.exists(), "round root removed with its files");
            guard.path().to_path_buf()
        };
        assert!(!leaked.exists());

        let base2 = base.clone();
        let unwound = std::panic::catch_unwind(move || {
            let guard = RootGuard::create(&base2, false).unwrap();
            let _round = guard.fresh("r").unwrap();
            panic!("mid-round failure");
        });
        assert!(unwound.is_err());
        let ours = base.join(format!("{PREFIX}{}", std::process::id()));
        assert!(!ours.exists(), "panic leaves nothing behind");
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn stale_roots_block_the_start_unless_cleaned() {
        let base = scratch("stale");
        // No process can have this pid (above any pid_max), so it is stale.
        let old = base.join(format!("{PREFIX}4294967295"));
        std::fs::create_dir_all(old.join("r-0")).unwrap();
        std::fs::write(base.join("unrelated"), b"").unwrap();
        let err = RootGuard::create(&base, false).unwrap_err();
        assert!(err.to_string().contains("--clean"), "{err}");
        assert!(old.exists(), "refusal removes nothing");
        let guard = RootGuard::create(&base, true).unwrap();
        assert!(!old.exists());
        assert!(
            base.join("unrelated").exists(),
            "only our prefix is touched"
        );
        assert!(
            stale_roots(&base).is_empty(),
            "a live owner's root is not stale"
        );
        drop(guard);
        std::fs::remove_dir_all(&base).unwrap();
    }
}
