//! `tenants_round`: a `CkptService` (2 shared workers, deficit round-robin
//! drain) hosting one light tenant and three heavy ones, each on a memory
//! fast tier that drains to its own file slow tier.
//!
//! One driver thread runs lockstep *service rounds*: dirty every tenant's
//! state, submit the three heavy checkpoints, then the light one, wait for
//! the light one, then for the rest. The shared flush pool, the attach
//! seam, the fair drain queue and the shared maintenance worker do the
//! work; submitting in lockstep from one thread is what makes it repeat
//! (an open-loop heavy/light design did not).

use std::io;
use std::sync::Arc;
use std::time::Instant;

use super::{
    add_io, check_footprint, first_store, fold_records, ms_since, restore_and_check, Env, Samples,
    Workload,
};
use crate::api::{self, Backend, CkptConfig, CkptService, Compression, PageManager};
use crate::api::{ProtectedBuffer, TieredBackend};
use crate::gen::Rng;
use crate::trace::span;

const WORKERS: usize = 2;
/// Undrained epochs a tenant's fast tier holds before `begin_epoch` drains
/// synchronously (back-pressure). Low enough that every run reaches it:
/// with 8 the backlog peaked anywhere from 4 to 8 epochs per tenant
/// depending on timing, and `peak_rss_MiB` with it (114–165 MiB).
const FAST_CAPACITY: usize = 4;

pub struct TenantsRound {
    /// Pages per tenant; the light tenant is last (submitted last).
    tenant_pages: Vec<usize>,
    service_rounds: usize,
    base_iters: usize,
}

struct Tenant {
    state: ProtectedBuffer,
    mgr: PageManager,
    tiered: Arc<TieredBackend>,
}

impl TenantsRound {
    pub fn new(quick: bool) -> Self {
        if quick {
            Self {
                tenant_pages: vec![64, 64, 64, 8],
                service_rounds: 6,
                base_iters: 6,
            }
        } else {
            Self {
                tenant_pages: vec![1024, 1024, 1024, 64], // 3 × 4 MiB + 256 KiB
                service_rounds: 60,
                base_iters: 60,
            }
        }
    }

    fn cfg(pages: usize) -> CkptConfig {
        CkptConfig::ai_ckpt(64 * api::page_size()).with_max_pages(pages + 16)
    }

    fn build(
        &self,
        dir: &std::path::Path,
        out: &mut Samples,
    ) -> io::Result<(CkptService, Vec<Tenant>)> {
        let svc = api::service_new(WORKERS);
        let mut tenants = Vec::new();
        for (i, &pages) in self.tenant_pages.iter().enumerate() {
            let tiered = Arc::new(api::tiered_memory_over_file(
                &api::tenant_dir(dir, i),
                Compression::None,
                FAST_CAPACITY,
            )?);
            let backend: Backend = tiered.clone();
            let mgr = api::add_tenant(&svc, &format!("tenant-{i}"), Self::cfg(pages), backend)?;
            let t = Instant::now();
            let state = api::alloc_protected(&mgr, "state", pages * api::page_size())?;
            out.alloc_ms.push(ms_since(t));
            tenants.push(Tenant { state, mgr, tiered });
        }
        Ok((svc, tenants))
    }
}

/// Rewrite every page of one tenant's state.
fn dirty(state: &mut [u8], page: usize, rng: &mut Rng, stalls: &mut Vec<u32>) {
    for p in state.chunks_exact_mut(page) {
        stalls.push(first_store(p));
        rng.fill(p);
    }
}

impl Workload for TenantsRound {
    fn state_bytes(&self) -> usize {
        self.tenant_pages.iter().sum::<usize>() * api::page_size()
    }

    fn prepare(&mut self, env: &Env<'_>, out: &mut Samples) -> io::Result<()> {
        let page = api::page_size();
        let mut rng = env.rng.fork(0xBA5E);
        let mut plain: Vec<Vec<u8>> = self
            .tenant_pages
            .iter()
            .map(|&p| vec![0u8; p * page])
            .collect();
        let mut scratch = Vec::new();
        for i in 0..=self.base_iters {
            scratch.clear();
            let t = Instant::now();
            for mem in &mut plain {
                dirty(mem, page, &mut rng, &mut scratch);
            }
            if i > 0 {
                out.base_iter_ms.push(ms_since(t));
            }
        }
        let root = env.roots.fresh("tenants-setup")?;
        let mut unused = Samples::default();
        let (svc, tenants) = self.build(root.path(), &mut unused)?;
        drop(tenants);
        drop(svc);
        Ok(())
    }

    fn round(&mut self, env: &Env<'_>, round: u64, out: &mut Samples) -> io::Result<()> {
        let _r = span("round");
        let page = api::page_size();
        let root = env.roots.fresh("tenants")?;
        let light = self.tenant_pages.len() - 1;
        let mut expect: Vec<Vec<u64>> = Vec::new();
        {
            let (svc, mut tenants) = self.build(root.path(), out)?;
            let mut rng = env.rng.fork(round);
            let timed_from = Instant::now();
            let mut first_wall = 0.0;
            for sr in 0..self.service_rounds {
                let _e = span("epoch");
                let mark = out.stall_ns.len();
                let t0 = Instant::now();
                {
                    let _s = span("app.sweep");
                    for t in &mut tenants {
                        dirty(t.state.as_mut_slice(), page, &mut rng, &mut out.stall_ns);
                    }
                }
                // Heavy tenants first, the light one last, all from this
                // thread; then wait for the light one before the rest.
                let tc = Instant::now();
                let mut ok = true;
                for t in &tenants {
                    ok &= api::checkpoint(&t.mgr).is_ok();
                }
                let call_ms = ms_since(tc);
                let iter_ms = ms_since(t0);
                ok &= api::wait_checkpoint(&tenants[light].mgr).is_ok();
                let light_ms = ms_since(tc);
                for t in &tenants[..light] {
                    ok &= api::wait_checkpoint(&t.mgr).is_ok();
                }
                let commit_ms = ms_since(tc);
                out.attempted += tenants.len() as u64;
                if !ok {
                    out.failed += 1;
                    eprintln!("FAILED: service round {sr} did not commit every tenant");
                }
                if sr == 0 {
                    out.stall_ns.truncate(mark);
                    first_wall = timed_from.elapsed().as_secs_f64();
                } else {
                    out.iter_ms.push(iter_ms);
                    out.ckpt_call_ms.push(call_ms);
                    out.light_commit_ms.push(light_ms);
                    out.commit_ms.push(commit_ms);
                }
                let s = svc.stats();
                out.max("service.queued_flushes_max", s.queued_flushes as f64);
                out.max("service.drain_backlog_max", s.drain_backlog as f64);
                for t in &tenants {
                    out.max(
                        "storage.tiered.backlog_max",
                        t.tiered.pending_drain().len() as f64,
                    );
                }
            }
            out.timed_wall_s += timed_from.elapsed().as_secs_f64() - first_wall;

            // Everything to the slow tier, then read the books.
            for t in &tenants {
                let idle = api::wait_maintenance_idle(&t.mgr);
                out.op(idle.is_ok(), "wait_maintenance_idle");
            }
            let s = svc.stats();
            out.add(
                "service.epochs_drained",
                s.maintenance.epochs_drained as f64,
            );
            out.add("service.flushes_failed", s.flushes_failed as f64);
            out.failed += s.flushes_failed;
            for ts in &s.tenants {
                fold_records(&ts.runtime.checkpoints, out);
                out.add("core.lock_acq", ts.runtime.engine_lock_acquisitions as f64);
                out.add("core.flushed_pages", ts.committed_pages as f64);
                out.add(
                    "runtime.scrub_bytes_verified",
                    ts.runtime.integrity.bytes_verified as f64,
                );
                add_io(&ts.runtime.io, out);
            }
            for t in &tenants {
                out.stored_bytes += t.tiered.slow().bytes_stored();
                out.add(
                    "storage.bytes_written",
                    t.tiered.slow().bytes_written() as f64,
                );
                expect.push(super::digests([&t.state]));
            }
            check_footprint(Some(root.path()), out);
            // Buffers and managers before the service they are attached to.
            drop(tenants);
            drop(svc);
        }
        // A restarted tenant reads its own slow tier; the fast tier was
        // memory and is gone.
        for (i, (&pages, expect)) in self.tenant_pages.iter().zip(&expect).enumerate() {
            let dir = api::tenant_dir(root.path(), i);
            let reopen = || -> io::Result<Backend> {
                Ok(Arc::new(api::open_file_backend(&dir, Compression::None)?))
            };
            // Restore timings come from the heavy tenants only: mixing a
            // 4 MiB and a 256 KiB image in one series would make its median
            // depend on the mix, not on the program.
            let mut unsampled = Samples::default();
            let sink = if i == light {
                &mut unsampled
            } else {
                &mut *out
            };
            restore_and_check(&Self::cfg(pages), &reopen, expect, (1, 1), sink)?;
            out.attempted += unsampled.attempted;
            out.failed += unsampled.failed;
        }
        out.rounds += 1;
        Ok(())
    }
}
