//! Fair multi-tenant drain arbitration: deficit round-robin over per-tenant
//! backlogs.
//!
//! The multi-tenant service commits every tenant's epochs into a fast tier
//! and drains them to the durable tier from **one** shared maintenance
//! worker. Which backlog entry that worker serves next is a scheduling
//! policy, and it decides tail latency under skew: oldest-first across all
//! tenants lets one heavy tenant's long backlog starve everyone else's
//! (light tenants' fast tiers fill up behind it and their `begin_epoch`
//! calls block on synchronous eviction), while deficit round-robin (DRR,
//! Shreedhar & Varghese) gives each tenant a byte budget per round so a
//! light tenant's occasional epoch is drained promptly no matter how deep
//! the heavy backlog is. Over a single tenant — a private pool — DRR *is*
//! FIFO, so there is one policy and no switch.
//!
//! [`DrainQueue`] is a pure data structure (no threads, no clocks).

use std::collections::{HashMap, VecDeque};

/// Byte budget a tenant's deficit grows by per round (1 MiB): a few
/// hundred pages, so one round moves a useful batch per tenant while a
/// light tenant still waits at most one quantum per heavy neighbour. Costs
/// far above it are handled by the fast-forward in [`DrainQueue::pop`], so
/// the value shapes interleaving granularity, never termination.
pub const QUANTUM: u64 = 1 << 20;

/// One backlog entry handed back by [`DrainQueue::pop`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainItem {
    /// Owning tenant.
    pub tenant: u64,
    /// Caller-defined payload (the service stores the epoch number).
    pub item: u64,
    /// Cost in bytes the arbitration charged for this entry.
    pub cost: u64,
}

/// Entry as stored: `(item, cost)`.
type Entry = (u64, u64);

/// Multi-tenant drain backlog arbitrated by deficit round-robin.
///
/// Entries are pushed per tenant in FIFO order (matching a tiered backend's
/// internal oldest-first drain). Within one tenant, order is always FIFO;
/// the round-robin only decides *which tenant* goes next: each round, a
/// tenant's deficit grows by [`QUANTUM`] bytes and it may serve entries
/// while the deficit covers their cost.
#[derive(Debug, Default)]
pub struct DrainQueue {
    queues: HashMap<u64, VecDeque<Entry>>,
    /// Tenants with a non-empty queue, in round order.
    ring: VecDeque<u64>,
    deficit: HashMap<u64, u64>,
    /// Tenant whose current front-of-ring visit already received its
    /// quantum (DRR grants once per arrival, not once per pop).
    visit: Option<u64>,
    len: usize,
}

impl DrainQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an entry to `tenant`'s backlog. A zero cost is clamped to 1
    /// so an all-clean epoch cannot starve the round-robin accounting.
    pub fn push(&mut self, tenant: u64, item: u64, cost: u64) {
        let q = self.queues.entry(tenant).or_default();
        if q.is_empty() && !self.ring.contains(&tenant) {
            self.ring.push_back(tenant);
        }
        q.push_back((item, cost.max(1)));
        self.len += 1;
    }

    /// Remove and return the next entry in deficit round-robin order, or
    /// `None` when every backlog is empty.
    pub fn pop(&mut self) -> Option<DrainItem> {
        if self.len == 0 {
            return None;
        }
        let mut rotations = 0usize;
        loop {
            let &tenant = self.ring.front()?;
            // A new arrival at the front of the ring begins a visit and
            // earns one quantum; further pops during the same visit spend
            // the remaining deficit without re-granting, so a tenant that
            // exhausts its budget rotates away instead of monopolising.
            if self.visit != Some(tenant) {
                *self.deficit.entry(tenant).or_insert(0) += QUANTUM;
                self.visit = Some(tenant);
            }
            let cost = self.queues[&tenant].front().map(|&(_, c)| c)?;
            let deficit = self.deficit.entry(tenant).or_insert(0);
            if *deficit >= cost {
                *deficit -= cost;
                return self.take_front(tenant);
            }
            self.ring.rotate_left(1);
            rotations += 1;
            if rotations >= self.ring.len() {
                // A full rotation served nothing: every head entry costs
                // more than its tenant's deficit. Fast-forward the rounds
                // in one step instead of spinning quantum-by-quantum.
                let rounds = self
                    .ring
                    .iter()
                    .map(|t| {
                        let c = self.queues[t].front().map(|&(_, c)| c).unwrap_or(0);
                        let d = self.deficit.get(t).copied().unwrap_or(0);
                        (c.saturating_sub(d)).div_ceil(QUANTUM)
                    })
                    .min()
                    .unwrap_or(1)
                    .max(1);
                for t in &self.ring {
                    *self.deficit.entry(*t).or_insert(0) += rounds.saturating_mul(QUANTUM);
                }
                rotations = 0;
            }
        }
    }

    fn take_front(&mut self, tenant: u64) -> Option<DrainItem> {
        let q = self.queues.get_mut(&tenant)?;
        let (item, cost) = q.pop_front()?;
        self.len -= 1;
        if q.is_empty() {
            self.queues.remove(&tenant);
            self.ring.retain(|&t| t != tenant);
            // A tenant leaving the round forfeits its unspent deficit, or
            // an on/off tenant would accumulate an unbounded burst budget.
            self.deficit.remove(&tenant);
        }
        Some(DrainItem { tenant, item, cost })
    }

    /// Drop every entry of `tenant` (detach).
    pub fn remove_tenant(&mut self, tenant: u64) {
        if let Some(q) = self.queues.remove(&tenant) {
            self.len -= q.len();
        }
        self.ring.retain(|&t| t != tenant);
        self.deficit.remove(&tenant);
        if self.visit == Some(tenant) {
            self.visit = None;
        }
    }

    /// Entries queued for `tenant`.
    pub fn backlog(&self, tenant: u64) -> usize {
        self.queues.get(&tenant).map(VecDeque::len).unwrap_or(0)
    }

    /// Total entries queued across all tenants.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entry is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_order(q: &mut DrainQueue) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| q.pop().map(|d| (d.tenant, d.item))).collect()
    }

    #[test]
    fn drr_interleaves_a_heavy_backlog_with_light_tenants() {
        let mut q = DrainQueue::new();
        // Heavy tenant arrives first with a deep backlog...
        for i in 0..8 {
            q.push(0, i, QUANTUM);
        }
        // ...then two light tenants with one entry each.
        q.push(1, 100, QUANTUM);
        q.push(2, 200, QUANTUM);
        let order = drain_order(&mut q);
        let light1 = order.iter().position(|&(t, _)| t == 1).unwrap();
        let light2 = order.iter().position(|&(t, _)| t == 2).unwrap();
        // Under oldest-first both lights would sit at positions 8 and 9;
        // DRR serves them within the first round.
        assert!(light1 <= 2, "light tenant 1 served late: {order:?}");
        assert!(light2 <= 3, "light tenant 2 served late: {order:?}");
        assert_eq!(order.len(), 10);
    }

    #[test]
    fn drr_shares_bytes_not_entry_counts() {
        // Tenant 0 queues big entries, tenant 1 small ones: per round,
        // tenant 1 should serve ~4x as many entries.
        let mut q = DrainQueue::new();
        for i in 0..4 {
            q.push(0, i, QUANTUM);
        }
        for i in 0..16 {
            q.push(1, i, QUANTUM / 4);
        }
        let order = drain_order(&mut q);
        let first_8: Vec<u64> = order[..8].iter().map(|&(t, _)| t).collect();
        let big = first_8.iter().filter(|&&t| t == 0).count();
        let small = first_8.iter().filter(|&&t| t == 1).count();
        assert!(
            (2..=3).contains(&big) && small >= 5,
            "byte-fair split violated: {order:?}"
        );
    }

    #[test]
    fn drr_fast_forwards_when_costs_exceed_the_quantum() {
        let mut q = DrainQueue::new();
        q.push(7, 1, 1_000_000 * QUANTUM);
        q.push(8, 2, 500_000 * QUANTUM);
        // Must terminate promptly despite costs ≫ quantum (fast-forward).
        let order = drain_order(&mut q);
        assert_eq!(order.len(), 2);
        assert_eq!(order[0], (8, 2), "cheaper head is reached first");
    }

    #[test]
    fn zero_cost_entries_are_clamped_and_within_tenant_order_is_fifo() {
        let mut q = DrainQueue::new();
        q.push(1, 1, 0);
        q.push(1, 2, 0);
        q.push(1, 3, 0);
        let order = drain_order(&mut q);
        assert_eq!(order, vec![(1, 1), (1, 2), (1, 3)]);
    }

    #[test]
    fn remove_tenant_drops_its_backlog_and_deficit() {
        let mut q = DrainQueue::new();
        q.push(1, 1, 10);
        q.push(2, 2, 10);
        q.push(1, 3, 10);
        assert_eq!(q.backlog(1), 2);
        q.remove_tenant(1);
        assert_eq!(q.backlog(1), 0);
        assert_eq!(q.len(), 1);
        assert_eq!(drain_order(&mut q), vec![(2, 2)]);
    }
}
