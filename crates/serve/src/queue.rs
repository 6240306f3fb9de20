//! Admission control: the bounded, priority-aware job queue in front of
//! the fleet (DESIGN.md §15).
//!
//! The queue is the service's only elastic buffer — everything behind it
//! (fleet slots, the journal) is sized by configuration, so
//! overload pressure must be absorbed *here*, as typed `SHED` decisions,
//! instead of as unbounded memory growth or latency. The policy:
//!
//! * under capacity, every valid submission is enqueued (FIFO);
//! * at capacity, a submission that outranks the lowest-priority queued
//!   entry **evicts** it (the newest such entry — earlier equal-priority
//!   submitters keep their FIFO claim) and takes the slot;
//! * otherwise the incoming job is shed.
//!
//! Resubmitting an id already queued is idempotent: the existing entry
//! is kept (its place in line included) and the duplicate reported as
//! such, so a reconnecting client cannot double-queue work.

use glsc_bench::jobspec::WireJobSpec;
use std::collections::VecDeque;

/// One admitted submission, in queue order.
#[derive(Clone, Debug)]
pub struct QueueEntry {
    /// Stable job id (see [`WireJobSpec::id`]).
    pub id: String,
    /// Admission priority (higher wins under overload).
    pub priority: u8,
    /// The validated spec.
    pub spec: WireJobSpec,
}

/// What [`AdmissionQueue::offer`] decided.
#[derive(Debug)]
pub enum Admission {
    /// The job took a free slot.
    Enqueued,
    /// The id is already queued; nothing changed.
    Duplicate,
    /// Queue full and the job did not outrank anything: it is dropped.
    Shed {
        /// Jobs queued at decision time.
        queued: usize,
        /// Queue capacity.
        capacity: usize,
    },
    /// The job took the slot of a lower-priority entry, which is dropped.
    Evicted {
        /// The entry that lost its slot (the caller journals and reports
        /// the late shed).
        victim: QueueEntry,
    },
}

/// The bounded queue. See the [module docs](self) for the policy.
#[derive(Debug)]
pub struct AdmissionQueue {
    capacity: usize,
    entries: VecDeque<QueueEntry>,
}

impl AdmissionQueue {
    /// An empty queue holding at most `capacity` jobs.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — a service that can accept nothing
    /// is a misconfiguration, not a policy.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "admission queue capacity must be positive");
        Self {
            capacity,
            entries: VecDeque::new(),
        }
    }

    /// Jobs currently queued.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Applies the admission policy to one submission.
    pub fn offer(&mut self, entry: QueueEntry) -> Admission {
        if self.entries.iter().any(|e| e.id == entry.id) {
            return Admission::Duplicate;
        }
        if self.entries.len() < self.capacity {
            self.entries.push_back(entry);
            return Admission::Enqueued;
        }
        let min = self
            .entries
            .iter()
            .map(|e| e.priority)
            .min()
            .expect("capacity > 0, so a full queue is non-empty");
        if entry.priority > min {
            let victim_at = self
                .entries
                .iter()
                .rposition(|e| e.priority == min)
                .expect("an entry carries the minimum");
            let victim = self
                .entries
                .remove(victim_at)
                .expect("rposition is in range");
            self.entries.push_back(entry);
            return Admission::Evicted { victim };
        }
        Admission::Shed {
            queued: self.entries.len(),
            capacity: self.capacity,
        }
    }

    /// Force-enqueues a journal-replayed job, bypassing the capacity
    /// check: the job was already admitted (and journaled) in a previous
    /// life of the service, so shedding it now would renege on a durable
    /// promise. Replays go to the *front* in reverse call order — callers
    /// iterate newest-first — keeping them ahead of this session's new
    /// submissions.
    pub fn restore(&mut self, entry: QueueEntry) {
        if !self.entries.iter().any(|e| e.id == entry.id) {
            self.entries.push_front(entry);
        }
    }

    /// Removes and returns the whole queue in run order.
    pub fn drain(&mut self) -> Vec<QueueEntry> {
        self.entries.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glsc_kernels::{Dataset, Variant};

    fn entry(id: &str, priority: u8) -> QueueEntry {
        QueueEntry {
            id: id.to_string(),
            priority,
            spec: WireJobSpec::kernel("HIP", Dataset::Tiny, Variant::Glsc, (1, 1), 4),
        }
    }

    #[test]
    fn fifo_under_capacity_and_shed_at_capacity() {
        let mut q = AdmissionQueue::new(2);
        assert!(matches!(q.offer(entry("a", 0)), Admission::Enqueued));
        assert!(matches!(q.offer(entry("b", 0)), Admission::Enqueued));
        match q.offer(entry("c", 0)) {
            Admission::Shed { queued, capacity } => {
                assert_eq!((queued, capacity), (2, 2));
            }
            other => panic!("expected shed, got {other:?}"),
        }
        let order: Vec<_> = q.drain().into_iter().map(|e| e.id).collect();
        assert_eq!(order, ["a", "b"]);
    }

    #[test]
    fn higher_priority_evicts_newest_lowest() {
        let mut q = AdmissionQueue::new(3);
        q.offer(entry("low-old", 1));
        q.offer(entry("mid", 5));
        q.offer(entry("low-new", 1));
        match q.offer(entry("vip", 9)) {
            Admission::Evicted { victim } => assert_eq!(victim.id, "low-new"),
            other => panic!("expected eviction, got {other:?}"),
        }
        // Equal priority does not evict — strict inequality only.
        assert!(matches!(q.offer(entry("peer", 1)), Admission::Shed { .. }));
        let order: Vec<_> = q.drain().into_iter().map(|e| e.id).collect();
        assert_eq!(order, ["low-old", "mid", "vip"]);
    }

    #[test]
    fn duplicates_and_restores_are_idempotent() {
        let mut q = AdmissionQueue::new(2);
        q.offer(entry("a", 0));
        assert!(matches!(q.offer(entry("a", 9)), Admission::Duplicate));
        assert_eq!(q.len(), 1);
        // Restore bypasses capacity and lands in front.
        q.offer(entry("b", 0));
        q.restore(entry("replayed", 0));
        assert_eq!(q.len(), 3);
        q.restore(entry("replayed", 0));
        assert_eq!(q.len(), 3, "restore is idempotent");
        let order: Vec<_> = q.drain().into_iter().map(|e| e.id).collect();
        assert_eq!(order, ["replayed", "a", "b"]);
    }
}
