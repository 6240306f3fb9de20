//! Reservation arbitration policies (DESIGN.md §12).
//!
//! The paper's GLSC design inherits ll/sc's weakest property: under
//! contention a scatter-conditional can fail indefinitely, because any
//! committed store to a line — including a *competing* thread's winning
//! `vscattercond` — kills every reservation on it (§3.2). The baseline
//! simulator arbitrates nothing: whichever thread's store-conditional
//! reaches the L1 port first wins, forever. This module adds two
//! hardware-side arbitration policies on top of that free-for-all,
//! selected per run via [`MemConfig::arbitration`](crate::MemConfig):
//!
//! * [`ArbitrationPolicy::Free`] — the historical behavior and the
//!   default. Byte-identical to the pre-arbitration simulator (pinned by
//!   the goldens differential).
//! * [`ArbitrationPolicy::NackHoldoff`] — a losing SC is NACKed and the
//!   line refuses *re-reservation by that loser* for a fixed window of
//!   cycles. The loser's `vgatherlink`/`ll` still returns data (loads are
//!   never blocked) but acquires no reservation, so its next SC fails
//!   cheaply at the port instead of stealing the line from the winner.
//!   This derates the retry storm without any notion of priority. An
//!   expired holdoff leaves a *re-arm grace* of one further window during
//!   which the loser's failures do not re-arm it: without the grace, a
//!   retry loop whose load-linked always lands inside the window would
//!   NACK itself forever (the post-expiry SC fails for want of a link and
//!   immediately opens a fresh window — a self-inflicted livelock the
//!   deterministic machine can never escape).
//! * [`ArbitrationPolicy::AgedPriority`] — reservations carry an age: the
//!   cycle the holder's current failure streak on the line began. A
//!   thread whose SC would commit on a line on which an *older* streak is
//!   active is refused (its own reservation stays intact); the oldest
//!   contender is never refused, so it commits on its next attempt and
//!   retires its streak. Ages are totally ordered by `(start cycle,
//!   global thread id)`, which bounds every thread's consecutive-failure
//!   run under contention — even when seeded chaos bursts keep killing
//!   reservations, the streak book survives (it lives here, not in the
//!   L1), so a victim's age keeps ratcheting it toward the front.
//!   Crucially, only a *genuine* loss — the reservation was killed by
//!   another thread's committed store, i.e. somebody made progress —
//!   opens a streak. A refusal does not: it would grant unearned age,
//!   and with several lock words per cache line a two-phase lock
//!   protocol then refuses itself in a perfect alternating livelock
//!   (each side's first-lock commit retires the streak it needs for its
//!   second lock).
//!
//! The [`Arbiter`] is deliberately *not* part of [`MemStats`]: resetting
//! statistics must never change timing. It is plain owned data inside
//! [`MemorySystem`](crate::MemorySystem), so machine clones copy it for
//! free.
//!
//! [`MemStats`]: crate::MemStats

/// Which reservation-arbitration policy the memory system applies to
/// store-conditionals and reservation acquisition. See the module docs
/// for the semantics of each variant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ArbitrationPolicy {
    /// First-committer-wins free-for-all (the paper's implicit policy and
    /// the default; byte-identical to the pre-arbitration simulator).
    #[default]
    Free,
    /// Losing SCs are NACKed: the loser cannot re-reserve the line for
    /// `window` cycles after a failed store-conditional, then gets one
    /// window of re-arm grace in which further failures do not re-NACK it.
    NackHoldoff {
        /// Holdoff length in cycles (must be non-zero).
        window: u64,
    },
    /// Age-ordered priority: an older failure streak on a line refuses
    /// younger committers, bounding per-thread consecutive SC failures.
    AgedPriority,
}

impl ArbitrationPolicy {
    /// Short lowercase label for figure output and job-store keys.
    pub fn label(&self) -> &'static str {
        match self {
            ArbitrationPolicy::Free => "free",
            ArbitrationPolicy::NackHoldoff { .. } => "nack",
            ArbitrationPolicy::AgedPriority => "aged",
        }
    }
}

/// One armed NACK holdoff: `(core, tid)` may not re-reserve `line` while
/// `now < until`, and further failures do not re-arm the entry until
/// `rearm_at` — the grace in which the loser re-links and attempts at
/// full speed (see the module docs for why the grace is load-bearing).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Holdoff {
    core: usize,
    tid: u8,
    line: u64,
    until: u64,
    rearm_at: u64,
}

/// One active failure streak: global thread `gid`'s store-conditionals on
/// `line` have been failing since cycle `start`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Streak {
    gid: usize,
    line: u64,
    start: u64,
}

/// Runtime state of the active arbitration policy. Owned by
/// [`MemorySystem`](crate::MemorySystem) (hence copied by clones); empty
/// and untouched under [`ArbitrationPolicy::Free`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Arbiter {
    /// Armed NACK holdoffs (NackHoldoff only). Expired entries are pruned
    /// on every consult, keeping the vector small and the state
    /// insensitive to *when* it is observed.
    holdoffs: Vec<Holdoff>,
    /// Active failure streaks (AgedPriority only), at most one per
    /// `(gid, line)` pair.
    streaks: Vec<Streak>,
}

impl Arbiter {
    /// Drops every holdoff whose grace has also passed by cycle `now`.
    fn prune_holdoffs(&mut self, now: u64) {
        self.holdoffs.retain(|h| h.rearm_at > now);
    }

    /// Whether `(core, tid)` is currently held off from reserving `line`.
    /// Prunes spent entries first so the answer is purely a function of
    /// `(state, now)`. An entry inside its re-arm grace (`until <= now <
    /// rearm_at`) no longer blocks.
    pub fn in_holdoff(&mut self, core: usize, tid: u8, line: u64, now: u64) -> bool {
        self.prune_holdoffs(now);
        self.holdoffs
            .iter()
            .any(|h| h.core == core && h.tid == tid && h.line == line && now < h.until)
    }

    /// Arms a holdoff forbidding `(core, tid)` from re-reserving `line`
    /// until `now + window`. An existing entry for the same key — still
    /// blocking *or* inside its re-arm grace — is left untouched: a
    /// thread slamming SCs into a line it cannot reserve must not keep
    /// extending (or, post-expiry, instantly re-opening) its own penalty
    /// window.
    pub fn arm_holdoff(&mut self, core: usize, tid: u8, line: u64, now: u64, window: u64) {
        self.prune_holdoffs(now);
        if self
            .holdoffs
            .iter()
            .any(|h| h.core == core && h.tid == tid && h.line == line)
        {
            return;
        }
        let until = now.saturating_add(window);
        self.holdoffs.push(Holdoff {
            core,
            tid,
            line,
            until,
            rearm_at: until.saturating_add(window),
        });
    }

    /// Whether global thread `gid`'s otherwise-committable SC on `line`
    /// must be refused because a strictly older streak is active on the
    /// line. `gid`'s own priority is its existing streak's start (it has
    /// been waiting since then) or `now` if it has none; ties break toward
    /// the lower thread id, making the order total and the refusal
    /// relation acyclic — the oldest contender is never refused.
    pub fn must_refuse(&self, gid: usize, line: u64, now: u64) -> bool {
        let own = self
            .streaks
            .iter()
            .find(|s| s.gid == gid && s.line == line)
            .map_or(now, |s| s.start);
        self.streaks
            .iter()
            .any(|s| s.line == line && s.gid != gid && (s.start, s.gid) < (own, gid))
    }

    /// Records a failed SC by `gid` on `line` at `now`: opens a streak if
    /// none is active (an existing streak keeps its original, older
    /// start).
    pub fn note_failure(&mut self, gid: usize, line: u64, now: u64) {
        if self.streaks.iter().any(|s| s.gid == gid && s.line == line) {
            return;
        }
        self.streaks.push(Streak {
            gid,
            line,
            start: now,
        });
    }

    /// Records a committed SC by `gid` on `line`: retires its streak.
    pub fn note_success(&mut self, gid: usize, line: u64) {
        self.streaks.retain(|s| !(s.gid == gid && s.line == line));
    }

    /// Whether the arbiter holds no state (true for the whole lifetime of
    /// a `Free` run).
    pub fn is_idle(&self) -> bool {
        self.holdoffs.is_empty() && self.streaks.is_empty()
    }

    /// Active streaks as `(gid, line, start)` tuples.
    #[cfg(test)]
    fn streak_entries(&self) -> Vec<(usize, u64, u64)> {
        self.streaks
            .iter()
            .map(|s| (s.gid, s.line, s.start))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_free() {
        assert_eq!(ArbitrationPolicy::default(), ArbitrationPolicy::Free);
        assert_eq!(ArbitrationPolicy::Free.label(), "free");
        assert_eq!(ArbitrationPolicy::NackHoldoff { window: 8 }.label(), "nack");
        assert_eq!(ArbitrationPolicy::AgedPriority.label(), "aged");
    }

    #[test]
    fn holdoff_expires_and_does_not_extend() {
        let mut a = Arbiter::default();
        a.arm_holdoff(0, 1, 0x40, 100, 10);
        assert!(a.in_holdoff(0, 1, 0x40, 100));
        assert!(a.in_holdoff(0, 1, 0x40, 109));
        // Re-arming mid-window must not push the expiry out.
        a.arm_holdoff(0, 1, 0x40, 105, 10);
        assert!(!a.in_holdoff(0, 1, 0x40, 110));
        // Other keys are unaffected.
        a.arm_holdoff(0, 1, 0x40, 200, 10);
        assert!(!a.in_holdoff(0, 0, 0x40, 200));
        assert!(!a.in_holdoff(1, 1, 0x40, 200));
        assert!(!a.in_holdoff(0, 1, 0x80, 200));
    }

    #[test]
    fn rearm_grace_blocks_self_inflicted_renack() {
        let mut a = Arbiter::default();
        a.arm_holdoff(0, 1, 0x40, 100, 10);
        // Window [100, 110): blocking. Grace [110, 120): open, but a
        // failure right after expiry must not re-open the window.
        assert!(!a.in_holdoff(0, 1, 0x40, 110));
        a.arm_holdoff(0, 1, 0x40, 111, 10);
        assert!(!a.in_holdoff(0, 1, 0x40, 112), "grace defeated");
        assert!(!a.is_idle(), "graced entry still on the books");
        // Once the grace passes, the entry is gone and arming works again.
        a.arm_holdoff(0, 1, 0x40, 120, 10);
        assert!(a.in_holdoff(0, 1, 0x40, 125));
        assert!(!a.in_holdoff(0, 1, 0x40, 140));
        a.prune_holdoffs(140);
        assert!(a.is_idle());
    }

    #[test]
    fn oldest_streak_is_never_refused() {
        let mut a = Arbiter::default();
        a.note_failure(3, 0x40, 50);
        a.note_failure(1, 0x40, 60);
        // gid 3 opened first: it commits, everyone else waits.
        assert!(!a.must_refuse(3, 0x40, 70));
        assert!(a.must_refuse(1, 0x40, 70));
        // gid 7 has no streak yet -> its age is `now`, the youngest.
        assert!(a.must_refuse(7, 0x40, 70));
        // A different line is free-for-all.
        assert!(!a.must_refuse(1, 0x80, 70));
        // Once the elder commits, the next-oldest takes over.
        a.note_success(3, 0x40);
        assert!(!a.must_refuse(1, 0x40, 70));
        assert!(a.must_refuse(7, 0x40, 70));
        a.note_success(1, 0x40);
        assert!(a.is_idle());
    }

    #[test]
    fn streak_start_is_sticky_and_ties_break_by_gid() {
        let mut a = Arbiter::default();
        a.note_failure(2, 0x40, 10);
        a.note_failure(2, 0x40, 99); // keeps start = 10
        assert_eq!(a.streak_entries(), vec![(2, 0x40, 10)]);
        a.note_failure(1, 0x40, 10); // same age, lower gid wins
        assert!(!a.must_refuse(1, 0x40, 10));
        assert!(a.must_refuse(2, 0x40, 10));
    }
}

// ---- wire serialization --------------------------------------------------

impl glsc_wire::Wire for ArbitrationPolicy {
    fn encode(&self, w: &mut glsc_wire::Writer) {
        match self {
            ArbitrationPolicy::Free => w.put_u8(0),
            ArbitrationPolicy::NackHoldoff { window } => {
                w.put_u8(1);
                window.encode(w);
            }
            ArbitrationPolicy::AgedPriority => w.put_u8(2),
        }
    }
    fn decode(r: &mut glsc_wire::Reader<'_>) -> Result<Self, glsc_wire::WireError> {
        let at = r.pos();
        match r.get_u8()? {
            0 => Ok(ArbitrationPolicy::Free),
            1 => Ok(ArbitrationPolicy::NackHoldoff {
                window: glsc_wire::Wire::decode(r)?,
            }),
            2 => Ok(ArbitrationPolicy::AgedPriority),
            _ => Err(glsc_wire::WireError::Invalid {
                at,
                what: "ArbitrationPolicy tag",
            }),
        }
    }
}

glsc_wire::wire_struct!(Holdoff {
    core,
    tid,
    line,
    until,
    rearm_at,
});
glsc_wire::wire_struct!(Streak { gid, line, start });
glsc_wire::wire_struct!(Arbiter { holdoffs, streaks });
