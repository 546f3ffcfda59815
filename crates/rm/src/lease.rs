//! Per-node heartbeat leases: the failure *detector*.
//!
//! The fault plane kills nodes; nobody tells the resource manager. What the
//! RM actually observes is telemetry going quiet — so each managed node
//! holds a lease that its heartbeats renew, and a lease that outlives
//! [`LeaseTable::timeout`] ticks without a beat declares the node dead.
//! That declaration is the trigger for the whole failure path: drain the
//! node, reclaim its watts, kill and requeue the job on it.
//!
//! The detector is deliberately fallible in the same way real ones are: a
//! long telemetry blackout on a *live* node still expires the lease, and
//! the node gets drained anyway (a false positive the campaign later
//! repairs by restoring the node when its telemetry resumes). Tightening
//! the timeout trades detection latency against exactly those false kills.
//!
//! # A telemetry round costs its silent nodes
//!
//! In a healthy fleet every node beats every round, so the table does not
//! store a round's beat per node. It keeps one *watermark* — the latest
//! round of [`LeaseTable::beat_all_except`] — and a node that beat in every
//! round since it was last touched is *attached*: its last beat is the
//! watermark. Only a node whose last beat no longer follows the watermark
//! (silent in some round, beaten or tracked on its own at another time) is
//! *detached* and holds its own time, and the detached nodes are kept on a
//! short list. A round touches the silent nodes and the detached list and
//! then moves the watermark; [`LeaseTable::expire`] reads only the detached
//! list, because an attached node is exactly as fresh as the watermark —
//! unless the watermark itself has gone stale (no round for longer than the
//! timeout), when it falls back to a scan of every node. State is one dense
//! `Vec<u64>` indexed by [`NodeId`], so every per-node access is an index.

use pmstack_obs::StaticCounter;
use pmstack_simhw::NodeId;

/// Observability: leases that expired and declared their node dead.
pub(crate) static LEASES_EXPIRED: StaticCounter = StaticCounter::new("rm.leases.expired");

/// Slot value of a node that holds no lease.
const UNTRACKED: u64 = u64::MAX;
/// Slot value of an attached node: its last beat is the watermark.
const ATTACHED: u64 = u64::MAX - 1;

/// Heartbeat lease table over abstract monotonic ticks (the campaign uses
/// simulated minutes; any tick below `u64::MAX - 1`). Deterministic: expiry
/// reports nodes in ascending `NodeId` order.
#[derive(Debug, Clone)]
pub struct LeaseTable {
    timeout: u64,
    /// Per node: [`UNTRACKED`], [`ATTACHED`], or a detached node's last beat.
    last_beat: Vec<u64>,
    /// The latest round of [`Self::beat_all_except`], ticks.
    watermark: u64,
    /// Exactly the tracked nodes whose slot holds their own time, any order.
    detached: Vec<NodeId>,
}

impl LeaseTable {
    /// A table declaring nodes dead after `timeout` ticks of silence.
    pub fn new(timeout: u64) -> Self {
        assert!(timeout > 0, "a zero timeout kills every node instantly");
        Self {
            timeout,
            last_beat: Vec::new(),
            watermark: 0,
            detached: Vec::new(),
        }
    }

    /// The configured timeout, ticks.
    pub fn timeout(&self) -> u64 {
        self.timeout
    }

    /// Number of nodes currently under lease.
    pub fn tracked(&self) -> usize {
        self.last_beat.iter().filter(|&&t| t != UNTRACKED).count()
    }

    fn slot(&self, node: NodeId) -> u64 {
        self.last_beat.get(node.0).copied().unwrap_or(UNTRACKED)
    }

    /// `node`'s last beat, if tracked.
    fn last_beat_of(&self, node: NodeId) -> Option<u64> {
        match self.slot(node) {
            UNTRACKED => None,
            ATTACHED => Some(self.watermark),
            t => Some(t),
        }
    }

    /// Begin (or re-begin) tracking `node`, treating `now` as its first
    /// heartbeat. The node starts detached; the next round it beats in
    /// attaches it.
    pub fn track(&mut self, node: NodeId, now: u64) {
        assert!(now < ATTACHED, "tick {now} is reserved");
        if node.0 >= self.last_beat.len() {
            self.last_beat.resize(node.0 + 1, UNTRACKED);
        }
        if matches!(self.last_beat[node.0], UNTRACKED | ATTACHED) {
            self.detached.push(node);
        }
        self.last_beat[node.0] = now;
    }

    /// Record a heartbeat from `node`. Beats from untracked nodes are
    /// ignored — a drained node's stale telemetry must not resurrect its
    /// lease — and a beat older than the last one changes nothing.
    pub fn beat(&mut self, node: NodeId, now: u64) {
        assert!(now < ATTACHED, "tick {now} is reserved");
        match self.slot(node) {
            UNTRACKED => {}
            ATTACHED => {
                if now > self.watermark {
                    self.last_beat[node.0] = now;
                    self.detached.push(node);
                }
            }
            t => self.last_beat[node.0] = t.max(now),
        }
    }

    /// A telemetry round: exactly [`Self::beat`]`(n, now)` for every tracked
    /// `n` not in `silent` (which may repeat ids or name untracked ones).
    /// Costs O(|silent| + detached nodes), not O(tracked nodes).
    pub fn beat_all_except(&mut self, now: u64, silent: &[NodeId]) {
        assert!(now < ATTACHED, "tick {now} is reserved");
        // What every silent node's lease reads before the round; an attached
        // one is thereby frozen at the old watermark.
        let frozen: Vec<(NodeId, u64)> = silent
            .iter()
            .filter_map(|&n| self.last_beat_of(n).map(|t| (n, t)))
            .collect();
        // Every detached node beats; one whose beat is now the new
        // watermark re-attaches. Attached nodes follow the watermark.
        let mark = self.watermark.max(now);
        let last_beat = &mut self.last_beat;
        self.detached.retain(|&n| {
            let t = &mut last_beat[n.0];
            *t = (*t).max(now);
            if *t == mark {
                *t = ATTACHED;
            }
            *t != ATTACHED
        });
        self.watermark = mark;
        // The silent nodes did not beat: restore them, detached.
        for (n, t) in frozen {
            if self.last_beat[n.0] == ATTACHED {
                self.detached.push(n);
            }
            self.last_beat[n.0] = t;
        }
    }

    /// Stop tracking `node` (it completed drain or was handed back).
    pub fn forget(&mut self, node: NodeId) {
        match self.slot(node) {
            UNTRACKED => return,
            ATTACHED => {}
            _ => self.detached.retain(|&n| n != node),
        }
        self.last_beat[node.0] = UNTRACKED;
    }

    /// Ticks since `node`'s last beat, if tracked.
    pub fn staleness(&self, node: NodeId, now: u64) -> Option<u64> {
        self.last_beat_of(node).map(|t| now.saturating_sub(t))
    }

    /// Collect every node whose lease has outlived the timeout at `now`,
    /// in ascending `NodeId` order, removing each from the table — a node
    /// is declared dead exactly once.
    pub fn expire(&mut self, now: u64) -> Vec<NodeId> {
        let timeout = self.timeout;
        let stale = |t: u64| now.saturating_sub(t) > timeout;
        let dead: Vec<NodeId> = if stale(self.watermark) {
            // Attached nodes are as old as the watermark: scan everything.
            (0..self.last_beat.len())
                .map(NodeId)
                .filter(|&n| self.last_beat_of(n).is_some_and(stale))
                .collect()
        } else {
            // Attached nodes are fresh; only a detached one can be stale.
            let mut dead: Vec<NodeId> = self
                .detached
                .iter()
                .copied()
                .filter(|n| stale(self.last_beat[n.0]))
                .collect();
            dead.sort_unstable();
            dead
        };
        if !dead.is_empty() {
            for node in &dead {
                self.last_beat[node.0] = UNTRACKED;
                LEASES_EXPIRED.inc();
            }
            let last_beat = &self.last_beat;
            self.detached.retain(|n| last_beat[n.0] != UNTRACKED);
        }
        dead
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beats_keep_leases_alive() {
        let mut t = LeaseTable::new(15);
        t.track(NodeId(0), 0);
        t.track(NodeId(1), 0);
        for now in (5..=30).step_by(5) {
            t.beat(NodeId(0), now);
        }
        let dead = t.expire(30);
        assert_eq!(dead, vec![NodeId(1)], "only the silent node expires");
        assert_eq!(t.tracked(), 1);
    }

    #[test]
    fn expiry_is_exactly_once_and_ordered() {
        let mut t = LeaseTable::new(10);
        t.track(NodeId(3), 0);
        t.track(NodeId(1), 0);
        t.track(NodeId(2), 5);
        assert_eq!(t.expire(11), vec![NodeId(1), NodeId(3)]);
        assert_eq!(t.expire(11), Vec::<NodeId>::new(), "already declared");
        assert_eq!(t.expire(16), vec![NodeId(2)]);
    }

    #[test]
    fn boundary_is_strictly_greater_than_timeout() {
        let mut t = LeaseTable::new(10);
        t.track(NodeId(0), 0);
        assert!(t.expire(10).is_empty(), "exactly timeout: still alive");
        assert_eq!(t.expire(11), vec![NodeId(0)]);
    }

    #[test]
    fn untracked_beats_do_not_resurrect() {
        let mut t = LeaseTable::new(5);
        t.track(NodeId(0), 0);
        t.forget(NodeId(0));
        t.beat(NodeId(0), 100);
        t.beat_all_except(100, &[]);
        assert_eq!(t.tracked(), 0);
        assert!(t.expire(200).is_empty());
    }

    #[test]
    fn staleness_reports_silence() {
        let mut t = LeaseTable::new(5);
        t.track(NodeId(0), 10);
        assert_eq!(t.staleness(NodeId(0), 14), Some(4));
        assert_eq!(t.staleness(NodeId(1), 14), None);
        // Out-of-order beats never move time backwards.
        t.beat(NodeId(0), 8);
        assert_eq!(t.staleness(NodeId(0), 14), Some(4));
    }

    #[test]
    fn silent_nodes_freeze_and_rejoin_the_round() {
        let mut t = LeaseTable::new(15);
        (0..4).for_each(|n| t.track(NodeId(n), 0));
        t.beat_all_except(5, &[NodeId(2), NodeId(9)]);
        t.beat_all_except(10, &[NodeId(2)]);
        assert_eq!(t.staleness(NodeId(0), 10), Some(0));
        assert_eq!(t.staleness(NodeId(2), 10), Some(10), "frozen at tick 0");
        // Back in the round: it beats with everyone else again.
        t.beat_all_except(15, &[]);
        assert_eq!(t.staleness(NodeId(2), 15), Some(0));
        t.beat_all_except(20, &[NodeId(3)]);
        t.beat_all_except(25, &[NodeId(3)]);
        t.beat_all_except(30, &[NodeId(3)]);
        assert!(t.expire(30).is_empty(), "15 ticks of silence: alive");
        t.beat_all_except(35, &[NodeId(3)]);
        assert_eq!(t.expire(35), vec![NodeId(3)]);
        // With no round for longer than the timeout, everyone expires.
        assert_eq!(t.expire(51), vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(t.tracked(), 0);
    }
}
