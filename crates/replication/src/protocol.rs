//! The three concurrency-control protocols, as pure functions over a
//! merged log view — the front-end's step 3 ("if the view indicates that
//! no synchronization conflicts exist, … chooses a response legal for the
//! view", §3.2).
//!
//! | Mode | Serialization order | Conflict discipline |
//! |------|--------------------|---------------------|
//! | `StaticTs` | Begin timestamps | Reed-style: abort when a dependency-related entry is uncommitted or later-timestamped |
//! | `Hybrid` | Commit timestamps | dependency-related tentative entries act as locks |
//! | `Dynamic2pl` | Commit order (≡ precedes) | non-commutation (`≥D`) tentative entries act as locks |
//!
//! All three use the same rule against a foreign entry `e`:
//! **conflict iff `rel(my_op, class(e))`** where `rel` is a verified
//! dependency relation for the mode's atomicity property. Theorem 6's two
//! interference conditions both contribute the pair in that orientation,
//! so the one-directional check is sound; the clause machinery in
//! `quorumcc-core` is what certifies `rel` covers every hazard.
//!
//! ## Pipelined reads
//!
//! The throughput engine's front-end overlaps initial-quorum reads for
//! *later* operations of a transaction with the write phases of earlier
//! ones (`TuningConfig::batch` sets the depth). That is compatible with
//! all three protocols because these functions are pure over the merged
//! view: what a read round does is *gather* a view, and views only grow
//! under merge. The front-end still **evaluates** operations strictly in
//! program order — [`Protocol::evaluate`] for op *k* runs only after ops
//! `0..k` have been evaluated and their tentative entries appended to
//! the views op *k* was merged against (the pipeline launches a read
//! early only when its object's shard is disjoint from every in-flight
//! or parked earlier op, so no same-object entry can be missed). An
//! early-gathered view is therefore the same view a sequential engine
//! would have gathered, possibly *minus* foreign entries that arrived in
//! the gap — and any such entry the view misses is caught where it is
//! authoritative: at the final quorum, where repositories validate the
//! write against reservations and report conflicts. Pipelining moves
//! message time around; the conflict arithmetic, and hence every
//! decision, is unchanged.

use crate::types::{ActionOutcome, LogEntry, ObjectLog};
use quorumcc_core::{minimal_dynamic_relation, minimal_static_relation, DependencyRelation};
use quorumcc_model::spec::ExploreBounds;
use quorumcc_model::{ActionId, Classified, Enumerable, EventClass};
use quorumcc_sim::Timestamp;
use std::collections::BTreeSet;
use std::fmt;

/// Which local atomicity property the protocol implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Static atomicity: Reed-style Begin-timestamp ordering.
    StaticTs,
    /// Hybrid atomicity: commit-time timestamps plus dependency locks.
    Hybrid,
    /// Strong dynamic atomicity: strict two-phase locking on
    /// non-commuting operation classes.
    Dynamic2pl,
}

impl Mode {
    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Mode::StaticTs => "static",
            Mode::Hybrid => "hybrid",
            Mode::Dynamic2pl => "dynamic-2pl",
        }
    }

    /// Parses a command-line mode name: `static`, `hybrid` or `dynamic`.
    ///
    /// # Errors
    ///
    /// Returns `unknown mode: <s>` for any other name.
    pub fn parse(s: &str) -> Result<Mode, String> {
        match s {
            "static" => Ok(Mode::StaticTs),
            "hybrid" => Ok(Mode::Hybrid),
            "dynamic" => Ok(Mode::Dynamic2pl),
            other => Err(format!("unknown mode: {other} (static|hybrid|dynamic)")),
        }
    }
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why an operation was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Conflict {
    /// The action owning the conflicting entry.
    pub with: ActionId,
    /// The conflicting entry's event class.
    pub on: EventClass,
    /// What kind of hazard.
    pub reason: ConflictReason,
}

/// The hazard category.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConflictReason {
    /// A dependency-related entry of another active action (a held lock).
    Lock,
    /// Static mode: a dependency-related entry with a later Begin
    /// timestamp already exists — this operation arrived too late.
    TooLate,
    /// Static mode: a dependency-related earlier entry is still
    /// uncommitted.
    DirtyPast,
}

impl fmt::Display for Conflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let r = match self.reason {
            ConflictReason::Lock => "lock held",
            ConflictReason::TooLate => "too late",
            ConflictReason::DirtyPast => "uncommitted dependency",
        };
        write!(f, "{r}: {} by {}", self.on, self.with)
    }
}

/// A concurrency-control protocol: a mode plus the dependency relation it
/// enforces (which must be a verified dependency relation for the mode's
/// atomicity property — `≥S` for static, `≥D` for dynamic, any verified
/// hybrid relation for hybrid).
#[derive(Debug, Clone)]
pub struct Protocol {
    /// The atomicity property implemented.
    pub mode: Mode,
    /// The dependency/conflict relation.
    pub rel: DependencyRelation,
}

impl Protocol {
    /// Builds a protocol.
    pub fn new(mode: Mode, rel: DependencyRelation) -> Self {
        Protocol { mode, rel }
    }

    /// The minimal protocol `mode` needs for type `S`: the minimal static
    /// relation `≥S` for static and hybrid (every static relation is a
    /// hybrid one, Theorem 4), and `≥S ∪ ≥D` for dynamic-2pl.
    pub fn minimal<S: Enumerable + Classified>(mode: Mode, bounds: ExploreBounds) -> Self {
        let mut rel = minimal_static_relation::<S>(bounds).relation;
        if mode == Mode::Dynamic2pl {
            rel = rel.union(&minimal_dynamic_relation::<S>(bounds).relation);
        }
        Protocol { mode, rel }
    }

    /// The transitive closure of event classes an invocation of `op` must
    /// observe: its direct dependencies, their operations' dependencies,
    /// and so on. The §3.2 log-propagation argument guarantees these reach
    /// the view through quorum intersections.
    pub fn closure_classes(&self, op: &'static str) -> BTreeSet<EventClass> {
        let mut out: BTreeSet<EventClass> = self
            .rel
            .iter()
            .filter(|(i, _)| *i == op)
            .map(|(_, e)| *e)
            .collect();
        loop {
            let next: Vec<EventClass> = out
                .iter()
                .flat_map(|c| {
                    self.rel
                        .iter()
                        .filter(move |(i, _)| *i == c.op)
                        .map(|(_, e)| *e)
                })
                .collect();
            let before = out.len();
            out.extend(next);
            if out.len() == before {
                return out;
            }
        }
    }

    /// Evaluates invocation `inv` of `action` (begun at `begin_ts`)
    /// against the merged quorum view `log` plus the action's `own`
    /// previous entries, returning the response the front-end should give.
    ///
    /// # Errors
    ///
    /// Returns a [`Conflict`] when the mode's discipline refuses the
    /// operation (the transaction should abort or retry).
    pub fn evaluate<S: Classified>(
        &self,
        log: &ObjectLog<S::Inv, S::Res>,
        own: &[LogEntry<S::Inv, S::Res>],
        action: ActionId,
        begin_ts: Timestamp,
        inv: &S::Inv,
    ) -> Result<S::Res, Conflict> {
        let op = S::op_class(inv);
        let closure = self.closure_classes(op);

        // Replay set: (sort key, entry). Foreign committed entries are
        // ordered by the mode's serialization timestamp; own entries are
        // replayed at the position the mode serializes *this* action.
        #[allow(clippy::type_complexity)]
        let mut replay: Vec<((u8, Timestamp, Timestamp), &LogEntry<S::Inv, S::Res>)> = Vec::new();

        for e in log.entries() {
            if e.action == action {
                continue; // own entries come from `own` (authoritative)
            }
            let class = S::event_class(&e.event.inv, &e.event.res);
            let related = self.rel.contains(op, class);
            match (self.mode, log.status(e.action)) {
                (_, ActionOutcome::Aborted) => {}
                (Mode::StaticTs, status) => {
                    if e.begin_ts > begin_ts {
                        // Serialized after me: never in my replay; if
                        // dependency-related, my insertion before it is the
                        // Theorem-6 interference — refuse.
                        if related {
                            return Err(Conflict {
                                with: e.action,
                                on: class,
                                reason: ConflictReason::TooLate,
                            });
                        }
                    } else if status.is_resolved() {
                        // Committed, serialized before me.
                        if closure.contains(&class) {
                            replay.push(((0, e.begin_ts, e.ts), e));
                        }
                    } else if related {
                        // Uncommitted earlier dependency: Reed would block;
                        // we abort (conservative, non-blocking).
                        return Err(Conflict {
                            with: e.action,
                            on: class,
                            reason: ConflictReason::DirtyPast,
                        });
                    }
                }
                (Mode::Hybrid | Mode::Dynamic2pl, ActionOutcome::Committed(cts)) => {
                    if closure.contains(&class) {
                        replay.push(((0, cts, e.ts), e));
                    }
                }
                (Mode::Hybrid | Mode::Dynamic2pl, ActionOutcome::Active) => {
                    if related {
                        // A dependency-related tentative entry is a held
                        // lock.
                        return Err(Conflict {
                            with: e.action,
                            on: class,
                            reason: ConflictReason::Lock,
                        });
                    }
                }
            }
        }

        for e in own {
            let key = match self.mode {
                // Static: my events sit at my Begin position.
                Mode::StaticTs => (0, begin_ts, e.ts),
                // Hybrid/dynamic: I will commit after everything committed
                // in my view.
                Mode::Hybrid | Mode::Dynamic2pl => (1, e.ts, e.ts),
            };
            replay.push((key, e));
        }

        replay.sort_by_key(|a| a.0);
        // A compacted view replays from the checkpoint's state for this op
        // class: the fold of the covered committed prefix restricted to
        // `op`'s closure — exactly what the dropped entries would have
        // contributed here. Folds only cover commit timestamps below every
        // surviving entry's serialization position, so "checkpoint first,
        // then the replay set" is the same order the raw log would sort.
        let mut state = log
            .checkpoint()
            .and_then(|cp| cp.state_as::<std::collections::BTreeMap<&'static str, S::State>>())
            .and_then(|m| m.get(op).cloned())
            .unwrap_or_else(S::initial);
        for (_, e) in &replay {
            let (_res, next) = S::apply(&state, &e.event.inv);
            state = next;
        }
        Ok(S::apply(&state, inv).0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::entry_of;
    use quorumcc_core::certificates::prom_hybrid_relation;
    use quorumcc_model::testtypes::{QInv, QRes, TestQueue, TestRegister};

    fn ts(c: u64, n: u32) -> Timestamp {
        Timestamp {
            counter: c,
            node: n,
        }
    }

    fn bounds() -> ExploreBounds {
        ExploreBounds {
            depth: 4,
            ..ExploreBounds::default()
        }
    }

    fn queue_static() -> Protocol {
        Protocol::minimal::<TestQueue>(Mode::StaticTs, bounds())
    }

    fn queue_hybrid() -> Protocol {
        // ≥S is a hybrid dependency relation for the queue (Theorem 4).
        Protocol::minimal::<TestQueue>(Mode::Hybrid, bounds())
    }

    #[test]
    fn mode_parse_accepts_the_three_command_line_names() {
        assert_eq!(Mode::parse("static"), Ok(Mode::StaticTs));
        assert_eq!(Mode::parse("hybrid"), Ok(Mode::Hybrid));
        assert_eq!(Mode::parse("dynamic"), Ok(Mode::Dynamic2pl));
        let err = Mode::parse("2pl").unwrap_err();
        assert!(err.starts_with("unknown mode: 2pl"), "{err}");
    }

    #[test]
    fn minimal_dynamic_protocol_adds_the_commutativity_pairs() {
        let s = Protocol::minimal::<TestQueue>(Mode::StaticTs, bounds()).rel;
        let d = Protocol::minimal::<TestQueue>(Mode::Dynamic2pl, bounds()).rel;
        assert_eq!(
            Protocol::minimal::<TestQueue>(Mode::Hybrid, bounds()).rel,
            s
        );
        assert_eq!(s.union(&d), d, "dynamic-2pl keeps every static pair");
        assert_ne!(s, d, "Enq ≥D Enq/Ok is not a static pair");
    }

    #[test]
    fn closure_reaches_transitive_dependencies() {
        let p = Protocol::new(Mode::Hybrid, prom_hybrid_relation());
        let read = p.closure_classes("Read");
        // Read ≥ Seal/Ok directly; Seal ≥ Write/Ok and Seal ≥ Read/Disabled
        // transitively.
        assert!(read.contains(&EventClass::new("Seal", "Ok")));
        assert!(read.contains(&EventClass::new("Write", "Ok")));
        assert!(read.contains(&EventClass::new("Read", "Disabled")));
        assert!(!read.contains(&EventClass::new("Read", "Ok")));
    }

    #[test]
    fn hybrid_replays_committed_in_commit_order() {
        let p = queue_hybrid();
        let mut log = ObjectLog::new();
        // Action A enqueues 1 (commit ts 10); B enqueues 2 (commit ts 5).
        log.insert(entry_of::<TestQueue>(
            ts(1, 0),
            ActionId(0),
            ts(1, 0),
            QInv::Enq(1),
            QRes::Ok,
        ));
        log.insert(entry_of::<TestQueue>(
            ts(2, 1),
            ActionId(1),
            ts(2, 1),
            QInv::Enq(2),
            QRes::Ok,
        ));
        log.resolve(ActionId(0), ActionOutcome::Committed(ts(10, 0)));
        log.resolve(ActionId(1), ActionOutcome::Committed(ts(5, 1)));
        // Commit order: B then A → queue [2, 1].
        let res = p
            .evaluate::<TestQueue>(&log, &[], ActionId(2), ts(20, 2), &QInv::Deq)
            .unwrap();
        assert_eq!(res, QRes::Item(2));
    }

    #[test]
    fn static_replays_in_begin_order() {
        let p = queue_static();
        let mut log = ObjectLog::new();
        // A began first (begin 1) but committed after B (begin 2).
        log.insert(entry_of::<TestQueue>(
            ts(3, 0),
            ActionId(0),
            ts(1, 0),
            QInv::Enq(1),
            QRes::Ok,
        ));
        log.insert(entry_of::<TestQueue>(
            ts(4, 1),
            ActionId(1),
            ts(2, 1),
            QInv::Enq(2),
            QRes::Ok,
        ));
        log.resolve(ActionId(0), ActionOutcome::Committed(ts(20, 0)));
        log.resolve(ActionId(1), ActionOutcome::Committed(ts(10, 1)));
        // Begin order: A then B → queue [1, 2].
        let res = p
            .evaluate::<TestQueue>(&log, &[], ActionId(2), ts(30, 2), &QInv::Deq)
            .unwrap();
        assert_eq!(res, QRes::Item(1));
    }

    #[test]
    fn tentative_dependency_is_a_lock_under_hybrid() {
        let p = queue_hybrid();
        let mut log = ObjectLog::new();
        log.insert(entry_of::<TestQueue>(
            ts(1, 0),
            ActionId(0),
            ts(1, 0),
            QInv::Enq(1),
            QRes::Ok,
        ));
        // A is active: its Enq blocks a Deq (Deq ≥ Enq/Ok)…
        let c = p
            .evaluate::<TestQueue>(&log, &[], ActionId(1), ts(5, 1), &QInv::Deq)
            .unwrap_err();
        assert_eq!(c.reason, ConflictReason::Lock);
        // …but not another Enq (no Enq ≥ Enq pair in ≥S).
        let r = p
            .evaluate::<TestQueue>(&log, &[], ActionId(1), ts(5, 1), &QInv::Enq(2))
            .unwrap();
        assert_eq!(r, QRes::Ok);
    }

    #[test]
    fn dynamic_locks_concurrent_enqueues() {
        let rel = minimal_dynamic_relation::<TestQueue>(bounds()).relation;
        let p = Protocol::new(Mode::Dynamic2pl, rel);
        let mut log = ObjectLog::new();
        log.insert(entry_of::<TestQueue>(
            ts(1, 0),
            ActionId(0),
            ts(1, 0),
            QInv::Enq(1),
            QRes::Ok,
        ));
        // Enq ≥D Enq/Ok: a second concurrent enqueue conflicts.
        let c = p
            .evaluate::<TestQueue>(&log, &[], ActionId(1), ts(5, 1), &QInv::Enq(2))
            .unwrap_err();
        assert_eq!(c.reason, ConflictReason::Lock);
    }

    #[test]
    fn static_too_late_write_refused() {
        let rel = minimal_static_relation::<TestRegister>(ExploreBounds {
            depth: 4,
            ..ExploreBounds::default()
        })
        .relation;
        let p = Protocol::new(Mode::StaticTs, rel);
        let mut log = ObjectLog::new();
        // A committed Read with Begin ts 10.
        log.insert(entry_of::<TestRegister>(
            ts(11, 0),
            ActionId(0),
            ts(10, 0),
            None,
            0,
        ));
        log.resolve(ActionId(0), ActionOutcome::Committed(ts(12, 0)));
        // My Write began at 5 < 10: inserting it before the read would
        // invalidate it (Write ≥S Read/Ok).
        let c = p
            .evaluate::<TestRegister>(&log, &[], ActionId(1), ts(5, 1), &Some(7))
            .unwrap_err();
        assert_eq!(c.reason, ConflictReason::TooLate);
    }

    #[test]
    fn static_dirty_past_refused() {
        let rel = minimal_static_relation::<TestRegister>(ExploreBounds {
            depth: 4,
            ..ExploreBounds::default()
        })
        .relation;
        let p = Protocol::new(Mode::StaticTs, rel);
        let mut log = ObjectLog::new();
        // A (active) wrote at begin ts 5; my Read began at 10 and depends
        // on Write/Ok events.
        log.insert(entry_of::<TestRegister>(
            ts(6, 0),
            ActionId(0),
            ts(5, 0),
            Some(3),
            3,
        ));
        let c = p
            .evaluate::<TestRegister>(&log, &[], ActionId(1), ts(10, 1), &None)
            .unwrap_err();
        assert_eq!(c.reason, ConflictReason::DirtyPast);
    }

    #[test]
    fn own_entries_shape_the_response() {
        let p = queue_hybrid();
        let log = ObjectLog::new();
        let own = vec![entry_of::<TestQueue>(
            ts(2, 1),
            ActionId(1),
            ts(1, 1),
            QInv::Enq(7),
            QRes::Ok,
        )];
        let res = p
            .evaluate::<TestQueue>(&log, &own, ActionId(1), ts(1, 1), &QInv::Deq)
            .unwrap();
        assert_eq!(res, QRes::Item(7));
    }

    #[test]
    fn aborted_entries_are_invisible() {
        let p = queue_hybrid();
        let mut log = ObjectLog::new();
        log.insert(entry_of::<TestQueue>(
            ts(1, 0),
            ActionId(0),
            ts(1, 0),
            QInv::Enq(1),
            QRes::Ok,
        ));
        log.resolve(ActionId(0), ActionOutcome::Aborted);
        let res = p
            .evaluate::<TestQueue>(&log, &[], ActionId(1), ts(5, 1), &QInv::Deq)
            .unwrap();
        assert_eq!(res, QRes::Empty);
    }

    #[test]
    fn closure_filtering_keeps_replay_legal() {
        // A PROM Read's view excludes foreign Read/Ok entries (not in its
        // closure), so a stray Read/Ok from a class it cannot interpret
        // does not disturb the replay.
        use quorumcc_adts::prom::{PromInv, PromRes};
        let p = Protocol::new(Mode::Hybrid, prom_hybrid_relation());
        let mut log = ObjectLog::new();
        log.insert(entry_of::<quorumcc_adts::Prom>(
            ts(1, 0),
            ActionId(0),
            ts(1, 0),
            PromInv::Write(9),
            PromRes::Ok,
        ));
        log.insert(entry_of::<quorumcc_adts::Prom>(
            ts(2, 0),
            ActionId(0),
            ts(1, 0),
            PromInv::Seal,
            PromRes::Ok,
        ));
        log.resolve(ActionId(0), ActionOutcome::Committed(ts(3, 0)));
        let res = p
            .evaluate::<quorumcc_adts::Prom>(&log, &[], ActionId(1), ts(5, 1), &PromInv::Read)
            .unwrap();
        assert_eq!(res, PromRes::Item(9));
    }
}
