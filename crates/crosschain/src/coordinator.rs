//! The 2PC coordinator: one pure state machine per operation, with no
//! chain, no cluster, no clock and no telemetry. Its caller submits what
//! it asks for and feeds each call's [`Outcome`] back through
//! [`Coordinator::step`]. The sharded deployment drives it over live Raft
//! clusters; [`crate::protocol::execute_request`] drives it one
//! `invoke_commit` at a time. Every protocol rule lives here once:
//!
//! * An MVCC conflict re-drives the call: the transaction never applied.
//! * A rejected prepare is a NO vote; a rejected direct transaction aborts.
//! * The decision goes out once every vote is in: commit iff all are YES.
//! * Finalize (`commit`/`abort` on every leg) starts once the decide has
//!   come back, so the decision is on chain before a participant hears it.
//! * A decide rejected as "already decided" proceeds from the record.
//! * A finalize conflict re-drives the leg from the *recorded* decision,
//!   which the caller reads and passes in, never from memory alone.
//!
//! An outcome the protocol cannot explain (a rejected begin, decide or
//! finalize, or an answer to a call that is not outstanding) is reported
//! as an anomaly.

use fabric_sim::validation::TxValidation;

use crate::contracts::{CoordState, COORDINATOR_CC};

/// One call the coordinator makes; `Prepare` and `Finalize` name a leg.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Call {
    /// The one transaction of an operation whose legs share a chain.
    Direct,
    /// `begin` on the coordinator record.
    Begin,
    /// A leg's prepare.
    Prepare(usize),
    /// `decide` on the coordinator record.
    Decide,
    /// A leg's `commit` or `abort`.
    Finalize(usize),
}

/// A call's outcome: its commit-time validation, or why endorsement
/// rejected it.
pub type Outcome = Result<TxValidation, String>;

/// One participant leg of an operation.
///
/// `key` says where the leg runs (a routing key, a view name); the
/// coordinator only carries it. `chaincode` is a
/// [`Staging`](crate::participant::Staging) impl behind the
/// [`Fenced`](crate::participant::Fenced) 2PC fence, which supplies the
/// idempotent `commit(id)` / `abort(id)` finalize functions. Its
/// `prepare*` function is invoked as `(id, args…)` and either stages its
/// effects under the request id (YES vote), rejects with a chaincode
/// error (NO vote), or is invalidated by MVCC (no vote — re-driven).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Leg {
    /// Where the leg runs.
    pub key: String,
    /// Participant chaincode name.
    pub chaincode: String,
    /// Prepare function on that chaincode.
    pub prepare: String,
    /// Extra prepare arguments, appended after the request id.
    pub args: Vec<Vec<u8>>,
}

/// A transaction to submit for [`Submit::call`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Submit {
    /// Which call this is; its outcome goes back to [`Coordinator::step`].
    pub call: Call,
    /// Chaincode name.
    pub chaincode: String,
    /// Function on that chaincode.
    pub function: String,
    /// Arguments.
    pub args: Vec<Vec<u8>>,
}

/// An operation's status.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Status {
    /// Still working through its phases.
    InFlight,
    /// Applied atomically (one direct transaction, or 2PC).
    Committed,
    /// Aborted atomically; nothing applied.
    Aborted {
        /// Deterministic reason string.
        reason: String,
    },
}

/// What one outcome leads to.
#[derive(Debug, Default)]
pub struct Step {
    /// Transactions to submit now, in this order.
    pub submit: Vec<Submit>,
    /// The call whose outcome completed its phase, when this one did.
    pub completed: Option<Call>,
    /// The outcome was an MVCC conflict: `submit` re-drives the call.
    pub redrive: bool,
    /// The operation's end, on the one step that reaches it.
    pub terminal: Option<Status>,
    /// An outcome the protocol cannot explain.
    pub anomaly: Option<String>,
}

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum State {
    Direct(Submit),
    Begin,
    Prepare { votes: Vec<Option<bool>> },
    Decide,
    Finalize { commit: bool, open: Vec<bool> },
    Done,
}

/// The coordinator of one operation; see the module docs for its rules.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Coordinator {
    id: String,
    legs: Vec<Leg>,
    state: State,
    /// The decision this coordinator reached from the votes.
    decision: bool,
    /// The first NO vote's reason.
    no_reason: Option<String>,
}

impl Coordinator {
    /// An operation whose legs all share one chain: its one atomic
    /// transaction, re-driven until it commits or is rejected.
    pub fn direct(id: &str, chaincode: &str, function: &str, args: Vec<Vec<u8>>) -> (Self, Submit) {
        let direct = Submit {
            call: Call::Direct,
            chaincode: chaincode.into(),
            function: function.into(),
            args,
        };
        Coordinator::start(id, Vec::new(), State::Direct(direct))
    }

    /// A two-phase operation over `legs`, and its first call: `begin`.
    pub fn two_phase(id: &str, legs: Vec<Leg>) -> (Self, Submit) {
        Coordinator::start(id, legs, State::Begin)
    }

    fn start(id: &str, legs: Vec<Leg>, state: State) -> (Self, Submit) {
        let coordinator = Coordinator {
            id: id.into(),
            legs,
            state,
            decision: false,
            no_reason: None,
        };
        // `begin`, or the direct transaction: a direct operation's only call.
        let first = coordinator.submit(Call::Begin);
        (coordinator, first)
    }

    /// Feed back `call`'s outcome. `recorded` reads the decision on chain;
    /// it is called only when finalize must proceed from the record.
    pub fn step(
        &mut self,
        call: Call,
        outcome: Outcome,
        recorded: impl FnOnce() -> Option<CoordState>,
    ) -> Step {
        let mut step = Step::default();
        if !self.awaits(call) {
            let state = &self.state;
            step.anomaly = Some(format!("{call:?} outcome for {} while {state:?}", self.id));
            return step;
        }
        let rejected = match outcome {
            Ok(TxValidation::Valid) => None,
            Ok(TxValidation::MvccConflict { .. }) => {
                step.redrive = true;
                step.anomaly = self.adopt_record(recorded);
                step.submit.push(self.submit(call));
                return step;
            }
            Ok(TxValidation::EndorsementFailure { reason }) | Err(reason) => Some(reason),
        };
        match (call, rejected) {
            (Call::Direct, None) => {
                step.completed = Some(call);
                self.finish(&mut step, Status::Committed);
            }
            (Call::Direct, Some(reason)) => self.finish(&mut step, Status::Aborted { reason }),
            (Call::Begin, None) => {
                step.completed = Some(call);
                self.state = State::Prepare {
                    votes: vec![None; self.legs.len()],
                };
                step.submit = (0..self.legs.len())
                    .map(|leg| self.submit(Call::Prepare(leg)))
                    .collect();
                self.tally(call, &mut step);
            }
            (Call::Begin, Some(reason)) => {
                // Request ids are unique, so begin fails only on a bug:
                // abort before any leg runs.
                step.anomaly = Some(format!("begin({}) failed: {reason}", self.id));
                let reason = "begin failed".into();
                self.finish(&mut step, Status::Aborted { reason });
            }
            (Call::Prepare(leg), rejected) => {
                if let State::Prepare { votes } = &mut self.state {
                    votes[leg] = Some(rejected.is_none());
                }
                if let Some(reason) = rejected {
                    self.no_reason.get_or_insert(reason);
                }
                self.tally(call, &mut step);
            }
            (Call::Decide, rejected) => {
                let open = vec![true; self.legs.len()];
                self.state = State::Finalize {
                    commit: self.decision,
                    open,
                };
                match rejected {
                    None => step.completed = Some(call),
                    // A re-driven decide raced its predecessor, or another
                    // coordinator decided: the decision is on chain.
                    Some(reason) if reason.contains("already decided") => {
                        step.anomaly = self.adopt_record(recorded);
                    }
                    Some(reason) => {
                        step.anomaly = Some(format!("decide({}) failed: {reason}", self.id));
                    }
                }
                step.submit = (0..self.legs.len())
                    .map(|leg| self.submit(Call::Finalize(leg)))
                    .collect();
                self.close(&mut step);
            }
            (Call::Finalize(leg), rejected) => {
                if let State::Finalize { open, .. } = &mut self.state {
                    open[leg] = false;
                }
                if let Some(reason) = rejected {
                    let id = &self.id;
                    step.anomaly = Some(format!("finalize({id}, leg {leg}) failed: {reason}"));
                }
                if self.close(&mut step) && step.anomaly.is_none() {
                    step.completed = Some(call);
                }
            }
        }
        step
    }

    /// Whether `call` is outstanding: submitted and not yet answered.
    fn awaits(&self, call: Call) -> bool {
        match (&self.state, call) {
            (State::Direct(_), Call::Direct)
            | (State::Begin, Call::Begin)
            | (State::Decide, Call::Decide) => true,
            (State::Prepare { votes }, Call::Prepare(leg)) => votes.get(leg) == Some(&None),
            (State::Finalize { open, .. }, Call::Finalize(leg)) => open.get(leg) == Some(&true),
            _ => false,
        }
    }

    /// Once every vote is in, decide: commit iff every leg voted YES.
    fn tally(&mut self, call: Call, step: &mut Step) {
        let State::Prepare { votes } = &self.state else {
            return;
        };
        if votes.contains(&None) {
            return;
        }
        self.decision = votes.iter().all(|v| *v == Some(true));
        self.state = State::Decide;
        step.completed = Some(call);
        step.submit.push(self.submit(Call::Decide));
    }

    /// Take the finalize decision from the record, or report that none is
    /// there.
    fn adopt_record(&mut self, recorded: impl FnOnce() -> Option<CoordState>) -> Option<String> {
        let State::Finalize { commit, .. } = &mut self.state else {
            return None;
        };
        match recorded() {
            Some(CoordState::Committed) => *commit = true,
            Some(CoordState::Aborted) => *commit = false,
            other => return Some(format!("finalize of {} found record {other:?}", self.id)),
        }
        None
    }

    /// Once no finalize is open, end with the decision finalized.
    fn close(&mut self, step: &mut Step) -> bool {
        let State::Finalize { commit, open } = &self.state else {
            return false;
        };
        if open.contains(&true) {
            return false;
        }
        let status = match (commit, &self.no_reason) {
            (true, _) => Status::Committed,
            (false, reason) => Status::Aborted {
                reason: reason.clone().unwrap_or_else(|| "prepare voted no".into()),
            },
        };
        self.finish(step, status);
        true
    }

    fn finish(&mut self, step: &mut Step, status: Status) {
        self.state = State::Done;
        step.terminal = Some(status);
    }

    /// The transaction for `call` in the current state.
    fn submit(&self, call: Call) -> Submit {
        let id = self.id.as_bytes().to_vec();
        let (chaincode, function, args) = match (&self.state, call) {
            (State::Direct(direct), _) => return direct.clone(),
            (_, Call::Prepare(leg)) => {
                let leg = &self.legs[leg];
                let args = std::iter::once(id).chain(leg.args.iter().cloned());
                (leg.chaincode.as_str(), leg.prepare.as_str(), args.collect())
            }
            (State::Finalize { commit, .. }, Call::Finalize(leg)) => {
                let function = if *commit { "commit" } else { "abort" };
                (self.legs[leg].chaincode.as_str(), function, vec![id])
            }
            (_, Call::Decide) => (
                COORDINATOR_CC,
                "decide",
                vec![id, vec![self.decision.into()]],
            ),
            _ => (COORDINATOR_CC, "begin", vec![id]),
        };
        Submit {
            call,
            chaincode: chaincode.into(),
            function: function.into(),
            args,
        }
    }
}

#[cfg(test)]
mod tests {
    //! The coordinator against fakes, by exhaustion: every delivery order
    //! of the outstanding calls, and every outcome each call may have.

    use super::*;
    use std::collections::{HashSet, VecDeque};

    /// How the fakes answer one call.
    #[derive(Clone, Copy, Debug)]
    enum Answer {
        Valid,
        /// An MVCC conflict: at most one per call.
        Conflict,
        /// Endorsement rejects the call. For a decide, the decision is
        /// already on chain: a duplicate of this decide landed first.
        Rejected,
        /// A decide rejected because a recovering coordinator recorded a
        /// presumed abort first.
        PresumedAbort,
    }

    /// One explored state: the coordinator and everything the fakes know.
    #[derive(Clone)]
    struct World {
        coordinator: Coordinator,
        /// Submitted, unanswered calls, sorted by call, each with whether
        /// it has had its one conflict.
        outstanding: Vec<(Submit, bool)>,
        /// Each leg's vote, once its prepare is answered.
        votes: Vec<Option<bool>>,
        /// The direct transaction came back valid.
        direct_valid: bool,
        /// The decision on the fake coordinator chain.
        record: Option<bool>,
        /// The decide call has come back (not as a conflict).
        decided: bool,
        anomalous: bool,
        terminal: Option<Status>,
        /// Conflicts injected and re-drives made on the way here; not
        /// part of the state's identity.
        conflicts: usize,
        redrives: usize,
    }

    type Key = (
        Coordinator,
        Vec<(Submit, bool)>,
        Vec<Option<bool>>,
        [bool; 3],
        Option<bool>,
        Option<Status>,
    );

    impl World {
        fn start(legs: usize, (coordinator, first): (Coordinator, Submit)) -> World {
            World {
                coordinator,
                outstanding: vec![(first, false)],
                votes: vec![None; legs],
                direct_valid: false,
                record: None,
                decided: false,
                anomalous: false,
                terminal: None,
                conflicts: 0,
                redrives: 0,
            }
        }

        fn key(&self) -> Key {
            (
                self.coordinator.clone(),
                self.outstanding.clone(),
                self.votes.clone(),
                [self.direct_valid, self.decided, self.anomalous],
                self.record,
                self.terminal.clone(),
            )
        }

        fn answers(&self, at: usize) -> Vec<Answer> {
            let (submit, conflicted) = &self.outstanding[at];
            let mut answers = vec![Answer::Valid, Answer::Rejected];
            if !conflicted {
                answers.push(Answer::Conflict);
            }
            if submit.call == Call::Decide {
                answers.push(Answer::PresumedAbort);
            }
            answers
        }

        /// Answer the outstanding call at `at`, step the coordinator, and
        /// check what it submits.
        fn deliver(&self, at: usize, answer: Answer) -> Result<World, String> {
            let mut w = self.clone();
            let (submit, _) = w.outstanding.remove(at);
            let call = submit.call;
            let outcome = match (call, answer) {
                (_, Answer::Valid) => Ok(TxValidation::Valid),
                (_, Answer::Conflict) => {
                    w.conflicts += 1;
                    Ok(TxValidation::MvccConflict { key: "k".into() })
                }
                (Call::Decide, _) => Err("request \"op\" already decided".into()),
                _ => Err("insufficient funds".into()),
            };
            match (call, answer) {
                (_, Answer::Conflict) => {}
                (Call::Direct, Answer::Valid) => w.direct_valid = true,
                (Call::Prepare(leg), _) => w.votes[leg] = Some(matches!(answer, Answer::Valid)),
                (Call::Decide, Answer::PresumedAbort) => {
                    w.record = Some(false);
                    w.decided = true;
                }
                (Call::Decide, _) => {
                    w.record = Some(submit.args[1] == [1]);
                    w.decided = true;
                }
                _ => {}
            }
            w.step(call, outcome)
        }

        fn step(mut self, call: Call, outcome: Outcome) -> Result<World, String> {
            let conflict = matches!(outcome, Ok(TxValidation::MvccConflict { .. }));
            let record = self.record;
            let step = self.coordinator.step(call, outcome, || match record {
                Some(true) => Some(CoordState::Committed),
                Some(false) => Some(CoordState::Aborted),
                None => Some(CoordState::Begun),
            });
            if step.redrive != conflict {
                return Err(format!(
                    "a conflict must re-drive, and only a conflict: {step:?}"
                ));
            }
            for s in &step.submit {
                match s.call {
                    Call::Decide if self.votes.contains(&None) => {
                        return Err(format!("decide sent with a vote missing: {:?}", self.votes))
                    }
                    Call::Finalize(_) if !self.decided => {
                        return Err("finalize sent before the decide came back".into())
                    }
                    Call::Finalize(_) => {
                        let recorded = if self.record == Some(true) {
                            "commit"
                        } else {
                            "abort"
                        };
                        if s.function != recorded {
                            return Err(format!("{} against a recorded {recorded}", s.function));
                        }
                    }
                    _ => {}
                }
                if step.redrive && s.call != call {
                    return Err(format!("re-drive of {call:?} submitted {:?}", s.call));
                }
            }
            let redrive = step.redrive;
            self.outstanding
                .extend(step.submit.into_iter().map(|s| (s, redrive)));
            self.outstanding.sort_by_key(|(s, _)| s.call);
            self.redrives += usize::from(redrive);
            self.anomalous |= step.anomaly.is_some();
            if let Some(status) = step.terminal {
                self.terminal = Some(status);
            }
            self.check()?;
            Ok(self)
        }

        fn check(&self) -> Result<(), String> {
            let Some(status) = &self.terminal else {
                if self.outstanding.is_empty() {
                    return Err("stranded: not terminal and nothing outstanding".into());
                }
                return Ok(());
            };
            if !self.outstanding.is_empty() {
                return Err(format!("terminal with {:?} outstanding", self.outstanding));
            }
            if self.redrives != self.conflicts {
                return Err(format!(
                    "{} re-drives for {} conflicts",
                    self.redrives, self.conflicts
                ));
            }
            if self.anomalous {
                return Ok(());
            }
            let every_yes = self.votes.iter().all(|v| *v == Some(true));
            let commit = if self.votes.is_empty() {
                self.direct_valid
            } else {
                every_yes && self.record == Some(true)
            };
            if self.record == Some(true) && !every_yes {
                return Err(format!("commit recorded with votes {:?}", self.votes));
            }
            if (*status == Status::Committed) != commit {
                return Err(format!("{status:?} with votes {:?}", self.votes));
            }
            Ok(())
        }
    }

    /// Every call a coordinator over `legs` legs can make.
    fn calls(legs: usize) -> Vec<Call> {
        let per_leg = (0..legs).flat_map(|leg| [Call::Prepare(leg), Call::Finalize(leg)]);
        [Call::Direct, Call::Begin, Call::Decide]
            .into_iter()
            .chain(per_leg)
            .collect()
    }

    fn legs(n: usize) -> Vec<Leg> {
        (0..n)
            .map(|i| Leg {
                key: format!("k{i}"),
                chaincode: format!("cc{i}"),
                prepare: "prepare".into(),
                args: vec![vec![i as u8]],
            })
            .collect()
    }

    #[test]
    fn every_delivery_order_and_outcome_ends_atomically() {
        let mut starts = vec![World::start(
            0,
            Coordinator::direct("op", "cc", "f", vec![]),
        )];
        for n in 1..=3 {
            starts.push(World::start(n, Coordinator::two_phase("op", legs(n))));
        }
        // Breadth-first, so a violation reports its shortest trace: each
        // explored state keeps its parent's index and the move that led
        // here.
        let mut moves: Vec<(usize, Call, Answer)> = Vec::new();
        let mut seen = HashSet::new();
        let mut queue = VecDeque::new();
        for start in starts {
            seen.insert(start.key());
            moves.push((usize::MAX, Call::Begin, Answer::Valid));
            queue.push_back((start, moves.len() - 1));
        }
        let trace = |mut at: usize, moves: &[(usize, Call, Answer)]| {
            let mut trace = Vec::new();
            while moves[at].0 != usize::MAX {
                trace.push(format!("{:?} {:?}", moves[at].1, moves[at].2));
                at = moves[at].0;
            }
            trace.reverse();
            trace
        };
        let mut terminals = 0usize;
        while let Some((world, node)) = queue.pop_front() {
            terminals += usize::from(world.terminal.is_some());
            // A late or duplicate answer to a call that is not outstanding
            // (after the end, too) submits nothing and changes nothing.
            for call in calls(world.votes.len()) {
                if world.outstanding.iter().any(|(s, _)| s.call == call) {
                    continue;
                }
                let mut stale = world.coordinator.clone();
                let step = stale.step(call, Ok(TxValidation::Valid), || None);
                if !step.submit.is_empty() || step.terminal.is_some() || stale != world.coordinator
                {
                    let trace = trace(node, &moves);
                    panic!("a stale {call:?} answer moved the coordinator: {step:?}\n  after {trace:?}");
                }
            }
            for at in 0..world.outstanding.len() {
                let call = world.outstanding[at].0.call;
                for answer in world.answers(at) {
                    match world.deliver(at, answer) {
                        Ok(next) => {
                            if seen.insert(next.key()) {
                                moves.push((node, call, answer));
                                queue.push_back((next, moves.len() - 1));
                            }
                        }
                        Err(violation) => panic!(
                            "{violation}\n  after {:?} then {call:?} {answer:?}",
                            trace(node, &moves)
                        ),
                    }
                }
            }
        }
        println!("coordinator: {} states, {terminals} terminal", seen.len());
        assert!(terminals > 0 && seen.len() > terminals);
    }
}
