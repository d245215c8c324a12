//! The one 2PC participant: a prepare/commit/abort fence that every
//! participant contract stages through.
//!
//! A participant contract implements [`Staging`] — its own functions,
//! what each `prepare*` stages, and what a staged record does on commit
//! or abort — and is deployed as [`Fenced`]`(contract)`. The fence owns
//! every 2PC rule, under the contract's namespace `ns` ([`Staging::NS`]):
//!
//! * `prepare*(req, args…)` stages one record under
//!   `<ns>pend~<req>~<suffix>`. It is rejected (a NO vote) once `req` has
//!   a terminal marker, or when that key is already staged.
//! * `commit(req)` hands every staged record of `req` to
//!   [`Staging::commit`] in key order, deletes it, and writes the marker
//!   `<ns>fin~<req>` = `[1]`. A request with nothing staged cannot commit.
//! * `abort(req)` hands every staged record to [`Staging::abort`], deletes
//!   it, and writes `<ns>fin~<req>` = `[0]` — also when nothing was
//!   staged (presumed abort), so a late prepare is fenced.
//! * A decision delivered again (a coordinator replaying it after a
//!   crash) is a no-op; the opposite decision after a marker is an error.
//!
//! Request ids must not contain `~`. [`staged`] and [`terminal`] read the
//! same records back from committed state for the audits.

use fabric_sim::chaincode::{arg_str, Chaincode, TxContext};
use fabric_sim::statedb::VersionedState;
use fabric_sim::FabricError;

/// The application side of a 2PC participant.
pub trait Staging: Send + Sync {
    /// Prefix of the fence's keys (`pend~`, `fin~`) for this contract.
    const NS: &'static str;

    /// Any function other than `prepare*`, `commit` and `abort`.
    fn invoke(
        &self,
        ctx: &mut TxContext<'_>,
        function: &str,
        args: &[Vec<u8>],
    ) -> Result<Vec<u8>, FabricError>;

    /// Run `function` (a `prepare*`) on `args`, the arguments after the
    /// request id: apply any reservation now and return the record to
    /// stage as `(suffix, value)`. An error is a NO vote.
    fn prepare(
        &self,
        ctx: &mut TxContext<'_>,
        function: &str,
        args: &[Vec<u8>],
    ) -> Result<(String, Vec<u8>), FabricError>;

    /// Apply one staged record of `req` on commit.
    fn commit(
        &self,
        ctx: &mut TxContext<'_>,
        req: &str,
        suffix: &str,
        value: &[u8],
    ) -> Result<(), FabricError>;

    /// Undo one staged record's reservation on abort (none by default).
    fn abort(
        &self,
        _ctx: &mut TxContext<'_>,
        _suffix: &str,
        _value: &[u8],
    ) -> Result<(), FabricError> {
        Ok(())
    }
}

/// A participant's terminal 2PC state for a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TerminalState {
    /// Committed: every staged record was applied.
    Committed,
    /// Aborted: every staged record was undone (or none existed).
    Aborted,
}

fn decode(marker: Option<Vec<u8>>) -> Option<TerminalState> {
    match marker.as_deref() {
        Some([1]) => Some(TerminalState::Committed),
        Some([0]) => Some(TerminalState::Aborted),
        _ => None,
    }
}

fn fin_key(ns: &str, req: &str) -> String {
    format!("{ns}fin~{req}")
}

fn pend_prefix(ns: &str, req: &str) -> String {
    format!("{ns}pend~{req}~")
}

/// A [`Staging`] contract deployed behind the 2PC fence.
pub struct Fenced<S>(pub S);

impl<S: Staging> Fenced<S> {
    /// `commit(req)` or `abort(req)`, named by `function`.
    fn finalize(
        &self,
        ctx: &mut TxContext<'_>,
        req: &str,
        function: &str,
    ) -> Result<(), FabricError> {
        let commit = function == "commit";
        let fin = fin_key(S::NS, req);
        match decode(ctx.get_state(&fin)) {
            // A replayed decision is a no-op; the opposite one is refused.
            Some(done) if (done == TerminalState::Committed) == commit => return Ok(()),
            Some(done) => {
                return Err(FabricError::ChaincodeError(format!(
                    "request {req:?} was {done:?}; cannot {function}"
                )))
            }
            None => {}
        }
        let prefix = pend_prefix(S::NS, req);
        let records = ctx.get_state_by_prefix(&prefix);
        if commit && records.is_empty() {
            return Err(FabricError::ChaincodeError(format!(
                "request {req:?} has nothing staged to commit"
            )));
        }
        for (key, value) in records {
            let suffix = &key[prefix.len()..];
            if commit {
                self.0.commit(ctx, req, suffix, &value)?;
            } else {
                self.0.abort(ctx, suffix, &value)?;
            }
            ctx.delete_state(key);
        }
        ctx.put_state(fin, vec![u8::from(commit)]);
        Ok(())
    }
}

impl<S: Staging> Chaincode for Fenced<S> {
    fn invoke(
        &self,
        ctx: &mut TxContext<'_>,
        function: &str,
        args: &[Vec<u8>],
    ) -> Result<Vec<u8>, FabricError> {
        match function {
            "commit" | "abort" => {
                self.finalize(ctx, &arg_str(args, 0)?, function)?;
                Ok(vec![])
            }
            f if f.starts_with("prepare") => {
                let req = arg_str(args, 0)?;
                if ctx.get_state(&fin_key(S::NS, &req)).is_some() {
                    return Err(FabricError::ChaincodeError(format!(
                        "request {req:?} already terminal"
                    )));
                }
                let (suffix, value) = self.0.prepare(ctx, f, &args[1..])?;
                let key = format!("{}{suffix}", pend_prefix(S::NS, &req));
                if ctx.get_state(&key).is_some() {
                    return Err(FabricError::ChaincodeError(format!(
                        "request {req:?} already staged {suffix:?}"
                    )));
                }
                ctx.put_state(key, value);
                Ok(vec![])
            }
            _ => self.0.invoke(ctx, function, args),
        }
    }
}

/// One staged record in committed state: a prepared, undecided leg.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Staged {
    /// The request id.
    pub req: String,
    /// The suffix the contract's prepare chose.
    pub suffix: String,
    /// The staged value.
    pub value: Vec<u8>,
}

/// Every staged record under namespace `ns`, in key order (empty once
/// every request reached its terminal state).
pub fn staged(state: &dyn VersionedState, ns: &str) -> Vec<Staged> {
    let prefix = format!("{ns}pend~");
    state
        .prefix_scan(&prefix)
        .into_iter()
        .filter_map(|(key, value)| {
            let (req, suffix) = key[prefix.len()..].split_once('~')?;
            Some(Staged {
                req: req.to_string(),
                suffix: suffix.to_string(),
                value,
            })
        })
        .collect()
}

/// A request's terminal state under namespace `ns`, if it reached one.
pub fn terminal(state: &dyn VersionedState, ns: &str, req: &str) -> Option<TerminalState> {
    decode(state.get(&fin_key(ns, req)))
}
