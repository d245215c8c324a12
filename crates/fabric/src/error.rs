//! Error types for the blockchain substrate.

use std::fmt;

/// Errors surfaced by the blockchain substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FabricError {
    /// A chaincode invocation failed (application-level rejection).
    ChaincodeError(String),
    /// No chaincode is deployed under the given name.
    UnknownChaincode(String),
    /// The transaction failed MVCC validation (stale read set).
    MvccConflict {
        /// The key whose version changed between endorsement and commit.
        key: String,
    },
    /// The endorsement policy was not satisfied.
    EndorsementPolicyFailure(String),
    /// A signature on an endorsement or block did not verify.
    BadSignature,
    /// The identity is not a member of the channel / organisation.
    AccessDenied(String),
    /// Malformed or undecodable payload.
    Malformed(String),
    /// The hash chain or a digest check failed — evidence of tampering.
    IntegrityViolation(String),
    /// Stored bytes are wrong or missing: corruption or loss detected
    /// during commit or recovery that truncating a torn tail cannot repair.
    Storage(String),
    /// The operating system refused a storage operation (a directory that
    /// cannot be created, a file that cannot be opened, read or written);
    /// nothing is known about the bytes on disk.
    Io(String),
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::ChaincodeError(m) => write!(f, "chaincode error: {m}"),
            FabricError::UnknownChaincode(n) => write!(f, "unknown chaincode: {n}"),
            FabricError::MvccConflict { key } => write!(f, "MVCC conflict on key {key:?}"),
            FabricError::EndorsementPolicyFailure(m) => {
                write!(f, "endorsement policy not satisfied: {m}")
            }
            FabricError::BadSignature => write!(f, "signature verification failed"),
            FabricError::AccessDenied(m) => write!(f, "access denied: {m}"),
            FabricError::Malformed(m) => write!(f, "malformed payload: {m}"),
            FabricError::IntegrityViolation(m) => write!(f, "integrity violation: {m}"),
            FabricError::Storage(m) => write!(f, "storage failure: {m}"),
            FabricError::Io(m) => write!(f, "storage I/O failure: {m}"),
        }
    }
}

impl std::error::Error for FabricError {}
