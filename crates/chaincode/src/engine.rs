//! The [`Chaincode`] trait and per-peer registry.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use crate::stub::ChaincodeStub;

/// Errors a chaincode invocation can produce. Failed invocations yield no
/// endorsement (the peer returns `ok = false`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaincodeError {
    /// The function named in `args[0]` does not exist.
    UnknownFunction(String),
    /// Arguments were missing or malformed.
    BadArguments(String),
    /// The business logic rejected the invocation (e.g. insufficient funds).
    Rejected(String),
    /// No chaincode with the requested name is installed.
    NotInstalled(String),
}

impl fmt::Display for ChaincodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaincodeError::UnknownFunction(name) => {
                write!(f, "unknown chaincode function {name:?}")
            }
            ChaincodeError::BadArguments(msg) => write!(f, "bad chaincode arguments: {msg}"),
            ChaincodeError::Rejected(msg) => write!(f, "chaincode rejected the invocation: {msg}"),
            ChaincodeError::NotInstalled(name) => write!(f, "chaincode {name:?} is not installed"),
        }
    }
}

impl Error for ChaincodeError {}

/// A user chaincode: business logic executed during endorsement.
///
/// Implementations must be deterministic — all endorsing peers must produce
/// identical read/write sets for the same arguments and state, or endorsement
/// collection fails (as it does in real Fabric).
pub trait Chaincode: fmt::Debug + Send {
    /// The installed name, e.g. `"kvwrite"`.
    fn name(&self) -> &str;

    /// One-time bootstrap run at channel setup; seeds initial state through
    /// the stub. Default: no-op.
    ///
    /// # Errors
    /// Propagates any [`ChaincodeError`] from the bootstrap logic.
    fn init(&self, _stub: &mut ChaincodeStub<'_>) -> Result<Vec<u8>, ChaincodeError> {
        Ok(Vec::new())
    }

    /// Executes one invocation. `args[0]` is the function name by convention.
    ///
    /// # Errors
    /// Any [`ChaincodeError`]; the transaction then receives no endorsement.
    fn invoke(
        &self,
        stub: &mut ChaincodeStub<'_>,
        args: &[Vec<u8>],
    ) -> Result<Vec<u8>, ChaincodeError>;
}

/// The chaincodes installed on a peer, by name.
///
/// A `BTreeMap` so every view of the registry (iteration, [`names`]) is
/// deterministically ordered — iterating a `HashMap` (per-process
/// `RandomState` order) is banned by the workspace `clippy.toml`.
///
/// [`names`]: ChaincodeRegistry::names
#[derive(Debug, Default)]
pub struct ChaincodeRegistry {
    installed: BTreeMap<String, Box<dyn Chaincode>>,
}

impl ChaincodeRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a chaincode; replaces any previous version of the same name.
    pub fn install(&mut self, chaincode: Box<dyn Chaincode>) {
        self.installed
            .insert(chaincode.name().to_string(), chaincode);
    }

    /// Looks up an installed chaincode.
    ///
    /// # Errors
    /// [`ChaincodeError::NotInstalled`] when absent.
    pub fn get(&self, name: &str) -> Result<&dyn Chaincode, ChaincodeError> {
        self.installed
            .get(name)
            .map(|b| b.as_ref())
            .ok_or_else(|| ChaincodeError::NotInstalled(name.to_string()))
    }

    /// Names of installed chaincodes, sorted (the map's native order).
    pub fn names(&self) -> Vec<&str> {
        self.installed.keys().map(String::as_str).collect()
    }
}

/// Parses a UTF-8 argument, mapping failure to [`ChaincodeError::BadArguments`].
pub(crate) fn utf8_arg<'a>(
    args: &'a [Vec<u8>],
    i: usize,
    what: &str,
) -> Result<&'a str, ChaincodeError> {
    let raw = args
        .get(i)
        .ok_or_else(|| ChaincodeError::BadArguments(format!("missing argument {i} ({what})")))?;
    std::str::from_utf8(raw)
        .map_err(|_| ChaincodeError::BadArguments(format!("argument {i} ({what}) is not UTF-8")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::samples::KvWrite;

    #[test]
    fn registry_install_and_lookup() {
        let mut reg = ChaincodeRegistry::new();
        reg.install(Box::new(KvWrite));
        assert!(reg.get("kvwrite").is_ok());
        assert_eq!(
            reg.get("nope").unwrap_err(),
            ChaincodeError::NotInstalled("nope".into())
        );
        assert_eq!(reg.names(), vec!["kvwrite"]);
    }

    #[test]
    fn utf8_arg_errors_are_descriptive() {
        let args = vec![b"ok".to_vec(), vec![0xFF, 0xFE]];
        assert_eq!(utf8_arg(&args, 0, "key").unwrap(), "ok");
        assert!(matches!(
            utf8_arg(&args, 1, "key"),
            Err(ChaincodeError::BadArguments(_))
        ));
        assert!(matches!(
            utf8_arg(&args, 5, "key"),
            Err(ChaincodeError::BadArguments(_))
        ));
    }

    #[test]
    fn error_display_is_lowercase_prose() {
        let e = ChaincodeError::Rejected("insufficient funds".into());
        assert_eq!(
            e.to_string(),
            "chaincode rejected the invocation: insufficient funds"
        );
    }
}
