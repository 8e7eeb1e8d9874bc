//! Sample chaincodes: the paper's benchmark workload plus two richer ones.

use crate::engine::{utf8_arg, Chaincode, ChaincodeError};
use crate::stub::ChaincodeStub;

/// The paper's benchmark chaincode: blind key/value writes (the experiments
/// write a 1-byte value per transaction) and simple reads.
///
/// Functions:
/// * `put <key> <value>` — write `value` under `key` (no read: conflict-free).
/// * `get <key>` — read a key, returning its bytes.
/// * `rmw <key> <value>` — read-modify-write (read records the version, so
///   concurrent writers to the same key MVCC-conflict).
#[derive(Debug, Clone, Copy, Default)]
pub struct KvWrite;

impl Chaincode for KvWrite {
    fn name(&self) -> &str {
        "kvwrite"
    }

    fn invoke(
        &self,
        stub: &mut ChaincodeStub<'_>,
        args: &[Vec<u8>],
    ) -> Result<Vec<u8>, ChaincodeError> {
        let func = utf8_arg(args, 0, "function")?;
        match func {
            "put" => {
                let key = utf8_arg(args, 1, "key")?;
                let value = args
                    .get(2)
                    .ok_or_else(|| ChaincodeError::BadArguments("missing value".into()))?;
                stub.put_state(key, value);
                Ok(Vec::new())
            }
            "get" => {
                let key = utf8_arg(args, 1, "key")?;
                Ok(stub.get_state(key).map_or_else(Vec::new, |v| v.to_vec()))
            }
            "rmw" => {
                let key = utf8_arg(args, 1, "key")?;
                let value = args
                    .get(2)
                    .ok_or_else(|| ChaincodeError::BadArguments("missing value".into()))?;
                let _old = stub.get_state(key); // records the read version
                stub.put_state(key, value);
                Ok(Vec::new())
            }
            other => Err(ChaincodeError::UnknownFunction(other.to_string())),
        }
    }
}

/// A money-transfer chaincode over numbered accounts — the "bank account"
/// application the paper's related-work section discusses, with genuine
/// read-write conflicts under contention.
///
/// Functions:
/// * `transfer <from> <to> <amount>` — moves funds, rejecting overdrafts.
/// * `balance <account>` — reads a balance.
#[derive(Debug, Clone, Copy)]
pub struct AssetTransfer {
    /// Accounts seeded at init: `acct0000 … acct{n-1}`.
    pub accounts: u32,
    /// Initial balance per account.
    pub initial_balance: u64,
}

impl Default for AssetTransfer {
    fn default() -> Self {
        AssetTransfer {
            accounts: 100,
            initial_balance: 1_000,
        }
    }
}

impl AssetTransfer {
    /// The state key for account `i`.
    pub fn account_key(i: u32) -> String {
        format!("acct{i:06}")
    }

    fn read_balance(stub: &mut ChaincodeStub<'_>, key: &str) -> Result<u64, ChaincodeError> {
        let raw = stub
            .get_state(key)
            .ok_or_else(|| ChaincodeError::Rejected(format!("no such account {key:?}")))?;
        let text = std::str::from_utf8(&raw)
            .map_err(|_| ChaincodeError::Rejected("corrupt balance".into()))?;
        text.parse()
            .map_err(|_| ChaincodeError::Rejected("corrupt balance".into()))
    }
}

impl Chaincode for AssetTransfer {
    fn name(&self) -> &str {
        "asset-transfer"
    }

    fn init(&self, stub: &mut ChaincodeStub<'_>) -> Result<Vec<u8>, ChaincodeError> {
        for i in 0..self.accounts {
            stub.put_state(&Self::account_key(i), self.initial_balance.to_string());
        }
        Ok(Vec::new())
    }

    fn invoke(
        &self,
        stub: &mut ChaincodeStub<'_>,
        args: &[Vec<u8>],
    ) -> Result<Vec<u8>, ChaincodeError> {
        let func = utf8_arg(args, 0, "function")?;
        match func {
            "transfer" => {
                let from = utf8_arg(args, 1, "from")?.to_string();
                let to = utf8_arg(args, 2, "to")?.to_string();
                let amount: u64 = utf8_arg(args, 3, "amount")?.parse().map_err(|_| {
                    ChaincodeError::BadArguments("amount must be an integer".into())
                })?;
                if from == to {
                    return Err(ChaincodeError::BadArguments("from == to".into()));
                }
                let from_bal = Self::read_balance(stub, &from)?;
                let to_bal = Self::read_balance(stub, &to)?;
                if from_bal < amount {
                    return Err(ChaincodeError::Rejected(format!(
                        "insufficient funds: {from_bal} < {amount}"
                    )));
                }
                stub.put_state(&from, (from_bal - amount).to_string());
                stub.put_state(&to, (to_bal + amount).to_string());
                Ok(Vec::new())
            }
            "balance" => {
                let acct = utf8_arg(args, 1, "account")?.to_string();
                let bal = Self::read_balance(stub, &acct)?;
                Ok(bal.to_string().into_bytes())
            }
            other => Err(ChaincodeError::UnknownFunction(other.to_string())),
        }
    }
}

/// Builds the `put` invocation for a payload of `size` bytes — the paper's
/// workload generator ("transaction size of 1 byte" in Fig. 2).
pub fn put_args(key: &str, size: usize) -> Vec<Vec<u8>> {
    vec![b"put".to_vec(), key.as_bytes().to_vec(), vec![b'x'; size]]
}

/// The Smallbank benchmark chaincode — the standard banking workload of the
/// Blockbench framework (Dinh et al., SIGMOD'17), which the paper cites as the
/// first private-blockchain evaluation framework. Each customer has a
/// *savings* and a *checking* account; six operations mix reads and writes.
///
/// Functions (`<id>` is a customer index):
/// * `transact_savings <id> <amount>` — add to savings (may reject overdraft).
/// * `deposit_checking <id> <amount>` — add to checking.
/// * `send_payment <from> <to> <amount>` — checking → checking transfer.
/// * `write_check <id> <amount>` — deduct from checking (can overdraw by
///   design of the original benchmark, down to 0 here).
/// * `amalgamate <id>` — move everything from savings into checking.
/// * `query <id>` — read both balances.
#[derive(Debug, Clone, Copy)]
pub struct Smallbank {
    /// Customers seeded at init.
    pub customers: u32,
    /// Initial balance for each savings and checking account.
    pub initial_balance: u64,
}

impl Default for Smallbank {
    fn default() -> Self {
        Smallbank {
            customers: 100,
            initial_balance: 10_000,
        }
    }
}

impl Smallbank {
    /// The savings key for customer `i`.
    pub fn savings_key(i: u32) -> String {
        format!("sav{i:06}")
    }

    /// The checking key for customer `i`.
    pub fn checking_key(i: u32) -> String {
        format!("chk{i:06}")
    }

    fn read_u64(stub: &mut ChaincodeStub<'_>, key: &str) -> Result<u64, ChaincodeError> {
        let raw = stub
            .get_state(key)
            .ok_or_else(|| ChaincodeError::Rejected(format!("no such account {key:?}")))?;
        std::str::from_utf8(&raw)
            .ok()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| ChaincodeError::Rejected("corrupt balance".into()))
    }

    fn write_u64(stub: &mut ChaincodeStub<'_>, key: &str, v: u64) {
        stub.put_state(key, v.to_string());
    }
}

impl Chaincode for Smallbank {
    fn name(&self) -> &str {
        "smallbank"
    }

    fn init(&self, stub: &mut ChaincodeStub<'_>) -> Result<Vec<u8>, ChaincodeError> {
        for i in 0..self.customers {
            Self::write_u64(stub, &Self::savings_key(i), self.initial_balance);
            Self::write_u64(stub, &Self::checking_key(i), self.initial_balance);
        }
        Ok(Vec::new())
    }

    fn invoke(
        &self,
        stub: &mut ChaincodeStub<'_>,
        args: &[Vec<u8>],
    ) -> Result<Vec<u8>, ChaincodeError> {
        let func = utf8_arg(args, 0, "function")?;
        let id_arg = |i: usize| -> Result<u32, ChaincodeError> {
            utf8_arg(args, i, "customer")?
                .parse()
                .map_err(|_| ChaincodeError::BadArguments("customer id must be an integer".into()))
        };
        let amount_arg = |i: usize| -> Result<u64, ChaincodeError> {
            utf8_arg(args, i, "amount")?
                .parse()
                .map_err(|_| ChaincodeError::BadArguments("amount must be an integer".into()))
        };
        match func {
            "transact_savings" => {
                let (id, amount) = (id_arg(1)?, amount_arg(2)?);
                let key = Self::savings_key(id);
                let bal = Self::read_u64(stub, &key)?;
                Self::write_u64(stub, &key, bal + amount);
                Ok(Vec::new())
            }
            "deposit_checking" => {
                let (id, amount) = (id_arg(1)?, amount_arg(2)?);
                let key = Self::checking_key(id);
                let bal = Self::read_u64(stub, &key)?;
                Self::write_u64(stub, &key, bal + amount);
                Ok(Vec::new())
            }
            "send_payment" => {
                let (from, to, amount) = (id_arg(1)?, id_arg(2)?, amount_arg(3)?);
                if from == to {
                    return Err(ChaincodeError::BadArguments("from == to".into()));
                }
                let (fk, tk) = (Self::checking_key(from), Self::checking_key(to));
                let fb = Self::read_u64(stub, &fk)?;
                let tb = Self::read_u64(stub, &tk)?;
                if fb < amount {
                    return Err(ChaincodeError::Rejected(
                        "insufficient checking funds".into(),
                    ));
                }
                Self::write_u64(stub, &fk, fb - amount);
                Self::write_u64(stub, &tk, tb + amount);
                Ok(Vec::new())
            }
            "write_check" => {
                let (id, amount) = (id_arg(1)?, amount_arg(2)?);
                let key = Self::checking_key(id);
                let bal = Self::read_u64(stub, &key)?;
                Self::write_u64(stub, &key, bal.saturating_sub(amount));
                Ok(Vec::new())
            }
            "amalgamate" => {
                let id = id_arg(1)?;
                let (sk, ck) = (Self::savings_key(id), Self::checking_key(id));
                let sb = Self::read_u64(stub, &sk)?;
                let cb = Self::read_u64(stub, &ck)?;
                Self::write_u64(stub, &sk, 0);
                Self::write_u64(stub, &ck, cb + sb);
                Ok(Vec::new())
            }
            "query" => {
                let id = id_arg(1)?;
                let sb = Self::read_u64(stub, &Self::savings_key(id))?;
                let cb = Self::read_u64(stub, &Self::checking_key(id))?;
                Ok(format!("savings={sb} checking={cb}").into_bytes())
            }
            other => Err(ChaincodeError::UnknownFunction(other.to_string())),
        }
    }
}

/// Wraps another chaincode and injects a peer-specific extra write into every
/// invocation — *non-deterministic chaincode*, the classic Fabric failure mode
/// where endorsers disagree on the simulation result. Used by the fault
/// injector; honest clients detect the divergence while collecting
/// endorsements (under policies requiring more than one endorser).
#[derive(Debug)]
pub struct Nondeterministic<C> {
    /// The wrapped chaincode.
    pub inner: C,
    /// Distinguishing tag mixed into the injected write (e.g. the peer index).
    pub taint: u32,
}

impl<C: Chaincode> Chaincode for Nondeterministic<C> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn init(&self, stub: &mut ChaincodeStub<'_>) -> Result<Vec<u8>, ChaincodeError> {
        self.inner.init(stub)
    }

    fn invoke(
        &self,
        stub: &mut ChaincodeStub<'_>,
        args: &[Vec<u8>],
    ) -> Result<Vec<u8>, ChaincodeError> {
        let out = self.inner.invoke(stub, args)?;
        // The divergence: a write only this replica produces.
        stub.put_state("$nondeterministic", self.taint.to_le_bytes());
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabricsim_ledger::StateDb;

    fn run(
        cc: &dyn Chaincode,
        state: &StateDb,
        args: &[Vec<u8>],
    ) -> Result<(Vec<u8>, fabricsim_types::RwSet), ChaincodeError> {
        let mut stub = ChaincodeStub::new(state);
        let out = cc.invoke(&mut stub, args)?;
        Ok((out, stub.into_rw_set()))
    }

    #[test]
    fn kvwrite_put_is_conflict_free() {
        let state = StateDb::new();
        let (_, rw) = run(&KvWrite, &state, &put_args("k", 1)).unwrap();
        assert!(rw.reads.is_empty());
        assert_eq!(rw.writes.len(), 1);
        assert_eq!(rw.writes[0].value.as_ref().unwrap().len(), 1);
    }

    #[test]
    fn kvwrite_rmw_records_read() {
        let mut state = StateDb::new();
        state.seed("k", b"old".to_vec());
        let (_, rw) = run(
            &KvWrite,
            &state,
            &[b"rmw".to_vec(), b"k".to_vec(), b"new".to_vec()],
        )
        .unwrap();
        assert_eq!(rw.reads.len(), 1);
        assert_eq!(rw.writes.len(), 1);
    }

    #[test]
    fn kvwrite_rejects_unknown_function() {
        let state = StateDb::new();
        assert!(matches!(
            run(&KvWrite, &state, &[b"frob".to_vec()]),
            Err(ChaincodeError::UnknownFunction(_))
        ));
    }

    #[test]
    fn asset_transfer_init_seeds_accounts() {
        let state = StateDb::new();
        let cc = AssetTransfer {
            accounts: 3,
            initial_balance: 50,
        };
        let mut stub = ChaincodeStub::new(&state);
        cc.init(&mut stub).unwrap();
        let rw = stub.into_rw_set();
        assert_eq!(rw.writes.len(), 3);
        assert_eq!(&*rw.writes[0].key, "acct000000");
    }

    #[test]
    fn asset_transfer_moves_funds() {
        let mut state = StateDb::new();
        state.seed(&AssetTransfer::account_key(0), b"100".to_vec());
        state.seed(&AssetTransfer::account_key(1), b"100".to_vec());
        let cc = AssetTransfer::default();
        let (_, rw) = run(
            &cc,
            &state,
            &[
                b"transfer".to_vec(),
                AssetTransfer::account_key(0).into_bytes(),
                AssetTransfer::account_key(1).into_bytes(),
                b"30".to_vec(),
            ],
        )
        .unwrap();
        assert_eq!(rw.reads.len(), 2, "both balances read");
        let get = |k: &str| {
            rw.writes
                .iter()
                .find(|w| &*w.key == k)
                .and_then(|w| w.value.clone())
                .unwrap()
        };
        assert_eq!(&*get("acct000000"), b"70");
        assert_eq!(&*get("acct000001"), b"130");
    }

    #[test]
    fn asset_transfer_rejects_overdraft_and_self_transfer() {
        let mut state = StateDb::new();
        state.seed(&AssetTransfer::account_key(0), b"10".to_vec());
        state.seed(&AssetTransfer::account_key(1), b"10".to_vec());
        let cc = AssetTransfer::default();
        let overdraft = run(
            &cc,
            &state,
            &[
                b"transfer".to_vec(),
                AssetTransfer::account_key(0).into_bytes(),
                AssetTransfer::account_key(1).into_bytes(),
                b"999".to_vec(),
            ],
        );
        assert!(matches!(overdraft, Err(ChaincodeError::Rejected(_))));
        let self_xfer = run(
            &cc,
            &state,
            &[
                b"transfer".to_vec(),
                AssetTransfer::account_key(0).into_bytes(),
                AssetTransfer::account_key(0).into_bytes(),
                b"1".to_vec(),
            ],
        );
        assert!(matches!(self_xfer, Err(ChaincodeError::BadArguments(_))));
    }

    #[test]
    fn balance_reads() {
        let mut state = StateDb::new();
        state.seed(&AssetTransfer::account_key(2), b"42".to_vec());
        let cc = AssetTransfer::default();
        let (out, rw) = run(
            &cc,
            &state,
            &[
                b"balance".to_vec(),
                AssetTransfer::account_key(2).into_bytes(),
            ],
        )
        .unwrap();
        assert_eq!(out, b"42");
        assert_eq!(rw.reads.len(), 1);
        assert!(rw.writes.is_empty());
    }

    #[test]
    fn smallbank_init_and_ops() {
        let mut state = StateDb::new();
        let sb = Smallbank {
            customers: 3,
            initial_balance: 100,
        };
        {
            let mut stub = ChaincodeStub::new(&state);
            sb.init(&mut stub).unwrap();
            let rw = stub.into_rw_set();
            assert_eq!(rw.writes.len(), 6, "savings + checking per customer");
            for w in rw.writes {
                state.seed(&w.key, w.value.unwrap());
            }
        }
        // send_payment moves checking funds.
        let (_, rw) = run(
            &sb,
            &state,
            &[
                b"send_payment".to_vec(),
                b"0".to_vec(),
                b"1".to_vec(),
                b"40".to_vec(),
            ],
        )
        .unwrap();
        let val = |rw: &fabricsim_types::RwSet, k: &str| {
            rw.writes
                .iter()
                .find(|w| &*w.key == k)
                .unwrap()
                .value
                .clone()
                .unwrap()
        };
        assert_eq!(&*val(&rw, &Smallbank::checking_key(0)), b"60");
        assert_eq!(&*val(&rw, &Smallbank::checking_key(1)), b"140");
        assert_eq!(rw.reads.len(), 2);

        // Overdraft rejected.
        let r = run(
            &sb,
            &state,
            &[
                b"send_payment".to_vec(),
                b"0".to_vec(),
                b"1".to_vec(),
                b"9999".to_vec(),
            ],
        );
        assert!(matches!(r, Err(ChaincodeError::Rejected(_))));

        // amalgamate merges savings into checking.
        let (_, rw) = run(&sb, &state, &[b"amalgamate".to_vec(), b"2".to_vec()]).unwrap();
        assert_eq!(&*val(&rw, &Smallbank::savings_key(2)), b"0");
        assert_eq!(&*val(&rw, &Smallbank::checking_key(2)), b"200");

        // write_check saturates at zero (benchmark semantics).
        let (_, rw) = run(
            &sb,
            &state,
            &[b"write_check".to_vec(), b"0".to_vec(), b"500".to_vec()],
        )
        .unwrap();
        assert_eq!(&*val(&rw, &Smallbank::checking_key(0)), b"0");

        // query is read-only.
        let (out, rw) = run(&sb, &state, &[b"query".to_vec(), b"1".to_vec()]).unwrap();
        assert_eq!(out, b"savings=100 checking=100");
        assert!(rw.writes.is_empty());
        assert_eq!(rw.reads.len(), 2);
    }

    #[test]
    fn smallbank_rejects_garbage() {
        let state = StateDb::new();
        let sb = Smallbank::default();
        assert!(matches!(
            run(
                &sb,
                &state,
                &[
                    b"send_payment".to_vec(),
                    b"1".to_vec(),
                    b"1".to_vec(),
                    b"5".to_vec()
                ]
            ),
            Err(ChaincodeError::BadArguments(_))
        ));
        assert!(matches!(
            run(
                &sb,
                &state,
                &[b"transact_savings".to_vec(), b"x".to_vec(), b"5".to_vec()]
            ),
            Err(ChaincodeError::BadArguments(_))
        ));
        assert!(matches!(
            run(&sb, &state, &[b"frobnicate".to_vec()]),
            Err(ChaincodeError::UnknownFunction(_))
        ));
        assert!(matches!(
            run(&sb, &state, &[b"query".to_vec(), b"7".to_vec()]),
            Err(ChaincodeError::Rejected(_)),
        ));
    }

    #[test]
    fn nondeterministic_wrapper_diverges_per_taint() {
        let state = StateDb::new();
        let honest = KvWrite;
        let tainted = Nondeterministic {
            inner: KvWrite,
            taint: 3,
        };
        let (_, rw_honest) = run(&honest, &state, &put_args("k", 1)).unwrap();
        let (_, rw_tainted) = run(&tainted, &state, &put_args("k", 1)).unwrap();
        assert_eq!(
            tainted.name(),
            "kvwrite",
            "wrapper masquerades as the original"
        );
        assert_ne!(rw_honest, rw_tainted);
        assert!(rw_tainted
            .writes
            .iter()
            .any(|w| &*w.key == "$nondeterministic"));
        // Two differently tainted replicas also disagree with each other.
        let other = Nondeterministic {
            inner: KvWrite,
            taint: 4,
        };
        let (_, rw_other) = run(&other, &state, &put_args("k", 1)).unwrap();
        assert_ne!(rw_tainted, rw_other);
    }
}
