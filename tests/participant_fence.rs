//! The 2PC fence's rules, one table over every participant contract.
//!
//! The view chains' `ShardContract`, the sharded deployment's
//! `TransferContract` (debit and credit legs) and the TPC-C contract (all
//! four legs) are `Staging` impls behind the one `Fenced` chaincode. Each
//! row drives one of them through every rule the fence owns: staging,
//! double staging, commit, replayed commit, the opposite decision after a
//! marker, prepare after a marker, abort undoing a reservation, replayed
//! abort, presumed abort fencing a late prepare, and commit with nothing
//! staged. This lives beside the facade because it is the one crate that
//! sees all three contracts.

use ledgerview::crosschain::contracts::{SHARD_CC, TRANSFER_CC};
use ledgerview::crosschain::participant::{staged, terminal, Fenced, Staging, TerminalState};
use ledgerview::crosschain::{ShardContract, TransferContract};
use ledgerview::fabric::chaincode::Chaincode;
use ledgerview::fabric::statedb::VersionedState;
use ledgerview::fabric::{FabricError, Identity};
use ledgerview::prelude::*;
use ledgerview::workload::schema::TPCC_CC;
use ledgerview::workload::TpccContract;
use rand::rngs::StdRng;

/// A function call: `(function, args)`.
type Call = (&'static str, Vec<Vec<u8>>);

struct Row {
    name: &'static str,
    chaincode: &'static str,
    contract: fn() -> Box<dyn Chaincode>,
    ns: &'static str,
    setup: Vec<Call>,
    /// A `prepare*` call, without the request id.
    prepare: Call,
}

fn bytes(parts: &[&str]) -> Vec<Vec<u8>> {
    parts.iter().map(|p| p.as_bytes().to_vec()).collect()
}

fn money(acct: &str, amount: u64) -> Vec<Vec<u8>> {
    vec![acct.as_bytes().to_vec(), amount.to_be_bytes().to_vec()]
}

fn table() -> Vec<Row> {
    let transfer = |name, prepare: &'static str, acct| Row {
        name,
        chaincode: TRANSFER_CC,
        contract: || Box::new(Fenced(TransferContract)),
        ns: TransferContract::NS,
        setup: vec![("open", money(acct, 100))],
        prepare: (prepare, money(acct, 30)),
    };
    let tpcc = |name, prepare: &'static str, args: &[&str]| Row {
        name,
        chaincode: TPCC_CC,
        contract: || Box::new(Fenced(TpccContract)),
        ns: TpccContract::NS,
        setup: vec![
            ("load_warehouse", bytes(&["0", "4"])),
            ("load_customers", bytes(&["0", "1", "8"])),
            ("load_stock", bytes(&["0", "0", "8"])),
        ],
        prepare: (prepare, bytes(args)),
    };
    vec![
        Row {
            name: "view chain",
            chaincode: SHARD_CC,
            contract: || Box::new(Fenced(ShardContract)),
            ns: ShardContract::NS,
            setup: vec![],
            prepare: ("prepare", bytes(&["payload"])),
        },
        transfer("transfer debit", "prepare_debit", "alice"),
        transfer("transfer credit", "prepare_credit", "bob"),
        tpcc(
            "tpcc new-order home",
            "prepare_no_home",
            &["0", "1", "3", "5:0:2", "777"],
        ),
        tpcc("tpcc remote stock", "prepare_stock", &["0", "4", "3"]),
        tpcc("tpcc payment home", "prepare_pay_home", &["0", "2", "100"]),
        tpcc(
            "tpcc payment customer",
            "prepare_pay_cust",
            &["0", "1", "3", "100"],
        ),
    ]
}

/// Everything in state except the fence's own records.
fn app_state(state: &dyn VersionedState, ns: &str) -> Vec<(String, Vec<u8>)> {
    let fence = [format!("{ns}pend~"), format!("{ns}fin~")];
    state
        .prefix_scan("")
        .into_iter()
        .filter(|(k, _)| !fence.iter().any(|p| k.starts_with(p.as_str())))
        .collect()
}

struct Harness {
    chain: FabricChain,
    id: Identity,
    rng: StdRng,
    row: Row,
}

impl Harness {
    fn new(row: Row) -> Harness {
        let mut rng = ledgerview::crypto::rng::seeded(0xFE_9CE);
        let mut chain = FabricChain::new(&["OrgA"], &mut rng);
        let policy = EndorsementPolicy::AllOf(chain.org_ids());
        chain.deploy(row.chaincode, (row.contract)(), policy);
        let id = chain.enroll(&OrgId::new("OrgA"), "tester", &mut rng);
        let mut h = Harness {
            chain,
            id: id.expect("org exists"),
            rng,
            row,
        };
        for (function, args) in h.row.setup.clone() {
            h.call(function, args).expect("setup call");
        }
        h
    }

    fn call(&mut self, function: &str, args: Vec<Vec<u8>>) -> Result<(), FabricError> {
        let (chaincode, id) = (self.row.chaincode, &self.id);
        let rng = &mut self.rng;
        self.chain
            .invoke_commit(id, chaincode, function, args, rng)
            .map(|_| ())
    }

    fn prepare(&mut self, req: &str) -> Result<(), FabricError> {
        let (function, args) = self.row.prepare.clone();
        let mut full = vec![req.as_bytes().to_vec()];
        full.extend(args);
        self.call(function, full)
    }

    fn decide(&mut self, function: &str, req: &str) -> Result<(), FabricError> {
        self.call(function, vec![req.as_bytes().to_vec()])
    }

    fn app(&self) -> Vec<(String, Vec<u8>)> {
        app_state(self.chain.state(), self.row.ns)
    }

    fn staged_reqs(&self) -> Vec<String> {
        let records = staged(self.chain.state(), self.row.ns);
        records.into_iter().map(|s| s.req).collect()
    }

    fn terminal(&self, req: &str) -> Option<TerminalState> {
        terminal(self.chain.state(), self.row.ns, req)
    }
}

#[test]
fn fence_rules_hold_for_every_staging() {
    for row in table() {
        let name = row.name;
        let mut h = Harness::new(row);
        let before = h.app();

        // A prepare stages one record and votes yes; the same key again
        // is refused.
        h.prepare("r1")
            .unwrap_or_else(|e| panic!("{name}: prepare: {e}"));
        assert_eq!(h.staged_reqs(), ["r1"], "{name}: one staged record");
        assert_eq!(h.terminal("r1"), None, "{name}: undecided");
        assert!(h.prepare("r1").is_err(), "{name}: staged twice");

        // Commit applies and clears the record and marks the request; a
        // replayed commit changes nothing.
        h.decide("commit", "r1")
            .unwrap_or_else(|e| panic!("{name}: commit: {e}"));
        assert!(h.staged_reqs().is_empty(), "{name}: commit clears");
        assert_eq!(h.terminal("r1"), Some(TerminalState::Committed), "{name}");
        let applied = h.app();
        assert_ne!(applied, before, "{name}: commit applied nothing");
        h.decide("commit", "r1")
            .unwrap_or_else(|e| panic!("{name}: replay: {e}"));
        assert_eq!(h.app(), applied, "{name}: replayed commit re-applied");

        // The marker refuses the opposite decision and a late prepare.
        assert!(
            h.decide("abort", "r1").is_err(),
            "{name}: abort after commit"
        );
        assert!(h.prepare("r1").is_err(), "{name}: prepare after commit");
        assert_eq!(h.terminal("r1"), Some(TerminalState::Committed), "{name}");

        // Abort undoes what the prepare reserved; a replayed abort changes
        // nothing, and commit after abort is refused.
        h.prepare("r2")
            .unwrap_or_else(|e| panic!("{name}: prepare r2: {e}"));
        h.decide("abort", "r2")
            .unwrap_or_else(|e| panic!("{name}: abort: {e}"));
        assert_eq!(h.app(), applied, "{name}: abort left a trace");
        assert!(h.staged_reqs().is_empty(), "{name}: abort clears");
        assert_eq!(h.terminal("r2"), Some(TerminalState::Aborted), "{name}");
        h.decide("abort", "r2")
            .unwrap_or_else(|e| panic!("{name}: replay: {e}"));
        assert_eq!(h.app(), applied, "{name}: replayed abort changed state");
        assert!(
            h.decide("commit", "r2").is_err(),
            "{name}: commit after abort"
        );

        // Presumed abort: an abort with nothing staged still marks the
        // request, so the late prepare is fenced.
        h.decide("abort", "r3")
            .unwrap_or_else(|e| panic!("{name}: abort: {e}"));
        assert_eq!(h.terminal("r3"), Some(TerminalState::Aborted), "{name}");
        assert!(h.prepare("r3").is_err(), "{name}: late prepare not fenced");
        assert!(h.staged_reqs().is_empty(), "{name}: late prepare staged");

        // Commit with nothing staged is refused and marks nothing.
        assert!(h.decide("commit", "r4").is_err(), "{name}: empty commit");
        assert_eq!(h.terminal("r4"), None, "{name}: empty commit marked");
        assert_eq!(h.app(), applied, "{name}");
    }
}
