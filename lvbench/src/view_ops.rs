//! `view_ops`: the paper's layer. The WL1 request deck is replayed under
//! four methods — ER and HR (revocable; encryption / hash scheme), EI and
//! EI+TLC (irrevocable without / with the `TxListContract`) — each on its
//! own signature-checking chain with the four LedgerView contracts and one
//! view per node. Readers are then granted, query and open, verify
//! soundness and completeness, and (revocable methods) one reader per view
//! is revoked. Closed loop, one client. Every commit is a one-transaction
//! block through `invoke_commit`.

use std::collections::HashSet;
use std::time::Instant;

use fabric_sim::endorsement::EndorsementPolicy;
use fabric_sim::identity::OrgId;
use fabric_sim::ledger::Block;
use fabric_sim::{FabricChain, Identity};
use ledgerview_core::contracts::{
    AccessContract, InvokeContract, TxListContract, ViewStorageContract, ACCESS_CC, INVOKE_CC,
    TX_LIST_CC, VIEW_STORAGE_CC,
};
use ledgerview_core::manager::{
    AccessMode, EncryptionScheme, HashScheme, SecretScheme, ViewManager,
};
use ledgerview_core::{verify, ViewError, ViewPredicate, ViewReader};
use ledgerview_crypto::keys::EncryptionKeyPair;
use ledgerview_crypto::rng::seeded;
use rand::rngs::StdRng;

use crate::harness::{median, secs, Rep, Stopwatch};
use crate::inputs::{view_deck, ViewDeck};
use crate::probes::{self, row, Row};
use crate::spans::Spans;

pub const READERS_PER_VIEW: usize = 4;
pub const QUERIES_PER_READER: usize = 5;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Method {
    Er,
    Hr,
    Ei,
    EiTlc,
}

impl Method {
    pub const ALL: [Method; 4] = [Method::Er, Method::Hr, Method::Ei, Method::EiTlc];

    fn mode(self) -> AccessMode {
        match self {
            Method::Er | Method::Hr => AccessMode::Revocable,
            Method::Ei | Method::EiTlc => AccessMode::Irrevocable,
        }
    }

    fn request_span(self) -> &'static str {
        match self {
            Method::Er => "core.request.er",
            Method::Hr => "core.request.hr",
            Method::Ei => "core.request.ei",
            Method::EiTlc => "core.request.ei_tlc",
        }
    }
}

/// A chain with the four LedgerView contracts, the view owner and the
/// requesting client. Endorsement signatures are produced and checked.
struct Deployment {
    chain: FabricChain,
    owner: Identity,
    client: Identity,
    rng: StdRng,
}

fn deploy(seed: u64) -> Deployment {
    let mut rng = seeded(seed);
    let mut chain = FabricChain::new(&["Org1", "Org2"], &mut rng);
    let policy = EndorsementPolicy::MajorityOf(chain.org_ids());
    chain.deploy(INVOKE_CC, Box::new(InvokeContract), policy.clone());
    chain.deploy(
        VIEW_STORAGE_CC,
        Box::new(ViewStorageContract),
        policy.clone(),
    );
    chain.deploy(TX_LIST_CC, Box::new(TxListContract), policy.clone());
    chain.deploy(ACCESS_CC, Box::new(AccessContract), policy);
    let owner = chain
        .enroll(&OrgId::new("Org1"), "owner", &mut rng)
        .expect("enroll owner");
    let client = chain
        .enroll(&OrgId::new("Org2"), "client", &mut rng)
        .expect("enroll client");
    Deployment {
        chain,
        owner,
        client,
        rng,
    }
}

/// What replaying the deck under one method left behind.
pub struct MethodOutcome {
    pub method: Method,
    pub requests: u64,
    /// On-chain transactions and ledger bytes the request replay (flush
    /// included) added.
    pub request_txs: u64,
    pub request_ledger_bytes: u64,
    /// Transactions revealed to readers and checked by soundness.
    pub revealed_txs: u64,
    /// The chain as the method left it, and its view owner.
    pub chain: FabricChain,
    pub owner: Identity,
}

impl MethodOutcome {
    fn stored_bytes(&self) -> u64 {
        self.chain.store().total_bytes() + self.chain.state().size_bytes()
    }
}

fn denied<T>(result: Result<T, ViewError>, who: &str) {
    match result {
        Err(ViewError::AccessDenied(_)) => {}
        Err(e) => panic!("{who}: expected AccessDenied, got {e}"),
        Ok(_) => panic!("{who}: expected AccessDenied, got an answer"),
    }
}

fn run_method<S: SecretScheme>(
    method: Method,
    mut dep: Deployment,
    deck: &ViewDeck,
    spans: &mut Spans,
) -> MethodOutcome {
    let Deployment {
        chain,
        owner,
        client,
        rng,
    } = &mut dep;
    let mut mgr: ViewManager<S> = ViewManager::new(owner.clone(), method == Method::EiTlc);

    for (v, node) in deck.nodes.iter().enumerate() {
        spans.time("core.create_view", v as u64, |_| {
            mgr.create_view(
                chain,
                node.clone(),
                ViewPredicate::attr_eq("to", node.clone()),
                method.mode(),
                rng,
            )
            .expect("create view")
        });
    }

    // ---- the request deck -------------------------------------------
    let (height0, bytes0) = (chain.height(), chain.store().total_bytes());
    for (i, request) in deck.requests.iter().enumerate() {
        spans.time(method.request_span(), i as u64, |_| {
            mgr.invoke_with_secret(chain, client, request, rng)
                .expect("view request commits")
        });
    }
    spans.time("core.flush", 0, |_| mgr.flush(chain, rng).expect("flush"));
    let request_txs = chain.height() - height0;
    let request_ledger_bytes = chain.store().total_bytes() - bytes0;
    match method {
        Method::Er | Method::Hr => assert_eq!(request_txs, deck.requests.len() as u64),
        Method::Ei => assert_eq!(request_txs, 2 * deck.requests.len() as u64),
        Method::EiTlc => assert!(request_txs <= deck.requests.len() as u64 + 2),
    }

    // ---- readers: grant, query + open, verify, revoke ------------------
    let mut revealed_txs = 0u64;
    for (v, node) in deck.nodes.iter().enumerate() {
        let expected = deck.expected[node];
        let mut readers: Vec<ViewReader> = Vec::with_capacity(READERS_PER_VIEW);
        for r in 0..READERS_PER_VIEW {
            let op = (v * READERS_PER_VIEW + r) as u64;
            let keys = EncryptionKeyPair::generate(rng);
            spans.time("core.grant", op, |_| {
                mgr.grant_access(chain, node, keys.public(), rng)
                    .expect("grant access")
            });
            readers.push(ViewReader::new(keys));
        }
        let mut last = Vec::new();
        for (r, reader) in readers.iter_mut().enumerate() {
            let op = (v * READERS_PER_VIEW + r) as u64;
            spans.time("core.obtain_key", op, |_| {
                reader
                    .obtain_view_key(chain, node)
                    .expect("reader finds its key")
            });
            for _ in 0..QUERIES_PER_READER {
                let response = spans.time("core.query", op, |_| {
                    mgr.query_view(node, &reader.public(), None, rng)
                        .expect("query view")
                });
                last = spans.time("core.open_response", op, |_| {
                    reader
                        .open_response(chain, node, &response)
                        .expect("open response")
                });
                assert_eq!(last.len(), expected, "view {node} revealed the wrong count");
            }
        }
        revealed_txs += last.len() as u64;

        let sound = spans.time("core.verify_soundness", v as u64, |_| {
            verify::verify_soundness(chain, node, &last).expect("soundness runs")
        });
        assert!(
            sound.ok && sound.checked == expected,
            "view {node} unsound: {sound:?}"
        );
        let tids: HashSet<_> = last.iter().map(|t| t.tid).collect();
        let scan = spans.time("core.verify_completeness_scan", v as u64, |_| {
            verify::verify_completeness_scan(chain, node, &tids, u64::MAX)
                .expect("completeness scan runs")
        });
        assert!(
            scan.ok && scan.checked == expected,
            "view {node} incomplete: {scan:?}"
        );
        if method == Method::EiTlc {
            let listed = spans.time("core.verify_completeness_txlist", v as u64, |_| {
                verify::verify_completeness_txlist(chain, node, &tids, u64::MAX)
                    .expect("completeness by txlist runs")
            });
            assert!(
                listed.ok && listed.checked == expected,
                "view {node}: {listed:?}"
            );
        }

        // An outsider is refused; after revocation so is the revoked
        // reader, both at the owner and at the chain's access list.
        spans.time("core.denied_checks", v as u64, |_| {
            let outsider = EncryptionKeyPair::generate(rng).public();
            denied(mgr.query_view(node, &outsider, None, rng), "outsider");
        });
        if method.mode() == AccessMode::Revocable {
            let revoked = readers[0].public();
            spans.time("core.revoke", v as u64, |_| {
                mgr.revoke_access(chain, node, &revoked, rng)
                    .expect("revoke access")
            });
            spans.time("core.denied_checks", v as u64, |_| {
                denied(mgr.query_view(node, &revoked, None, rng), "revoked reader");
                denied(
                    readers[0].obtain_view_key(chain, node),
                    "revoked reader's key",
                );
                readers[1]
                    .obtain_view_key(chain, node)
                    .expect("remaining reader gets the rotated key");
            });
        }
    }

    MethodOutcome {
        method,
        requests: deck.requests.len() as u64,
        request_txs,
        request_ledger_bytes,
        revealed_txs,
        chain: dep.chain,
        owner: dep.owner,
    }
}

pub struct ViewRun {
    pub rep: Rep,
    pub methods: Vec<MethodOutcome>,
}

/// One repetition: set up the deck and four chains, then replay and read
/// under each method.
pub fn run_rep(seed: u64, items: usize, spans: &mut Spans) -> ViewRun {
    let setup = Instant::now();
    let deck = view_deck(seed, items);
    let mut deployments: Vec<Deployment> = Method::ALL
        .iter()
        .map(|m| deploy(seed ^ (*m as u64 + 1)))
        .collect();
    let setup_s = secs(setup.elapsed());

    let watch = Stopwatch::start();
    let methods: Vec<MethodOutcome> = Method::ALL
        .iter()
        .map(|&m| {
            let dep = deployments.remove(0);
            match m {
                Method::Er | Method::Ei | Method::EiTlc => {
                    run_method::<EncryptionScheme>(m, dep, &deck, spans)
                }
                Method::Hr => run_method::<HashScheme>(m, dep, &deck, spans),
            }
        })
        .collect();
    let (wall_s, cpu_us) = watch.stop();

    let requests: u64 = methods.iter().map(|m| m.requests).sum();
    ViewRun {
        rep: Rep {
            setup_s: Some(setup_s),
            wall_s,
            cpu_us,
            attempted: requests,
            valid: requests,
            stored_bytes: methods.iter().map(MethodOutcome::stored_bytes).sum(),
            fingerprint: methods
                .iter()
                .map(|m| m.chain.state_root().to_hex())
                .collect::<Vec<_>>()
                .join("+"),
        },
        methods,
    }
}

// ---- traced run --------------------------------------------------------

/// One untraced and one traced repetition; the ledger rows come from the
/// spans around the very calls the workload makes, the on-chain counts
/// from height and ledger-byte deltas (Fig 6 slopes 1 / 2 / ≈ 1, Fig 9),
/// and the crypto and wire probes from the ER chain's committed blocks.
pub fn trace(seed: u64, items: usize, spans: &mut Spans) -> Vec<Row> {
    let untraced = run_rep(seed, items, &mut Spans::off());
    let traced = run_rep(seed, items, spans);

    let p50 = |name: &str| {
        let ms = spans.ms(name);
        (
            if ms.is_empty() { 0.0 } else { median(&ms) },
            ms.len() as u64,
        )
    };
    let p50_row = |metric: &'static str, span: &str| {
        let (v, n) = p50(span);
        row(metric, v, n)
    };
    let mean_row = |metric: &'static str, span: &str| {
        let ms = spans.ms(span);
        row(
            metric,
            ms.iter().sum::<f64>() / ms.len().max(1) as f64,
            ms.len() as u64,
        )
    };
    // Query and open are issued in pairs; so are the per-view checks.
    let paired = |a: &str, b: &str| -> Vec<f64> {
        spans
            .ms(a)
            .iter()
            .zip(spans.ms(b))
            .map(|(x, y)| x + y)
            .collect()
    };
    let view_query = paired("core.query", "core.open_response");
    let view_verify = paired("core.verify_soundness", "core.verify_completeness_scan");
    let revealed: u64 = traced.methods.iter().map(|m| m.revealed_txs).sum();

    let mut rows = vec![
        mean_row("core.create_view_ms", "core.create_view"),
        p50_row("core.request_ms_p50.er", "core.request.er"),
        p50_row("core.request_ms_p50.hr", "core.request.hr"),
        p50_row("core.request_ms_p50.ei", "core.request.ei"),
        p50_row("core.request_ms_p50.ei_tlc", "core.request.ei_tlc"),
        mean_row("core.flush_ms", "core.flush"),
        p50_row("core.grant_ms_p50", "core.grant"),
        p50_row("core.query_ms_p50", "core.query"),
        p50_row("core.open_response_ms_p50", "core.open_response"),
        row(
            "core.view_query_ms_p50",
            median(&view_query),
            view_query.len() as u64,
        ),
        row(
            "core.view_verify_ms_p50",
            median(&view_verify),
            view_verify.len() as u64,
        ),
        row(
            "core.verify_soundness_us_per_tx",
            spans.total_s("core.verify_soundness") * 1e6 / revealed.max(1) as f64,
            revealed,
        ),
        mean_row(
            "core.verify_completeness_ms.scan",
            "core.verify_completeness_scan",
        ),
        mean_row(
            "core.verify_completeness_ms.txlist",
            "core.verify_completeness_txlist",
        ),
        p50_row("core.revoke_ms_p50", "core.revoke"),
        row(
            "core.ledger_tiling",
            spans.root_total_s() / traced.rep.wall_s,
            spans.done.len() as u64,
        ),
        row(
            "telemetry.trace_overhead_pct",
            (traced.rep.wall_s / untraced.rep.wall_s - 1.0) * 100.0,
            2,
        ),
    ];
    for m in &traced.methods {
        let (txs, bytes) = match m.method {
            Method::Er => (
                "core.onchain_txs_per_request.er",
                "core.ledger_bytes_per_request.er",
            ),
            Method::Ei => (
                "core.onchain_txs_per_request.ei",
                "core.ledger_bytes_per_request.ei",
            ),
            Method::EiTlc => (
                "core.onchain_txs_per_request.ei_tlc",
                "core.ledger_bytes_per_request.ei_tlc",
            ),
            Method::Hr => continue,
        };
        rows.push(row(
            txs,
            m.request_txs as f64 / m.requests as f64,
            m.requests,
        ));
        rows.push(row(
            bytes,
            m.request_ledger_bytes as f64 / m.requests as f64,
            m.requests,
        ));
    }

    let er = &traced.methods[0];
    let blocks: Vec<&Block> = er.chain.store().iter().collect();
    rows.extend(probes::crypto_signatures(&blocks, &er.owner));
    // A response carries, per revealed transaction, a 32-byte tid and a
    // sealed 32-byte key: ≈ 116 bytes.
    let views = spans.ms("core.create_view").len() / Method::ALL.len();
    rows.extend(probes::crypto_view_sizes(
        er.revealed_txs as usize * 116 / views.max(1),
    ));
    rows.extend(probes::wire(&blocks));
    rows.extend(probes::store(&blocks, 0));
    rows
}
