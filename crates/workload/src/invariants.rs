//! The twelve-consistency-style invariant checks, recomputed from
//! committed state.
//!
//! Two tiers, matching what the protocol actually guarantees at each
//! point:
//!
//! * **Local** ([`check_warehouse_local`]) — invariants the contract
//!   preserves within every single transaction, so they hold on every
//!   committed block boundary *even while cross-shard operations are in
//!   flight*: warehouse YTD equals the sum of its district YTDs (the
//!   payment home leg moves both atomically), district order allocation
//!   matches the order/order-line/new-order row counts.
//! * **Global** ([`check_global`]) — invariants spanning shards that 2PC
//!   restores at quiescence: every cent of warehouse YTD is some
//!   customer's YTD payment (cross-warehouse payments conserve money
//!   through the protocol), stock movements equal ordered quantities,
//!   customer balances reconcile against deliveries minus payments, and
//!   no prepared-but-undecided leg survives anywhere.
//!
//! The checkers parse raw state — they share nothing with the contract
//! but the pure [`schema`] functions and the 2PC fence's read helper for
//! staged legs — so a bug in the contract's bookkeeping cannot hide in a
//! shared code path.

use fabric_sim::statedb::VersionedState;
use ledgerview_shard::participant::{staged, Staging};

use crate::contract::TpccContract;
use crate::schema::{self, warehouse_key, DISTRICTS};

fn parse(s: &[u8], what: &str) -> Result<Vec<i64>, String> {
    std::str::from_utf8(s)
        .map_err(|_| format!("{what}: not UTF-8"))?
        .split(',')
        .map(|f| {
            f.parse::<i64>()
                .map_err(|_| format!("{what}: bad field {f:?}"))
        })
        .collect()
}

/// Split a composite key into its `~`-separated components.
fn parts(key: &str) -> Vec<&str> {
    key.split('~').collect()
}

/// Local invariants for one warehouse on its shard's committed state.
/// A warehouse that is not yet populated passes vacuously. Returns the
/// number of checks evaluated.
pub fn check_warehouse_local(state: &dyn VersionedState, w: u64) -> Result<u64, String> {
    let Some(wh) = state.get(&warehouse_key(w)) else {
        return Ok(0);
    };
    let w_ytd = parse(&wh, "warehouse")?[0];
    let mut checks = 0u64;

    let mut district_ytd_sum = 0i64;
    for d in 0..DISTRICTS {
        let Some(dist) = state.get(&schema::district_key(w, d)) else {
            continue;
        };
        let dist = parse(&dist, "district")?;
        let (next_o_id, d_ytd) = (dist[0], dist[1]);
        district_ytd_sum += d_ytd;

        let ord_prefix = format!("wh~w{w}~ord~{d:02}~");
        let orders = state.prefix_scan(&ord_prefix);
        if next_o_id - 1 != orders.len() as i64 {
            return Err(format!(
                "w{w}/d{d}: next_o_id {next_o_id} but {} orders",
                orders.len()
            ));
        }
        checks += 1;

        let mut ol_cnt_sum = 0i64;
        let mut undelivered = 0i64;
        for (key, value) in &orders {
            let ord = parse(value, "order")?;
            ol_cnt_sum += ord[3];
            if ord[2] == 0 {
                undelivered += 1;
                let o = parts(key)[4]
                    .parse::<u64>()
                    .map_err(|_| format!("bad order key {key}"))?;
                if state.get(&schema::new_order_key(w, d, o)).is_none() {
                    return Err(format!("w{w}/d{d}/o{o}: undelivered but no marker"));
                }
            }
        }
        let ol_rows = state.prefix_scan(&format!("wh~w{w}~ol~{d:02}~")).len() as i64;
        if ol_cnt_sum != ol_rows {
            return Err(format!(
                "w{w}/d{d}: orders claim {ol_cnt_sum} lines, found {ol_rows}"
            ));
        }
        checks += 1;

        let markers = state.prefix_scan(&format!("wh~w{w}~no~{d:02}~")).len() as i64;
        if markers != undelivered {
            return Err(format!(
                "w{w}/d{d}: {markers} new-order markers, {undelivered} undelivered orders"
            ));
        }
        checks += 1;
    }
    if w_ytd != district_ytd_sum {
        return Err(format!(
            "w{w}: warehouse YTD {w_ytd} ≠ Σ district YTD {district_ytd_sum}"
        ));
    }
    checks += 1;
    Ok(checks)
}

/// Global invariants over every shard's committed state at quiescence.
/// Returns the number of checks evaluated.
pub fn check_global(states: &[&dyn VersionedState]) -> Result<u64, String> {
    let mut w_ytd_sum = 0i64;
    let mut cust_ytd_sum = 0i64;
    let mut cust_balance_sum = 0i64;
    let mut stock_ytd_sum = 0i64;
    let mut ol_qty_sum = 0i64;
    let mut delivered_amount_sum = 0i64;

    for state in states {
        for (key, value) in state.prefix_scan("wh~") {
            let p = parts(&key);
            match p.get(2).copied() {
                Some("meta") => w_ytd_sum += parse(&value, "warehouse")?[0],
                Some("cust") => {
                    let cust = parse(&value, "customer")?;
                    cust_balance_sum += cust[0];
                    cust_ytd_sum += cust[1];
                }
                Some("stock") => stock_ytd_sum += parse(&value, "stock")?[1],
                Some("ol") => ol_qty_sum += parse(&value, "order line")?[2],
                Some("ord") => {
                    let ord = parse(&value, "order")?;
                    if ord[2] != 0 {
                        // Delivered: its lines' amounts were credited to
                        // the customer. Recompute from the line rows.
                        let (w, d, o) = (p[1], p[3], p[4]);
                        for (_, ol) in state.prefix_scan(&format!("wh~{w}~ol~{d}~{o}~")) {
                            delivered_amount_sum += parse(&ol, "order line")?[3];
                        }
                    }
                }
                _ => {}
            }
        }
        let stranded = staged(*state, TpccContract::NS);
        if !stranded.is_empty() {
            return Err(format!(
                "{} prepared-but-undecided legs after quiescence: {:?}",
                stranded.len(),
                stranded
                    .iter()
                    .map(|s| format!("{}~{}", s.req, s.suffix))
                    .collect::<Vec<_>>()
            ));
        }
    }

    if w_ytd_sum != cust_ytd_sum {
        return Err(format!(
            "Σ warehouse YTD {w_ytd_sum} ≠ Σ customer YTD payments {cust_ytd_sum} \
             (a cross-warehouse payment leg was lost or duplicated)"
        ));
    }
    if stock_ytd_sum != ol_qty_sum {
        return Err(format!(
            "Σ stock YTD {stock_ytd_sum} ≠ Σ order-line qty {ol_qty_sum} \
             (a remote stock leg was lost or duplicated)"
        ));
    }
    if cust_balance_sum != delivered_amount_sum - cust_ytd_sum {
        return Err(format!(
            "Σ customer balance {cust_balance_sum} ≠ deliveries {delivered_amount_sum} \
             − payments {cust_ytd_sum}"
        ));
    }
    Ok(4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TPCC_CC;
    use fabric_sim::endorsement::EndorsementPolicy;
    use fabric_sim::identity::OrgId;
    use fabric_sim::FabricChain;
    use ledgerview_crypto::rng::seeded;
    use ledgerview_shard::participant::Fenced;

    #[test]
    fn invariants_hold_on_a_scripted_chain_and_catch_tampering() {
        let mut rng = seeded(0x117);
        let mut chain = FabricChain::new(&["OrgA"], &mut rng);
        chain.deploy(
            TPCC_CC,
            Box::new(Fenced(TpccContract)),
            EndorsementPolicy::AllOf(chain.org_ids()),
        );
        let id = chain.enroll(&OrgId::new("OrgA"), "t", &mut rng).unwrap();
        let call = |chain: &mut FabricChain, rng: &mut _, f: &str, args: &[&str]| {
            let args: Vec<Vec<u8>> = args.iter().map(|a| a.as_bytes().to_vec()).collect();
            chain.invoke_commit(&id, TPCC_CC, f, args, rng).unwrap();
        };
        call(&mut chain, &mut rng, "load_warehouse", &["0", "4"]);
        for d in 0..4u64 {
            call(
                &mut chain,
                &mut rng,
                "load_customers",
                &["0", &d.to_string(), "8"],
            );
        }
        call(&mut chain, &mut rng, "load_stock", &["0", "0", "32"]);
        call(
            &mut chain,
            &mut rng,
            "new_order",
            &["0", "1", "2", "4:0:3;11:0:1", "50"],
        );
        call(
            &mut chain,
            &mut rng,
            "payment",
            &["0", "0", "0", "1", "2", "700"],
        );
        call(&mut chain, &mut rng, "delivery", &["0", "3", "4"]);

        let checks = check_warehouse_local(chain.state(), 0).unwrap();
        assert!(checks > 0);
        assert_eq!(check_warehouse_local(chain.state(), 9).unwrap(), 0);
        check_global(&[chain.state()]).unwrap();

        // Tamper: a payment that only touches the customer half is the
        // signature of a half-applied cross-warehouse payment.
        call(
            &mut chain,
            &mut rng,
            "prepare_pay_cust",
            &["rx", "0", "1", "2", "100"],
        );
        call(&mut chain, &mut rng, "commit", &["rx"]);
        let err = check_global(&[chain.state()]).unwrap_err();
        assert!(err.contains("Σ warehouse YTD"), "{err}");
    }
}
