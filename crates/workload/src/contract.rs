//! The TPC-C-class chaincode: population loaders, the five transaction
//! profiles, and 2PC participant legs for cross-warehouse work.
//!
//! Direct profile functions assume every key they touch routes to the
//! executing shard — the driver only submits them that way (the shard
//! router proves co-residency before choosing the direct path). When a
//! transaction spans warehouses on different shards, the driver runs it
//! through the deployment's 2PC instead. The contract is a
//! [`Staging`] impl deployed behind the crosschain 2PC fence
//! ([`Fenced`](ledgerview_shard::participant::Fenced)) under namespace
//! `t`: each `prepare_*` function stages its effects as a pending action
//! under `tpend~<req>~<suffix>` and votes YES, commit applies every
//! pending action on this shard atomically, and abort discards them. The
//! fence's terminal markers (`tfin~<req>`) make both finalize functions
//! idempotent and give presumed-abort semantics, exactly as for the
//! crosschain participants.
//!
//! Argument convention: all numeric arguments are ASCII decimal strings;
//! order-line lists use the `i:sw:q;…` wire form from [`schema`].

use fabric_sim::chaincode::{arg_str, TxContext};
use fabric_sim::error::FabricError;
use ledgerview_shard::participant::Staging;

use crate::schema::{
    self, audit_key, customer_key, decode_lines, district_key, fields, item_price, new_order_key,
    order_key, order_line_key, parse_i64, parse_u64, stock_key, warehouse_key, OrderLine,
};

/// The TPC-C participant/profile contract, deployed as
/// `Fenced(TpccContract)`. Stateless; all state lives in the channel's
/// world state under the [`schema`] keys.
pub struct TpccContract;

fn arg_u64(args: &[Vec<u8>], i: usize, what: &str) -> Result<u64, FabricError> {
    parse_u64(&arg_str(args, i)?, what)
}

fn read_record(
    ctx: &mut TxContext<'_>,
    key: &str,
    n: usize,
    what: &str,
) -> Result<Vec<String>, FabricError> {
    let value = ctx
        .get_state(key)
        .ok_or_else(|| FabricError::ChaincodeError(format!("{what} {key} not populated")))?;
    fields(&value, n, what)
}

fn write_record(ctx: &mut TxContext<'_>, key: String, parts: &[String]) {
    ctx.put_state(key, parts.join(",").into_bytes());
}

/// Apply a new order against the executing shard's state: allocate the
/// order id from the district, write the order, marker, and order lines,
/// and update stock for those lines supplied by warehouses resident
/// here (`apply_stock` filter).
fn apply_new_order(
    ctx: &mut TxContext<'_>,
    w: u64,
    d: u64,
    c: u64,
    lines: &[OrderLine],
    entry_us: u64,
    apply_stock: impl Fn(&OrderLine) -> bool,
) -> Result<u64, FabricError> {
    let mut dist = read_record(ctx, &district_key(w, d), 2, "district")?;
    let o_id = parse_u64(&dist[0], "next_o_id")?;
    dist[0] = (o_id + 1).to_string();
    write_record(ctx, district_key(w, d), &dist);

    write_record(
        ctx,
        order_key(w, d, o_id),
        &[
            c.to_string(),
            entry_us.to_string(),
            "0".to_string(),
            lines.len().to_string(),
        ],
    );
    ctx.put_state(new_order_key(w, d, o_id), vec![1]);
    for (l, line) in lines.iter().enumerate() {
        let amount = line.qty * item_price(line.item);
        write_record(
            ctx,
            order_line_key(w, d, o_id, l as u64),
            &[
                line.item.to_string(),
                line.supply_w.to_string(),
                line.qty.to_string(),
                amount.to_string(),
            ],
        );
        if apply_stock(line) {
            apply_stock_update(ctx, line.supply_w, line.item, line.qty, line.supply_w != w)?;
        }
    }
    Ok(o_id)
}

/// Decrement stock, restocking TPC-C style when quantity runs low; bump
/// the per-row year-to-date, order, and remote counters.
fn apply_stock_update(
    ctx: &mut TxContext<'_>,
    w: u64,
    item: u64,
    qty: u64,
    remote: bool,
) -> Result<(), FabricError> {
    let mut stock = read_record(ctx, &stock_key(w, item), 4, "stock")?;
    let on_hand = parse_u64(&stock[0], "stock qty")?;
    stock[0] = if on_hand < qty + 10 {
        (on_hand + 91 - qty.min(on_hand + 91)).to_string()
    } else {
        (on_hand - qty).to_string()
    };
    stock[1] = (parse_u64(&stock[1], "stock ytd")? + qty).to_string();
    stock[2] = (parse_u64(&stock[2], "stock order_cnt")? + 1).to_string();
    if remote {
        stock[3] = (parse_u64(&stock[3], "stock remote_cnt")? + 1).to_string();
    }
    write_record(ctx, stock_key(w, item), &stock);
    Ok(())
}

/// Apply the home half of a payment: warehouse and district year-to-date
/// move together, which is what keeps `W_YTD = Σ D_YTD` true at every
/// committed block boundary.
fn apply_payment_home(
    ctx: &mut TxContext<'_>,
    w: u64,
    d: u64,
    amount: u64,
) -> Result<(), FabricError> {
    let mut wh = read_record(ctx, &warehouse_key(w), 1, "warehouse")?;
    wh[0] = (parse_u64(&wh[0], "warehouse ytd")? + amount).to_string();
    write_record(ctx, warehouse_key(w), &wh);
    let mut dist = read_record(ctx, &district_key(w, d), 2, "district")?;
    dist[1] = (parse_u64(&dist[1], "district ytd")? + amount).to_string();
    write_record(ctx, district_key(w, d), &dist);
    Ok(())
}

/// Apply the customer half of a payment.
fn apply_payment_customer(
    ctx: &mut TxContext<'_>,
    cw: u64,
    cd: u64,
    c: u64,
    amount: u64,
) -> Result<(), FabricError> {
    let mut cust = read_record(ctx, &customer_key(cw, cd, c), 4, "customer")?;
    cust[0] = (parse_i64(&cust[0], "balance")? - amount as i64).to_string();
    cust[1] = (parse_u64(&cust[1], "ytd_payment")? + amount).to_string();
    cust[2] = (parse_u64(&cust[2], "payment_cnt")? + 1).to_string();
    write_record(ctx, customer_key(cw, cd, c), &cust);
    Ok(())
}

/// A pending 2PC action, encoded `kind|field|field|…` under
/// `tpend~<req>~<suffix>`.
fn apply_pending(ctx: &mut TxContext<'_>, encoded: &str) -> Result<(), FabricError> {
    let parts: Vec<&str> = encoded.split('|').collect();
    match parts.first().copied() {
        Some("no_home") if parts.len() == 6 => {
            let w = parse_u64(parts[1], "pend w")?;
            let lines = decode_lines(parts[4])?;
            apply_new_order(
                ctx,
                w,
                parse_u64(parts[2], "pend d")?,
                parse_u64(parts[3], "pend c")?,
                &lines,
                parse_u64(parts[5], "pend entry")?,
                |line| line.supply_w == w,
            )?;
            Ok(())
        }
        Some("stock") if parts.len() == 4 => apply_stock_update(
            ctx,
            parse_u64(parts[1], "pend sw")?,
            parse_u64(parts[2], "pend item")?,
            parse_u64(parts[3], "pend qty")?,
            true,
        ),
        Some("pay_home") if parts.len() == 4 => apply_payment_home(
            ctx,
            parse_u64(parts[1], "pend w")?,
            parse_u64(parts[2], "pend d")?,
            parse_u64(parts[3], "pend amount")?,
        ),
        Some("pay_cust") if parts.len() == 5 => apply_payment_customer(
            ctx,
            parse_u64(parts[1], "pend cw")?,
            parse_u64(parts[2], "pend cd")?,
            parse_u64(parts[3], "pend c")?,
            parse_u64(parts[4], "pend amount")?,
        ),
        _ => Err(FabricError::Malformed(format!(
            "bad pending action {encoded:?}"
        ))),
    }
}

impl Staging for TpccContract {
    const NS: &'static str = "t";

    fn invoke(
        &self,
        ctx: &mut TxContext<'_>,
        function: &str,
        args: &[Vec<u8>],
    ) -> Result<Vec<u8>, FabricError> {
        match function {
            // ---- population ----
            "load_warehouse" => {
                let w = arg_u64(args, 0, "w")?;
                let districts = arg_u64(args, 1, "districts")?;
                write_record(ctx, warehouse_key(w), &["0".to_string()]);
                for d in 0..districts {
                    write_record(ctx, district_key(w, d), &["1".to_string(), "0".to_string()]);
                }
                Ok(vec![])
            }
            "load_customers" => {
                let w = arg_u64(args, 0, "w")?;
                let d = arg_u64(args, 1, "d")?;
                let count = arg_u64(args, 2, "count")?;
                for c in 0..count {
                    write_record(
                        ctx,
                        customer_key(w, d, c),
                        &[
                            "0".to_string(),
                            "0".to_string(),
                            "0".to_string(),
                            "0".to_string(),
                        ],
                    );
                }
                Ok(vec![])
            }
            "load_stock" => {
                let w = arg_u64(args, 0, "w")?;
                let lo = arg_u64(args, 1, "lo")?;
                let hi = arg_u64(args, 2, "hi")?;
                for i in lo..hi {
                    write_record(
                        ctx,
                        stock_key(w, i),
                        &[
                            schema::INITIAL_STOCK.to_string(),
                            "0".to_string(),
                            "0".to_string(),
                            "0".to_string(),
                        ],
                    );
                }
                Ok(vec![])
            }

            // ---- direct profiles (all keys co-resident) ----
            "new_order" => {
                let w = arg_u64(args, 0, "w")?;
                let lines = decode_lines(&arg_str(args, 3)?)?;
                let o_id = apply_new_order(
                    ctx,
                    w,
                    arg_u64(args, 1, "d")?,
                    arg_u64(args, 2, "c")?,
                    &lines,
                    arg_u64(args, 4, "entry_us")?,
                    |_| true,
                )?;
                Ok(o_id.to_string().into_bytes())
            }
            "payment" => {
                let w = arg_u64(args, 0, "w")?;
                let d = arg_u64(args, 1, "d")?;
                let cw = arg_u64(args, 2, "cw")?;
                let cd = arg_u64(args, 3, "cd")?;
                let c = arg_u64(args, 4, "c")?;
                let amount = arg_u64(args, 5, "amount")?;
                apply_payment_home(ctx, w, d, amount)?;
                apply_payment_customer(ctx, cw, cd, c, amount)?;
                Ok(vec![])
            }
            "order_status" => {
                let w = arg_u64(args, 0, "w")?;
                let d = arg_u64(args, 1, "d")?;
                let c = arg_u64(args, 2, "c")?;
                let cust = read_record(ctx, &customer_key(w, d, c), 4, "customer")?;
                Ok(cust.join(",").into_bytes())
            }
            "delivery" => {
                let w = arg_u64(args, 0, "w")?;
                let carrier = arg_u64(args, 1, "carrier")?;
                let districts = arg_u64(args, 2, "districts")?;
                let mut delivered = 0u64;
                for d in 0..districts {
                    let prefix = format!("wh~w{w}~no~{d:02}~");
                    let markers = ctx.get_state_by_prefix(&prefix);
                    let Some((marker, _)) = markers.first() else {
                        continue;
                    };
                    let o_id = parse_u64(&marker[prefix.len()..], "marker o_id")?;
                    ctx.delete_state(marker.clone());
                    let mut order = read_record(ctx, &order_key(w, d, o_id), 4, "order")?;
                    order[2] = carrier.max(1).to_string();
                    let c = parse_u64(&order[0], "order c_id")?;
                    let ol_cnt = parse_u64(&order[3], "order ol_cnt")?;
                    write_record(ctx, order_key(w, d, o_id), &order);
                    let mut total = 0u64;
                    for l in 0..ol_cnt {
                        let ol = read_record(ctx, &order_line_key(w, d, o_id, l), 4, "order line")?;
                        total += parse_u64(&ol[3], "ol amount")?;
                    }
                    let mut cust = read_record(ctx, &customer_key(w, d, c), 4, "customer")?;
                    cust[0] = (parse_i64(&cust[0], "balance")? + total as i64).to_string();
                    cust[3] = (parse_u64(&cust[3], "delivery_cnt")? + 1).to_string();
                    write_record(ctx, customer_key(w, d, c), &cust);
                    delivered += 1;
                }
                Ok(delivered.to_string().into_bytes())
            }
            "stock_level" => {
                let w = arg_u64(args, 0, "w")?;
                let d = arg_u64(args, 1, "d")?;
                let threshold = arg_u64(args, 2, "threshold")?;
                // Each district monitors its slice of the catalog — a
                // bounded read set instead of a whole-warehouse scan.
                let per = schema::ITEMS / schema::DISTRICTS;
                let mut low = 0u64;
                for i in (d * per)..((d + 1) * per) {
                    let stock = read_record(ctx, &stock_key(w, i), 4, "stock")?;
                    if parse_u64(&stock[0], "stock qty")? < threshold {
                        low += 1;
                    }
                }
                Ok(low.to_string().into_bytes())
            }
            "audit_flush" => {
                let w = arg_u64(args, 0, "w")?;
                let seq = arg_u64(args, 1, "seq")?;
                ctx.put_state(audit_key(w, seq), vec![1]);
                Ok(vec![])
            }
            other => Err(FabricError::ChaincodeError(format!(
                "TpccContract: unknown function {other}"
            ))),
        }
    }

    fn prepare(
        &self,
        _ctx: &mut TxContext<'_>,
        function: &str,
        args: &[Vec<u8>],
    ) -> Result<(String, Vec<u8>), FabricError> {
        let a = |i| arg_str(args, i);
        let (suffix, action) = match function {
            "prepare_no_home" => (
                "h".into(),
                format!("no_home|{}|{}|{}|{}|{}", a(0)?, a(1)?, a(2)?, a(3)?, a(4)?),
            ),
            "prepare_stock" => {
                let sw = arg_u64(args, 0, "sw")?;
                let item = arg_u64(args, 1, "item")?;
                let qty = arg_u64(args, 2, "qty")?;
                (
                    format!("s~{sw}~{item:04}"),
                    format!("stock|{sw}|{item}|{qty}"),
                )
            }
            "prepare_pay_home" => (
                "ph".into(),
                format!("pay_home|{}|{}|{}", a(0)?, a(1)?, a(2)?),
            ),
            "prepare_pay_cust" => (
                "pc".into(),
                format!("pay_cust|{}|{}|{}|{}", a(0)?, a(1)?, a(2)?, a(3)?),
            ),
            other => {
                return Err(FabricError::ChaincodeError(format!(
                    "TpccContract: unknown function {other}"
                )))
            }
        };
        Ok((suffix, action.into_bytes()))
    }

    fn commit(
        &self,
        ctx: &mut TxContext<'_>,
        _req: &str,
        _suffix: &str,
        value: &[u8],
    ) -> Result<(), FabricError> {
        let encoded = std::str::from_utf8(value)
            .map_err(|_| FabricError::Malformed("pending action not UTF-8".into()))?;
        apply_pending(ctx, encoded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_sim::endorsement::EndorsementPolicy;
    use fabric_sim::identity::{Identity, OrgId};
    use fabric_sim::FabricChain;
    use ledgerview_crypto::rng::seeded;
    use ledgerview_shard::participant::{terminal, Fenced, TerminalState};
    use rand::rngs::StdRng;

    fn tpcc_chain() -> (FabricChain, Identity, StdRng) {
        let mut rng = seeded(0x7CC);
        let mut chain = FabricChain::new(&["OrgA", "OrgB"], &mut rng);
        let policy = EndorsementPolicy::AllOf(chain.org_ids());
        chain.deploy(schema::TPCC_CC, Box::new(Fenced(TpccContract)), policy);
        let id = chain
            .enroll(&OrgId::new("OrgA"), "tester", &mut rng)
            .unwrap();
        (chain, id, rng)
    }

    fn call(
        chain: &mut FabricChain,
        id: &Identity,
        rng: &mut StdRng,
        function: &str,
        args: &[&str],
    ) -> Result<(), FabricError> {
        let args: Vec<Vec<u8>> = args.iter().map(|a| a.as_bytes().to_vec()).collect();
        chain
            .invoke_commit(id, schema::TPCC_CC, function, args, rng)
            .map(|_| ())
    }

    fn get(chain: &FabricChain, key: &str) -> Option<Vec<u8>> {
        chain.state().get(key)
    }

    fn populate(chain: &mut FabricChain, id: &Identity, rng: &mut StdRng) {
        call(chain, id, rng, "load_warehouse", &["0", "4"]).unwrap();
        for d in 0..4u64 {
            call(
                chain,
                id,
                rng,
                "load_customers",
                &["0", &d.to_string(), "8"],
            )
            .unwrap();
        }
        call(chain, id, rng, "load_stock", &["0", "0", "32"]).unwrap();
    }

    #[test]
    fn new_order_payment_delivery_flow() {
        let (mut chain, id, mut rng) = tpcc_chain();
        populate(&mut chain, &id, &mut rng);

        call(
            &mut chain,
            &id,
            &mut rng,
            "new_order",
            &["0", "1", "3", "5:0:2;9:0:1", "777"],
        )
        .unwrap();
        // District bumped, marker present, lines priced deterministically.
        let dist = get(&chain, &district_key(0, 1)).unwrap();
        assert!(String::from_utf8(dist).unwrap().starts_with("2,"));
        assert!(get(&chain, &new_order_key(0, 1, 1)).is_some());
        let ol = fields(&get(&chain, &order_line_key(0, 1, 1, 0)).unwrap(), 4, "ol").unwrap();
        assert_eq!(ol[3], (2 * item_price(5)).to_string());

        call(
            &mut chain,
            &id,
            &mut rng,
            "payment",
            &["0", "1", "0", "1", "3", "250"],
        )
        .unwrap();
        let wh = fields(&get(&chain, &warehouse_key(0)).unwrap(), 1, "wh").unwrap();
        assert_eq!(wh[0], "250");
        let cust = fields(&get(&chain, &customer_key(0, 1, 3)).unwrap(), 4, "cust").unwrap();
        assert_eq!(cust[0], "-250");
        assert_eq!(cust[1], "250");

        call(&mut chain, &id, &mut rng, "delivery", &["0", "7", "4"]).unwrap();
        assert!(
            get(&chain, &new_order_key(0, 1, 1)).is_none(),
            "marker consumed"
        );
        let order = fields(&get(&chain, &order_key(0, 1, 1)).unwrap(), 4, "ord").unwrap();
        assert_eq!(order[2], "7");
        let cust = fields(&get(&chain, &customer_key(0, 1, 3)).unwrap(), 4, "cust").unwrap();
        let total = (2 * item_price(5) + item_price(9)) as i64;
        assert_eq!(cust[0], (total - 250).to_string());
    }

    #[test]
    fn prepared_legs_apply_on_commit_and_vanish_on_abort() {
        let (mut chain, id, mut rng) = tpcc_chain();
        populate(&mut chain, &id, &mut rng);

        call(
            &mut chain,
            &id,
            &mut rng,
            "prepare_pay_home",
            &["r1", "0", "2", "100"],
        )
        .unwrap();
        call(&mut chain, &id, &mut rng, "commit", &["r1"]).unwrap();
        let wh = fields(&get(&chain, &warehouse_key(0)).unwrap(), 1, "wh").unwrap();
        assert_eq!(wh[0], "100");
        // Idempotent: replaying commit is a no-op.
        call(&mut chain, &id, &mut rng, "commit", &["r1"]).unwrap();
        let wh = fields(&get(&chain, &warehouse_key(0)).unwrap(), 1, "wh").unwrap();
        assert_eq!(wh[0], "100");
        // A late prepare after the terminal marker is fenced.
        assert!(call(
            &mut chain,
            &id,
            &mut rng,
            "prepare_pay_home",
            &["r1", "0", "2", "5"],
        )
        .is_err());

        call(
            &mut chain,
            &id,
            &mut rng,
            "prepare_stock",
            &["r2", "0", "4", "3"],
        )
        .unwrap();
        call(&mut chain, &id, &mut rng, "abort", &["r2"]).unwrap();
        let stock = fields(&get(&chain, &stock_key(0, 4)).unwrap(), 4, "stock").unwrap();
        assert_eq!(stock[1], "0", "aborted leg left no trace");
        assert_eq!(
            terminal(chain.state(), TpccContract::NS, "r2"),
            Some(TerminalState::Aborted)
        );
        // Presumed abort: aborting an unknown request just fences it.
        call(&mut chain, &id, &mut rng, "abort", &["r9"]).unwrap();
        assert_eq!(
            terminal(chain.state(), TpccContract::NS, "r9"),
            Some(TerminalState::Aborted)
        );
    }

    #[test]
    fn cross_warehouse_new_order_splits_stock_between_legs() {
        let (mut chain, id, mut rng) = tpcc_chain();
        populate(&mut chain, &id, &mut rng);
        call(&mut chain, &id, &mut rng, "load_warehouse", &["1", "4"]).unwrap();
        call(&mut chain, &id, &mut rng, "load_stock", &["1", "0", "32"]).unwrap();

        // Home leg: one home line, one remote line (supply_w = 1).
        call(
            &mut chain,
            &id,
            &mut rng,
            "prepare_no_home",
            &["r5", "0", "2", "1", "3:0:2;7:1:4", "900"],
        )
        .unwrap();
        call(
            &mut chain,
            &id,
            &mut rng,
            "prepare_stock",
            &["r5", "1", "7", "4"],
        )
        .unwrap();
        call(&mut chain, &id, &mut rng, "commit", &["r5"]).unwrap();

        // Home stock moved only for the home-supplied line…
        let home = fields(&get(&chain, &stock_key(0, 3)).unwrap(), 4, "stock").unwrap();
        assert_eq!(home[1], "2");
        let untouched = fields(&get(&chain, &stock_key(0, 7)).unwrap(), 4, "stock").unwrap();
        assert_eq!(untouched[1], "0");
        // …and the remote leg covered warehouse 1 with remote_cnt bumped.
        let remote = fields(&get(&chain, &stock_key(1, 7)).unwrap(), 4, "stock").unwrap();
        assert_eq!(remote[1], "4");
        assert_eq!(remote[3], "1");
        // Both order lines exist on the home warehouse.
        assert!(get(&chain, &order_line_key(0, 2, 1, 0)).is_some());
        assert!(get(&chain, &order_line_key(0, 2, 1, 1)).is_some());
    }
}
