//! The TPC-C-class schema: composite keys, record encodings, and the
//! pure value functions shared by the contract and the invariant
//! checker.
//!
//! Every key starts with the routing prefix `wh~w<W>` (the first two
//! `~`-separated components, see `ledgerview_gateway::shardmap`), so one
//! shard-map pin per warehouse places a warehouse's entire row set —
//! districts, customers, stock, orders — on one shard channel. All
//! record values are ASCII comma-joined decimal fields: trivially
//! diffable in state dumps and stable across encoders.
//!
//! The scale constants are deliberately small (a simulated cluster
//! orders hundreds of transactions per virtual second, not tens of
//! thousands); ratios between them mirror TPC-C's shape, not its
//! magnitudes.

use fabric_sim::error::FabricError;

/// Districts per warehouse (TPC-C: 10).
pub const DISTRICTS: u64 = 4;
/// Customers per district (TPC-C: 3000).
pub const CUSTOMERS: u64 = 8;
/// Stock items per warehouse (TPC-C: 100k item catalog).
pub const ITEMS: u64 = 32;
/// Initial stock quantity per item.
pub const INITIAL_STOCK: u64 = 50;

/// Chaincode name of the TPC-C contract (deployed on every shard via
/// `ShardConfig::workloads`).
pub const TPCC_CC: &str = "wl.tpcc";

/// `wh~w<W>~meta` — the warehouse row (fields: `ytd`). Also the routing
/// key for shard resolution of anything touching `w`.
pub fn warehouse_key(w: u64) -> String {
    format!("wh~w{w}~meta")
}

/// `wh~w<W>~dist~<DD>` — a district row (fields: `next_o_id,ytd`).
pub fn district_key(w: u64, d: u64) -> String {
    format!("wh~w{w}~dist~{d:02}")
}

/// `wh~w<W>~cust~<DD>~<CCCC>` — a customer row (fields:
/// `balance,ytd_payment,payment_cnt,delivery_cnt`; balance is signed).
pub fn customer_key(w: u64, d: u64, c: u64) -> String {
    format!("wh~w{w}~cust~{d:02}~{c:04}")
}

/// `wh~w<W>~stock~<IIII>` — a stock row (fields:
/// `qty,ytd,order_cnt,remote_cnt`).
pub fn stock_key(w: u64, i: u64) -> String {
    format!("wh~w{w}~stock~{i:04}")
}

/// `wh~w<W>~ord~<DD>~<OOOOOOOO>` — an order row (fields:
/// `c_id,entry_us,carrier,ol_cnt`; carrier 0 = undelivered).
pub fn order_key(w: u64, d: u64, o: u64) -> String {
    format!("wh~w{w}~ord~{d:02}~{o:08}")
}

/// `wh~w<W>~no~<DD>~<OOOOOOOO>` — a new-order marker, deleted on
/// delivery.
pub fn new_order_key(w: u64, d: u64, o: u64) -> String {
    format!("wh~w{w}~no~{d:02}~{o:08}")
}

/// `wh~w<W>~ol~<DD>~<OOOOOOOO>~<LL>` — an order line (fields:
/// `i_id,supply_w,qty,amount`).
pub fn order_line_key(w: u64, d: u64, o: u64, l: u64) -> String {
    format!("wh~w{w}~ol~{d:02}~{o:08}~{l:02}")
}

/// `wh~w<W>~audit~<SSSSSS>` — a view-maintenance audit row, written by
/// `audit_flush` when per-warehouse views are enabled.
pub fn audit_key(w: u64, seq: u64) -> String {
    format!("wh~w{w}~audit~{seq:06}")
}

/// Deterministic catalog price of item `i`, in cents: a pure function,
/// so the contract (computing order-line amounts) and the invariant
/// checker (recomputing them from order lines) can never disagree.
pub fn item_price(i: u64) -> u64 {
    100 + super::mix64(i ^ 0xA5A5_5A5A_7C9D_0101) % 900
}

/// Parse an ASCII decimal `u64` field.
pub fn parse_u64(s: &str, what: &str) -> Result<u64, FabricError> {
    s.parse::<u64>()
        .map_err(|_| FabricError::Malformed(format!("{what}: bad u64 {s:?}")))
}

/// Parse an ASCII decimal `i64` field.
pub fn parse_i64(s: &str, what: &str) -> Result<i64, FabricError> {
    s.parse::<i64>()
        .map_err(|_| FabricError::Malformed(format!("{what}: bad i64 {s:?}")))
}

/// Split a comma-joined record into exactly `n` fields.
pub fn fields(value: &[u8], n: usize, what: &str) -> Result<Vec<String>, FabricError> {
    let s = std::str::from_utf8(value)
        .map_err(|_| FabricError::Malformed(format!("{what}: not UTF-8")))?;
    let parts: Vec<String> = s.split(',').map(str::to_string).collect();
    if parts.len() != n {
        return Err(FabricError::Malformed(format!(
            "{what}: expected {n} fields, got {}",
            parts.len()
        )));
    }
    Ok(parts)
}

/// One requested order line: item, supplying warehouse, quantity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OrderLine {
    /// Catalog item id.
    pub item: u64,
    /// Supplying warehouse (equals the home warehouse unless remote).
    pub supply_w: u64,
    /// Quantity ordered.
    pub qty: u64,
}

/// Encode order lines as the wire string `i:sw:q;i:sw:q;…`.
pub fn encode_lines(lines: &[OrderLine]) -> String {
    lines
        .iter()
        .map(|l| format!("{}:{}:{}", l.item, l.supply_w, l.qty))
        .collect::<Vec<_>>()
        .join(";")
}

/// Decode the order-line wire string.
pub fn decode_lines(s: &str) -> Result<Vec<OrderLine>, FabricError> {
    s.split(';')
        .filter(|part| !part.is_empty())
        .map(|part| {
            let mut it = part.split(':');
            let (Some(i), Some(sw), Some(q), None) = (it.next(), it.next(), it.next(), it.next())
            else {
                return Err(FabricError::Malformed(format!("bad order line {part:?}")));
            };
            Ok(OrderLine {
                item: parse_u64(i, "line item")?,
                supply_w: parse_u64(sw, "line supply_w")?,
                qty: parse_u64(q, "line qty")?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_share_the_warehouse_routing_prefix() {
        for key in [
            warehouse_key(3),
            district_key(3, 1),
            customer_key(3, 1, 7),
            stock_key(3, 12),
            order_key(3, 1, 42),
            new_order_key(3, 1, 42),
            order_line_key(3, 1, 42, 2),
            audit_key(3, 9),
        ] {
            assert_eq!(ledgerview_gateway::routing_prefix(&key), "wh~w3");
        }
        // Different warehouses route independently.
        assert_ne!(
            ledgerview_gateway::routing_prefix(&warehouse_key(1)),
            ledgerview_gateway::routing_prefix(&warehouse_key(2))
        );
    }

    #[test]
    fn line_roundtrip() {
        let lines = vec![
            OrderLine {
                item: 3,
                supply_w: 0,
                qty: 5,
            },
            OrderLine {
                item: 17,
                supply_w: 2,
                qty: 1,
            },
        ];
        assert_eq!(decode_lines(&encode_lines(&lines)).unwrap(), lines);
        assert!(decode_lines("1:2").is_err());
    }

    #[test]
    fn prices_are_stable_and_bounded() {
        for i in 0..ITEMS {
            let p = item_price(i);
            assert!((100..1000).contains(&p));
            assert_eq!(p, item_price(i));
        }
    }
}
