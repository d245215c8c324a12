//! The transaction mix: profile quotas, deterministic shuffling, and
//! per-transaction parameter generation.
//!
//! Everything is a pure function of `(seed, index)` via the SplitMix64
//! finalizer in `gateway::keydist` — no RNG object threads
//! through the harness, so the schedule is identical regardless of how
//! the run is paced or which other subsystems draw randomness.
//!
//! Profile shares follow TPC-C's card deck: ~45% NewOrder, ~43% Payment,
//! 4% OrderStatus, 4% Delivery, 4% StockLevel. The deck is dealt as
//! *exact* quotas shuffled deterministically (Fisher–Yates over the
//! hash stream), so a run's realized mix never drifts from the target —
//! the bench asserts it to ±2 points anyway, catching quota bugs.

use ledgerview_gateway::keydist::{mix64, unit, KeyDistribution};

use crate::schema::{encode_lines, OrderLine, CUSTOMERS, DISTRICTS, ITEMS};

/// The five TPC-C transaction profiles.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum TxProfile {
    /// Order entry: the throughput-counted profile (tpmC).
    NewOrder,
    /// Customer payment (15% to a remote customer when multi-warehouse).
    Payment,
    /// Read-only customer status.
    OrderStatus,
    /// Deliver the oldest undelivered order in every district.
    Delivery,
    /// Read-only low-stock count over a district's catalog slice.
    StockLevel,
}

impl TxProfile {
    /// All profiles, in deck order.
    pub const ALL: [TxProfile; 5] = [
        TxProfile::NewOrder,
        TxProfile::Payment,
        TxProfile::OrderStatus,
        TxProfile::Delivery,
        TxProfile::StockLevel,
    ];

    /// Profile label for metrics and reports.
    pub fn label(self) -> &'static str {
        match self {
            TxProfile::NewOrder => "new_order",
            TxProfile::Payment => "payment",
            TxProfile::OrderStatus => "order_status",
            TxProfile::Delivery => "delivery",
            TxProfile::StockLevel => "stock_level",
        }
    }

    /// Target percentage of the mix.
    pub fn share(self) -> u64 {
        match self {
            TxProfile::NewOrder => 45,
            TxProfile::Payment => 43,
            TxProfile::OrderStatus | TxProfile::Delivery | TxProfile::StockLevel => 4,
        }
    }
}

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

fn h(seed: u64, i: u64, lane: u64) -> u64 {
    mix64(seed ^ i.wrapping_mul(GOLDEN) ^ (lane << 56))
}

/// Deal the deck: exactly `n` profiles at the target quotas (largest-
/// remainder apportionment, so the realized mix never drifts more than
/// one card from any target share), shuffled by a seed-derived
/// Fisher–Yates.
pub fn deal(seed: u64, n: usize) -> Vec<TxProfile> {
    let mut quotas: Vec<(TxProfile, u64, u64)> = TxProfile::ALL
        .iter()
        .map(|&p| {
            let exact = n as u64 * p.share();
            (p, exact / 100, exact % 100)
        })
        .collect();
    let dealt: u64 = quotas.iter().map(|&(_, q, _)| q).sum();
    // Hand the remainder cards to the largest fractional parts (ties in
    // deck order), one each.
    let mut order: Vec<usize> = (0..quotas.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(quotas[i].2));
    for &i in order.iter().take(n.saturating_sub(dealt as usize)) {
        quotas[i].1 += 1;
    }
    let mut deck = Vec::with_capacity(n);
    for (p, q, _) in quotas {
        deck.extend(std::iter::repeat_n(p, q as usize));
    }
    deck.truncate(n);
    for i in (1..deck.len()).rev() {
        let j = (h(seed, i as u64, 0) % (i as u64 + 1)) as usize;
        deck.swap(i, j);
    }
    deck
}

/// Parameters of one NewOrder.
#[derive(Clone, Debug)]
pub struct NewOrderParams {
    /// Home warehouse.
    pub w: u64,
    /// District.
    pub d: u64,
    /// Customer.
    pub c: u64,
    /// Order lines (Zipf-skewed items; ~1% remote supply when W > 1).
    pub lines: Vec<OrderLine>,
}

impl NewOrderParams {
    /// The wire encoding of the order lines.
    pub fn lines_wire(&self) -> String {
        encode_lines(&self.lines)
    }

    /// Warehouses other than home that supply at least one line.
    pub fn remote_warehouses(&self) -> Vec<u64> {
        let mut ws: Vec<u64> = self
            .lines
            .iter()
            .filter(|l| l.supply_w != self.w)
            .map(|l| l.supply_w)
            .collect();
        ws.sort_unstable();
        ws.dedup();
        ws
    }
}

/// Parameters of one Payment.
#[derive(Clone, Copy, Debug)]
pub struct PaymentParams {
    /// Warehouse taking the payment.
    pub w: u64,
    /// District taking the payment.
    pub d: u64,
    /// Customer's warehouse (≠ `w` for ~15% when W > 1).
    pub cw: u64,
    /// Customer's district.
    pub cd: u64,
    /// Customer.
    pub c: u64,
    /// Amount in cents.
    pub amount: u64,
}

/// Generators for per-transaction parameters: two Zipf samplers (the
/// shared `gateway::keydist` sampler) plus the warehouse count.
pub struct ParamGen {
    warehouses: u64,
    customers: KeyDistribution,
    items: KeyDistribution,
}

impl ParamGen {
    /// A generator over `warehouses` warehouses with TPC-C-ish skew:
    /// customers Zipf(1.0), items Zipf(0.9).
    pub fn new(warehouses: u64) -> ParamGen {
        ParamGen {
            warehouses: warehouses.max(1),
            customers: KeyDistribution::new(CUSTOMERS as usize, 1.0),
            items: KeyDistribution::new(ITEMS as usize, 0.9),
        }
    }

    fn warehouse(&self, x: u64) -> u64 {
        x % self.warehouses
    }

    /// A warehouse different from `home` (requires W > 1).
    fn other_warehouse(&self, home: u64, x: u64) -> u64 {
        let r = x % (self.warehouses - 1);
        if r >= home {
            r + 1
        } else {
            r
        }
    }

    /// NewOrder parameters for schedule slot `i`.
    pub fn new_order(&self, seed: u64, i: u64) -> NewOrderParams {
        let w = self.warehouse(h(seed, i, 1));
        let d = h(seed, i, 2) % DISTRICTS;
        let c = self.customers.sample_hash(h(seed, i, 3)) as u64;
        let n_lines = 2 + h(seed, i, 4) % 5; // 2..=6
        let lines = (0..n_lines)
            .map(|l| {
                let item = self.items.sample_hash(h(seed, i, 10 + l)) as u64;
                let remote = self.warehouses > 1 && unit(h(seed, i, 20 + l)) < 0.01;
                let supply_w = if remote {
                    self.other_warehouse(w, h(seed, i, 30 + l))
                } else {
                    w
                };
                OrderLine {
                    item,
                    supply_w,
                    qty: 1 + h(seed, i, 40 + l) % 10,
                }
            })
            .collect();
        NewOrderParams { w, d, c, lines }
    }

    /// Payment parameters for schedule slot `i`.
    pub fn payment(&self, seed: u64, i: u64) -> PaymentParams {
        let w = self.warehouse(h(seed, i, 1));
        let d = h(seed, i, 2) % DISTRICTS;
        let remote = self.warehouses > 1 && unit(h(seed, i, 5)) < 0.15;
        let cw = if remote {
            self.other_warehouse(w, h(seed, i, 6))
        } else {
            w
        };
        PaymentParams {
            w,
            d,
            cw,
            cd: h(seed, i, 7) % DISTRICTS,
            c: self.customers.sample_hash(h(seed, i, 3)) as u64,
            amount: 1 + h(seed, i, 8) % 4999,
        }
    }

    /// `(w, d, c)` for OrderStatus.
    pub fn order_status(&self, seed: u64, i: u64) -> (u64, u64, u64) {
        (
            self.warehouse(h(seed, i, 1)),
            h(seed, i, 2) % DISTRICTS,
            self.customers.sample_hash(h(seed, i, 3)) as u64,
        )
    }

    /// `(w, carrier)` for Delivery.
    pub fn delivery(&self, seed: u64, i: u64) -> (u64, u64) {
        (self.warehouse(h(seed, i, 1)), 1 + h(seed, i, 9) % 9)
    }

    /// `(w, d, threshold)` for StockLevel.
    pub fn stock_level(&self, seed: u64, i: u64) -> (u64, u64, u64) {
        (
            self.warehouse(h(seed, i, 1)),
            h(seed, i, 2) % DISTRICTS,
            10 + h(seed, i, 9) % 11, // 10..=20
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deal_hits_exact_quotas_and_is_deterministic() {
        let deck = deal(42, 600);
        assert_eq!(deck.len(), 600);
        let count = |p: TxProfile| deck.iter().filter(|&&q| q == p).count();
        assert_eq!(count(TxProfile::Payment), 258); // 43%
        assert_eq!(count(TxProfile::OrderStatus), 24); // 4%
        assert_eq!(count(TxProfile::Delivery), 24);
        assert_eq!(count(TxProfile::StockLevel), 24);
        assert_eq!(count(TxProfile::NewOrder), 600 - 258 - 72); // remainder
        assert_eq!(deck, deal(42, 600), "same seed, same deck");
        assert_ne!(deck, deal(43, 600), "different seed shuffles differently");
    }

    #[test]
    fn params_stay_in_range_and_reproduce() {
        let gen = ParamGen::new(4);
        for i in 0..200 {
            let no = gen.new_order(7, i);
            assert!(no.w < 4 && no.d < DISTRICTS && no.c < CUSTOMERS);
            assert!((2..=6).contains(&no.lines.len()));
            for l in &no.lines {
                assert!(l.item < ITEMS && l.supply_w < 4 && (1..=10).contains(&l.qty));
            }
            assert!(!no.remote_warehouses().contains(&no.w));
            let p = gen.payment(7, i);
            assert!(p.w < 4 && p.cw < 4 && p.c < CUSTOMERS);
            assert!((1..5000).contains(&p.amount));
        }
        assert_eq!(gen.new_order(7, 3).lines, gen.new_order(7, 3).lines);
    }

    #[test]
    fn single_warehouse_never_goes_remote() {
        let gen = ParamGen::new(1);
        for i in 0..300 {
            assert!(gen.new_order(1, i).remote_warehouses().is_empty());
            assert_eq!(gen.payment(1, i).cw, 0);
        }
    }

    #[test]
    fn multi_warehouse_produces_remote_payments() {
        let gen = ParamGen::new(8);
        let remote = (0..1000)
            .filter(|&i| {
                let p = gen.payment(9, i);
                p.cw != p.w
            })
            .count();
        // ~15% target; allow a generous band for a 1000-draw sample.
        assert!((80..=220).contains(&remote), "remote payments: {remote}");
    }
}
