//! View definitions: predicates over the non-secret part of transactions.
//!
//! A view is `V = { t | P_V(t[N]) }` (§3). Predicates are serializable so
//! the TxListContract can store them on-chain and any user can re-evaluate
//! them (this is what makes soundness *verifiable*). Recursive definitions
//! are evaluated by the datalog engine in [`crate::verify`]; the
//! structural predicates here cover the paper's experiments (one view per
//! supply-chain entity).

use fabric_sim::wire::{Reader, Writer};
use fabric_sim::FabricError;

use crate::error::ViewError;
use crate::txmodel::{AttrValue, NonSecret};

/// How deeply `Not`, `And` and `Or` may nest in a decoded predicate.
pub const MAX_PREDICATE_DEPTH: usize = 64;

/// A serializable predicate over the non-secret part.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ViewPredicate {
    /// Always true (the view of everything).
    True,
    /// Attribute equals a value, e.g. `to = "Warehouse 1"` (Example 3.2).
    AttrEquals(String, AttrValue),
    /// Attribute exists.
    AttrExists(String),
    /// Integer attribute comparison: `attr >= bound`.
    AttrAtLeast(String, i64),
    /// Conjunction.
    And(Vec<ViewPredicate>),
    /// Disjunction (the union-of-rules semantics of §3).
    Or(Vec<ViewPredicate>),
    /// Negation.
    Not(Box<ViewPredicate>),
}

impl ViewPredicate {
    /// Evaluate against a transaction's non-secret part.
    pub fn matches(&self, ns: &NonSecret) -> bool {
        match self {
            ViewPredicate::True => true,
            ViewPredicate::AttrEquals(k, v) => ns.get(k) == Some(v),
            ViewPredicate::AttrExists(k) => ns.contains_key(k),
            ViewPredicate::AttrAtLeast(k, bound) => {
                matches!(ns.get(k), Some(AttrValue::Int(i)) if i >= bound)
            }
            ViewPredicate::And(ps) => ps.iter().all(|p| p.matches(ns)),
            ViewPredicate::Or(ps) => ps.iter().any(|p| p.matches(ns)),
            ViewPredicate::Not(p) => !p.matches(ns),
        }
    }

    /// Convenience: `attr = string-value`.
    pub fn attr_eq(attr: impl Into<String>, value: impl Into<String>) -> ViewPredicate {
        ViewPredicate::AttrEquals(attr.into(), AttrValue::Str(value.into()))
    }

    /// Convenience: the supply-chain per-node view — transactions where the
    /// node is sender or receiver.
    pub fn touches_entity(entity: impl Into<String>) -> ViewPredicate {
        let e = entity.into();
        ViewPredicate::Or(vec![
            ViewPredicate::attr_eq("from", e.clone()),
            ViewPredicate::attr_eq("to", e.clone()),
            // Access granted to historical handlers: the workload generator
            // lists them in `handlers` as "h:<entity>" marker attributes.
            ViewPredicate::AttrExists(format!("handler~{e}")),
        ])
    }

    /// Canonical serialization (stored on-chain by the TxListContract).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.into_bytes()
    }

    fn encode(&self, w: &mut Writer) {
        match self {
            ViewPredicate::True => {
                w.u8(0);
            }
            ViewPredicate::AttrEquals(k, v) => {
                w.u8(1).string(k);
                match v {
                    AttrValue::Str(s) => {
                        w.u8(0).string(s);
                    }
                    AttrValue::Int(i) => {
                        w.u8(1).u64(*i as u64);
                    }
                }
            }
            ViewPredicate::AttrExists(k) => {
                w.u8(2).string(k);
            }
            ViewPredicate::AttrAtLeast(k, b) => {
                w.u8(3).string(k).u64(*b as u64);
            }
            ViewPredicate::And(ps) => {
                w.u8(4).list(ps, |w, p| p.encode(w));
            }
            ViewPredicate::Or(ps) => {
                w.u8(5).list(ps, |w, p| p.encode(w));
            }
            ViewPredicate::Not(p) => {
                w.u8(6);
                p.encode(w);
            }
        }
    }

    /// Decode from canonical bytes. Nesting deeper than
    /// [`MAX_PREDICATE_DEPTH`] is malformed: predicate bytes come from
    /// the chain, and an unbounded recursion would let a small definition
    /// overflow every verifier's stack.
    pub fn from_bytes(bytes: &[u8]) -> Result<ViewPredicate, ViewError> {
        let mut r = Reader::new(bytes);
        let p = Self::decode(&mut r, MAX_PREDICATE_DEPTH)?;
        r.finish()?;
        Ok(p)
    }

    /// Decode one predicate whose `Not`/`And`/`Or` may nest `depth` more
    /// levels.
    fn decode(r: &mut Reader<'_>, depth: usize) -> Result<ViewPredicate, FabricError> {
        let tag = r.u8()?;
        if matches!(tag, 4..=6) && depth == 0 {
            return Err(FabricError::Malformed("predicate nested too deep".into()));
        }
        let inner = |r: &mut Reader<'_>| Self::decode(r, depth - 1);
        Ok(match tag {
            0 => ViewPredicate::True,
            1 => {
                let k = r.string()?;
                let v = match r.u8()? {
                    0 => AttrValue::Str(r.string()?),
                    1 => AttrValue::Int(r.u64()? as i64),
                    _ => return Err(FabricError::Malformed("bad value tag".into())),
                };
                ViewPredicate::AttrEquals(k, v)
            }
            2 => ViewPredicate::AttrExists(r.string()?),
            3 => ViewPredicate::AttrAtLeast(r.string()?, r.u64()? as i64),
            4 => ViewPredicate::And(r.list(inner)?),
            5 => ViewPredicate::Or(r.list(inner)?),
            6 => ViewPredicate::Not(Box::new(inner(r)?)),
            _ => return Err(FabricError::Malformed("bad predicate tag".into())),
        })
    }
}

/// A view definition: either a per-transaction predicate or a recursive
/// datalog program (§3's "datalog fashion" extension).
///
/// Recursive definitions are evaluated over the whole ledger: the EDB is
/// the generic triple relation `tx(tid, attr, value)` built from every
/// stored transaction's non-secret part (see
/// [`crate::verify::ledger_edb`]), and a transaction belongs to the view
/// iff the unary `query` relation derives its tid.
#[derive(Clone, Debug)]
pub enum ViewDefinition {
    /// Membership decided per transaction from `t[N]` alone.
    PerTx(ViewPredicate),
    /// Membership decided by a recursive datalog program over the ledger.
    Recursive {
        /// The rules.
        program: ledgerview_datalog::Program,
        /// The unary relation whose derived tids form the view.
        query: String,
    },
}

impl ViewDefinition {
    /// Canonical serialization (stored on-chain by the TxListContract).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            ViewDefinition::PerTx(p) => {
                w.u8(0).bytes(&p.to_bytes());
            }
            ViewDefinition::Recursive { program, query } => {
                w.u8(1).string(query).bytes(&encode_program(program));
            }
        }
        w.into_bytes()
    }

    /// Decode from canonical bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<ViewDefinition, ViewError> {
        let mut r = Reader::new(bytes);
        let def = match r.u8()? {
            0 => ViewDefinition::PerTx(ViewPredicate::from_bytes(&r.bytes()?)?),
            1 => {
                let query = r.string()?;
                ViewDefinition::Recursive {
                    program: decode_program(&r.bytes()?)?,
                    query,
                }
            }
            _ => return Err(ViewError::Malformed("bad definition tag".into())),
        };
        r.finish()?;
        Ok(def)
    }

    /// Streaming membership test, where possible: recursive definitions
    /// return `None` (they need the whole ledger).
    pub fn matches_streaming(&self, ns: &NonSecret) -> Option<bool> {
        match self {
            ViewDefinition::PerTx(p) => Some(p.matches(ns)),
            ViewDefinition::Recursive { .. } => None,
        }
    }
}

/// Serialize a datalog program canonically.
pub fn encode_program(program: &ledgerview_datalog::Program) -> Vec<u8> {
    use ledgerview_datalog::{Term, Value};
    let write_atom = |w: &mut Writer, atom: &ledgerview_datalog::Atom| {
        w.string(&atom.relation).list(&atom.terms, |w, t| match t {
            Term::Var(v) => {
                w.u8(0).string(v);
            }
            Term::Const(Value::Str(s)) => {
                w.u8(1).string(s);
            }
            Term::Const(Value::Int(i)) => {
                w.u8(2).u64(*i as u64);
            }
        });
    };
    let mut w = Writer::new();
    w.list(&program.rules, |w, rule| {
        write_atom(w, &rule.head);
        w.list(&rule.body, write_atom);
    });
    w.into_bytes()
}

/// Decode a datalog program.
pub fn decode_program(bytes: &[u8]) -> Result<ledgerview_datalog::Program, ViewError> {
    use ledgerview_datalog::{Atom, Program, Rule, Term, Value};
    let read_atom = |r: &mut Reader<'_>| -> Result<Atom, FabricError> {
        let relation = r.string()?;
        let terms = r.list(|r| match r.u8()? {
            0 => Ok(Term::Var(r.string()?)),
            1 => Ok(Term::Const(Value::Str(r.string()?))),
            2 => Ok(Term::Const(Value::Int(r.u64()? as i64))),
            _ => Err(FabricError::Malformed("bad term tag".into())),
        })?;
        Ok(Atom { relation, terms })
    };
    let mut r = Reader::new(bytes);
    let rules = r.list(|r| {
        let head = read_atom(r)?;
        Ok::<_, FabricError>(Rule {
            head,
            body: r.list(read_atom)?,
        })
    })?;
    r.finish()?;
    Ok(Program { rules })
}

/// The standard recursive definition for a supply-chain entity's view:
/// *all transfers of items the entity ever handled* — including transfers
/// that happened before the entity received the item (§6.2).
///
/// Rules over the generic `tx(tid, attr, value)` triples:
/// ```text
/// transfer(T, I)  :- tx(T, "item", I)
/// handles(I)      :- transfer(T, I), tx(T, "from", entity)
/// handles(I)      :- transfer(T, I), tx(T, "to", entity)
/// in_view(T)      :- transfer(T, I), handles(I)
/// ```
pub fn entity_history_definition(entity: &str) -> ViewDefinition {
    use ledgerview_datalog::{Atom, Program, Rule, Term, Value};
    let var = |s: &str| Term::Var(s.to_string());
    let cst = |s: &str| Term::Const(Value::Str(s.to_string()));
    let program = Program::new(vec![
        Rule::new(
            Atom::new("transfer", vec![var("T"), var("I")]),
            vec![Atom::new("tx", vec![var("T"), cst("item"), var("I")])],
        ),
        Rule::new(
            Atom::new("handles", vec![var("I")]),
            vec![
                Atom::new("transfer", vec![var("T"), var("I")]),
                Atom::new("tx", vec![var("T"), cst("from"), cst(entity)]),
            ],
        ),
        Rule::new(
            Atom::new("handles", vec![var("I")]),
            vec![
                Atom::new("transfer", vec![var("T"), var("I")]),
                Atom::new("tx", vec![var("T"), cst("to"), cst(entity)]),
            ],
        ),
        Rule::new(
            Atom::new("in_view", vec![var("T")]),
            vec![
                Atom::new("transfer", vec![var("T"), var("I")]),
                Atom::new("handles", vec![var("I")]),
            ],
        ),
    ]);
    ViewDefinition::Recursive {
        program,
        query: "in_view".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(pairs: &[(&str, AttrValue)]) -> NonSecret {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    #[test]
    fn attr_equals() {
        let p = ViewPredicate::attr_eq("to", "Warehouse 1");
        assert!(p.matches(&ns(&[("to", AttrValue::str("Warehouse 1"))])));
        assert!(!p.matches(&ns(&[("to", AttrValue::str("Warehouse 2"))])));
        assert!(!p.matches(&ns(&[])));
        // Type-sensitive: Int(1) ≠ Str("1").
        let q = ViewPredicate::AttrEquals("n".into(), AttrValue::int(1));
        assert!(!q.matches(&ns(&[("n", AttrValue::str("1"))])));
    }

    #[test]
    fn boolean_combinators() {
        let p = ViewPredicate::And(vec![
            ViewPredicate::attr_eq("from", "M1"),
            ViewPredicate::Not(Box::new(ViewPredicate::attr_eq("to", "S1"))),
        ]);
        assert!(p.matches(&ns(&[
            ("from", AttrValue::str("M1")),
            ("to", AttrValue::str("W1"))
        ])));
        assert!(!p.matches(&ns(&[
            ("from", AttrValue::str("M1")),
            ("to", AttrValue::str("S1"))
        ])));
        let empty_and = ViewPredicate::And(vec![]);
        assert!(empty_and.matches(&ns(&[])));
        let empty_or = ViewPredicate::Or(vec![]);
        assert!(!empty_or.matches(&ns(&[])));
    }

    #[test]
    fn at_least() {
        let p = ViewPredicate::AttrAtLeast("amount".into(), 10);
        assert!(p.matches(&ns(&[("amount", AttrValue::int(10))])));
        assert!(!p.matches(&ns(&[("amount", AttrValue::int(9))])));
        assert!(!p.matches(&ns(&[("amount", AttrValue::str("10"))])));
    }

    #[test]
    fn touches_entity_matches_sender_receiver_and_handler() {
        let p = ViewPredicate::touches_entity("W1");
        assert!(p.matches(&ns(&[("from", AttrValue::str("W1"))])));
        assert!(p.matches(&ns(&[("to", AttrValue::str("W1"))])));
        assert!(p.matches(&ns(&[("handler~W1", AttrValue::int(1))])));
        assert!(!p.matches(&ns(&[("from", AttrValue::str("W2"))])));
    }

    #[test]
    fn serialization_round_trip() {
        let predicates = vec![
            ViewPredicate::True,
            ViewPredicate::attr_eq("to", "Warehouse 1"),
            ViewPredicate::AttrEquals("n".into(), AttrValue::int(-5)),
            ViewPredicate::AttrExists("handler~X".into()),
            ViewPredicate::AttrAtLeast("amount".into(), 100),
            ViewPredicate::touches_entity("M1"),
            ViewPredicate::Not(Box::new(ViewPredicate::True)),
            ViewPredicate::And(vec![
                ViewPredicate::Or(vec![ViewPredicate::True, ViewPredicate::attr_eq("a", "b")]),
                ViewPredicate::AttrExists("x".into()),
            ]),
        ];
        for p in predicates {
            let decoded = ViewPredicate::from_bytes(&p.to_bytes()).unwrap();
            assert_eq!(decoded, p);
        }
    }

    #[test]
    fn malformed_bytes_rejected() {
        assert!(ViewPredicate::from_bytes(&[]).is_err());
        assert!(ViewPredicate::from_bytes(&[99]).is_err());
        let mut bytes = ViewPredicate::True.to_bytes();
        bytes.push(0);
        assert!(ViewPredicate::from_bytes(&bytes).is_err());
    }

    #[test]
    fn view_definition_round_trips() {
        let per_tx = ViewDefinition::PerTx(ViewPredicate::touches_entity("W1"));
        let decoded = ViewDefinition::from_bytes(&per_tx.to_bytes()).unwrap();
        match decoded {
            ViewDefinition::PerTx(p) => assert_eq!(p, ViewPredicate::touches_entity("W1")),
            _ => panic!("wrong variant"),
        }

        let recursive = entity_history_definition("W1");
        let bytes = recursive.to_bytes();
        let decoded = ViewDefinition::from_bytes(&bytes).unwrap();
        let ViewDefinition::Recursive { program, query } = decoded else {
            panic!("wrong variant");
        };
        assert_eq!(query, "in_view");
        assert_eq!(program.rules.len(), 4);
        // Re-encoding is stable.
        assert_eq!(
            ViewDefinition::Recursive { program, query }.to_bytes(),
            bytes
        );
    }

    #[test]
    fn streaming_match_only_for_per_tx() {
        let per_tx = ViewDefinition::PerTx(ViewPredicate::attr_eq("to", "W1"));
        let attrs = ns(&[("to", AttrValue::str("W1"))]);
        assert_eq!(per_tx.matches_streaming(&attrs), Some(true));
        let rec = entity_history_definition("W1");
        assert_eq!(rec.matches_streaming(&attrs), None);
    }

    #[test]
    fn malformed_definitions_rejected() {
        assert!(ViewDefinition::from_bytes(&[]).is_err());
        assert!(ViewDefinition::from_bytes(&[9]).is_err());
        assert!(decode_program(&[1, 2, 3]).is_err());
    }

    #[test]
    fn nesting_beyond_the_limit_is_malformed() {
        // 100 000 nested `Not`s, then `True`: rejected at the limit, not
        // by overflowing the stack on the way down.
        let mut nots = vec![6u8; 100_000];
        nots.push(0);
        let mut ands = [4u8, 0, 0, 0, 1].repeat(100_000);
        ands.push(0);
        for bytes in [nots, ands] {
            assert!(matches!(
                ViewPredicate::from_bytes(&bytes),
                Err(ViewError::Fabric(FabricError::Malformed(_)))
            ));
        }
        let mut p = ViewPredicate::True;
        for _ in 0..MAX_PREDICATE_DEPTH {
            p = ViewPredicate::Not(Box::new(p));
        }
        assert_eq!(ViewPredicate::from_bytes(&p.to_bytes()).unwrap(), p);
        let deeper = ViewPredicate::Or(vec![p]);
        assert!(ViewPredicate::from_bytes(&deeper.to_bytes()).is_err());
    }

    #[test]
    fn negative_int_round_trips() {
        let p = ViewPredicate::AttrAtLeast("x".into(), -42);
        assert_eq!(ViewPredicate::from_bytes(&p.to_bytes()).unwrap(), p);
        assert!(p.matches(&ns(&[("x", AttrValue::int(-42))])));
        assert!(!p.matches(&ns(&[("x", AttrValue::int(-43))])));
    }
}
