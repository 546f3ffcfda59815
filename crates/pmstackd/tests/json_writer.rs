//! Round trip of the stack's JSON writer (`pmstack_obs::JsonWriter`)
//! through the daemon's reader (`pmstackd::json::parse`): any tree of
//! strings, numbers, booleans, arrays and objects the writer is handed must
//! parse back to the tree that was written, floats bit for bit and
//! non-finite floats as `null`.

use pmstack_obs::JsonWriter;
use pmstackd::json::{parse, Value};
use proptest::prelude::*;
use proptest::TestRng;

/// A document as handed to the writer.
#[derive(Debug, Clone)]
enum Node {
    Str(String),
    F64(f64),
    Fixed(f64, usize),
    U64(u64),
    Bool(bool),
    Arr(Vec<Node>),
    Obj(Vec<(String, Node)>),
}

/// Every char below 0x20, the two that must be escaped, the solidus, and
/// 1-, 2-, 3- and 4-byte scalars.
fn scalar() -> impl Strategy<Value = char> {
    let from = |c: u32| char::from_u32(c).expect("a scalar value");
    prop_oneof![
        (0u32..0x20).prop_map(from),
        Just('"'),
        Just('\\'),
        Just('/'),
        (0x20u32..0x7f).prop_map(from),
        (0x80u32..0x800).prop_map(from),
        (0x800u32..0xd800).prop_map(from),
        (0xe000u32..0x1_0000).prop_map(from),
        (0x1_0000u32..0x11_0000).prop_map(from),
    ]
}

fn text() -> impl Strategy<Value = String> {
    prop::collection::vec(scalar(), 0..24).prop_map(|cs| cs.into_iter().collect())
}

/// NaN and both infinities (written as `null`), both zeros, subnormals,
/// the extremes, and arbitrary bit patterns.
fn float() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(0.0),
        Just(-0.0),
        Just(5e-324),
        (1u64..1 << 52).prop_map(f64::from_bits),
        (1u64..1 << 52).prop_map(|m| -f64::from_bits(m)),
        Just(1e308),
        Just(-1e308),
        Just(f64::MAX),
        Just(f64::MIN_POSITIVE),
        (0u64..u64::MAX).prop_map(f64::from_bits),
        -1e6..1e6,
    ]
}

/// Nested arrays and objects, at most `depth` containers deep.
struct Tree {
    depth: u32,
}

impl Strategy for Tree {
    type Value = Node;

    fn generate(&self, rng: &mut TestRng) -> Node {
        let kinds = if self.depth == 0 { 5 } else { 7 };
        match rng.index(kinds) {
            0 => Node::Str(text().generate(rng)),
            1 => Node::F64(float().generate(rng)),
            2 => Node::Fixed(float().generate(rng), rng.index(10)),
            3 => Node::U64(rng.next_u64()),
            4 => Node::Bool(rng.index(2) == 1),
            kind => {
                let inner = Tree {
                    depth: self.depth - 1,
                };
                let len = rng.index(5);
                if kind == 5 {
                    Node::Arr((0..len).map(|_| inner.generate(rng)).collect())
                } else {
                    let member = |rng: &mut TestRng| (text().generate(rng), inner.generate(rng));
                    Node::Obj((0..len).map(|_| member(rng)).collect())
                }
            }
        }
    }
}

fn write(node: &Node, w: &mut JsonWriter) {
    match node {
        Node::Str(s) => {
            w.str(s);
        }
        Node::F64(v) => {
            w.f64(*v);
        }
        Node::Fixed(v, decimals) => {
            w.fixed(*v, *decimals);
        }
        Node::U64(v) => {
            w.u64(*v);
        }
        Node::Bool(b) => {
            w.bool(*b);
        }
        Node::Arr(items) => {
            w.begin_array();
            for item in items {
                write(item, w);
            }
            w.end_array();
        }
        Node::Obj(members) => {
            w.begin_object();
            for (key, value) in members {
                w.key(key);
                write(value, w);
            }
            w.end_object();
        }
    }
}

/// Whether `got` is what writing `want` must read back as.
fn reads_as(got: &Value, want: &Node) -> bool {
    let number = |v: f64, exact: f64| match got {
        Value::Num(n) => v.is_finite() && n.to_bits() == exact.to_bits(),
        Value::Null => !v.is_finite(),
        _ => false,
    };
    match (got, want) {
        (Value::Str(g), Node::Str(w)) => g == w,
        (_, Node::F64(v)) => number(*v, *v),
        (_, Node::Fixed(v, d)) => number(*v, format!("{v:.d$}").parse().unwrap_or(f64::NAN)),
        (Value::Num(n), Node::U64(v)) => n.to_bits() == (*v as f64).to_bits(),
        (Value::Bool(g), Node::Bool(w)) => g == w,
        (Value::Arr(g), Node::Arr(w)) => {
            g.len() == w.len() && g.iter().zip(w).all(|(g, w)| reads_as(g, w))
        }
        (Value::Obj(g), Node::Obj(w)) => {
            g.len() == w.len()
                && (g.iter().zip(w)).all(|((gk, gv), (wk, wv))| gk == wk && reads_as(gv, wv))
        }
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn written_trees_parse_back(tree in Tree { depth: 4 }) {
        let mut w = JsonWriter::default();
        write(&tree, &mut w);
        let doc = w.finish_line();
        let parsed = parse(doc.as_bytes());
        prop_assert!(
            matches!(&parsed, Ok(v) if reads_as(v, &tree)),
            "{doc} read back as {parsed:?}"
        );
    }

    #[test]
    fn escaped_strings_parse_back(s in text()) {
        let doc = format!("\"{}\"", pmstackd::json::escape(&s));
        prop_assert_eq!(parse(doc.as_bytes()), Ok(Value::Str(s.clone())), "{}", doc);
        let mut w = JsonWriter::default();
        w.str(&s);
        prop_assert_eq!(w.finish(), doc);
    }

    #[test]
    fn floats_parse_back_bit_for_bit(v in float()) {
        let mut w = JsonWriter::default();
        w.begin_array().f64(v).end_array();
        let doc = w.finish();
        prop_assert!(
            reads_as(&parse(doc.as_bytes()).unwrap(), &Node::Arr(vec![Node::F64(v)])),
            "{v:e} wrote {doc}"
        );
    }
}
