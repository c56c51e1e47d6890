//! The Boolean query language over record-presence atoms.
//!
//! Queries are the `A` and `B` of the paper: Boolean properties of the
//! database. Each query compiles to the set of worlds satisfying it; the
//! §1.1 example query "if Bob is HIV-positive then he had blood
//! transfusions" is `hiv_pos -> transfusions`.
//!
//! Grammar (precedence low → high):
//!
//! ```text
//! query   ::= implies
//! implies ::= or ( "->" implies )?          (right associative)
//! or      ::= and ( "|" and )*
//! and     ::= unary ( "&" unary )*
//! unary   ::= "!" unary | "(" query ")" | "true" | "false" | IDENT
//! ```

use crate::schema::{RecordId, Schema};
use epi_core::WorldSet;
use std::fmt;

/// A Boolean query over record presence.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Query {
    /// The constant query.
    Const(bool),
    /// "record is present in the database".
    Present(RecordId),
    /// Negation.
    Not(Box<Query>),
    /// Conjunction.
    And(Box<Query>, Box<Query>),
    /// Disjunction.
    Or(Box<Query>, Box<Query>),
    /// Implication (`p -> q` ≡ `!p | q`), kept as a node so audit reports
    /// can render queries the way users wrote them.
    Implies(Box<Query>, Box<Query>),
}

impl Query {
    /// Atom constructor.
    pub fn present(id: RecordId) -> Query {
        Query::Present(id)
    }

    /// Negation helper.
    #[allow(clippy::should_implement_trait)] // constructor family: Query::not(q) mirrors and/or/implies
    pub fn not(q: Query) -> Query {
        Query::Not(Box::new(q))
    }

    /// Conjunction helper.
    pub fn and(a: Query, b: Query) -> Query {
        Query::And(Box::new(a), Box::new(b))
    }

    /// Disjunction helper.
    pub fn or(a: Query, b: Query) -> Query {
        Query::Or(Box::new(a), Box::new(b))
    }

    /// Implication helper.
    pub fn implies(a: Query, b: Query) -> Query {
        Query::Implies(Box::new(a), Box::new(b))
    }

    /// Evaluates the query on a presence bitmask.
    pub fn eval(&self, world: u32) -> bool {
        match self {
            Query::Const(b) => *b,
            Query::Present(id) => world >> id.0 & 1 == 1,
            Query::Not(q) => !q.eval(world),
            Query::And(a, b) => a.eval(world) && b.eval(world),
            Query::Or(a, b) => a.eval(world) || b.eval(world),
            Query::Implies(a, b) => !a.eval(world) || b.eval(world),
        }
    }

    /// Compiles to the set of satisfying worlds over the schema's cube.
    ///
    /// Each atom is a [`WorldSet::coordinate`] and each connective one
    /// pass of word operations over the operands' blocks, so a tree of
    /// `t` nodes costs `O(t · ⌈2ⁿ/64⌉)` word operations; the result is
    /// the set [`Query::eval`] accepts.
    ///
    /// # Panics
    ///
    /// Panics if the query mentions a record outside the schema.
    pub fn compile(&self, schema: &Schema) -> WorldSet {
        let n = schema.len();
        match self {
            Query::Const(true) => WorldSet::full(1 << n),
            Query::Const(false) => WorldSet::empty(1 << n),
            Query::Present(id) => WorldSet::coordinate(n, id.0 as usize),
            Query::Not(q) => q.compile(schema).complement(),
            Query::And(a, b) => {
                let mut s = a.compile(schema);
                s.intersect_with(&b.compile(schema));
                s
            }
            Query::Or(a, b) => {
                let mut s = a.compile(schema);
                s.union_with(&b.compile(schema));
                s
            }
            Query::Implies(a, b) => {
                let mut s = a.compile(schema).complement();
                s.union_with(&b.compile(schema));
                s
            }
        }
    }

    /// Semantic monotonicity: `true` iff the compiled set is an up-set
    /// (the "positive facts" of Remark 5.6).
    pub fn is_monotone(&self, schema: &Schema) -> bool {
        let cube = schema.cube();
        cube.is_up_set(&self.compile(schema))
    }

    /// The record ids mentioned by the query.
    pub fn atoms(&self) -> Vec<RecordId> {
        let mut out = Vec::new();
        self.collect_atoms(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_atoms(&self, out: &mut Vec<RecordId>) {
        match self {
            Query::Const(_) => {}
            Query::Present(id) => out.push(*id),
            Query::Not(q) => q.collect_atoms(out),
            Query::And(a, b) | Query::Or(a, b) | Query::Implies(a, b) => {
                a.collect_atoms(out);
                b.collect_atoms(out);
            }
        }
    }

    /// Renders with the schema's record names.
    pub fn display<'a>(&'a self, schema: &'a Schema) -> QueryDisplay<'a> {
        QueryDisplay {
            query: self,
            schema,
        }
    }
}

/// Pretty-printer bound to a schema.
pub struct QueryDisplay<'a> {
    query: &'a Query,
    schema: &'a Schema,
}

impl fmt::Display for QueryDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn go(q: &Query, schema: &Schema, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match q {
                Query::Const(b) => write!(f, "{b}"),
                Query::Present(id) => write!(f, "{}", schema.record(*id).name),
                Query::Not(inner) => {
                    write!(f, "!")?;
                    paren(inner, schema, f)
                }
                Query::And(a, b) => {
                    paren(a, schema, f)?;
                    write!(f, " & ")?;
                    paren(b, schema, f)
                }
                Query::Or(a, b) => {
                    paren(a, schema, f)?;
                    write!(f, " | ")?;
                    paren(b, schema, f)
                }
                Query::Implies(a, b) => {
                    paren(a, schema, f)?;
                    write!(f, " -> ")?;
                    paren(b, schema, f)
                }
            }
        }
        fn paren(q: &Query, schema: &Schema, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match q {
                Query::Const(_) | Query::Present(_) | Query::Not(_) => go(q, schema, f),
                _ => {
                    write!(f, "(")?;
                    go(q, schema, f)?;
                    write!(f, ")")
                }
            }
        }
        go(self.query, self.schema, f)
    }
}

/// Query parse errors, with byte offsets into the source.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// The deepest formula tree [`parse`] builds, counting a leaf as one
/// level. Compilation, display, evaluation and drop all recurse over the
/// tree, so a request's formula must not be able to exhaust a thread's
/// stack; a deeper formula is a [`ParseError`].
pub const MAX_QUERY_DEPTH: usize = 256;

/// Bound on the parser's own recursion through `!`, `(` and the right
/// operand of `->`, which parentheses can grow without growing the
/// tree. A canonical display opens at most two of them per tree level,
/// so every accepted tree re-parses from its display.
const MAX_PARSE_NESTING: usize = 2 * MAX_QUERY_DEPTH;

/// Parses the query language (see module docs for the grammar) against a
/// schema.
pub fn parse(input: &str, schema: &Schema) -> Result<Query, ParseError> {
    let mut p = Parser {
        input: input.as_bytes(),
        pos: 0,
        schema,
        nesting: 0,
    };
    let (q, _) = p.implies()?;
    p.skip_ws();
    if p.pos != p.input.len() {
        return Err(p.error("unexpected trailing input"));
    }
    Ok(q)
}

/// A parsed subtree and its depth (a leaf is 1).
type Parsed = (Query, usize);

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
    schema: &'a Schema,
    nesting: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_owned(),
            offset: self.pos,
        }
    }

    fn too_deep(&self) -> ParseError {
        self.error(&format!("query nests deeper than {MAX_QUERY_DEPTH} levels"))
    }

    /// `q` over children at most `children_depth` deep, refused when
    /// that makes it deeper than [`MAX_QUERY_DEPTH`].
    fn node(&self, q: Query, children_depth: usize) -> Result<Parsed, ParseError> {
        let depth = children_depth + 1;
        if depth > MAX_QUERY_DEPTH {
            return Err(self.too_deep());
        }
        Ok((q, depth))
    }

    /// Runs `f` one recursion level deeper, refusing to pass
    /// [`MAX_PARSE_NESTING`].
    fn nested(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<Parsed, ParseError>,
    ) -> Result<Parsed, ParseError> {
        if self.nesting == MAX_PARSE_NESTING {
            return Err(self.too_deep());
        }
        self.nesting += 1;
        let parsed = f(self);
        self.nesting -= 1;
        parsed
    }

    fn skip_ws(&mut self) {
        while self.pos < self.input.len() && self.input[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, token: &str) -> bool {
        self.skip_ws();
        if self.input[self.pos..].starts_with(token.as_bytes()) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    fn implies(&mut self) -> Result<Parsed, ParseError> {
        let (lhs, dl) = self.or()?;
        if self.eat("->") {
            let (rhs, dr) = self.nested(Self::implies)?; // right associative
            self.node(Query::implies(lhs, rhs), dl.max(dr))
        } else {
            Ok((lhs, dl))
        }
    }

    fn or(&mut self) -> Result<Parsed, ParseError> {
        let (mut q, mut depth) = self.and()?;
        while self.eat("|") {
            let (rhs, dr) = self.and()?;
            (q, depth) = self.node(Query::or(q, rhs), depth.max(dr))?;
        }
        Ok((q, depth))
    }

    fn and(&mut self) -> Result<Parsed, ParseError> {
        let (mut q, mut depth) = self.unary()?;
        while self.eat("&") {
            let (rhs, dr) = self.unary()?;
            (q, depth) = self.node(Query::and(q, rhs), depth.max(dr))?;
        }
        Ok((q, depth))
    }

    fn unary(&mut self) -> Result<Parsed, ParseError> {
        self.skip_ws();
        if self.eat("!") {
            let (q, depth) = self.nested(Self::unary)?;
            return self.node(Query::not(q), depth);
        }
        if self.eat("(") {
            let parsed = self.nested(Self::implies)?;
            if !self.eat(")") {
                return Err(self.error("expected ')'"));
            }
            return Ok(parsed);
        }
        // Identifier.
        let start = self.pos;
        while self.pos < self.input.len()
            && (self.input[self.pos].is_ascii_alphanumeric() || self.input[self.pos] == b'_')
        {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.error("expected a record name, 'true', 'false', '!' or '('"));
        }
        let name = std::str::from_utf8(&self.input[start..self.pos]).expect("ascii");
        let leaf = match name {
            "true" => Query::Const(true),
            "false" => Query::Const(false),
            _ => self
                .schema
                .record_id(name)
                .map(Query::Present)
                .ok_or_else(|| ParseError {
                    message: format!("unknown record {name:?}"),
                    offset: start,
                })?,
        };
        Ok((leaf, 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn schema() -> Schema {
        Schema::from_names(&["hiv_pos", "transfusions", "diabetic"]).unwrap()
    }

    #[test]
    fn parse_and_eval_basic() {
        let s = schema();
        let q = parse("hiv_pos -> transfusions", &s).unwrap();
        // world bits: 0 = hiv, 1 = transfusions, 2 = diabetic.
        assert!(q.eval(0b000));
        assert!(q.eval(0b010));
        assert!(!q.eval(0b001));
        assert!(q.eval(0b011));
    }

    #[test]
    fn parse_precedence() {
        let s = schema();
        // & binds tighter than |, which binds tighter than ->.
        let q = parse("hiv_pos | transfusions & diabetic -> hiv_pos", &s).unwrap();
        match q {
            Query::Implies(lhs, _) => match *lhs {
                Query::Or(_, rhs) => assert!(matches!(*rhs, Query::And(_, _))),
                other => panic!("expected Or on the left, got {other:?}"),
            },
            other => panic!("expected Implies at top, got {other:?}"),
        }
        // -> is right associative.
        let q = parse("hiv_pos -> transfusions -> diabetic", &s).unwrap();
        match q {
            Query::Implies(_, rhs) => assert!(matches!(*rhs, Query::Implies(_, _))),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_errors() {
        let s = schema();
        assert!(parse("unknown_rec", &s).is_err());
        assert!(parse("hiv_pos &", &s).is_err());
        assert!(parse("(hiv_pos", &s).is_err());
        assert!(parse("hiv_pos extra", &s).is_err());
        assert!(parse("", &s).is_err());
    }

    #[test]
    fn compile_matches_eval() {
        let s = schema();
        let q = parse("!(hiv_pos & !transfusions) | diabetic", &s).unwrap();
        let set = q.compile(&s);
        for w in 0..8u32 {
            assert_eq!(set.contains(epi_core::WorldId(w)), q.eval(w));
        }
    }

    #[test]
    fn monotonicity_detection() {
        let s = schema();
        assert!(parse("hiv_pos & transfusions", &s).unwrap().is_monotone(&s));
        assert!(parse("hiv_pos | diabetic", &s).unwrap().is_monotone(&s));
        assert!(!parse("!hiv_pos", &s).unwrap().is_monotone(&s));
        assert!(!parse("hiv_pos -> transfusions", &s)
            .unwrap()
            .is_monotone(&s));
        assert!(parse("true", &s).unwrap().is_monotone(&s));
    }

    #[test]
    fn atoms_and_display() {
        let s = schema();
        let q = parse("diabetic -> hiv_pos & diabetic", &s).unwrap();
        assert_eq!(q.atoms(), vec![RecordId(0), RecordId(2)]);
        let rendered = q.display(&s).to_string();
        assert_eq!(rendered, "diabetic -> (hiv_pos & diabetic)");
        // Round-trip.
        let q2 = parse(&rendered, &s).unwrap();
        for w in 0..8u32 {
            assert_eq!(q.eval(w), q2.eval(w));
        }
    }

    /// Random formulas over records `0..records`, with constant leaves.
    fn arb_query(records: u32, depth: u32) -> BoxedStrategy<Query> {
        let leaf = prop_oneof![
            (0..records).prop_map(|i| Query::Present(RecordId(i))),
            any::<bool>().prop_map(Query::Const),
        ];
        leaf.prop_recursive(depth, 32, 2, |inner| {
            prop_oneof![
                inner.clone().prop_map(Query::not),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| Query::and(a, b)),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| Query::or(a, b)),
                (inner.clone(), inner).prop_map(|(a, b)| Query::implies(a, b)),
            ]
        })
        .boxed()
    }

    /// A schema of `n` records named `r0..`.
    fn numbered(n: usize) -> Schema {
        let names: Vec<String> = (0..n).map(|i| format!("r{i}")).collect();
        Schema::from_names(&names).unwrap()
    }

    #[test]
    fn depth_limit_is_exact() {
        let s = numbered(2);
        let at_limit = MAX_QUERY_DEPTH - 1;
        for (op, unit) in [("!", "!"), ("|", "r1|"), ("&", "r1&"), ("->", "r1->")] {
            let ok = format!("{}r0", unit.repeat(at_limit));
            let q = parse(&ok, &s).unwrap_or_else(|e| panic!("{op} at the limit: {e}"));
            // The canonical display of an accepted tree re-parses.
            let shown = q.display(&s).to_string();
            assert_eq!(parse(&shown, &s).unwrap(), q, "{op}");
            let deeper = format!("{}r0", unit.repeat(at_limit + 1));
            let err = parse(&deeper, &s).unwrap_err();
            assert!(err.message.contains("nests deeper"), "{op}: {err}");
        }
        // Parentheses nest the parser without deepening the tree; they
        // are bounded too.
        let parens = |k: usize| format!("{}r0{}", "(".repeat(k), ")".repeat(k));
        assert_eq!(
            parse(&parens(2 * MAX_QUERY_DEPTH), &s).unwrap(),
            Query::Present(RecordId(0))
        );
        assert!(parse(&parens(2 * MAX_QUERY_DEPTH + 1), &s).is_err());
    }

    #[test]
    fn hostile_depths_are_errors() {
        let s = numbered(2);
        for hostile in [
            format!("{}r0", "!".repeat(20_000)),
            format!("{}r0", "r1|".repeat(30_000)),
            format!("{}r0", "(".repeat(20_000)),
        ] {
            assert!(parse(&hostile, &s)
                .unwrap_err()
                .message
                .contains("nests deeper"));
        }
    }

    proptest! {
        /// Display → parse round-trips semantically.
        #[test]
        fn prop_display_parse_roundtrip(q in arb_query(3, 4)) {
            let s = schema();
            let rendered = q.display(&s).to_string();
            let q2 = parse(&rendered, &s).unwrap();
            for w in 0..8u32 {
                prop_assert_eq!(q.eval(w), q2.eval(w));
            }
        }

        /// Compilation respects the Boolean algebra.
        #[test]
        fn prop_compile_homomorphic(a in arb_query(3, 3), b in arb_query(3, 3)) {
            let s = schema();
            let sa = a.compile(&s);
            let sb = b.compile(&s);
            prop_assert_eq!(Query::and(a.clone(), b.clone()).compile(&s), sa.intersection(&sb));
            prop_assert_eq!(Query::or(a.clone(), b.clone()).compile(&s), sa.union(&sb));
            prop_assert_eq!(Query::not(a.clone()).compile(&s), sa.complement());
            prop_assert_eq!(
                Query::implies(a, b).compile(&s),
                sa.complement().union(&sb)
            );
        }

        /// Word-parallel compilation agrees with evaluating the formula
        /// on every world, below one block, at one block, inline and on
        /// the heap, and its blocks are canonical (padding bits zero).
        #[test]
        fn prop_compile_matches_eval_on_every_world(
            (n, q) in (1u32..=12).prop_flat_map(|n| (Just(n), arb_query(n, 4)))
        ) {
            let s = numbered(n as usize);
            let set = q.compile(&s);
            prop_assert_eq!(&set, &s.cube().set_from_predicate(|w| q.eval(w)));
            prop_assert_eq!(WorldSet::from_blocks(1 << n, set.blocks().to_vec()), Some(set));
            for i in 0..n {
                let atom = Query::Present(RecordId(i));
                prop_assert_eq!(atom.compile(&s), s.cube().set_from_predicate(|w| atom.eval(w)));
            }
        }
    }
}
