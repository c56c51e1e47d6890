//! The three workloads: their configuration, the seeded request tables
//! and the per-connection request streams.
//!
//! Everything here is a pure function of `(workload, seed)`: slot `j` of
//! connection `c` is the same request on every run with that seed, no
//! matter how fast the daemon answers, so two runs of one seed send the
//! daemon byte-identical request sequences (only their count differs).
//! `cold_mixed` draws its pairs as the stream needs them, so a faster
//! daemon never runs out of distinct pairs.

use crate::rng::Rng;
use epi_audit::query::parse;
use epi_audit::{Auditor, Finding, PriorAssumption, Schema};
use epi_boolean::Cube;
use epi_core::{WorldId, WorldSet};
use epi_solver::pipeline::{decide_product_pipeline, Stage};
use epi_solver::ProductSolverOptions;
use std::collections::HashSet;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["hot_repeat", "cold_mixed", "durable_mixed"];

/// Seed of the vocabulary's formula shapes (see `build_vocab`).
const VOCAB_SHAPES: u64 = 0x05EE_D0FF_04A5;

/// Connections the load comes from.
pub const CONNECTIONS: usize = 2;

/// Exposure-budget cap on `durable_mixed`, in risk micro-units: a
/// saturated (1.0) risk per disclosure would need 10⁹ disclosures from
/// one user to reach it, so no user is ever refused in a run.
pub const BUDGET_CAP_MICROS: u64 = 1_000_000_000_000_000;

/// Which workload a [`Spec`] describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Repeated vocabulary: verdict-cache hits, front-end bound.
    HotRepeat,
    /// Distinct pairs: criteria stages plus a share of Remark 5.12 pairs.
    ColdMixed,
    /// `hot_repeat` vocabulary on a durable, budgeted daemon with reads.
    DurableMixed,
}

/// A workload's fixed configuration.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Which workload.
    pub kind: Kind,
    /// Its name on the command line.
    pub name: &'static str,
    /// Schema width (records `r0 … r{n-1}`).
    pub records: usize,
    /// Distinct users per connection.
    pub users_per_conn: usize,
    /// Whether the daemon runs with a data directory (WAL, fsync
    /// `Always`, default snapshot cadence) and the budget enabled.
    pub durable: bool,
    /// Percentage of slots that are reads (`session`/`budget`, plus
    /// `cumulative` on `durable_mixed`).
    pub read_pct: u64,
    /// Closed-loop pipeline window per connection.
    pub window: usize,
    /// Offered rate of the open-loop phase, requests/s over both
    /// connections.
    pub open_rate: f64,
    /// `cold_mixed`: connection 0 makes one in `hard_every / CONNECTIONS`
    /// of its disclosures a Remark 5.12 pair (`0` = none).
    pub hard_every: u64,
    /// `durable_mixed`: slots per connection written to the log before
    /// set-up, so set-up includes recovery.
    pub prewrite_slots: u64,
}

impl Spec {
    /// The spec of a named workload.
    pub fn named(name: &str) -> Option<Spec> {
        let spec = match name {
            "hot_repeat" => Spec {
                kind: Kind::HotRepeat,
                name: "hot_repeat",
                records: 8,
                users_per_conn: 2048,
                durable: false,
                read_pct: 10,
                window: 16,
                open_rate: 10000.0,
                hard_every: 0,
                prewrite_slots: 0,
            },
            "cold_mixed" => Spec {
                kind: Kind::ColdMixed,
                name: "cold_mixed",
                records: 8,
                users_per_conn: 2048,
                durable: false,
                read_pct: 30,
                window: 1,
                open_rate: 300.0,
                // Remark pairs take about a third of the daemon's solver
                // time at this rate (0.34 on seed 1). At 240 they took
                // half, but throughput then spread 0.22–0.30 across ten
                // seeds on a 2-vCPU VM, too close to its 0.25 bound.
                hard_every: 600,
                prewrite_slots: 0,
            },
            "durable_mixed" => Spec {
                kind: Kind::DurableMixed,
                name: "durable_mixed",
                records: 8,
                users_per_conn: 2048,
                durable: true,
                read_pct: 30,
                window: 16,
                open_rate: 4000.0,
                hard_every: 0,
                prewrite_slots: 8192,
            },
            _ => return None,
        };
        Some(spec)
    }
}

/// One `(audit, query)` pair the daemon may be asked about.
#[derive(Clone, Debug)]
pub struct Pair {
    /// The audited property's formula.
    pub audit_text: String,
    /// The query's formula.
    pub query_text: String,
    /// The audited property, compiled.
    pub a: WorldSet,
    /// The query, compiled.
    pub q: WorldSet,
    /// For `cold_mixed` pairs: the database state the pair is disclosed
    /// at.
    pub state: u32,
    /// The oracle's expected finding when the query answers false /
    /// true: the offline pipeline decision (vocabulary pairs, decided
    /// before timing), or `safe` by construction for Remark 5.12 family
    /// members (only at their own state). `None` for `cold_mixed`'s
    /// random pairs: the offline pipeline decides them after the run.
    pub expected: [Option<Finding>; 2],
}

impl Pair {
    /// The set a disclosure at `state` reveals: the query or its
    /// complement, whichever is true there.
    pub fn disclosed(&self, state: u32) -> WorldSet {
        if self.q.contains(WorldId(state)) {
            self.q.clone()
        } else {
            self.q.complement()
        }
    }

    /// Whether a disclosure at `state` is excused by the
    /// negative-result rule (audited property false).
    pub fn gated(&self, state: u32) -> bool {
        !self.a.contains(WorldId(state))
    }
}

/// A workload instantiated for one seed.
pub struct Workload {
    /// The configuration.
    pub spec: Spec,
    /// The seed everything below was drawn from.
    pub seed: u64,
    /// The schema (`r0 … r{n-1}`).
    pub schema: Schema,
    /// The schema's cube.
    pub cube: Cube,
    /// The cube of the three records `cold_mixed`'s random formulas are
    /// drawn over before their atoms are renamed into `schema`.
    support_cube: Cube,
    /// Vocabulary pairs (`hot_repeat`, `durable_mixed`).
    pub vocab: Vec<Pair>,
    /// Per-connection user worlds (hot vocabulary workloads).
    pub worlds: Vec<Vec<u32>>,
}

/// Atoms per random formula (and records of `Workload::support_cube`).
const SUPPORT: usize = 3;

/// The Remark 5.12 pair over literals `l0, l1, l2` (bits x0, x1, x2 of
/// `A = {011, 100, 110, 111}`, `B = {010, 101, 110, 111}`).
fn remark_texts(l: [&str; 3]) -> (String, String) {
    let [l0, l1, l2] = l;
    (
        format!("({l2} & ({l1} | !{l0})) | (!{l2} & {l1} & {l0})"),
        format!("({l2} & ({l0} | {l1})) | (!{l2} & {l1} & !{l0})"),
    )
}

fn literal(record: usize, negated: bool) -> String {
    if negated {
        format!("!r{record}")
    } else {
        format!("r{record}")
    }
}

/// A random formula template of the given connective depth over the
/// placeholders `@0 … @{atoms-1}` (see [`instantiate`]; at most
/// three), with its truth table: bit `w` is its value where placeholder
/// `i` is true iff bit `i` of `w` is set.
fn random_formula(rng: &mut Rng, atoms: usize, depth: u32) -> (String, u8) {
    const ATOM_TABLES: [u8; SUPPORT] = [0xAA, 0xCC, 0xF0];
    if depth == 0 {
        let atom = rng.below(atoms as u64) as usize;
        return if rng.percent(50) {
            (format!("!@{atom}"), !ATOM_TABLES[atom])
        } else {
            (format!("@{atom}"), ATOM_TABLES[atom])
        };
    }
    let op = rng.below(3) as usize;
    let (left, l) = random_formula(rng, atoms, depth - 1);
    let right_depth = if rng.percent(50) { depth - 1 } else { 0 };
    let (right, r) = random_formula(rng, atoms, right_depth);
    let table = [l & r, l | r, !l | r][op];
    (format!("({left} {} {right})", ["&", "|", "->"][op]), table)
}

/// A template with placeholder `@i` read as record `records[i]`.
fn instantiate(template: &str, records: &[usize]) -> String {
    let mut text = template.to_owned();
    for (i, r) in records.iter().enumerate() {
        text = text.replace(&format!("@{i}"), &format!("r{r}"));
    }
    text
}

fn distinct_atoms(rng: &mut Rng, records: usize, k: usize) -> Vec<usize> {
    let mut atoms = Vec::with_capacity(k);
    while atoms.len() < k {
        let a = rng.below(records as u64) as usize;
        if !atoms.contains(&a) {
            atoms.push(a);
        }
    }
    atoms
}

fn random_member(rng: &mut Rng, set: &WorldSet) -> u32 {
    let members: Vec<u32> = set.iter().map(|w| w.0).collect();
    members[rng.below(members.len() as u64) as usize]
}

fn schema_of(records: usize) -> Schema {
    let names: Vec<String> = (0..records).map(|i| format!("r{i}")).collect();
    Schema::from_names(&names).expect("record names are distinct")
}

impl Workload {
    /// Builds the tables of `spec` for `seed`.
    pub fn new(spec: Spec, seed: u64) -> Workload {
        let schema = schema_of(spec.records);
        let mut wl = Workload {
            cube: schema.cube(),
            support_cube: schema_of(SUPPORT).cube(),
            spec,
            seed,
            schema,
            vocab: Vec::new(),
            worlds: vec![Vec::new(); CONNECTIONS],
        };
        if matches!(wl.spec.kind, Kind::HotRepeat | Kind::DurableMixed) {
            wl.build_vocab();
        }
        wl
    }

    fn compile(&self, text: &str) -> WorldSet {
        parse(text, &self.schema)
            .expect("generated formulas parse")
            .compile(&self.schema)
    }

    /// A truth table over the support as a set of the support's worlds.
    fn support_set(&self, table: u8) -> WorldSet {
        WorldSet::from_predicate(self.support_cube.size(), |w| table >> w.0 & 1 == 1)
    }

    /// A truth table over the support read on the full schema, support
    /// record `i` renamed to record `atoms[i]` (world bit `r` is record
    /// `r`, as the daemon compiles formulas).
    fn lift(&self, table: u8, atoms: &[usize]) -> WorldSet {
        WorldSet::from_predicate(self.cube.size(), |w| {
            let projected = atoms
                .iter()
                .enumerate()
                .fold(0, |acc, (i, &r)| acc | ((w.0 >> r) & 1) << i);
            table >> projected & 1 == 1
        })
    }

    /// `expected` for a pair disclosed only at `state`.
    fn at_state(q: &WorldSet, state: u32, finding: Finding) -> [Option<Finding>; 2] {
        let mut expected = [None, None];
        expected[usize::from(q.contains(WorldId(state)))] = Some(finding);
        expected
    }

    /// One audited property and 16 query formulas; user worlds.
    ///
    /// The formulas' shapes come from a fixed stream and only their
    /// records are renamed by a seeded permutation, so every seed's
    /// vocabulary is the same up to renaming: same set sizes, same
    /// deciding stages, same compile work. What the seed changes is the
    /// renaming, the users' worlds and the order of requests.
    fn build_vocab(&mut self) {
        let mut rng = Rng::new(VOCAB_SHAPES, 1);
        let n = self.spec.records;
        let rename = Rng::new(self.seed, 2).permutation(n);
        let atoms_of = |rng: &mut Rng| -> Vec<usize> {
            distinct_atoms(rng, n, SUPPORT)
                .into_iter()
                .map(|a| rename[a])
                .collect()
        };
        let universe = 1usize << n;
        let audit = loop {
            let atoms = atoms_of(&mut rng);
            let text = instantiate(&random_formula(&mut rng, SUPPORT, 2).0, &atoms);
            let size = self.compile(&text).len();
            if size * 8 >= universe * 3 && size * 8 <= universe * 5 {
                break text;
            }
        };
        let a = self.compile(&audit);
        let auditor = Auditor::new(PriorAssumption::Product);
        let mut seen = HashSet::new();
        while self.vocab.len() < 16 {
            let atoms = atoms_of(&mut rng);
            let depth = 2 + rng.below(2) as u32;
            let text = instantiate(&random_formula(&mut rng, SUPPORT, depth).0, &atoms);
            let q = self.compile(&text);
            if q.is_empty() || q.is_full() {
                continue;
            }
            let key = q.blocks().to_vec();
            let co_key = q.complement().blocks().to_vec();
            if !seen.insert(key) || !seen.insert(co_key) {
                continue;
            }
            let decide = |d: &WorldSet| Some(auditor.decide_sets(&self.cube, &a, d).finding);
            let expected = [decide(&q.complement()), decide(&q)];
            self.vocab.push(Pair {
                audit_text: audit.clone(),
                query_text: text,
                a: a.clone(),
                q,
                state: 0,
                expected,
            });
        }
        for c in 0..CONNECTIONS {
            let mut wrng = Rng::new(self.seed, 10 + c as u64);
            self.worlds[c] = (0..self.spec.users_per_conn)
                .map(|_| wrng.below(universe as u64) as u32)
                .collect();
        }
    }

    /// The user name of connection `c`'s local user `u`.
    pub fn user_name(c: usize, u: usize) -> String {
        format!("u{c}x{u}")
    }
}

/// One request of a connection's stream.
#[derive(Clone, Debug)]
pub enum Op {
    /// Disclose the answer to a pair's query at `state`.
    Disclose {
        /// The pair.
        pair: PairRef,
        /// Database state at disclosure time.
        state: u32,
    },
    /// `session` read.
    Session,
    /// `budget` read.
    Budget,
    /// `cumulative` audit of the user's knowledge.
    Cumulative,
}

/// Where a disclosed pair lives.
#[derive(Clone, Debug)]
pub enum PairRef {
    /// `Workload::vocab[i]`.
    Vocab(usize),
    /// A `cold_mixed` pair drawn for this slot.
    Fresh(Box<Pair>),
}

impl PairRef {
    /// The pair itself.
    pub fn get<'a>(&'a self, wl: &'a Workload) -> &'a Pair {
        match self {
            PairRef::Vocab(i) => &wl.vocab[*i],
            PairRef::Fresh(p) => p,
        }
    }
}

/// One slot of a connection's request stream.
#[derive(Clone, Debug)]
pub struct Slot {
    /// Position in the stream (also the request's logical time).
    pub j: u64,
    /// Connection-local user index.
    pub user: usize,
    /// The request.
    pub op: Op,
}

/// Draws a Remark 5.12 pair at most this often before settling for one
/// already sent (counted in [`SlotGen::repeats`]).
const REMARK_TRIES: usize = 10_000;

/// A pair's cache identity (audited set, disclosed set) hashed to 64
/// bits (FNV-1a). Equal pairs always hash alike; two distinct pairs
/// sharing a hash would only make the stream skip a fresh pair.
fn pair_hash(a: &WorldSet, b: &WorldSet) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for word in a.blocks().iter().chain(b.blocks()) {
        for byte in word.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// The connection a random pair belongs to, so the two connections never
/// send the same pair. (The low bits of FNV-1a are only the parity of
/// the input bytes.)
fn owner(hash: u64) -> usize {
    ((hash >> 32) % CONNECTIONS as u64) as usize
}

/// The deterministic request stream of one connection.
#[derive(Clone)]
pub struct SlotGen {
    c: usize,
    rng: Rng,
    next_j: u64,
    order: Vec<usize>,
    has_disclosed: Vec<bool>,
    disclosures: u64,
    /// `cold_mixed`: the stream pairs are drawn from.
    pair_rng: Rng,
    /// `cold_mixed`: [`pair_hash`] of every pair drawn so far (a hash,
    /// not the sets, so the generator's memory barely grows in a run).
    seen: HashSet<u64>,
    /// Pairs sent a second time because no new one was found (reported;
    /// a run with any is invalid).
    pub repeats: u64,
}

impl SlotGen {
    /// The stream of connection `c`.
    pub fn new(wl: &Workload, c: usize) -> SlotGen {
        let mut rng = Rng::new(wl.seed, 100 + c as u64);
        let order = rng.permutation(wl.spec.users_per_conn);
        SlotGen {
            c,
            rng,
            next_j: 0,
            order,
            has_disclosed: vec![false; wl.spec.users_per_conn],
            disclosures: 0,
            pair_rng: Rng::new(wl.seed, 20 + c as u64),
            seen: HashSet::new(),
            repeats: 0,
        }
    }

    /// The next slot.
    pub fn next(&mut self, wl: &Workload) -> Slot {
        let j = self.next_j;
        self.next_j += 1;
        let user = self.order[j as usize % self.order.len()];
        let roll = self.rng.below(100);
        if self.has_disclosed[user] && roll < wl.spec.read_pct {
            let op = if wl.spec.kind == Kind::DurableMixed {
                [Op::Session, Op::Budget, Op::Cumulative][(roll % 3) as usize].clone()
            } else {
                [Op::Session, Op::Budget][(roll % 2) as usize].clone()
            };
            return Slot { j, user, op };
        }
        self.has_disclosed[user] = true;
        self.disclosures += 1;
        let op = match wl.spec.kind {
            Kind::HotRepeat | Kind::DurableMixed => Op::Disclose {
                pair: PairRef::Vocab(self.rng.below(wl.vocab.len() as u64) as usize),
                state: wl.worlds[self.c][user],
            },
            Kind::ColdMixed => {
                // Only connection 0 sends Remark pairs (at `CONNECTIONS`
                // times the rate), so two of them are never decided at
                // once: both workers stuck behind certificates would
                // stall every other decision for their whole duration.
                let every = wl.spec.hard_every / CONNECTIONS as u64;
                let hard = self.c == 0 && every > 0 && self.disclosures.is_multiple_of(every);
                let pair = if hard {
                    self.remark_pair(wl)
                } else {
                    self.random_pair(wl)
                };
                Op::Disclose {
                    state: pair.state,
                    pair: PairRef::Fresh(Box::new(pair)),
                }
            }
        };
        Slot { j, user, op }
    }

    /// A random pair new to the run: 2–3-level formulas over three
    /// records that a criteria stage (Thm 3.11 … Prop 5.10) decides,
    /// disclosed at a state inside the audited property.
    ///
    /// The formulas' sets come from their truth tables on the three
    /// records, lifted to the full schema, so the generator parses
    /// nothing inside the timed window.
    /// Whether the pair would reach branch-and-bound is decided on the
    /// support alone: under product priors the records a pair never
    /// mentions drop out, and three records cost microseconds where
    /// eight cost about a millisecond. Pairs that would are skipped, so
    /// no random pair costs what a Remark 5.12 pair costs. The finding
    /// itself is checked after the run against the offline pipeline on
    /// the full schema.
    fn random_pair(&mut self, wl: &Workload) -> Pair {
        let criteria_only = ProductSolverOptions {
            max_boxes: 1,
            sos_fallback: false,
            ..ProductSolverOptions::default()
        };
        loop {
            let rng = &mut self.pair_rng;
            let atoms = distinct_atoms(rng, wl.spec.records, SUPPORT);
            let (da, db) = (2 + rng.below(2) as u32, 2 + rng.below(2) as u32);
            let (ta, tq) = (
                random_formula(rng, SUPPORT, da),
                random_formula(rng, SUPPORT, db),
            );
            let ((ta, ta_table), (tq, tq_table)) = (ta, tq);
            if ta_table == 0 || ta_table == u8::MAX || tq_table == 0 || tq_table == u8::MAX {
                continue;
            }
            let (a, q) = (wl.lift(ta_table, &atoms), wl.lift(tq_table, &atoms));
            let state = random_member(rng, &a);
            let answer = q.contains(WorldId(state));
            let disclosed = if answer { q.clone() } else { q.complement() };
            let key = pair_hash(&a, &disclosed);
            if owner(key) != self.c || self.seen.contains(&key) {
                continue;
            }
            let sd = wl.support_set(if answer { tq_table } else { !tq_table });
            let sa = wl.support_set(ta_table);
            let stage = decide_product_pipeline(&wl.support_cube, &sa, &sd, criteria_only).stage;
            if stage == Stage::BranchAndBound {
                continue;
            }
            self.seen.insert(key);
            return Pair {
                audit_text: instantiate(&ta, &atoms),
                query_text: instantiate(&tq, &atoms),
                a,
                q,
                state,
                expected: [None, None],
            };
        }
    }

    /// A Remark 5.12 pair under record permutation, literal negation and
    /// A↔B swap, disclosed at a state in both sets (safe by
    /// construction).
    fn remark_pair(&mut self, wl: &Workload) -> Pair {
        let mut tries = 0;
        loop {
            tries += 1;
            let rng = &mut self.pair_rng;
            let atoms = distinct_atoms(rng, wl.spec.records, SUPPORT);
            let lits: Vec<String> = atoms.iter().map(|&r| literal(r, rng.percent(50))).collect();
            let (ta, tb) = remark_texts([&lits[0], &lits[1], &lits[2]]);
            let (ta, tb) = if rng.percent(50) { (tb, ta) } else { (ta, tb) };
            let (a, b) = (wl.compile(&ta), wl.compile(&tb));
            let fresh = self.seen.insert(pair_hash(&a, &b));
            if !fresh && tries < REMARK_TRIES {
                continue;
            }
            if !fresh {
                self.repeats += 1;
            }
            let state = random_member(rng, &a.intersection(&b));
            let expected = Workload::at_state(&b, state, Finding::Safe);
            return Pair {
                audit_text: ta,
                query_text: tb,
                a,
                q: b,
                state,
                expected,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A lifted truth table is what the full schema compiles from the
    /// renamed formula, which is what the daemon sees.
    #[test]
    fn lifted_support_sets_equal_full_schema_compiles() {
        let wl = Workload::new(Spec::named("cold_mixed").expect("known workload"), 7);
        let mut rng = Rng::new(7, 1);
        for _ in 0..500 {
            let atoms = distinct_atoms(&mut rng, wl.spec.records, SUPPORT);
            let (template, table) = random_formula(&mut rng, SUPPORT, 3);
            assert_eq!(
                wl.lift(table, &atoms),
                wl.compile(&instantiate(&template, &atoms)),
                "{template} on {atoms:?}"
            );
        }
    }
}
