//! The three workloads as seed-deterministic request streams.
//!
//! The loadgen families (chain, star, existential, disjunctive) come from
//! `ntgd_loadgen::generate`; the two negation programs (a node/edge colouring
//! choice with even negation loops, and an ontology with defaults) are
//! generated here.  Every stream is a pure function of the workload seed and
//! the run length, so two runs with one seed send byte-identical requests.

use std::collections::HashSet;

use ntgd_loadgen::{generate, Family, WorkloadSpec};

/// The latency bucket of a request (the verb, with `QUERY` split by whether
/// the program uses negation).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    Load,
    Assert,
    /// `QUERY` on a negation-free program (chase-backed lookup).
    Query,
    /// `QUERY` on a program with `not` (cautious reasoning).
    NQuery,
    Models,
    Retract,
}

impl Kind {
    pub const ALL: [Kind; 6] = [
        Kind::Load,
        Kind::Assert,
        Kind::Query,
        Kind::NQuery,
        Kind::Models,
        Kind::Retract,
    ];

    /// Metric prefix, as in `query_p50_ms`.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Load => "load",
            Kind::Assert => "assert",
            Kind::Query => "query",
            Kind::NQuery => "nquery",
            Kind::Models => "models",
            Kind::Retract => "retract",
        }
    }

    /// The tail percentiles reported for this kind, where samples allow.
    pub fn tails(self) -> &'static [u32] {
        match self {
            Kind::Query | Kind::Assert => &[90, 99],
            Kind::NQuery | Kind::Models | Kind::Load => &[90],
            Kind::Retract => &[],
        }
    }
}

/// One request line.
#[derive(Clone, Debug)]
pub struct Op {
    pub kind: Kind,
    pub line: String,
}

impl Op {
    fn new(kind: Kind, line: impl Into<String>) -> Op {
        Op {
            kind,
            line: line.into(),
        }
    }
}

/// How a connection paces its requests.
#[derive(Clone, Copy, Debug)]
pub enum Pace {
    /// Open loop: request `i` is due at `i / rate` seconds into the window
    /// and is sent then, whether or not earlier ones were answered.
    Open { rate: f64 },
    /// Closed loop until the window's deadline; the next request goes out
    /// `think_s` seconds after the previous response.
    ClosedTimed { think_s: f64 },
    /// Closed loop over the whole stream with `depth` requests in flight:
    /// the next request goes out when an answer arrives.  Every connection
    /// runs this way in the capacity rounds.
    Pipelined { depth: usize },
    /// Closed loop over the whole stream, paced: request `k` goes out when
    /// its predecessor is answered, but not before `k / rate` seconds.
    ClosedPaced { rate: f64 },
}

/// The requests of one connection.
pub struct Stream {
    pub name: &'static str,
    pub pace: Pace,
    /// The warm-up, then the window's requests (a timed closed loop takes a
    /// prefix).
    pub ops: Vec<Op>,
    /// Requests sent on this connection after the window to show known
    /// defects; checked like the others, reported apart from the window.
    pub probes: Vec<Op>,
}

/// One workload: up to two connections plus the post-window probes.
pub struct Workload {
    pub name: &'static str,
    pub streams: Vec<Stream>,
    /// Leading requests of every connection sent during set-up (warm-up
    /// `LOAD`s).
    pub warmup: usize,
    /// Per capacity round, per connection: the warm-up, then the round's
    /// requests.
    pub capacity: Vec<Vec<Vec<Op>>>,
    /// A request unanswered this long after it was due fails (and counts
    /// as taking this long).
    pub timeout_ms: f64,
    /// A `LOAD` line above the transport's 64 KiB read cap, sent on a fresh
    /// connection after the window.
    pub oversized_load: Option<String>,
    /// Key facts about the workload, printed with every run.
    pub record: Vec<String>,
}

pub const WORKLOADS: [&str; 3] = ["interactive", "models_mix", "load_churn"];

/// Open-loop rate of each `interactive` connection and of `models_mix`'s
/// connection A, in requests per second.
pub const OPEN_RATE: f64 = 1000.0;
/// Capacity rounds per run, each on a fresh server with requests of its own
/// (`models_mix` has more, shorter ones).
const CAPACITY_ROUNDS: u64 = 16;
const CAPACITY_COLORING_ROUNDS: u64 = 48;
/// Requests per connection in each capacity round (a tenth of a second or
/// less on a 2-vCPU machine): of an `interactive` connection, of a
/// `models_mix` colouring connection and of a `load_churn` connection.
const CAPACITY_OPEN_OPS: usize = 1_500;
const CAPACITY_COLORING_OPS: usize = 20;
const CAPACITY_CHURN_OPS: usize = 200;

/// Think time of `models_mix`'s closed-loop connection B.  It keeps B's
/// MODELS from occupying the server most of the window, and keeps the
/// from-scratch reference checks of B's requests within the run budget.
pub const COLORING_THINK_S: f64 = 0.025;
/// `load_churn` LOADs per connection per second of run length.
pub const CHURN_LOADS_PER_SECOND: f64 = 30.0;
/// Goodput latency limit of every connection.  On a shared 2-vCPU machine
/// a stream's p90 follows the other tenants: over five runs while they were
/// busy, the `interactive` streams' p90 ranged 1.9-5.9 ms and their goodput
/// at 1 ms 0.52-0.82 (at 10 ms 0.96-0.995), and a `load_churn`
/// connection's goodput at 3 ms 0.70-0.90 (at 10 ms 0.94-0.97).  So the
/// limit sits near the busy p99 of the open-loop and paced streams; the
/// colouring connection's MODELS mostly exceed it.
pub const LIMIT_MS: f64 = 10.0;
/// Nodes of the `models_mix` colouring program.
pub const COLORING_NODES: usize = 64;
/// Cap of every `MODELS` request.
pub const MODELS_MAX: usize = 4;

pub fn build(name: &str, seed: u64, seconds: f64) -> Option<Workload> {
    match name {
        "interactive" => Some(interactive(seed, seconds)),
        "models_mix" => Some(models_mix(seed, seconds)),
        "load_churn" => Some(load_churn(seed, seconds)),
        _ => None,
    }
}

/// Splitmix64: derives independent sub-seeds from the workload seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A small deterministic PRNG for the generators defined here.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(mix(seed, 0x5eed))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0, 1)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn loadgen_spec(family: Family, seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        name: format!("{family}"),
        family,
        sessions: 1,
        seed,
        ..WorkloadSpec::default()
    }
}

fn kind_of(verb: ntgd_loadgen::Verb) -> Kind {
    match verb {
        ntgd_loadgen::Verb::Load => Kind::Load,
        ntgd_loadgen::Verb::Assert => Kind::Assert,
        ntgd_loadgen::Verb::Query => Kind::Query,
        ntgd_loadgen::Verb::Models => Kind::Models,
        ntgd_loadgen::Verb::Retract => Kind::Retract,
    }
}

/// Requests per loadgen chunk of an open-loop stream.
const CHUNK_OPS: usize = 64;

/// A loadgen stream of ASSERT/QUERY/RETRACT-TO after one warm-up LOAD.
///
/// The warm-up LOAD is the program of `spec.seed`, the same for every
/// workload seed: its eager grounding is most of the server's memory, which
/// would otherwise differ by a tenth from seed to seed.  The requests come
/// from `seed`, in chunks of [`CHUNK_OPS`], each from its own sub-seed and
/// opened by `RETRACT-TO 0`, so the session never grows past what one chunk
/// adds (the largest state of one long random walk differs widely between
/// seeds too).
fn open_stream(name: &'static str, spec: &WorkloadSpec, seed: u64) -> Stream {
    Stream {
        name,
        pace: Pace::Open { rate: OPEN_RATE },
        ops: open_ops(spec, seed, spec.ops),
        probes: Vec::new(),
    }
}

/// The warm-up LOAD of `spec`, then `n` requests from `seed` (see
/// [`open_stream`]): a window's or a capacity round's.
fn open_ops(spec: &WorkloadSpec, seed: u64, n: usize) -> Vec<Op> {
    let load = generate(&WorkloadSpec {
        ops: 0,
        ..spec.clone()
    });
    let mut ops = vec![Op::new(Kind::Load, load.sessions[0][0].line.clone())];
    for chunk in 0.. {
        if ops.len() > n {
            break;
        }
        let generated = generate(&WorkloadSpec {
            ops: CHUNK_OPS,
            seed: mix(seed, chunk),
            ..spec.clone()
        });
        // A chunk's marks start from a fresh LOAD, which RETRACT-TO 0
        // restores.
        if chunk > 0 {
            ops.push(Op::new(Kind::Retract, "RETRACT-TO 0"));
        }
        ops.extend(
            generated.sessions[0][1..]
                .iter()
                .map(|op| Op::new(kind_of(op.verb), op.line.clone())),
        );
    }
    ops.truncate(n + 1);
    ops
}

/// The seed of the programs that stay the same for every workload seed: the
/// open-loop streams' warm-up programs (see [`open_stream`]) and the
/// colouring graph.  Loadgen's default.
const PROGRAM_SEED: u64 = 42;

fn chain_spec(seconds: f64) -> WorkloadSpec {
    WorkloadSpec {
        depth: 3,
        constants: 64,
        initial_facts: 24,
        ops: (OPEN_RATE * seconds).ceil() as usize,
        batch: 4,
        retract_rate: 0.1,
        query_rate: 0.4,
        ..loadgen_spec(Family::Chain, PROGRAM_SEED)
    }
}

fn existential_spec(seconds: f64) -> WorkloadSpec {
    WorkloadSpec {
        depth: 3,
        constants: 64,
        initial_facts: 16,
        ops: (OPEN_RATE * seconds).ceil() as usize,
        batch: 2,
        retract_rate: 0.1,
        query_rate: 0.4,
        ..loadgen_spec(Family::Existential, PROGRAM_SEED)
    }
}

fn interactive(seed: u64, seconds: f64) -> Workload {
    let chain = chain_spec(seconds);
    let existential = existential_spec(seconds);
    Workload {
        name: "interactive",
        record: vec![
            format!(
                "open loop, 2 connections, {OPEN_RATE} req/s each, latency limit {LIMIT_MS} ms"
            ),
            format!(
                "conn 1: chain depth={} initial_facts={} constants={} batch={} (query {}, retract {}, rest assert)",
                chain.depth, chain.initial_facts, chain.constants, chain.batch, chain.query_rate, chain.retract_rate
            ),
            format!(
                "conn 2: existential depth={} initial_facts={} constants={} batch={} (query {}, retract {}, rest assert)",
                existential.depth, existential.initial_facts, existential.constants, existential.batch,
                existential.query_rate, existential.retract_rate
            ),
        ],
        streams: vec![
            open_stream("chain", &chain, mix(seed, 1)),
            open_stream("existential", &existential, mix(seed, 2)),
        ],
        warmup: 1,
        capacity: rounds(CAPACITY_ROUNDS, |round| {
            vec![
                open_ops(&chain, mix(seed, 100 + round), CAPACITY_OPEN_OPS),
                open_ops(&existential, mix(seed, 200 + round), CAPACITY_OPEN_OPS),
            ]
        }),
        timeout_ms: 2_000.0,
        oversized_load: None,
    }
}

/// The colouring program: every node picks red or green through an even
/// negation loop; edges only derive positive consequences, so the program
/// always has stable models.
pub fn coloring_rules() -> &'static str {
    "node(X), not green(X) -> red(X). node(X), not red(X) -> green(X). \
     red(X) -> colored(X). green(X) -> colored(X). \
     edge(X, Y), red(X), red(Y) -> clash(X, Y). edge(X, Y), green(X), green(Y) -> clash(X, Y)."
}

/// The colouring connection: the graph is the same for every workload seed
/// (like the open-loop warm-up programs), the requests come from `seed`.
fn coloring_stream(seed: u64) -> Stream {
    Stream {
        name: "coloring",
        pace: Pace::ClosedTimed {
            think_s: COLORING_THINK_S,
        },
        // Far more than one window can use; the closed loop takes a prefix.
        ops: coloring_ops(mix(seed, 3), 20_000, true),
        // ROADMAP item 1: QUERY answers the positive relaxation, in which
        // every node is red; under the stable-model semantics no node is
        // red in every model.
        probes: vec![Op::new(Kind::NQuery, "QUERY ?(X) :- red(X).")],
    }
}

/// The colouring program's LOAD, then `n` requests from `seed`: each
/// ASSERT followed by a MODELS or, when `queries`, half the time by a QUERY.
fn coloring_ops(seed: u64, n: usize, queries: bool) -> Vec<Op> {
    let mut graph = Rng::new(PROGRAM_SEED);
    let mut load = format!("LOAD {}", coloring_rules());
    for node in 0..COLORING_NODES {
        load.push_str(&format!(" node(n{node})."));
    }
    let mut edges = HashSet::new();
    for node in 0..COLORING_NODES {
        for _ in 0..2 {
            let other = graph.below(COLORING_NODES);
            if other != node && edges.insert((node, other)) {
                load.push_str(&format!(" edge(n{node}, n{other})."));
            }
        }
    }
    let mut rng = Rng::new(seed);
    let mut ops = vec![Op::new(Kind::Load, load)];
    let mut marks = 1usize;
    let mut fresh = COLORING_NODES;
    while ops.len() <= n {
        if marks > 1 && rng.unit() < 0.12 {
            let target = rng.below(marks - 1);
            marks = target + 1;
            ops.push(Op::new(Kind::Retract, format!("RETRACT-TO {target}")));
        }
        // Known constants keep the grounding (a reuse); a new node changes
        // the candidate domain (a rebuild).
        let assert = if rng.unit() < 0.7 {
            let a = rng.below(COLORING_NODES);
            let b = rng.below(COLORING_NODES);
            format!("ASSERT edge(n{a}, n{b}).")
        } else {
            let a = rng.below(COLORING_NODES);
            fresh += 1;
            format!("ASSERT node(n{fresh}). edge(n{fresh}, n{a}).")
        };
        ops.push(Op::new(Kind::Assert, assert));
        marks += 1;
        if !queries || rng.unit() < 0.5 {
            ops.push(Op::new(
                Kind::Models,
                format!("MODELS sms max={MODELS_MAX}"),
            ));
        } else {
            let node = rng.below(COLORING_NODES);
            let query = if rng.unit() < 0.5 {
                format!("QUERY ?- colored(n{node}).")
            } else {
                format!("QUERY ?(Y) :- edge(n{node}, Y), colored(Y).")
            };
            ops.push(Op::new(Kind::NQuery, query));
        }
    }
    ops.truncate(n + 1);
    ops
}

fn models_mix(seed: u64, seconds: f64) -> Workload {
    let chain = chain_spec(seconds);
    Workload {
        name: "models_mix",
        record: vec![
            format!(
                "conn A: the interactive chain stream, open loop at {OPEN_RATE} req/s, latency limit {LIMIT_MS} ms"
            ),
            format!(
                "conn B: closed loop ({} ms think time) over a colouring program with even negation loops: {COLORING_NODES} nodes, ~2 edges each; \
                 ASSERT (70% known constants, 30% a new node), then MODELS sms max={MODELS_MAX} or an nquery, RETRACT-TO 12%; latency limit {LIMIT_MS} ms",
                COLORING_THINK_S * 1e3
            ),
        ],
        streams: vec![
            open_stream("chain", &chain, mix(seed, 1)),
            coloring_stream(seed),
        ],
        warmup: 1,
        // Both connections on colouring programs, with MODELS after every
        // ASSERT: the rounds measure the sms layers' capacity.  Many short
        // rounds, because how long a search takes varies from one server
        // process to the next (by a fifth between rounds).
        capacity: rounds(CAPACITY_COLORING_ROUNDS, |round| {
            [300, 400]
                .map(|stream| coloring_ops(mix(seed, stream + round), CAPACITY_COLORING_OPS, false))
                .into()
        }),
        timeout_ms: 5_000.0,
        oversized_load: None,
    }
}

/// The ontology-with-defaults program (as in `examples/ontology_defaults.rs`)
/// over employees `e{first}` .. `e{first + employees - 1}`, the first of them
/// managing the research department; `badges` are offsets from `first`.
pub fn defaults_program(first: usize, employees: usize, badges: &[usize]) -> String {
    let mut text = String::from(
        "employee(X) -> worksIn(X, D), dept(D). dept(D) -> manages(M, D). \
         employee(X), not isManager(X) -> staff(X). manages(M, D) -> isManager(M). \
         staff(X), not hasBadge(X) -> flagged(X).",
    );
    for employee in first..first + employees {
        text.push_str(&format!(" employee(e{employee})."));
    }
    for badge in badges {
        text.push_str(&format!(" hasBadge(e{}).", first + badge));
    }
    text.push_str(&format!(" manages(e{first}, research). dept(research)."));
    text
}

/// One `load_churn` program and the request that follows its `LOAD`.
///
/// The `ordinal`-th new program of a connection: the family cycles through
/// all five, and each family's size through a fixed schedule, so every seed
/// loads the same mix of program sizes and only the facts differ.
fn churn_program(ordinal: usize, rng: &mut Rng, seed: u64) -> (String, Op) {
    let k = ordinal / 5;
    if ordinal % 5 == 4 {
        let employees = 2 + k % 3;
        let badges: Vec<usize> = (0..employees).filter(|_| rng.unit() < 0.4).collect();
        let first = rng.below(1_000_000);
        let program = defaults_program(first, employees, &badges);
        let who = first + rng.below(employees);
        // No MODELS here: it grows steeply with the employees (about 0.1 s
        // at 4, over a minute at 8) and would dominate the run's time.
        let follow = if k.is_multiple_of(2) {
            Op::new(Kind::NQuery, format!("QUERY ?- worksIn(e{who}, D)."))
        } else {
            Op::new(Kind::NQuery, "QUERY ?(X) :- hasBadge(X).".to_owned())
        };
        return (format!("LOAD {program}"), follow);
    }
    let (family, facts, depth) = match ordinal % 5 {
        0 => (Family::Chain, 30 + 30 * (k % 5), 2 + k % 3),
        1 => (Family::Star, 30 + 30 * (k % 5), 2 + k % 3),
        // The eager grounding of an existential program takes memory fast
        // (40 programs of 20 facts at depth 3 hold about 300 MB), so these
        // stay small.
        2 => (Family::Existential, 4 + 2 * (k % 5), 2 + k % 2),
        _ => (Family::Disjunctive, 4 + k % 7, 1 + k % 2),
    };
    let spec = WorkloadSpec {
        depth,
        constants: 64,
        initial_facts: facts,
        ops: 1,
        retract_rate: 0.0,
        query_rate: 1.0,
        models_rate: 0.0,
        models_max: MODELS_MAX,
        ..loadgen_spec(family, seed)
    };
    let generated = generate(&spec);
    let ops = &generated.sessions[0];
    let follow = ops[1].clone();
    (
        ops[0].line.clone(),
        Op::new(kind_of(follow.verb), follow.line),
    )
}

/// `loads` LOADs of connection `stream`, each with its follow-up; `seen`
/// holds the payloads the other connection loads.
fn churn_ops(seed: u64, stream: u64, loads: usize, seen: &mut HashSet<String>) -> Vec<Op> {
    let mut rng = Rng::new(mix(seed, 10 + stream));
    let mut own: Vec<(String, Op)> = Vec::new();
    let mut ops = Vec::new();
    let mut attempt = 0u64;
    for index in 0..loads {
        // Every other LOAD repeats a payload this connection loaded before.
        let (load, follow) = if index % 2 == 1 {
            own[rng.below(own.len())].clone()
        } else {
            loop {
                attempt += 1;
                let fresh = churn_program(own.len(), &mut rng, mix(seed, (stream << 32) | attempt));
                if seen.insert(fresh.0.clone()) {
                    own.push(fresh.clone());
                    break fresh;
                }
            }
        };
        ops.push(Op::new(Kind::Load, load));
        ops.push(follow);
    }
    ops
}

/// The requests of `count` capacity rounds' connections, from `per_round`
/// called with the round number.
fn rounds(count: u64, per_round: impl Fn(u64) -> Vec<Vec<Op>>) -> Vec<Vec<Vec<Op>>> {
    (0..count).map(per_round).collect()
}

/// The two connections' LOADs (`loads` each, on payloads of their own).
fn churn_pair(seed: u64, loads: usize) -> Vec<Vec<Op>> {
    let mut seen = HashSet::new();
    [0, 1]
        .map(|stream| churn_ops(seed, stream, loads, &mut seen))
        .into()
}

fn load_churn(seed: u64, seconds: f64) -> Workload {
    let loads = (CHURN_LOADS_PER_SECOND * seconds).ceil() as usize;
    let mut streams: Vec<Stream> = churn_pair(seed, loads)
        .into_iter()
        .zip(["churn-1", "churn-2"])
        .map(|(ops, name)| Stream {
            name,
            // Two requests (the LOAD and its follow-up) per LOAD slot.
            pace: Pace::ClosedPaced {
                rate: 2.0 * CHURN_LOADS_PER_SECOND,
            },
            ops,
            probes: Vec::new(),
        })
        .collect();
    // ROADMAP item 1 as reported: e3 holds a badge, yet QUERY answers
    // flagged(e3) from the positive relaxation.
    streams[0].probes = vec![
        Op::new(Kind::Load, format!("LOAD {}", defaults_program(0, 5, &[3]))),
        Op::new(Kind::NQuery, "QUERY ?- flagged(e3)."),
    ];
    let mut oversized = String::from("LOAD e(X, Y) -> p(X, Y).");
    let mut index = 0;
    while oversized.len() <= 64 * 1024 + 4 * 1024 {
        oversized.push_str(&format!(" e(c{index}, c{}).", index + 1));
        index += 1;
    }
    Workload {
        name: "load_churn",
        record: vec![
            format!(
                "closed loop paced at {CHURN_LOADS_PER_SECOND} LOADs/s per connection, 2 connections, {loads} LOADs each, each followed by one QUERY or MODELS sms max={MODELS_MAX}; latency limit {LIMIT_MS} ms"
            ),
            "new programs cycle chain, star, existential, disjunctive, defaults with fixed size schedules: \
             chain/star 30-150 initial facts (depth 2-4), existential 4-12 (depth 2-3), disjunctive 4-10, defaults 2-4 employees; \
             every other LOAD repeats a payload of the same connection (a registry fork)"
                .to_owned(),
            format!(
                "after the window: one {}-byte LOAD line on a fresh connection (2 s timeout)",
                oversized.len() + 1
            ),
        ],
        streams,
        warmup: 0,
        // A fresh server each round, so new programs again.
        capacity: rounds(CAPACITY_ROUNDS, |round| {
            churn_pair(mix(seed, 500 + round), CAPACITY_CHURN_OPS / 2)
        }),
        timeout_ms: 5_000.0,
        oversized_load: Some(oversized),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_seed_deterministic() {
        for name in WORKLOADS {
            let one = build(name, 7, 2.0).unwrap();
            let two = build(name, 7, 2.0).unwrap();
            let lines = |w: &Workload| -> Vec<String> {
                w.streams
                    .iter()
                    .flat_map(|s| s.ops.iter().map(|op| op.line.clone()))
                    .collect()
            };
            assert_eq!(lines(&one), lines(&two), "{name}");
            let other = build(name, 8, 2.0).unwrap();
            assert_ne!(lines(&one), lines(&other), "{name}");
        }
    }

    #[test]
    fn churn_payloads_are_fresh_or_own_repeats() {
        let workload = build("load_churn", 3, 4.0).unwrap();
        let loads = |s: &Stream| -> Vec<String> {
            s.ops
                .iter()
                .filter(|op| op.kind == Kind::Load)
                .map(|op| op.line.clone())
                .collect()
        };
        let first: HashSet<String> = loads(&workload.streams[0]).into_iter().collect();
        let second: HashSet<String> = loads(&workload.streams[1]).into_iter().collect();
        assert!(first.is_disjoint(&second));
        assert!(workload.oversized_load.unwrap().len() > 64 * 1024);
    }
}
