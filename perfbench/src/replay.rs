//! The traced in-process replay.
//!
//! Each request runs three times: through a *mirror* that makes the
//! session's calls into each layer's public functions itself, in the
//! session's order, with a span around each call; through a second mirror
//! with its tracer off; and through a real `Session::execute`.  The three
//! responses must be equal, which shows the mirror did what the session
//! does.  The traced mirror's time over the untraced one's is the tracing
//! overhead.  Spans (name, start, end, parent, request id) stay in memory
//! and are written out at the end; a layer's self time is its spans' time
//! minus their children's.
//!
//! `BaseRegistry::register` takes a `BaseEntry`, which only the server crate
//! can build, so the mirror keeps its frozen bases in its own map and calls
//! the real `BaseRegistry::lookup` on the registry the real sessions
//! populate.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use ntgd_chase::{ChaseBase, ChaseConfig, EpochMark, IncrementalChase};
use ntgd_classes::ClassVerdict;
use ntgd_core::{Atom, DisjunctiveProgram, Term};
use ntgd_parser::{parse_database, parse_query, parse_unit};
use ntgd_server::registry::ProgramClass;
use ntgd_server::{
    parse_command, BaseKey, BaseRegistry, Command, ModelsMode, Session, SessionConfig,
};
use ntgd_sms::{
    GroundingLimits, IncrementalSmsState, NullBudget, SmsBaseSnapshot, SmsEngine, SmsError,
};

use crate::stats::{mean, median, percentile, ratio, Report};
use crate::workloads::Kind;

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u32,
}

/// The in-memory span recorder; a disabled one records nothing.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    request: u32,
}

impl Tracer {
    fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, name: &'static str) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(index);
        index
    }

    fn exit(&mut self, index: usize) {
        if !self.enabled {
            return;
        }
        self.spans[index].end_ns = self.now();
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(index));
    }

    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let span = self.enter(name);
        let result = f();
        self.exit(span);
        result
    }
}

/// Counts gathered at the layer boundaries.
#[derive(Default)]
struct Counts {
    lookups: u64,
    hits: u64,
    assert_steps: Vec<f64>,
    derived: u64,
    steps: u64,
    answers: Vec<f64>,
    sms_rebuilds: u64,
    sms_reuses: u64,
    sms_hits: u64,
    ground_rules: Vec<f64>,
    candidates: u64,
    stable: u64,
    searches: u64,
}

/// A frozen base in the mirror's own map.
struct Frozen {
    disjunctive: Arc<DisjunctiveProgram>,
    chase: Option<Arc<ChaseBase>>,
    sms: Option<Arc<SmsBaseSnapshot>>,
    facts: Vec<Atom>,
    class: ProgramClass,
}

/// The mirror's per-connection session state.
struct Loaded {
    disjunctive: Arc<DisjunctiveProgram>,
    chase: Option<IncrementalChase>,
    sms: Option<IncrementalSmsState>,
    facts: Vec<Atom>,
    fact_set: HashSet<Atom>,
    marks: Vec<(Option<EpochMark>, usize)>,
    generation: u64,
    models_cache: Option<(u64, usize, Vec<String>)>,
}

impl Loaded {
    fn atoms(&self) -> usize {
        self.chase
            .as_ref()
            .map_or(self.facts.len(), |chase| chase.instance().len())
    }
}

fn chase_config(class: &ProgramClass, max_steps: usize) -> ChaseConfig {
    if class.verdict == ClassVerdict::Terminating {
        ChaseConfig::unbounded()
    } else {
        ChaseConfig::with_max_steps(max_steps)
    }
}

fn null_budget(class: &ProgramClass) -> NullBudget {
    if class.verdict == ClassVerdict::Terminating {
        NullBudget::AutoExact
    } else {
        NullBudget::Auto
    }
}

fn err(message: impl std::fmt::Display) -> Vec<String> {
    let flat = message.to_string().replace('\n', "; ").replace('\r', "");
    vec![format!("ERR {flat}")]
}

fn ok_with(mut data: Vec<String>, detail: impl std::fmt::Display) -> Vec<String> {
    data.push(format!("OK {detail}"));
    data
}

/// The mirror of one workload: shared registry view plus per-connection
/// state.
struct Mirror {
    registry: Arc<BaseRegistry>,
    frozen: HashMap<BaseKey, Frozen>,
    max_steps: usize,
    max_models: usize,
    counts: Counts,
}

impl Mirror {
    fn execute(&mut self, tr: &mut Tracer, state: &mut Option<Loaded>, line: &str) -> Vec<String> {
        let command = tr.time("protocol.parse", || parse_command(line));
        match command {
            Err(message) => err(message),
            Ok(Command::Load(text)) => self.load(tr, state, &text),
            Ok(Command::Assert(text)) => self.assert(tr, state, &text),
            Ok(Command::Query(text)) => self.query(tr, state, &text),
            Ok(Command::Models {
                mode: ModelsMode::Sms,
                max,
            }) => self.models(tr, state, max.unwrap_or(self.max_models)),
            Ok(Command::RetractTo(mark)) => Self::retract(tr, state, mark),
            Ok(other) => err(format!("the replay does not mirror {other:?}")),
        }
    }

    fn build(&self, tr: &mut Tracer, text: &str) -> Result<Frozen, Vec<String>> {
        let parsed = tr.time("parser.load", || {
            parse_unit(text).map(|unit| {
                let disjunctive = unit.disjunctive_program();
                let normal = unit.program();
                (unit, disjunctive, normal)
            })
        });
        let (unit, disjunctive, normal) = parsed.map_err(err)?;
        if !unit.queries.is_empty() {
            return Err(err("LOAD text may not contain queries; use QUERY"));
        }
        let disjunctive = disjunctive.map_err(err)?;
        let class = tr.time("classes.classify", || match &normal {
            Some(program) => ProgramClass::of(program),
            None => ProgramClass::of(&disjunctive.positive_conjunctive_part()),
        });
        let build = tr.enter("chase.build");
        let initial: Vec<Atom> = unit.database.facts().cloned().collect();
        let chase = match &normal {
            Some(program) => {
                let built = IncrementalChase::new(program, chase_config(&class, self.max_steps))
                    .and_then(|mut chase| {
                        chase.assert_facts(initial.iter().cloned())?;
                        Ok(chase)
                    });
                match built {
                    Ok(chase) => Some(chase),
                    Err(limit) => {
                        tr.exit(build);
                        return Err(err(limit));
                    }
                }
            }
            None => None,
        };
        tr.exit(build);
        let mut seen = HashSet::new();
        let facts: Vec<Atom> = initial
            .into_iter()
            .filter(|fact| seen.insert(fact.clone()))
            .collect();
        let disjunctive = Arc::new(disjunctive);
        let state = IncrementalSmsState::new(
            Arc::clone(&disjunctive),
            null_budget(&class),
            GroundingLimits::default(),
        );
        let freeze = tr.enter("registry.freeze");
        let chase = chase.map(|chase| tr.time("chase.freeze", || chase.freeze()));
        let sms = self.freeze_sms(tr, state, &facts);
        tr.exit(freeze);
        Ok(Frozen {
            disjunctive,
            chase,
            sms,
            facts,
            class,
        })
    }

    fn freeze_sms(
        &self,
        tr: &mut Tracer,
        mut state: IncrementalSmsState,
        facts: &[Atom],
    ) -> Option<Arc<SmsBaseSnapshot>> {
        let grounded = tr.time("sms.ground", || state.ensure_current(facts).is_ok());
        grounded.then(|| tr.time("sms.freeze", || state.freeze(facts)))?
    }

    fn load(&mut self, tr: &mut Tracer, state: &mut Option<Loaded>, text: &str) -> Vec<String> {
        let key = BaseKey::new(text, self.max_steps, true);
        let hit = tr.time("registry.lookup", || self.registry.lookup(&key).is_some());
        self.counts.lookups += 1;
        if hit && self.frozen.contains_key(&key) {
            self.counts.hits += 1;
        } else {
            let build = tr.enter("registry.build");
            let built = self.build(tr, text);
            tr.exit(build);
            match built {
                Ok(frozen) => {
                    tr.time("registry.register", || {
                        self.frozen.entry(key.clone()).or_insert(frozen);
                    });
                }
                Err(response) => return response,
            }
        }
        let entry = &self.frozen[&key];
        let fork = tr.enter("registry.fork");
        let chase = entry.chase.as_ref().map(|base| {
            tr.time("chase.fork", || {
                IncrementalChase::fork(base, chase_config(&entry.class, self.max_steps))
            })
        });
        let sms = IncrementalSmsState::new(
            Arc::clone(&entry.disjunctive),
            null_budget(&entry.class),
            GroundingLimits::default(),
        );
        let sms = match entry.sms.as_ref() {
            Some(snapshot) => sms.with_base(Arc::clone(snapshot)),
            None => sms,
        };
        let facts = entry.facts.clone();
        let mut loaded = Loaded {
            disjunctive: Arc::clone(&entry.disjunctive),
            fact_set: facts.iter().cloned().collect(),
            marks: Vec::new(),
            chase,
            sms: Some(sms),
            facts,
            generation: 0,
            models_cache: None,
        };
        loaded.marks.push((
            loaded.chase.as_ref().map(IncrementalChase::mark),
            loaded.facts.len(),
        ));
        tr.exit(fork);
        let summary = format!(
            "rules={} facts={} atoms={} mark=0",
            loaded.disjunctive.len(),
            loaded.facts.len(),
            loaded.atoms()
        );
        let warn = (entry.class.verdict == ClassVerdict::OutOfFragment)
            .then(|| format!("WARN class=out-of-fragment budget={}", self.max_steps));
        *state = Some(loaded);
        ok_with(warn.into_iter().collect(), summary)
    }

    fn assert(&mut self, tr: &mut Tracer, state: &mut Option<Loaded>, text: &str) -> Vec<String> {
        let parsed = tr.time("parser.facts", || parse_database(text));
        let database = match parsed {
            Ok(database) => database,
            Err(error) => return err(error),
        };
        let facts: Vec<Atom> = database.facts().cloned().collect();
        let Some(loaded) = state.as_mut() else {
            return err("no program loaded");
        };
        if let Some(fact) = facts.iter().find(|fact| !fact.is_constant_only()) {
            return err(format!("facts must be ground and null-free, got {fact}"));
        }
        let mut derived = 0;
        if let Some(chase) = loaded.chase.as_mut() {
            match tr.time("chase.assert", || chase.assert_facts(facts.iter().cloned())) {
                Ok(summary) => {
                    derived = summary.derived;
                    self.counts.assert_steps.push(summary.steps as f64);
                    self.counts.steps += summary.steps as u64;
                    self.counts.derived += summary.derived as u64;
                }
                Err(limit) => return err(limit),
            }
        }
        let mut added = 0;
        for fact in facts {
            if loaded.fact_set.insert(fact.clone()) {
                loaded.facts.push(fact);
                added += 1;
            }
        }
        loaded.marks.push((
            loaded.chase.as_ref().map(IncrementalChase::mark),
            loaded.facts.len(),
        ));
        loaded.generation += 1;
        vec![format!(
            "OK mark={} added={added} derived={derived} atoms={}",
            loaded.marks.len() - 1,
            loaded.atoms()
        )]
    }

    fn query(&mut self, tr: &mut Tracer, state: &mut Option<Loaded>, text: &str) -> Vec<String> {
        let query = match tr.time("parser.query", || parse_query(text)) {
            Ok(query) => query,
            Err(error) => return err(error),
        };
        let Some(loaded) = state.as_ref() else {
            return err("no program loaded");
        };
        let Some(chase) = loaded.chase.as_ref() else {
            return err("QUERY needs a normal (non-disjunctive) program");
        };
        let instance = chase.instance();
        if query.is_boolean() {
            let verdict = tr.time("matcher.query", || query.holds(instance));
            self.counts.answers.push(f64::from(u8::from(verdict)));
            return ok_with(vec![format!("ANSWER {verdict}")], "answers=1");
        }
        let answers = tr.time("matcher.query", || query.answers(instance));
        self.counts.answers.push(answers.len() as f64);
        let lines = tr.time("protocol.render", || {
            let mut lines: Vec<String> = answers
                .iter()
                .map(|tuple| {
                    let rendered: Vec<String> = tuple.iter().map(Term::to_string).collect();
                    format!("ANSWER {}", rendered.join(", "))
                })
                .collect();
            lines.sort();
            lines
        });
        let kept = lines.len();
        ok_with(lines, format!("answers={kept}"))
    }

    fn models(&mut self, tr: &mut Tracer, state: &mut Option<Loaded>, max: usize) -> Vec<String> {
        let Some(loaded) = state.as_mut() else {
            return err("no program loaded");
        };
        if let Some((generation, cached_max, lines)) = &loaded.models_cache {
            if *generation == loaded.generation && *cached_max == max {
                return ok_with(
                    lines.clone(),
                    format!("models={} mode=sms cached=true", lines.len()),
                );
            }
        }
        let Loaded {
            disjunctive,
            facts,
            sms,
            ..
        } = loaded;
        let state = sms.as_mut().expect("the mirror always keeps MODELS state");
        let before = state.stats();
        let ground_span = tr.enter("sms.ground");
        let ground = state.ensure_current(facts);
        tr.exit(ground_span);
        let result = match ground {
            Err(error) => Err(SmsError::from(error)),
            Ok(ground) => {
                self.counts.ground_rules.push(ground.rules.len() as f64);
                tr.time("sms.search", || {
                    SmsEngine::new_shared(Arc::clone(disjunctive))
                        .stable_models_over_with_statistics(ground, max)
                })
            }
        };
        let after = state.stats();
        self.counts.sms_rebuilds += after.rebuilds - before.rebuilds;
        self.counts.sms_reuses += after.reuses - before.reuses;
        self.counts.sms_hits += after.hits - before.hits;
        let models = match result {
            Ok((models, statistics)) => {
                self.counts.searches += 1;
                self.counts.candidates += statistics.candidates as u64;
                self.counts.stable += statistics.stable as u64;
                models
            }
            Err(error) => return err(error),
        };
        let rendered = tr.time("protocol.render", || {
            let mut lines: Vec<String> = models.iter().map(|m| format!("MODEL {m}")).collect();
            lines.sort();
            lines
        });
        let count = rendered.len();
        loaded.models_cache = Some((loaded.generation, max, rendered.clone()));
        ok_with(rendered, format!("models={count} mode=sms"))
    }

    fn retract(tr: &mut Tracer, state: &mut Option<Loaded>, mark: usize) -> Vec<String> {
        let Some(loaded) = state.as_mut() else {
            return err("no program loaded");
        };
        if mark >= loaded.marks.len() {
            return err(match loaded.marks.len() {
                0 => format!("unknown mark {mark} (no marks)"),
                have => format!("unknown mark {mark} (have 0..={})", have - 1),
            });
        }
        let (epoch, keep) = loaded.marks[mark];
        if let (Some(chase), Some(epoch)) = (loaded.chase.as_mut(), epoch.as_ref()) {
            tr.time("chase.retract", || chase.retract_to(epoch));
        }
        if let Some(state) = loaded.sms.as_mut() {
            tr.time("sms.retract", || state.retract_to_facts(keep));
        }
        for fact in &loaded.facts[keep..] {
            loaded.fact_set.remove(fact);
        }
        loaded.facts.truncate(keep);
        loaded.marks.truncate(mark + 1);
        loaded.generation += 1;
        vec![format!("OK mark={mark} atoms={}", loaded.atoms())]
    }
}

/// One request to replay: its latency bucket, its line, and the client's
/// round trip in the TCP run (window requests only).
pub struct Request<'a> {
    pub kind: Kind,
    pub line: &'a str,
    pub client_rtt_us: Option<f64>,
}

/// What the replay measured.
pub struct Outcome {
    pub report: Report,
    pub mismatches: usize,
    pub first_mismatch: Option<String>,
    pub spans: Vec<Span>,
}

/// Replays each connection's requests (in order, one connection after the
/// other) through the traced mirror, the untraced mirror and a real session,
/// all sharing one registry.
pub fn run(connections: &[Vec<Request<'_>>]) -> Outcome {
    let registry = Arc::new(BaseRegistry::new());
    let config = SessionConfig {
        incremental_models: true,
        base_registry: Some(Arc::clone(&registry)),
        session_budget: None,
        slow_ms: None,
        classify: true,
        ..SessionConfig::default()
    };
    let new_mirror = || Mirror {
        registry: Arc::clone(&registry),
        frozen: HashMap::new(),
        max_steps: config.max_steps,
        max_models: config.max_models,
        counts: Counts::default(),
    };
    let (mut mirror, mut plain) = (new_mirror(), new_mirror());
    let (mut tr, mut off) = (Tracer::new(true), Tracer::new(false));
    let mut exec_us: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let mut overhead_us = Vec::new();
    let (mut real_ns, mut traced_ns, mut plain_ns, mut covered_ns) = (0u64, 0u64, 0u64, 0u64);
    let mut mismatches = 0;
    let mut first_mismatch = None;
    for requests in connections {
        let mut session = Session::new(config.clone());
        let (mut state, mut plain_state) = (None, None);
        for (index, request) in requests.iter().enumerate() {
            let mut traced = || {
                tr.request += 1;
                let root = tr.enter("session.execute");
                let lines = mirror.execute(&mut tr, &mut state, request.line);
                tr.exit(root);
                lines
            };
            let mut untraced = || {
                let started = Instant::now();
                let lines = plain.execute(&mut off, &mut plain_state, request.line);
                (lines, started.elapsed().as_nanos() as u64)
            };
            let mut real = || {
                let started = Instant::now();
                let response = session.execute(request.line);
                (response.lines, started.elapsed().as_nanos() as u64)
            };
            // LOAD must look the registry up before the real session
            // registers.  Otherwise the session goes first or last in turn,
            // and the two mirrors swap places every request, so neither
            // always finds the caches warm.
            let even = index % 2 == 0;
            let (mirrored, (unmirrored, ns_plain), (lines, ns)) =
                match (request.kind == Kind::Load, even) {
                    (true, true) => (traced(), untraced(), real()),
                    (true, false) => {
                        let second = untraced();
                        (traced(), second, real())
                    }
                    (false, true) => {
                        let first = real();
                        let mirrored = traced();
                        (mirrored, untraced(), first)
                    }
                    (false, false) => {
                        let second = untraced();
                        let mirrored = traced();
                        (mirrored, second, real())
                    }
                };
            let root = tr
                .spans
                .iter()
                .rposition(|span| span.name == "session.execute")
                .expect("root span");
            let root_span = tr.spans[root];
            traced_ns += root_span.end_ns - root_span.start_ns;
            covered_ns += tr.spans[root + 1..]
                .iter()
                .filter(|span| span.parent == Some(root))
                .map(|span| span.end_ns - span.start_ns)
                .sum::<u64>();
            real_ns += ns;
            plain_ns += ns_plain;
            if mirrored != lines || unmirrored != lines {
                mismatches += 1;
                first_mismatch.get_or_insert_with(|| {
                    format!(
                        "{}: mirror {mirrored:?}, untraced mirror {unmirrored:?}, session {lines:?}",
                        request.line
                    )
                });
            }
            let verb = match request.kind {
                Kind::Load => "load",
                Kind::Assert => "assert",
                Kind::Query | Kind::NQuery => "query",
                Kind::Models => "models",
                Kind::Retract => "retract",
            };
            exec_us.entry(verb).or_default().push(ns as f64 / 1e3);
            if let Some(rtt) = request.client_rtt_us {
                overhead_us.push(rtt - ns as f64 / 1e3);
            }
        }
    }
    let mut report = layer_report(&tr.spans, &mirror.counts, registry.len());
    for verb in ["load", "assert", "query", "models", "retract"] {
        let values = exec_us.get(verb).map(Vec::as_slice).unwrap_or(&[]);
        report.add_timing(
            format!("session.{verb}_us"),
            median(values),
            "us",
            values.len(),
        );
    }
    report.add(
        "session.coverage_ratio",
        ratio(covered_ns as f64, real_ns as f64),
        "ratio",
    );
    report.add(
        "session.trace_overhead_ratio",
        ratio(traced_ns as f64 - plain_ns as f64, plain_ns as f64),
        "ratio",
    );
    let n = overhead_us.len();
    report.add_timing("transport.overhead_p50_us", median(&overhead_us), "us", n);
    report.add_timing(
        "transport.overhead_p99_us",
        percentile(&overhead_us, 99.0).unwrap_or(0.0),
        "us",
        n,
    );
    Outcome {
        report,
        mismatches,
        first_mismatch,
        spans: tr.spans,
    }
}

/// Per-span self time (duration minus the children's durations), in ns.
fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.end_ns - span.start_ns;
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(span, children)| (span.end_ns - span.start_ns).saturating_sub(children))
        .collect()
}

fn layer_report(spans: &[Span], counts: &Counts, entries: usize) -> Report {
    let own = self_times(spans);
    let values = |name: &str, total: bool, scale: f64| -> Vec<f64> {
        spans
            .iter()
            .zip(&own)
            .filter(|(span, _)| span.name == name)
            .map(|(span, own)| {
                let ns = if total {
                    span.end_ns - span.start_ns
                } else {
                    *own
                };
                ns as f64 / scale
            })
            .collect()
    };
    let mut report = Report::default();
    let timing =
        |report: &mut Report, metric: &str, span: &str, total: bool, unit: &'static str| {
            let scale = if unit == "ms" { 1e6 } else { 1e3 };
            let samples = values(span, total, scale);
            report.add_timing(metric, median(&samples), unit, samples.len());
        };
    timing(
        &mut report,
        "protocol.parse_us",
        "protocol.parse",
        false,
        "us",
    );
    timing(&mut report, "parser.query_us", "parser.query", false, "us");
    timing(&mut report, "parser.facts_us", "parser.facts", false, "us");
    timing(&mut report, "parser.load_us", "parser.load", false, "us");
    timing(
        &mut report,
        "classes.classify_us",
        "classes.classify",
        false,
        "us",
    );
    report.add(
        "registry.hit_ratio",
        ratio(counts.hits as f64, counts.lookups as f64),
        "ratio",
    );
    timing(
        &mut report,
        "registry.build_ms",
        "registry.build",
        true,
        "ms",
    );
    timing(
        &mut report,
        "registry.freeze_ms",
        "registry.freeze",
        true,
        "ms",
    );
    timing(&mut report, "registry.fork_us", "registry.fork", true, "us");
    report.add("registry.entries", entries as f64, "count");
    timing(&mut report, "chase.build_ms", "chase.build", false, "ms");
    timing(&mut report, "chase.assert_us", "chase.assert", false, "us");
    timing(
        &mut report,
        "chase.retract_us",
        "chase.retract",
        false,
        "us",
    );
    report.add(
        "chase.steps_per_assert",
        mean(&counts.assert_steps),
        "count",
    );
    report.add(
        "chase.derived_per_step",
        ratio(counts.derived as f64, counts.steps as f64),
        "ratio",
    );
    timing(
        &mut report,
        "matcher.query_us",
        "matcher.query",
        false,
        "us",
    );
    report.add("matcher.answers_per_query", mean(&counts.answers), "count");
    timing(&mut report, "sms.ground_us", "sms.ground", false, "us");
    let requests = counts.sms_rebuilds + counts.sms_reuses + counts.sms_hits;
    report.add(
        "sms.reuse_ratio",
        ratio(
            (counts.sms_reuses + counts.sms_hits) as f64,
            requests as f64,
        ),
        "ratio",
    );
    report.add("sms.rebuilds", counts.sms_rebuilds as f64, "count");
    report.add("sms.ground_rules", median(&counts.ground_rules), "count");
    timing(&mut report, "sms.search_ms", "sms.search", false, "ms");
    report.add(
        "sms.candidates_per_request",
        ratio(counts.candidates as f64, counts.searches as f64),
        "count",
    );
    report.add(
        "sms.stable_per_candidate",
        ratio(counts.stable as f64, counts.candidates as f64),
        "ratio",
    );
    report
}

/// Each layer's total self time in ms (the split of the mirror's time).
pub fn layer_self_ms(spans: &[Span]) -> Vec<(String, f64)> {
    let own = self_times(spans);
    let mut totals: Vec<(String, f64)> = Vec::new();
    for (span, ns) in spans.iter().zip(own) {
        let layer = span.name.split('.').next().unwrap_or(span.name).to_owned();
        match totals.iter_mut().find(|(name, _)| *name == layer) {
            Some((_, total)) => *total += ns as f64 / 1e6,
            None => totals.push((layer, ns as f64 / 1e6)),
        }
    }
    totals
}

/// The spans as CSV (`request,name,start_ns,end_ns,parent`).
pub fn spans_csv(spans: &[Span]) -> String {
    let mut out = String::from("request,name,start_ns,end_ns,parent\n");
    for span in spans {
        let parent = span.parent.map_or(String::new(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{},{},{},{},{parent}",
            span.request, span.name, span.start_ns, span.end_ns
        );
    }
    out
}
