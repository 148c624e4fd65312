//! The reference checker: replays each connection's requests against a
//! from-scratch model of the session and checks every response the server
//! gave, outside the timed window.
//!
//! * `QUERY` answers are certain answers under the paper's stable-model
//!   semantics.  On negation-free programs they equal the chase answers, so
//!   they come from a from-scratch restricted chase (`restricted_chase`, a
//!   different code path from the server's incremental Skolem chase).
//!   Programs with `not` can have very many stable models (2^64 colourings),
//!   so their answers come from cautious reasoning: the candidates are the
//!   answers in one stable model, and each candidate must be cautiously
//!   entailed (`SmsEngine::entails_cautious`, a counter-model search).
//! * Capped `MODELS` must return `min(max, total)` models: `max` distinct
//!   models each accepted by `is_stable_model`, or, when fewer, exactly the
//!   models of a from-scratch `SmsEngine` (the listing claims to be
//!   complete, so it must be).
//! * `LOAD`, `ASSERT` and `RETRACT-TO` must succeed with the rule, fact, mark
//!   and added-fact counts a session over the same history reports.
//!
//! A mismatch fails that request; the check continues with the reference
//! state, so one wrong answer never hides later ones.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::Arc;

use ntgd_chase::{restricted_chase, ChaseConfig};
use ntgd_core::{Atom, Database, DisjunctiveProgram, Interpretation, Program, Query, Term};
use ntgd_parser::{parse_database, parse_query, parse_unit};
use ntgd_server::{parse_command, Command};
use ntgd_sms::{SmsAnswer, SmsEngine, SmsOptions};

/// A parsed `LOAD` payload.
struct RefProgram {
    id: u64,
    disjunctive: Arc<DisjunctiveProgram>,
    normal: Option<Program>,
    rules: usize,
    initial: Vec<Atom>,
    negation: bool,
}

/// The live state of one connection's session.
struct Sim {
    program: Arc<RefProgram>,
    facts: Vec<Atom>,
    fact_set: HashSet<Atom>,
    /// `marks[k]` = live facts after mark `k`.
    marks: Vec<usize>,
}

impl Sim {
    fn key(&self) -> u64 {
        let mut hasher = DefaultHasher::new();
        self.program.id.hash(&mut hasher);
        self.facts.hash(&mut hasher);
        hasher.finish()
    }

    fn database(&self) -> Database {
        Database::from_facts(self.facts.iter().cloned()).expect("asserted facts are ground")
    }
}

/// Checks every response of one connection, in order; caches parsed
/// programs and the answers of states seen before (a repeated `LOAD` resets
/// to one).
#[derive(Default)]
pub struct Checker {
    /// The connection's session state, from its last `LOAD`.
    sim: Option<Sim>,
    programs: HashMap<String, Arc<RefProgram>>,
    answers: HashMap<(u64, String), Result<Vec<String>, String>>,
    /// The restricted chase of the last negation-free state queried.
    chased: Option<(u64, Result<Interpretation, String>)>,
    /// Reference computations performed (cache misses).
    pub computed: usize,
}

fn terminator(lines: &[String]) -> &str {
    lines.last().map(String::as_str).unwrap_or("")
}

fn ok_fields(lines: &[String], fields: &[String]) -> Result<(), String> {
    let last = terminator(lines);
    let tokens: Vec<&str> = last.split_whitespace().collect();
    if tokens.first() != Some(&"OK") {
        return Err(format!("expected OK, got {last:?}"));
    }
    match fields
        .iter()
        .find(|field| !tokens.contains(&field.as_str()))
    {
        Some(field) => Err(format!("expected {field} in {last:?}")),
        None => Ok(()),
    }
}

fn render_tuple(tuple: &[Term]) -> String {
    let terms: Vec<String> = tuple.iter().map(Term::to_string).collect();
    format!("ANSWER {}", terms.join(", "))
}

fn render_answers(query: &Query, answers: &BTreeSet<Vec<Term>>) -> Vec<String> {
    if query.is_boolean() {
        return vec![format!("ANSWER {}", !answers.is_empty())];
    }
    let mut lines: Vec<String> = answers.iter().map(|tuple| render_tuple(tuple)).collect();
    lines.sort();
    lines
}

/// `?(X, Y) :- body.` with the answer variables replaced by `tuple`, as a
/// Boolean query text.
fn instantiate(query_text: &str, variables: &[String], tuple: &[Term]) -> String {
    let body = query_text
        .split_once(":-")
        .map_or(query_text, |(_, body)| body);
    let mut out = String::from("?-");
    let mut token = String::new();
    let flush = |token: &mut String, out: &mut String| {
        match variables.iter().position(|v| v == token) {
            Some(index) => out.push_str(&tuple[index].to_string()),
            None => out.push_str(token),
        }
        token.clear();
    };
    for ch in body.chars() {
        if ch.is_alphanumeric() || ch == '_' {
            token.push(ch);
        } else {
            flush(&mut token, &mut out);
            out.push(ch);
        }
    }
    flush(&mut token, &mut out);
    out
}

/// Parses a rendered model, `MODEL {p(a, _n3), q(b)}`.
fn parse_model(line: &str) -> Option<Interpretation> {
    let inner = line.strip_prefix("MODEL {")?.strip_suffix('}')?.trim();
    // Split at the commas outside parentheses.
    let mut pieces = Vec::new();
    let (mut depth, mut start) = (0usize, 0usize);
    for (index, ch) in inner.char_indices() {
        match ch {
            '(' => depth += 1,
            ')' => depth = depth.checked_sub(1)?,
            ',' if depth == 0 => {
                pieces.push(&inner[start..index]);
                start = index + 1;
            }
            _ => {}
        }
    }
    pieces.push(&inner[start..]);
    let mut atoms = Vec::new();
    for atom in pieces.into_iter().map(str::trim).filter(|p| !p.is_empty()) {
        let (predicate, args) = match atom.split_once('(') {
            Some((predicate, args)) => (predicate, args.strip_suffix(')')?),
            None => (atom, ""),
        };
        let terms = args
            .split(',')
            .map(str::trim)
            .filter(|arg| !arg.is_empty())
            .map(|arg| match arg.strip_prefix("_n") {
                Some(id) if id.chars().all(|c| c.is_ascii_digit()) => {
                    Term::null(id.parse().expect("digits"))
                }
                _ => Term::constant(arg),
            })
            .collect();
        atoms.push(Atom::from_parts(predicate, terms));
    }
    Some(Interpretation::from_atoms(atoms))
}

impl Checker {
    fn program(&mut self, text: &str) -> Result<Arc<RefProgram>, String> {
        if let Some(program) = self.programs.get(text) {
            return Ok(Arc::clone(program));
        }
        let unit = parse_unit(text).map_err(|e| e.to_string())?;
        let disjunctive = unit.disjunctive_program().map_err(|e| e.to_string())?;
        let normal = unit.program();
        let negation = disjunctive
            .rules()
            .iter()
            .any(|rule| !rule.body_negative().is_empty());
        let mut initial = Vec::new();
        let mut seen = HashSet::new();
        for fact in unit.database.facts() {
            if seen.insert(fact.clone()) {
                initial.push(fact.clone());
            }
        }
        let program = Arc::new(RefProgram {
            id: self.programs.len() as u64,
            rules: disjunctive.len(),
            disjunctive: Arc::new(disjunctive),
            normal,
            initial,
            negation,
        });
        self.programs.insert(text.to_owned(), Arc::clone(&program));
        Ok(program)
    }

    /// The expected data lines of `request` (`QUERY …`) over `sim`.
    fn query_lines(&mut self, sim: &Sim, text: &str) -> Result<Vec<String>, String> {
        let key = (sim.key(), text.to_owned());
        if let Some(cached) = self.answers.get(&key) {
            return cached.clone();
        }
        self.computed += 1;
        let result = if sim.program.negation {
            Self::cautious_query(sim, text)
        } else {
            self.chase_query(sim, text)
        };
        self.answers.insert(key, result.clone());
        result
    }

    /// Certain answers of a negation-free program: the answers over a
    /// from-scratch restricted chase (the chase of the last state queried is
    /// kept, since queries often follow each other without an update).
    fn chase_query(&mut self, sim: &Sim, text: &str) -> Result<Vec<String>, String> {
        let query = parse_query(text).map_err(|e| e.to_string())?;
        let key = sim.key();
        if self
            .chased
            .as_ref()
            .is_none_or(|(cached, _)| *cached != key)
        {
            let normal = sim
                .program
                .normal
                .as_ref()
                .ok_or("QUERY on a disjunctive program")?;
            let chased = restricted_chase(&sim.database(), normal, &ChaseConfig::unbounded());
            let instance = if chased.terminated() {
                Ok(chased.instance)
            } else {
                Err("reference chase did not terminate".to_owned())
            };
            self.chased = Some((key, instance));
        }
        let (_, instance) = self.chased.as_ref().expect("chased above");
        let instance = instance.as_ref().map_err(Clone::clone)?;
        Ok(render_answers(&query, &query.answers(instance)))
    }

    /// Certain answers of a program with negation by cautious reasoning.
    fn cautious_query(sim: &Sim, text: &str) -> Result<Vec<String>, String> {
        let query = parse_query(text).map_err(|e| e.to_string())?;
        let database = sim.database();
        let engine = SmsEngine::new_shared(Arc::clone(&sim.program.disjunctive));
        let entailed = |boolean: &Query| -> Result<bool, String> {
            match engine.entails_cautious(&database, boolean) {
                Ok(SmsAnswer::Entailed) => Ok(true),
                Ok(SmsAnswer::NotEntailed) => Ok(false),
                Ok(SmsAnswer::Inconsistent) => Err("no stable model".to_owned()),
                Err(e) => Err(e.to_string()),
            }
        };
        if query.is_boolean() {
            return Ok(vec![format!("ANSWER {}", entailed(&query)?)]);
        }
        let one = engine
            .clone()
            .with_options(SmsOptions {
                max_models: 1,
                ..SmsOptions::default()
            })
            .stable_models(&database)
            .map_err(|e| e.to_string())?;
        let model = one.first().ok_or("no stable model")?;
        let variables: Vec<String> = query
            .answer_variables()
            .iter()
            .map(|v| v.to_string())
            .collect();
        let mut lines = Vec::new();
        for tuple in query.answers(model) {
            let boolean =
                parse_query(&instantiate(text, &variables, &tuple)).map_err(|e| e.to_string())?;
            if entailed(&boolean)? {
                lines.push(render_tuple(&tuple));
            }
        }
        lines.sort();
        Ok(lines)
    }

    /// Checks a `MODELS sms max=k` response over `sim`.
    /// Checks a `MODELS sms max=k` response over `sim`.  `max` distinct
    /// models that each pass `is_stable_model` prove `total >= max`, so only
    /// a shorter (complete) listing needs the from-scratch enumeration.
    fn check_models(&mut self, sim: &Sim, max: usize, lines: &[String]) -> Result<(), String> {
        if !terminator(lines).starts_with("OK") {
            return Err(format!("expected OK, got {:?}", terminator(lines)));
        }
        let data = &lines[..lines.len() - 1];
        if data.len() > max {
            return Err(format!("{} models above the cap {max}", data.len()));
        }
        if data.len() == max {
            let distinct: HashSet<&String> = data.iter().collect();
            if distinct.len() != data.len() {
                return Err("duplicate models".to_owned());
            }
            let engine = SmsEngine::new_shared(Arc::clone(&sim.program.disjunctive));
            let database = sim.database();
            self.computed += 1;
            for line in data {
                let model = parse_model(line).ok_or_else(|| format!("unparsable {line:?}"))?;
                if !engine.is_stable_model(&database, &model) {
                    return Err(format!("not a stable model: {line}"));
                }
            }
            return Ok(());
        }
        let key = (sim.key(), format!("MODELS {max}"));
        let expected = match self.answers.get(&key) {
            Some(cached) => cached.clone(),
            None => {
                self.computed += 1;
                let engine = SmsEngine::new_shared(Arc::clone(&sim.program.disjunctive))
                    .with_options(SmsOptions {
                        max_models: max,
                        ..SmsOptions::default()
                    });
                let result = engine
                    .stable_models(&sim.database())
                    .map(|models| {
                        let mut rendered: Vec<String> =
                            models.iter().map(|m| format!("MODEL {m}")).collect();
                        rendered.sort();
                        rendered
                    })
                    .map_err(|e| e.to_string());
                self.answers.insert(key, result.clone());
                result
            }
        }?;
        if data == expected.as_slice() {
            Ok(())
        } else {
            Err(format!(
                "models differ from the from-scratch engine ({} vs {} models)",
                data.len(),
                expected.len()
            ))
        }
    }
}

impl Checker {
    /// Checks the response to the connection's next request; `None` means
    /// the server never answered (the request fails without a check, but the
    /// reference state still advances).
    pub fn check(&mut self, request: &str, lines: Option<&[String]>) -> Result<(), String> {
        let command = parse_command(request)?;
        let lines = lines.unwrap_or(&[]);
        let verdict = self.step(&command, lines);
        if lines.is_empty() {
            return Err("no response".to_owned());
        }
        verdict
    }

    fn step(&mut self, command: &Command, lines: &[String]) -> Result<(), String> {
        match command {
            Command::Load(text) => {
                let program = self.program(text)?;
                let facts = program.initial.clone();
                let expected = [
                    format!("rules={}", program.rules),
                    format!("facts={}", facts.len()),
                    "mark=0".to_owned(),
                ];
                self.sim = Some(Sim {
                    fact_set: facts.iter().cloned().collect(),
                    marks: vec![facts.len()],
                    facts,
                    program,
                });
                ok_fields(lines, &expected)
            }
            Command::Assert(text) => {
                let sim = self.sim.as_mut().ok_or("ASSERT before LOAD")?;
                let database = parse_database(text).map_err(|e| e.to_string())?;
                let mut added = 0;
                for fact in database.facts() {
                    if sim.fact_set.insert(fact.clone()) {
                        sim.facts.push(fact.clone());
                        added += 1;
                    }
                }
                sim.marks.push(sim.facts.len());
                let expected = [
                    format!("mark={}", sim.marks.len() - 1),
                    format!("added={added}"),
                ];
                ok_fields(lines, &expected)
            }
            Command::RetractTo(mark) => {
                let sim = self.sim.as_mut().ok_or("RETRACT-TO before LOAD")?;
                let Some(&keep) = sim.marks.get(*mark) else {
                    return if terminator(lines).starts_with("ERR") {
                        Ok(())
                    } else {
                        Err(format!("mark {mark} is out of range, expected ERR"))
                    };
                };
                for fact in sim.facts.drain(keep..) {
                    sim.fact_set.remove(&fact);
                }
                sim.marks.truncate(mark + 1);
                ok_fields(lines, &[format!("mark={mark}")])
            }
            Command::Query(text) => {
                let sim = self.sim.take().ok_or("QUERY before LOAD")?;
                let expected = self.query_lines(&sim, text);
                self.sim = Some(sim);
                let expected = expected?;
                if !terminator(lines).starts_with("OK") {
                    return Err(format!("expected OK, got {:?}", terminator(lines)));
                }
                let data = &lines[..lines.len() - 1];
                if data == expected.as_slice() {
                    Ok(())
                } else {
                    Err(format!(
                        "QUERY {text}: server {data:?}, reference {expected:?}"
                    ))
                }
            }
            Command::Models { max, .. } => {
                let max = max.ok_or("MODELS without a cap")?;
                let sim = self.sim.take().ok_or("MODELS before LOAD")?;
                let verdict = self.check_models(&sim, max, lines);
                self.sim = Some(sim);
                verdict
            }
            other => Err(format!("unexpected request {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instantiates_answer_variables_by_token() {
        let tuple = vec![Term::constant("n7")];
        assert_eq!(
            instantiate(
                "?(Y) :- edge(n5, Y), colored(Y).",
                &["Y".to_owned()],
                &tuple
            ),
            "?- edge(n5, n7), colored(n7)."
        );
    }

    #[test]
    fn parses_rendered_models_back() {
        let model = Interpretation::from_atoms([
            Atom::from_parts("edge", vec![Term::constant("n1"), Term::constant("n2")]),
            Atom::from_parts("red", vec![Term::constant("n1")]),
            Atom::from_parts("t", vec![Term::null(4)]),
        ]);
        let parsed = parse_model(&format!("MODEL {model}")).unwrap();
        assert_eq!(parsed.sorted_atoms(), model.sorted_atoms());
    }

    #[test]
    fn negation_queries_use_cautious_reasoning() {
        let mut checker = Checker::default();
        let load = "LOAD p(a). p(X), not q(X) -> r(X). p(X), not r(X) -> q(X).";
        checker
            .check(
                load,
                Some(&["OK rules=2 facts=1 atoms=3 mark=0".to_owned()]),
            )
            .unwrap();
        // The positive relaxation says r(a) holds; one stable model lacks it.
        let wrong = ["ANSWER true".to_owned(), "OK answers=1".to_owned()];
        assert!(checker.check("QUERY ?- r(a).", Some(&wrong)).is_err());
        let right = ["ANSWER false".to_owned(), "OK answers=1".to_owned()];
        checker.check("QUERY ?- r(a).", Some(&right)).unwrap();
    }
}
