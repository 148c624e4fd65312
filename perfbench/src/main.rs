//! `perfbench`: the serving benchmark for `ntgd-serve`.
//!
//! ```text
//! perfbench --server <ntgd-serve binary> --workload <interactive|models_mix|load_churn>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run starts the release server as its own process, sets up its
//! connections (several times, reporting the median set-up time), drives the
//! workload's seed-generated request streams over TCP for `--seconds`, sends
//! the post-window probes and stops the server.  Then it measures capacity
//! in rounds of fixed, pipelined work on fresh servers, and checks every
//! response against an in-process reference.  With `--trace 1` it then replays the
//! same streams in process, through a traced mirror of the session's calls
//! beside a real `Session::execute`, for the per-layer split.
//!
//! Every metric is printed as a `metric <name> = <value> <unit> (n=…)` line;
//! the last line is one JSON object with `correct`, `attempted`, `failed` and
//! the metrics `BENCHMARK.json` names for the trace mode.  The report and the
//! spans are also written under `.bench_out/`.

mod net;
mod reference;
mod replay;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use net::{counter, drive, scrape_counters, Conn, Record, Server};
use stats::{median, percentile, ratio, Report};
use workloads::{Kind, Pace, Workload, LIMIT_MS};

/// The end-to-end metrics of the JSON line with `--trace 0`: those every
/// workload reports and that are steady from run to run on a shared 2-core
/// machine.  The latency percentiles are printed above it but vary by 15-30%
/// of their median between runs there, so latency enters the gate through
/// `goodput_ratio`, whose limit sits near each stream's p99 on a busy
/// machine (see [`LIMIT_MS`]).
/// `capacity_ops_s` is printed too: its ten-run spread was 6-12% of the
/// median while other tenants were quiet and 22-34% while they were busy,
/// beyond the largest bound allowed.  `throughput_ops_s` is printed, but the
/// open-loop schedule sets it.
const END_TO_END: [&str; 3] = ["setup_s", "goodput_ratio", "server_peak_rss_mb"];

/// The per-layer metrics every workload reports (`--trace 1`).
const PER_LAYER: [&str; 40] = [
    "transport.overhead_p50_us",
    "transport.overhead_p99_us",
    "driver.ping_rtt_p50_us",
    "transport.poll_cycles_per_req",
    "transport.exec_batches_per_req",
    "transport.backlog_rounds",
    "pool.items_per_batch",
    "protocol.parse_us",
    "parser.query_us",
    "parser.facts_us",
    "parser.load_us",
    "classes.classify_us",
    "registry.hit_ratio",
    "registry.build_ms",
    "registry.freeze_ms",
    "registry.fork_us",
    "registry.entries",
    "chase.build_ms",
    "chase.assert_us",
    "chase.retract_us",
    "chase.steps_per_assert",
    "chase.derived_per_step",
    "matcher.query_us",
    "matcher.answers_per_query",
    "sms.ground_us",
    "sms.reuse_ratio",
    "sms.rebuilds",
    "sms.ground_rules",
    "sms.search_ms",
    "sms.candidates_per_request",
    "sms.stable_per_candidate",
    "session.load_us",
    "session.assert_us",
    "session.query_us",
    "session.models_us",
    "session.retract_us",
    "session.coverage_ratio",
    "session.trace_overhead_ratio",
    "driver.send_lag_p99_ms",
    "replay.mirror_mismatches",
];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// PING round trips for the network floor.
const PINGS: usize = 200;
/// Requests each connection keeps in flight in the capacity phase.
const CAPACITY_DEPTH: usize = 64;
/// How long [`spin_up`] keeps the CPUs busy.
const SPIN_UP: Duration = Duration::from_secs(2);
/// Latency limits at which each stream's goodput is also logged.
const GOODPUT_LADDER_MS: [f64; 6] = [1.0, 2.0, 5.0, 10.0, 20.0, 50.0];
/// How long the oversized LOAD may take before it counts as hung.
const OVERSIZED_TIMEOUT: Duration = Duration::from_secs(2);

struct Args {
    server: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut server = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--server" => server = Some(PathBuf::from(value)),
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs a number")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--seconds needs a positive number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".to_owned()),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        server: server.ok_or("--server is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One capacity round: a fresh server's warm-up, then the records of its
/// connections' pipelined closed loops.
struct Round {
    warmup: Vec<Vec<Record>>,
    records: Vec<Vec<Record>>,
}

/// What the TCP run produced.
struct Run {
    setups_s: Vec<f64>,
    ping_us: Vec<f64>,
    /// Per connection: warm-up, window and probe records, in send order.
    warmup: Vec<Vec<Record>>,
    window: Vec<Vec<Record>>,
    probes: Vec<Vec<Record>>,
    /// The capacity phase.
    rounds: Vec<Round>,
    counters_before: Vec<(String, f64)>,
    counters_after: Vec<(String, f64)>,
    peak_rss_mb: f64,
    /// Server CPU time during the window.
    server_cpu_s: f64,
    /// `Some(latency in s)` when the oversized LOAD was answered.
    oversized: Option<Option<(f64, String)>>,
}

/// A server ready for the window.
struct SetUp {
    server: Server,
    conns: Vec<Conn>,
    /// Per connection, the answered warm-up requests.
    warmup: Vec<Vec<Record>>,
    seconds: f64,
}

/// Spawns the server, opens a connection per stream of requests and answers
/// the first `warmup` of each.
fn set_up(
    args: &Args,
    streams: &[&[workloads::Op]],
    warmup: usize,
    timeout: Duration,
) -> Result<SetUp, String> {
    let started = Instant::now();
    let server = Server::spawn(&args.server).map_err(|e| format!("spawn: {e}"))?;
    let mut conns = Vec::new();
    let mut answered = Vec::new();
    for ops in streams {
        let mut conn = Conn::open(server.addr, timeout).map_err(|e| format!("connect: {e}"))?;
        let mut records = Vec::new();
        for (index, op) in ops[..warmup].iter().enumerate() {
            let sent = started.elapsed().as_secs_f64();
            let lines = conn
                .request(&op.line, timeout)
                .map_err(|e| format!("warm-up: {e}"))?
                .ok_or("warm-up request timed out")?;
            let done = started.elapsed().as_secs_f64();
            records.push(Record {
                op: index,
                due: sent,
                sent,
                done: Some(done),
                lines,
            });
        }
        conns.push(conn);
        answered.push(records);
    }
    Ok(SetUp {
        server,
        conns,
        warmup: answered,
        seconds: started.elapsed().as_secs_f64(),
    })
}

/// Keeps every CPU busy for [`SPIN_UP`].  After a mostly idle spell a
/// virtual machine's CPUs run at half speed for a second or two once loaded
/// (the first capacity rounds of a run took up to twice as long as the
/// later ones); set-ups and capacity rounds are measured after this.
fn spin_up() {
    let spin = || {
        let until = Instant::now() + SPIN_UP;
        let mut x = 0u64;
        while Instant::now() < until {
            for i in 0..1_000u64 {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
            }
        }
        std::hint::black_box(x);
    };
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    // This thread spins too, so the load generator never runs more threads
    // than there are CPUs.
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(spin);
        }
        spin();
    });
}

/// The TCP part of a run: set-ups, the window, the probes, then the capacity
/// rounds.
fn tcp_run(args: &Args, workload: &Workload) -> Result<Run, String> {
    let timeout = Duration::from_secs_f64(workload.timeout_ms / 1e3);
    let leading = workload.warmup;
    let streams: Vec<&[workloads::Op]> =
        workload.streams.iter().map(|s| s.ops.as_slice()).collect();
    let mut setups_s = Vec::new();
    let mut last = None;
    spin_up();
    for _ in 0..SETUPS {
        // Dropping the previous set-up stops its server.
        let ready = set_up(args, &streams, leading, timeout)?;
        setups_s.push(ready.seconds);
        last = Some(ready);
    }
    let SetUp {
        server,
        mut conns,
        warmup,
        ..
    } = last.expect("at least one set-up");

    let mut ping_us = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let started = Instant::now();
        conns[0]
            .request("PING", timeout)
            .map_err(|e| format!("ping: {e}"))?
            .ok_or("ping timed out")?;
        ping_us.push(started.elapsed().as_secs_f64() * 1e6);
    }
    let counters_before = scrape_counters(&mut conns[0], timeout);

    let lanes: Vec<_> = workload
        .streams
        .iter()
        .map(|stream| (stream.ops.as_slice(), leading, stream.pace))
        .collect();
    let cpu_before = server.cpu_seconds().unwrap_or(0.0);
    let t0 = Instant::now();
    let window = drive(&mut conns, &lanes, t0, args.seconds, timeout);
    let server_cpu_s = server.cpu_seconds().unwrap_or(0.0) - cpu_before;

    let counters_after = scrape_counters(&mut conns[0], timeout);
    let peak_rss_mb = server.peak_rss_mb().unwrap_or(0.0);

    // Probes go after the window: one of them hangs a poller on the seed.
    let probes = workload
        .streams
        .iter()
        .zip(conns.iter_mut())
        .map(|(stream, conn)| {
            stream
                .probes
                .iter()
                .enumerate()
                .map(|(index, op)| {
                    let sent = t0.elapsed().as_secs_f64();
                    let lines = conn.request(&op.line, timeout).ok().flatten();
                    Record {
                        op: index,
                        due: sent,
                        sent,
                        done: lines.as_ref().map(|_| t0.elapsed().as_secs_f64()),
                        lines: lines.unwrap_or_default(),
                    }
                })
                .collect()
        })
        .collect();
    let oversized = workload.oversized_load.as_ref().map(|line| {
        let started = Instant::now();
        let mut conn = Conn::open(server.addr, timeout).ok()?;
        let lines = conn.request(line, OVERSIZED_TIMEOUT).ok().flatten()?;
        Some((
            started.elapsed().as_secs_f64(),
            lines.last().cloned().unwrap_or_default(),
        ))
    });
    drop(conns);
    drop(server);

    // The capacity phase: rounds of fixed work on fresh servers, so neither
    // one process's thread placement nor one draw of requests decides the
    // figure.  In each round every connection sends the round's requests
    // closed-loop with a fixed number in flight.  The rounds' set-ups are
    // set-up samples too.
    spin_up();
    let mut rounds = Vec::with_capacity(workload.capacity.len());
    for round in &workload.capacity {
        let pace = Pace::Pipelined {
            depth: CAPACITY_DEPTH,
        };
        let lanes: Vec<_> = round
            .iter()
            .map(|ops| (ops.as_slice(), leading, pace))
            .collect();
        let streams: Vec<&[workloads::Op]> = round.iter().map(Vec::as_slice).collect();
        let mut ready = set_up(args, &streams, leading, timeout)?;
        setups_s.push(ready.seconds);
        let records = drive(
            &mut ready.conns,
            &lanes,
            Instant::now(),
            f64::INFINITY,
            timeout,
        );
        rounds.push(Round {
            warmup: ready.warmup,
            records,
        });
    }
    Ok(Run {
        setups_s,
        ping_us,
        warmup,
        window,
        probes,
        rounds,
        counters_before,
        counters_after,
        peak_rss_mb,
        server_cpu_s,
        oversized,
    })
}

/// A verdict per record of one phase: `Ok` or the reason it failed.
type Phase = Vec<Result<(), String>>;

/// The reference verdict of every record, per connection.
struct Verdicts {
    warmup: Vec<Phase>,
    window: Vec<Phase>,
    probes: Vec<Phase>,
    /// Per connection, per capacity round: warm-up and pipelined records.
    rounds: Vec<Vec<[Phase; 2]>>,
    computed: usize,
    /// Checking time per request kind (indexed by `Kind as usize`).
    seconds: [f64; Kind::ALL.len()],
}

/// Checks every connection's responses, one thread per connection (after
/// the run, so the checking never competes with the measurement).
fn check(workload: &Workload, run: &Run) -> Verdicts {
    let mut verdicts = Verdicts {
        warmup: Vec::new(),
        window: Vec::new(),
        probes: Vec::new(),
        rounds: Vec::new(),
        computed: 0,
        seconds: [0.0; Kind::ALL.len()],
    };
    let per_stream = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workload.streams.len())
            .map(|index| scope.spawn(move || check_stream(workload, run, index)))
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("reference thread"))
            .collect::<Vec<_>>()
    });
    for checked in per_stream {
        let [warmup, window, probes] = checked.window;
        verdicts.warmup.push(warmup);
        verdicts.window.push(window);
        verdicts.probes.push(probes);
        verdicts.rounds.push(checked.rounds);
        verdicts.computed += checked.computed;
        for (total, part) in verdicts.seconds.iter_mut().zip(checked.seconds) {
            *total += part;
        }
    }
    verdicts
}

/// One connection's verdicts: on the window's server (warm-up, window,
/// probes) and in each capacity round.
struct StreamVerdicts {
    window: [Phase; 3],
    rounds: Vec<[Phase; 2]>,
    computed: usize,
    seconds: [f64; Kind::ALL.len()],
}

fn check_stream(workload: &Workload, run: &Run, index: usize) -> StreamVerdicts {
    let stream = &workload.streams[index];
    let mut seconds = [0.0; Kind::ALL.len()];
    let mut computed = 0;
    // Each server's session is checked against a reference session of its
    // own, phase after phase.
    let mut session = |phases: [(&[Record], &[workloads::Op]); 3]| -> [Phase; 3] {
        let mut checker = reference::Checker::default();
        let verdicts = phases.map(|(records, ops)| {
            records
                .iter()
                .map(|record| {
                    let op = &ops[record.op];
                    let started = Instant::now();
                    let lines = record.done.map(|_| record.lines.as_slice());
                    let verdict = checker.check(&op.line, lines);
                    seconds[op.kind as usize] += started.elapsed().as_secs_f64();
                    verdict
                })
                .collect()
        });
        computed += checker.computed;
        verdicts
    };
    let window = session([
        (&run.warmup[index], &stream.ops),
        (&run.window[index], &stream.ops),
        (&run.probes[index], &stream.probes),
    ]);
    let rounds = run
        .rounds
        .iter()
        .zip(&workload.capacity)
        .map(|(round, ops)| {
            let ops = &ops[index];
            let [warmup, records, _] = session([
                (&round.warmup[index], ops),
                (&round.records[index], ops),
                (&[], &[]),
            ]);
            [warmup, records]
        })
        .collect();
    StreamVerdicts {
        window,
        rounds,
        computed,
        seconds,
    }
}

/// Whether a record's response was an answer (not a timeout or an `ERR`).
fn answered(record: &Record) -> bool {
    record.done.is_some() && record.lines.last().is_some_and(|l| l.starts_with("OK"))
}

#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    wrong: usize,
}

impl Tally {
    /// Counts one measured request; true when it was answered correctly.
    fn count(
        &mut self,
        record: &Record,
        verdict: &Result<(), String>,
        line: &str,
        log: &mut Vec<String>,
    ) -> bool {
        self.attempted += 1;
        let ok = answered(record) && verdict.is_ok();
        if answered(record) && verdict.is_err() {
            self.wrong += 1;
        }
        if !ok {
            self.failed += 1;
            if let Err(reason) = verdict {
                if log.len() < 40 {
                    log.push(format!("failed {line}: {reason}"));
                }
            }
        }
        ok
    }
}

/// The window metrics of one round.
fn window_report(
    workload: &Workload,
    run: &Run,
    verdicts: &Verdicts,
    log: &mut Vec<String>,
) -> (Report, Tally) {
    let timeout_ms = workload.timeout_ms;
    // (kind, send time, latency, answered correctly within the limit)
    let mut latencies: Vec<(Kind, f64, f64, bool)> = Vec::new();
    let mut tally = Tally::default();
    let mut correct = 0usize;
    let mut window_s: f64 = 0.0;
    for (index, stream) in workload.streams.iter().enumerate() {
        let mut stream_ms = Vec::new();
        for (record, verdict) in run.window[index].iter().zip(&verdicts.window[index]) {
            let op = &stream.ops[record.op];
            let ok = tally.count(record, verdict, &op.line, log);
            window_s = window_s.max(record.done.unwrap_or(record.sent));
            let latency_ms = match (ok, stream.pace) {
                (false, _) => timeout_ms,
                (true, Pace::Open { .. }) => (record.done.unwrap_or(0.0) - record.due) * 1e3,
                (true, _) => (record.done.unwrap_or(0.0) - record.sent) * 1e3,
            };
            correct += usize::from(ok);
            let good = ok && latency_ms <= LIMIT_MS;
            latencies.push((op.kind, record.sent, latency_ms, good));
            stream_ms.push(latency_ms);
        }
        let at = |q| percentile(&stream_ms, q).unwrap_or(0.0);
        log.push(format!(
            "latency {}: p50 {:.3} p90 {:.3} p99 {:.3} ms (goodput limit {} ms)",
            stream.name,
            at(50.0),
            at(90.0),
            at(99.0),
            LIMIT_MS
        ));
        // What goodput would read at other limits, to choose the limit by.
        let shares: Vec<String> = GOODPUT_LADDER_MS
            .iter()
            .map(|limit| {
                let within = stream_ms.iter().filter(|ms| **ms <= *limit).count();
                format!(
                    "{limit} ms {:.4}",
                    ratio(within as f64, stream_ms.len() as f64)
                )
            })
            .collect();
        log.push(format!("goodput-at {}: {}", stream.name, shares.join(", ")));
    }
    for verdict in verdicts.warmup.iter().flatten() {
        if let Err(reason) = verdict {
            tally.wrong += 1;
            log.push(format!("warm-up failed: {reason}"));
        }
    }
    let mut report = Report::default();
    report.add("throughput_ops_s", ratio(correct as f64, window_s), "1/s");
    let goodness: Vec<(f64, f64)> = latencies
        .iter()
        .map(|(_, at, _, good)| (*at, f64::from(u8::from(*good))))
        .collect();
    let good_share = |values: &[f64]| Some(stats::mean(values));
    report.add(
        "goodput_ratio",
        stats::sliced(&goodness, window_s, 50.0, good_share),
        "ratio",
    );
    let slices = stats::per_slice(&goodness, window_s, good_share);
    let shown: Vec<String> = slices.iter().map(|share| format!("{share:.4}")).collect();
    log.push(format!("slices goodput_ratio: {}", shown.join(" ")));
    report.add("server_peak_rss_mb", run.peak_rss_mb, "MiB");
    report.add(
        "server_cpu_us_per_req",
        ratio(run.server_cpu_s * 1e6, tally.attempted as f64),
        "us",
    );
    for kind in Kind::ALL {
        let samples: Vec<(f64, f64)> = latencies
            .iter()
            .filter(|(k, ..)| *k == kind)
            .map(|(_, at, ms, _)| (*at, *ms))
            .collect();
        report.add_latency(kind.label(), &samples, window_s, kind.tails());
        let slices = stats::per_slice(&samples, window_s, |v| stats::percentile(v, 50.0));
        if !slices.is_empty() {
            let shown: Vec<String> = slices.iter().map(|ms| format!("{ms:.3}")).collect();
            log.push(format!(
                "slices {}_p50_ms: {}",
                kind.label(),
                shown.join(" ")
            ));
        }
    }
    (report, tally)
}

/// `capacity_ops_s`: requests answered correctly per second of the capacity
/// rounds (each from its first request to its last answer).  Counts the
/// rounds' requests into the tally.
fn capacity_report(
    workload: &Workload,
    run: &Run,
    verdicts: &Verdicts,
    tally: &mut Tally,
    report: &mut Report,
    log: &mut Vec<String>,
) {
    let mut rates = Vec::with_capacity(run.rounds.len());
    let (mut correct, mut seconds) = (0usize, 0.0);
    for (number, (round, requests)) in run.rounds.iter().zip(&workload.capacity).enumerate() {
        let (mut round_correct, mut round_s) = (0usize, 0.0f64);
        for (index, ops) in requests.iter().enumerate() {
            let [warmup, records] = &verdicts.rounds[index][number];
            for reason in warmup.iter().filter_map(|verdict| verdict.as_ref().err()) {
                tally.wrong += 1;
                log.push(format!("capacity warm-up failed: {reason}"));
            }
            for (record, verdict) in round.records[index].iter().zip(records) {
                let ok = tally.count(record, verdict, &ops[record.op].line, log);
                round_correct += usize::from(ok);
                round_s = round_s.max(record.done.unwrap_or(record.sent));
            }
        }
        rates.push(ratio(round_correct as f64, round_s));
        correct += round_correct;
        seconds += round_s;
    }
    let shown: Vec<String> = rates.iter().map(|rate| format!("{rate:.0}")).collect();
    log.push(format!("rounds capacity_ops_s: {}", shown.join(" ")));
    report.add("capacity_ops_s", ratio(correct as f64, seconds), "1/s");
}

/// Logs the post-window probes; returns (attempted, failed).
fn probe_outcomes(
    workload: &Workload,
    run: &Run,
    verdicts: &Verdicts,
    log: &mut Vec<String>,
) -> (usize, usize) {
    let (mut attempted, mut failed) = (0, 0);
    for (index, stream) in workload.streams.iter().enumerate() {
        for (record, verdict) in run.probes[index].iter().zip(&verdicts.probes[index]) {
            attempted += 1;
            let ok = answered(record) && verdict.is_ok();
            failed += usize::from(!ok);
            let outcome = match verdict {
                Ok(()) if ok => "correct".to_owned(),
                Ok(()) => "no answer".to_owned(),
                Err(reason) => reason.clone(),
            };
            log.push(format!(
                "probe {} [{}]: {outcome}",
                stream.probes[record.op]
                    .line
                    .chars()
                    .take(60)
                    .collect::<String>(),
                stream.name
            ));
        }
    }
    if let Some(outcome) = &run.oversized {
        // An oversized LOAD fails either way: ERR, or no answer at all.
        attempted += 1;
        failed += 1;
        match outcome {
            Some((seconds, terminator)) => log.push(format!(
                "probe oversized LOAD: answered {terminator:?} after {:.1} ms",
                seconds * 1e3
            )),
            None => log.push(format!(
                "probe oversized LOAD: no answer within {} s (counted failed)",
                OVERSIZED_TIMEOUT.as_secs()
            )),
        }
    }
    (attempted, failed)
}

/// The end-to-end metrics of the run.
fn end_to_end(
    workload: &Workload,
    run: &Run,
    verdicts: &Verdicts,
    report: &mut Report,
    log: &mut Vec<String>,
) -> Tally {
    report.add_timing("setup_s", median(&run.setups_s), "s", run.setups_s.len());
    let shown: Vec<String> = run
        .setups_s
        .iter()
        .map(|s| format!("{:.2}", s * 1e3))
        .collect();
    log.push(format!("setups setup_ms: {}", shown.join(" ")));
    let (window, mut tally) = window_report(workload, run, verdicts, log);
    report.metrics.extend(window.metrics);
    report.add(
        "window_failed_ratio",
        ratio(tally.failed as f64, tally.attempted as f64),
        "ratio",
    );
    capacity_report(workload, run, verdicts, &mut tally, report, log);
    // failed_ratio also counts the post-window probes.
    let (probe_attempted, probe_failed) = probe_outcomes(workload, run, verdicts, log);
    report.add(
        "failed_ratio",
        ratio(
            (tally.failed + probe_failed) as f64,
            (tally.attempted + probe_attempted) as f64,
        ),
        "ratio",
    );
    report.add("probe_failed", probe_failed as f64, "count");
    tally
}

fn per_layer(workload: &Workload, run: &Run, report: &mut Report, log: &mut Vec<String>) -> String {
    let connections: Vec<Vec<replay::Request<'_>>> = workload
        .streams
        .iter()
        .enumerate()
        .map(|(index, stream)| {
            let warm = run.warmup[index].iter().map(|r| (r, None));
            let window = run.window[index].iter().map(|r| {
                let rtt = r.done.map(|done| (done - r.sent) * 1e6);
                (r, rtt.filter(|_| answered(r)))
            });
            warm.chain(window)
                .map(|(record, rtt)| replay::Request {
                    kind: stream.ops[record.op].kind,
                    line: &stream.ops[record.op].line,
                    client_rtt_us: rtt,
                })
                .collect()
        })
        .collect();
    let outcome = replay::run(&connections);
    report.metrics.extend(outcome.report.metrics);
    report.add(
        "replay.mirror_mismatches",
        outcome.mismatches as f64,
        "count",
    );
    if let Some(mismatch) = outcome.first_mismatch {
        log.push(format!("mirror mismatch: {mismatch}"));
    }
    for (layer, ms) in replay::layer_self_ms(&outcome.spans) {
        log.push(format!("layer {layer} self_ms={ms:.3}"));
    }

    report.add_timing(
        "driver.ping_rtt_p50_us",
        median(&run.ping_us),
        "us",
        run.ping_us.len(),
    );
    let requests: usize = run.window.iter().map(Vec::len).sum();
    let delta =
        |name: &str| counter(&run.counters_after, name) - counter(&run.counters_before, name);
    report.add(
        "transport.poll_cycles_per_req",
        ratio(delta("server_poll_cycles"), requests as f64),
        "count",
    );
    report.add(
        "transport.exec_batches_per_req",
        ratio(delta("server_exec_batches"), requests as f64),
        "count",
    );
    report.add(
        "transport.backlog_rounds",
        delta("server_backlog_rounds"),
        "count",
    );
    report.add(
        "pool.items_per_batch",
        ratio(delta("pool_batch_items"), delta("pool_batches")),
        "count",
    );
    let lags: Vec<f64> = run
        .window
        .iter()
        .flatten()
        .map(|r| (r.sent - r.due) * 1e3)
        .collect();
    report.add_timing(
        "driver.send_lag_p99_ms",
        percentile(&lags, 99.0).unwrap_or(0.0),
        "ms",
        lags.len(),
    );
    replay::spans_csv(&outcome.spans)
}

fn run(args: &Args) -> Result<String, String> {
    let workload = workloads::build(&args.workload, args.seed, args.seconds).ok_or_else(|| {
        format!(
            "unknown workload {} (expected one of {:?})",
            args.workload,
            workloads::WORKLOADS
        )
    })?;
    let mut log = vec![format!(
        "workload {} seed={} seconds={} trace={}",
        workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    )];
    log.extend(workload.record.iter().map(|line| format!("record {line}")));
    for stream in &workload.streams {
        let sizes = stream.ops.iter().map(|op| op.line.len() + 1);
        log.push(format!(
            "record {}: {} requests generated, {}-{} bytes each",
            stream.name,
            stream.ops.len(),
            sizes.clone().min().unwrap_or(0),
            sizes.max().unwrap_or(0)
        ));
    }
    if let Some(round) = workload.capacity.first() {
        let sizes: Vec<String> = round
            .iter()
            .map(|ops| (ops.len() - workload.warmup).to_string())
            .collect();
        log.push(format!(
            "record capacity: {} rounds, each on a fresh server after the warm-up, {} requests per connection, {CAPACITY_DEPTH} in flight",
            workload.capacity.len(),
            sizes.join("/")
        ));
    }
    let tcp = tcp_run(args, &workload)?;
    let checked = Instant::now();
    // The reference runs one thread per connection, each with the engine's
    // parallel rounds inline; the replay below uses the default thread
    // count, as the server does.
    ntgd_core::parallel::set_thread_override(Some(1));
    let verdicts = check(&workload, &tcp);
    ntgd_core::parallel::set_thread_override(None);
    let split: Vec<String> = Kind::ALL
        .iter()
        .map(|kind| format!("{}={:.2}s", kind.label(), verdicts.seconds[*kind as usize]))
        .collect();
    log.push(format!(
        "reference: {} computations in {:.2} s ({})",
        verdicts.computed,
        checked.elapsed().as_secs_f64(),
        split.join(" ")
    ));
    let mut report = Report::default();
    let tally = end_to_end(&workload, &tcp, &verdicts, &mut report, &mut log);
    let spans = args
        .trace
        .then(|| per_layer(&workload, &tcp, &mut report, &mut log));

    let out_dir = PathBuf::from(".bench_out");
    let stem = format!(
        "{}-seed{}-trace{}",
        workload.name,
        args.seed,
        u8::from(args.trace)
    );
    let mut text = log.clone();
    text.extend(report.lines());
    let written = std::fs::create_dir_all(&out_dir).and_then(|()| {
        std::fs::write(out_dir.join(format!("{stem}.log")), text.join("\n") + "\n")?;
        if let Some(spans) = &spans {
            std::fs::write(out_dir.join(format!("{stem}-spans.csv")), spans)?;
        }
        Ok(())
    });
    if let Err(error) = written {
        eprintln!("perfbench: cannot write {}: {error}", out_dir.display());
    }
    for line in text {
        println!("{line}");
    }
    let names: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    stats::result_json(
        tally.wrong == 0,
        tally.attempted,
        tally.failed,
        &report,
        names,
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` must agree.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let names = |section: &str| -> Vec<String> {
            let start = text.find(&format!("\"{section}\"")).expect("section");
            let end = text[start..].find(']').expect("list end") + start;
            text[start..end]
                .split("\"name\"")
                .skip(1)
                .map(|chunk| chunk.split('"').nth(1).expect("name").to_owned())
                .collect()
        };
        assert_eq!(names("end_to_end"), END_TO_END);
        assert_eq!(names("per_layer"), PER_LAYER);
        let workloads = names("workloads");
        assert_eq!(workloads, workloads::WORKLOADS);
    }
}
