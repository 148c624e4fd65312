//! The server process and the TCP side of the load generator: connections,
//! the open-loop and closed-loop request loop, and the METRICS, CPU and RSS
//! probes.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::workloads::{Op, Pace};

/// A running `ntgd-serve --listen 127.0.0.1:0`; killed and reaped on drop.
pub struct Server {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Server {
    pub fn spawn(binary: &Path) -> io::Result<Server> {
        let mut command = Command::new(binary);
        command
            .args(["--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        // The server's defaults, whatever the caller's environment says.
        for (key, _) in std::env::vars() {
            if key.starts_with("NTGD_") {
                command.env_remove(key);
            }
        }
        let mut child = command.spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = read.ok().and_then(|_| {
            line.trim()
                .strip_prefix("LISTENING ")
                .and_then(|addr| addr.parse::<SocketAddr>().ok())
        });
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!(
                "ntgd-serve did not announce LISTENING (got {line:?})"
            )));
        };
        Ok(Server {
            child,
            _stdout: stdout,
            addr,
        })
    }

    /// The server's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
        let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kib / 1024.0)
    }

    /// CPU time the server process has used so far (user + system, all
    /// threads), in seconds.  Time the hypervisor steals is not in it.
    pub fn cpu_seconds(&self) -> Option<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id())).ok()?;
        // Fields after the parenthesised command name, from field 3 on;
        // utime and stime are fields 14 and 15, in 1/100 s.
        let fields: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
        let utime: f64 = fields.get(11)?.parse().ok()?;
        let stime: f64 = fields.get(12)?.parse().ok()?;
        Some((utime + stime) / 100.0)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `struct pollfd` of `poll(2)`.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

/// Waits until one of `fds` is ready or `timeout` passes; returns how many
/// are ready.  `ppoll` sleeps on a high-resolution timer; socket read
/// timeouts round up to the kernel tick (milliseconds), which would make the
/// open-loop sender late by up to a tick.
fn poll(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    let timeout = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` is a valid, exclusively borrowed pollfd array of the
    // given length, the timespec is valid, and there is no signal mask.
    let ready = unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as u64,
            &timeout,
            std::ptr::null(),
        )
    };
    match usize::try_from(ready) {
        Ok(ready) => Ok(ready),
        Err(_) => {
            let error = io::Error::last_os_error();
            if error.kind() == io::ErrorKind::Interrupted {
                Ok(0)
            } else {
                Err(error)
            }
        }
    }
}

/// Waits until the socket is ready for `events` or `timeout` passes.
fn wait_for(stream: &TcpStream, events: i16, timeout: Duration) -> io::Result<bool> {
    let mut fd = [PollFd {
        fd: stream.as_raw_fd(),
        events,
        revents: 0,
    }];
    Ok(poll(&mut fd, timeout)? > 0)
}

/// One client connection (non-blocking socket) with its own line buffer.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    write_timeout: Duration,
}

/// A complete response: data lines plus the `OK`/`ERR` terminator (last).
pub type Lines = Vec<String>;

fn is_terminator(line: &str) -> bool {
    line.starts_with("OK") || line.starts_with("ERR")
}

impl Conn {
    /// Connects and reads the `READY` banner.
    pub fn open(addr: SocketAddr, timeout: Duration) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let mut conn = Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
            write_timeout: timeout,
        };
        let deadline = Instant::now() + timeout;
        match conn.next_line(deadline)? {
            Some(line) if line.starts_with("READY") => Ok(conn),
            other => Err(io::Error::other(format!("no READY banner: {other:?}"))),
        }
    }

    /// Writes one request line; fails if the server stops reading for the
    /// write timeout.
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        let mut rest = bytes.as_slice();
        while !rest.is_empty() {
            match self.stream.write(rest) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => rest = &rest[n..],
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if !wait_for(&self.stream, POLLOUT, self.write_timeout)? {
                        return Err(io::ErrorKind::TimedOut.into());
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Pops one buffered line, if complete.
    fn take_line(&mut self) -> Option<String> {
        let end = self.buf.iter().position(|&b| b == b'\n')?;
        let line = String::from_utf8_lossy(&self.buf[..end])
            .trim_end_matches('\r')
            .to_owned();
        self.buf.drain(..=end);
        Some(line)
    }

    /// Reads what has arrived, waiting until `deadline` for the first byte.
    /// `Ok(false)` on timeout; an error on EOF.
    fn fill(&mut self, deadline: Instant) -> io::Result<bool> {
        let wait = deadline.saturating_duration_since(Instant::now());
        if !wait_for(&self.stream, POLLIN, wait)? {
            return Ok(false);
        }
        self.drain()?;
        Ok(true)
    }

    /// Reads everything that has arrived, without waiting; an error on EOF.
    fn drain(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// The next line, or `None` at the deadline.
    fn next_line(&mut self, deadline: Instant) -> io::Result<Option<String>> {
        loop {
            if let Some(line) = self.take_line() {
                return Ok(Some(line));
            }
            if !self.fill(deadline)? && Instant::now() >= deadline {
                return Ok(None);
            }
        }
    }

    /// Reads one whole response, or `None` at the deadline.
    pub fn response(&mut self, deadline: Instant) -> io::Result<Option<Lines>> {
        let mut lines = Vec::new();
        loop {
            match self.next_line(deadline)? {
                None => return Ok(None),
                Some(line) => {
                    let done = is_terminator(&line);
                    lines.push(line);
                    if done {
                        return Ok(Some(lines));
                    }
                }
            }
        }
    }

    /// Sends one request and waits for its response.
    pub fn request(&mut self, line: &str, timeout: Duration) -> io::Result<Option<Lines>> {
        self.send(line)?;
        self.response(Instant::now() + timeout)
    }
}

/// What happened to one sent request.  Times are seconds since the window
/// started.
#[derive(Clone, Debug)]
pub struct Record {
    /// Index into the stream's `ops`.
    pub op: usize,
    /// When the request was due (open loop) or could first be sent
    /// (closed loop: when the previous response arrived).
    pub due: f64,
    pub sent: f64,
    /// When the terminator arrived; `None` on timeout or a dead connection.
    pub done: Option<f64>,
    pub lines: Lines,
}

fn since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// One connection's progress through its stream.
struct Lane<'a> {
    ops: &'a [Op],
    first: usize,
    pace: Pace,
    records: Vec<Record>,
    /// Records answered so far (responses arrive in request order).
    answered: usize,
    /// Lines of the response being read.
    partial: Lines,
    /// Closed loop: when the next request may go out.
    ready: f64,
    /// Stopped sending: stream exhausted, deadline passed or connection dead.
    closed: bool,
    dead: bool,
}

impl Lane<'_> {
    fn due(&self, k: usize) -> f64 {
        match self.pace {
            Pace::Open { rate } => k as f64 / rate,
            _ => self.ready,
        }
    }

    /// When this lane next wants to send, if it still does.
    fn next_send(&self) -> Option<f64> {
        let k = self.records.len();
        if self.closed || self.first + k >= self.ops.len() {
            return None;
        }
        match self.pace {
            Pace::Open { .. } => Some(self.due(k)),
            Pace::Pipelined { depth } => (k - self.answered < depth).then_some(self.ready),
            _ if self.answered < k => None,
            Pace::ClosedPaced { rate } => Some(self.ready.max(k as f64 / rate)),
            Pace::ClosedTimed { .. } => Some(self.ready),
        }
    }

    fn finished(&self) -> bool {
        self.dead || (self.next_send().is_none() && self.answered == self.records.len())
    }
}

/// Drives every connection through its stream from one thread.  Open-loop
/// lanes send request `k` at `k / rate` seconds, pipelined, whether or not
/// earlier ones were answered; closed-loop lanes send when their previous
/// response arrived (plus the think time), pipelined ones whenever fewer
/// than their depth are unanswered.  The phase started at `t0`;
/// `deadline` (seconds since `t0`) stops timed closed loops from sending.
/// A request unanswered `timeout` after it was due kills its connection.
pub fn drive(
    conns: &mut [Conn],
    streams: &[(&[Op], usize, Pace)],
    t0: Instant,
    deadline: f64,
    timeout: Duration,
) -> Vec<Vec<Record>> {
    let timeout_s = timeout.as_secs_f64();
    let mut lanes: Vec<Lane<'_>> = streams
        .iter()
        .map(|&(ops, first, pace)| Lane {
            ops,
            first,
            pace,
            records: Vec::with_capacity(ops.len() - first),
            answered: 0,
            partial: Vec::new(),
            ready: 0.0,
            closed: false,
            dead: false,
        })
        .collect();
    loop {
        let now = since(t0);
        for (lane, conn) in lanes.iter_mut().zip(conns.iter_mut()) {
            if matches!(lane.pace, Pace::ClosedTimed { .. }) && now >= deadline {
                lane.closed = true;
            }
            while let Some(due) = lane.next_send().filter(|due| *due <= now) {
                let k = lane.records.len();
                if conn.send(&lane.ops[lane.first + k].line).is_err() {
                    lane.dead = true;
                    break;
                }
                lane.records.push(Record {
                    op: lane.first + k,
                    due,
                    sent: since(t0),
                    done: None,
                    lines: Vec::new(),
                });
            }
            if lane.answered < lane.records.len()
                && now > lane.records[lane.answered].due + timeout_s
            {
                lane.dead = true;
            }
        }
        if lanes.iter().all(Lane::finished) {
            break;
        }
        let wake = lanes
            .iter()
            .filter(|lane| !lane.dead)
            .filter_map(Lane::next_send)
            .fold(now + 0.05, f64::min);
        let mut fds: Vec<PollFd> = conns
            .iter()
            .map(|conn| PollFd {
                fd: conn.stream.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            })
            .collect();
        let wait = Duration::from_secs_f64((wake - since(t0)).max(0.0));
        if poll(&mut fds, wait).is_err() {
            break;
        }
        for ((lane, conn), fd) in lanes.iter_mut().zip(conns.iter_mut()).zip(&fds) {
            if lane.dead || fd.revents == 0 {
                continue;
            }
            if conn.drain().is_err() {
                lane.dead = true;
            }
            while let Some(line) = conn.take_line() {
                let done = is_terminator(&line);
                lane.partial.push(line);
                if done && lane.answered < lane.records.len() {
                    let at = since(t0);
                    let record = &mut lane.records[lane.answered];
                    record.done = Some(at);
                    record.lines = std::mem::take(&mut lane.partial);
                    lane.answered += 1;
                    if let Pace::ClosedTimed { think_s } = lane.pace {
                        lane.ready = at + think_s;
                    } else {
                        lane.ready = at;
                    }
                }
            }
        }
    }
    lanes
        .into_iter()
        .map(|mut lane| {
            // An open-loop lane whose connection died still owes its whole
            // schedule: the requests never sent count as attempted and
            // failed.
            if let Pace::Open { .. } = lane.pace {
                while lane.first + lane.records.len() < lane.ops.len() {
                    let k = lane.records.len();
                    let due = lane.due(k);
                    lane.records.push(Record {
                        op: lane.first + k,
                        due,
                        sent: due,
                        done: None,
                        lines: Vec::new(),
                    });
                }
            }
            lane.records
        })
        .collect()
}

/// The process-wide counters of the `METRICS` exposition (`name_total`
/// lines), by name without the `ntgd_` prefix and `_total` suffix.
pub fn scrape_counters(conn: &mut Conn, timeout: Duration) -> Vec<(String, f64)> {
    let Ok(Some(lines)) = conn.request("METRICS", timeout) else {
        return Vec::new();
    };
    lines
        .iter()
        .filter_map(|line| {
            let (name, value) = line.split_once(' ')?;
            let name = name.strip_prefix("ntgd_")?.strip_suffix("_total")?;
            Some((name.to_owned(), value.trim().parse::<f64>().ok()?))
        })
        .collect()
}

/// A counter's value in a scrape (absent counters are 0).
pub fn counter(scrape: &[(String, f64)], name: &str) -> f64 {
    scrape
        .iter()
        .find(|(key, _)| key == name)
        .map_or(0.0, |(_, value)| *value)
}
