//! The socket front end: newline-framed requests over a TCP or Unix
//! socket, a bounded ingress queue with explicit shedding, an
//! epoch-invalidated response cache, and a drain-on-shutdown path.
//!
//! The wire protocol is specified in the [crate docs](crate). The serve
//! loop is single-threaded and non-blocking: each tick accepts new
//! connections, reads complete request lines, answers `LOOKUP`/`STATS`
//! immediately (through the response cache), and batches `SESSION`
//! admissions through the decision tier **at most once per simulated
//! second** — the engine's native granularity. Within a second the
//! bounded [`IngressQueue`] absorbs arrivals; when it is full, further
//! sessions are shed with an explicit `OVERLOADED` reply. Nothing ever
//! blocks on the decision tier and nothing is silently dropped.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use cablevod_hfc::ids::{ProgramId, UserId};
use cablevod_hfc::units::{SimDuration, SimTime};
use cablevod_sim::engine::online::{OnlineEngine, OnlinePlacement};
use cablevod_sim::SimError;
use cablevod_trace::record::SessionRecord;

use crate::cache::ResponseCache;
use crate::clock::ClockSource;
use crate::hist::LatencyHistogram;

/// The longest request line a connection may leave pending, in bytes
/// (the longest well-formed request is under 100). A client that sends
/// more without a `\n` gets `ERR line too long` and is disconnected, so a
/// hostile client cannot grow server memory without bound.
pub const MAX_LINE: usize = 4096;

/// Admission verdict from the ingress queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admit {
    /// The session was queued; it will reach the decision tier at the
    /// next batch.
    Queued,
    /// The queue was full; the session was shed (and counted).
    Shed,
}

/// The bounded admission queue between the socket and the decision
/// tier. Overflow is shed explicitly — the caller gets [`Admit::Shed`]
/// back immediately and the shed counter feeds the final report.
#[derive(Debug)]
pub struct IngressQueue {
    cap: usize,
    queue: VecDeque<(u64, SessionRecord)>,
    shed: u64,
}

impl IngressQueue {
    /// A queue admitting at most `cap` pending sessions.
    #[must_use]
    pub fn new(cap: usize) -> Self {
        IngressQueue {
            cap: cap.max(1),
            queue: VecDeque::new(),
            shed: 0,
        }
    }

    /// Offers one session (tagged with a reply ticket); sheds when full.
    pub fn offer(&mut self, ticket: u64, rec: SessionRecord) -> Admit {
        if self.queue.len() >= self.cap {
            self.shed += 1;
            Admit::Shed
        } else {
            self.queue.push_back((ticket, rec));
            Admit::Queued
        }
    }

    /// Pops the oldest pending session.
    pub fn pop(&mut self) -> Option<(u64, SessionRecord)> {
        self.queue.pop_front()
    }

    /// Pending sessions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether nothing is pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Sessions shed so far.
    #[must_use]
    pub fn shed(&self) -> u64 {
        self.shed
    }
}

/// Tunables for [`Server::run`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Ingress queue capacity (sessions pending decision).
    pub queue_cap: usize,
    /// Begin draining once this many sessions have been admitted
    /// (`None` = run until signalled).
    pub max_sessions: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_cap: 1024,
            max_sessions: None,
        }
    }
}

/// Final service counters, flushed as the `"serve"` half of the shutdown
/// JSON line.
#[derive(Debug)]
pub struct ServeStats {
    /// Sessions admitted through the decision tier.
    pub admitted: u64,
    /// Sessions shed at the ingress queue.
    pub shed: u64,
    /// `LOOKUP` requests served.
    pub lookups: u64,
    /// Lookups answered by the response cache at the current epoch.
    pub cache_hits: u64,
    /// Lookups that found only a stale-epoch entry (subset of misses).
    pub cache_stale: u64,
    /// The placement epoch at shutdown.
    pub epoch: u64,
    /// Decision latency (submit + advance per session batch).
    pub decision: LatencyHistogram,
    /// Lookup latency (cache hit or decision-tier read).
    pub lookup: LatencyHistogram,
}

impl ServeStats {
    /// The counters as one JSON object (the `"serve"` value of the final
    /// output line and the `STATS` reply payload).
    #[must_use]
    pub fn json(&self) -> String {
        format!(
            "{{\"admitted\":{},\"shed\":{},\"lookups\":{},\"cache_hits\":{},\
             \"cache_stale\":{},\"epoch\":{},\
             \"decision_p50_ns\":{},\"decision_p99_ns\":{},\"decision_p999_ns\":{},\
             \"lookup_p50_ns\":{},\"lookup_p99_ns\":{},\"lookup_p999_ns\":{}}}",
            self.admitted,
            self.shed,
            self.lookups,
            self.cache_hits,
            self.cache_stale,
            self.epoch,
            self.decision.p50_ns(),
            self.decision.p99_ns(),
            self.decision.p999_ns(),
            self.lookup.p50_ns(),
            self.lookup.p99_ns(),
            self.lookup.p999_ns(),
        )
    }
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// A reply owed to a connection, in request order.
enum Reply {
    /// Computed synchronously; ready to flush.
    Ready(String),
    /// A queued `SESSION` awaiting its decision-tier verdict; resolved
    /// by ticket when the batch is submitted.
    Await(u64),
}

struct Conn {
    stream: Stream,
    inbuf: Vec<u8>,
    pending: VecDeque<Reply>,
    out: Vec<u8>,
    closed: bool,
}

impl Conn {
    fn new(stream: Stream) -> Self {
        Conn {
            stream,
            inbuf: Vec::new(),
            pending: VecDeque::new(),
            out: Vec::new(),
            closed: false,
        }
    }
}

/// The socket server: accepts connections, frames requests, and runs the
/// serve loop against an online engine (see module docs).
pub struct Server {
    listener: Listener,
    conns: Vec<Conn>,
}

impl Server {
    /// Binds a Unix-domain listener at `path`.
    ///
    /// # Errors
    ///
    /// Propagates bind failures (existing socket file, permissions).
    pub fn unix(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        Ok(Server {
            listener: Listener::Unix(listener),
            conns: Vec::new(),
        })
    }

    /// Binds a TCP listener at `addr` (e.g. `127.0.0.1:7070`).
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn tcp(addr: &str) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(Server {
            listener: Listener::Tcp(listener),
            conns: Vec::new(),
        })
    }

    /// Runs the serve loop until `term` is raised (SIGTERM/SIGINT in the
    /// bin) or `config.max_sessions` is reached, then drains: stops
    /// accepting work, pushes every queued session through the decision
    /// tier, answers every owed reply, and returns the final counters.
    ///
    /// # Errors
    ///
    /// Propagates decision-tier failures that indicate a broken engine
    /// (per-request errors — unknown users, capacity exhaustion — are
    /// answered on the wire as `ERR`/`OVERLOADED` instead).
    pub fn run(
        mut self,
        engine: &mut dyn OnlineEngine,
        clock: &mut dyn ClockSource,
        term: &AtomicBool,
        config: &ServerConfig,
    ) -> Result<ServeStats, SimError> {
        let mut queue = IngressQueue::new(config.queue_cap);
        let mut cache: ResponseCache<(u32, u32), OnlinePlacement> = ResponseCache::new();
        let mut decision = LatencyHistogram::new();
        let mut lookup_hist = LatencyHistogram::new();
        let mut lookups: u64 = 0;
        let mut admitted: u64 = 0;
        let mut next_ticket: u64 = 0;
        let mut resolved: HashMap<u64, String> = HashMap::new();
        // Arrival stamps are monotone and strictly after the last
        // advanced horizon (the decision tier's ordering contract).
        let mut next_stamp = SimTime::from_secs(0);
        let mut last_horizon: Option<SimTime> = None;
        let mut draining = false;

        loop {
            let mut worked = false;
            if !draining {
                worked |= self.accept();
                if term.load(Ordering::SeqCst) || config.max_sessions.is_some_and(|m| admitted >= m)
                {
                    draining = true;
                }
            }

            // Read and answer what can be answered synchronously.
            for conn in &mut self.conns {
                worked |= read_conn(conn);
                let lines = take_lines(&mut conn.inbuf);
                for line in lines.iter().flat_map(|l| l.split(|&b| b == b'\n')) {
                    worked = true;
                    let line = String::from_utf8_lossy(line);
                    let reply = handle_line(
                        line.trim_end_matches('\r'),
                        draining,
                        engine,
                        clock,
                        &mut queue,
                        &mut cache,
                        &mut lookup_hist,
                        &mut lookups,
                        &mut next_ticket,
                        &mut next_stamp,
                        last_horizon,
                    );
                    conn.pending.push_back(reply);
                }
                if conn.inbuf.len() > MAX_LINE {
                    conn.pending
                        .push_back(Reply::Ready("ERR line too long".into()));
                    conn.inbuf = Vec::new();
                    conn.closed = true;
                    worked = true;
                }
            }

            // Batch admissions through the decision tier at most once
            // per simulated second (always while draining).
            let now = clock.now();
            let due = last_horizon.is_none_or(|h| now > h);
            if (due || draining) && !queue.is_empty() {
                let horizon = next_stamp.max(now);
                let t0 = Instant::now();
                let mut batch: u64 = 0;
                while let Some((ticket, rec)) = queue.pop() {
                    match engine.submit(rec) {
                        Ok(gidx) => {
                            admitted += 1;
                            batch += 1;
                            resolved.insert(ticket, format!("ADMITTED {gidx}"));
                        }
                        Err(SimError::Config { reason }) => {
                            resolved.insert(ticket, format!("ERR {reason}"));
                        }
                        Err(other) => return Err(other),
                    }
                }
                if engine.advance_to(horizon)? {
                    cache.advance_epoch(engine.epoch());
                }
                last_horizon = Some(horizon);
                if batch > 0 {
                    let per_session = u64::try_from(t0.elapsed().as_nanos() / u128::from(batch))
                        .unwrap_or(u64::MAX);
                    for _ in 0..batch {
                        decision.record(per_session);
                    }
                }
                worked = true;
            } else if due && !draining {
                // An empty second still moves the engine's horizon along
                // so timed faults and expiries fire on schedule.
                if engine.advance_to(now)? {
                    cache.advance_epoch(engine.epoch());
                }
                last_horizon = Some(now);
            }

            worked |= self.flush(&mut resolved);
            self.conns
                .retain(|c| !(c.closed && c.pending.is_empty() && c.out.is_empty()));

            if draining && queue.is_empty() && self.conns.iter().all(|c| c.pending.is_empty()) {
                break;
            }
            if !worked {
                std::thread::sleep(Duration::from_millis(1));
            }
        }

        Ok(ServeStats {
            admitted,
            shed: queue.shed(),
            lookups,
            cache_hits: cache.hits(),
            cache_stale: cache.stale(),
            epoch: engine.epoch(),
            decision,
            lookup: lookup_hist,
        })
    }

    fn accept(&mut self) -> bool {
        let mut accepted = false;
        loop {
            let stream = match &self.listener {
                Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
                Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
            };
            match stream {
                Ok(stream) => {
                    let ok = match &stream {
                        Stream::Unix(s) => s.set_nonblocking(true).is_ok(),
                        Stream::Tcp(s) => s.set_nonblocking(true).is_ok(),
                    };
                    if ok {
                        self.conns.push(Conn::new(stream));
                        accepted = true;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
        accepted
    }

    /// Flushes owed replies in request order, stopping at the first
    /// still-unresolved ticket, then drains each connection's write
    /// buffer as far as the socket allows.
    fn flush(&mut self, resolved: &mut HashMap<u64, String>) -> bool {
        let mut worked = false;
        for conn in &mut self.conns {
            loop {
                match conn.pending.front() {
                    Some(Reply::Ready(_)) => {
                        if let Some(Reply::Ready(text)) = conn.pending.pop_front() {
                            conn.out.extend_from_slice(text.as_bytes());
                            conn.out.push(b'\n');
                        }
                    }
                    Some(Reply::Await(ticket)) => match resolved.remove(ticket) {
                        Some(text) => {
                            conn.pending.pop_front();
                            conn.out.extend_from_slice(text.as_bytes());
                            conn.out.push(b'\n');
                        }
                        None => break,
                    },
                    None => break,
                }
            }
            while !conn.out.is_empty() {
                match conn.stream.write(&conn.out) {
                    Ok(0) => {
                        conn.closed = true;
                        conn.out.clear();
                    }
                    Ok(n) => {
                        conn.out.drain(..n);
                        worked = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => {
                        conn.closed = true;
                        conn.out.clear();
                    }
                }
            }
        }
        worked
    }
}

fn read_conn(conn: &mut Conn) -> bool {
    if conn.closed {
        return false;
    }
    let mut any = false;
    let mut tmp = [0u8; 4096];
    loop {
        match conn.stream.read(&mut tmp) {
            Ok(0) => {
                conn.closed = true;
                break;
            }
            Ok(n) => {
                conn.inbuf.extend_from_slice(&tmp[..n]);
                any = true;
                // Stop once the unterminated tail outgrows a line: the
                // serve loop answers `ERR` and closes instead of
                // buffering more.
                let tail = conn.inbuf.iter().rev().take_while(|&&b| b != b'\n');
                if tail.count() > MAX_LINE {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => {
                conn.closed = true;
                break;
            }
        }
    }
    any
}

/// Splits every complete line off the front of `buf` at once and returns
/// them without their final `\n` (`None` when no line is complete); the
/// unterminated tail stays in `buf`. One split per read keeps pipelined
/// bursts linear — draining line by line would shift the tail once per
/// line.
fn take_lines(buf: &mut Vec<u8>) -> Option<Vec<u8>> {
    let last = buf.iter().rposition(|&b| b == b'\n')?;
    let tail = buf.split_off(last + 1);
    let mut lines = std::mem::replace(buf, tail);
    lines.pop();
    Some(lines)
}

#[allow(clippy::too_many_arguments)]
fn handle_line(
    line: &str,
    draining: bool,
    engine: &mut dyn OnlineEngine,
    clock: &mut dyn ClockSource,
    queue: &mut IngressQueue,
    cache: &mut ResponseCache<(u32, u32), OnlinePlacement>,
    lookup_hist: &mut LatencyHistogram,
    lookups: &mut u64,
    next_ticket: &mut u64,
    next_stamp: &mut SimTime,
    last_horizon: Option<SimTime>,
) -> Reply {
    let mut parts = line.split_whitespace();
    match parts.next() {
        Some("SESSION") => {
            if draining {
                return Reply::Ready("ERR draining".into());
            }
            let (Some(user), Some(program), Some(duration)) = (
                parse_u32(parts.next()),
                parse_u32(parts.next()),
                parse_u64(parts.next()),
            ) else {
                return Reply::Ready(
                    "ERR usage: SESSION <user> <program> <duration_secs> [<offset_secs>]".into(),
                );
            };
            let offset = parse_u64(parts.next()).unwrap_or(0);
            // Stamp strictly after the last advanced horizon, never
            // regressing (the decision tier's ordering contract).
            let floor = last_horizon.map_or(0, |h| h.as_secs() + 1);
            let stamp = SimTime::from_secs(clock.now().as_secs().max(floor)).max(*next_stamp);
            *next_stamp = stamp;
            let mut rec = SessionRecord::new(
                UserId::new(user),
                ProgramId::new(program),
                stamp,
                SimDuration::from_secs(duration),
            );
            rec.offset = SimDuration::from_secs(offset);
            let ticket = *next_ticket;
            *next_ticket += 1;
            match queue.offer(ticket, rec) {
                Admit::Queued => Reply::Await(ticket),
                Admit::Shed => Reply::Ready("OVERLOADED".into()),
            }
        }
        Some("LOOKUP") => {
            let (Some(nbhd), Some(program)) = (parse_u32(parts.next()), parse_u32(parts.next()))
            else {
                return Reply::Ready("ERR usage: LOOKUP <nbhd> <program>".into());
            };
            let t0 = Instant::now();
            *lookups += 1;
            let placement = match cache.get(&(nbhd, program)) {
                Some(hit) => hit,
                None => match engine.lookup(nbhd, ProgramId::new(program)) {
                    Ok(fresh) => {
                        cache.insert((nbhd, program), fresh);
                        fresh
                    }
                    Err(SimError::Config { reason }) => {
                        return Reply::Ready(format!("ERR {reason}"));
                    }
                    Err(_) => return Reply::Ready("ERR lookup failed".into()),
                },
            };
            let reply = match placement.location {
                Some(peer) => format!("PLACED {} {}", cache.epoch(), peer.value()),
                None => format!("ABSENT {}", cache.epoch()),
            };
            lookup_hist.record(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
            Reply::Ready(reply)
        }
        Some("STATS") => Reply::Ready(format!(
            "STATS {{\"admitted\":{},\"queued\":{},\"shed\":{},\"lookups\":{},\
             \"cache_hits\":{},\"epoch\":{}}}",
            engine.submitted(),
            queue.len(),
            queue.shed(),
            *lookups,
            cache.hits(),
            engine.epoch(),
        )),
        Some(other) => Reply::Ready(format!("ERR unknown request {other}")),
        None => Reply::Ready("ERR empty request".into()),
    }
}

fn parse_u32(token: Option<&str>) -> Option<u32> {
    token.and_then(|t| t.parse().ok())
}

fn parse_u64(token: Option<&str>) -> Option<u64> {
    token.and_then(|t| t.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::take_lines;

    #[test]
    fn take_lines_splits_complete_lines_and_keeps_the_tail() {
        let mut buf = b"STATS\r\n\nLOOKUP 0 1\nSESS".to_vec();
        let lines = take_lines(&mut buf).expect("complete lines");
        let split: Vec<&[u8]> = lines.split(|&b| b == b'\n').collect();
        assert_eq!(split, [&b"STATS\r"[..], b"", b"LOOKUP 0 1"]);
        assert_eq!(buf, b"SESS");
        assert!(take_lines(&mut buf).is_none());
        assert_eq!(buf, b"SESS");
    }
}
