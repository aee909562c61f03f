//! The TCP load generator: an open loop over two connections (one sender
//! and one receiver thread each, on hand-split sockets) and a closed loop
//! with one outstanding request for the traced run (on
//! `piql_server::Client`). Every response is checked as it arrives.

use crate::stats::{cpu_ticks, StealSlices, STEAL_READ_MS};
use crate::trace;
use crate::workloads::{
    payload_len, Check, Generator, Interaction, SampledRead, Workload, WriteRec,
};
use piql_core::tuple::Tuple;
use piql_server::{decode_page, Client, ClientError, Json, Request};
use std::collections::BTreeMap;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Connections (and sender threads) of the open loop.
pub const CONNECTIONS: usize = 2;

#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub due_ms: f64,
    pub latency_ms: f64,
    pub write: bool,
    /// Whether the host's steal counter advanced while the interaction
    /// was in flight or within one read interval of it (see
    /// [`crate::stats::StealSlices`]).
    pub stolen: bool,
}

/// What one phase of open-loop load observed.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Interactions with an `ok:false` response, a missed deadline, or no
    /// response at all.
    pub failed: u64,
    /// Per attempted interaction: its scheduled send time and the ms from
    /// then to its last response (a failed interaction counts as the
    /// deadline), and whether it writes.
    pub samples: Vec<Sample>,
    /// How late each interaction was written, ms after its schedule.
    pub lateness_ms: Vec<f64>,
    /// Responses that contradict the expected answer.
    pub wrong: Vec<String>,
    /// The first few `ok:false` messages.
    pub errors: Vec<String>,
    pub sampled: Vec<(SampledRead, Vec<Tuple>)>,
    pub acked: Vec<WriteRec>,
    pub acked_payload_bytes: u64,
}

impl Outcome {
    pub fn merge(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.samples.extend(other.samples);
        self.lateness_ms.extend(other.lateness_ms);
        self.wrong.extend(other.wrong);
        self.errors.extend(other.errors);
        self.sampled.extend(other.sampled);
        self.acked.extend(other.acked);
        self.acked_payload_bytes += other.acked_payload_bytes;
    }
}

enum Verdict {
    Ok,
    Failed(String),
    Wrong(String),
}

fn verify(response: &Json, check: &Check, arity: &[usize]) -> Verdict {
    if response.get("ok").and_then(Json::as_bool) != Some(true) {
        let msg = response
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("response without ok");
        return Verdict::Failed(msg.to_string());
    }
    match check {
        Check::Ack => Verdict::Ok,
        Check::Rows { stmt, exact } => {
            let page = match decode_page(response) {
                Ok(page) => page,
                Err(e) => return Verdict::Wrong(format!("undecodable rows: {e}")),
            };
            let want = arity[*stmt as usize];
            if let Some(row) = page.rows.iter().find(|r| r.len() != want) {
                return Verdict::Wrong(format!("row of arity {} where {want} expected", row.len()));
            }
            match exact {
                Some(expected)
                    if page.rows.len() != 1 || page.rows[0].values() != &expected[..] =>
                {
                    Verdict::Wrong(format!(
                        "point read returned {:?}, expected {expected:?}",
                        page.rows
                    ))
                }
                _ => Verdict::Ok,
            }
        }
        Check::Batch(checks) => {
            let Some(results) = response.get("results").and_then(Json::as_arr) else {
                return Verdict::Wrong("batch response without results".into());
            };
            if results.len() != checks.len() {
                return Verdict::Wrong(format!(
                    "batch answered {} of {} sub-requests",
                    results.len(),
                    checks.len()
                ));
            }
            let mut verdict = Verdict::Ok;
            for (r, c) in results.iter().zip(checks) {
                match verify(r, c, arity) {
                    Verdict::Ok => {}
                    wrong @ Verdict::Wrong(_) => return wrong,
                    failed @ Verdict::Failed(_) => verdict = failed,
                }
            }
            verdict
        }
    }
}

/// The response body one request (or batch sub-request) answered with.
fn sub_response(response: &Json, sub: Option<u8>) -> Option<&Json> {
    match sub {
        None => Some(response),
        Some(i) => response.get("results")?.as_arr()?.get(i as usize),
    }
}

fn connect(addr: SocketAddr, w: Workload) -> io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    if w.binary() {
        stream.write_all(&piql_server::binary::MAGIC)?;
        let mut len = [0u8; 4];
        stream.read_exact(&mut len)?;
        let mut hello = vec![0u8; u32::from_le_bytes(len) as usize];
        stream.read_exact(&mut hello)?;
        let version = piql_server::binary::parse_hello(&hello)
            .map_err(|e| io::Error::new(ErrorKind::InvalidData, e.to_string()))?;
        if version != piql_server::binary::VERSION {
            return Err(io::Error::new(
                ErrorKind::InvalidData,
                format!("server speaks binary v{version}"),
            ));
        }
    }
    Ok(stream)
}

/// Incremental frame splitter over a socket read buffer.
struct Frames {
    binary: bool,
    buf: Vec<u8>,
    start: usize,
}

impl Frames {
    fn new(binary: bool) -> Frames {
        Frames {
            binary,
            buf: Vec::with_capacity(1 << 16),
            start: 0,
        }
    }

    /// Read more bytes; `Ok(false)` on a timeout, `Err` on EOF or error.
    fn fill(&mut self, stream: &mut TcpStream) -> io::Result<bool> {
        if self.start > 0 && self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > (1 << 20) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        let len = self.buf.len();
        self.buf.resize(len + (1 << 16), 0);
        match stream.read(&mut self.buf[len..]) {
            Ok(0) => {
                self.buf.truncate(len);
                Err(io::Error::new(ErrorKind::UnexpectedEof, "server closed"))
            }
            Ok(n) => {
                self.buf.truncate(len + n);
                Ok(true)
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                self.buf.truncate(len);
                Ok(false)
            }
            Err(e) => {
                self.buf.truncate(len);
                Err(e)
            }
        }
    }

    /// The next complete frame (transport framing stripped), if any.
    fn next(&mut self) -> Option<std::ops::Range<usize>> {
        let rest = &self.buf[self.start..];
        if self.binary {
            let len = u32::from_le_bytes(rest.get(..4)?.try_into().ok()?) as usize;
            if rest.len() < 4 + len {
                return None;
            }
            let range = self.start + 4..self.start + 4 + len;
            self.start += 4 + len;
            Some(range)
        } else {
            let nl = rest.iter().position(|&b| b == b'\n')?;
            let range = self.start..self.start + nl;
            self.start += nl + 1;
            Some(range)
        }
    }
}

/// An interaction written but not yet fully answered.
struct InFlight {
    it: Interaction,
    remaining: usize,
    failed: bool,
}

/// The interactions of one connection that are in flight, by slot.
type Pending = Mutex<BTreeMap<u64, InFlight>>;

/// Drive one phase of open-loop load: each connection's lane generates
/// Poisson arrivals at `rate / CONNECTIONS` for `seconds` and writes each
/// interaction at its scheduled time, regardless of earlier responses.
/// Interactions are generated as they are due and forgotten once
/// answered, so the generator's memory stays flat. Returns once every
/// interaction is answered or past its deadline.
pub fn run_open(
    addr: SocketAddr,
    w: Workload,
    arity: &[usize],
    lanes: &mut [Generator],
    rate: f64,
    seconds: f64,
    deadline_ms: f64,
) -> io::Result<Outcome> {
    let streams = lanes
        .iter()
        .map(|_| connect(addr, w))
        .collect::<io::Result<Vec<TcpStream>>>()?;
    // a short lead so every sender starts on schedule
    let t0 = Instant::now() + Duration::from_millis(20);
    let end_us = seconds * 1e6;
    let lane_rate = rate / lanes.len() as f64;
    let phase_done = AtomicBool::new(false);
    let (outcomes, steal_reads) = std::thread::scope(|scope| {
        let monitor = scope.spawn(|| {
            let mut reads = vec![(Instant::now(), cpu_ticks().1)];
            while !phase_done.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(STEAL_READ_MS));
                reads.push((Instant::now(), cpu_ticks().1));
            }
            reads
        });
        let handles: Vec<_> = lanes
            .iter_mut()
            .zip(&streams)
            .map(|(gen, stream)| {
                let pending: Arc<Pending> = Arc::new(Mutex::new(BTreeMap::new()));
                let sent_all = Arc::new(AtomicBool::new(false));
                let mut writer = stream.try_clone().expect("clone a connected socket");
                let sender = {
                    let pending = pending.clone();
                    let sent_all = sent_all.clone();
                    scope.spawn(move || -> Vec<f64> {
                        let wire = w.wire();
                        let mut late = Vec::new();
                        let mut bytes = Vec::new();
                        let mut t = 0.0;
                        for slot in 0u64.. {
                            t += gen.gap_us(lane_rate);
                            if t >= end_us {
                                break;
                            }
                            let mut it = gen.interaction(t as u64);
                            bytes.clear();
                            it.encode(wire, slot, &mut bytes);
                            let remaining = it.checks.len();
                            pending.lock().expect("pending lock").insert(
                                slot,
                                InFlight {
                                    it,
                                    remaining,
                                    failed: false,
                                },
                            );
                            let due = t0 + Duration::from_micros(t as u64);
                            let now = Instant::now();
                            if due > now {
                                std::thread::sleep(due - now);
                            }
                            late.push(
                                Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3,
                            );
                            if writer.write_all(&bytes).is_err() {
                                break;
                            }
                        }
                        sent_all.store(true, Ordering::SeqCst);
                        late
                    })
                };
                let mut reader = stream.try_clone().expect("clone a connected socket");
                let receiver = scope.spawn(move || {
                    receive(
                        &mut reader,
                        w,
                        arity,
                        &pending,
                        &sent_all,
                        t0,
                        end_us,
                        deadline_ms,
                    )
                });
                (sender, receiver)
            })
            .collect();
        let outcomes = handles
            .into_iter()
            .map(|(s, r)| {
                let late = s.join().expect("sender thread");
                let mut outcome = r.join().expect("receiver thread");
                outcome.lateness_ms = late;
                outcome
            })
            .collect::<Vec<_>>();
        phase_done.store(true, Ordering::SeqCst);
        (outcomes, monitor.join().expect("steal monitor thread"))
    });
    for stream in &streams {
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }
    let mut total = Outcome::default();
    for o in outcomes {
        total.merge(o);
    }
    // one read interval of margin on each side: the steal behind an
    // advance of the counter may have begun in the slice before, and the
    // backlog it left drains in the slice after
    let slices = StealSlices::new(t0, &steal_reads);
    let margin = STEAL_READ_MS as f64;
    for s in &mut total.samples {
        s.stolen = slices.overlaps(s.due_ms - margin, s.due_ms + s.latency_ms + margin);
    }
    Ok(total)
}

/// Account one finished (answered or expired) interaction.
fn settle(out: &mut Outcome, f: InFlight, done_ms: Option<f64>, deadline_ms: f64) {
    let due_ms = f.it.at_us as f64 / 1e3;
    let latency = done_ms.map(|d| d - due_ms).filter(|l| *l <= deadline_ms);
    let failed = f.failed || latency.is_none();
    let latency = if failed {
        deadline_ms
    } else {
        latency.unwrap_or(deadline_ms)
    };
    out.attempted += 1;
    out.failed += failed as u64;
    out.samples.push(Sample {
        due_ms,
        latency_ms: latency,
        write: f.it.has_write(),
        stolen: false,
    });
}

#[allow(clippy::too_many_arguments)]
fn receive(
    stream: &mut TcpStream,
    w: Workload,
    arity: &[usize],
    pending: &Pending,
    sent_all: &AtomicBool,
    t0: Instant,
    end_us: f64,
    deadline_ms: f64,
) -> Outcome {
    let wire = w.wire();
    let mut out = Outcome::default();
    let give_up = t0 + Duration::from_secs_f64((end_us / 1e3 + deadline_ms) / 1e3);
    stream
        .set_read_timeout(Some(Duration::from_millis(20)))
        .expect("set a read timeout");
    let mut frames = Frames::new(w.binary());
    loop {
        let now = Instant::now();
        let now_ms = now.saturating_duration_since(t0).as_secs_f64() * 1e3;
        {
            // expire interactions past their deadline (slots are in
            // schedule order, so they sit at the front)
            let mut p = pending.lock().expect("pending lock");
            while let Some(entry) = p.first_entry() {
                if entry.get().it.at_us as f64 / 1e3 + deadline_ms >= now_ms {
                    break;
                }
                settle(&mut out, entry.remove(), None, deadline_ms);
            }
            if (p.is_empty() && sent_all.load(Ordering::SeqCst)) || now >= give_up {
                for (_, f) in std::mem::take(&mut *p) {
                    settle(&mut out, f, None, deadline_ms);
                }
                break;
            }
        }
        match frames.fill(stream) {
            Ok(true) => {}
            Ok(false) => continue,
            Err(_) => {
                // the connection is gone: whatever is pending expires
                std::thread::sleep(Duration::from_millis(5));
                continue;
            }
        }
        while let Some(range) = frames.next() {
            let now_ms = Instant::now().saturating_duration_since(t0).as_secs_f64() * 1e3;
            let (id, response) = match wire.decode_response(&frames.buf[range]) {
                Ok((Some(piql_server::RequestId::Int(id)), response)) => (id as u64, response),
                Ok(_) => {
                    out.wrong.push("response without an integer id".into());
                    continue;
                }
                Err(e) => {
                    out.wrong.push(format!("undecodable response: {e}"));
                    continue;
                }
            };
            let (slot, pos) = (id >> 4, (id & 15) as usize);
            let mut p = pending.lock().expect("pending lock");
            let Some(f) = p.get_mut(&slot) else {
                // answered after its deadline expired it, or never sent
                continue;
            };
            let Some(check) = f.it.checks.get(pos) else {
                out.wrong.push(format!("response for unknown id {id}"));
                continue;
            };
            match verify(&response, check, arity) {
                Verdict::Ok => {}
                Verdict::Failed(msg) => {
                    f.failed = true;
                    if out.errors.len() < 5 {
                        out.errors.push(msg);
                    }
                }
                Verdict::Wrong(msg) => out.wrong.push(format!("{}: {msg}", w.name())),
            }
            for s in f.it.samples.iter().filter(|s| s.req as usize == pos) {
                if let Some(page) = sub_response(&response, s.sub).and_then(|r| decode_page(r).ok())
                {
                    out.sampled.push((s.clone(), page.rows));
                }
            }
            for write in f.it.writes.iter().filter(|wr| wr.req as usize == pos) {
                let acked = sub_response(&response, write.sub)
                    .and_then(|r| r.get("ok"))
                    .and_then(Json::as_bool)
                    == Some(true);
                if acked {
                    out.acked_payload_bytes += write.row.iter().map(payload_len).sum::<u64>();
                    out.acked.push(write.clone());
                }
            }
            f.remaining -= 1;
            if f.remaining == 0 {
                if let Some(f) = p.remove(&slot) {
                    settle(&mut out, f, Some(now_ms), deadline_ms);
                }
            }
        }
    }
    out
}

/// Connect a `piql_server::Client` speaking the workload's codec, with a
/// 10 s read timeout.
fn client(addr: SocketAddr, w: Workload) -> io::Result<Client> {
    let client = if w.binary() {
        Client::connect_binary(addr)?
    } else {
        Client::connect(addr)?
    };
    client
        .raw_stream()?
        .set_read_timeout(Some(Duration::from_secs(10)))?;
    Ok(client)
}

fn io_error(e: ClientError) -> io::Error {
    match e {
        ClientError::Io(e) => e,
        other => io::Error::new(ErrorKind::InvalidData, other.to_string()),
    }
}

/// Round-trip times, µs, of `n` empty batches sent one at a time over
/// one connection: the transport of a request (client codec, sockets,
/// connection threads, dispatch hand-off) with next to no handling.
pub fn empty_round_trips(addr: SocketAddr, w: Workload, n: usize) -> io::Result<Vec<f64>> {
    let mut client = client(addr, w)?;
    let empty = Request::Batch {
        requests: Vec::new(),
    };
    (0..n)
        .map(|_| {
            let start = Instant::now();
            let response = client.request(&empty).map_err(io_error)?;
            let us = start.elapsed().as_secs_f64() * 1e6;
            match response.get("results").and_then(Json::as_arr) {
                Some([]) => Ok(us),
                _ => Err(io::Error::new(
                    ErrorKind::InvalidData,
                    "an empty batch was not answered with empty results",
                )),
            }
        })
        .collect()
}

/// Closed loop over one connection with one outstanding request, through
/// `piql_server::Client`: each request is written only after the previous
/// one was answered, so every store and WAL span recorded meanwhile
/// belongs to it. Interaction `i` of `interactions` takes slot
/// `first_slot + i` in the span request ids. Returns the client-observed
/// time of each request (encode, round trip and decode), µs, and the
/// outcome.
pub fn run_closed(
    addr: SocketAddr,
    w: Workload,
    arity: &[usize],
    interactions: &[Interaction],
    first_slot: usize,
) -> io::Result<(Vec<f64>, Outcome)> {
    let mut client = client(addr, w)?;
    let mut times = Vec::new();
    let mut out = Outcome::default();
    let tracer = trace::tracer();
    for (i, it) in interactions.iter().enumerate() {
        let mut failed = false;
        for (pos, request) in it.requests.iter().enumerate() {
            let req_id = (((first_slot + i) << 4) | pos) as u64;
            tracer.set_request(req_id);
            let start = tracer.now_ns();
            let response = client.request_raw(request).map_err(io_error)?;
            let end = tracer.now_ns();
            tracer.record("request", start, end, req_id, 0);
            times.push((end - start) as f64 / 1e3);
            match verify(&response, &it.checks[pos], arity) {
                Verdict::Ok => {}
                Verdict::Failed(msg) => {
                    failed = true;
                    out.errors.push(msg);
                }
                Verdict::Wrong(msg) => out.wrong.push(msg),
            }
        }
        out.attempted += 1;
        out.failed += failed as u64;
    }
    Ok((times, out))
}
