//! Spans recorded from the benchmark's own files: a forwarding `KvStore`
//! and a forwarding `WalSink` that time every call into the store and the
//! log, plus helpers to time calls into the other layers' entry points.
//! Spans stay in memory and are written out when the run ends.

use piql_kv::{
    KvResponse, KvStore, LiveCluster, NsBalance, NsId, OpSample, RequestRound, Session, WalSink,
};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The request (or replayed call) the span belongs to.
    pub req: u64,
    /// Requests in a store round; 0 elsewhere.
    pub n: u32,
}

pub struct Tracer {
    on: AtomicBool,
    epoch: Instant,
    req: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

pub fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(|| Tracer {
        on: AtomicBool::new(false),
        epoch: Instant::now(),
        req: AtomicU64::new(0),
        spans: Mutex::new(Vec::new()),
    })
}

impl Tracer {
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// The request later spans belong to (one outstanding request at a
    /// time makes this exact).
    pub fn set_request(&self, req: u64) {
        self.req.store(req, Ordering::SeqCst);
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn record(&self, name: &'static str, start_ns: u64, end_ns: u64, req: u64, n: u32) {
        if !self.is_on() {
            return;
        }
        self.spans
            .lock()
            .expect("span buffer lock: a recording thread panicked")
            .push(Span {
                name,
                start_ns,
                end_ns,
                req,
                n,
            });
    }

    /// Time `f` as a span of the current request.
    pub fn span<T>(&self, name: &'static str, n: u32, f: impl FnOnce() -> T) -> T {
        if !self.is_on() {
            return f();
        }
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.record(name, start, end, self.req.load(Ordering::Relaxed), n);
        out
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer lock"))
    }
}

/// A `KvStore` that forwards every method to a `LiveCluster`, timing the
/// ones a request waits on.
pub struct TracedStore {
    pub inner: Arc<LiveCluster>,
}

impl KvStore for TracedStore {
    fn namespace(&self, name: &str) -> NsId {
        self.inner.namespace(name)
    }

    fn execute_round(&self, session: &mut Session, round: RequestRound) -> Vec<KvResponse> {
        let n = round.len() as u32;
        let name = if n <= 1 { "kv.round1" } else { "kv.roundN" };
        tracer().span(name, n, || self.inner.execute_round(session, round))
    }

    fn point_get(
        &self,
        session: &mut Session,
        ns: NsId,
        key: &[u8],
        out: &mut Vec<u8>,
    ) -> Option<bool> {
        tracer().span("kv.point_get", 1, || {
            self.inner.point_get(session, ns, key, out)
        })
    }

    fn bulk_put(&self, ns: NsId, key: Vec<u8>, value: Vec<u8>) {
        self.inner.bulk_put(ns, key, value)
    }

    fn rebalance(&self) {
        KvStore::rebalance(&*self.inner)
    }

    fn balance(&self) -> Vec<NsBalance> {
        KvStore::balance(&*self.inner)
    }

    fn maybe_rebalance(&self, max_op_share: f64, min_ops: u64) -> bool {
        self.inner.maybe_rebalance(max_op_share, min_ops)
    }

    fn sync_session(&self, session: &mut Session) {
        self.inner.sync_session(session)
    }

    fn drain_samples(&self) -> Vec<OpSample> {
        self.inner.drain_samples()
    }

    fn wal_degraded(&self) -> bool {
        KvStore::wal_degraded(&*self.inner)
    }
}

/// A `WalSink` that forwards every method, timing appends and commits.
pub struct TracedWal {
    pub inner: Arc<dyn WalSink>,
}

impl WalSink for TracedWal {
    fn append_ns(&self, ns: NsId, name: &str) {
        tracer().span("wal.append", 0, || self.inner.append_ns(ns, name))
    }

    fn append_put(&self, ns: NsId, key: &[u8], value: &[u8]) {
        tracer().span("wal.append", 0, || self.inner.append_put(ns, key, value))
    }

    fn append_delete(&self, ns: NsId, key: &[u8]) {
        tracer().span("wal.append", 0, || self.inner.append_delete(ns, key))
    }

    fn commit(&self) -> bool {
        tracer().span("wal.commit", 0, || self.inner.commit())
    }
}

/// Durations of the spans named `name`, µs.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect()
}

/// Self time of every span named `parent`, µs: its duration minus the
/// part of it that spans named in `children` of the same request cover.
pub fn self_times_us(spans: &[Span], parent: &str, children: &[&str]) -> Vec<f64> {
    let mut kids: Vec<&Span> = spans
        .iter()
        .filter(|s| children.contains(&s.name))
        .collect();
    kids.sort_by_key(|s| s.start_ns);
    spans
        .iter()
        .filter(|s| s.name == parent)
        .map(|p| {
            let first = kids.partition_point(|k| k.start_ns < p.start_ns);
            // union of the children's intervals clipped to the parent
            let mut covered = 0u64;
            let mut reach = p.start_ns;
            for k in kids[first..].iter().take_while(|k| k.start_ns < p.end_ns) {
                if k.req != p.req {
                    continue;
                }
                let (s, e) = (k.start_ns.max(reach), k.end_ns.min(p.end_ns));
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            (p.end_ns - p.start_ns - covered) as f64 / 1e3
        })
        .collect()
}

/// Write spans as JSON lines; `parent` is the innermost span of the same
/// request that encloses it.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| (spans[i].req, spans[i].start_ns, u64::MAX - spans[i].end_ns));
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut stack: Vec<usize> = Vec::new();
    for &i in &order {
        let s = &spans[i];
        while let Some(&top) = stack.last() {
            let t = &spans[top];
            if t.req == s.req && t.end_ns >= s.end_ns {
                break;
            }
            stack.pop();
        }
        let parent = stack.last().map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
            s.name, s.start_ns, s.end_ns, s.req
        )?;
        stack.push(i);
    }
    out.flush()
}
