//! The traced run (`--trace 1`), separate from the timed run and seeded
//! the same way. It has two parts:
//!
//! * **TCP.** The same interaction sequence is sent twice over one
//!   connection with one outstanding request: once to a plain stack and
//!   once to a stack whose engine runs over [`TracedStore`] and whose log
//!   sits behind [`TracedWal`]. Both must take the same paths (equal fast
//!   reads, store operations and WAL records); the difference of their
//!   p50s is the tracing overhead.
//! * **In-process replay.** The sequence's request bytes go through each
//!   layer's public entry point, one pass per layer: `Database` execution,
//!   `StatementRegistry::execute_governed`, `handle_request`,
//!   `BinaryConn::handle_frame` (v3), and `Wire::decode_envelope` /
//!   `encode_response`. A layer's self time is its span minus the spans
//!   of the layer below. The engine pass runs on two fresh stacks, and its
//!   counts must repeat exactly.

use crate::load;
use crate::stack::{self, Stack};
use crate::stats::{mean, quantile, sorted};
use crate::trace::{self, tracer, TracedStore};
use crate::workloads::{Generator, Interaction, Workload};
use crate::{data_dir, out_dir, plain, Args, Report};
use piql_core::plan::params::{ParamValue, Params};
use piql_engine::ExecStrategy;
use piql_kv::{KvStore, LiveCluster, Session};
use piql_server::protocol::{Envelope, Request, RequestId};
use piql_server::server::handle_request;
use piql_server::BinaryConn;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Interactions per connection of the TCP part.
const CLOSED_BATCH: usize = 50;
/// Interactions of the TCP part at most (keeps the span file small).
const MAX_TRACED: usize = 1000;
/// Tolerance of the accounting check, as a share of the traced mean.
const ACCOUNTING_SHARE: f64 = 0.25;
/// Empty batches whose round trip measures transport directly.
const EMPTY_TRIPS: usize = 500;

fn traced(cluster: Arc<LiveCluster>) -> Arc<TracedStore> {
    Arc::new(TracedStore { inner: cluster })
}

fn params(values: &[ParamValue]) -> Params {
    let mut p = Params::new();
    for (i, v) in values.iter().enumerate() {
        p.set(i, v.clone());
    }
    p
}

/// Counters the traced and the plain TCP part must agree on.
#[derive(Debug, PartialEq, Clone, Copy)]
struct PathCounts {
    fast_point_reads: u64,
    store_ops: u64,
    wal_records: u64,
    wal_bytes: u64,
}

fn path_counts<S: KvStore>(stack: &Stack<S>) -> PathCounts {
    let wal = stack.durable.as_ref().map(|d| d.durability.wal_counters());
    PathCounts {
        fast_point_reads: stack
            .registry
            .counters
            .fast_point_reads
            .load(Ordering::Relaxed),
        store_ops: stack.cluster.stats_snapshot().ops,
        wal_records: wal.map_or(0, |c| c.total_records),
        wal_bytes: wal.map_or(0, |c| c.segment_bytes),
    }
}

fn delta(after: PathCounts, before: PathCounts) -> PathCounts {
    PathCounts {
        fast_point_reads: after.fast_point_reads - before.fast_point_reads,
        store_ops: after.store_ops - before.store_ops,
        wal_records: after.wal_records - before.wal_records,
        wal_bytes: after.wal_bytes - before.wal_bytes,
    }
}

/// Whether a top-level request writes.
fn writes(request: &Request) -> bool {
    match request {
        Request::Dml { .. } => true,
        Request::Batch { requests } => requests.iter().any(writes),
        _ => false,
    }
}

/// Per-statement counts of one engine pass.
#[derive(Debug, PartialEq, Default, Clone, Copy)]
struct EngineCounts {
    statements: u64,
    rounds: u64,
    requests: u64,
    entries: u64,
    rows: u64,
    /// Largest requests / static bound over all statements, in millionths.
    worst_bound_ppm: u64,
}

/// Execute every statement of `seq` directly on the engine, in order,
/// spanning each call. Reads of read-only top-level requests get req ids
/// below 2^32; the rest above.
fn engine_pass<S: KvStore>(stack: &Stack<S>, seq: &[Interaction]) -> Result<EngineCounts, String> {
    let db = stack.registry.db();
    let mut session = Session::new();
    let mut counts = EngineCounts::default();
    let mut k = 0u64;
    for it in seq {
        for top in &it.requests {
            let read_only = !writes(top);
            let subs: Vec<&Request> = match top {
                Request::Batch { requests } => requests.iter().collect(),
                other => vec![other],
            };
            for request in subs {
                k += 1;
                let req = if read_only { k } else { k | (1 << 32) };
                tracer().set_request(req);
                match request {
                    Request::Execute {
                        name, params: p, ..
                    } => {
                        let statement = stack.registry.get(name).ok_or("unknown statement")?;
                        let prepared = statement.prepared();
                        let before = session.stats;
                        let p = params(p);
                        let result = tracer()
                            .span("engine.apply", 0, || {
                                db.execute_with(
                                    &mut session,
                                    &prepared,
                                    &p,
                                    ExecStrategy::Parallel,
                                    None,
                                )
                            })
                            .map_err(|e| format!("engine replay of {name}: {e}"))?;
                        let s = session.stats;
                        let requests = s.logical_requests - before.logical_requests;
                        counts.statements += 1;
                        counts.rounds += s.rounds - before.rounds;
                        counts.requests += requests;
                        counts.entries += s.entries - before.entries;
                        counts.rows += result.rows.len() as u64;
                        let bound = prepared.compiled.bounds.requests.max(1);
                        counts.worst_bound_ppm =
                            counts.worst_bound_ppm.max(requests * 1_000_000 / bound);
                    }
                    Request::Dml { sql, params: p } => {
                        let p = params(p);
                        tracer()
                            .span("engine.dml", 0, || db.execute_dml(&mut session, sql, &p))
                            .map_err(|e| format!("engine replay of a write: {e}"))?;
                    }
                    _ => return Err("unexpected request kind in replay".into()),
                }
            }
        }
    }
    Ok(counts)
}

/// Spans of the layer pass, per read-only top-level request.
struct Layers {
    /// TCP index of each replayed top-level request.
    tops: Vec<usize>,
    statements: usize,
    response_bytes: Vec<f64>,
}

/// One in-process pass over a read-only top-level request.
#[derive(Clone, Copy)]
enum Pass {
    /// Each read through `Database::execute_with`.
    Engine,
    /// Each read through `StatementRegistry::execute_governed`.
    Registry,
    /// The request through `handle_request` (the v2 path, and the v3
    /// general path).
    Handler,
    /// The v3 frame through `BinaryConn::handle_frame`, the path a v3
    /// connection takes (its fast point path included).
    Frame,
}

/// For each read-only top-level request, back to back on the same warm
/// state: its frame through `Wire::decode_envelope`, then the passes of
/// [`Pass`] in an order that rotates from one request to the next (so
/// the later passes' warmer caches favor no layer), then the response
/// of `handle_request` through `encode_response`.
fn layers_pass<S: KvStore + 'static>(
    stack: &Stack<S>,
    w: Workload,
    seq: &[Interaction],
) -> Result<Layers, String> {
    let wire = w.wire();
    let db = stack.registry.db();
    let mut session = Session::new();
    let mut conn = BinaryConn::new(stack.registry.clone());
    let mut passes = vec![Pass::Engine, Pass::Registry, Pass::Handler];
    if w.binary() {
        passes.push(Pass::Frame);
    }
    let mut layers = Layers {
        tops: Vec::new(),
        statements: 0,
        response_bytes: Vec::new(),
    };
    let (mut frame, mut encoded) = (Vec::new(), Vec::new());
    let mut index = 0;
    for (slot, it) in seq.iter().enumerate() {
        for (pos, top) in it.requests.iter().enumerate() {
            index += 1;
            if writes(top) {
                continue;
            }
            let req = ((slot << 4) | pos) as u64;
            tracer().set_request(req);
            frame.clear();
            let id = RequestId::Int(req as i64);
            wire.encode_envelope(
                &Envelope {
                    id: Some(id.clone()),
                    request: top.clone(),
                },
                &mut frame,
            );
            let body = if w.binary() {
                &frame[4..]
            } else {
                &frame[..frame.len() - 1]
            };
            tracer()
                .span("codec.decode", 0, || wire.decode_envelope(body))
                .map_err(|e| format!("replayed frame does not decode: {e}"))?;
            let subs: Vec<&Request> = match top {
                Request::Batch { requests } => requests.iter().collect(),
                other => vec![other],
            };
            let mut reads = Vec::new();
            for request in subs {
                if let Request::Execute {
                    name, params: p, ..
                } = request
                {
                    let statement = stack.registry.get(name).ok_or("unknown statement")?;
                    reads.push((name, statement.prepared(), params(p)));
                }
            }
            let mut response = None;
            let rotation = layers.tops.len() % passes.len();
            for pass in passes[rotation..].iter().chain(&passes[..rotation]) {
                match pass {
                    Pass::Engine => {
                        for (name, prepared, p) in &reads {
                            tracer()
                                .span("engine.execute", 0, || {
                                    db.execute_with(
                                        &mut session,
                                        prepared,
                                        p,
                                        ExecStrategy::Parallel,
                                        None,
                                    )
                                })
                                .map_err(|e| format!("engine replay of {name}: {e}"))?;
                        }
                    }
                    Pass::Registry => {
                        for (name, _, p) in &reads {
                            tracer()
                                .span("registry.execute", 0, || {
                                    stack.registry.execute_governed(&mut session, name, p, None)
                                })
                                .map_err(|e| format!("registry replay of {name}: {e}"))?;
                        }
                    }
                    Pass::Handler => {
                        response = Some(tracer().span("handler", 0, || {
                            handle_request(top, &mut session, &stack.registry)
                        }));
                    }
                    Pass::Frame => {
                        tracer().span("conn.frame", 0, || conn.handle_frame(body));
                        conn.clear_output();
                    }
                }
            }
            layers.statements += reads.len();
            let response = response.ok_or("the handler pass did not run")?;
            encoded.clear();
            tracer().span("codec.encode", 0, || {
                wire.encode_response(Some(&id), &response, &mut encoded)
            });
            layers.response_bytes.push(encoded.len() as f64);
            layers.tops.push(index - 1);
        }
    }
    Ok(layers)
}

fn traced_stack(w: Workload, seed: u64, k: usize) -> Result<Stack<TracedStore>, String> {
    stack::build(w, seed, data_dir(w, k), traced, true)
}

pub fn traced_run(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let mut loads: Vec<f64> = Vec::new();
    let mut registers: Vec<f64> = Vec::new();
    let mut wrong: Vec<String> = Vec::new();
    let io = |e: std::io::Error| format!("traced run: {e}");

    // TCP part, plain stack: as many interactions as fit a quarter of the
    // run, then the traced stack gets exactly the same ones
    let plain_stack = stack::build(w, args.seed, data_dir(w, 0), plain, false)?;
    loads.push(plain_stack.load_s);
    registers.extend(&plain_stack.register_us);
    let mut gen = Generator::new(w, args.seed);
    let budget = args.seconds / 4.0;
    let t0 = Instant::now();
    let mut seq: Vec<Interaction> = Vec::new();
    let mut plain_times = Vec::new();
    let before = path_counts(&plain_stack);
    while t0.elapsed().as_secs_f64() < budget && seq.len() < MAX_TRACED {
        let batch = gen.sequence(CLOSED_BATCH);
        let (times, out) = load::run_closed(
            plain_stack.server.local_addr(),
            w,
            &plain_stack.arity,
            &batch,
            seq.len(),
        )
        .map_err(io)?;
        plain_times.extend(times);
        wrong.extend(out.wrong);
        seq.extend(batch);
    }
    let plain_counts = delta(path_counts(&plain_stack), before);
    plain_stack.discard();

    let traced_tcp = traced_stack(w, args.seed, 1)?;
    loads.push(traced_tcp.load_s);
    registers.extend(&traced_tcp.register_us);
    let before = path_counts(&traced_tcp);
    let kv_before = traced_tcp.cluster.stats_snapshot();
    let pool = traced_tcp.cluster.pool().clone();
    let (fanned0, worker0, stolen0) = (
        pool.stats.fanned_rounds.load(Ordering::Relaxed),
        pool.stats.worker_tasks.load(Ordering::Relaxed),
        pool.stolen_tasks(),
    );
    let executed0 = traced_tcp
        .registry
        .counters
        .executed
        .load(Ordering::Relaxed);
    let balance0 = KvStore::balance(&*traced_tcp.cluster);
    let wal0 = traced_tcp
        .durable
        .as_ref()
        .map(|d| d.durability.wal_counters());
    tracer().take();
    tracer().set_on(true);
    let mut traced_times = Vec::new();
    let mut out = load::Outcome::default();
    for (k, batch) in seq.chunks(CLOSED_BATCH).enumerate() {
        let (times, o) = load::run_closed(
            traced_tcp.server.local_addr(),
            w,
            &traced_tcp.arity,
            batch,
            k * CLOSED_BATCH,
        )
        .map_err(io)?;
        traced_times.extend(times);
        out.merge(o);
    }
    tracer().set_on(false);
    let tcp_spans = tracer().take();
    let empty_trips =
        load::empty_round_trips(traced_tcp.server.local_addr(), w, EMPTY_TRIPS).map_err(io)?;
    wrong.extend(out.wrong);
    let traced_counts = delta(path_counts(&traced_tcp), before);
    if traced_counts != plain_counts {
        wrong.push(format!(
            "traced TCP part took other paths than the plain one: {traced_counts:?} vs {plain_counts:?}"
        ));
    }
    let kv = traced_tcp.cluster.stats_snapshot();
    let ops = (kv.ops - kv_before.ops).max(1) as f64;
    let physical_per_logical = (kv.physical_ops - kv_before.physical_ops) as f64 / ops;
    let bytes_per_op = ((kv.bytes_read + kv.bytes_written)
        - (kv_before.bytes_read + kv_before.bytes_written)) as f64
        / ops;
    let rounds = (kv.rounds - kv_before.rounds).max(1) as f64;
    let fanned = pool.stats.fanned_rounds.load(Ordering::Relaxed) - fanned0;
    let worker_tasks = pool.stats.worker_tasks.load(Ordering::Relaxed) - worker0;
    let stolen = pool.stolen_tasks() - stolen0;
    let fanned_tasks: u64 = tcp_spans
        .iter()
        .filter(|s| s.name == "kv.roundN")
        .map(|s| s.n as u64)
        .sum();
    let executed = traced_tcp
        .registry
        .counters
        .executed
        .load(Ordering::Relaxed)
        - executed0;
    // the busiest namespace's busiest shard, over this part's operations
    let max_op_share = KvStore::balance(&*traced_tcp.cluster)
        .iter()
        .map(|b| {
            let old = balance0
                .iter()
                .find(|o| o.name == b.name && o.ops.len() == b.ops.len());
            let ops: Vec<u64> = match old {
                Some(o) => b.ops.iter().zip(&o.ops).map(|(n, o)| n - o).collect(),
                None => b.ops.clone(),
            };
            let total: u64 = ops.iter().sum();
            (
                total,
                ops.iter().max().copied().unwrap_or(0) as f64 / total.max(1) as f64,
            )
        })
        .max_by_key(|(total, _)| *total)
        .map_or(0.0, |(_, share)| share);
    let wal_commit_fsync = match (&traced_tcp.durable, wal0) {
        (Some(d), Some(c0)) => {
            let c = d.durability.wal_counters();
            let fsyncs = c.fsyncs - c0.fsyncs;
            (c.commits - c0.commits) as f64 / fsyncs.max(1) as f64
        }
        _ => 0.0,
    };
    let wal_bytes_per_record =
        traced_counts.wal_bytes as f64 / traced_counts.wal_records.max(1) as f64;
    let plain_bytes_per_record =
        plain_counts.wal_bytes as f64 / plain_counts.wal_records.max(1) as f64;
    if wal_bytes_per_record != plain_bytes_per_record {
        wrong.push(format!(
            "wal.bytes_per_record differs between the two TCP parts: {wal_bytes_per_record} vs {plain_bytes_per_record}"
        ));
    }
    traced_tcp.discard();

    // in-process replay, twice on fresh stacks: the engine counts must
    // repeat exactly
    let replay = traced_stack(w, args.seed, 2)?;
    loads.push(replay.load_s);
    registers.extend(&replay.register_us);
    tracer().set_on(true);
    let counts = engine_pass(&replay, &seq)?;
    let layers = layers_pass(&replay, w, &seq)?;
    tracer().set_on(false);
    let replay_spans = tracer().take();
    replay.discard();

    let again = traced_stack(w, args.seed, 3)?;
    loads.push(again.load_s);
    registers.extend(&again.register_us);
    let counts_again = engine_pass(&again, &seq)?;
    again.discard();
    if counts != counts_again {
        wrong.push(format!(
            "engine counts differ across two replays: {counts:?} vs {counts_again:?}"
        ));
    }
    if counts.worst_bound_ppm > 1_000_000 {
        wrong.push(format!(
            "a statement issued {:.3}x its static request bound",
            counts.worst_bound_ppm as f64 / 1e6
        ));
    }

    // self times; the engine's are its spans minus the store spans inside
    let kv_names = ["kv.round1", "kv.roundN", "kv.point_get"];
    let engine_self = trace::self_times_us(&replay_spans, "engine.execute", &kv_names);
    let dml_self = trace::self_times_us(&replay_spans, "engine.dml", &kv_names);
    let sum_of = |name: &str| trace::durations_us(&replay_spans, name).iter().sum::<f64>();
    let statements = layers.statements.max(1) as f64;
    let tops = layers.tops.len().max(1) as f64;
    let registry_self = (sum_of("registry.execute") - sum_of("engine.execute")) / statements;
    let handler_self = (sum_of("handler") - sum_of("registry.execute")) / statements;
    let decode = sum_of("codec.decode") / tops;
    let encode = sum_of("codec.encode") / tops;
    // the read-only requests of the TCP part, in the replay's order
    let tcp_ro: Vec<f64> = layers
        .tops
        .iter()
        .filter_map(|&i| traced_times.get(i).copied())
        .collect();
    let traced_mean = mean(&tcp_ro);
    // the pass that serves a request the way its connection does: the
    // v3 frame handler, or decode + handle_request + encode on v2
    let serving = if w.binary() { "conn.frame" } else { "handler" };
    let kv_inside = |parent: &str| {
        (sum_of(parent)
            - trace::self_times_us(&replay_spans, parent, &kv_names)
                .iter()
                .sum::<f64>())
            / tops
    };
    let kv = kv_inside(serving);
    let (in_process, layer_sum) = if w.binary() {
        let frame = sum_of("conn.frame") / tops;
        (frame, vec![("frame", frame - kv), ("kv", kv)])
    } else {
        // decode, handler, registry, engine, store, encode, each minus
        // the layer below (differences of the passes' means)
        let per_top = statements / tops;
        let engine_pass = sum_of("engine.execute") / tops;
        let handler = sum_of("handler") / tops;
        (
            decode + handler + encode,
            vec![
                ("decode", decode),
                ("handler", handler_self * per_top),
                ("registry", registry_self * per_top),
                ("engine", engine_pass - kv),
                ("kv", kv),
                ("encode", encode),
            ],
        )
    };
    // the stated remainder: sockets, connection threads, dispatch
    // hand-off, and the client's own encode and decode
    let transport = traced_mean - in_process;
    // Independent of that sum: transport measured directly, as the round
    // trip of an empty batch on the same server, plus in-process serving
    // must come to the traced mean. A timing check, so it is printed and
    // does not decide `correct`: host noise can move it.
    let direct = mean(&empty_trips);
    let predicted = in_process + direct;
    let holds = (predicted - traced_mean).abs() <= ACCOUNTING_SHARE * traced_mean;
    eprintln!(
        "perfbench: accounting of a read-only request's traced mean {traced_mean:.1} us = {} + transport {transport:.1}; \
         check: in-process {in_process:.1} us + directly measured transport {direct:.1} us \
         (an empty batch's round trip) = {predicted:.1} us, {} within {:.0}% of the traced mean",
        layer_sum
            .iter()
            .map(|(n, v)| format!("{n} {v:.1}"))
            .collect::<Vec<_>>()
            .join(" + "),
        if holds { "holds:" } else { "DOES NOT HOLD: not" },
        ACCOUNTING_SHARE * 100.0,
    );

    let plain_p50 = quantile(&sorted(plain_times.clone()), 0.5);
    let response_bytes = layers.response_bytes;
    let traced_p50 = quantile(&sorted(traced_times.clone()), 0.5);
    let _ = trace::write_spans(
        &out_dir().join(format!("trace-{}-{}.jsonl", w.name(), args.seed)),
        &[tcp_spans.clone(), replay_spans.clone()].concat(),
    );
    eprintln!(
        "perfbench: traced {} requests over TCP ({} interactions), plain p50 {plain_p50:.1} us, \
         traced p50 {traced_p50:.1} us; replay {} statements; path counts {traced_counts:?}",
        traced_times.len(),
        seq.len(),
        counts.statements,
    );
    for m in wrong.iter().take(10) {
        eprintln!("perfbench: WRONG {m}");
    }
    let share = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let metrics = vec![
        ("codec.decode_us", decode, "us"),
        ("codec.encode_us", encode, "us"),
        ("codec.response_bytes", mean(&response_bytes), "bytes"),
        ("conn.transport_us", transport, "us"),
        ("registry.self_us", registry_self, "us"),
        ("registry.handler_self_us", handler_self, "us"),
        (
            "registry.fast_path_share",
            share(traced_counts.fast_point_reads as f64, executed as f64),
            "ratio",
        ),
        ("engine.self_us", mean(&engine_self), "us"),
        ("engine.dml_self_us", mean(&dml_self), "us"),
        (
            "engine.rounds_per_stmt",
            share(counts.rounds as f64, counts.statements as f64),
            "count",
        ),
        (
            "engine.kv_requests_per_stmt",
            share(counts.requests as f64, counts.statements as f64),
            "count",
        ),
        (
            "engine.entries_per_row",
            share(counts.entries as f64, counts.rows as f64),
            "count",
        ),
        (
            "engine.requests_vs_bound_max",
            counts.worst_bound_ppm as f64 / 1e6,
            "ratio",
        ),
        (
            "kv.round1_us",
            mean(&trace::durations_us(&tcp_spans, "kv.round1")),
            "us",
        ),
        (
            "kv.roundN_us",
            mean(&trace::durations_us(&tcp_spans, "kv.roundN")),
            "us",
        ),
        (
            "kv.point_get_us",
            mean(&trace::durations_us(&tcp_spans, "kv.point_get")),
            "us",
        ),
        ("kv.physical_per_logical", physical_per_logical, "ratio"),
        ("kv.bytes_per_op", bytes_per_op, "bytes"),
        ("kv.max_op_share", max_op_share, "ratio"),
        ("pool.fanned_share", fanned as f64 / rounds, "ratio"),
        (
            "pool.worker_task_share",
            share(worker_tasks as f64, fanned_tasks as f64),
            "ratio",
        ),
        (
            "pool.stolen_per_1k_rounds",
            share(stolen as f64 * 1000.0, fanned as f64),
            "count",
        ),
        (
            "wal.append_us",
            mean(&trace::durations_us(&tcp_spans, "wal.append")),
            "us",
        ),
        (
            "wal.commit_us",
            mean(&trace::durations_us(&tcp_spans, "wal.commit")),
            "us",
        ),
        ("wal.commits_per_fsync", wal_commit_fsync, "ratio"),
        ("wal.bytes_per_record", wal_bytes_per_record, "bytes"),
        ("registry.register_us", mean(&registers), "us"),
        ("setup.load_s", crate::stats::median(&loads), "s"),
        ("trace.overhead_ms", (traced_p50 - plain_p50) / 1e3, "ms"),
    ];
    Ok(Report {
        correct: wrong.is_empty(),
        attempted: out.attempted,
        failed: out.failed,
        metrics,
    })
}
