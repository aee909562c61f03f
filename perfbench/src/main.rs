//! perfbench — the one-command service benchmark of piql-server.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <point-v3|scadr-home|scadr-remote|tpcw-durable> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` drives a real `PiqlServer` over TCP with an open-loop,
//! seeded load, checks every answer, and prints the end-to-end metrics.
//! `--trace 1` is the separate traced run: it prints the per-layer
//! metrics. Either way the last line of standard output is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`, and the exit
//! code is non-zero when any answer was wrong. `perfbench/README.md`
//! explains every workload and metric.

mod load;
mod oracle;
mod replay;
mod stack;
mod stats;
mod trace;
mod workloads;

use load::Outcome;
use piql_kv::{KvStore, LiveCluster};
use stack::Stack;
use stats::{quantile, sorted};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use workloads::{Generator, Workload};

/// Fewest steal-free interactions a phase's latency percentiles rest on.
const MIN_COUNTED: usize = 1000;
/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Untimed load before the window, s.
const WARMUP_S: f64 = 1.0;
/// Share of `--seconds` spent at the nominal rate; the rest probes rates
/// for `max_rps_at_slo`.
const WINDOW_SHARE: f64 = 0.7;
/// Probes of the rate search (a bisection on log2 of rate / nominal).
const PROBES: usize = 5;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0).max(2.0),
        trace: trace.unwrap_or(false),
    })
}

/// The result line.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Scratch space of this run inside the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from("perfbench").join("out")
}

pub fn data_dir(w: Workload, k: usize) -> Option<PathBuf> {
    (w == Workload::TpcwDurable)
        .then(|| out_dir().join(format!("data-{}-{}-{k}", w.name(), std::process::id())))
}

pub fn plain(cluster: Arc<LiveCluster>) -> Arc<LiveCluster> {
    cluster
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} on {} cores",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let result = if args.trace {
        replay::traced_run(&args)
    } else {
        timed_run(&args)
    };
    match result {
        Ok(report) => {
            println!("{}", report.to_json());
            std::process::exit(if report.correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn latency_quantile<'a>(samples: impl Iterator<Item = &'a load::Sample>, q: f64) -> f64 {
    quantile(&sorted(samples.map(|s| s.latency_ms).collect()), q)
}

/// The interactions of a phase that its latency percentiles count, in
/// schedule order: every interaction no host CPU steal came near (the
/// hypervisor not running this machine is not the program's latency), or
/// every interaction when fewer than `MIN_COUNTED` are steal-free. Failed
/// interactions count in `failed` either way.
fn counted(samples: &[load::Sample]) -> Vec<load::Sample> {
    let free: Vec<load::Sample> = samples.iter().filter(|s| !s.stolen).copied().collect();
    let mut v = if free.len() >= MIN_COUNTED {
        free
    } else {
        samples.to_vec()
    };
    v.sort_by(|a, b| a.due_ms.total_cmp(&b.due_ms));
    v
}

/// Whether a probe met the workload's latency limit: no failure, the p99
/// of its counted interactions within the limit, and no growing backlog
/// (the p50 of their last fifth within the limit). Also returns those
/// figures, for stderr.
fn meets_slo(o: &Outcome, limit_ms: f64) -> (bool, String) {
    let c = counted(&o.samples);
    let p99 = latency_quantile(c.iter(), 0.99);
    let tail_p50 = latency_quantile(c[c.len() * 4 / 5..].iter(), 0.5);
    let pass = o.attempted > 0 && o.failed == 0 && p99 <= limit_ms && tail_p50 <= limit_ms;
    (
        pass,
        format!(
            "{} (p99 {p99:.1} ms, last-fifth p50 {tail_p50:.1} ms, {} failed, {} of {} counted)",
            if pass { "pass" } else { "fail" },
            o.failed,
            c.len(),
            o.samples.len()
        ),
    )
}

/// Bytes the store keeps: the data directory of a durable stack, else the
/// keys and values of every namespace.
fn stored_bytes<S: KvStore>(stack: &Stack<S>) -> u64 {
    match &stack.data_dir {
        Some(dir) => stats::dir_bytes(dir),
        None => stack
            .cluster
            .export_namespaces()
            .iter()
            .flat_map(|(_, entries)| entries.iter())
            .map(|(k, v)| (k.len() + v.len()) as u64)
            .sum(),
    }
}

fn timed_run(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let settings = w.settings();
    let mut setups = Vec::new();
    let mut current: Option<Stack<LiveCluster>> = None;
    for k in 0..SETUPS {
        if let Some(previous) = current.take() {
            previous.discard();
        }
        let stack = stack::build(w, args.seed, data_dir(w, k), plain, false)?;
        setups.push(stack.setup_s);
        current = Some(stack);
    }
    let stack = current.ok_or("no stack was built")?;
    let started = std::time::Instant::now();
    let mark = |what: &str| {
        eprintln!(
            "perfbench: {what} at {:.1} s",
            started.elapsed().as_secs_f64()
        )
    };
    let addr = stack.server.local_addr();
    let arity = stack.arity.clone();
    let mut lanes = Generator::lanes(w, args.seed, load::CONNECTIONS);
    let io = |e: std::io::Error| format!("load generator: {e}");

    let mut all = load::run_open(
        addr,
        w,
        &arity,
        &mut lanes,
        settings.nominal_rps,
        WARMUP_S,
        settings.deadline_ms,
    )
    .map_err(io)?;
    let bytes_before = stored_bytes(&stack);
    let ticks_before = stats::cpu_ticks();
    let window_s = args.seconds * WINDOW_SHARE;
    let nominal = load::run_open(
        addr,
        w,
        &arity,
        &mut lanes,
        settings.nominal_rps,
        window_s,
        settings.deadline_ms,
    )
    .map_err(io)?;
    let bytes_after = stored_bytes(&stack);
    let ticks_after = stats::cpu_ticks();
    let steal =
        (ticks_after.1 - ticks_before.1) as f64 / (ticks_after.0 - ticks_before.0).max(1) as f64;
    // before the rate search, whose overload probes queue work in both
    // the server and the generator
    let peak_rss_mb = stats::peak_rss_mb();
    mark("timed window done");
    let payload = nominal.acked_payload_bytes;

    // rate search: bisect log2(rate / nominal) over [0, octaves] when the
    // nominal rate meets the limit, else over [-octaves, 0]
    let (mut lo, mut hi) = if meets_slo(&nominal, settings.limit_ms).0 {
        (0.0f64, settings.octaves)
    } else {
        (-settings.octaves, 0.0)
    };
    let probe_s = args.seconds * (1.0 - WINDOW_SHARE) / PROBES as f64;
    let mut probes = Vec::new();
    for _ in 0..PROBES {
        std::thread::sleep(Duration::from_millis(150));
        let mid = (lo + hi) / 2.0;
        let rate = settings.nominal_rps * mid.exp2();
        let o = load::run_open(
            addr,
            w,
            &arity,
            &mut lanes,
            rate,
            probe_s,
            settings.deadline_ms,
        )
        .map_err(io)?;
        let (pass, verdict) = meets_slo(&o, settings.limit_ms);
        probes.push(format!("{rate:.0}/s {verdict}"));
        if pass {
            lo = mid;
        } else {
            hi = mid;
        }
        all.merge(o);
    }
    let max_rps = settings.nominal_rps * lo.exp2();
    mark("rate search done");

    let c = counted(&nominal.samples);
    let (p50, p99) = (
        latency_quantile(c.iter(), 0.5),
        latency_quantile(c.iter(), 0.99),
    );
    let write_latency = |q: f64| latency_quantile(c.iter().filter(|s| s.write), q);
    let (write_p50, write_p99) = (write_latency(0.5), write_latency(0.99));
    let writes_counted = c.iter().filter(|s| s.write).count();
    let whole = (
        latency_quantile(nominal.samples.iter(), 0.5),
        latency_quantile(nominal.samples.iter(), 0.99),
    );
    let counted_n = c.len();
    let writes_total = nominal.samples.iter().filter(|s| s.write).count();
    let lateness = sorted(nominal.lateness_ms.clone());
    let (attempted, failed) = (nominal.attempted, nominal.failed);
    let errors = nominal.errors.clone();
    all.merge(nominal);

    // correctness gate
    let mut wrong = std::mem::take(&mut all.wrong);
    let tables = oracle::snapshot(stack.registry.db(), w)?;
    let (replayed, skipped, mismatches) = oracle::check_samples(w, &tables, &all.sampled);
    wrong.extend(mismatches);
    wrong.extend(oracle::check_acked(&tables, &all.acked));
    let data_dir = stack.data_dir.clone();
    let durable = stack.durable.is_some();
    if durable {
        // crash now: every acked write must come back from the data dir
        let Stack {
            server, durable, ..
        } = stack;
        drop(server);
        if let Some(d) = durable {
            d.simulate_crash();
        }
        let dir = data_dir.clone().ok_or("durable stack without a data dir")?;
        let seed = args.seed;
        let recovered = piql_server::open_durable(
            stack::durable_options(&dir),
            piql_server::testkit::linear_predictor(200, 100, 2),
            |db| piql_workloads::tpcw::setup(db, &workloads::tpcw_config(seed), 1).map(|_| ()),
        )
        .map_err(|e| format!("reopen after crash: {e}"))?;
        let tables = oracle::snapshot(&recovered.db, w)?;
        wrong.extend(
            oracle::check_acked(&tables, &all.acked)
                .into_iter()
                .map(|m| format!("after crash recovery: {m}")),
        );
        recovered.close();
        let _ = std::fs::remove_dir_all(&dir);
    } else {
        stack.discard();
    }
    mark("correctness gate done");
    eprintln!(
        "perfbench: host CPU steal during the window {:.1}%; latency metrics count {counted_n} \
         of {attempted} interactions ({writes_counted} with writes), those no steal came near; \
         over all of them p50 {:.3} ms p99 {:.3} ms",
        steal * 100.0,
        whole.0,
        whole.1,
    );
    for w in wrong.iter().take(10) {
        eprintln!("perfbench: WRONG {w}");
    }
    for e in &errors {
        eprintln!("perfbench: error response: {e}");
    }
    eprintln!(
        "perfbench: {attempted} interactions at {} /s over {window_s:.1} s ({} with writes), \
         {failed} failed; generator late p50 {:.3} ms p99 {:.3} ms max {:.3} ms; probes {}; \
         reference replay {replayed} reads ({skipped} not replayable), {} acked writes read back{}",
        settings.nominal_rps,
        writes_total,
        quantile(&lateness, 0.5),
        quantile(&lateness, 0.99),
        lateness.last().copied().unwrap_or(0.0),
        probes.join(", "),
        all.acked.len(),
        if durable {
            " (and after crash recovery)"
        } else {
            ""
        },
    );
    let growth = bytes_after.saturating_sub(bytes_before) as f64;
    Ok(Report {
        correct: wrong.is_empty(),
        attempted,
        failed,
        metrics: vec![
            ("setup_s", stats::median(&setups), "s"),
            ("p50_ms", p50, "ms"),
            ("p99_ms", p99, "ms"),
            ("max_rps_at_slo", max_rps, "1/s"),
            // rule of succession: never 0, and one failure in the window
            // already doubles it
            (
                "error_rate",
                (failed as f64 + 1.0) / (attempted as f64 + 2.0),
                "ratio",
            ),
            ("peak_rss_mb", peak_rss_mb, "MiB"),
            ("write_p50_ms", write_p50, "ms"),
            ("write_p99_ms", write_p99, "ms"),
            (
                "disk_bytes_per_user_byte",
                growth / payload.max(1) as f64,
                "ratio",
            ),
        ],
    })
}
