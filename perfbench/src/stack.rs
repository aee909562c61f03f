//! Building one serving stack: store, data load, statement registration,
//! and a `PiqlServer` on an ephemeral local port.

use crate::trace::TracedWal;
use crate::workloads::{self, Workload, POINT_DDL, POINT_USERS, REMOTE_DELAY_US};
use piql_core::tuple::Tuple;
use piql_durability::SyncPolicy;
use piql_engine::Database;
use piql_kv::{KvStore, LiveCluster, LiveConfig};
use piql_server::durable::{open_durable, DurableOptions, DurableStack};
use piql_server::testkit::linear_predictor;
use piql_server::{PiqlServer, ServerTuning, SloConfig, StatementRegistry};
use piql_workloads::{scadr, tpcw};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Generous enough that every statement is admitted unchanged: the
/// benchmark measures serving, and degraded limits would change answers.
fn slo() -> SloConfig {
    SloConfig {
        slo_ms: 1000.0,
        interval_confidence: 1.0,
        allow_degrade: false,
    }
}

pub struct Stack<S: KvStore + 'static> {
    pub server: PiqlServer<S>,
    pub registry: Arc<StatementRegistry<S>>,
    pub cluster: Arc<LiveCluster>,
    pub durable: Option<DurableStack>,
    pub data_dir: Option<PathBuf>,
    /// Load and registration, s.
    pub setup_s: f64,
    pub load_s: f64,
    pub register_us: Vec<f64>,
    /// Output columns per registered statement.
    pub arity: Vec<usize>,
}

impl<S: KvStore + 'static> Stack<S> {
    /// Stop serving and remove the data directory.
    pub fn discard(self) {
        let Stack {
            server,
            durable,
            data_dir,
            ..
        } = self;
        drop(server);
        if let Some(d) = durable {
            d.close();
        }
        if let Some(dir) = data_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// The durable options of `tpcw-durable`: group commit (acked writes are
/// fsynced, concurrent commits share one fsync), checkpoints only past
/// 64 MiB of log, which a run never reaches.
pub fn durable_options(dir: &std::path::Path) -> DurableOptions {
    DurableOptions {
        data_dir: dir.to_path_buf(),
        policy: SyncPolicy::GroupCommit,
        snapshot_wal_bytes: 64 << 20,
        live: LiveConfig::default(),
        slo: slo(),
    }
}

/// Build a stack for `w` whose engine runs over `wrap(cluster)`; with
/// `trace_wal` the durable log is re-attached behind a [`TracedWal`].
pub fn build<S: KvStore + 'static>(
    w: Workload,
    seed: u64,
    data_dir: Option<PathBuf>,
    wrap: fn(Arc<LiveCluster>) -> Arc<S>,
    trace_wal: bool,
) -> Result<Stack<S>, String> {
    let t0 = Instant::now();
    let predictor = || linear_predictor(200, 100, 2);
    let (cluster, db, durable) = match w {
        Workload::PointV3 | Workload::ScadrHome | Workload::ScadrRemote => {
            let cluster = Arc::new(LiveCluster::new(LiveConfig::default()));
            let db = Arc::new(Database::new(wrap(cluster.clone())));
            load(w, seed, &db).map_err(|e| format!("load: {e}"))?;
            (cluster, db, None)
        }
        Workload::TpcwDurable => {
            let dir = data_dir
                .clone()
                .ok_or("tpcw-durable needs a data directory")?;
            let _ = std::fs::remove_dir_all(&dir);
            let mut db = None;
            let stack = open_durable(durable_options(&dir), predictor(), |boot| {
                tpcw::setup(boot, &workloads::tpcw_config(seed), 1)?;
                // the serving engine: the schema over the same store
                let serving = Arc::new(Database::new(wrap(boot.cluster().clone())));
                for ddl in tpcw::ddl(&workloads::tpcw_config(seed)) {
                    serving.execute_ddl(&ddl)?;
                }
                db = Some(serving);
                Ok(())
            })
            .map_err(|e| format!("open_durable: {e}"))?;
            let db = db.ok_or("bootstrap did not run")?;
            if trace_wal {
                stack.cluster.detach_wal();
                stack.cluster.attach_wal(Arc::new(TracedWal {
                    inner: stack.durability.clone(),
                }));
            }
            (stack.cluster.clone(), db, Some(stack))
        }
    };
    let load_s = t0.elapsed().as_secs_f64();
    let registry = Arc::new(match &durable {
        Some(stack) => {
            let registry = StatementRegistry::with_models(db, stack.models.clone(), slo());
            registry.set_journal(Some(stack.durability.clone()));
            registry
        }
        None => StatementRegistry::new(db, predictor(), slo()),
    });
    let mut register_us = Vec::new();
    let mut arity = Vec::new();
    for (name, sql) in workloads::statements(w) {
        let t = Instant::now();
        let admission = registry
            .register(name, &sql)
            .map_err(|e| format!("register {name}: {e}"))?;
        register_us.push(t.elapsed().as_secs_f64() * 1e6);
        if admission.verdict() != "admitted" {
            return Err(format!(
                "{name} was {} instead of admitted",
                admission.verdict()
            ));
        }
        let statement = registry.get(name).ok_or("registered statement vanished")?;
        arity.push(statement.prepared().columns.len());
    }
    let server = PiqlServer::start_tuned(registry.clone(), "127.0.0.1:0", ServerTuning::default())
        .map_err(|e| format!("server start: {e}"))?;
    let setup_s = t0.elapsed().as_secs_f64();
    if w == Workload::ScadrRemote {
        // the modeled network store: injected after loading, so setup
        // does not pay it
        cluster.set_request_delay_us(REMOTE_DELAY_US);
    }
    Ok(Stack {
        server,
        registry,
        cluster,
        durable,
        data_dir,
        setup_s,
        load_s,
        register_us,
        arity,
    })
}

fn load<S: KvStore>(w: Workload, seed: u64, db: &Database<S>) -> Result<(), piql_engine::DbError> {
    match w {
        Workload::PointV3 => {
            db.execute_ddl(POINT_DDL)?;
            db.bulk_load(
                "users",
                (0..POINT_USERS).map(|i| Tuple::new(workloads::point_user_row(i))),
            )?;
            db.cluster().rebalance();
        }
        _ => {
            scadr::setup(db, &workloads::scadr_config(seed), 1)?;
        }
    }
    Ok(())
}
