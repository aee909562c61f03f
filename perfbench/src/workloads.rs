//! The four workloads: data sizes, statements, and the seeded interaction
//! generator. Everything a run sends is generated here from `--seed`
//! before any timing starts.

use piql_core::plan::params::ParamValue;
use piql_core::value::Value;
use piql_server::protocol::{Envelope, Request, RequestId};
use piql_server::{BinaryWire, JsonWire, Wire};
use piql_workloads::scadr;
use piql_workloads::tpcw::{self, SUBJECTS, SURNAMES, TITLE_WORDS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PointV3,
    ScadrHome,
    ScadrRemote,
    TpcwDurable,
}

/// Fixed per-workload settings. The reasons behind each number are in
/// `perfbench/README.md`.
pub struct Settings {
    /// Interactions per second offered during the timed window.
    pub nominal_rps: f64,
    /// The workload's p99 latency limit, ms (the SLO of `max_rps_at_slo`).
    pub limit_ms: f64,
    /// An interaction not complete this long after its scheduled send
    /// time is a deadline miss.
    pub deadline_ms: f64,
    /// Share of interactions whose responses are kept for the reference
    /// replay after the window.
    pub sample_share: f64,
    /// Span of the rate search in octaves of the nominal rate: it probes
    /// up to `nominal_rps * 2^octaves` (or down to `2^-octaves`).
    pub octaves: f64,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "point-v3" => Workload::PointV3,
            "scadr-home" => Workload::ScadrHome,
            "scadr-remote" => Workload::ScadrRemote,
            "tpcw-durable" => Workload::TpcwDurable,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PointV3 => "point-v3",
            Workload::ScadrHome => "scadr-home",
            Workload::ScadrRemote => "scadr-remote",
            Workload::TpcwDurable => "tpcw-durable",
        }
    }

    pub fn binary(self) -> bool {
        self == Workload::PointV3
    }

    pub fn settings(self) -> Settings {
        match self {
            Workload::PointV3 => Settings {
                nominal_rps: 40000.0,
                limit_ms: 10.0,
                deadline_ms: 1000.0,
                sample_share: 0.0005,
                octaves: 3.5,
            },
            Workload::ScadrHome => Settings {
                nominal_rps: 1500.0,
                limit_ms: 50.0,
                deadline_ms: 1000.0,
                sample_share: 0.004,
                octaves: 2.5,
            },
            Workload::ScadrRemote => Settings {
                nominal_rps: 600.0,
                limit_ms: 50.0,
                deadline_ms: 1000.0,
                sample_share: 0.01,
                octaves: 2.5,
            },
            Workload::TpcwDurable => Settings {
                nominal_rps: 700.0,
                limit_ms: 100.0,
                deadline_ms: 2000.0,
                sample_share: 0.01,
                octaves: 2.5,
            },
        }
    }

    pub fn wire(self) -> &'static dyn Wire {
        if self.binary() {
            &BinaryWire
        } else {
            &JsonWire
        }
    }
}

/// Users in the `point-v3` table (about 20 MiB of store, several times
/// the 4 MiB L2 of the measuring host).
pub const POINT_USERS: usize = 200_000;
/// Zipf exponent of `point-v3` key popularity (the YCSB default).
pub const POINT_ZIPF_S: f64 = 0.99;
/// Share of `point-v3` interactions that sign a new user up (a v3 `dml`).
pub const POINT_SIGNUP_SHARE: f64 = 0.01;
/// SCADr users (10 subscriptions and 20 thoughts each).
pub const SCADR_USERS: usize = 5_000;
/// Share of SCADr page views that also post a thought. The paper's mix
/// posts on 1% of pages; 30% gives the write p99 at least 1,000 writes
/// (10 beyond it) in one run at every SCADr nominal rate.
pub const SCADR_POST_SHARE: f64 = 0.30;
/// Injected per-request store service time of `scadr-remote`, µs.
pub const REMOTE_DELAY_US: u64 = 200;
/// TPC-W sizing.
pub const TPCW_ITEMS: usize = 10_000;
pub const TPCW_CUSTOMERS: usize = 2_000;

/// Timestamps of every row a run writes start here: older than any loaded
/// thought or order, so writes never change the answer of a read the
/// reference replay checks (a post is the oldest thought of its owner, a
/// new order never becomes a customer's last order).
const WRITE_TS_BASE: i64 = 1_000_000_000_000;

/// The statements a workload registers, in registration order.
pub fn statements(w: Workload) -> Vec<(&'static str, String)> {
    match w {
        Workload::PointV3 => vec![("find_user", POINT_SQL.to_string())],
        Workload::ScadrHome | Workload::ScadrRemote => {
            let q = scadr::queries(&scadr_config(0));
            vec![
                ("users_followed", q.users_followed),
                ("recent_thoughts", q.recent_thoughts),
                ("thoughtstream", q.thoughtstream),
                ("find_user", q.find_user),
            ]
        }
        Workload::TpcwDurable => TPCW_NAMES
            .iter()
            .zip(tpcw::TABLE1_SQL)
            .map(|(name, (_, sql))| (*name, sql.to_string()))
            .collect(),
    }
}

pub const POINT_SQL: &str = "SELECT * FROM users WHERE username = <u>";
pub const POINT_DDL: &str = "CREATE TABLE users ( username VARCHAR(24) NOT NULL, \
     password VARCHAR(24), home_town VARCHAR(32), PRIMARY KEY (username) )";
const SIGNUP_SQL: &str = "INSERT INTO users (username, password, home_town) VALUES (<u>, <p>, <t>)";
const POST_SQL: &str = "INSERT INTO thoughts (owner, timestamp, text) VALUES (<u>, <ts>, <txt>)";
const CART_SQL: &str = "INSERT INTO shopping_cart (sc_id, sc_time) VALUES (<cart>, <now>)";
const CART_LINE_SQL: &str = "INSERT INTO shopping_cart_line (scl_sc_id, scl_i_id, scl_qty) \
     VALUES (<cart>, <item>, <qty>)";
const ORDER_SQL: &str = "INSERT INTO orders (o_id, o_c_uname, o_date_time, o_total, o_status) \
     VALUES (<o>, <uname>, <now>, 99.5, 'PENDING')";
const ORDER_LINE_SQL: &str = "INSERT INTO order_line (ol_o_id, ol_id, ol_i_id, ol_qty) \
     VALUES (<o>, <l>, <item>, 1)";

/// Registered names of the ten Table-1 statements, in `TABLE1_SQL` order.
pub const TPCW_NAMES: [&str; 10] = [
    "home_customer",
    "home_promotions",
    "new_products",
    "product_detail",
    "search_by_author",
    "search_by_title",
    "order_customer",
    "order_last",
    "order_lines",
    "buy_cart",
];

pub fn scadr_config(seed: u64) -> scadr::ScadrConfig {
    scadr::ScadrConfig {
        users_per_node: SCADR_USERS,
        thoughts_per_user: 20,
        subscriptions_per_user: 10,
        max_subscriptions: 10,
        page_size: 10,
        seed,
    }
}

pub fn tpcw_config(seed: u64) -> tpcw::TpcwConfig {
    tpcw::TpcwConfig {
        items: TPCW_ITEMS,
        customers_per_node: TPCW_CUSTOMERS,
        orders_per_customer: 1,
        cart_limit: 100,
        seed,
    }
}

/// The `point-v3` users row of user `i`.
pub fn point_user_row(i: usize) -> Vec<Value> {
    vec![
        Value::Varchar(scadr::username(i)),
        Value::Varchar(format!("pw{i}")),
        Value::Varchar(format!("town{:03}", i % 500)),
    ]
}

/// What a response must look like.
#[derive(Debug, Clone)]
pub enum Check {
    /// `ok:true` with a `rows` array whose rows have the statement's
    /// arity; `exact` when the answer is known up front.
    Rows { stmt: u8, exact: Option<Vec<Value>> },
    /// `ok:true` acknowledging a write.
    Ack,
    /// `ok:true` with a `results` array checked positionally.
    Batch(Vec<Check>),
}

/// One row the run inserts; `req`/`sub` locate the request whose
/// acknowledgement makes it an acked write.
#[derive(Debug, Clone)]
pub struct WriteRec {
    pub table: &'static str,
    pub row: Vec<Value>,
    pub req: u8,
    pub sub: Option<u8>,
}

/// A sampled read kept for the reference replay.
#[derive(Debug, Clone)]
pub struct SampledRead {
    pub stmt: u8,
    pub params: Vec<ParamValue>,
    pub req: u8,
    pub sub: Option<u8>,
}

/// One user interaction: its requests are written in one go; it completes
/// when the last response arrives.
pub struct Interaction {
    pub at_us: u64,
    pub requests: Vec<Request>,
    pub checks: Vec<Check>,
    pub writes: Vec<WriteRec>,
    pub samples: Vec<SampledRead>,
}

impl Interaction {
    pub fn has_write(&self) -> bool {
        !self.writes.is_empty()
    }

    /// Encode every request, id-tagged `(slot << 4) | position`, and drop
    /// the decoded requests (the checks stay).
    pub fn encode(&mut self, wire: &dyn Wire, slot: u64, out: &mut Vec<u8>) {
        for (i, request) in self.requests.drain(..).enumerate() {
            wire.encode_envelope(
                &Envelope {
                    id: Some(RequestId::Int(((slot << 4) | i as u64) as i64)),
                    request,
                },
                out,
            );
        }
    }
}

/// Bytes a value contributes to user payload.
pub fn payload_len(v: &Value) -> u64 {
    match v {
        Value::Null | Value::Bool(_) => 1,
        Value::Int(_) => 4,
        Value::BigInt(_) | Value::Timestamp(_) | Value::Double(_) => 8,
        Value::Varchar(s) => s.len() as u64,
    }
}

fn exec(name: &str, params: Vec<ParamValue>) -> Request {
    Request::Execute {
        name: name.to_string(),
        params,
        cursor: None,
    }
}

fn dml(sql: &str, params: &[Value]) -> Request {
    Request::Dml {
        sql: sql.to_string(),
        params: params.iter().cloned().map(ParamValue::from).collect(),
    }
}

fn scalar(v: Value) -> Vec<ParamValue> {
    vec![ParamValue::from(v)]
}

fn stmt_index(w: Workload, name: &str) -> u8 {
    statements(w)
        .iter()
        .position(|(n, _)| *n == name)
        .expect("known statement") as u8
}

/// The sub-requests of one TPC-W batch under construction.
struct BatchBuilder {
    w: Workload,
    subs: Vec<Request>,
    checks: Vec<Check>,
    reads: Vec<(u8, Vec<ParamValue>)>,
}

impl BatchBuilder {
    fn read(&mut self, name: &str, params: Vec<ParamValue>) {
        let stmt = stmt_index(self.w, name);
        self.reads.push((stmt, params.clone()));
        self.subs.push(exec(name, params));
        self.checks.push(Check::Rows { stmt, exact: None });
    }
}

/// Zipf(s) over `n` ranks by inverse CDF.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// The seeded interaction generator of one load lane. Each connection of
/// the open loop has its own lane; lanes draw from separate random streams
/// and write disjoint keys, and one lane feeds every phase of a run, so
/// written keys never repeat.
pub struct Generator {
    w: Workload,
    rng: StdRng,
    arrivals: StdRng,
    zipf: Option<Arc<Zipf>>,
    lane: u64,
    lanes: u64,
    /// Runtime counter for written keys.
    next: u64,
    /// Ids already taken by loaded carts and orders.
    taken: std::collections::HashSet<i32>,
    settings: Settings,
}

impl Generator {
    /// A single-lane generator.
    pub fn new(w: Workload, seed: u64) -> Generator {
        Generator::lanes(w, seed, 1).remove(0)
    }

    pub fn lanes(w: Workload, seed: u64, lanes: usize) -> Vec<Generator> {
        let mut taken = std::collections::HashSet::new();
        if w == Workload::TpcwDurable {
            for i in 0..TPCW_CUSTOMERS {
                taken.insert(tpcw::initial_order_id(i, TPCW_CUSTOMERS));
            }
            let n_seed = 64i64;
            for i in 0..n_seed {
                taken.insert(((i + 1) * (i32::MAX as i64 / (n_seed + 1))) as i32);
            }
        }
        let zipf = (w == Workload::PointV3).then(|| Arc::new(Zipf::new(POINT_USERS, POINT_ZIPF_S)));
        (0..lanes as u64)
            .map(|lane| {
                let stream = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(lane);
                Generator {
                    w,
                    rng: StdRng::seed_from_u64(stream ^ 0x5DEE_CE66_D1CE_4E5B),
                    arrivals: StdRng::seed_from_u64(stream.wrapping_mul(31).wrapping_add(7)),
                    zipf: zipf.clone(),
                    lane,
                    lanes: lanes as u64,
                    next: 0,
                    taken: taken.clone(),
                    settings: w.settings(),
                }
            })
            .collect()
    }

    /// Microseconds to the next arrival of a Poisson stream of `rate` per
    /// second.
    pub fn gap_us(&mut self, rate: f64) -> f64 {
        let u: f64 = self.arrivals.gen();
        -(1.0 - u).ln() / rate * 1e6
    }

    /// `n` interactions with no schedule (closed-loop use).
    pub fn sequence(&mut self, n: usize) -> Vec<Interaction> {
        (0..n).map(|_| self.interaction(0)).collect()
    }

    /// A write key no other lane or earlier interaction uses.
    fn key(&mut self) -> u64 {
        self.next += 1;
        self.next * self.lanes + self.lane
    }

    fn fresh_id(&mut self) -> i32 {
        loop {
            self.next += 1;
            let id = tpcw::spread_id(self.next as i64 + 1_000_000);
            if id > 0 && id as u64 % self.lanes == self.lane && self.taken.insert(id) {
                return id;
            }
        }
    }

    pub fn interaction(&mut self, at_us: u64) -> Interaction {
        let mut it = Interaction {
            at_us,
            requests: Vec::new(),
            checks: Vec::new(),
            writes: Vec::new(),
            samples: Vec::new(),
        };
        let sampled = self.rng.gen_bool(self.settings.sample_share);
        match self.w {
            Workload::PointV3 => self.point(&mut it, sampled),
            Workload::ScadrHome | Workload::ScadrRemote => self.scadr_page(&mut it, sampled),
            Workload::TpcwDurable => self.tpcw(&mut it, sampled),
        }
        it
    }

    fn write(
        &mut self,
        it: &mut Interaction,
        table: &'static str,
        row: Vec<Value>,
        sub: Option<u8>,
    ) {
        it.writes.push(WriteRec {
            table,
            row,
            req: it.requests.len() as u8,
            sub,
        });
    }

    fn point(&mut self, it: &mut Interaction, sampled: bool) {
        if self.rng.gen_bool(POINT_SIGNUP_SHARE) {
            let k = self.key();
            let row = vec![
                Value::Varchar(format!("w{k:07}")),
                Value::Varchar(format!("pw-w{k}")),
                Value::Varchar("signup".into()),
            ];
            self.write(it, "users", row.clone(), None);
            it.requests.push(dml(SIGNUP_SQL, &row));
            it.checks.push(Check::Ack);
            return;
        }
        let zipf = self.zipf.as_ref().expect("point-v3 has a key distribution");
        // scatter popularity ranks over the key space: the multiplier is
        // coprime to POINT_USERS, so this permutes 0..POINT_USERS
        let user =
            (zipf.sample(&mut self.rng) as u64 * 2_654_435_761 % POINT_USERS as u64) as usize;
        let params = scalar(Value::Varchar(scadr::username(user)));
        if sampled {
            it.samples.push(SampledRead {
                stmt: 0,
                params: params.clone(),
                req: 0,
                sub: None,
            });
        }
        it.requests.push(exec("find_user", params));
        it.checks.push(Check::Rows {
            stmt: 0,
            exact: Some(point_user_row(user)),
        });
    }

    fn scadr_page(&mut self, it: &mut Interaction, sampled: bool) {
        let me = scadr::username(self.rng.gen_range(0..SCADR_USERS));
        let other = scadr::username(self.rng.gen_range(0..SCADR_USERS));
        for (name, user) in [
            ("users_followed", &me),
            ("recent_thoughts", &me),
            ("thoughtstream", &me),
            ("find_user", &other),
        ] {
            let stmt = stmt_index(self.w, name);
            let params = scalar(Value::Varchar(user.clone()));
            if sampled {
                it.samples.push(SampledRead {
                    stmt,
                    params: params.clone(),
                    req: it.requests.len() as u8,
                    sub: None,
                });
            }
            it.requests.push(exec(name, params));
            it.checks.push(Check::Rows { stmt, exact: None });
        }
        if self.rng.gen_bool(SCADR_POST_SHARE) {
            let k = self.key();
            let row = vec![
                Value::Varchar(me),
                Value::Timestamp(WRITE_TS_BASE + k as i64),
                Value::Varchar(format!("post {k}")),
            ];
            self.write(it, "thoughts", row.clone(), None);
            it.requests.push(dml(POST_SQL, &row));
            it.checks.push(Check::Ack);
        }
    }

    /// One TPC-W web interaction of the ordering mix as one id-tagged
    /// `batch` (sequential on one session, so a Buy Request reads the
    /// cart it just filled).
    fn tpcw(&mut self, it: &mut Interaction, sampled: bool) {
        let w = self.w;
        let dice: f64 = self.rng.gen();
        let customer = self.rng.gen_range(0..TPCW_CUSTOMERS);
        let uname = Value::Varchar(tpcw::customer_uname(customer));
        let mut b = BatchBuilder {
            w,
            subs: Vec::new(),
            checks: Vec::new(),
            reads: Vec::new(),
        };
        let mut writes: Vec<(&'static str, Vec<Value>, usize)> = Vec::new();
        if dice < 0.14 {
            b.read("home_customer", scalar(uname.clone()));
            let mut promos: Vec<Value> = Vec::new();
            while promos.len() < 5 {
                let item = Value::Int(self.rng.gen_range(0..TPCW_ITEMS) as i32);
                if !promos.contains(&item) {
                    promos.push(item);
                }
            }
            b.read("home_promotions", vec![ParamValue::from(promos)]);
        } else if dice < 0.25 {
            let subject = SUBJECTS[self.rng.gen_range(0..SUBJECTS.len())];
            b.read("new_products", scalar(Value::Varchar(subject.into())));
        } else if dice < 0.41 {
            let item = self.rng.gen_range(0..TPCW_ITEMS) as i32;
            b.read("product_detail", scalar(Value::Int(item)));
        } else if dice < 0.50 {
            let name = SURNAMES[self.rng.gen_range(0..SURNAMES.len())];
            b.read("search_by_author", scalar(Value::Varchar(name.into())));
        } else if dice < 0.59 {
            let word = TITLE_WORDS[self.rng.gen_range(0..TITLE_WORDS.len())];
            b.read("search_by_title", scalar(Value::Varchar(word.into())));
        } else if dice < 0.72 {
            b.read("order_customer", scalar(uname.clone()));
            b.read("order_last", scalar(uname.clone()));
            // the customer's last order is its loaded one: run-time orders
            // carry older timestamps (see WRITE_TS_BASE)
            let order = tpcw::initial_order_id(customer, TPCW_CUSTOMERS);
            b.read("order_lines", scalar(Value::Int(order)));
        } else {
            // Buy Request: fill a fresh cart, read it back, place the order
            let cart = self.fresh_id();
            let now = Value::Timestamp(WRITE_TS_BASE + self.key() as i64);
            let cart_row = vec![Value::Int(cart), now.clone()];
            b.subs.push(dml(CART_SQL, &cart_row));
            b.checks.push(Check::Ack);
            writes.push(("shopping_cart", cart_row, b.subs.len() - 1));
            let mut items: Vec<i32> = Vec::new();
            for _ in 0..self.rng.gen_range(1..4usize) {
                let item = self.rng.gen_range(0..TPCW_ITEMS) as i32;
                if items.contains(&item) {
                    continue;
                }
                items.push(item);
                let row = vec![
                    Value::Int(cart),
                    Value::Int(item),
                    Value::Int(self.rng.gen_range(1..4)),
                ];
                b.subs.push(dml(CART_LINE_SQL, &row));
                b.checks.push(Check::Ack);
                writes.push(("shopping_cart_line", row, b.subs.len() - 1));
            }
            b.read("buy_cart", scalar(Value::Int(cart)));
            let order = self.fresh_id();
            let order_params = vec![Value::Int(order), uname.clone(), now.clone()];
            b.subs.push(dml(ORDER_SQL, &order_params));
            b.checks.push(Check::Ack);
            let order_row = vec![
                Value::Int(order),
                uname.clone(),
                now,
                Value::Double(99.5),
                Value::Varchar("PENDING".into()),
            ];
            writes.push(("orders", order_row, b.subs.len() - 1));
            for (l, item) in items.iter().enumerate() {
                let row = vec![
                    Value::Int(order),
                    Value::Int(l as i32),
                    Value::Int(*item),
                    Value::Int(1),
                ];
                b.subs.push(dml(ORDER_LINE_SQL, &row[..3]));
                b.checks.push(Check::Ack);
                writes.push(("order_line", row, b.subs.len() - 1));
            }
        }
        for (table, row, sub) in writes {
            self.write(it, table, row, Some(sub as u8));
        }
        if sampled {
            // positions of the reads among the batch's sub-requests
            let mut positions = b
                .subs
                .iter()
                .enumerate()
                .filter(|(_, r)| matches!(r, Request::Execute { .. }))
                .map(|(i, _)| i);
            for (stmt, params) in b.reads {
                let sub = positions.next().expect("one position per read") as u8;
                it.samples.push(SampledRead {
                    stmt,
                    params,
                    req: 0,
                    sub: Some(sub),
                });
            }
        }
        it.requests.push(Request::Batch { requests: b.subs });
        it.checks.push(Check::Batch(b.checks));
    }
}
