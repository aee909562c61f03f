//! The correctness gate that runs after the timed window: sampled reads
//! are replayed against `Database::reference_query` and every acked write
//! is read back.
//!
//! The reference executor answers a query by materializing whole tables
//! and nested-loop joining them, which is quadratic on the joins these
//! workloads run. So each table is read once through
//! `reference_query("SELECT * FROM <table>")`, and each sampled statement
//! is answered from those rows by the selection, join, order and limit
//! its SQL states. Statements whose predicate is a token `LIKE` (TPC-W
//! New Products and the two searches) are not replayed; their responses
//! are still checked for status and row shape.

use crate::workloads::{SampledRead, Workload, WriteRec, TPCW_NAMES};
use piql_core::catalog::Catalog;
use piql_core::plan::params::{ParamValue, Params};
use piql_core::tuple::Tuple;
use piql_core::value::Value;
use piql_engine::Database;
use piql_kv::KvStore;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};

/// Row positions by a column's value (its `Debug` form).
type Positions = HashMap<String, Vec<usize>>;

pub struct Tables {
    rows: HashMap<&'static str, Vec<Tuple>>,
    catalog: Catalog,
    /// Row positions by (table, column) and value, built on first use.
    index: RefCell<HashMap<(String, usize), Positions>>,
}

pub fn tables_of(w: Workload) -> &'static [&'static str] {
    match w {
        Workload::PointV3 => &["users"],
        Workload::ScadrHome | Workload::ScadrRemote => &["users", "subscriptions", "thoughts"],
        Workload::TpcwDurable => &[
            "customer",
            "address",
            "country",
            "author",
            "item",
            "orders",
            "order_line",
            "shopping_cart",
            "shopping_cart_line",
        ],
    }
}

/// Read every table of `w` through the reference executor.
pub fn snapshot<S: KvStore>(db: &Database<S>, w: Workload) -> Result<Tables, String> {
    let mut rows = HashMap::new();
    for &table in tables_of(w) {
        let all = db
            .reference_query(&format!("SELECT * FROM {table}"), &Params::new())
            .map_err(|e| format!("reference scan of {table}: {e}"))?;
        rows.insert(table, all);
    }
    Ok(Tables {
        rows,
        catalog: db.catalog(),
        index: RefCell::new(HashMap::new()),
    })
}

impl Tables {
    fn col(&self, table: &str, column: &str) -> usize {
        self.catalog
            .table(table)
            .and_then(|t| t.column_id(column))
            .unwrap_or_else(|| panic!("column {table}.{column} exists"))
    }

    fn rows(&self, table: &str) -> &[Tuple] {
        self.rows.get(table).map_or(&[], Vec::as_slice)
    }

    /// Rows of `table` whose `column` equals `v`, in table order.
    fn eq(&self, table: &str, column: &str, v: &Value) -> Vec<&Tuple> {
        let c = self.col(table, column);
        let rows = self.rows(table);
        let mut index = self.index.borrow_mut();
        let by_value = index.entry((table.to_string(), c)).or_insert_with(|| {
            let mut m: HashMap<String, Vec<usize>> = HashMap::new();
            for (i, r) in rows.iter().enumerate() {
                m.entry(format!("{:?}", r[c])).or_default().push(i);
            }
            m
        });
        by_value
            .get(&format!("{v:?}"))
            .map_or_else(Vec::new, |positions| {
                positions.iter().map(|&i| &rows[i]).collect()
            })
    }

    /// Whether `got` lists rows in the order of `expected` on the column
    /// the statement orders by (rows that tie on it may come in any order).
    fn ordered_like(&self, w: Workload, stmt: u8, got: &[Tuple], expected: &[Tuple]) -> bool {
        let column = match (w, stmt) {
            (Workload::ScadrHome | Workload::ScadrRemote, 1 | 2) => {
                self.col("thoughts", "timestamp")
            }
            (Workload::TpcwDurable, _) if TPCW_NAMES[stmt as usize] == "order_last" => {
                self.col("orders", "o_date_time")
            }
            _ => return true,
        };
        got.len() == expected.len()
            && got
                .iter()
                .zip(expected)
                .all(|(g, e)| g[column] == e[column])
    }

    fn one(&self, table: &str, column: &str, v: &Value) -> Option<&Tuple> {
        self.eq(table, column, v).into_iter().next()
    }

    /// Rows `table` by `column` descending, first `limit`.
    fn top(&self, mut rows: Vec<&Tuple>, table: &str, column: &str, limit: usize) -> Vec<Tuple> {
        let c = self.col(table, column);
        rows.sort_by(|a, b| b[c].total_cmp(&a[c]));
        rows.into_iter().take(limit).cloned().collect()
    }

    /// The expected answer of statement `stmt` of `w`, or `None` when the
    /// statement is not replayed.
    fn expect(&self, w: Workload, stmt: u8, params: &[ParamValue]) -> Option<Vec<Tuple>> {
        let p = |i: usize| params[i].as_scalar().cloned().unwrap_or(Value::Null);
        let pick = |row: &Tuple, table: &str, cols: &[&str]| -> Vec<Value> {
            cols.iter()
                .map(|c| row[self.col(table, c)].clone())
                .collect()
        };
        let with = |row: &Tuple, extra: Vec<Value>| -> Tuple {
            let mut values = row.values().to_vec();
            values.extend(extra);
            Tuple::new(values)
        };
        Some(match w {
            Workload::PointV3 => self
                .eq("users", "username", &p(0))
                .into_iter()
                .cloned()
                .collect(),
            Workload::ScadrHome | Workload::ScadrRemote => match stmt {
                // users_followed
                0 => self
                    .eq("subscriptions", "owner", &p(0))
                    .into_iter()
                    .filter_map(|s| {
                        self.one("users", "username", &s[self.col("subscriptions", "target")])
                    })
                    .cloned()
                    .collect(),
                // recent_thoughts
                1 => self.top(
                    self.eq("thoughts", "owner", &p(0)),
                    "thoughts",
                    "timestamp",
                    10,
                ),
                // thoughtstream
                2 => {
                    let approved = self.col("subscriptions", "approved");
                    let target = self.col("subscriptions", "target");
                    let candidates = self
                        .eq("subscriptions", "owner", &p(0))
                        .into_iter()
                        .filter(|s| s[approved] == Value::Bool(true))
                        .flat_map(|s| self.eq("thoughts", "owner", &s[target]))
                        .collect();
                    self.top(candidates, "thoughts", "timestamp", 10)
                }
                // find_user
                _ => self
                    .eq("users", "username", &p(0))
                    .into_iter()
                    .cloned()
                    .collect(),
            },
            Workload::TpcwDurable => match TPCW_NAMES[stmt as usize] {
                "home_customer" => self
                    .eq("customer", "c_uname", &p(0))
                    .into_iter()
                    .cloned()
                    .collect(),
                "home_promotions" => {
                    let ids = params[0].as_collection().unwrap_or(&[]);
                    self.rows("item")
                        .iter()
                        .filter(|r| ids.contains(&r[self.col("item", "i_id")]))
                        .map(|r| Tuple::new(pick(r, "item", &["i_id", "i_title"])))
                        .collect()
                }
                "product_detail" => self
                    .eq("item", "i_id", &p(0))
                    .into_iter()
                    .filter_map(|i| {
                        let a = self.one("author", "a_id", &i[self.col("item", "i_a_id")])?;
                        Some(with(i, pick(a, "author", &["a_fname", "a_lname"])))
                    })
                    .collect(),
                "order_customer" => self
                    .eq("customer", "c_uname", &p(0))
                    .into_iter()
                    .filter_map(|c| {
                        let a =
                            self.one("address", "addr_id", &c[self.col("customer", "c_addr_id")])?;
                        let co =
                            self.one("country", "co_id", &a[self.col("address", "addr_co_id")])?;
                        let mut extra = pick(a, "address", &["addr_street", "addr_city"]);
                        extra.extend(pick(co, "country", &["co_name"]));
                        Some(with(c, extra))
                    })
                    .collect(),
                "order_last" => self.top(
                    self.eq("orders", "o_c_uname", &p(0)),
                    "orders",
                    "o_date_time",
                    1,
                ),
                "order_lines" => self
                    .eq("order_line", "ol_o_id", &p(0))
                    .into_iter()
                    .filter_map(|l| {
                        let i = self.one("item", "i_id", &l[self.col("order_line", "ol_i_id")])?;
                        Some(with(l, pick(i, "item", &["i_title"])))
                    })
                    .collect(),
                "buy_cart" => self
                    .eq("shopping_cart_line", "scl_sc_id", &p(0))
                    .into_iter()
                    .filter_map(|l| {
                        let i = self.one(
                            "item",
                            "i_id",
                            &l[self.col("shopping_cart_line", "scl_i_id")],
                        )?;
                        Some(with(l, pick(i, "item", &["i_title", "i_cost"])))
                    })
                    .collect(),
                _ => return None,
            },
        })
    }
}

fn canonical(rows: &[Tuple]) -> Vec<String> {
    let mut keys: Vec<String> = rows.iter().map(|r| format!("{:?}", r.values())).collect();
    keys.sort();
    keys
}

/// Replay the sampled reads; returns (replayed, not replayed, mismatches).
pub fn check_samples(
    w: Workload,
    tables: &Tables,
    sampled: &[(SampledRead, Vec<Tuple>)],
) -> (usize, usize, Vec<String>) {
    let (mut replayed, mut skipped, mut wrong) = (0, 0, Vec::new());
    for (read, got) in sampled {
        let Some(expected) = tables.expect(w, read.stmt, &read.params) else {
            skipped += 1;
            continue;
        };
        replayed += 1;
        // compared as multisets of rows, plus the order an ORDER BY fixes
        if canonical(got) != canonical(&expected)
            || !tables.ordered_like(w, read.stmt, got, &expected)
        {
            wrong.push(format!(
                "{} statement {} with {:?}: served {:?}, reference {:?}",
                w.name(),
                read.stmt,
                read.params,
                got,
                expected
            ));
        }
    }
    (replayed, skipped, wrong)
}

/// Every acked write must be present; returns the missing ones.
pub fn check_acked(tables: &Tables, acked: &[WriteRec]) -> Vec<String> {
    let mut want: HashMap<&str, HashSet<String>> = HashMap::new();
    for wr in acked {
        want.entry(wr.table)
            .or_default()
            .insert(format!("{:?}", wr.row));
    }
    let mut missing = Vec::new();
    for (table, mut rows) in want {
        for r in tables.rows(table) {
            rows.remove(&format!("{:?}", r.values()));
        }
        missing.extend(
            rows.into_iter()
                .map(|r| format!("acked {table} row {r} not found")),
        );
    }
    missing
}
