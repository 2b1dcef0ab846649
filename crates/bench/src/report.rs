//! The one report format every bench binary writes, and the one
//! command line they all parse.
//!
//! A [`Report`] is `{bench, seed, meta, rows, gates}`: `meta` holds the
//! run's scalar settings, `rows` the measurements, and `gates` the
//! outcome of every [`Gate`] in the bench's table
//! ([`crate::gates::table`]). The emitting binary evaluates the table
//! before writing; `xtask obs-schema` parses the file back with
//! [`Report::from_json`] and evaluates the *same* table, so a gate and
//! its threshold exist once.

use std::process::ExitCode;

use genima_apps::{all_apps, app_by_name, App};
use genima_obs::Json;
use genima_proto::Topology;
use genima_sim::RunSeed;

use crate::gates;

/// A named predicate over a report's rows.
pub struct Gate {
    /// Stable name, written into the report and every failure message.
    pub name: &'static str,
    check: Check,
}

enum Check {
    /// Over all rows at once.
    Rows(fn(&[Json]) -> Result<(), String>),
    /// Over every row in turn; an empty report fails.
    Each(fn(&Json) -> Result<(), String>),
}

impl Gate {
    /// A gate over all rows at once.
    pub const fn rows(name: &'static str, check: fn(&[Json]) -> Result<(), String>) -> Gate {
        Gate {
            name,
            check: Check::Rows(check),
        }
    }

    /// A gate every row must pass.
    pub const fn each(name: &'static str, check: fn(&Json) -> Result<(), String>) -> Gate {
        Gate {
            name,
            check: Check::Each(check),
        }
    }

    /// Runs the gate; `Err` explains the first row that breaks it.
    pub fn check(&self, rows: &[Json]) -> Result<(), String> {
        match self.check {
            Check::Rows(check) => check(rows),
            Check::Each(_) if rows.is_empty() => Err("no rows".to_string()),
            Check::Each(check) => rows
                .iter()
                .enumerate()
                .try_for_each(|(i, r)| check(r).map_err(|e| format!("row {i}: {e}"))),
        }
    }
}

/// One bench run's results.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// Bench kind; selects the gate table.
    pub bench: String,
    /// Seed the run used.
    pub seed: u64,
    /// Per-run scalar settings (an object).
    pub meta: Json,
    /// One object per measurement.
    pub rows: Vec<Json>,
    /// `(gate, error)` per gate of the table, in table order; filled by
    /// [`Report::evaluate`].
    pub gates: Vec<(&'static str, Option<String>)>,
}

impl Report {
    /// An empty report of kind `bench`.
    pub fn new(bench: &str, seed: u64) -> Report {
        Report {
            bench: bench.to_string(),
            seed,
            meta: Json::obj(),
            rows: Vec::new(),
            gates: Vec::new(),
        }
    }

    /// Reads a report back from its JSON form (the recorded `gates`
    /// are ignored: [`Report::check`] re-evaluates them).
    pub fn from_json(v: &Json) -> Result<Report, String> {
        let field = |key: &str| v.get(key).ok_or_else(|| format!("missing `{key}`"));
        let bench = field("bench")?.as_str().ok_or("`bench` must be a string")?;
        let seed = field("seed")?.as_u64().ok_or("`seed` must be an integer")?;
        let meta = field("meta")?;
        if meta.as_obj().is_none() {
            return Err("`meta` must be an object".to_string());
        }
        let rows = field("rows")?.as_arr().ok_or("`rows` must be an array")?;
        Ok(Report {
            meta: meta.clone(),
            rows: rows.to_vec(),
            ..Report::new(bench, seed)
        })
    }

    /// Runs the bench's gate table over the rows, recording each
    /// outcome in `gates`.
    pub fn evaluate(&mut self) -> Result<(), String> {
        let table =
            gates::table(&self.bench).ok_or_else(|| format!("unknown bench `{}`", self.bench))?;
        self.gates = table
            .iter()
            .map(|g| (g.name, g.check(&self.rows).err()))
            .collect();
        Ok(())
    }

    /// Evaluates the gates; `Err` names every failing gate.
    pub fn check(&mut self) -> Result<(), String> {
        self.evaluate()?;
        let failed: Vec<String> = self
            .gates
            .iter()
            .filter_map(|(name, err)| err.as_ref().map(|e| format!("gate `{name}` failed: {e}")))
            .collect();
        if failed.is_empty() {
            Ok(())
        } else {
            Err(failed.join("; "))
        }
    }

    /// The JSON text, gates included, with one row per line so that a
    /// diff of two reports names the rows that moved.
    pub fn dump(&self) -> String {
        let gates = self.gates.iter().map(|(name, err)| {
            let mut g = Json::obj();
            g.set("name", Json::str(*name));
            g.set("pass", Json::Bool(err.is_none()));
            if let Some(e) = err {
                g.set("error", Json::str(e));
            }
            g
        });
        let rows: Vec<String> = self.rows.iter().map(Json::dump).collect();
        format!(
            "{{\"bench\":{},\"seed\":{},\"meta\":{},\"rows\":[\n{}\n],\"gates\":{}}}\n",
            Json::str(&self.bench).dump(),
            Json::u64(self.seed).dump(),
            self.meta.dump(),
            rows.join(",\n"),
            Json::Arr(gates.collect()).dump()
        )
    }

    /// Evaluates the gates, writes the report to `json` if given, and
    /// returns failure if any gate failed or the binary saw
    /// `failed_runs` runs fail in ways no row records (aborted,
    /// invalid or truncated runs, reported on stderr as they happen).
    pub fn finish(mut self, json: Option<&str>, failed_runs: u32) -> ExitCode {
        self.evaluate()
            .expect("every bench binary has a gate table");
        if let Some(path) = json {
            if let Err(e) = std::fs::write(path, self.dump()) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {path}");
        }
        let mut ok = failed_runs == 0;
        for (name, err) in &self.gates {
            if let Some(e) = err {
                eprintln!("FAIL gate `{name}`: {e}");
                ok = false;
            }
        }
        if failed_runs > 0 {
            eprintln!("FAIL {failed_runs} run(s) failed");
        }
        if ok {
            println!("{}: all {} gates pass", self.bench, self.gates.len());
            ExitCode::SUCCESS
        } else {
            eprintln!("{}: failed", self.bench);
            ExitCode::FAILURE
        }
    }
}

/// `{nodes, procs_per_node}`, the `topo` entry of a report's `meta`.
pub fn topo_json(topo: Topology) -> Json {
    let mut t = Json::obj();
    t.set("nodes", Json::u64(topo.nodes as u64));
    t.set("procs_per_node", Json::u64(topo.procs_per_node as u64));
    t
}

/// The bench binaries' shared command line:
/// `[--FLAG N]... [--json PATH] [NAME...]`.
pub struct Cli {
    /// `--json PATH`: where to write the report.
    pub json: Option<String>,
    names: Vec<String>,
    nums: Vec<(String, u64)>,
    usage: String,
}

impl Cli {
    /// Parses the process arguments. `flags` are the numeric options
    /// the binary accepts (without `--`); `names` is the placeholder
    /// for positional arguments, or `None` when the binary takes none.
    /// Exits with status 2 and a usage line on anything else.
    pub fn parse(bin: &str, flags: &[&str], names: Option<&str>) -> Cli {
        let mut usage = format!("usage: {bin}");
        for flag in flags {
            usage += &format!(" [--{flag} N]");
        }
        usage += " [--json PATH]";
        if let Some(n) = names {
            usage += &format!(" [{n}...]");
        }
        let mut cli = Cli {
            json: None,
            names: Vec::new(),
            nums: Vec::new(),
            usage,
        };
        let mut it = std::env::args().skip(1);
        while let Some(arg) = it.next() {
            if let Some(flag) = arg.strip_prefix("--") {
                let value = it.next().unwrap_or_else(|| cli.usage());
                if flag == "json" {
                    cli.json = Some(value);
                } else if flags.contains(&flag) {
                    let n = value.parse().unwrap_or_else(|_| cli.usage());
                    cli.nums.push((flag.to_string(), n));
                } else {
                    cli.usage()
                }
            } else if names.is_some() {
                cli.names.push(arg);
            } else {
                cli.usage()
            }
        }
        cli
    }

    /// The last value given for `--flag`, else `default`.
    pub fn num(&self, flag: &str, default: u64) -> u64 {
        self.nums
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .map_or(default, |&(_, n)| n)
    }

    /// `--seed`, defaulting to the workspace's [`RunSeed`].
    pub fn seed(&self) -> u64 {
        self.num("seed", RunSeed::default().value())
    }

    /// The positional names as applications; all ten when none given.
    pub fn apps(&self) -> Vec<Box<dyn App>> {
        if self.names.is_empty() {
            return all_apps();
        }
        self.names
            .iter()
            .map(|name| {
                app_by_name(name).unwrap_or_else(|| {
                    eprintln!("unknown app: {name}");
                    self.usage()
                })
            })
            .collect()
    }

    /// Prints the usage line and exits with status 2.
    pub fn usage(&self) -> ! {
        eprintln!("{}", self.usage);
        std::process::exit(2)
    }
}
