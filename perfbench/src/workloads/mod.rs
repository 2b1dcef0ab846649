//! The four workloads. Each one is a fixed batch of calls into the
//! simulator (a "pass") that `main` repeats and times.

mod explain;
mod mc_explore;
mod paper_suite;
mod serve_churn;

use crate::acc::Fnv;
use crate::metrics::Values;

/// What one pass produced.
#[derive(Default)]
pub struct Pass {
    /// Simulated events credited to the pass (0 for an aborted run).
    pub events: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed (every offered request of an aborted run).
    pub failed: u64,
    /// Simulated results and per-layer counts; identical on every pass.
    pub counts: Values,
    /// Host-time results that need the pass's own timings.
    pub host: Values,
    /// Fingerprint of everything simulated.
    pub fingerprint: Fnv,
    /// Lines worth printing once (aborted runs and the like).
    pub notes: Vec<String>,
}

/// One benchmark workload.
pub trait Workload {
    /// Performs the set-up calls of one pass without running anything
    /// and returns their host seconds.
    fn setup_only(&self) -> f64;

    /// Runs one pass. `Err` means a correctness check failed.
    fn pass(&self) -> Result<Pass, String>;

    /// Checks made once per invocation, outside the timed passes.
    fn check_once(&self) -> Result<(), String>;

    /// Per-layer numbers of a traced invocation that need untimed work
    /// outside the traced pass.
    fn traced_extras(&self, _out: &mut Values) {}
}

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = ["paper-suite", "serve-churn", "mc-explore", "explain"];

/// The workload called `name`, built from `seed`.
pub fn by_name(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    match name {
        "paper-suite" => Some(Box::new(paper_suite::PaperSuite::new())),
        "serve-churn" => Some(Box::new(serve_churn::ServeChurn::new(seed))),
        "mc-explore" => Some(Box::new(mc_explore::McExplore::new())),
        "explain" => Some(Box::new(explain::Explain::new())),
        _ => None,
    }
}

/// Checks that `mine` (from the benchmark's split calls) matches the
/// report `genima::run_app_configured` produces, byte for byte.
pub fn same_as_runner(what: &str, mine: &str, runner: &str) -> Result<(), String> {
    if mine == runner {
        Ok(())
    } else {
        Err(format!(
            "{what}: report differs from run_app_configured ({} vs {} bytes)",
            mine.len(),
            runner.len()
        ))
    }
}
