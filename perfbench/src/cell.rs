//! One simulated run of an application on one evaluation column, made
//! of the same calls `genima::run_app_configured` makes, each timed and
//! wrapped in a span: `App::spec`, `SvmSystem::new` + `assign_homes`,
//! injector construction, and `SvmSystem::try_run`.

use std::cell::RefCell;
use std::panic::{self, AssertUnwindSafe};
use std::time::Instant;

use genima::{ObsConfig, RunConfig};
use genima_apps::App;
use genima_fault::{FaultPlan, FaultStats, PlanInjector, StatsHandle};
use genima_obs::{ObsHandle, ObsReport, Recorder};
use genima_proto::{Column, OpSource, RunReport, SvmSystem, Topology};
use genima_sim::RunSeed;

use crate::trace::{self, AggHandle, TimedInjector, TimedSource};

/// Everything that defines one run besides the application.
#[derive(Clone, Debug)]
pub struct CellConfig {
    /// Cluster shape.
    pub topo: Topology,
    /// Protocol column.
    pub column: Column,
    /// Seed of the fault injector.
    pub seed: u64,
    /// What goes wrong; [`FaultPlan::none`] for a clean run.
    pub faults: FaultPlan,
    /// Degraded-mode fault handling.
    pub degraded: bool,
    /// Span recording inside the program.
    pub obs: ObsConfig,
    /// Layer that generates the ops (`apps` or `serve`), naming the
    /// spans of `App::spec` and of the op-source wrapper.
    pub source_layer: SourceLayer,
}

/// The layer an application's op streams come from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SourceLayer {
    /// A paper application (`genima-apps`).
    Apps,
    /// A serving workload (`genima-serve`).
    Serve,
}

impl SourceLayer {
    fn spec_span(self) -> &'static str {
        match self {
            SourceLayer::Apps => "apps.spec",
            SourceLayer::Serve => "serve.spec",
        }
    }

    /// Name of the aggregate span of the op-source wrapper.
    fn next_op_span(self) -> &'static str {
        match self {
            SourceLayer::Apps => "apps.next_op",
            SourceLayer::Serve => "serve.next_op",
        }
    }
}

impl CellConfig {
    /// A clean run of `column` on `topo`.
    pub fn clean(topo: Topology, column: Column) -> CellConfig {
        CellConfig {
            topo,
            column,
            seed: RunSeed::default().value(),
            faults: FaultPlan::none(),
            degraded: false,
            obs: ObsConfig::off(),
            source_layer: SourceLayer::Apps,
        }
    }

    /// The equivalent `genima::RunConfig`, for the byte-for-byte check
    /// against `run_app_configured`.
    pub fn run_config(&self) -> RunConfig {
        RunConfig::from_column(self.topo, self.column)
            .with_seed(self.seed)
            .with_faults(self.faults.clone())
            .with_degraded(self.degraded)
            .with_obs(self.obs)
    }
}

/// A built, not yet run, system.
pub struct Built {
    sys: SvmSystem,
    layer: SourceLayer,
    sources: Option<AggHandle>,
    decide: Option<AggHandle>,
    stats: Option<StatsHandle>,
    recorder: Option<ObsHandle>,
    /// Host seconds spent in `App::spec`, `SvmSystem::new` +
    /// `assign_homes` and injector construction.
    pub setup_s: f64,
}

/// How a run ended.
pub enum Outcome {
    /// The run completed.
    Done {
        /// The run's report.
        report: Box<RunReport>,
        /// What the injector did.
        faults: FaultStats,
        /// Spans recorded inside the program.
        obs: ObsReport,
    },
    /// The run aborted: `try_run` returned an error or hit the
    /// `deadlock:` assertion.
    Aborted(String),
}

/// Builds the system for `app` under `cfg`.
pub fn build(app: &dyn App, cfg: &CellConfig) -> Built {
    trace::next_run();
    let traced = trace::on();
    let t0 = Instant::now();
    let spec = trace::span(cfg.source_layer.spec_span(), || app.spec(cfg.topo));
    let mut params = cfg.column.params(cfg.topo);
    params.locks = spec.locks.max(1);
    params.bus_demand_per_proc = spec.bus_demand_per_proc;
    params.warmup_barrier = spec.warmup_barrier;
    params.degraded = cfg.degraded;
    let (sources, agg) = if traced {
        let agg = AggHandle::default();
        let wrapped = spec
            .sources
            .into_iter()
            .map(|s| Box::new(TimedSource::new(s, agg.clone())) as Box<dyn OpSource>)
            .collect();
        (wrapped, Some(agg))
    } else {
        (spec.sources, None)
    };
    let homes = spec.homes;
    let mut sys = trace::span("proto.new", || {
        let mut sys = SvmSystem::new(params, sources);
        for (start, count, node) in homes {
            sys.assign_homes(start, count, node);
        }
        sys
    });
    let (mut stats, mut decide) = (None, None);
    if cfg.faults.is_active() {
        let injector = trace::span("fault.new", || {
            PlanInjector::new(cfg.faults.clone(), RunSeed::new(cfg.seed))
        });
        stats = Some(injector.stats_handle());
        if traced {
            let agg = AggHandle::default();
            sys.set_fault_injector(Box::new(TimedInjector::new(
                Box::new(injector),
                agg.clone(),
            )));
            decide = Some(agg);
        } else {
            sys.set_fault_injector(Box::new(injector));
        }
    }
    let setup_s = t0.elapsed().as_secs_f64();
    let recorder = Recorder::shared(cfg.topo.nodes, &cfg.obs);
    if let Some(h) = recorder.as_ref() {
        sys.set_observer(h.clone());
    }
    Built {
        sys,
        layer: cfg.source_layer,
        sources: agg,
        decide,
        stats,
        recorder,
        setup_s,
    }
}

thread_local! {
    static PANIC_MSG: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// Runs a built system to completion, catching the `deadlock:`
/// assertion. Any other panic is a bug and propagates.
pub fn run(built: Built) -> Outcome {
    let Built {
        sys,
        layer,
        sources,
        decide,
        stats,
        recorder,
        ..
    } = built;
    let result = trace::span("proto.run", move || {
        let mut sys = sys;
        let prev = panic::take_hook();
        panic::set_hook(Box::new(|info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| info.payload().downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            PANIC_MSG.with(|m| *m.borrow_mut() = Some(msg));
        }));
        let result = panic::catch_unwind(AssertUnwindSafe(|| sys.try_run()));
        panic::set_hook(prev);
        // Tearing the system down is the engine's work too.
        drop(sys);
        if let Some(agg) = &sources {
            trace::aggregate(layer.next_op_span(), agg.get());
        }
        if let Some(agg) = &decide {
            trace::aggregate("fault.decide", agg.get());
        }
        result
    });
    match result {
        Ok(Ok(report)) => Outcome::Done {
            report: Box::new(report),
            faults: stats.map(|h| *h.borrow()).unwrap_or_default(),
            obs: recorder.map(|h| h.borrow_mut().take()).unwrap_or_default(),
        },
        Ok(Err(e)) => Outcome::Aborted(e.to_string()),
        Err(payload) => {
            let msg = PANIC_MSG
                .with(|m| m.borrow_mut().take())
                .unwrap_or_default();
            if msg.contains("failed: deadlock:") {
                Outcome::Aborted(msg)
            } else {
                eprintln!("simulator panicked: {msg}");
                panic::resume_unwind(payload)
            }
        }
    }
}

/// Builds and runs one cell.
pub fn run_cell(app: &dyn App, cfg: &CellConfig) -> Outcome {
    run(build(app, cfg))
}
