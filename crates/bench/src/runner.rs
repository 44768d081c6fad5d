//! Shared experiment runner: single apps, workloads, and the full
//! units × schemes matrix that Figs 15–18 all consume.

use desim::SimDelta;
use vip_core::{Scheme, SystemConfig, SystemReport, SystemSim};
use workloads::{App, Workload};

use crate::pool;

/// Settings shared by every experiment run.
#[derive(Debug, Clone, Copy)]
pub struct RunSettings {
    /// Simulated span per run.
    pub duration: SimDelta,
    /// Seed for the workload's stochastic elements (touch traces).
    pub seed: u64,
}

impl Default for RunSettings {
    fn default() -> Self {
        RunSettings {
            duration: SimDelta::from_ms(400),
            seed: 0x11E5CA,
        }
    }
}

impl RunSettings {
    /// Settings with a custom duration in milliseconds.
    pub fn with_ms(ms: u64) -> Self {
        RunSettings {
            duration: SimDelta::from_ms(ms),
            ..Default::default()
        }
    }

    /// The Table 3 platform under `scheme` at these settings — the exact
    /// config every matrix/golden cell runs (public so the what-if
    /// server and the snapshot tests resolve identically).
    pub fn config(&self, scheme: Scheme) -> SystemConfig {
        let mut cfg = SystemConfig::table3(scheme);
        cfg.duration = self.duration;
        cfg.seed = self.seed;
        cfg
    }

    /// One interned config per scheme (indexed by `Scheme::ALL` position),
    /// built once and shared by every matrix cell instead of
    /// re-deriving the Table 3 platform per run.
    fn configs(&self) -> Vec<SystemConfig> {
        Scheme::ALL.iter().map(|&s| self.config(s)).collect()
    }
}

/// Runs one single-application unit under a scheme.
pub fn run_app(app: App, scheme: Scheme, settings: RunSettings) -> SystemReport {
    let spec = app.spec(settings.seed, 0);
    SystemSim::run(settings.config(scheme), spec.flows)
}

/// Runs one Table 2 workload under a scheme.
pub fn run_workload(wkld: Workload, scheme: Scheme, settings: RunSettings) -> SystemReport {
    let spec = wkld.spec(settings.seed);
    SystemSim::run(settings.config(scheme), spec.flows())
}

/// A column of the paper's evaluation figures: a single app (A1–A7) or a
/// multi-app workload (W1–W8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Unit {
    /// One Table 1 application running alone.
    App(App),
    /// One Table 2 multi-application workload.
    Wkld(Workload),
}

impl Unit {
    /// A1..A7 then W1..W8 — the x-axis of Figs 15–18.
    pub fn all() -> Vec<Unit> {
        App::ALL
            .iter()
            .map(|&a| Unit::App(a))
            .chain(Workload::ALL.iter().map(|&w| Unit::Wkld(w)))
            .collect()
    }

    /// The paper's axis label.
    pub fn label(self) -> &'static str {
        match self {
            Unit::App(a) => a.id(),
            Unit::Wkld(w) => w.id(),
        }
    }

    /// Whether this unit is a multi-application workload.
    pub fn is_multi_app(self) -> bool {
        matches!(self, Unit::Wkld(_))
    }

    /// Runs this unit under a scheme.
    pub fn run(self, scheme: Scheme, settings: RunSettings) -> SystemReport {
        match self {
            Unit::App(a) => run_app(a, scheme, settings),
            Unit::Wkld(w) => run_workload(w, scheme, settings),
        }
    }

    /// This unit's flow set (what [`Unit::run`] would simulate). Public
    /// so callers can drive a [`SimCell`](vip_core::SimCell) directly.
    pub fn flows(self, settings: RunSettings) -> Vec<vip_core::FlowSpec> {
        match self {
            Unit::App(a) => a.spec(settings.seed, 0).flows,
            Unit::Wkld(w) => w.spec(settings.seed).flows(),
        }
    }

    /// Runs this unit under a scheme with the runtime sanitizer armed.
    ///
    /// The report is digest-bit-identical to [`Unit::run`]'s (the golden
    /// test proves it over the whole pinned matrix); the summary counts
    /// the invariant checks that passed.
    #[cfg(feature = "audit")]
    pub fn run_audited(
        self,
        scheme: Scheme,
        settings: RunSettings,
    ) -> (SystemReport, vip_core::AuditSummary) {
        let mut cell = vip_core::SimCell::new(settings.config(scheme), self.flows(settings));
        let out = cell.runner().audited().run();
        (out.report, out.audit.expect("audited run"))
    }
}

/// The full evaluation matrix: every unit under every scheme. Figs 15,
/// 16, 17 and 18 are different projections of this one (expensive)
/// computation, so it is built once and shared.
#[derive(Debug)]
pub struct Matrix {
    /// Settings the matrix was built with.
    pub settings: RunSettings,
    /// `results[u][s]` = report of the `u`-th unit run under
    /// `Scheme::ALL[s]`.
    pub results: Vec<Vec<SystemReport>>,
    /// The units run, parallel to `results`.
    units: Vec<Unit>,
}

impl Matrix {
    /// Runs the complete matrix (15 units × 5 schemes).
    pub fn run(settings: RunSettings) -> Self {
        Self::run_subset(settings, &Unit::all())
    }

    /// Runs the matrix over a subset of units (for quick tests). Runs are
    /// independent simulations, so they execute on parallel threads, one
    /// per (unit, scheme) cell, bounded by the host's parallelism.
    pub fn run_subset(settings: RunSettings, units: &[Unit]) -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        Self::run_subset_workers(settings, units, workers)
    }

    /// Runs the matrix over a subset of units on exactly `workers` threads.
    ///
    /// Workers claim cells in order and run each on their one warm
    /// simulation cell; the outcome is independent of the worker count
    /// (each cell is a deterministic, isolated simulation).
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn run_subset_workers(settings: RunSettings, units: &[Unit], workers: usize) -> Self {
        let configs = settings.configs();
        let cells: Vec<(usize, usize)> = (0..units.len())
            .flat_map(|u| (0..configs.len()).map(move |s| (u, s)))
            .collect();
        let mut slots = vec![vec![None; configs.len()]; units.len()];
        pool::run_each(
            &cells,
            workers,
            |&(u, s), warm| {
                let flows = units[u].flows(settings);
                (u, s, pool::shape(warm, &configs[s], &flows).run())
            },
            |_, (u, s, report)| slots[u][s] = Some(report),
        );
        let results = slots
            .into_iter()
            .map(|row| row.into_iter().map(|r| r.expect("cell computed")).collect())
            .collect();
        Matrix {
            settings,
            results,
            units: units.to_vec(),
        }
    }

    /// The paper's label of row `u`'s unit.
    pub fn unit_label(&self, u: usize) -> &'static str {
        self.units[u].label()
    }

    /// The report of unit `u` under `scheme`.
    pub fn report(&self, u: usize, scheme: Scheme) -> &SystemReport {
        let s = Scheme::ALL
            .iter()
            .position(|&x| x == scheme)
            .expect("known");
        &self.results[u][s]
    }

    /// A metric for every unit × scheme, normalized to the baseline scheme
    /// of the same unit. Rows where the baseline metric is zero normalize
    /// to zero.
    pub fn normalized<F: Fn(&SystemReport) -> f64>(&self, metric: F) -> Vec<Vec<f64>> {
        self.results
            .iter()
            .map(|row| {
                let base = metric(&row[0]);
                row.iter()
                    .map(|r| if base > 0.0 { metric(r) / base } else { 0.0 })
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_cover_the_axis() {
        let units = Unit::all();
        assert_eq!(units.len(), 15);
        assert_eq!(units[0].label(), "A1");
        assert_eq!(units[7].label(), "W1");
        assert!(!units[0].is_multi_app());
        assert!(units[14].is_multi_app());
    }

    #[test]
    fn quick_app_run_completes() {
        let rep = run_app(App::A5, Scheme::Vip, RunSettings::with_ms(120));
        assert!(rep.frames_completed > 0);
    }

    #[test]
    fn matrix_subset_and_normalization() {
        let m = Matrix::run_subset(RunSettings::with_ms(120), &[Unit::App(App::A3)]);
        assert_eq!(m.unit_label(0), "A3");
        assert_eq!(m.results.len(), 1);
        assert_eq!(m.results[0].len(), 5);
        let norm = m.normalized(|r| r.energy.total_j());
        assert!((norm[0][0] - 1.0).abs() < 1e-12, "baseline normalizes to 1");
        assert!(norm[0].iter().all(|&x| x > 0.0));
    }
}
