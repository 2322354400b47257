//! A workload run's result: named metrics with units and sample counts,
//! and the output checks, each of which counts as one operation.

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measurement, with all its digits.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples the value summarises.
    pub samples: u64,
}

/// Metrics, operation counts and check failures of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every metric the run measured.
    pub metrics: Vec<Metric>,
    /// Operations attempted: measured operations plus output checks.
    pub attempted: u64,
    /// Operations that failed, failed checks included.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// Observations worth printing that are not failures.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str, samples: u64) {
        self.metrics.push(Metric { name, value, unit, samples });
    }

    /// Counts `n` operations that succeeded.
    pub fn ok_ops(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one check; a false `ok` is a failed operation described by
    /// `what`.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what.into());
        }
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64, what: impl Into<String>) {
        self.attempted += attempted;
        if failed > 0 {
            self.failed += failed;
            self.failures.push(format!("{failed} of {attempted} {}", what.into()));
        }
    }

    /// The metric named `name`, if measured.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}
