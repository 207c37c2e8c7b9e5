//! QoS lanes and their budget configuration.
//!
//! A serving deployment multiplexes three very different traffic
//! classes over one kernel substrate: latency-bound boolean gates,
//! deadline-tagged rotations, and throughput-bound analytics scans.
//! Each class rides its own *lane* with a guaranteed minimum share of
//! dispatches, so a flood on one lane cannot starve the others — the
//! classic QoS guarantee, enforced here at the granularity the
//! scheduler actually controls (kernel dispatches).

/// One of the three service QoS lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lane {
    /// Latency-sensitive TFHE gate jobs (one PBS each).
    Interactive,
    /// Deadline-tagged CKKS work.
    Timed,
    /// Throughput-oriented CKKS analytics.
    Bulk,
}

impl Lane {
    /// All lanes, in fixed priority order (highest first).
    pub const ALL: [Lane; 3] = [Lane::Interactive, Lane::Timed, Lane::Bulk];

    /// Dense index for per-lane arrays.
    pub fn index(self) -> usize {
        match self {
            Lane::Interactive => 0,
            Lane::Timed => 1,
            Lane::Bulk => 2,
        }
    }

    /// Lane name as it appears in the JSONL audit log.
    pub fn name(self) -> &'static str {
        match self {
            Lane::Interactive => "interactive",
            Lane::Timed => "timed",
            Lane::Bulk => "bulk",
        }
    }
}

/// Per-lane minimum dispatch shares, in percent. The scheduler
/// guarantees each backlogged lane at least its minimum share of
/// dispatches over the enforcement window; slack (anything left after
/// the minimums) drains in priority order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneBudgets {
    /// Minimum dispatch share for [`Lane::Interactive`], percent.
    pub interactive_min: u32,
    /// Minimum dispatch share for [`Lane::Timed`], percent.
    pub timed_min: u32,
    /// Minimum dispatch share for [`Lane::Bulk`], percent.
    pub bulk_min: u32,
}

/// A [`LaneBudgets`] whose minimums exceed 100% — unsatisfiable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetError {
    /// The offending sum of minimum shares.
    pub sum: u32,
}

impl std::fmt::Display for BudgetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "lane minimum shares sum to {}%, which exceeds 100%",
            self.sum
        )
    }
}

impl std::error::Error for BudgetError {}

impl LaneBudgets {
    /// The default serving split: interactive gates are guaranteed
    /// 20%, timed work 30%, bulk analytics 50% — the minimums sum to
    /// exactly 100%, so under full backlog every lane is pegged to its
    /// guarantee.
    pub fn default_split() -> Self {
        LaneBudgets {
            interactive_min: 20,
            timed_min: 30,
            bulk_min: 50,
        }
    }

    /// Checks the minimums are jointly satisfiable (sum at most 100%).
    pub fn validate(&self) -> Result<(), BudgetError> {
        let sum = self.interactive_min + self.timed_min + self.bulk_min;
        if sum > 100 {
            Err(BudgetError { sum })
        } else {
            Ok(())
        }
    }

    /// Minimum share for `lane`, percent.
    pub fn min_for(&self, lane: Lane) -> u32 {
        match lane {
            Lane::Interactive => self.interactive_min,
            Lane::Timed => self.timed_min,
            Lane::Bulk => self.bulk_min,
        }
    }
}

/// When the scheduler must declare a lane starved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StarvationPolicy {
    /// A backlogged lane left unserved this many scheduler ticks is
    /// starved: it is dispatched immediately (ahead of budget
    /// arithmetic) and a `starvation` event is written to the audit
    /// log.
    pub max_wait_ticks: u64,
}

impl StarvationPolicy {
    /// Default threshold: a lane may wait at most 25 dispatches.
    pub fn default_policy() -> Self {
        StarvationPolicy { max_wait_ticks: 25 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_validate_against_the_100_percent_ceiling() {
        assert!(LaneBudgets::default_split().validate().is_ok());
        let over = LaneBudgets {
            interactive_min: 40,
            timed_min: 40,
            bulk_min: 30,
        };
        let err = over.validate().unwrap_err();
        assert_eq!(err.sum, 110);
        assert!(err.to_string().contains("110"));
    }
}
