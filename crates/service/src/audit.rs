//! JSONL audit log of scheduler decisions.
//!
//! Every admission, rejection, dispatch, completion and starvation
//! event is appended as one self-describing JSON object per line, so a
//! deployment (or a test) can replay exactly what the scheduler did
//! and why — which lane was served, under which cause, how many jobs
//! one dispatch group carried, and what the lane backlogs looked like
//! at the moment of decision. The encoder is hand-rolled: events are
//! flat maps of identifiers and small integers, which keeps the
//! serialisation trivially reviewable and the crate dependency-free.

use std::collections::VecDeque;

use crate::lane::Lane;

/// Audit schema version, bumped when event shapes change.
///
/// Version 2: dispatch and completion events carry a `group` id tying
/// each completion to the kernel dispatch that produced it (coalesced
/// and batched dispatches retire several requests per group, which v1
/// could not correlate post-hoc), and the log opens with a `meta` line
/// stamping the service configuration the run used.
///
/// v3: meta no longer stamps `max_in_flight`; execution is always in-tick.
pub const SCHEMA_VERSION: u32 = 3;

/// Why the scheduler served a lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PickCause {
    /// The lane exceeded the starvation threshold.
    Starvation,
    /// The lane was below its minimum budget share.
    BudgetDeficit,
    /// No lane was starved or in deficit; priority order decided.
    Priority,
}

impl PickCause {
    /// Audit-log spelling.
    pub fn name(self) -> &'static str {
        match self {
            PickCause::Starvation => "starvation",
            PickCause::BudgetDeficit => "budget_deficit",
            PickCause::Priority => "priority",
        }
    }
}

/// One structured audit event. Rendered to JSONL by [`AuditLog`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditEvent {
    /// The first line of every log: the service configuration this run
    /// executed under.
    Meta {
        /// Configured coalescing/batching width.
        max_batch: usize,
        /// Scheduler fairness window (picks).
        window: usize,
    },
    /// A request passed admission control and was enqueued.
    Admit {
        /// Scheduler tick at admission.
        tick: u64,
        /// Tenant the request belongs to.
        tenant: usize,
        /// Request id.
        request: u64,
        /// Lane the request was routed to.
        lane: Lane,
    },
    /// A request was refused at admission.
    Reject {
        /// Scheduler tick at rejection.
        tick: u64,
        /// Tenant the request belonged to.
        tenant: usize,
        /// Machine-readable refusal reason.
        reason: &'static str,
    },
    /// One kernel dispatch was issued for a lane.
    Dispatch {
        /// Scheduler tick of the dispatch.
        tick: u64,
        /// Dispatch-group id (monotonic per dispatch); completion
        /// events carry the id of the group that retired them.
        group: u64,
        /// Lane served.
        lane: Lane,
        /// Why this lane was chosen.
        cause: PickCause,
        /// Number of requests coalesced into this dispatch.
        jobs: usize,
        /// Per-lane backlog (`[interactive, timed, bulk]`) *before*
        /// the dispatch — what the scheduler saw when deciding.
        pending: [usize; 3],
    },
    /// A request finished and its result became collectable.
    Complete {
        /// Scheduler tick of completion.
        tick: u64,
        /// The dispatch group that produced this result.
        group: u64,
        /// Request id.
        request: u64,
    },
    /// A lane crossed the starvation threshold and was force-served.
    Starvation {
        /// Scheduler tick of detection.
        tick: u64,
        /// The starved lane.
        lane: Lane,
        /// Ticks the lane's head job had waited.
        waited: u64,
    },
}

impl AuditEvent {
    /// Renders the event as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        match self {
            AuditEvent::Meta { max_batch, window } => format!(
                "{{\"schema_version\":{SCHEMA_VERSION},\"event\":\"meta\",\
                 \"max_batch\":{max_batch},\"window\":{window}}}"
            ),
            AuditEvent::Admit {
                tick,
                tenant,
                request,
                lane,
            } => format!(
                "{{\"schema_version\":{SCHEMA_VERSION},\"event\":\"admit\",\"tick\":{tick},\
                 \"tenant\":{tenant},\"request\":{request},\"lane\":\"{}\"}}",
                lane.name()
            ),
            AuditEvent::Reject {
                tick,
                tenant,
                reason,
            } => format!(
                "{{\"schema_version\":{SCHEMA_VERSION},\"event\":\"reject\",\"tick\":{tick},\
                 \"tenant\":{tenant},\"reason\":\"{reason}\"}}"
            ),
            AuditEvent::Dispatch {
                tick,
                group,
                lane,
                cause,
                jobs,
                pending,
            } => format!(
                "{{\"schema_version\":{SCHEMA_VERSION},\"event\":\"dispatch\",\"tick\":{tick},\
                 \"group\":{group},\"lane\":\"{}\",\"cause\":\"{}\",\"jobs\":{jobs},\
                 \"pending\":[{},{},{}]}}",
                lane.name(),
                cause.name(),
                pending[0],
                pending[1],
                pending[2]
            ),
            AuditEvent::Complete {
                tick,
                group,
                request,
            } => format!(
                "{{\"schema_version\":{SCHEMA_VERSION},\"event\":\"complete\",\"tick\":{tick},\
                 \"group\":{group},\"request\":{request}}}"
            ),
            AuditEvent::Starvation { tick, lane, waited } => format!(
                "{{\"schema_version\":{SCHEMA_VERSION},\"event\":\"starvation\",\"tick\":{tick},\
                 \"lane\":\"{}\",\"waited\":{waited}}}",
                lane.name()
            ),
        }
    }
}

/// An append-only audit log: structured events plus their JSONL
/// rendering, in admission order.
#[derive(Debug, Default)]
pub struct AuditLog {
    events: VecDeque<AuditEvent>,
}

impl AuditLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one event.
    pub fn push(&mut self, ev: AuditEvent) {
        self.events.push_back(ev);
    }

    /// All events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &AuditEvent> {
        self.events.iter()
    }

    /// Number of events logged.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The full log as JSONL (one JSON object per line, trailing
    /// newline included when non-empty).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            out.push_str(&ev.to_json());
            out.push('\n');
        }
        out
    }

    /// Writes the JSONL rendering to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_lines_are_one_object_each_and_versioned() {
        let mut log = AuditLog::new();
        log.push(AuditEvent::Meta {
            max_batch: 8,
            window: 20,
        });
        log.push(AuditEvent::Admit {
            tick: 0,
            tenant: 2,
            request: 7,
            lane: Lane::Bulk,
        });
        log.push(AuditEvent::Dispatch {
            tick: 1,
            group: 0,
            lane: Lane::Bulk,
            cause: PickCause::BudgetDeficit,
            jobs: 3,
            pending: [1, 0, 4],
        });
        log.push(AuditEvent::Starvation {
            tick: 2,
            lane: Lane::Timed,
            waited: 26,
        });
        let jsonl = log.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 4);
        for line in &lines {
            assert!(line.starts_with("{\"schema_version\":3,"), "{line}");
            assert!(line.ends_with('}'), "{line}");
            // Flat objects: every key and string value is quoted, no
            // nested braces beyond the object itself.
            assert_eq!(line.matches('{').count(), 1, "{line}");
        }
        assert_eq!(
            lines[0],
            "{\"schema_version\":3,\"event\":\"meta\",\"max_batch\":8,\"window\":20}"
        );
        assert!(lines[1].contains("\"event\":\"admit\"") && lines[1].contains("\"request\":7"));
        assert!(
            lines[2].contains("\"jobs\":3")
                && lines[2].contains("\"group\":0")
                && lines[2].contains("\"cause\":\"budget_deficit\"")
                && lines[2].contains("\"pending\":[1,0,4]")
        );
        assert!(lines[3].contains("\"waited\":26"));
    }

    /// Pulls `"key":<u64>` out of one rendered JSONL line.
    fn field(line: &str, key: &str) -> Option<u64> {
        let at = line.find(&format!("\"{key}\":"))? + key.len() + 3;
        let digits: String = line[at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits.parse().ok()
    }

    /// The schema-v2 additions must survive a round trip through the
    /// JSONL rendering: every dispatch's `group` is recoverable, and
    /// each completion names the dispatch group that produced it —
    /// the post-hoc correlation coalesced batches previously lost.
    #[test]
    fn group_ids_parse_back_and_correlate_dispatch_to_completion() {
        let mut log = AuditLog::new();
        // Group 0 coalesces requests 3 and 5; group 1 serves request 4.
        log.push(AuditEvent::Dispatch {
            tick: 2,
            group: 0,
            lane: Lane::Bulk,
            cause: PickCause::Priority,
            jobs: 2,
            pending: [0, 0, 2],
        });
        log.push(AuditEvent::Complete {
            tick: 2,
            group: 0,
            request: 3,
        });
        log.push(AuditEvent::Complete {
            tick: 2,
            group: 0,
            request: 5,
        });
        log.push(AuditEvent::Dispatch {
            tick: 3,
            group: 1,
            lane: Lane::Interactive,
            cause: PickCause::Priority,
            jobs: 1,
            pending: [1, 0, 0],
        });
        log.push(AuditEvent::Complete {
            tick: 3,
            group: 1,
            request: 4,
        });

        let jsonl = log.to_jsonl();
        let mut jobs_by_group = std::collections::HashMap::new();
        let mut completions_by_group = std::collections::HashMap::<u64, Vec<u64>>::new();
        for line in jsonl.lines() {
            assert_eq!(
                field(line, "schema_version"),
                Some(u64::from(SCHEMA_VERSION))
            );
            let group = field(line, "group").expect("v2 events carry a group id");
            if line.contains("\"event\":\"dispatch\"") {
                jobs_by_group.insert(group, field(line, "jobs").unwrap());
            } else {
                completions_by_group
                    .entry(group)
                    .or_default()
                    .push(field(line, "request").unwrap());
            }
        }
        // Every completion correlates to a dispatched group, and the
        // advertised job count matches the retired requests.
        assert_eq!(jobs_by_group.len(), 2);
        assert_eq!(completions_by_group[&0], vec![3, 5]);
        assert_eq!(completions_by_group[&1], vec![4]);
        for (group, jobs) in jobs_by_group {
            assert_eq!(completions_by_group[&group].len() as u64, jobs);
        }
    }
}
