//! Observed single runs: attach [`parbs_obs`] sinks to every DRAM channel,
//! run a mix once, and collect the trace payload, counter summary and
//! monitor reports — the engine behind `parbs-sim --trace-out`,
//! `--check-invariants` and `--spec`.
//!
//! Channel 0 (where most requests of a 1-channel Table 2 system land)
//! carries the trace and counter sinks; every channel gets a
//! [`parbs_monitor::prelude::invariants`] monitor and the DRAM protocol
//! checker when invariant checking is on, since the PAR-BS batching rules
//! hold per controller.

use parbs_monitor::Spec;
use parbs_obs::{downcast_sink, ChromeTraceSink, CounterSink, EventSink, JsonlSink};
use parbs_workloads::MixSpec;

use crate::memory::alarm_count;
use crate::{EvalOverrides, Harness, RunResult, SchedulerKind, SimConfig};

/// Serialization format for `--trace-out`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceFormat {
    /// Chrome trace-event JSON (load in Perfetto / `chrome://tracing`).
    #[default]
    Chrome,
    /// One JSON object per line, every event verbatim.
    Jsonl,
}

impl TraceFormat {
    /// Parses a `--trace-format` argument.
    #[must_use]
    pub fn parse(s: &str) -> Option<TraceFormat> {
        match s {
            "chrome" => Some(TraceFormat::Chrome),
            "jsonl" => Some(TraceFormat::Jsonl),
            _ => None,
        }
    }

    /// The CLI name of the format.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TraceFormat::Chrome => "chrome",
            TraceFormat::Jsonl => "jsonl",
        }
    }
}

/// What to observe during a [`run_observed`] run.
#[derive(Debug, Clone, Default)]
pub struct ObserveOptions {
    /// Run the DRAM protocol checker and a
    /// [`parbs_monitor::prelude::invariants`] monitor on every channel
    /// (alongside any `spec` monitor).
    pub check_invariants: bool,
    /// Serialize channel 0's event stream in this format.
    pub trace: Option<TraceFormat>,
    /// Attach a [`parbs_monitor`] monitor compiled from this spec to every
    /// channel.
    pub spec: Option<Spec>,
}

/// Monitor outcome of one channel.
#[derive(Debug, Clone)]
pub struct MonitorReport {
    /// Channel index.
    pub channel: usize,
    /// One-line monitor summary (events monitored, alarms).
    pub summary: String,
    /// Formatted alarms (`[severity] name cycle N: message`).
    pub alarms: Vec<String>,
    /// Fire count per trigger: `(name, severity, count)`.
    pub trigger_counts: Vec<(String, parbs_monitor::Severity, u64)>,
    /// Events this channel's monitor processed.
    pub events: u64,
    /// True when no error-severity trigger fired on this channel.
    pub ok: bool,
}

/// Everything collected from one observed run.
#[derive(Debug)]
pub struct ObservedRun {
    /// The ordinary simulation result.
    pub result: RunResult,
    /// Serialized channel-0 trace, when a format was requested.
    pub trace: Option<String>,
    /// Channel-0 counter summary (always collected).
    pub counters: String,
    /// Per-channel invariants-monitor reports (empty unless
    /// `check_invariants`).
    pub invariants: Vec<MonitorReport>,
    /// Total invariant alarms over all channels.
    pub violation_count: usize,
    /// Per-channel monitor reports (empty unless a spec was given).
    pub monitors: Vec<MonitorReport>,
    /// Total monitor alarms (warn + error) over all channels.
    pub alarm_count: usize,
}

/// Runs `mix` once under `scheduler` with sinks attached per `opts`: the
/// monitors on every channel, then a counter sink and the trace serializer
/// on channel 0.
///
/// # Panics
///
/// Panics if the mix's core count differs from `cfg.cores`, or on a DRAM
/// protocol violation when `opts.check_invariants` is set.
#[must_use]
pub fn run_observed(
    cfg: SimConfig,
    mix: &MixSpec,
    scheduler: &SchedulerKind,
    opts: &ObserveOptions,
) -> ObservedRun {
    let mut sys = Harness::new(cfg).shared_system(mix, scheduler, &EvalOverrides::none());
    let mut channel0: Vec<Box<dyn EventSink>> = vec![Box::new(CounterSink::new())];
    match opts.trace {
        Some(TraceFormat::Chrome) => channel0.push(Box::new(ChromeTraceSink::new())),
        Some(TraceFormat::Jsonl) => channel0.push(Box::new(JsonlSink::new(Vec::new()))),
        None => {}
    }
    sys.observe(opts.check_invariants, opts.spec.as_ref(), channel0);
    let result = sys.run();
    let detached = sys.detach();
    // Channel 0's sinks come back in push order: counters, then the trace.
    let mut channel0 = detached.channel0.into_iter();
    let Some(Ok(counters)) = channel0.next().map(downcast_sink::<CounterSink>) else {
        unreachable!("channel 0 carries a counter sink")
    };
    let trace = channel0.next().map(|sink| match downcast_sink::<ChromeTraceSink>(sink) {
        Ok(chrome) => chrome.finish(),
        Err(sink) => match downcast_sink::<JsonlSink<Vec<u8>>>(sink) {
            Ok(jsonl) => jsonl.into_string(),
            Err(_) => unreachable!("the trace sink is chrome or jsonl"),
        },
    });
    ObservedRun {
        result,
        trace,
        counters: counters.summary(),
        violation_count: alarm_count(&detached.invariants),
        invariants: detached.invariants,
        alarm_count: alarm_count(&detached.monitors),
        monitors: detached.monitors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parbs_workloads::case_study_1;

    fn quick_cfg(cores: usize) -> SimConfig {
        SimConfig { target_instructions: 1_500, ..SimConfig::for_cores(cores) }
    }

    #[test]
    fn observed_parbs_run_is_clean_and_produces_a_trace() {
        let mix = case_study_1();
        let opts = ObserveOptions {
            check_invariants: true,
            trace: Some(TraceFormat::Chrome),
            spec: Some(parbs_monitor::prelude::invariants()),
        };
        let obs = run_observed(
            quick_cfg(mix.cores()),
            &mix,
            &SchedulerKind::ParBs(Default::default()),
            &opts,
        );
        assert!(!obs.result.timed_out);
        assert_eq!(obs.violation_count, 0, "{:?}", obs.invariants);
        assert!(!obs.invariants.is_empty(), "every channel reports");
        let trace = obs.trace.expect("chrome trace requested");
        assert!(trace.starts_with('{') && trace.contains("\"traceEvents\""));
        assert!(trace.contains("batch "), "batch spans present");
        assert!(obs.counters.contains("thread"), "counter summary: {}", obs.counters);
        assert_eq!(obs.alarm_count, 0, "{:?}", obs.monitors);
        assert!(!obs.monitors.is_empty(), "every channel reports a monitor");
        assert!(obs.monitors.iter().all(|m| m.ok));
        // Each channel's monitor carries the four invariant triggers.
        assert_eq!(obs.monitors[0].trigger_counts.len(), 4);
        assert_eq!(obs.invariants[0].trigger_counts.len(), 4);
    }

    #[test]
    fn invariant_checking_combines_with_a_user_spec() {
        let mix = case_study_1();
        let opts = ObserveOptions {
            check_invariants: true,
            trace: None,
            spec: Some(parbs_monitor::prelude::qos()),
        };
        let obs = run_observed(quick_cfg(mix.cores()), &mix, &SchedulerKind::FrFcfs, &opts);
        assert_eq!(obs.invariants.len(), obs.monitors.len(), "both monitor every channel");
        assert_eq!(obs.invariants[0].trigger_counts.len(), 4, "the invariants prelude");
        assert_eq!(obs.monitors[0].trigger_counts.len(), 3, "the user's QoS spec");
        assert_eq!(obs.invariants[0].events, obs.monitors[0].events, "same event stream");
        assert_eq!(obs.violation_count, 0, "{:?}", obs.invariants);
    }

    #[test]
    fn jsonl_format_emits_one_object_per_line() {
        let mix = case_study_1();
        let opts =
            ObserveOptions { check_invariants: false, trace: Some(TraceFormat::Jsonl), spec: None };
        let obs = run_observed(quick_cfg(mix.cores()), &mix, &SchedulerKind::FrFcfs, &opts);
        let trace = obs.trace.expect("jsonl trace requested");
        let mut lines = 0usize;
        for line in trace.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            lines += 1;
        }
        assert!(lines > 100, "a real run produces many events, got {lines}");
        assert!(obs.invariants.is_empty(), "no invariants monitor attached");
    }

    #[test]
    fn trace_format_parses_cli_names() {
        assert_eq!(TraceFormat::parse("chrome"), Some(TraceFormat::Chrome));
        assert_eq!(TraceFormat::parse("jsonl"), Some(TraceFormat::Jsonl));
        assert_eq!(TraceFormat::parse("xml"), None);
        assert_eq!(TraceFormat::default().name(), "chrome");
    }
}
