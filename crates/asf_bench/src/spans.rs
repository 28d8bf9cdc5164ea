//! Tracing for the traced pass (choosing-metrics §4).
//!
//! Two span sources meet here. The driver keeps its own in-memory
//! [`SpanLog`] around every call it makes into the program (`gen`,
//! `ingest`, `initialize`, ...; the spans of one chunk share its chunk
//! index) and writes it out only at exit. The program's existing spans are
//! drained between chunks with `ShardedServer::export_chrome_trace`, parsed
//! with `asf_telemetry::json`, and folded into per-name **self time**
//! (duration minus the part its child spans cover) by [`SelfTimes::fold`] —
//! the JSON is dropped straight after. Because the drain happens after
//! every `ingest` call, a drained span's parent is that chunk's `ingest`
//! span by construction; no clock alignment between the driver's epoch and
//! the server's private one is needed.

use std::collections::BTreeMap;
use std::time::Instant;

use asf_telemetry::json;

/// One driver-side span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// What the driver was calling.
    pub name: &'static str,
    /// Start, ns since the log's epoch.
    pub start_ns: u64,
    /// End, ns since the log's epoch (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The chunk the span belongs to (shared by all spans of one chunk).
    pub chunk: u64,
}

/// The driver's in-memory span list. Disabled logs record nothing, so the
/// untraced pass pays one branch per call site.
#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    /// A log that records iff `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self { enabled, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, chunk: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let parent = self.open.last().copied();
        self.open.push(self.spans.len());
        self.spans.push(Span { name, start_ns, end_ns: 0, parent, chunk });
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let idx = self.open.pop().expect("SpanLog::end without a matching begin");
        self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// The recorded spans, in begin order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The log as Chrome trace-event JSON (complete `X` events carrying
    /// the chunk index and parent), for Perfetto / `chrome://tracing`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"ph\": \"X\", \"ts\": {}.{:03}, \"dur\": {}.{:03}, \
                 \"pid\": 1, \"tid\": 0, \"args\": {{\"chunk\": {}, \"id\": {i}, \"parent\": {parent}}}}}",
                s.name,
                s.start_ns / 1_000,
                s.start_ns % 1_000,
                s.end_ns.saturating_sub(s.start_ns) / 1_000,
                s.end_ns.saturating_sub(s.start_ns) % 1_000,
                s.chunk,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Track ids of `ShardedServer::export_chrome_trace`: the coordinator (0)
/// and its fleet-op router (1) share one thread; shards follow from 2.
const FIRST_SHARD_TID: u64 = 2;

/// A closed program span on one track.
#[derive(Clone, Copy, Debug)]
struct Interval {
    name: usize,
    start: u64,
    end: u64,
}

/// Nests the closed spans of one thread by containment and returns
/// `(root name, name, self ns)` per span. Spans of one thread nest properly
/// (a child begins after and ends before its parent), so sorting by start —
/// longest first among equal starts — visits every parent before its
/// children.
fn nest(mut spans: Vec<Interval>) -> Vec<(usize, usize, u64)> {
    spans.sort_by(|a, b| a.start.cmp(&b.start).then(b.end.cmp(&a.end)));
    // (index into `out`, end, root name) of the open ancestors.
    let mut stack: Vec<(usize, u64, usize)> = Vec::new();
    let mut out: Vec<(usize, usize, u64)> = Vec::with_capacity(spans.len());
    for s in spans {
        while stack.last().is_some_and(|&(_, end, _)| end < s.end || end <= s.start) {
            stack.pop();
        }
        let dur = s.end - s.start;
        let root = match stack.last() {
            Some(&(parent, _, root)) => {
                out[parent].2 = out[parent].2.saturating_sub(dur);
                root
            }
            None => s.name,
        };
        stack.push((out.len(), s.end, root));
        out.push((root, s.name, dur));
    }
    out
}

/// Per-name self time of the program's spans, accumulated chunk by chunk.
///
/// Coordinator-thread keys are `(root, name)`: `root` is the name of the
/// span's outermost ancestor, so fleet operations issued by the chaos
/// repair round can be told from those issued by report handlers.
#[derive(Debug, Default)]
pub struct SelfTimes {
    names: Vec<String>,
    coordinator: BTreeMap<(usize, usize), u64>,
    parallel: BTreeMap<usize, u64>,
    peak_track_events: usize,
}

impl SelfTimes {
    fn intern(&mut self, name: &str) -> usize {
        match self.names.iter().position(|n| n == name) {
            Some(i) => i,
            None => {
                self.names.push(name.to_string());
                self.names.len() - 1
            }
        }
    }

    /// Folds one `export_chrome_trace` document. `inline_shards` says the
    /// shard tracks ran on the coordinator's thread (`ExecMode::Inline`)
    /// and therefore nest inside its spans; otherwise they are kept apart
    /// as parallel work that no sum may include.
    pub fn fold(&mut self, chrome_json: &str, inline_shards: bool) -> Result<(), String> {
        let doc = json::parse(chrome_json)?;
        let events =
            doc.get("traceEvents").and_then(|v| v.as_array()).ok_or("missing traceEvents")?;
        // Per track: closed spans, the stack of open begins, events seen.
        type Track = (Vec<Interval>, Vec<(usize, u64)>, usize);
        let mut tracks: BTreeMap<u64, Track> = BTreeMap::new();
        for ev in events {
            let ph = ev.get("ph").and_then(|v| v.as_str()).ok_or("event without ph")?;
            if ph == "M" {
                continue;
            }
            let tid = ev.get("tid").and_then(|v| v.as_f64()).ok_or("event without tid")? as u64;
            let track = tracks.entry(tid).or_default();
            track.2 += 1;
            if ph != "B" && ph != "E" {
                continue; // instants carry no duration
            }
            let ts_us = ev.get("ts").and_then(|v| v.as_f64()).ok_or("event without ts")?;
            let ts = (ts_us * 1_000.0).round() as u64;
            if ph == "B" {
                let name = ev.get("name").and_then(|v| v.as_str()).ok_or("B without a name")?;
                let name = self.intern(name);
                track.1.push((name, ts));
            } else {
                let (name, start) =
                    track.1.pop().ok_or(format!("E without a matching B on track {tid}"))?;
                track.0.push(Interval { name, start, end: ts.max(start) });
            }
        }
        let mut thread: Vec<Interval> = Vec::new();
        for (tid, (intervals, open, seen)) in tracks {
            if !open.is_empty() {
                return Err(format!("track {tid}: {} span(s) left open at a drain", open.len()));
            }
            self.peak_track_events = self.peak_track_events.max(seen);
            if tid < FIRST_SHARD_TID || inline_shards {
                thread.extend(intervals);
            } else {
                for (_, name, self_ns) in nest(intervals) {
                    *self.parallel.entry(name).or_default() += self_ns;
                }
            }
        }
        for (root, name, self_ns) in nest(thread) {
            *self.coordinator.entry((root, name)).or_default() += self_ns;
        }
        Ok(())
    }

    /// Coordinator-thread self time of every span called `name`, ns.
    pub fn self_ns(&self, name: &str) -> u64 {
        self.sum(|_, n| n == name)
    }

    /// Coordinator-thread self time of the spans `pick(root, name)` keeps.
    pub fn sum(&self, pick: impl Fn(&str, &str) -> bool) -> u64 {
        self.coordinator
            .iter()
            .filter(|((root, name), _)| pick(&self.names[*root], &self.names[*name]))
            .map(|(_, ns)| ns)
            .sum()
    }

    /// Self time of spans recorded on shard worker threads, ns.
    pub fn parallel_ns(&self, name: &str) -> u64 {
        self.parallel.iter().filter(|(n, _)| self.names[**n] == name).map(|(_, ns)| ns).sum()
    }

    /// Largest number of events one trace ring held at a drain. The
    /// program counts suppressed spans inside its rings but exposes no
    /// reader, so ring fill is the observable guard: nothing can have been
    /// dropped while this stays below the ring capacity.
    pub fn peak_track_events(&self) -> usize {
        self.peak_track_events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asf_telemetry::trace::TracePhase;
    use asf_telemetry::{chrome_trace, TraceEvent};

    fn b(name: &'static str, ts_ns: u64) -> TraceEvent {
        TraceEvent { name, phase: TracePhase::Begin, ts_ns, seq: 0 }
    }

    fn e(ts_ns: u64) -> TraceEvent {
        TraceEvent { name: "", phase: TracePhase::End, ts_ns, seq: 0 }
    }

    /// A hand-built chunk: the coordinator scatters (the inline shards
    /// evaluate inside the scatter), gathers, and drains reports, one of
    /// which issues a fleet op on the router track.
    fn chunk() -> String {
        let coordinator = vec![
            b("scatter_window", 1_000),
            e(9_000),
            b("gather_window", 9_000),
            e(9_500),
            b("drain_reports", 10_000),
            e(20_000),
        ];
        let fleet = vec![b("fleet_probe_many", 12_000), e(15_000)];
        let shard0 = vec![
            b("shard_eval", 2_000),
            b("ownership_scan", 2_100),
            e(3_100),
            TraceEvent { name: "spec_tip", phase: TracePhase::Instant, ts_ns: 4_900, seq: 7 },
            e(5_000),
        ];
        let shard1 = vec![b("shard_eval", 5_500), e(8_500)];
        chrome_trace(&[
            (0, "coordinator", coordinator),
            (1, "fleet-ops", fleet),
            (2, "shard-0", shard0),
            (3, "shard-1", shard1),
        ])
    }

    #[test]
    fn self_time_subtracts_children_across_inline_tracks() {
        let mut st = SelfTimes::default();
        st.fold(&chunk(), true).unwrap();
        assert_eq!(st.self_ns("scatter_window"), 8_000 - 3_000 - 3_000);
        assert_eq!(st.self_ns("shard_eval"), (3_000 - 1_000) + 3_000);
        assert_eq!(st.self_ns("ownership_scan"), 1_000);
        assert_eq!(st.self_ns("gather_window"), 500);
        assert_eq!(st.self_ns("drain_reports"), 10_000 - 3_000);
        assert_eq!(st.self_ns("fleet_probe_many"), 3_000);
        // Self times partition the time the outermost spans cover exactly:
        // scatter 8000 + gather 500 + drain 10000.
        assert_eq!(st.sum(|_, _| true), 18_500);
        // Roots tell who issued nested work.
        assert_eq!(
            st.sum(|root, name| root == "drain_reports" && name.starts_with("fleet_")),
            3_000
        );
        assert_eq!(st.sum(|root, _| root == "scatter_window"), 8_000);
        assert_eq!(st.parallel_ns("shard_eval"), 0);
        assert_eq!(st.peak_track_events(), 6);
    }

    #[test]
    fn threaded_shard_tracks_stay_out_of_the_coordinator_sum() {
        let mut st = SelfTimes::default();
        st.fold(&chunk(), false).unwrap();
        assert_eq!(st.self_ns("scatter_window"), 8_000);
        assert_eq!(st.self_ns("shard_eval"), 0);
        assert_eq!(st.parallel_ns("shard_eval"), 2_000 + 3_000);
        assert_eq!(st.parallel_ns("ownership_scan"), 1_000);
        assert_eq!(st.sum(|_, _| true), 18_500);
    }

    #[test]
    fn folds_accumulate_and_reject_unbalanced_tracks() {
        let mut st = SelfTimes::default();
        st.fold(&chunk(), true).unwrap();
        st.fold(&chunk(), true).unwrap();
        assert_eq!(st.self_ns("gather_window"), 1_000);
        let open = chrome_trace(&[(0, "coordinator", vec![b("scatter_window", 5)])]);
        assert!(st.fold(&open, true).unwrap_err().contains("left open"));
        let stray = chrome_trace(&[(0, "coordinator", vec![e(5)])]);
        assert!(st.fold(&stray, true).unwrap_err().contains("without a matching B"));
        assert!(st.fold("{}", true).is_err());
    }

    #[test]
    fn span_log_nests_and_exports() {
        let mut log = SpanLog::new(true);
        log.begin("chunk", 3);
        log.begin("gen", 3);
        log.end();
        log.begin("ingest", 3);
        log.end();
        log.end();
        let spans = log.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.chunk == 3 && s.end_ns >= s.start_ns));
        let doc = json::parse(&log.to_chrome_json()).unwrap();
        assert_eq!(doc.get("traceEvents").and_then(|v| v.as_array()).unwrap().len(), 3);

        let mut off = SpanLog::new(false);
        off.begin("gen", 0);
        off.end();
        assert!(off.spans().is_empty());
    }
}
