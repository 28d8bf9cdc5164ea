//! Workload abstraction: time-ordered streams of value updates.
//!
//! Generators live in the `asf-workloads` crate; this module defines the
//! interface the [`crate::engine::Engine`] consumes plus a trivial in-memory
//! implementation for tests and examples.

use simkit::SimTime;
use streamnet::StreamId;

/// One value update produced by a workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UpdateEvent {
    /// Simulation time of the update.
    pub time: SimTime,
    /// Which stream's value changed.
    pub stream: StreamId,
    /// The new value.
    pub value: f64,
}

/// A reusable structure-of-arrays batch of update events: times, streams,
/// and values in three parallel columns.
///
/// This is the unit of ingestion shared by every consumer — the serial
/// [`crate::engine::Engine`], the differential baselines, and the sharded
/// `asf-server`, which wraps a filled batch in an `Arc` and *broadcasts*
/// it to its shards so each one selects its own events from the shared
/// columns instead of receiving a coordinator-built copy. Columnar layout
/// keeps that per-shard ownership scan sequential over dense `u32`/`f64`
/// arrays, and a cleared batch retains its capacity, so feeders can reuse
/// one allocation across rounds ([`Workload::next_batch`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EventBatch {
    times: Vec<SimTime>,
    streams: Vec<StreamId>,
    values: Vec<f64>,
}

impl EventBatch {
    /// Payload bytes of one event across the three columns.
    pub const EVENT_BYTES: usize = std::mem::size_of::<SimTime>()
        + std::mem::size_of::<StreamId>()
        + std::mem::size_of::<f64>();

    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty batch with room for `n` events per column.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            times: Vec::with_capacity(n),
            streams: Vec::with_capacity(n),
            values: Vec::with_capacity(n),
        }
    }

    /// Number of events in the batch.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the batch holds no events.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Drops all events, retaining the column capacities.
    pub fn clear(&mut self) {
        self.times.clear();
        self.streams.clear();
        self.values.clear();
    }

    /// Appends one event.
    pub fn push(&mut self, ev: UpdateEvent) {
        self.push_parts(ev.time, ev.stream, ev.value);
    }

    /// Appends one event given as its columns.
    pub fn push_parts(&mut self, time: SimTime, stream: StreamId, value: f64) {
        self.times.push(time);
        self.streams.push(stream);
        self.values.push(value);
    }

    /// Appends a slice of events (one pass per column).
    pub fn extend_from_events(&mut self, events: &[UpdateEvent]) {
        self.times.extend(events.iter().map(|ev| ev.time));
        self.streams.extend(events.iter().map(|ev| ev.stream));
        self.values.extend(events.iter().map(|ev| ev.value));
    }

    /// Appends the `start..end` range of another batch.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn extend_from_batch(&mut self, other: &EventBatch, start: usize, end: usize) {
        self.times.extend_from_slice(&other.times[start..end]);
        self.streams.extend_from_slice(&other.streams[start..end]);
        self.values.extend_from_slice(&other.values[start..end]);
    }

    /// The event at position `i`, reassembled from the columns.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn get(&self, i: usize) -> UpdateEvent {
        UpdateEvent { time: self.times[i], stream: self.streams[i], value: self.values[i] }
    }

    /// The time column.
    pub fn times(&self) -> &[SimTime] {
        &self.times
    }

    /// The stream-id column.
    pub fn streams(&self) -> &[StreamId] {
        &self.streams
    }

    /// The value column.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Iterates the events in order.
    pub fn iter(&self) -> impl Iterator<Item = UpdateEvent> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Payload bytes of the three columns (capacity excluded) — what a
    /// copying scatter would have to move per consumer.
    pub fn byte_len(&self) -> usize {
        self.len() * Self::EVENT_BYTES
    }

    /// Serializes the batch column-by-column (times, streams, values) for
    /// the durability journal.
    pub fn encode(&self, w: &mut asf_persist::StateWriter) {
        w.put_u64(self.len() as u64);
        for &t in &self.times {
            w.put_f64(t);
        }
        for &s in &self.streams {
            w.put_u32(s.0);
        }
        for &v in &self.values {
            w.put_f64(v);
        }
    }

    /// Decodes a batch written by [`EventBatch::encode`], re-validating the
    /// workload invariants (time-ordered, finite values) so a corrupt
    /// journal entry is rejected instead of replayed.
    pub fn decode(r: &mut asf_persist::StateReader<'_>) -> asf_persist::Result<Self> {
        let n = r.get_len(Self::EVENT_BYTES)?;
        let mut batch = Self::with_capacity(n);
        let mut last = f64::NEG_INFINITY;
        for _ in 0..n {
            let t = r.get_f64()?;
            if t.is_nan() || t < last {
                return Err(asf_persist::PersistError::corrupt("journal events out of order"));
            }
            last = t;
            batch.times.push(t);
        }
        for _ in 0..n {
            batch.streams.push(StreamId(r.get_u32()?));
        }
        for _ in 0..n {
            let v = r.get_f64()?;
            if !v.is_finite() {
                return Err(asf_persist::PersistError::corrupt("journal value not finite"));
            }
            batch.values.push(v);
        }
        Ok(batch)
    }
}

/// A source of time-ordered update events.
///
/// Implementations must yield events with non-decreasing `time` and finite
/// values; the engine asserts both.
pub trait Workload {
    /// Number of streams in the population.
    fn num_streams(&self) -> usize;

    /// Initial values of all streams at time 0 (length = `num_streams`).
    fn initial_values(&self) -> Vec<f64>;

    /// Produces the next event, or `None` when the workload is exhausted.
    fn next_event(&mut self) -> Option<UpdateEvent>;

    /// Fills `out` (cleared first) with up to `max` events and returns how
    /// many were produced; `0` means the workload is exhausted (when
    /// `max > 0`). The default loops [`Workload::next_event`]; generators
    /// with columnar state override it to write the shared-window columns
    /// directly (see `asf-workloads`).
    fn next_batch(&mut self, max: usize, out: &mut EventBatch) -> usize {
        out.clear();
        while out.len() < max {
            match self.next_event() {
                Some(ev) => out.push(ev),
                None => break,
            }
        }
        out.len()
    }
}

/// A workload replaying a pre-built vector of events. Used by unit tests,
/// doc examples, and trace replay.
#[derive(Clone, Debug)]
pub struct VecWorkload {
    initial: Vec<f64>,
    events: std::vec::IntoIter<UpdateEvent>,
}

impl VecWorkload {
    /// Creates a replay workload.
    ///
    /// # Panics
    ///
    /// Panics if events are not time-ordered, reference unknown streams, or
    /// contain non-finite values — catching malformed traces at
    /// construction, not mid-simulation.
    pub fn new(initial: Vec<f64>, events: Vec<UpdateEvent>) -> Self {
        let n = initial.len();
        let mut last = f64::NEG_INFINITY;
        for ev in &events {
            assert!(ev.time >= last, "events must be time-ordered");
            assert!(ev.stream.index() < n, "event references unknown stream {}", ev.stream);
            assert!(ev.value.is_finite(), "event value must be finite");
            last = ev.time;
        }
        Self { initial, events: events.into_iter() }
    }
}

impl Workload for VecWorkload {
    fn num_streams(&self) -> usize {
        self.initial.len()
    }

    fn initial_values(&self) -> Vec<f64> {
        self.initial.clone()
    }

    fn next_event(&mut self) -> Option<UpdateEvent> {
        self.events.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_workload_replays_in_order() {
        let evs = vec![
            UpdateEvent { time: 1.0, stream: StreamId(0), value: 5.0 },
            UpdateEvent { time: 2.0, stream: StreamId(1), value: 6.0 },
        ];
        let mut w = VecWorkload::new(vec![0.0, 0.0], evs.clone());
        assert_eq!(w.num_streams(), 2);
        assert_eq!(w.initial_values(), vec![0.0, 0.0]);
        assert_eq!(w.next_event(), Some(evs[0]));
        assert_eq!(w.next_event(), Some(evs[1]));
        assert_eq!(w.next_event(), None);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn rejects_out_of_order_events() {
        VecWorkload::new(
            vec![0.0],
            vec![
                UpdateEvent { time: 2.0, stream: StreamId(0), value: 1.0 },
                UpdateEvent { time: 1.0, stream: StreamId(0), value: 2.0 },
            ],
        );
    }

    #[test]
    fn event_batch_roundtrips_columns() {
        let evs = vec![
            UpdateEvent { time: 1.0, stream: StreamId(3), value: 5.0 },
            UpdateEvent { time: 2.0, stream: StreamId(0), value: 6.5 },
        ];
        let mut batch = EventBatch::with_capacity(4);
        batch.extend_from_events(&evs);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.get(0), evs[0]);
        assert_eq!(batch.iter().collect::<Vec<_>>(), evs);
        assert_eq!(batch.streams(), &[StreamId(3), StreamId(0)]);
        assert_eq!(batch.byte_len(), 2 * (8 + 4 + 8));

        let mut tail = EventBatch::new();
        tail.extend_from_batch(&batch, 1, 2);
        assert_eq!(tail.iter().collect::<Vec<_>>(), &evs[1..]);

        batch.clear();
        assert!(batch.is_empty());
        batch.push(evs[1]);
        assert_eq!(batch.get(0), evs[1]);
    }

    #[test]
    fn next_batch_default_chunks_the_event_stream() {
        let evs: Vec<UpdateEvent> = (0..5)
            .map(|i| UpdateEvent { time: i as f64, stream: StreamId(0), value: i as f64 })
            .collect();
        let mut w = VecWorkload::new(vec![0.0], evs.clone());
        let mut batch = EventBatch::new();
        assert_eq!(w.next_batch(2, &mut batch), 2);
        assert_eq!(batch.iter().collect::<Vec<_>>(), &evs[..2]);
        assert_eq!(w.next_batch(2, &mut batch), 2);
        assert_eq!(batch.iter().collect::<Vec<_>>(), &evs[2..4]);
        assert_eq!(w.next_batch(2, &mut batch), 1, "tail batch is short");
        assert_eq!(batch.iter().collect::<Vec<_>>(), &evs[4..]);
        assert_eq!(w.next_batch(2, &mut batch), 0, "exhausted");
        assert!(batch.is_empty());
    }

    #[test]
    fn event_batch_encode_decode_round_trips() {
        let mut batch = EventBatch::new();
        batch.push(UpdateEvent { time: 1.0, stream: StreamId(3), value: 5.5 });
        batch.push(UpdateEvent { time: 2.5, stream: StreamId(0), value: -6.25 });
        let mut w = asf_persist::StateWriter::new();
        batch.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = asf_persist::StateReader::new(&bytes);
        let back = EventBatch::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, batch);

        // Out-of-order times and absurd lengths are corruption, not data.
        let mut w = asf_persist::StateWriter::new();
        w.put_u64(2);
        w.put_f64(2.0);
        w.put_f64(1.0);
        w.put_u32(0);
        w.put_u32(0);
        w.put_f64(0.0);
        w.put_f64(0.0);
        let bytes = w.into_bytes();
        assert!(EventBatch::decode(&mut asf_persist::StateReader::new(&bytes)).is_err());
        let mut w = asf_persist::StateWriter::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        assert!(EventBatch::decode(&mut asf_persist::StateReader::new(&bytes)).is_err());
    }

    #[test]
    #[should_panic(expected = "unknown stream")]
    fn rejects_unknown_stream() {
        VecWorkload::new(
            vec![0.0],
            vec![UpdateEvent { time: 0.0, stream: StreamId(5), value: 1.0 }],
        );
    }
}
