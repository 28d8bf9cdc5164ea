//! 2-D random-walk workload for the multi-dimensional extension
//! (`asf_core::multidim`): objects move in a bounded box with Gaussian
//! steps per axis, reflected at the edges — the 2-D analogue of the §6.2
//! synthetic model, standing in for the location-monitoring workloads the
//! paper's introduction motivates.
//!
//! Each source reports its position under a [`Projection`], so the
//! workload is an ordinary 1-D [`Workload`]; the true positions stay
//! readable for the 2-D oracle.

use asf_core::multidim::{Point2, Projection};
use asf_core::workload::{UpdateEvent, Workload};
use simkit::dist::Sample;
use simkit::{reflect_into, EventQueue, Exponential, Normal, SimRng, Uniform};
use streamnet::StreamId;

/// Parameters of the 2-D walk.
#[derive(Clone, Copy, Debug)]
pub struct Walk2dConfig {
    /// Number of moving objects.
    pub num_objects: usize,
    /// Box extents: positions live in `[0, width] x [0, height]`.
    pub width: f64,
    /// Box height.
    pub height: f64,
    /// Mean exponential inter-movement time per object.
    pub mean_interarrival: f64,
    /// Per-axis Gaussian step deviation.
    pub sigma: f64,
    /// Simulation horizon.
    pub horizon: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Walk2dConfig {
    fn default() -> Self {
        Self {
            num_objects: 1000,
            width: 1000.0,
            height: 1000.0,
            mean_interarrival: 20.0,
            sigma: 20.0,
            horizon: 1000.0,
            seed: 0x2D,
        }
    }
}

impl Walk2dConfig {
    fn validate(&self) {
        assert!(self.num_objects > 0, "need at least one object");
        assert!(self.width > 0.0 && self.height > 0.0, "box must be non-degenerate");
        assert!(self.mean_interarrival > 0.0, "mean inter-arrival must be positive");
        assert!(self.sigma >= 0.0 && self.horizon >= 0.0, "sigma/horizon must be >= 0");
    }
}

/// The 2-D reflected random-walk workload, projected to one value per
/// source.
pub struct Walk2dWorkload {
    config: Walk2dConfig,
    projection: Projection,
    positions: Vec<Point2>,
    initial: Vec<f64>,
    rngs: Vec<SimRng>,
    queue: EventQueue<StreamId>,
    interarrival: Exponential,
    step: Normal,
}

impl Walk2dWorkload {
    /// Builds the workload; deterministic given `config.seed`. Every
    /// value it yields is `projection` of the moved object's position.
    pub fn new(config: Walk2dConfig, projection: Projection) -> Self {
        config.validate();
        let mut master = SimRng::seed_from_u64(config.seed);
        let ux = Uniform::new(0.0, config.width);
        let uy = Uniform::new(0.0, config.height);
        let interarrival = Exponential::with_mean(config.mean_interarrival);

        let mut positions = Vec::with_capacity(config.num_objects);
        let mut rngs = Vec::with_capacity(config.num_objects);
        let mut queue = EventQueue::with_capacity(config.num_objects);
        for i in 0..config.num_objects {
            let mut rng = master.derive(i as u64);
            positions.push(Point2::new(ux.sample(&mut rng), uy.sample(&mut rng)));
            let first = interarrival.sample(&mut rng);
            if first <= config.horizon {
                queue.schedule(first, StreamId(i as u32));
            }
            rngs.push(rng);
        }
        let initial = positions.iter().map(|&p| projection.project(p)).collect();
        Self {
            config,
            projection,
            positions,
            initial,
            rngs,
            queue,
            interarrival,
            step: Normal::new(0.0, config.sigma),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &Walk2dConfig {
        &self.config
    }

    /// The true positions after the last event produced, indexed by
    /// stream id — the 2-D oracle's ground truth.
    pub fn positions(&self) -> &[Point2] {
        &self.positions
    }
}

impl Workload for Walk2dWorkload {
    fn num_streams(&self) -> usize {
        self.config.num_objects
    }

    fn initial_values(&self) -> Vec<f64> {
        self.initial.clone()
    }

    fn next_event(&mut self) -> Option<UpdateEvent> {
        let (time, stream) = self.queue.pop()?;
        let i = stream.index();
        let rng = &mut self.rngs[i];
        let dx = self.step.sample(rng);
        let dy = self.step.sample(rng);
        let prev = self.positions[i];
        let to = Point2::new(
            reflect_into(prev.x + dx, 0.0, self.config.width),
            reflect_into(prev.y + dy, 0.0, self.config.height),
        );
        self.positions[i] = to;
        let next = time + self.interarrival.sample(rng);
        if next <= self.config.horizon {
            self.queue.schedule(next, stream);
        }
        Some(UpdateEvent { time, stream, value: self.projection.project(to) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Walk2dConfig {
        Walk2dConfig { num_objects: 30, horizon: 300.0, seed: 17, ..Default::default() }
    }

    fn walk(config: Walk2dConfig) -> Walk2dWorkload {
        Walk2dWorkload::new(config, Projection::distance_to(Point2::new(500.0, 500.0)).unwrap())
    }

    #[test]
    fn events_ordered_and_in_box() {
        let mut w = walk(small());
        let mut last = 0.0;
        let mut count = 0;
        while let Some(ev) = w.next_event() {
            assert!(ev.time >= last);
            let to = w.positions()[ev.stream.index()];
            assert!((0.0..=1000.0).contains(&to.x) && (0.0..=1000.0).contains(&to.y));
            assert_eq!(ev.value, to.distance(Point2::new(500.0, 500.0)));
            last = ev.time;
            count += 1;
        }
        assert!(count > 200, "got only {count} events");
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = walk(small());
        let mut b = walk(small());
        assert_eq!(a.initial_values(), b.initial_values());
        for _ in 0..100 {
            assert_eq!(a.next_event(), b.next_event());
            assert_eq!(a.positions(), b.positions());
        }
    }

    #[test]
    fn movement_scale_follows_sigma() {
        let avg_step = |sigma: f64| {
            let mut w = walk(Walk2dConfig { sigma, ..small() });
            let mut prev = w.positions().to_vec();
            let mut total = 0.0;
            let mut n = 0;
            while let Some(ev) = w.next_event() {
                let to = w.positions()[ev.stream.index()];
                total += prev[ev.stream.index()].distance(to);
                prev[ev.stream.index()] = to;
                n += 1;
            }
            total / n as f64
        };
        assert!(avg_step(50.0) > avg_step(10.0));
    }
}
