//! Open-loop arrivals: a schedule fixed by the seed before the first op
//! is sent, and a runner that never lets a slow op move a later op's
//! intended instant. Latency is taken from the intended instant, so the
//! time an op spent waiting behind a stall is counted, not omitted.

use crate::stats::Rng;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArrivalKind {
    /// A trusted client's full fetch.
    Benign,
    /// A flooder's request that never solves.
    Flood,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// Intended send instant, nanoseconds from the phase start.
    pub at_ns: u64,
    pub kind: ArrivalKind,
    /// Index into the kind's source-address range.
    pub source: u32,
}

/// Two fixed-rate streams merged in time order. Each stream is strictly
/// periodic from a seeded phase; benign sources are drawn from the seed,
/// flood sources cycle (address cycling is the attack) from a seeded
/// start.
pub fn build(
    seed: u64,
    duration_ns: u64,
    benign_per_s: f64,
    flood_per_s: f64,
    sources: (u32, u32),
) -> Vec<Arrival> {
    let mut rng = Rng::new(seed ^ 0x5C4E_D01E);
    let mut arrivals = Vec::new();
    for (kind, per_s, range) in [
        (ArrivalKind::Benign, benign_per_s, sources.0),
        (ArrivalKind::Flood, flood_per_s, sources.1),
    ] {
        let period_ns = 1e9 / per_s;
        let phase_ns = rng.below(period_ns as u64) as f64;
        let cycle_start = rng.below(range as u64) as u32;
        for i in 0.. {
            let at_ns = (phase_ns + i as f64 * period_ns) as u64;
            if at_ns >= duration_ns {
                break;
            }
            let source = match kind {
                ArrivalKind::Benign => rng.below(range as u64) as u32,
                ArrivalKind::Flood => cycle_start.wrapping_add(i) % range,
            };
            arrivals.push(Arrival {
                at_ns,
                kind,
                source,
            });
        }
    }
    arrivals.sort_by_key(|a| (a.at_ns, a.kind == ArrivalKind::Flood));
    arrivals
}

/// FNV-1a over every field of every arrival: two schedules with the same
/// hash sent the server the same op sequence.
pub fn hash(arrivals: &[Arrival]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for a in arrivals {
        let kind = (a.kind == ArrivalKind::Flood) as u64;
        for byte in a
            .at_ns
            .to_le_bytes()
            .into_iter()
            .chain(kind.to_le_bytes())
            .chain((a.source as u64).to_le_bytes())
        {
            h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// The runner's view of time, so a test can drive it without sleeping.
pub trait Clock {
    /// Nanoseconds since the phase start.
    fn now_ns(&self) -> u64;
    /// Returns no earlier than `at_ns`.
    fn wait_until(&self, at_ns: u64);
}

/// When one op ran against when it was due.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    pub intended_ns: u64,
    pub started_ns: u64,
    pub finished_ns: u64,
}

impl Timing {
    /// How late the generator started the op.
    pub fn late_ns(&self) -> u64 {
        self.started_ns - self.intended_ns
    }
}

/// Waits for `arrival`'s intended instant and returns when its op
/// actually starts. An earlier op that overran delays this start, never
/// the intended instant the latency is taken from.
pub fn start<C: Clock>(clock: &C, arrival: &Arrival) -> u64 {
    clock.wait_until(arrival.at_ns);
    clock.now_ns().max(arrival.at_ns)
}

/// Closes the op started at `started_ns`.
pub fn finish<C: Clock>(clock: &C, arrival: &Arrival, started_ns: u64) -> Timing {
    Timing {
        intended_ns: arrival.at_ns,
        started_ns,
        finished_ns: clock.now_ns().max(started_ns),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::percentile;
    use std::cell::Cell;

    /// Virtual time: waiting jumps the clock, an op advances it by its
    /// service time.
    struct FakeClock(Cell<u64>);

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.0.get()
        }
        fn wait_until(&self, at_ns: u64) {
            self.0.set(self.0.get().max(at_ns));
        }
    }

    const MS: u64 = 1_000_000;

    /// 1 000 benign ops/s for 2 s, each taking 0.2 ms, with one 50 ms
    /// stall injected into the op due at 0.5 s.
    fn run_with_stall(stall_ns: u64) -> Vec<Timing> {
        let arrivals = build(3, 2_000 * MS, 1_000.0, 1e-3, (16, 16));
        let clock = FakeClock(Cell::new(0));
        let stalled = arrivals.iter().position(|a| a.at_ns >= 500 * MS).unwrap();
        let mut timings = Vec::new();
        for (index, arrival) in arrivals.iter().enumerate() {
            let started = start(&clock, arrival);
            let service = if index == stalled { stall_ns } else { MS / 5 };
            clock.0.set(clock.0.get() + service);
            timings.push(finish(&clock, arrival, started));
        }
        timings
    }

    /// Latency a user saw: from when the op was due.
    fn latency_ns(t: &Timing) -> u64 {
        t.finished_ns - t.intended_ns
    }

    fn p99(mut values: Vec<u64>) -> u64 {
        values.sort_unstable();
        percentile(&values, 0.99).expect("2 000 samples leave 20 beyond p99")
    }

    #[test]
    fn a_stall_raises_the_p99_of_the_ops_due_during_it() {
        let calm = run_with_stall(MS / 5);
        let stalled = run_with_stall(50 * MS);
        assert_eq!(p99(calm.iter().map(latency_ns).collect()), MS / 5);

        // ~62 ops were due while the stall and its backlog lasted (50 ms
        // of arrivals, drained at 0.8 ms of slack per op): over 1 % of
        // 2 000, so the p99 from intended instants must show them.
        let from_intended = p99(stalled.iter().map(latency_ns).collect());
        assert!(
            from_intended > 30 * MS,
            "p99 {from_intended} ns hides the stall"
        );

        // The coordinated-omission reading (latency from the actual
        // start) sees one slow op in 2 000 and a p99 that never moved.
        let from_start = p99(stalled
            .iter()
            .map(|t| t.finished_ns - t.started_ns)
            .collect());
        assert_eq!(from_start, MS / 5);

        let late = p99(stalled.iter().map(Timing::late_ns).collect());
        assert!(late > 30 * MS, "generator lateness {late} ns not reported");
    }

    #[test]
    fn same_seed_same_op_sequence() {
        let a = build(42, 1_000 * MS, 700.0, 1_400.0, (1_024, 16_384));
        let b = build(42, 1_000 * MS, 700.0, 1_400.0, (1_024, 16_384));
        assert_eq!(a, b);
        assert_eq!(hash(&a), hash(&b));
        assert_eq!(
            hash(&a),
            0x440A_895A_369E_0683,
            "schedule for seed 42 changed"
        );
        assert_ne!(
            hash(&a),
            hash(&build(43, 1_000 * MS, 700.0, 1_400.0, (1_024, 16_384)))
        );
    }

    #[test]
    fn streams_keep_their_rates_and_order() {
        let arrivals = build(9, 1_000 * MS, 700.0, 1_400.0, (1_024, 16_384));
        let benign = arrivals
            .iter()
            .filter(|a| a.kind == ArrivalKind::Benign)
            .count();
        assert_eq!(benign, 700);
        assert_eq!(arrivals.len() - benign, 1_400);
        assert!(arrivals.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        // Flood sources cycle: consecutive flood ops never share one.
        let flood: Vec<u32> = arrivals
            .iter()
            .filter(|a| a.kind == ArrivalKind::Flood)
            .map(|a| a.source)
            .collect();
        assert!(flood.windows(2).all(|w| w[1] == (w[0] + 1) % 16_384));
    }
}
