//! Seeded input generation. Every input a workload sends to the program
//! comes from here, so one `--seed` fixes the whole op stream.

/// splitmix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        // Distinct streams of one seed must not overlap in their first
        // outputs, so the stream id is mixed in before the first step.
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// Stream ids, one per generator, so adding a generator never shifts
/// the values another one produces for the same seed.
const PING_STREAM: u64 = 1;
const TASK_STREAM: u64 = 2;

/// `pingpong`: the payload of the `i`-th ping. Distinct by construction
/// (the index sits in the high bits), so "every pong received exactly
/// once" is checkable by value.
#[derive(Debug, Clone)]
pub struct PingGen {
    rng: Rng,
    next: i64,
}

impl PingGen {
    pub fn new(seed: u64) -> PingGen {
        PingGen {
            rng: Rng::new(seed, PING_STREAM),
            next: 0,
        }
    }

    pub fn next_ping(&mut self) -> i64 {
        let v = (self.next << 20) | (self.rng.next_u64() & 0xF_FFFF) as i64;
        self.next += 1;
        v
    }
}

/// The sentinel ping that stops the pong server. Generated pings are
/// never negative.
pub const PING_STOP: i64 = -1;

/// `bag_of_tasks`: task `id` carries payload `payload(id)`; the worker
/// answers `task_result(payload)`.
pub struct TaskGen {
    rng: Rng,
    next_id: i64,
}

impl TaskGen {
    pub fn new(seed: u64) -> TaskGen {
        TaskGen {
            rng: Rng::new(seed, TASK_STREAM),
            next_id: 0,
        }
    }

    /// The next task as `(id, payload)`.
    pub fn next_task(&mut self) -> (i64, i64) {
        let id = self.next_id;
        self.next_id += 1;
        (id, (self.rng.next_u64() >> 2) as i64)
    }
}

/// The near-zero work a worker does for one task.
pub fn task_result(payload: i64) -> i64 {
    payload.wrapping_mul(3).wrapping_add(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pings(seed: u64, n: usize) -> Vec<i64> {
        let mut g = PingGen::new(seed);
        (0..n).map(|_| g.next_ping()).collect()
    }

    fn tasks(seed: u64, n: usize) -> Vec<(i64, i64)> {
        let mut g = TaskGen::new(seed);
        (0..n).map(|_| g.next_task()).collect()
    }

    #[test]
    fn same_seed_gives_identical_streams() {
        assert_eq!(pings(7, 1000), pings(7, 1000));
        assert_eq!(tasks(7, 1000), tasks(7, 1000));
    }

    #[test]
    fn seeds_give_different_streams() {
        assert_ne!(pings(7, 100), pings(8, 100));
        assert_ne!(tasks(7, 100), tasks(8, 100));
    }

    #[test]
    fn pings_are_distinct_and_never_the_stop_sentinel() {
        let p = pings(3, 10_000);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), p.len(), "pings are distinct");
        assert!(p.iter().all(|&v| v >= 0 && v != PING_STOP));
    }
}
